"""Span tracer that wraps capreq's public functions from the outside.

Every public function of the seven modules is replaced by a wrapper that
records one span per call: name, parent span, op id, start and end (ns),
plus a few facts read off the arguments and result (LP shape, status and
pivots; requirement strategy, tag and diagnostics; loss-set counts; report
trial counts). Modules import these functions by name (``from .linprog
import solve_lp`` and the like), so each function is replaced under every
name that binds it in any capreq module, not only in the defining one.
Acceptance sets returned by a wrapped constructor get their ``member``
wrapped too. Spans stay in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter_ns

MODULES = ("linprog", "market", "acceptance", "riskmeasure", "directional", "verify", "cli")
ORACLE_METHODS = ("__init__", "witness", "reachable_along_u", "line_along_u")
CHECK_NAMES = {
    "check_risk_measure_axioms": "axioms",
    "check_domain_theorem": "domain",
    "check_levelset_theorem": "levelset",
    "check_induced_set_theorem": "induced",
    "check_solver_agreement": "agreement",
}
STRATEGY_SPANS = {"riskmeasure.rho_direct_lp": "direct_lp",
                  "riskmeasure.rho_var_exact": "var_enum",
                  "riskmeasure.rho_reduction": "reduction"}
CONSTRUCTORS = {"acceptance.positive_cone", "acceptance.halfspace_acceptance",
                "acceptance.var_acceptance", "acceptance.avar_acceptance",
                "acceptance.intersect", "acceptance.oracle_acceptance",
                "acceptance.load_acceptance"}
PROBES = {"directional.dir_cl_member", "directional.dir_int_member",
          "directional.dir_bd_member", "directional.rec_member"}
LP = "linprog.solve_lp"
WITNESS = "riskmeasure.MembershipOracle.witness"
MEMBER = "acceptance.member"


def shape_bucket(cells: int) -> str:
    """LP size class by rows * cols of the LpProblem: s <= 64 < m <= 400 < l."""
    return "s" if cells <= 64 else ("m" if cells <= 400 else "l")


def value_tag(value: float) -> str:
    if value == math.inf:
        return "pos_inf"
    if value == -math.inf:
        return "neg_inf"
    return "finite"


def _lp_info(args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    return (problem.n_rows * problem.n_cols, out.status, out.pivots)


def _risk_info(args, kwargs, out):
    return (out.strategy, value_tag(out.value), out.attained, dict(out.diagnostics))


def _report_info(args, kwargs, out):
    return (out.trials, out.inconclusive, len(out.violations))


INFO = {LP: _lp_info,
        "acceptance.feasible_loss_sets": lambda args, kwargs, out: len(out)}
for _name in ("solve_rho", "rho_direct_lp", "rho_var_exact", "rho_reduction",
              "rho_from_membership"):
    INFO[f"riskmeasure.{_name}"] = _risk_info
for _name in CHECK_NAMES:
    INFO[f"verify.{_name}"] = _report_info


class Tracer:
    """Records spans while ``active``; ``installed()`` patches capreq for a block."""

    def __init__(self):
        self.spans: list = []   # [name, parent, op, t0_ns, t1_ns, info]
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self._patches = self._patch_list()

    # -- recording -------------------------------------------------------

    def _traced(self, name: str, fn):
        info = INFO.get(name)
        wrap_sets = name in CONSTRUCTORS or name == "riskmeasure.induced_rho_acceptance"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            span = [name, tracer.stack[-1] if tracer.stack else -1, tracer.op, 0, 0, None]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            span[3] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter_ns()
                tracer.stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, out)
            if wrap_sets:
                out = tracer._wrap_member(out)
            return out

        traced.__traced__ = True
        return traced

    def _wrap_member(self, a):
        if getattr(a.member, "__traced__", False):
            return a
        return dataclasses.replace(a, member=self._traced(MEMBER, a.member))

    # -- patching --------------------------------------------------------

    def _patch_list(self) -> list:
        """(owner, attribute, original, wrapper) for every binding of a public function."""
        mods = {m: importlib.import_module(f"capreq.{m}") for m in MODULES}
        patches = []
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._traced(f"{short}.{attr}", fn)
                for other in mods.values():
                    for name, value in vars(other).items():
                        if value is fn:
                            patches.append((other, name, fn, wrapped))
        oracle = mods["riskmeasure"].MembershipOracle
        for attr in ORACLE_METHODS:
            fn = vars(oracle)[attr]
            patches.append((oracle, attr, fn,
                            self._traced(f"riskmeasure.MembershipOracle.{attr}", fn)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place of every binding; originals restored on exit."""
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)
        try:
            yield
        finally:
            for owner, name, fn, _ in self._patches:
                setattr(owner, name, fn)

    @contextlib.contextmanager
    def tracing(self, op: int):
        """Installed and recording, with spans charged to ``op``."""
        with self.installed():
            self.op, self.active = op, True
            try:
                yield
            finally:
                self.active = False

    def write(self, path) -> None:
        rows = [s[:5] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "parent", "op", "t0_ns", "t1_ns"], "spans": rows},
                      handle)

    # -- analysis --------------------------------------------------------

    def analyse(self, n_ops: int, op_seconds: float) -> tuple[dict, list[str]]:
        """Per-layer metrics over op spans, plus self-check mismatches."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child_ns[s[1]] += s[4] - s[3]
        # LP calls and pivots, and oracle witness calls, below each span
        lp_below: dict[int, list] = defaultdict(lambda: [0, 0])
        witness_below: Counter = Counter()
        for s in spans:
            if s[0] == LP and s[5] is not None:
                p = s[1]
                while p >= 0:
                    lp_below[p][0] += 1
                    lp_below[p][1] += s[5][2]
                    p = spans[p][1]
            elif s[0] == WITNESS:
                p = s[1]
                while p >= 0:
                    witness_below[p] += 1
                    p = spans[p][1]

        op_spans = [i for i, s in enumerate(spans) if s[2] >= 0]
        self_ns: Counter = Counter()
        by_name = defaultdict(list)
        for i in op_spans:
            s = spans[i]
            self_ns[s[0].split(".")[0]] += s[4] - s[3] - child_ns[i]
            by_name[s[0]].append(i)
        ops = max(n_ops, 1)
        m: dict[str, float] = {}

        def per_op(x):
            return x / ops

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        def median(xs):
            xs = sorted(xs)
            if not xs:
                return 0.0
            k = len(xs) // 2
            return float(xs[k]) if len(xs) % 2 else 0.5 * (xs[k - 1] + xs[k])

        def dur_ms(i):
            return (spans[i][4] - spans[i][3]) / 1e6

        lps = [i for i in by_name[LP] if spans[i][5] is not None]
        m["linprog.calls_per_op"] = per_op(len(by_name[LP]))
        m["linprog.self_ms_per_op"] = per_op(self_ns["linprog"] / 1e6)
        m["linprog.share"] = self_ns["linprog"] / 1e9 / op_seconds if op_seconds > 0 else 0.0
        pivots = sum(spans[i][5][2] for i in lps)
        lp_us = sum(dur_ms(i) for i in lps) * 1e3
        m["linprog.us_per_pivot"] = lp_us / pivots if pivots else 0.0
        for b in "sml":
            in_b = [i for i in lps if shape_bucket(spans[i][5][0]) == b]
            m[f"linprog.call_p50_us.{b}"] = median([dur_ms(i) * 1e3 for i in in_b])
            m[f"linprog.pivots_per_call.{b}"] = mean([spans[i][5][2] for i in in_b])
            m[f"linprog.shape_frac.{b}"] = len(in_b) / len(lps) if lps else 0.0
        for status in ("infeasible", "unbounded"):
            hits = sum(1 for i in lps if spans[i][5][1] == status)
            m[f"linprog.{status}_frac"] = hits / len(lps) if lps else 0.0

        for span_name, key in STRATEGY_SPANS.items():
            m[f"riskmeasure.lp_per_solve.{key}"] = mean(
                [lp_below[i][0] for i in by_name[span_name]])
        searches = [i for i in by_name["riskmeasure.rho_from_membership"]
                    if spans[i][5] is not None]
        m["riskmeasure.bisect_steps_per_solve"] = mean(
            [spans[i][5][3]["bisect_steps"] for i in searches])
        m["riskmeasure.bracket_steps_per_solve"] = mean(
            [spans[i][5][3]["bracket_steps"] for i in searches])
        m["riskmeasure.membership_calls_per_solve"] = mean(
            [witness_below[i] for i in searches])
        var_solves = [i for i in by_name["riskmeasure.rho_var_exact"] if spans[i][5] is not None]
        m["riskmeasure.loss_sets_scanned_per_solve"] = mean(
            [spans[i][5][3]["loss_sets_scanned"] for i in var_solves])
        enums = by_name["acceptance.feasible_loss_sets"]
        m["acceptance.enum_calls_per_op"] = per_op(len(enums))
        m["acceptance.enum_ms_per_op"] = per_op(sum(dur_ms(i) for i in enums))
        m["acceptance.loss_sets_per_enum"] = mean(
            [spans[i][5] for i in enums if spans[i][5] is not None])

        solves = [spans[i][5] for i in by_name["riskmeasure.solve_rho"] if spans[i][5] is not None]
        m["riskmeasure.self_ms_per_op"] = per_op(self_ns["riskmeasure"] / 1e6)
        m["riskmeasure.attained_frac"] = mean([1.0 if s[2] else 0.0 for s in solves])
        for tag in ("finite", "pos_inf", "neg_inf"):
            m[f"riskmeasure.tag_frac.{tag}"] = mean([1.0 if s[1] == tag else 0.0 for s in solves])
        for key in STRATEGY_SPANS.values():
            m[f"riskmeasure.strategy_frac.{key}"] = mean(
                [1.0 if s[0].split("[")[0] == key else 0.0 for s in solves])

        m["acceptance.member_calls_per_op"] = per_op(sum(
            1 for i in by_name[MEMBER]
            if spans[i][1] < 0 or spans[spans[i][1]][0] != MEMBER))
        m["directional.probe_calls_per_op"] = per_op(sum(
            1 for name in PROBES for i in by_name[name]
            if spans[i][1] < 0 or spans[spans[i][1]][0] not in PROBES))
        m["directional.self_ms_per_op"] = per_op(self_ns["directional"] / 1e6)

        m["verify.self_ms_per_op"] = per_op(self_ns["verify"] / 1e6)
        trials = inconclusive = 0
        for fn_name, key in CHECK_NAMES.items():
            calls = by_name[f"verify.{fn_name}"]
            m[f"verify.check_ms.{key}"] = mean([dur_ms(i) for i in calls])
            for i in calls:
                if spans[i][5] is not None:
                    trials += spans[i][5][0]
                    inconclusive += spans[i][5][1]
        m["verify.inconclusive_frac"] = inconclusive / trials if trials else 0.0

        # set-up layers: every call, set-up included
        every = defaultdict(list)
        for i, s in enumerate(spans):
            every[s[0]].append(i)
        m["market.validate_ms"] = mean([dur_ms(i) for i in every["market.validate_market"]])
        m["market.arbitrage_ms"] = mean([dur_ms(i) for i in every["market.check_no_arbitrage"]])
        m["acceptance.construct_ms"] = mean([
            dur_ms(i) for name in CONSTRUCTORS for i in every[name]
            if spans[i][1] < 0 or spans[spans[i][1]][0] not in CONSTRUCTORS])

        return m, self._self_check(spans, by_name, lp_below)

    @staticmethod
    def _self_check(spans, by_name, lp_below) -> list[str]:
        """Tracer counts against the counts the engine publishes in diagnostics."""
        problems = []
        for i in by_name["riskmeasure.rho_direct_lp"]:
            if spans[i][5] is None:
                continue
            calls, pivots = lp_below[i]
            diag = spans[i][5][3]
            if calls != 1:
                problems.append(f"direct_lp span {i}: {calls} solve_lp calls, expected 1")
            elif "pivots" in diag and diag["pivots"] != pivots:
                problems.append(f"direct_lp span {i}: traced pivots {pivots} != {diag['pivots']}")
        for i in by_name["riskmeasure.rho_var_exact"]:
            if spans[i][5] is None:
                continue
            _, tag, _, diag = spans[i][5]
            expected = diag["loss_sets_scanned"]
            if tag == "neg_inf" and "unbounded_loss_set" not in diag:
                expected -= 1   # exit on an empty keep-set makes no LP
            if lp_below[i][0] != expected:
                problems.append(f"var_enum span {i}: {lp_below[i][0]} solve_lp calls, "
                                f"expected {expected}")
        return problems
