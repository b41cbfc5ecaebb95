"""The four benchmark workloads: seeded inputs, one op each, and answer checks.

Each ``setup_<name>(seed, root)`` builds its inputs from the seed only and
returns the list of ops the timed loop cycles through. An op's ``run``
makes one call into capreq (or starts one ``capreq.cli`` process); its
``check`` verifies the answer from outside the engine and returns
``(digest, strategy, tag)``, or raises ``CheckFailed``. All capreq
functions are looked up on their module at call time, so a traced run sees
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from capreq import acceptance as ac
from capreq import cli, market as mk, riskmeasure as rm, verify
from tracer import value_tag

# documented refusals: completed ops, counted on their own
REFUSALS = (rm.DegenerateAcceptance, rm.EnumerationTooLarge)
PRICE_TOL = {"direct_lp": 1e-8, "var_enum": 1e-8, "reduction": 1e-6}


class CheckFailed(Exception):
    """An answer failed its certificate or a repeat changed its output."""


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str, str | None]]
    states: int
    argv: list[str] | None = None   # cli ops: arguments after ``-m capreq.cli``


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def planted_market(rng: np.random.Generator, n: int, n_risky: int, space=None):
    """Arbitrage-free market with planted strictly positive state prices.

    State probabilities are random unless a scenario ``space`` is given.
    """
    while True:
        psi = rng.uniform(0.1, 1.0, size=n)
        psi /= psi.sum()
        payoffs = np.vstack([np.ones(n), rng.uniform(-2.0, 5.0, size=(n_risky, n))])
        svals = np.linalg.svd(payoffs, compute_uv=False)
        if svals[-1] > 1e-6 * svals[0]:
            break
    if space is None:
        probs = rng.uniform(0.2, 1.0, size=n)
        space = mk.ScenarioSpace(tuple(f"s{i}" for i in range(n)), probs / probs.sum())
    vm = mk.validate_market(mk.Market(space, payoffs @ psi, payoffs))
    if mk.check_no_arbitrage(vm).kind != "none":
        raise RuntimeError("planted market reported an arbitrage")
    return vm


def _solve_op(a, vm, x) -> Op:
    """One ``solve_rho`` call, checked by its payoff/price certificate."""

    def check(r):
        strategy = r.strategy.split("[")[0]
        tag = value_tag(r.value)
        if r.attained:
            payoff = r.optimal_payoff
            if not a.member(x + payoff):
                raise CheckFailed(f"{strategy}: position plus payoff is not acceptable")
            try:
                price = vm.price(payoff)
            except mk.NotInSpan as exc:
                raise CheckFailed(f"{strategy}: payoff is not eligible") from exc
            if abs(price - r.value) > PRICE_TOL[strategy]:
                raise CheckFailed(f"{strategy}: payoff price {price!r} != value {r.value!r}")
        elif tag == "finite" and strategy in ("direct_lp", "var_enum"):
            raise CheckFailed(f"{strategy}: finite value without a certified payoff")
        payoff = b"" if r.optimal_payoff is None else r.optimal_payoff.tobytes()
        return _digest(r.strategy, float(r.value).hex(), r.attained, payoff), strategy, tag

    return Op(lambda: rm.solve_rho(a, vm, x), check, vm.n_states)


def setup_direct_sweep(seed: int, root) -> list[Op]:
    """Many positions against positive cone, AVaR and cone-and-AVaR sets, 4-16 states."""
    rng = np.random.default_rng([seed, 1])
    pairs = []
    for n in (4, 8, 12, 16):
        for n_risky in (1, 2, 3, 2):
            vm = planted_market(rng, n, n_risky)
            alpha = float(rng.uniform(0.2, 0.6))
            pairs.append((ac.positive_cone(n), vm))
            pairs.append((ac.avar_acceptance(vm.space, alpha), vm))
            pairs.append((ac.intersect([ac.positive_cone(n),
                                        ac.avar_acceptance(vm.space, alpha)]), vm))
    return [_solve_op(a, vm, rng.uniform(-5.0, 5.0, size=vm.n_states))
            for _ in range(24) for a, vm in pairs]


def setup_var_enum(seed: int, root) -> list[Op]:
    """VaR acceptance at 10 to 14 equiprobable states: the enumeration runs in full.

    With equal state probabilities and alpha = 2/n every set of at most two
    states is an admissible loss set, so a solve makes 1 + n + n(n-1)/2
    LPs (56 at 10 states, 106 at 14) whatever the seed. Five sizes keep the
    latency distribution free of wide gaps.
    """
    rng = np.random.default_rng([seed, 2])
    sets = []
    for n in range(10, 15):
        for j in range(3):
            vm = planted_market(rng, n, 1 + j % 2, mk.uniform_space(n))
            sets.append((ac.var_acceptance(vm.space, 2.0 / n), vm))
    return [_solve_op(a, vm, rng.uniform(-5.0, 5.0, size=vm.n_states))
            for _ in range(8) for a, vm in sets]


def _report_op(run, states: int, name: str) -> Op:
    def check(report):
        if report.violations:
            raise CheckFailed(f"{name}: {len(report.violations)} violations: "
                              f"{report.violations[0]}")
        return _digest(report.to_json()), name, None

    return Op(run, check, states)


def _harness_ops(a, vm, rng: np.random.Generator) -> list[Op]:
    n = vm.n_states
    s = [int(v) for v in rng.integers(0, 2 ** 31, size=4)]
    positions = [rng.uniform(-5.0, 5.0, size=n) for _ in range(4)]
    agreement = (lambda: verify.check_solver_agreement(
        vm, positions, lambda x: rm.solve_rho(a, vm, x), lambda x: rm.rho_reduction(a, vm, x)))
    # trial counts chosen so that the five checks cost about the same
    return [
        _report_op(lambda: verify.check_risk_measure_axioms(a, vm, trials=6, seed=s[0]),
                   n, "axioms"),
        _report_op(lambda: verify.check_domain_theorem(a, vm, trials=8, seed=s[1]),
                   n, "domain"),
        _report_op(lambda: verify.check_levelset_theorem(a, vm, grid=3, seed=s[2]),
                   n, "levelset"),
        _report_op(lambda: verify.check_induced_set_theorem(a, vm, trials=3, seed=s[3]),
                   n, "induced"),
        _report_op(agreement, n, "agreement"),
    ]


# (set constructor, instances wanted by "requirement is -inf at zero");
# arbitrage-free markets give the positive cone no such instance
HARNESS_SETS = (
    (lambda vm, rng: ac.positive_cone(vm.n_states), {False: 12}),
    (lambda vm, rng: ac.avar_acceptance(vm.space, float(rng.uniform(0.3, 0.6))),
     {True: 6, False: 6}),
    (lambda vm, rng: ac.var_acceptance(vm.space, 1.5 / vm.n_states), {True: 6, False: 6}),
)


def setup_harness(seed: int, root) -> list[Op]:
    """Property checks on 3-5-state markets under positive cone, AVaR and VaR sets.

    An instance whose requirement is -inf at zero costs a fraction of one
    whose requirement is finite (the induced-set check is refused and most
    solves stop early). So each (size, set) takes a fixed number of each
    kind from at most 40 candidate markets, instead of a random mix; some
    kinds are rare or absent (VaR at 3 states is always -inf at zero). The
    number of risky assets cycles through 1 .. n-1 for the same reason.
    The ops come in a seeded random order, so that the part of the list a
    run covers after its last full pass is a sample of the whole list, not
    its smallest instances.
    """
    rng = np.random.default_rng([seed, 3])
    ops = []
    for n in (3, 4, 5):
        for make_set, quota in HARNESS_SETS:
            wanted = dict(quota)
            for j in range(40):
                vm = planted_market(rng, n, 1 + j % (n - 1))
                a = make_set(vm, rng)
                degenerate = rm.solve_rho(a, vm, np.zeros(n)).value == -math.inf
                if wanted.get(degenerate, 0):
                    wanted[degenerate] -= 1
                    ops.extend(_harness_ops(a, vm, rng))
                if not any(wanted.values()):
                    break
    return [ops[i] for i in rng.permutation(len(ops))]


class Stats:
    """Latencies, failures and descriptors of the ops one loop ran."""

    def __init__(self):
        self.lat: list[float] = []
        self.start: list[float] = []   # perf_counter at the start of each op
        self.failures: list[str] = []
        self.refused = 0
        self.strategies: Counter = Counter()
        self.tags: Counter = Counter()
        self.states = 0

    def record(self, i, op, start, seconds, result, error, first) -> None:
        self.lat.append(seconds)
        self.start.append(start)
        self.states += op.states
        if isinstance(error, REFUSALS):
            self.refused += 1
            digest, strategy, tag = f"refused:{type(error).__name__}", "refused", None
        elif error is not None:
            self.failures.append(f"op {i}: {error!r}")
            return
        else:
            try:
                digest, strategy, tag = op.check(result)
            except CheckFailed as exc:
                self.failures.append(f"op {i}: {exc}")
                return
        self.strategies[strategy] += 1
        if tag is not None:
            self.tags[tag] += 1
        if first.setdefault(i, digest) != digest:
            self.failures.append(f"op {i}: output differs from its first run")


def run_op(k: int, ops, first: dict, stats: Stats, runner=None, tracer=None) -> None:
    """Run op ``k`` once, then time-stamp, check and record it.

    ``first`` maps op index to the digest of its first answer; every later
    answer of that op, in any phase of the run, must match it.
    """
    op = ops[k % len(ops)]
    if tracer is not None:
        tracer.op, tracer.active = k, True
    t0 = perf_counter()
    try:
        result, error = (op.run() if runner is None else runner(op.argv)), None
    except REFUSALS as exc:
        result, error = None, exc
    except Exception as exc:  # noqa: BLE001 - any other exception is a failed op
        result, error = None, exc
        traceback.print_exc(file=sys.stderr)
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    stats.record(k % len(ops), op, t0, elapsed, result, error, first)


def measure(ops, first: dict, seconds: float, pace) -> Stats:
    """Closed loop, one caller: op k starts after op k - 1 has returned.

    Reference slices run between ops (see ``pace``).
    """
    stats = Stats()
    deadline = perf_counter() + seconds
    k = 0
    while perf_counter() < deadline:
        run_op(k, ops, first, stats)
        pace.after_op(stats.lat[-1])
        k += 1
    return stats


def cli_env(root) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _cli_subprocess(argv: list[str], root, env: dict):
    proc = subprocess.run([sys.executable, "-m", "capreq.cli", *argv], cwd=root, env=env,
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout.decode()


def run_cli_inprocess(argv: list[str]):
    """``cli.main(argv)`` in this process, with its standard output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(result, command: str):
    code, stdout = result
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    try:
        json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed("stdout is not one JSON document") from exc
    return _digest(code, stdout.encode()), command, None


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def setup_cli(seed: int, root) -> list[Op]:
    """``python -m capreq.cli`` subprocesses over the 2- and 8-state fixtures."""
    rng = np.random.default_rng([seed, 4])
    fx = root / "perfbench" / "fixtures"
    env = cli_env(root)
    m2, m8 = str(fx / "market2.json"), str(fx / "market8.json")
    avar, cone_avar, var = (str(fx / f) for f in ("avar.json", "cone_avar.json", "var.json"))
    payoffs8 = np.asarray([a["payoff"] for a in json.loads((fx / "market8.json").read_text())
                           ["assets"]], dtype=float)
    payoffs2 = np.array([[1.0, 1.0], [2.0, 0.5]])
    # four seeded variants of the solver commands, with the fixed commands
    # spread between them so that slow ones do not bunch up
    single = [
        ["validate", m2],
        ["arbitrage", m2],
        ["arbitrage", m8],
        ["levelset", m2, avar, "--grid", "21"],
        ["properties", m2, avar, "--trials", "5", "--seed", str(int(rng.integers(2 ** 31)))],
        ["properties", m8, cone_avar, "--suite", "axioms", "--trials", "5",
         "--seed", str(int(rng.integers(2 ** 31)))],
    ]
    commands = []
    for i in range(4):
        x2 = rng.uniform(-5.0, 5.0, size=2)
        x8 = rng.uniform(-5.0, 5.0, size=8)
        commands += [
            ["price", m2, f"--payoff={_vec(rng.uniform(-2, 2, size=2) @ payoffs2)}"],
            ["price", m8, f"--payoff={_vec(rng.uniform(-2, 2, size=3) @ payoffs8)}"],
            ["requirement", m2, avar, f"--position={_vec(x2)}"],
            ["requirement", m8, cone_avar, f"--position={_vec(x8)}"],
            ["portfolio", m2, avar, f"--position={_vec(x2)}"],
            ["portfolio", m8, var, f"--position={_vec(x8)}"],
        ] + single[i::4]
    return [Op((lambda argv=argv: _cli_subprocess(argv, root, env)),
               (lambda result, command=argv[0]: _cli_check(result, command)),
               8 if m8 in argv else 2, argv)
            for argv in commands]


SETUPS = {
    "direct_sweep": setup_direct_sweep,
    "var_enum": setup_var_enum,
    "harness": setup_harness,
    "cli": setup_cli,
}
