"""The names and strategy strings the benchmark in ``perfbench/`` relies on.

``perfbench/workloads.py`` checks each answer with ``PRICE_TOL[strategy]``
and ``perfbench/tracer.py`` patches the functions its span tables name, so
a renamed strategy or function must fail here rather than in a benchmark
run. The tracer's self-check also equates a ``var_enum`` solve's
``solve_lp`` calls with its ``loss_sets_scanned``, and a smoke run of the
first ops of three workloads, untraced and traced, catches a change that
breaks a workload or the tracer before a benchmark run does. The
benchmark files are read, never modified.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import capreq.riskmeasure as rm
from capreq.acceptance import var_acceptance
from capreq.linprog import OPTIMAL, make_problem, solve_lp
from capreq.riskmeasure import MembershipOracle, rho_reduction, rho_var_exact, solve_rho
from conftest import loadable_sets, random_market

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads"), importlib.import_module("tracer")
    for name in ("workloads", "tracer"):
        sys.modules.pop(name, None)


def test_every_strategy_has_a_price_tolerance(bench):
    workloads, _ = bench
    rng = np.random.default_rng(89)
    seen = set()
    for n in (3, 4, 5, 6):
        vm = random_market(rng, n_states=n)
        for a in loadable_sets(rng, vm.space):
            x = rng.uniform(-5, 5, size=n)
            seen.update(solve(a, vm, x).strategy for solve in (solve_rho, rho_reduction))
    assert {"direct_lp", "var_enum", "reduction"} <= seen
    assert seen <= set(workloads.PRICE_TOL)


def test_span_names_resolve_to_public_functions(bench):
    _, tracer = bench
    names = (set(tracer.STRATEGY_SPANS) | set(tracer.INFO) | set(tracer.CONSTRUCTORS)
             | set(tracer.PROBES))
    for name in sorted(names):
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"capreq.{module}"), attr, None)
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
    for attr in tracer.ORACLE_METHODS:
        assert inspect.isfunction(vars(MembershipOracle).get(attr)), attr


def test_loss_sets_scanned_counts_the_lps_solved(monkeypatch):
    calls = []
    solve = rm.solve_lp
    monkeypatch.setattr(rm, "solve_lp", lambda *args, **kw: calls.append(1) or solve(*args, **kw))
    rng = np.random.default_rng(61)
    seen = {"pruned": 0, "unbounded": 0, "bounded": 0}
    for n, n_risky, alpha in ((10, 1, 0.2), (12, 1, 2 / 12), (14, 1, 2 / 14), (8, 3, 0.3)):
        vm = random_market(rng, n_states=n, n_risky=n_risky, uniform_probs=True)
        a = var_acceptance(vm.space, alpha)
        for _ in range(6):
            calls.clear()
            diag = rho_var_exact(a, vm, rng.uniform(-5, 5, size=n)).diagnostics
            assert diag["loss_sets_scanned"] == len(calls)
            if "unbounded_loss_set" in diag:
                seen["unbounded"] += 1
            else:
                assert diag["loss_sets_scanned"] + diag["systems_pruned"] == len(a.systems)
                seen["bounded"] += 1
            seen["pruned"] += diag["systems_pruned"]
    assert seen["bounded"] and seen["unbounded"] and seen["pruned"], seen


def test_lp_info_reads_a_solved_problem(bench):
    # the tracer reads n_rows, n_cols, status and pivots of each solve_lp
    # call, whose problem comes positionally or as ``problem=``
    _, tracer = bench
    problem = make_problem([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [2.0, 1.0], [True, False])
    out = solve_lp(problem=problem)
    assert out.status == OPTIMAL and out.pivots > 0
    want = (4, OPTIMAL, out.pivots)
    assert tracer._lp_info((problem,), {}, out) == want
    assert tracer._lp_info((), {"problem": problem}, out) == want


@pytest.mark.parametrize("workload", ["direct_sweep", "var_enum", "harness"])
def test_first_ops_answer_alike_traced_and_untraced(bench, workload):
    # a smoke run of the benchmark in process: the first ops of seed 1 pass
    # their checks with the same digests untraced and traced, and the
    # tracer's counts agree with the engine's diagnostics
    workloads, tracer_module = bench
    setup, root, count = workloads.SETUPS[workload], PERFBENCH.parent, 8
    tracer = tracer_module.Tracer()
    with tracer.tracing(op=-1):
        traced_ops = setup(1, root)
    ops = setup(1, root)

    def answer(op):
        try:
            return op.check(op.run())
        except workloads.REFUSALS as exc:
            return type(exc).__name__

    for k in range(count):
        plain = answer(ops[k])
        with tracer.tracing(op=k):
            assert answer(traced_ops[k]) == plain, k
    metrics, problems = tracer.analyse(count, 1.0)
    assert problems == []
    assert metrics["linprog.calls_per_op"] > 0
