"""The names and strategy strings the benchmark in ``perfbench/`` relies on.

``perfbench/workloads.py`` checks each answer with ``PRICE_TOL[strategy]``
and ``perfbench/tracer.py`` patches the functions its span tables name, so
a renamed strategy or function must fail here rather than in a benchmark
run. The benchmark files are read, never modified.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from capreq.acceptance import oracle_acceptance
from capreq.riskmeasure import MembershipOracle, SolveOptions, solve_rho
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
        grid = oracle_acceptance(n, lambda x: bool(np.all(x >= -1e-9)), -np.ones(n))
        for a in loadable_sets(rng, vm.space) + [grid]:
            x = rng.uniform(-5, 5, size=n)
            seen.add(solve_rho(a, vm, x, SolveOptions(kernel_grid=5)).strategy)
    assert {"direct_lp", "var_enum", "reduction[grid]"} <= seen
    assert {s.split("[")[0] for s in seen} <= set(workloads.PRICE_TOL)


def test_span_names_resolve_to_public_functions(bench):
    _, tracer = bench
    names = set(tracer.STRATEGY_SPANS) | set(tracer.INFO) | set(tracer.CONSTRUCTORS)
    for name in sorted(names):
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"capreq.{module}"), attr, None)
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
    for attr in tracer.ORACLE_METHODS:
        assert inspect.isfunction(vars(MembershipOracle).get(attr)), attr
