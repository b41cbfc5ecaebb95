"""Shared fixtures: reference markets, acceptance sets, random generators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from capreq.acceptance import AcceptanceSet, PolyhedralRep, load_acceptance
from capreq.market import Market, ScenarioSpace, ValidatedMarket, uniform_space, validate_market


def random_market(rng: np.random.Generator, n_states: int | None = None,
                  n_risky: int | None = None, complete: bool = False,
                  uniform_probs: bool = False) -> ValidatedMarket:
    """Arbitrage-free market with planted strictly positive state prices."""
    n = n_states or int(rng.integers(2, 9))
    if complete:
        n_risky = n - 1
    elif n_risky is None:
        n_risky = int(rng.integers(1, min(4, n - 1) + 1))
    while True:
        psi = rng.uniform(0.1, 1.0, size=n)
        psi /= psi.sum()
        payoffs = np.vstack([np.ones(n), rng.uniform(-2.0, 5.0, size=(n_risky, n))])
        svals = np.linalg.svd(payoffs, compute_uv=False)
        if svals[-1] > 1e-6 * svals[0]:
            break
    prices = payoffs @ psi
    if uniform_probs:
        probs = np.full(n, 1.0 / n)
    else:
        probs = rng.uniform(0.2, 1.0, size=n)
        probs /= probs.sum()
    space = ScenarioSpace(tuple(f"s{i}" for i in range(n)), probs)
    vm = validate_market(Market(space, prices, payoffs))
    return vm


DESCRIPTORS = {
    "positive_cone": lambda n, rng: {"type": "positive_cone"},
    "var": lambda n, rng: {"type": "var", "alpha": float(rng.uniform(0.1, 0.6))},
    "avar": lambda n, rng: {"type": "avar", "alpha": float(rng.uniform(0.1, 0.9))},
    "halfspace": lambda n, rng: {"type": "halfspace",
                                 "normal": (rng.uniform(0, 1, n) + np.eye(n)[0]).tolist()},
}


def loadable_sets(rng, space):
    """Every descriptor type and every two-part intersection of types, on one space."""
    n = space.n
    docs = [make(n, rng) for make in DESCRIPTORS.values()]
    docs += [{"type": "intersection", "parts": [DESCRIPTORS[p](n, rng), DESCRIPTORS[q](n, rng)]}
             for p, q in itertools.combinations_with_replacement(DESCRIPTORS, 2)]
    return [load_acceptance(doc, space) for doc in docs]


def planted_free_lunch_market(rng: np.random.Generator) -> tuple[ValidatedMarket, float]:
    """Market where one asset dominates the secure one but costs less."""
    n = int(rng.integers(2, 7))
    margin = float(rng.uniform(0.05, 0.5))
    gain = rng.uniform(0.0, 2.0, size=n)
    gain[int(rng.integers(0, n))] += 0.5  # keep the payoff nonconstant
    payoffs = np.vstack([np.ones(n), 1.0 + gain])
    prices = np.array([1.0, 1.0 - margin])
    probs = rng.uniform(0.2, 1.0, size=n)
    probs /= probs.sum()
    space = ScenarioSpace(tuple(f"s{i}" for i in range(n)), probs)
    return validate_market(Market(space, prices, payoffs)), margin


@pytest.fixture
def two_state_market() -> ValidatedMarket:
    """Secure asset plus one risky asset; state prices (1/3, 2/3)."""
    space = uniform_space(2)
    return validate_market(Market(space, [1.0, 1.0], [[1.0, 1.0], [2.0, 0.5]]))


@pytest.fixture
def half_price_market() -> ValidatedMarket:
    """Complete two-state market pricing both states equally (psi = (1/2, 1/2))."""
    space = uniform_space(2)
    return validate_market(Market(space, [1.0, 0.5], [[1.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def second_coord_market() -> ValidatedMarket:
    """Market realizing price = second coordinate: has a free lottery yet a monotone price."""
    space = uniform_space(2)
    return validate_market(Market(space, [1.0, 1.0], [[1.0, 1.0], [0.0, 1.0]]))


def corner_acceptance_r3() -> AcceptanceSet:
    """{x1 >= 0, x2 >= 0} in three states: the numeraire line example set."""
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def member(x: np.ndarray) -> bool:
        return bool(x[0] >= -1e-9 and x[1] >= -1e-9)

    return AcceptanceSet(
        dim=3, member=member, non_member=np.array([-1.0, -1.0, -1.0]),
        kind="corner", systems=(PolyhedralRep(rows, np.zeros((2, 0)), np.zeros(2)),))


def non_monotone_acceptance_r3() -> AcceptanceSet:
    """{x3 >= 0, x1 <= 2} in three states: one polyhedron, but not an acceptance set.

    Raising the first coordinate past 2 leaves the set. On the
    numeraire-line market (kernel e2, numeraire e3) nothing moves the first
    coordinate, so the requirement jumps from finite to +inf there: a
    monotonicity violation every axiom check must flag.
    """
    rows = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])

    def member(x: np.ndarray) -> bool:
        return bool(x[2] >= -1e-9 and x[0] <= 2.0 + 1e-9)

    return AcceptanceSet(
        dim=3, member=member, non_member=np.array([0.0, 0.0, -1.0]),
        kind="non_monotone", systems=(PolyhedralRep(rows, np.zeros((2, 0)), [0.0, -2.0]),))


@pytest.fixture
def numeraire_line_market() -> ValidatedMarket:
    """Three states, movements only in coordinates 2 and 3, numeraire the third axis.

    No secure asset exists in the span, so the numeraire is supplied
    explicitly; prices are the third coordinate.
    """
    space = uniform_space(3)
    raw = Market(space, [0.0, 1.0], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return validate_market(raw, require_secure=False, numeraire=[0.0, 0.0, 1.0])
