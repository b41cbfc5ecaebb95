"""Directional closure/interior/boundary probes and recession verdicts."""

import numpy as np
import pytest

from capreq.acceptance import (avar_acceptance, halfspace_acceptance,
                               oracle_acceptance, positive_cone, var_acceptance)
from capreq.directional import (PROBE_SCALE, dir_bd_member, dir_cl_member, dir_int_member,
                                rec_member)
from capreq.market import uniform_space
from capreq.riskmeasure import MembershipOracle, NotPolyhedral, solve_rho
from conftest import corner_acceptance_r3

U2 = np.array([1.0, 1.0])


def halfplane(x) -> bool:
    return bool(x[0] >= -1e-9)


class TestClosure:
    def test_just_outside_within_final_rung(self):
        assert dir_cl_member(halfplane, U2, [-2.0 ** -30, 0.0])

    def test_member_is_in_closure(self):
        assert dir_cl_member(halfplane, U2, [0.5, 0.0])

    def test_far_outside(self):
        assert not dir_cl_member(halfplane, U2, [-1.0, 0.0])


class TestInterior:
    def test_strictly_inside(self):
        assert dir_int_member(halfplane, U2, [1.0, 0.0])

    def test_boundary_point(self):
        assert not dir_int_member(halfplane, U2, [0.0, 0.0])

    def test_whole_space(self):
        assert dir_int_member(lambda x: True, U2, [0.0, 0.0])


class TestBoundary:
    def test_on_face(self):
        assert dir_bd_member(halfplane, U2, [0.0, 5.0])

    def test_interior_point(self):
        assert not dir_bd_member(halfplane, U2, [1.0, 1.0])

    def test_outside_point(self):
        assert not dir_bd_member(halfplane, U2, [-1.0, 0.0])


class TestProbeLadder:
    def test_default_shape(self):
        assert PROBE_SCALE == 2.0 ** -24


class TestRecession:
    def test_positive_cone_recedes_along_ones(self):
        assert rec_member(positive_cone(2), [1.0, 1.0]) is True

    def test_halfspace_fails_negative_direction(self):
        a = halfspace_acceptance([1.0, 0.0])
        assert rec_member(a, [-1.0, -1.0]) is False
        assert not a(np.array([-1.0, -1.0]))

    def test_corner_set_recedes_both_ways_along_third_axis(self):
        a = corner_acceptance_r3()
        assert rec_member(a, [0.0, 0.0, 1.0]) is True
        assert rec_member(a, [0.0, 0.0, -1.0]) is True

    def test_avar_block_certified(self):
        a = avar_acceptance(uniform_space(4), 0.5)
        assert rec_member(a, np.ones(4)) is True
        assert rec_member(a, -np.ones(4)) is False

    def test_union_and_oracle_sets_refused(self):
        union = var_acceptance(uniform_space(2), 0.5)
        oracle = oracle_acceptance(2, lambda x: bool(min(x) >= -1e-9), [-1.0, 0.0])
        for a in (union, oracle):
            with pytest.raises(NotPolyhedral):
                rec_member(a, [1.0, 1.0])


class TestStructuralProperties:
    def test_sandwich(self):
        # member implies closure membership; closure membership implies a
        # nearby lifted member
        rng = np.random.default_rng(3)
        scales = [2.0 ** -k for k in range(25)]
        for _ in range(200):
            x = rng.uniform(-3, 3, size=2)
            if halfplane(x):
                assert dir_cl_member(halfplane, U2, x)
            if dir_cl_member(halfplane, U2, x):
                assert any(halfplane(x + t * U2) for t in scales)

    def test_idempotence_proxy(self):
        cl_oracle = lambda y: dir_cl_member(halfplane, U2, y)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            assert dir_cl_member(cl_oracle, U2, x) == cl_oracle(x)

    def test_chain_interior_set_closure(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-3, 3, size=2)
            if dir_int_member(halfplane, U2, x):
                assert halfplane(x + PROBE_SCALE * U2)
                assert dir_cl_member(halfplane, U2, x)

    def test_consistency_with_requirement(self, two_state_market):
        # sign of (value - m) must match the directional classification of the
        # position lifted by m, outside the tolerance band
        a = positive_cone(2)
        oracle = MembershipOracle(a, two_state_market)
        u = two_state_market.numeraire
        band = 1e-6
        rng = np.random.default_rng(9)
        for _ in range(60):
            x = rng.uniform(-4, 4, size=2)
            m = float(rng.uniform(-2, 2))
            value = solve_rho(a, two_state_market, x).value
            if abs(value - m) <= band:
                continue
            shifted = x + m * u
            if value < m:
                assert dir_int_member(oracle.contains, u, shifted)
            else:
                assert not dir_cl_member(oracle.contains, u, shifted)
