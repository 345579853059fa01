import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import (IDLE, RateRegion2, build_dtmc,
                      build_joint_channel_chain, check_detailed_balance,
                      expected_service_rates, kolmogorov_mismatch,
                      product_form, solve_stationary)
from relaysim.analysis import TransitionMatrix, chain_states


def random_alpha(rng, nodes):
    w = rng.uniform(0.1, 1.0, len(nodes) + 1)
    w /= w.sum()
    alpha = {IDLE: float(w[0])}
    alpha.update({y: float(v) for y, v in zip(nodes, w[1:])})
    return alpha


class TestBuildDtmc:
    def test_two_state_symmetric(self):
        tm = build_dtmc((0, 0), {0: 0.5}, {IDLE: 0.0, 0: 1.0})
        assert tm.states == (IDLE, 0)
        assert np.allclose(tm.probs, [[0.5, 0.5], [0.5, 0.5]])

    def test_exits_only_to_idle(self):
        tm = build_dtmc((1, 1, 1), {0: 0.6, 1: 0.3, 2: 0.8},
                        {IDLE: 0.1, 0: 0.3, 1: 0.3, 2: 0.3})
        for k in range(1, len(tm.states)):
            for j in range(1, len(tm.states)):
                if j != k:
                    assert tm.probs[k, j] == 0.0

    def test_rows_sum_to_one(self):
        tm = build_dtmc((1, 1, 1), {0: 0.5, 1: 0.5, 2: 0.5},
                        {IDLE: 0.25, 0: 0.25, 1: 0.25, 2: 0.25})
        assert np.abs(tm.probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_degenerate_probability_rejected(self):
        with pytest.raises(ValueError):
            build_dtmc((0, 0), {0: 1.0}, {IDLE: 0.0, 0: 1.0})

    def test_missing_support_rejected(self):
        with pytest.raises(ValueError):
            build_dtmc((1, 1), {0: 0.5, 1: 0.5}, {IDLE: 0.5, 0: 0.5, 1: 0.0})


class TestSolveStationary:
    def test_doubly_stochastic(self):
        tm = TransitionMatrix((IDLE, 0), np.array([[0.3, 0.7], [0.7, 0.3]]))
        pi = solve_stationary(tm)
        assert np.allclose(pi.pi, [0.5, 0.5])

    def test_known_product_form_point(self):
        tm = build_dtmc((1, 1), {0: 2 / 3, 1: 0.5},
                        {IDLE: 0.2, 0: 0.4, 1: 0.4})
        pi = solve_stationary(tm)
        assert np.allclose(pi.pi, [0.25, 0.5, 0.25], atol=1e-12)

    def test_normalized(self):
        tm = build_dtmc((1, 0, 1), {0: 0.9, 2: 0.2},
                        {IDLE: 0.5, 0: 0.25, 2: 0.25})
        pi = solve_stationary(tm)
        assert abs(pi.pi.sum() - 1.0) < 1e-12


class TestProductForm:
    def test_equal_odds(self):
        pi = product_form({0: 0.5, 1: 0.5})
        assert np.allclose(pi.pi, [1 / 3, 1 / 3, 1 / 3])

    def test_odds_two_and_one(self):
        pi = product_form({0: 2 / 3, 1: 0.5})
        assert np.allclose(pi.pi, [0.25, 0.5, 0.25])
        assert pi.prob(IDLE) == pytest.approx(0.25)

    def test_matches_solved_chain_and_ignores_alpha(self):
        rng = np.random.default_rng(0)
        for channel in ((1, 1), (0, 1), (1, 0, 1), (0, 1, 1)):
            nodes = chain_states(channel)[1:]
            for _ in range(10):
                probs = {y: float(rng.uniform(0.05, 0.95)) for y in nodes}
                expected = product_form(probs)
                for _ in range(3):
                    tm = build_dtmc(channel, probs, random_alpha(rng, nodes))
                    pi = solve_stationary(tm)
                    assert np.abs(pi.pi - expected.pi).max() < 1e-8


class TestDetailedBalance:
    def test_per_realization_chain_is_reversible(self):
        rng = np.random.default_rng(1)
        for channel in ((1, 1), (0, 1, 1)):
            nodes = chain_states(channel)[1:]
            probs = {y: float(rng.uniform(0.1, 0.9)) for y in nodes}
            tm = build_dtmc(channel, probs, random_alpha(rng, nodes))
            pi = solve_stationary(tm)
            assert check_detailed_balance(tm, pi) < 1e-10

    def test_symmetric_two_state_exact_zero(self):
        tm = TransitionMatrix((IDLE, 0), np.array([[0.5, 0.5], [0.5, 0.5]]))
        pi = solve_stationary(tm)
        assert check_detailed_balance(tm, pi) == 0.0


class TestJointChainCounterexample:
    def test_channel_dependent_activation_breaks_reversibility(self):
        tm = build_joint_channel_chain(0.4, p0_on=0.9, p0_off=0.3, p1=0.6,
                                       alpha=(0.4, 0.4))
        gap = kolmogorov_mismatch(tm)
        assert abs(gap) > 1e-6
        pi = solve_stationary(tm)
        assert check_detailed_balance(tm, pi) > 1e-9

    def test_equal_activation_restores_reversibility(self):
        tm = build_joint_channel_chain(0.4, p0_on=0.55, p0_off=0.55, p1=0.6,
                                       alpha=(0.4, 0.4))
        assert abs(kolmogorov_mismatch(tm)) < 1e-15
        pi = solve_stationary(tm)
        assert check_detailed_balance(tm, pi) < 1e-12


class TestRateRegion:
    def test_inside_near_first_corner(self):
        region = RateRegion2(0.4, 0.7)
        assert region.contains(0.59, 0.19)

    def test_outside_past_first_corner(self):
        region = RateRegion2(0.4, 0.7)
        assert not region.contains(0.61, 0.21)

    def test_origin_is_interior(self):
        assert RateRegion2(0.4, 0.7).contains(0.0, 0.0)

    def test_low_relay_probability_case(self):
        region = RateRegion2(0.5, 0.4)
        assert region.contains(0.3, 0.39)
        assert not region.contains(0.3, 0.41)

    def test_boundary_on_axes(self):
        region = RateRegion2(0.4, 0.7)
        l0, l1 = region.boundary(0.0)
        assert l1 == 0.0 and l0 == pytest.approx(0.7, abs=1e-5)
        l0, l1 = region.boundary(90.0)
        assert l0 == pytest.approx(0.0, abs=1e-12)
        assert l1 == pytest.approx(0.7, abs=1e-5)

    @pytest.mark.parametrize("angle", [100.0, -5.0, 180.0])
    def test_boundary_rejects_off_quadrant_angle(self, angle):
        with pytest.raises(ValueError, match=r"angle must lie in \[0, 90\]"):
            RateRegion2(0.4, 0.7).boundary(angle)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_boundary_rejects_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match="angle must be finite"):
            RateRegion2(0.4, 0.7).boundary(angle)

    def test_boundary_diagonal_low_rho1(self):
        l0, l1 = RateRegion2(0.5, 0.4).boundary(45.0)
        assert l0 == pytest.approx(0.35, abs=1e-5)
        assert l1 == pytest.approx(0.35, abs=1e-5)

    @given(l0=st.floats(0, 1), l1=st.floats(0, 1),
           f0=st.floats(0, 1), f1=st.floats(0, 1))
    @settings(max_examples=300)
    def test_monotone(self, l0, l1, f0, f1):
        for region in (RateRegion2(0.4, 0.7), RateRegion2(0.5, 0.4)):
            if region.contains(l0, l1):
                assert region.contains(l0 * f0, l1 * f1)

    def test_convex_on_random_midpoints(self):
        rng = np.random.default_rng(4)
        for region in (RateRegion2(0.4, 0.7), RateRegion2(0.5, 0.4),
                       RateRegion2(0.2, 0.5), RateRegion2(0.7, 0.95)):
            pts = rng.uniform(0, 1, size=(4000, 2))
            inside = [p for p in pts if region.contains(p[0], p[1])]
            for a, b in zip(inside[::2], inside[1::2]):
                mid = (a + b) / 2
                assert region.contains(mid[0], mid[1])

    def test_continuous_across_case_split(self):
        # the two case formulas meet as rho1 crosses one half
        below = RateRegion2(0.4, 0.5 - 1e-6)
        above = RateRegion2(0.4, 0.5 + 1e-6)
        for angle in np.linspace(0.0, 90.0, 181):
            pa = below.boundary(float(angle))
            pb = above.boundary(float(angle))
            assert math.dist(pa, pb) < 1e-4


class TestExpectedServiceRates:
    def test_direct_rate_with_longer_source(self):
        mu0, _, _ = expected_service_rates(5, 2, 0.4, 0.7)
        assert mu0 == pytest.approx(0.4)

    def test_direct_rate_with_shorter_source(self):
        mu0, _, _ = expected_service_rates(1, 5, 0.4, 0.7)
        assert mu0 == pytest.approx(0.12)

    def test_rates_are_probabilities_at_origin(self):
        rates = expected_service_rates(0, 0, 0.4, 0.7)
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_forwarding_indicators(self):
        _, mu01, _ = expected_service_rates(10, 3, 0.4, 0.7)
        # q0-q1 = 7 > q1 = 3: both forwarding terms active
        assert mu01 == pytest.approx(0.6 * 0.3 + 0.6 * 0.7)
        _, mu01, _ = expected_service_rates(5, 3, 0.4, 0.7)
        assert mu01 == pytest.approx(0.6 * 0.3)

    def test_drift_negative_inside_low_rho1_region(self):
        # with the relay queue ahead, total drift is negative at every
        # interior point of the rho1 < 1/2 region
        rng = np.random.default_rng(9)
        for _ in range(300):
            rho0 = rng.uniform(0.05, 0.95)
            rho1 = rng.uniform(0.05, 0.45)
            region = RateRegion2(rho0, rho1)
            l0 = rng.uniform(0, 1)
            l1 = rng.uniform(0, 1)
            if not region.contains(l0, l1):
                continue
            mu0, _, mu1 = expected_service_rates(3, 10, rho0, rho1)
            assert mu0 == pytest.approx(rho0 * (1 - rho1))
            assert mu1 == pytest.approx(rho1)
            assert (l0 - mu0) + (l1 - mu1) < 0
