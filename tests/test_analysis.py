import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import (IDLE, NetworkParams, RateRegion2, build_dtmc,
                      build_joint_channel_chain, check_detailed_balance,
                      expected_service_rates, kolmogorov_mismatch,
                      product_form, solve_stationary)
from relaysim.analysis import (StationaryDistribution, TransitionMatrix,
                               chain_states, dtmc_check, ray_direction)
from relaysim.cli import main
from relaysim.scheduling import (action_backlog, activation_probability,
                                 mws_step, rqcsma_step)


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

    @pytest.mark.parametrize("probs,alpha,message", [
        ({0: 0.5}, {IDLE: 0.2, 0: 0.4, 1: 0.4},
         "activation_probs must cover exactly the feasible nodes"),
        ({0: 0.5, 1: 0.5, 2: 0.5}, {IDLE: 0.2, 0: 0.4, 1: 0.4},
         "activation_probs must cover exactly the feasible nodes"),
        ({0: 0.5, 1: 0.5}, {IDLE: 0.2, 0: 0.4, 1: 0.3},
         "alpha must sum to 1 over the feasible schedules"),
        ({0: 0.5, 1: 0.5}, {IDLE: 0.2, 0: 0.4, 1: 0.5},
         "alpha must sum to 1 over the feasible schedules"),
        # a NaN sum passes the tolerance test, and the chain never reads
        # the Idle mass
        ({0: 0.5, 1: 0.5}, {IDLE: math.nan, 0: 0.4, 1: 0.4},
         "alpha values must be finite"),
        ({0: 0.5, 1: 0.5}, {IDLE: 0.2, 0: math.nan, 1: 0.4},
         "alpha values must be finite"),
        ({0: 0.5, 1: 0.5}, {IDLE: math.inf, 0: 0.4, 1: 0.4},
         "alpha values must be finite"),
        # sums to 1, and the chain never reads the Idle mass
        ({0: 0.5, 1: 0.5}, {IDLE: -0.2, 0: 0.6, 1: 0.6},
         "alpha must not be negative on schedule Idle"),
        ({0: 0.5, 1: 0.5}, {IDLE: 0.6, 0: 0.6, 1: -0.2},
         "alpha must not be negative on schedule 1")])
    def test_bad_probabilities_rejected(self, probs, alpha, message):
        with pytest.raises(ValueError, match=message):
            build_dtmc((1, 1), probs, alpha)


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

    @pytest.mark.parametrize("probs,message", [
        ([[1.0]], "matrix shape does not match state count"),
        ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
         "matrix shape does not match state count"),
        ([[1.2, -0.2], [0.5, 0.5]], "negative transition probability"),
        ([[0.5, 0.5], [0.5, 0.4]], "rows must sum to 1"),
        ([[math.nan, 0.5], [0.5, 0.5]],
         "transition probabilities must be finite"),
        ([[math.nan] * 2] * 2, "transition probabilities must be finite"),
        ([[math.inf, 0.5], [0.5, 0.5]],
         "transition probabilities must be finite")])
    def test_bad_transition_matrix_rejected(self, probs, message):
        with pytest.raises(ValueError, match=message):
            TransitionMatrix((IDLE, 0), np.array(probs))

    @pytest.mark.parametrize("pi", [[0.5, 0.4], [1.1, -0.1], [0.5, 0.6]])
    def test_not_a_probability_vector_rejected(self, pi):
        with pytest.raises(ValueError, match="not a probability vector"):
            StationaryDistribution((IDLE, 0), np.array(pi))

    @pytest.mark.parametrize("pi", [[math.nan, 0.5], [math.nan, math.nan],
                                    [math.inf, 0.0]])
    def test_non_finite_probability_vector_rejected(self, pi):
        with pytest.raises(ValueError,
                           match="stationary probabilities must be finite"):
            StationaryDistribution((IDLE, 0), np.array(pi))


class TestProductForm:
    def test_equal_odds(self):
        pi = product_form({0: 0.5, 1: 0.5})
        assert np.allclose(pi.pi, [1 / 3, 1 / 3, 1 / 3])

    def test_odds_two_and_one(self):
        pi = product_form({0: 2 / 3, 1: 0.5})
        assert np.allclose(pi.pi, [0.25, 0.5, 0.25])
        assert pi.prob(IDLE) == pytest.approx(0.25)

    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1, math.nan])
    def test_probability_outside_zero_one_rejected(self, p):
        # p = 1 has infinite odds: the law is undefined, not a division
        # by zero.
        with pytest.raises(ValueError, match=rf"p\[1\]={p} outside \[0, 1\)"):
            product_form({0: 0.5, 1: p})

    def test_zero_probability_has_zero_mass(self):
        assert product_form({0: 0.0, 1: 0.5}).prob(0) == 0.0

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


# The largest uniform below 1: it loses every activation coin p < 1, as 0.0
# wins every coin p > 0.
LOSS = math.nextafter(1.0, 0.0)


class FixedUniform:
    """A stream whose every uniform() is `u`."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def positive_backlog_queues(rng, n_relays):
    """A flat queue row [Q_0, Q_1..Q_N, Q_01..Q_0N] in which every node has a
    positive action backlog under every channel: Q_0 >= 1 exceeds the
    smallest relayed backlog, and every relay holds an own packet."""
    relayed = rng.integers(0, 5, n_relays)
    q0 = relayed.min() + rng.integers(1, 8)
    own = rng.integers(1, 8, n_relays)
    return [int(q0)] + own.tolist() + relayed.tolist()


class TestChainIsTheSchedulerRule:
    def test_build_dtmc_is_one_rqcsma_step(self):
        # Every start state, every decision d and both coin outcomes give
        # rqcsma_step's one-slot law under a fixed channel, weighted by
        # alpha(d) * p_d and alpha(d) * (1 - p_d). The queues give every
        # feasible node a positive action backlog: a zero-backlog node never
        # activates (p = 0), a case the chain's p in (0, 1) excludes.
        rng = np.random.default_rng(5)
        for n_relays in (1, 2):
            n = n_relays + 1
            params = NetworkParams(n_relays=n_relays, rho=(0.5,) * n,
                                   lam=(0.0,) * n)
            for channel in itertools.product((0, 1), repeat=n):
                states = chain_states(channel)
                for _ in range(20):
                    queues = positive_backlog_queues(rng, n_relays)
                    probs = {y: activation_probability(
                        params.activation_gain
                        * action_backlog(queues, channel, y))
                        for y in states[1:]}
                    alpha = random_alpha(rng, states[1:])
                    law = np.zeros((len(states), len(states)))
                    for i, x in enumerate(states):
                        for d in states:
                            p = probs.get(d, 0.5)  # Idle draws no coin
                            for u, weight in ((0.0, p), (LOSS, 1.0 - p)):
                                x_new = rqcsma_step(
                                    queues, channel, {channel: x}, d, params,
                                    FixedUniform(u))
                                law[i, states.index(x_new)] += alpha[d] * weight
                    tm = build_dtmc(channel, probs, alpha)
                    assert np.abs(law - tm.probs).max() <= 1e-15, (
                        channel, queues)


class TestDtmcCheck:
    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trials_rejected(self, trials):
        # a report of zero chains checked would read as a pass
        with pytest.raises(ValueError) as info:
            dtmc_check(trials, 0)
        assert str(info.value) == f"trials must be >= 1, got {trials}"

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError) as info:
            dtmc_check(1, -1)
        assert str(info.value) == "seed must be non-negative, got -1"


class TestJointChainCounterexample:
    def test_channel_dependent_activation_breaks_reversibility(self):
        tm = build_joint_channel_chain(0.4, p0_on=0.9, p0_off=0.3, p1=0.6,
                                       alpha=(0.4, 0.4))
        gap = kolmogorov_mismatch(tm)
        assert abs(gap) > 1e-6
        pi = solve_stationary(tm)
        assert check_detailed_balance(tm, pi) > 1e-9

    @pytest.mark.parametrize("alpha", [(0.6, 0.5), (1.0, 0.1), (-0.1, 0.4),
                                       (0.4, -0.1)])
    def test_bad_election_probabilities_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"a0\+a1 <= 1"):
            build_joint_channel_chain(0.4, p0_on=0.9, p0_off=0.3, p1=0.6,
                                      alpha=alpha)

    @pytest.mark.parametrize("rho0,alpha,message", [
        (math.nan, (0.4, 0.4), "transition probabilities must be finite"),
        (0.4, (math.nan, 0.4), "alpha values must be finite"),
        (0.4, (0.4, math.nan), "alpha values must be finite")])
    def test_non_finite_input_rejected(self, rho0, alpha, message):
        with pytest.raises(ValueError, match=message):
            build_joint_channel_chain(rho0, p0_on=0.9, p0_off=0.3, p1=0.6,
                                      alpha=alpha)

    def test_equal_activation_restores_reversibility(self):
        tm = build_joint_channel_chain(0.4, p0_on=0.55, p0_off=0.55, p1=0.6,
                                       alpha=(0.4, 0.4))
        assert abs(kolmogorov_mismatch(tm)) < 1e-15
        pi = solve_stationary(tm)
        assert check_detailed_balance(tm, pi) < 1e-12

    def test_full_election_rounding_past_one_accepted(self):
        # a0 + a1 = 1 + 1e-13: inside the chain's tolerance, so the Idle
        # mass rounds to 0 rather than failing build_dtmc's sign check
        tm = build_joint_channel_chain(0.4, p0_on=0.9, p0_off=0.3, p1=0.6,
                                       alpha=(0.7, 0.3 + 1e-13))
        assert np.allclose(tm.probs.sum(axis=1), 1.0)


class TestRateRegion:
    def test_inside_near_first_corner(self):
        region = RateRegion2(0.4, 0.7)
        assert region.contains(0.59, 0.19)

    def test_outside_past_first_corner(self):
        region = RateRegion2(0.4, 0.7)
        assert not region.contains(0.61, 0.21)

    def test_origin_is_interior(self):
        assert RateRegion2(0.4, 0.7).contains(0.0, 0.0)

    @pytest.mark.parametrize("rates", [(-0.1, 0.1), (0.1, -0.1),
                                       (-0.1, -0.1)])
    def test_negative_rate_rejected(self, rates):
        with pytest.raises(ValueError, match="rates must be non-negative"):
            RateRegion2(0.4, 0.7).contains(*rates)

    @pytest.mark.parametrize("rates", [(math.nan, 0.1), (0.1, math.nan)])
    def test_nan_rate_rejected(self, rates):
        with pytest.raises(ValueError,
                           match="rates must be non-negative numbers"):
            RateRegion2(0.4, 0.7).contains(*rates)

    @pytest.mark.parametrize("rates", [(math.inf, 0.1), (0.1, math.inf)])
    def test_infinite_rate_is_outside(self, rates):
        assert not RateRegion2(0.4, 0.7).contains(*rates)

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


@pytest.mark.parametrize("angle", [360.0, 450.0, -360.0, 720.0, 90 + 1e-9,
                                   -1e-13])
def test_ray_direction_rejects_angle_outside_quadrant(angle):
    # 360 and its kin point along an axis, but they are not in [0, 90]
    with pytest.raises(ValueError, match=r"angle must lie in \[0, 90\]"):
        ray_direction(angle)


def test_ray_direction_message_shows_the_angle():
    with pytest.raises(ValueError) as info:
        ray_direction(90 + 1e-9)
    assert str(info.value) == ("angle must lie in [0, 90] degrees, "
                               "got 90.000000001")


def test_ray_direction_is_cos_and_sin_over_the_quadrant():
    for angle in np.linspace(0, 90, 181):
        theta = math.radians(angle)
        assert ray_direction(angle) == (math.cos(theta), math.sin(theta))


def test_boundary_oracle_rejects_a_full_turn(tmp_path):
    out = tmp_path / "F"
    with pytest.raises(SystemExit) as info:
        main(["boundary-oracle", "--rho", "0.4,0.7",
              "--angles", "0,360", "--out", str(out)])
    # a string exit code exits with status 1
    assert info.value.code == ("relaysim boundary-oracle: angle must lie in "
                               "[0, 90] degrees, got 360")
    assert not out.exists()


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

    @pytest.mark.parametrize("rho", [(0.4, 0.7), (0.3, 0.2), (0.9, 0.5)])
    def test_rates_are_the_mass_of_each_mws_choice(self, rho):
        # The relay's relayed backlog folds into its own queue: the row is
        # [q0, q1, q1]. An empty source gets no direct service, and with the
        # source OFF and q0 - q1 = q1 > 0 mws forwards (lowest index on ties).
        params = NetworkParams(n_relays=1, rho=rho, lam=(0.0, 0.0))
        wrong = []
        for q0, q1 in itertools.product(range(9), repeat=2):
            mass = {"direct": 0.0, "forward": 0.0, "relay": 0.0}
            for s0, s1 in itertools.product((0, 1), repeat=2):
                choice = mws_step([q0, q1, q1], (s0, s1), params)
                if choice is IDLE:
                    continue
                kind = "relay" if choice == 1 else (
                    "direct" if s0 else "forward")
                mass[kind] += ((rho[0] if s0 else 1 - rho[0])
                               * (rho[1] if s1 else 1 - rho[1]))
            rates = expected_service_rates(q0, q1, *rho)
            expected = (mass["direct"], mass["forward"], mass["relay"])
            if any(abs(r - e) > 1e-12 for r, e in zip(rates, expected)):
                wrong.append((q0, q1, rates, expected))
        assert not wrong

    @pytest.mark.parametrize("rho", [(-0.1, 0.7), (0.4, 1.2), (math.nan, 0.7),
                                     (0.4, math.inf)])
    def test_rejects_a_channel_probability_outside_0_1(self, rho):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            expected_service_rates(3, 1, *rho)
