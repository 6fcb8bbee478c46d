"""Shift, walk steps, trajectories, and the traveling-edge protocols."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlqw import (
    ConstantCoin,
    GaltonCoin,
    GrossNeveuCoin,
    LatticeState,
    QuinticExponentialCoin,
    ComposedCoin,
    Recorder,
    RotationPowerCoin,
    ThirringCoin,
    c0_from_ab,
    combine,
    delta_state,
    edge_recovery_trace,
    evolve,
    g_scaling_check,
    instability_trace,
    inverse_shift,
    l2_distance,
    linear_step,
    linear_step_inverse,
    lp_norm,
    period4_amplitude,
    rotation,
    scaled,
    shift,
    soliton_amplitude,
    step,
)

R = 1.0 / np.sqrt(2.0)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

vals = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def small_states(draw, max_sites: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_sites))
    rows = draw(
        st.lists(st.tuples(vals, vals, vals, vals), min_size=n, max_size=n)
    )
    amp = np.array(
        [[complex(a, b), complex(c, d)] for a, b, c, d in rows],
        dtype=np.complex128,
    )
    return LatticeState(draw(st.integers(-10, 10)), amp)


def soliton_spec(g: float = -0.8, p: int = 2) -> RotationPowerCoin:
    return RotationPowerCoin(np.pi / 4.0, g, p)


class TestShift:
    def test_first_component_moves_left(self):
        assert l2_distance(shift(delta_state(1, 0)), delta_state(1, -1)) == 0.0

    def test_second_component_moves_right(self):
        assert l2_distance(shift(delta_state(2, 0)), delta_state(2, 1)) == 0.0

    def test_inverse_examples(self):
        assert l2_distance(inverse_shift(delta_state(1, -1)), delta_state(1, 0)) == 0.0
        assert l2_distance(inverse_shift(delta_state(2, 1)), delta_state(2, 0)) == 0.0

    @given(u=small_states())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_exact(self, u):
        assert l2_distance(inverse_shift(shift(u)), u) == 0.0

    @given(u=small_states(), p=st.sampled_from([1.0, 2.0, 4.0, np.inf]))
    @settings(max_examples=100, deadline=None)
    def test_lp_norms_preserved_for_single_component_states(self, u, p):
        # With only one populated component the shift is a pure relabeling
        # of sites: the multiset of site norms is unchanged, and the summed
        # value can move only by the rounding of a reordered sum.
        amp = u.amplitudes.copy()
        amp[:, 1] = 0.0
        v = LatticeState(u.origin, amp)
        w = shift(v)
        assert np.array_equal(
            np.sort(w.site_norms())[-len(v):], np.sort(v.site_norms())
        )
        before = lp_norm(v, p)
        assert abs(lp_norm(w, p) - before) <= 4e-16 * (1.0 + before)

    @given(u=small_states())
    @settings(max_examples=60, deadline=None)
    def test_l2_norm_preserved(self, u):
        before = lp_norm(u, 2.0)
        assert abs(lp_norm(shift(u), 2.0) - before) <= 1e-15 * (1.0 + before)


class TestStep:
    def test_constant_coin_on_delta(self):
        a, b = 0.6, 0.8
        got = step(delta_state(1, 0), ConstantCoin(c0_from_ab(a, b)))
        want = combine([(a, delta_state(1, -1)), (-b, delta_state(2, 1))])
        assert l2_distance(got, want) == 0.0

    def test_traveling_peak_advances_one_site_per_step(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        got = step(scaled(delta_state(1, 5), a), spec)
        want = scaled(delta_state(1, 4), a)
        assert l2_distance(got.trimmed(1e-14), want) <= 1e-14

    def test_period_four_orbit(self):
        g, p = 0.8, 1
        a = period4_amplitude(g, p)
        spec = RotationPowerCoin(np.pi / 4.0, g, p)
        orbit = [
            scaled(delta_state(1, 0), a),
            scaled(delta_state(2, 1), a),
            scaled(delta_state(1, 0), -a),
            scaled(delta_state(2, 1), -a),
            scaled(delta_state(1, 0), a),
        ]
        u = orbit[0]
        for want in orbit[1:]:
            u = step(u, spec)
            assert l2_distance(u.trimmed(1e-13), want) <= 1e-13

    @given(u=small_states(), ab=st.sampled_from([(0.6, 0.8), (R, R)]))
    @settings(max_examples=60, deadline=None)
    def test_constant_coin_is_linear(self, u, ab):
        spec = ConstantCoin(c0_from_ab(*ab))
        v = shift(u)  # any second state with a different window
        alpha, beta = 0.7 - 0.2j, -0.4 + 1.1j
        lhs = step(combine([(alpha, u), (beta, v)]), spec)
        rhs = combine([(alpha, step(u, spec)), (beta, step(v, spec))])
        assert l2_distance(lhs, rhs) <= 1e-13


class TestLinearStepInverse:
    def test_undoes_first_step_example(self):
        c0 = c0_from_ab(0.6, 0.8)
        fwd = step(delta_state(1, 0), ConstantCoin(c0))
        back = linear_step_inverse(fwd, c0)
        assert l2_distance(back.trimmed(1e-15), delta_state(1, 0)) <= 1e-15

    @given(u=small_states())
    @settings(max_examples=20, deadline=None)
    def test_fifty_forward_fifty_back(self, u):
        c0 = c0_from_ab(R, R)
        v = u
        for _ in range(50):
            v = linear_step(v, c0)
        for _ in range(50):
            v = linear_step_inverse(v, c0)
        assert l2_distance(v, u) <= 1e-12

    def test_hundred_step_round_trip_on_delta(self):
        c0 = c0_from_ab(R, R)
        v = delta_state(1, 0)
        for _ in range(100):
            v = linear_step(v, c0)
        for _ in range(100):
            v = linear_step_inverse(v, c0)
        assert l2_distance(v, delta_state(1, 0)) <= 1e-12


class TestEvolve:
    def test_zero_steps_returns_initial(self):
        u0 = delta_state(1, 3)
        traj = evolve(u0, GaltonCoin(0.5), 0)
        assert traj.steps == 0
        assert l2_distance(traj.final, u0) == 0.0

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            evolve(delta_state(1, 0), GaltonCoin(0.5), -1)

    def test_series_lengths_include_time_zero(self):
        rec = Recorder(sup_norm=True, lp=(2.0,), weak_lp=(4.0,), argmax=True)
        traj = evolve(delta_state(1, 0), soliton_spec(), 17, rec)
        for key in ("sup_norm", "lp_2", "weak_lp_4", "argmax"):
            assert len(traj.series[key]) == 18

    def test_zero_coupling_matches_constant_coin_exactly(self):
        free = RotationPowerCoin(np.pi / 4.0, 0.0, 1)
        fixed = ConstantCoin(rotation(np.pi / 4.0))
        rec = Recorder(sup_norm=True)
        t1 = evolve(delta_state(1, 0), free, 400, rec)
        t2 = evolve(delta_state(1, 0), fixed, 400, rec)
        assert np.array_equal(t1.series["sup_norm"], t2.series["sup_norm"])
        assert t1.final.origin == t2.final.origin
        assert np.array_equal(t1.final.amplitudes, t2.final.amplitudes)

    def test_argmax_series_tracks_traveling_peak(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        traj = evolve(scaled(delta_state(1, 0), a), spec, 50, Recorder(argmax=True))
        assert traj.series["argmax"].tolist() == [-t for t in range(51)]

    def test_snapshots_at_requested_times(self):
        u0 = delta_state(1, 0)
        spec = GaltonCoin(0.3)
        traj = evolve(u0, spec, 7, Recorder(snapshot_times=(0, 3, 7)))
        assert sorted(traj.snapshots) == [0, 3, 7]
        assert l2_distance(traj.snapshots[0], u0) == 0.0
        assert l2_distance(traj.snapshots[7], traj.final) == 0.0

    def test_rejects_snapshot_times_outside_the_run(self):
        with pytest.raises(ValueError, match="snapshot time 8 "):
            evolve(delta_state(1, 0), GaltonCoin(0.3), 7, Recorder(snapshot_times=(0, 8)))

    def test_threshold_trace_per_step(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        rec = Recorder(threshold=0.5, threshold_component=1)
        traj = evolve(scaled(delta_state(1, 0), a), spec, 10, rec)
        assert len(traj.threshold_trace) == 11
        t, sites = traj.threshold_trace[10]
        assert t == 10
        assert sites.tolist() == [-10]

    def test_light_cone_support(self):
        traj = evolve(delta_state(1, 0), GaltonCoin(0.9), 50)
        lo, hi = traj.final.support_window()
        assert lo >= -50
        assert hi <= 50

    @pytest.mark.parametrize(
        "spec",
        [
            ConstantCoin(c0_from_ab(R, R)),
            GaltonCoin(0.7),
            GrossNeveuCoin(0.5, 0.3),
            ThirringCoin(0.9, 1.1),
            soliton_spec(),
            ComposedCoin(
                c0_from_ab(R, R),
                QuinticExponentialCoin(0.3 * SIGMA_X, 0.2 * SIGMA_Z),
            ),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_norm_conserved_five_hundred_steps(self, spec):
        traj = evolve(delta_state(1, 0), spec, 500, Recorder(lp=(2.0,)))
        assert np.max(np.abs(traj.series["lp_2"] - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            GaltonCoin(0.7),
            ThirringCoin(0.9, 1.1),
            soliton_spec(),
            GrossNeveuCoin(0.5, 0.3),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_gauge_covariance(self, spec):
        u0 = combine(
            [(0.5, delta_state(1, 0)), (0.5j, delta_state(2, 2))]
        )
        phase = np.exp(1j * 0.73)
        plain = evolve(u0, spec, 30).final
        rotated = evolve(scaled(u0, phase), spec, 30).final
        assert l2_distance(rotated, scaled(plain, phase)) <= 1e-12


class TestGScalingCheck:
    def test_linear_coin_deviation_zero(self):
        dev = g_scaling_check(delta_state(1, 0), ConstantCoin(c0_from_ab(R, R)), 50)
        assert dev == 0.0

    def test_rotation_power(self):
        spec = RotationPowerCoin(np.pi / 4.0, 0.25, 1)
        assert g_scaling_check(delta_state(1, 0), spec, 200) <= 1e-12

    def test_thirring(self):
        spec = ThirringCoin(0.5, np.pi / 4.0)
        assert g_scaling_check(delta_state(1, 0), spec, 200) <= 1e-12


class TestAmplitudeBranches:
    def test_soliton_amplitude_solves_stationarity(self):
        for g, p in [(-0.8, 1), (-0.8, 2), (-15.2, 2)]:
            a = soliton_amplitude(g, p)
            assert np.pi / 4.0 + g * a ** (2 * p) == pytest.approx(0.0, abs=1e-15)

    def test_period4_amplitude_solves_half_turn(self):
        a = period4_amplitude(0.8, 1)
        assert np.pi / 4.0 + 0.8 * a * a == pytest.approx(np.pi / 2.0, abs=1e-15)

    def test_rejects_wrong_sign(self):
        with pytest.raises(ValueError):
            soliton_amplitude(0.0, 1)
        with pytest.raises(ValueError):
            period4_amplitude(-0.5, 1)


class TestInstabilityTrace:
    def test_unperturbed_edge_is_constant(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        series = instability_trace(a, 0.0, spec, 200)
        assert np.max(np.abs(series - a)) <= 1e-12

    def test_perturbed_edge_decays_strictly(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        series = instability_trace(a, 0.1, spec, 500)
        assert np.all(np.diff(series) < 0)
        ratios = series[2:] / series[1:-1]
        assert np.max(ratios) < 1.0
        assert series[-1] < 1e-60

    def test_edge_second_component_vanishes(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        u0 = scaled(delta_state(1, 0), a * 0.9)
        traj = evolve(u0, spec, 100, Recorder(left_edge=True))
        assert np.max(np.abs(traj.series["edge_comp2"])) == 0.0

    def test_rejects_off_branch_parameters(self):
        spec = soliton_spec()
        with pytest.raises(ValueError):
            instability_trace(0.5, 0.1, spec, 10)


class TestEdgeRecoveryTrace:
    def test_unperturbed_deviation_is_zero(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        series = edge_recovery_trace(0.0, a, spec, 100)
        assert np.max(series) <= 1e-13

    def test_matches_scalar_recursion(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        eps = 0.05
        steps = 500
        series = edge_recovery_trace(eps, a, spec, steps)
        x = (1.0 + eps) * a
        oracle = [abs(x - a)]
        for _ in range(steps):
            x = abs(np.cos(np.pi / 4.0 + spec.g * x ** (2 * spec.p))) * x
            oracle.append(abs(x - a))
        assert np.max(np.abs(series - np.asarray(oracle))) <= 1e-12
        # The edge fixed point is reached algebraically (the deviation obeys
        # d' = d - c d^2, an inverse-time law), so 500 steps land near 4e-4.
        assert series[-1] <= 5e-4
        assert series[-1] <= series[len(series) // 2] * 0.6
        assert np.all(np.diff(series[1:]) <= 0)

    def test_right_tail_never_reaches_the_edge(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        tail = np.array([[0.3, 0.1j], [0.0, 0.2]], dtype=np.complex128)
        plain = edge_recovery_trace(0.05, a, spec, 80)
        noisy = edge_recovery_trace(0.05, a, spec, 80, right_tail=tail)
        assert np.array_equal(plain, noisy)


class TestTrajectoryInvariant:
    @given(u=small_states())
    @settings(max_examples=20, deadline=None)
    def test_l2_norm_survives_evolution(self, u):
        steps = 40
        traj = evolve(u, GaltonCoin(0.8), steps)
        drift = abs(lp_norm(traj.final, 2.0) - lp_norm(u, 2.0))
        assert drift <= 1e-10 * np.sqrt(steps)
