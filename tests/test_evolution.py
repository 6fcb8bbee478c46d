"""Shift, walk steps, trajectories, and the traveling-edge protocols."""

import ctypes
import os
import re
import subprocess
import sys
import types
import warnings

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
    argmax_position,
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
    weak_lp_norm,
)
from nlqw import evolution
from nlqw.coins import coin_kernel
from nlqw.state import weak_lp_of_norms

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
        # u itself, bit for bit, padded by two zero sites per side
        padded = np.zeros((len(u) + 4, 2), dtype=np.complex128)
        padded[2:-2] = u.amplitudes
        back = inverse_shift(shift(u))
        assert back.origin == u.origin - 2
        assert back.amplitudes.tobytes() == padded.tobytes()

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"lp": (0.5,)}, "lp exponents must be at least 1, got [0.5]"),
            ({"lp": (float("nan"),)}, "lp exponents must be at least 1, got [nan]"),
            ({"weak_lp": (0.5,)}, "weak_lp exponents must lie in [1, inf), got [0.5]"),
            ({"weak_lp": (np.inf,)}, "weak_lp exponents must lie in [1, inf), got [inf]"),
            ({"lp": (2.0, 2.0)}, "lp exponents give repeated series keys ['lp_2', 'lp_2']"),
            ({"lp": (2.0, 2.0000001)}, "lp exponents give repeated series keys"),
            ({"weak_lp": (4.0, 4.0)}, "weak_lp exponents give repeated series keys"),
        ],
        ids=[
            "lp-below-1", "lp-nan", "weak-below-1", "weak-inf",
            "lp-repeated", "lp-same-key", "weak-repeated",
        ],
    )
    def test_recorder_refuses_exponents_it_cannot_key(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Recorder(**kwargs)

    def test_lp_and_weak_lp_exponents_may_coincide(self):
        rec = Recorder(lp=(1.0, 2.0, np.inf), weak_lp=(1.0, 2.0))
        traj = evolve(delta_state(1, 0), soliton_spec(), 3, rec)
        assert list(traj.series) == ["lp_1", "lp_2", "lp_inf", "weak_lp_1", "weak_lp_2"]
        assert all(len(v) == 4 for v in traj.series.values())

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
        series = instability_trace(0.0, spec, 200)
        assert np.max(np.abs(series - a)) <= 1e-12

    def test_perturbed_edge_decays_strictly(self):
        spec = soliton_spec()
        series = instability_trace(0.1, spec, 500)
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
        # g > 0 has the period-4 branch, not a stationary edge
        with pytest.raises(ValueError, match="g < 0"):
            instability_trace(0.1, RotationPowerCoin(np.pi / 4.0, 0.8, 1), 10)


class TestEdgeRecoveryTrace:
    def test_unperturbed_deviation_is_zero(self):
        spec = soliton_spec()
        series = edge_recovery_trace(0.0, spec, 100)
        assert np.max(series) <= 1e-13

    def test_matches_scalar_recursion(self):
        spec = soliton_spec()
        a = soliton_amplitude(spec.g, spec.p)
        eps = 0.05
        steps = 500
        series = edge_recovery_trace(eps, spec, steps)
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

    def test_rejects_theta0_off_the_stationary_branch(self):
        # g < 0, but the branch assumes theta0 = pi/4
        with pytest.raises(ValueError, match="theta0"):
            edge_recovery_trace(0.0, RotationPowerCoin(0.3, -0.8, 1), 5)
        with pytest.raises(ValueError, match="theta0"):
            instability_trace(0.0, RotationPowerCoin(0.3, -0.8, 1), 5)

    def test_right_tail_never_reaches_the_edge(self):
        spec = soliton_spec()
        tail = np.array([[0.3, 0.1j], [0.0, 0.2]], dtype=np.complex128)
        plain = edge_recovery_trace(0.05, spec, 80)
        noisy = edge_recovery_trace(0.05, spec, 80, right_tail=tail)
        assert np.array_equal(plain, noisy)


class TestTrajectoryInvariant:
    @given(u=small_states())
    @settings(max_examples=20, deadline=None)
    def test_l2_norm_survives_evolution(self, u):
        steps = 40
        traj = evolve(u, GaltonCoin(0.8), steps)
        drift = abs(lp_norm(traj.final, 2.0) - lp_norm(u, 2.0))
        assert drift <= 1e-10 * np.sqrt(steps)


# ---------------------------------------------------------------------------
# Bit-identity against a frozen copy of the former 1-D engine


def reference_evolve(u0, spec, steps, rec):
    """The former evolve loop: 1-D component buffers, shifted in place."""
    kern = coin_kernel(spec)
    n0 = len(u0)
    size = n0 + 2 * steps + 2
    u1 = np.zeros(size, dtype=np.complex128)
    u2 = np.zeros(size, dtype=np.complex128)
    lo, hi = steps + 1, steps + 1 + n0
    u1[lo:hi] = u0.amplitudes[:, 0]
    u2[lo:hi] = u0.amplitudes[:, 1]
    base = u0.origin - lo
    series = {}
    trace = []
    snaps = {}

    def put(key, value):
        series.setdefault(key, []).append(value)

    def capture(t, lo, hi):
        a1 = u1[lo:hi]
        a2 = u2[lo:hi]
        norms = np.sqrt(a1.real**2 + a1.imag**2 + a2.real**2 + a2.imag**2)
        put("sup_norm", float(norms.max()))
        for p in rec.lp:
            key = "lp_inf" if np.isinf(p) else f"lp_{p:g}"
            if np.isinf(p):
                put(key, float(norms.max()))
            else:
                put(key, float(np.sum(norms**p) ** (1.0 / p)))
        for p in rec.weak_lp:
            put(f"weak_lp_{p:g}", weak_lp_of_norms(norms, p))
        put("argmax", base + lo + int(np.argmax(norms)))
        comp = a1 if rec.threshold_component == 1 else a2
        trace.append((t, base + lo + np.flatnonzero(np.abs(comp) > rec.threshold)))
        put("edge_comp1", complex(u1[lo]))
        put("edge_comp2", complex(u2[lo]))
        if t in rec.snapshot_times:
            snaps[t] = LatticeState(base + lo, np.column_stack([a1, a2]).copy())

    capture(0, lo, hi)
    for t in range(1, steps + 1):
        v1, v2 = kern(u1[lo:hi], u2[lo:hi])
        u1[lo - 1 : hi - 1] = v1
        u1[hi - 1] = 0.0
        u2[lo + 1 : hi + 1] = v2
        u2[lo] = 0.0
        lo -= 1
        hi += 1
        capture(t, lo, hi)
    final = LatticeState(base + lo, np.column_stack([u1[lo:hi], u2[lo:hi]]))
    series["argmax"] = np.asarray(series["argmax"], dtype=np.int64)
    return final, {k: np.asarray(v) for k, v in series.items()}, trace, snaps


def reference_shift(u, inverse=False):
    n = len(u)
    amp = np.zeros((n + 2, 2), dtype=np.complex128)
    left, right = (0, 2) if not inverse else (2, 0)
    amp[left : left + n, 0] = u.amplitudes[:, 0]
    amp[right : right + n, 1] = u.amplitudes[:, 1]
    return LatticeState(u.origin - 1, amp)


def reference_step(u, spec):
    v1, v2 = coin_kernel(spec)(u.amplitudes[:, 0], u.amplitudes[:, 1])
    return reference_shift(LatticeState(u.origin, np.column_stack([v1, v2])))


def reference_linear_step_inverse(u, c0):
    v = reference_shift(u, inverse=True)
    m = c0.conj().T
    a = v.amplitudes
    out = np.empty_like(a)
    out[:, 0] = m[0, 0] * a[:, 0] + m[0, 1] * a[:, 1]
    out[:, 1] = m[1, 0] * a[:, 0] + m[1, 1] * a[:, 1]
    return LatticeState(v.origin, out)


C0 = c0_from_ab(R, R)
FAMILIES = {
    "constant": ConstantCoin(C0),
    "galton": GaltonCoin(0.7),
    "gross_neveu": GrossNeveuCoin(0.9, 0.4),
    "thirring": ThirringCoin(-0.6, 0.3),
    "rotation_power": soliton_spec(),
    "quintic": ComposedCoin(
        C0, QuinticExponentialCoin(0.3 * SIGMA_X, 0.2 * SIGMA_Z)
    ),
}
# 20001 sites straddle numpy's 16384-element temporary elision, under which
# the Thirring and Gross-Neveu kernels' complex products change operand order
WINDOWS = [(1, 300), (9000, 40), (20001, 6)]


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = 0.6 * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    return LatticeState(-3, amp)


def random_real_state(n, seed):
    """n random real sites of unit l2 norm."""
    amp = np.random.default_rng(seed).standard_normal((n, 2))
    return LatticeState(-3, (amp / np.linalg.norm(amp)).astype(np.complex128))


# Real seeds for the float path: a delta, then real windows whose float
# buffers (from 32768 sites) or complex ones (from 16384) cross numpy's
# 256 KiB temporary elision.  All have unit l2 norm, so every intensity
# stays at most 1 and theta0 + g s^p within |g| of theta0
REAL_SEEDS = {
    "delta": (delta_state(1, 0), 300),
    **{f"real{n}": (random_real_state(n, n), steps) for n, steps in
       [(1, 300), (9000, 40), (20001, 6), (40001, 3)]},
}


def same_state(a, b):
    return a.origin == b.origin and a.amplitudes.tobytes() == b.amplitudes.tobytes()


def full_recorder(steps, component=1):
    return Recorder(
        sup_norm=True,
        lp=(1.0, 2.0, 5.0, float("inf")),
        weak_lp=(4.0, 6.0),
        argmax=True,
        threshold=0.05,
        threshold_component=component,
        left_edge=True,
        snapshot_times=(0, steps // 3, steps),
    )


def engine_pairs(u0, spec, steps, rec):
    """(evolve, reference_evolve) pairs of every array the two return, once
    their windows, keys and threshold sites are known to agree."""
    final, series, trace, snaps = reference_evolve(u0, spec, steps, rec)
    traj = evolve(u0, spec, steps, rec)
    assert traj.final.origin == final.origin
    assert list(traj.series) == list(series)
    assert [t for t, _ in traj.threshold_trace] == [t for t, _ in trace]
    for (_, got), (_, want) in zip(traj.threshold_trace, trace):
        assert got.tobytes() == want.tobytes()
    assert sorted(traj.snapshots) == sorted(snaps)
    for t, state in snaps.items():
        assert traj.snapshots[t].origin == state.origin
    return (
        [("final", traj.final.amplitudes, final.amplitudes)]
        + [(key, traj.series[key], values) for key, values in series.items()]
        + [(f"t={t}", traj.snapshots[t].amplitudes, s.amplitudes) for t, s in snaps.items()]
    )


class TestFrozenEngineBitIdentity:
    @pytest.mark.parametrize("component", [1, 2])
    @pytest.mark.parametrize("n, steps", WINDOWS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_evolve_matches_the_former_loop(self, family, n, steps, component):
        u0 = random_state(n, n + steps)
        rec = full_recorder(steps, component)
        for what, got, want in engine_pairs(u0, FAMILIES[family], steps, rec):
            assert got.dtype == want.dtype, what
            assert got.tobytes() == want.tobytes(), what

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("seed", sorted(REAL_SEEDS))
    def test_float_path_matches_the_former_loop_bit_for_bit(self, seed, p):
        u0, steps = REAL_SEEDS[seed]
        for what, got, want in engine_pairs(u0, soliton_spec(p=p), steps, full_recorder(steps)):
            assert got.dtype == want.dtype, what
            assert got.tobytes() == want.tobytes(), what

    @pytest.mark.parametrize(
        "spec",
        [RotationPowerCoin(2.5, -0.8, 2), ConstantCoin(c0_from_ab(-0.6, 0.8))],
        ids=["theta0_2.5", "constant"],
    )
    @pytest.mark.parametrize("seed", sorted(REAL_SEEDS))
    def test_float_path_changes_only_the_sign_of_zeros(self, seed, spec):
        # where cos(theta) or a coin entry is negative, the former loop
        # writes some exact zeros as -0; the float path writes +0 there.
        # At theta0 = pi/4 and g = -0.8, theta stays inside (-pi/2, pi/2)
        # on these seeds, so cos(theta) > 0 and the test above asks for
        # every bit
        u0, steps = REAL_SEEDS[seed]
        for what, got, want in engine_pairs(u0, spec, steps, full_recorder(steps)):
            assert got.dtype == want.dtype, what
            assert np.array_equal(got, want), what
            if got.dtype.kind == "c":
                got, want = got.view(np.float64), want.view(np.float64)
            nonzero = want != 0
            assert got[nonzero].tobytes() == want[nonzero].tobytes(), what

    @pytest.mark.parametrize("n", [n for n, _ in WINDOWS])
    def test_state_level_shifts_match_the_former_forms(self, n):
        u = random_state(n, 7 * n)
        assert same_state(shift(u), reference_shift(u))
        assert same_state(inverse_shift(u), reference_shift(u, inverse=True))
        assert same_state(linear_step_inverse(u, C0), reference_linear_step_inverse(u, C0))
        for spec in FAMILIES.values():
            assert same_state(step(u, spec), reference_step(u, spec))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_one_step_equals_a_one_step_evolve(self, family):
        u = random_state(20001, 3)
        spec = FAMILIES[family]
        assert same_state(step(u, spec), evolve(u, spec, 1).final)


class TestRecorderAgreesWithStateApi:
    """A recorded series is the state API's norm of the snapshot at that
    step, bit for bit: both read state.site_norms."""

    SEEDS = {
        "delta": delta_state(1, 0),
        "complex_pair": LatticeState(-1, np.array([[0.6, 0.3j], [-0.2 + 0.5j, 0.4]])),
    }

    @pytest.mark.parametrize("seed", sorted(SEEDS))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_recorded_norms_equal_the_snapshot_norms(self, family, seed):
        steps = 800
        times = tuple(range(0, steps + 1, 8))
        rec = Recorder(
            sup_norm=True, lp=(2.0, np.inf), weak_lp=(4.0,), argmax=True, snapshot_times=times
        )
        traj = evolve(self.SEEDS[seed], FAMILIES[family], steps, rec)
        mismatches = []
        for t in times:
            u = traj.snapshots[t]
            state_api = {
                "sup_norm": lp_norm(u, np.inf),
                "lp_2": lp_norm(u, 2.0),
                "lp_inf": lp_norm(u, np.inf),
                "weak_lp_4": weak_lp_norm(u, 4.0),
                "argmax": argmax_position(u),
            }
            for key, want in state_api.items():
                got = traj.series[key][t]
                if np.float64(got).tobytes() != np.float64(want).tobytes():
                    mismatches.append((t, key))
        assert mismatches == []


class TestSupOnlyRecorder:
    """A recorder whose only norm series is sup_norm reads it as
    sqrt(max sum_of_squares), bit for bit the full recorder's value."""

    SQRT_TINY = np.sqrt(np.finfo(np.float64).tiny)

    # norms about 2^k: k <= -512 falls below sqrt(tiny) and k >= 512 squares
    # past the float range, the two cases read from site_norms; the
    # rotation_power kernel's own intensity overflows at k >= 512
    SCALES = [-1070, -600, -530, -512, -511, -300, 0]

    @pytest.mark.parametrize(
        "family, k",
        [("constant", k) for k in SCALES + [300, 511, 512, 600, 1000]]
        + [("rotation_power", k) for k in SCALES],
    )
    def test_equals_the_full_recorder_bitwise(self, family, k):
        u0 = scaled(random_state(6, k & 0xFFFF), 2.0**k)
        spec = FAMILIES[family]
        full = evolve(u0, spec, 40, Recorder(sup_norm=True, lp=(2.0,), argmax=True))
        lean = evolve(u0, spec, 40, Recorder(sup_norm=True))
        assert lean.series["sup_norm"].tobytes() == full.series["sup_norm"].tobytes()
        assert lean.final.amplitudes.tobytes() == full.final.amplitudes.tobytes()

    def test_the_scales_reach_both_fallbacks(self):
        def root_of_max(k):
            amp = scaled(random_state(6, k & 0xFFFF), 2.0**k).amplitudes
            with np.errstate(over="ignore"):
                return np.sqrt((amp.real**2 + amp.imag**2).sum(axis=1).max())

        assert root_of_max(-512) < self.SQRT_TINY <= root_of_max(-511)
        assert root_of_max(511) < np.inf == root_of_max(512)

    def test_normal_data_takes_no_per_site_root(self, monkeypatch):
        def no_site_norms(*args):
            raise AssertionError("site_norms was called")

        monkeypatch.setattr(evolution, "site_norms", no_site_norms)
        monkeypatch.setattr("nlqw.state.site_norms", no_site_norms)
        traj = evolve(random_state(6, 1), soliton_spec(), 30, Recorder(sup_norm=True))
        assert traj.series["sup_norm"].size == 31


@pytest.fixture
def buffer_dtypes(monkeypatch):
    """The buffer dtype of every evolve() run, in order."""
    seen = []
    begin = evolution._Recording.begin

    def spy(self, u1, u2, base, lo, hi):
        seen.append(u1.dtype)
        begin(self, u1, u2, base, lo, hi)

    monkeypatch.setattr(evolution._Recording, "begin", spy)
    return seen


def with_imag(u, site, component, imag):
    """u with the imaginary part of one amplitude set to imag."""
    amp = u.amplitudes.copy()
    amp.imag[site, component] = imag
    return LatticeState(u.origin, amp)


F64, C128 = np.dtype(np.float64), np.dtype(np.complex128)


class TestBufferDtype:
    @pytest.mark.parametrize(
        "spec",
        [soliton_spec(), ConstantCoin(C0), ComposedCoin(C0, soliton_spec())],
        ids=["rotation_power", "constant", "composed"],
    )
    def test_real_coin_on_real_data_walks_on_floats(self, spec, buffer_dtypes):
        traj = evolve(random_real_state(9, 1), spec, 20, Recorder(snapshot_times=(0, 20)))
        assert spec.real and buffer_dtypes == [F64]
        assert traj.final.amplitudes.dtype == C128
        assert [s.amplitudes.dtype for s in traj.snapshots.values()] == [C128, C128]

    @pytest.mark.parametrize(
        "spec, u0",
        [
            (GaltonCoin(0.7), random_real_state(9, 1)),
            (FAMILIES["quintic"], random_real_state(9, 1)),
            (ConstantCoin(c0_from_ab(R, 1j * R)), random_real_state(9, 1)),
            (ComposedCoin(c0_from_ab(R, 1j * R), soliton_spec()), random_real_state(9, 1)),
            (soliton_spec(), with_imag(random_real_state(9, 1), 4, 1, 1e-300)),
            (soliton_spec(), with_imag(random_real_state(9, 1), 8, 0, -0.0)),
        ],
        ids=["galton", "quintic", "complex_constant", "complex_composed", "imag", "imag_-0"],
    )
    def test_other_walks_stay_complex(self, spec, u0, buffer_dtypes):
        evolve(u0, spec, 20)
        assert buffer_dtypes == [C128]

    def test_which_families_are_real(self):
        real = [name for name, spec in sorted(FAMILIES.items()) if spec.real]
        assert real == ["constant", "rotation_power"]


class TestNonFiniteGuard:
    """Real coins walk this real data on the float path."""

    imag = 0.0  # every imaginary part of the initial data
    dtype = F64  # the buffers of a real coin's walk

    def state(self, origin, amp):
        amp = np.array(amp, dtype=np.complex128)
        amp.imag = self.imag
        return LatticeState(origin, amp)

    def test_overflow_names_the_step_and_site(self, buffer_dtypes):
        amp = np.full((5, 2), 0.1)
        amp[3, 0] = 1e200
        u0 = self.state(-2, amp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"in step 1 at site 1$"):
                evolve(u0, soliton_spec(), 50, Recorder(sup_norm=True))
        assert buffer_dtypes == [self.dtype]

    def test_later_blow_up_names_its_step(self, buffer_dtypes):
        # each component alone squares to 1e308; step 1 brings both onto
        # site 0, where the Thirring intensity sums them past the float range
        u0 = self.state(-1, [[0.0, 1e154], [0.0, 0.0], [1e154, 0.0]])
        with pytest.raises(ValueError, match="in step 2 at site 0$"):
            evolve(u0, ThirringCoin(1.0, 0.0), 5)
        # the linear coin squares nothing, so the same state walks on
        traj = evolve(u0, ConstantCoin(C0), 5)
        assert np.isfinite(traj.final.amplitudes).all()
        assert buffer_dtypes == [C128, self.dtype]

    def test_recorder_norms_of_finite_amplitudes_stay_finite(self, buffer_dtypes):
        # squared, these amplitudes overflow; the recorder's site norms fall
        # back to hypot there (the frozen-engine test pins the other bits)
        u0 = self.state(0, [[1e160, 0.0]])
        traj = evolve(u0, ConstantCoin(C0), 5, Recorder(sup_norm=True, lp=(np.inf,)))
        final = traj.final.amplitudes
        assert traj.series["sup_norm"][0] == 1e160
        want = np.hypot(abs(final[:, 0]), abs(final[:, 1])).max()
        assert traj.series["sup_norm"][-1] == want
        assert traj.series["lp_inf"].tobytes() == traj.series["sup_norm"].tobytes()
        assert buffer_dtypes == [self.dtype]

    def test_recorder_lp_of_finite_amplitudes_stays_finite(self, buffer_dtypes):
        # the sum of squared site norms overflows; lp scales by the maximum
        u0 = self.state(0, [[1e160, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(u0, ConstantCoin(C0), 5, Recorder(lp=(2.0,)))
        assert traj.series["lp_2"][0] == 1e160
        assert traj.series["lp_2"] == pytest.approx(1e160, rel=1e-14)
        assert buffer_dtypes == [self.dtype]

    def test_recorder_lp_of_small_norms_stays_positive(self, buffer_dtypes):
        # from about step 8 every site norm^700 underflows; lp scales by the
        # maximum there, so it stays at least the sup norm
        u0 = self.state(0, [[1.0, 0.0]])
        rec = Recorder(sup_norm=True, lp=(700.0,))
        traj = evolve(u0, ConstantCoin(c0_from_ab(R, R)), 200, rec)
        assert (traj.series["lp_700"] >= traj.series["sup_norm"]).all()
        assert buffer_dtypes == [self.dtype]

    def test_recorder_norms_of_tiny_amplitudes_stay_positive(self, buffer_dtypes):
        # every square underflows; the site norms fall back to hypot
        u0 = self.state(0, [[1e-200, 0.0]])
        rec = Recorder(sup_norm=True, lp=(2.0,), argmax=True)
        traj = evolve(u0, ConstantCoin(c0_from_ab(0.6, 0.8)), 3, rec)
        assert traj.series["sup_norm"][0] == traj.series["lp_2"][0] == 1e-200
        assert (traj.series["sup_norm"] > 0).all()
        assert traj.series["lp_2"] == pytest.approx(1e-200, rel=1e-15)
        assert traj.series["argmax"][-1] == argmax_position(traj.final)
        assert buffer_dtypes == [self.dtype]

    def test_norm_beyond_the_float_range_names_the_step(self, buffer_dtypes):
        # the identity coin keeps both components finite, but their norm
        # 1.3e308 * sqrt(2) exceeds the float range
        u0 = self.state(0, [[1.3e308, 1.3e308]])
        with pytest.raises(ValueError, match="in step 1$"):
            evolve(u0, ConstantCoin(np.eye(2)), 3, Recorder(sup_norm=True))
        assert buffer_dtypes == [self.dtype]

    def test_final_state_norm_overflow_names_the_last_step(self, buffer_dtypes):
        u0 = self.state(0, [[1.3e308, 1.3e308]])
        with pytest.raises(ValueError, match="after step 0$"):
            evolve(u0, ConstantCoin(np.eye(2)), 0, Recorder(sup_norm=True))
        assert buffer_dtypes == [self.dtype]


class TestNonFiniteGuardComplexPath(TestNonFiniteGuard):
    """The same walks from the same values with -0 imaginary parts, which
    keep them on complex buffers."""

    imag = -0.0
    dtype = C128


# ---------------------------------------------------------------------------
# Subnormal flush: walk() zeroes components below 2^-1022 every
# _FLUSH_STEPS steps; nothing else moves

TINY = np.finfo(np.float64).tiny


def float_view(*parts):
    return np.concatenate(parts).view(np.float64)


def band(x):
    """Mask of the nonzero entries below the smallest normal double."""
    return (x != 0.0) & (np.abs(x) < TINY)


class _Watch:
    """walk() observer that checks each flushed state and keeps the final
    state of every run."""

    margin = 0

    def __init__(self):
        self.flushed, self.band_seen, self.negative_zeros = 0, 0, 0

    def begin(self, u1, u2, base, lo, hi):
        self.u1, self.u2, self.base = u1, u2, base

    def observe(self, t, lo, hi, a1, a2, w1, w2):
        x = float_view(a1, a2)
        if t > 0 and t % evolution._FLUSH_STEPS == 0:
            assert not band(x).any(), t
            self.flushed += 1
            self.negative_zeros += np.count_nonzero((x == 0.0) & np.signbit(x))
        else:
            self.band_seen = max(self.band_seen, np.count_nonzero(band(x)))
        return False

    def finish(self, t, lo, hi):
        return [
            LatticeState(self.base + lo, np.column_stack([c1[lo:hi], c2[lo:hi]]))
            for c1, c2 in zip(self.u1.T, self.u2.T)
        ]


def weak_limit_packet(sigma=24):
    """The benchmark's weak-limit input: a Gaussian packet of 8 sigma + 1
    sites with a complex polarisation."""
    x = np.arange(-4 * sigma, 4 * sigma + 1)
    env = np.exp(-(x * x) / (4.0 * sigma * sigma))
    env /= np.linalg.norm(env)
    pol = np.array([np.cos(1.1), np.exp(2.3j) * np.sin(1.1)])
    return LatticeState(-4 * sigma, env[:, None] * pol[None, :])


class TestSubnormalFlush:
    def test_flush_zeroes_the_band_and_keeps_zero_signs(self):
        sub = 5e-324
        x = np.array([0.0, -0.0, sub, -sub, TINY / 3, -TINY / 3, TINY, -TINY, 1.0, -2e-300])
        want = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, TINY, -TINY, 1.0, -2e-300])
        # 1001 copies span several of the flush's blocks, ending mid-block
        x, want = np.tile(x, 1001), np.tile(want, 1001)
        evolution.flush_subnormals(x)
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_flush_equals_the_unconditional_masked_multiply(self, seed):
        # the masked multiply over every block, as the flush did before it
        # first looked for a subnormal entry
        def unconditional(x):
            for lo in range(0, x.size, evolution._FLUSH_BLOCK):
                b = x[lo : lo + evolution._FLUSH_BLOCK]
                np.multiply(b, 0.0, out=b, where=np.abs(b) < TINY)

        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 5e-324, -5e-324, TINY / 3, -TINY / 3, TINY, -TINY])
        n = 5 * evolution._FLUSH_BLOCK + 123
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        picks = rng.random(n) < 0.3
        x[picks] = rng.choice(pool, picks.sum())
        # blocks 1 and 3 hold no subnormal, block 2 nothing but zeros
        block = evolution._FLUSH_BLOCK
        for b in (1, 3):
            part = x[b * block : (b + 1) * block]
            part[(np.abs(part) < TINY) & (part != 0)] = -0.0
        x[2 * block : 3 * block] = np.where(rng.random(block) < 0.5, 0.0, -0.0)
        got, want = x.copy(), x.copy()
        evolution.flush_subnormals(got)
        unconditional(want)
        assert got.tobytes() == want.tobytes()
        assert not ((np.abs(got) < TINY) & (got != 0)).any()

    @pytest.mark.parametrize(
        "spec", [ConstantCoin(C0), soliton_spec(-0.6)], ids=["constant", "rotation_power"]
    )
    def test_no_band_after_any_flush_step(self, spec):
        watch = _Watch()
        steps = 3200
        evolution.walk([delta_state(1, 0)], coin_kernel(spec), steps, watch)
        assert watch.flushed == steps // evolution._FLUSH_STEPS - 1
        # the band forms between flushes, and exact zeros keep their sign
        assert watch.band_seen > 0
        assert watch.negative_zeros > 0

    @pytest.mark.parametrize(
        "u0, spec, steps",
        [
            (weak_limit_packet(), ConstantCoin(C0), 5000),
            (delta_state(1, 0), soliton_spec(-0.6), 4500),
        ],
        ids=["packet", "rotation_power"],
    )
    def test_only_the_band_departs_from_the_unflushed_loop(self, u0, spec, steps):
        rec = Recorder(
            sup_norm=True, lp=(2.0,), weak_lp=(4.0,), argmax=True, threshold=1e-3
        )
        final, series, _, _ = reference_evolve(u0, spec, steps, rec)
        traj = evolve(u0, spec, steps, rec)
        got, want = float_view(traj.final.amplitudes), float_view(final.amplitudes)
        assert traj.final.origin == final.origin
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert differ.any()
        assert max(np.abs(got[differ]).max(), np.abs(want[differ]).max()) < 1e-280
        for key in ("sup_norm", "lp_2", "weak_lp_4", "argmax"):
            assert traj.series[key].tobytes() == series[key].tobytes(), key

    def test_lockstep_runs_in_the_band_match_their_lone_runs(self):
        seeds = [random_state(5, seed) for seed in range(4)]
        kern = coin_kernel(ConstantCoin(C0))
        steps = 3000
        watch = _Watch()
        batch, _ = evolution.walk(seeds, kern, steps, watch)
        assert watch.band_seen > 0
        for seed, run in zip(seeds, batch):
            (alone,), _ = evolution.walk([seed], kern, steps, _Watch())
            assert same_state(run, alone)


class TestLockstep:
    GS = (0.8, -0.8, 1.0, -1.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_finals_equal_lone_evolve_bitwise(self, p):
        spec = RotationPowerCoin(np.pi / 4, self.GS, p)
        finals = evolution.lockstep_finals([delta_state(1, 0)] * 4, spec, 300)
        for g, got in zip(self.GS, finals):
            want = evolve(delta_state(1, 0), RotationPowerCoin(np.pi / 4, g, p), 300).final
            assert got.origin == want.origin
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_complex_finals_past_16384_flat_sites_equal_lone_evolve(self):
        # 4 runs of 4205-site windows walk on complex buffers whose flat
        # window passes 16384 entries; each lone run stays below it
        seeds = [random_state(5, seed) for seed in range(4)]
        spec = RotationPowerCoin(0.3, (0.6, -0.5, 1.2, -1.1), 2)
        finals = evolution.lockstep_finals(seeds, spec, 2100)
        for seed, g, got in zip(seeds, spec.g, finals):
            want = evolve(seed, RotationPowerCoin(0.3, g, 2), 2100).final
            assert got.origin == want.origin
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_a_mismatched_run_count_is_refused_before_any_step(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("a walk ran")

        monkeypatch.setattr(evolution, "walk", no_walk)
        seeds = [random_state(2, seed) for seed in range(3)]
        spec = RotationPowerCoin(np.pi / 4, (0.8, -0.8), 2)
        with pytest.raises(ValueError, match="couplings for 2 lockstep runs, not 3"):
            evolution.lockstep_finals(seeds, spec, 10)
        with pytest.raises(ValueError, match="couplings for 2 lockstep runs, not 1"):
            evolve(seeds[0], spec, 10)
        with pytest.raises(ValueError, match="couplings for 2 lockstep runs, not 1"):
            evolve(seeds[0], ComposedCoin(C0, spec), 10)

    def test_every_one_run_entry_point_refuses_a_tuple(self, monkeypatch):
        from nlqw import apply_coin, nonlinear_residual, scattering, scattering_series

        def no_walk(*args, **kwargs):
            raise AssertionError("a walk ran")

        monkeypatch.setattr(scattering, "walk", no_walk)
        u0 = random_state(2, 0)
        spec = RotationPowerCoin(np.pi / 4, (0.8, -0.8), 2)
        for spec in (spec, ComposedCoin(C0, spec)):
            for call in (
                lambda: step(u0, spec),
                lambda: apply_coin(spec, u0),
                lambda: nonlinear_residual(u0, spec, t_max=10),
                lambda: scattering_series(u0, spec, 10),
            ):
                with pytest.raises(ValueError, match="couplings for 2 lockstep runs, not 1"):
                    call()
        # the pairings' batches vary in width: any per-run coin is refused
        one = RotationPowerCoin(np.pi / 4, (0.8,), 2)
        with pytest.raises(ValueError, match="one coupling for every run"):
            scattering._lockstep_pairings([u0, u0], one, 10, 0)

    def test_a_one_run_tuple_is_its_scalar_coin(self):
        u0 = random_state(2, 5)
        one = evolve(u0, RotationPowerCoin(np.pi / 4, (-0.8,), 2), 50).final
        want = evolve(u0, RotationPowerCoin(np.pi / 4, -0.8, 2), 50).final
        assert one.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_buffers_follow_evolve(self, monkeypatch):
        seen = []
        walk = evolution.walk

        def spy(seeds, kern, steps, observer, snapshot_times=(), dtype=np.complex128):
            seen.append(np.dtype(dtype))
            return walk(seeds, kern, steps, observer, snapshot_times, dtype)

        monkeypatch.setattr(evolution, "walk", spy)
        spec = RotationPowerCoin(np.pi / 4, self.GS[:2], 2)
        evolution.lockstep_finals([delta_state(1, 0)] * 2, spec, 5)
        imag = with_imag(delta_state(1, 0), 0, 1, 1e-300)
        evolution.lockstep_finals([delta_state(1, 0), imag], spec, 5)
        assert seen == [F64, C128]

    @pytest.mark.parametrize(
        "runs, n0, steps, dtype, widths",
        [
            # table1: four cells of one p from delta, on float buffers
            (4, 1, 2500, np.float64, [4]),
            (4, 1, 10000, np.float64, [1, 1, 1, 1]),
            # the recovery ladder: eight one- or three-site complex seeds
            (8, 1, 512, np.complex128, [8]),
            (8, 3, 512, np.complex128, [8]),
            (8, 1, 2048, np.complex128, [3, 3, 2]),
            (8, 3, 2048, np.complex128, [3, 3, 2]),
        ],
    )
    def test_chunk_widths(self, runs, n0, steps, dtype, widths):
        chunks = evolution.lockstep_chunks(list(range(runs)), n0, steps, dtype)
        assert [len(c) for c in chunks] == widths
        assert sum(chunks, []) == list(range(runs))


class TestMallocThresholds:
    """walk() fixes glibc's thresholds itself, so a library evolve with no
    command line around it gets them."""

    @pytest.fixture(autouse=True)
    def unset(self):
        evolution._set_malloc_thresholds.cache_clear()
        yield
        evolution._set_malloc_thresholds.cache_clear()

    def walk_bytes(self):
        traj = evolve(weak_limit_packet(), ConstantCoin(C0), 200, Recorder(sup_norm=True))
        return traj.final.amplitudes.tobytes() + traj.series["sup_norm"].tobytes()

    def test_set_in_order_once_per_process(self, monkeypatch):
        calls = []

        def cdll(name):
            calls.append(name)
            return types.SimpleNamespace(mallopt=lambda *args: calls.append(args))

        monkeypatch.setattr(evolution.ctypes, "CDLL", cdll)
        for _ in range(3):
            self.walk_bytes()
        # M_MMAP_THRESHOLD = 1 MiB, then M_TRIM_THRESHOLD = 2 MiB
        assert calls == [None, (-3, 1 << 20), (-1, 2 << 20)]

    @pytest.mark.parametrize("libc", ["unloadable", "without_mallopt"])
    def test_outputs_alike_without_mallopt(self, monkeypatch, libc):
        want = self.walk_bytes()
        evolution._set_malloc_thresholds.cache_clear()

        def cdll(name):
            if libc == "unloadable":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(evolution.ctypes, "CDLL", cdll)
        assert self.walk_bytes() == want

    def test_setting_them_again_is_harmless(self):
        want = self.walk_bytes()
        for _ in range(2):
            evolution._set_malloc_thresholds.cache_clear()
            evolution._set_malloc_thresholds()
        assert self.walk_bytes() == want


FAULTS_SCRIPT = """
import resource
import numpy as np
from nlqw import ConstantCoin, LatticeState, c0_from_ab, evolve

x = np.arange(-96, 97)
env = np.exp(-(x * x) / (4.0 * 24 * 24))
env /= np.linalg.norm(env)
pol = np.array([np.cos(1.1), np.exp(2.3j) * np.sin(1.1)])
u0 = LatticeState(-96, env[:, None] * pol[None, :])
spec = ConstantCoin(c0_from_ab(2 ** -0.5, 2 ** -0.5))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evolve(u0, spec, 5000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
def test_fresh_library_walk_reuses_the_heap():
    # the weak-limit packet's walk, 193 complex sites for 5000 steps, in a
    # process no earlier work has warmed: at glibc's 128 KiB defaults every
    # step maps its temporaries afresh, some 47,000 faults in all; with the
    # thresholds set, about 300
    src = os.path.dirname(os.path.dirname(evolution.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) < 30_000
