"""Fourier-side analysis: symbol, dispersion, kernels, and limit law."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlqw import (
    ConstantCoin,
    LatticeState,
    Recorder,
    SymbolData,
    c0_from_ab,
    combine,
    curvature_lower_bound,
    curvature_minimum,
    decay_fit,
    delta_state,
    dispersion,
    eigenprojections,
    empirical_scaled_cdf,
    evolve,
    finding_probability,
    konno_density,
    kolmogorov_distance,
    l2_distance,
    lp_norm,
    oscillatory_integral,
    scaled,
    spectral_propagate,
    strichartz_ratio,
    symbol,
    weak_l4_decay_check,
    weak_limit_cdf,
    weak_limit_density,
)
from nlqw import spectral

R = 1.0 / np.sqrt(2.0)
I2 = np.eye(2, dtype=np.complex128)

HADAMARD_PAIR = (R, R)
COMPLEX_PAIR = (0.6 * np.exp(1j * 0.9), 0.8)

xi_values = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)


class TestSymbol:
    def test_zero_frequency_gives_the_coin(self):
        a, b = COMPLEX_PAIR
        assert np.array_equal(symbol(0.0, a, b), c0_from_ab(a, b))

    @given(xi=xi_values)
    @settings(max_examples=100, deadline=None)
    def test_unit_determinant(self, xi):
        det = np.linalg.det(symbol(xi, *COMPLEX_PAIR))
        assert abs(det - 1.0) <= 1e-12

    @given(xi=xi_values)
    @settings(max_examples=100, deadline=None)
    def test_trace_is_twice_the_real_part(self, xi):
        a, b = COMPLEX_PAIR
        tr = np.trace(symbol(xi, a, b))
        assert tr == pytest.approx(2.0 * np.real(np.exp(1j * xi) * a), abs=1e-13)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            symbol(0.0, 0.9, 0.9)


class TestDispersion:
    def test_values_at_zero(self):
        r = 0.7
        p0, p1, _, _ = dispersion(0.0, r)
        assert p0 == pytest.approx(np.arccos(r), abs=1e-15)
        assert p1 == 0.0

    def test_values_at_quarter_period(self):
        r = 0.7
        p0, p1, _, _ = dispersion(np.pi / 2.0, r)
        assert p0 == pytest.approx(np.pi / 2.0, abs=1e-15)
        assert p1 == pytest.approx(r, abs=1e-15)

    @given(xi=xi_values, r=st.sampled_from([0.3, R, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_derivative_chain_matches_finite_differences(self, xi, r):
        h = 1e-5
        p0m, p1m, p2m, _ = dispersion(xi - h, r)
        p0c, p1c, p2c, p3c = dispersion(xi, r)
        p0p, p1p, p2p, _ = dispersion(xi + h, r)
        assert (p0p - p0m) / (2 * h) == pytest.approx(p1c, abs=1e-6)
        assert (p1p - p1m) / (2 * h) == pytest.approx(p2c, abs=1e-6)
        assert (p2p - p2m) / (2 * h) == pytest.approx(p3c, abs=1e-6)

    @given(xi=xi_values)
    @settings(max_examples=200, deadline=None)
    def test_cosine_identity(self, xi):
        r = 0.62
        p0 = dispersion(xi, r)[0]
        assert np.cos(p0) == pytest.approx(r * np.cos(xi), abs=1e-13)

    def test_rejects_degenerate_modulus(self):
        for r in (0.0, 1.0):
            with pytest.raises(ValueError):
                dispersion(0.0, r)


class TestCurvatureBound:
    @pytest.mark.parametrize("r", [0.3, R, 0.9])
    def test_analytic_floor(self, r):
        floor = r * r * (1.0 - r * r) ** 2
        assert curvature_lower_bound(r) >= floor - 1e-10

    def test_balanced_coin_floor_is_one_eighth(self):
        assert curvature_lower_bound(R) >= 0.125 - 1e-10

    def test_minimum_is_attained_where_cosine_vanishes(self):
        val, xi = curvature_minimum(R)
        floor = 0.125
        assert val <= floor * (1.0 + 1e-3)
        dist = min(abs(xi - np.pi / 2.0), abs(xi - 3.0 * np.pi / 2.0))
        assert dist <= 1e-3


class TestEigenprojections:
    @given(xi=xi_values)
    @settings(max_examples=100, deadline=None)
    def test_resolution_of_identity(self, xi):
        pp, pm = eigenprojections(xi, *COMPLEX_PAIR)
        assert np.max(np.abs(pp + pm - I2)) <= 1e-13

    @given(xi=xi_values)
    @settings(max_examples=100, deadline=None)
    def test_idempotence(self, xi):
        pp, pm = eigenprojections(xi, *COMPLEX_PAIR)
        assert np.max(np.abs(pp @ pp - pp)) <= 1e-12
        assert np.max(np.abs(pm @ pm - pm)) <= 1e-12

    @given(xi=xi_values)
    @settings(max_examples=100, deadline=None)
    def test_eigen_equation(self, xi):
        a, b = COMPLEX_PAIR
        data = SymbolData(a, b)
        lam_p, lam_m = data.eigenvalues(xi)
        pp, pm = eigenprojections(xi, a, b)
        m = symbol(xi, a, b)
        assert np.max(np.abs(m @ pp - lam_p * pp)) <= 1e-12
        assert np.max(np.abs(m @ pm - lam_m * pm)) <= 1e-12


class TestSymbolData:
    @given(xi=xi_values)
    @settings(max_examples=150, deadline=None)
    def test_eigenvalues_unimodular_with_unit_product(self, xi):
        data = SymbolData(*COMPLEX_PAIR)
        lam_p, lam_m = data.eigenvalues(xi)
        assert abs(abs(lam_p) - 1.0) <= 1e-12
        assert abs(abs(lam_m) - 1.0) <= 1e-12
        assert abs(lam_p * lam_m - 1.0) <= 1e-12

    @given(xi=xi_values)
    @settings(max_examples=150, deadline=None)
    def test_eigenvalue_phase_is_the_shifted_dispersion(self, xi):
        a, b = COMPLEX_PAIR
        data = SymbolData(a, b)
        lam_p, lam_m = data.eigenvalues(xi)
        p0 = dispersion(xi + data.theta_a, abs(a))[0]
        assert abs(lam_p - np.exp(1j * p0)) <= 1e-12
        assert abs(lam_m - np.exp(-1j * p0)) <= 1e-12


class TestOscillatoryIntegral:
    def test_entries_bounded_by_projection_norm(self):
        for s in (-0.9, 0.0, 0.4):
            m = oscillatory_integral(40, s, 1, *COMPLEX_PAIR, n_points=1024)
            assert np.max(np.abs(m)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("pair", [HADAMARD_PAIR, COMPLEX_PAIR])
    def test_kernel_reconstructs_direct_stepping(self, pair):
        a, b = pair
        t = 50
        direct = evolve(delta_state(1, 0), ConstantCoin(c0_from_ab(a, b)), t).final
        e1 = np.array([1.0, 0.0], dtype=np.complex128)
        amps = []
        for x in range(-t, t + 1):
            m = oscillatory_integral(t, x / t, 1, a, b, 4096)
            m = m + oscillatory_integral(t, x / t, -1, a, b, 4096)
            amps.append(m @ e1)
        rebuilt = LatticeState(-t, np.asarray(amps))
        diff = combine([(1.0, rebuilt), (-1.0, direct)])
        assert lp_norm(diff, np.inf) <= 1e-8

    def test_scaled_peak_stays_bounded(self):
        # Cube-root-of-t scaling should flatten the kernel peak heights.
        peaks = []
        for t in (100, 1000):
            grid = np.linspace(-1.0, 1.0, 41)
            worst = max(
                np.max(np.abs(oscillatory_integral(t, s, 1, R, R, 16384)))
                for s in grid
            )
            peaks.append(worst * t ** (1.0 / 3.0))
        assert max(peaks) <= 10.0
        assert peaks[1] <= peaks[0] * 1.5

    def test_rejects_coarse_quadrature(self):
        with pytest.raises(ValueError):
            oscillatory_integral(100, 0.0, 1, R, R, n_points=256)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            oscillatory_integral(10, 0.0, 1, R, R, n_points=1000)


class TestSpectralPropagate:
    def test_zero_steps_is_identity(self):
        u0 = combine([(0.8, delta_state(1, 0)), (0.6j, delta_state(2, 4))])
        assert l2_distance(spectral_propagate(u0, R, R, 0), u0) <= 1e-13

    @pytest.mark.parametrize("pair", [HADAMARD_PAIR, COMPLEX_PAIR])
    def test_matches_direct_stepping(self, pair):
        a, b = pair
        t = 100
        u0 = delta_state(1, 0)
        direct = evolve(u0, ConstantCoin(c0_from_ab(a, b)), t).final
        fourier = spectral_propagate(u0, a, b, t)
        diff = combine([(1.0, fourier), (-1.0, direct)])
        assert lp_norm(diff, np.inf) <= 1e-10

    def test_norm_preserved(self):
        u0 = delta_state(1, 0)
        out = spectral_propagate(u0, R, R, 64)
        assert abs(lp_norm(out, 2.0) - 1.0) <= 1e-12


class TestKonnoDensity:
    def test_central_value(self):
        for r in (0.3, R, 0.9):
            want = np.sqrt(1.0 - r * r) / (np.pi * r)
            assert konno_density(0.0, r) == pytest.approx(want, abs=1e-15)

    def test_vanishes_outside_support(self):
        r = 0.6
        for v in (-1.0, -r, r, 0.77, 1.0):
            assert konno_density(v, r) == 0.0

    def test_symmetric(self):
        half = np.linspace(0.05, 0.55, 100)
        v = np.concatenate([-half[::-1], [0.0], half])
        f = konno_density(v, 0.6)
        assert np.max(np.abs(f - f[::-1])) == 0.0

    @pytest.mark.parametrize("r", [0.3, R, 0.9])
    def test_unit_mass(self, r):
        # Quadrature in the angle variable keeps every node strictly inside
        # the support, where the density formula is smooth.
        nodes, weights = np.polynomial.legendre.leggauss(200)
        phi = nodes * (np.pi / 2.0)
        w = weights * (np.pi / 2.0)
        v = r * np.sin(phi)
        mass = float(np.sum(w * konno_density(v, r) * r * np.cos(phi)))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_modulus(self):
        for r in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                konno_density(0.0, r)


class TestWeakLimitDensity:
    def test_point_mass_has_unit_total(self):
        curve = weak_limit_density(delta_state(1, 0), R, R)
        assert curve.total_mass == pytest.approx(1.0, abs=1e-5)

    def test_total_mass_matches_squared_norm(self):
        u = scaled(delta_state(1, 0), 0.5)
        curve = weak_limit_density(u, R, R)
        assert curve.total_mass == pytest.approx(0.25, abs=1e-5)

    def test_vanishes_outside_coin_support(self):
        grid = np.linspace(-1.0, 1.0, 801)
        curve = weak_limit_density(delta_state(1, 0), R, R, grid)
        outside = np.abs(grid) >= R
        assert np.max(np.abs(curve.density[outside])) == 0.0

    def test_balanced_coin_weight_is_one_minus_v(self):
        grid = np.linspace(-0.69, 0.69, 401)
        curve = weak_limit_density(delta_state(1, 0), R, R, grid)
        want = (1.0 - grid) * konno_density(grid, R)
        assert np.max(np.abs(curve.density - want)) <= 1e-10

    def test_empirical_law_converges(self):
        t = 1500
        u0 = delta_state(1, 0)
        traj = evolve(u0, ConstantCoin(c0_from_ab(R, R)), t)
        grid = np.linspace(-1.0, 1.0, 2001)
        emp = empirical_scaled_cdf(traj.final, t, grid)
        theory = weak_limit_cdf(u0, R, R, grid)
        assert kolmogorov_distance(emp, theory) <= 0.03


def random_state(n_sites, origin, seed=0):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal((n_sites, 2)) + 1j * rng.standard_normal((n_sites, 2))
    return LatticeState(origin, amp / np.linalg.norm(amp))


def packet_state(sigma=24):
    """Gaussian packet like the benchmark's weak-limit input, with a complex
    polarisation and a window starting left of the origin."""
    x = np.arange(-4 * sigma, 4 * sigma + 1)
    env = np.exp(-(x * x) / (4.0 * sigma * sigma))
    env /= np.linalg.norm(env)
    return LatticeState(-4 * sigma, np.column_stack([0.6 * env, 0.8j * env]))


def dense_fourier_values(u, eta):
    """Reference sum_x e^{-i x eta} u(x) through the full phase matrix."""
    return np.exp(-1j * np.outer(eta, u.sites.astype(np.float64))) @ u.amplitudes


def broadcast_fourier_values(u, eta):
    """Frozen copy of the former _fourier_values: Horner's rule on one
    (n, 2) accumulator against a broadcast (n, 1) z."""
    z = np.exp(-1j * eta)[:, None]
    acc = np.zeros((len(eta), 2), dtype=np.complex128)
    for pair in u.amplitudes[::-1]:
        acc *= z
        acc += pair
    return acc * np.exp(-1j * u.origin * eta)[:, None]


def density_and_cdf(u, a, b, grid):
    """weak_limit_density and weak_limit_cdf from an empty integrand cache."""
    spectral._angle_integrand.cache_clear()
    try:
        return weak_limit_density(u, a, b, grid), weak_limit_cdf(u, a, b, grid)
    finally:
        spectral._angle_integrand.cache_clear()


class TestWeakLimitQuadrature:
    @pytest.mark.parametrize(
        "n_sites, origin", [(1, -3), (3, 5), (193, -96), (1000, -500)]
    )
    def test_fourier_values_match_the_direct_sum(self, n_sites, origin):
        u = random_state(n_sites, origin, seed=n_sites)
        eta = np.linspace(-np.pi / 2.0, 3.0 * np.pi / 2.0, 501) - 0.9
        got = spectral._fourier_values(u, eta)
        want = dense_fourier_values(u, eta)
        l1 = np.sum(np.abs(u.amplitudes))
        assert got.shape == (eta.size, 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * l1

    @pytest.mark.parametrize("n_eta", [1, 2048, 2049])
    @pytest.mark.parametrize("n_sites", [1, 193, 1000])
    def test_fourier_values_match_the_former_broadcast_form(self, n_sites, n_eta):
        u = packet_state() if n_sites == 193 else random_state(n_sites, 7, seed=n_sites)
        eta = np.random.default_rng(n_eta).uniform(-np.pi, 2.0 * np.pi, n_eta)
        got = spectral._fourier_values(u, eta)
        want = broadcast_fourier_values(u, eta)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pair", [HADAMARD_PAIR, COMPLEX_PAIR])
    @pytest.mark.parametrize("state", ["packet", "random"])
    def test_density_and_cdf_match_the_dense_reference(self, monkeypatch, pair, state):
        u = packet_state() if state == "packet" else random_state(40, -25)
        grid = np.linspace(-1.0, 1.0, 2001)
        curve, cdf = density_and_cdf(u, *pair, grid)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_fourier_values", dense_fourier_values)
            ref_curve, ref_cdf = density_and_cdf(u, *pair, grid)
        assert np.max(np.abs(curve.density - ref_curve.density)) <= 1e-12
        assert abs(curve.total_mass - ref_curve.total_mass) <= 1e-12
        assert np.max(np.abs(cdf - ref_cdf)) <= 1e-12

    def test_density_and_cdf_share_one_integrand(self):
        u = random_state(5, -2)
        spectral._angle_integrand.cache_clear()
        weak_limit_density(u, R, R)
        weak_limit_cdf(u, R, R, np.linspace(-1.0, 1.0, 11))
        info = spectral._angle_integrand.cache_info()
        spectral._angle_integrand.cache_clear()
        assert (info.misses, info.hits) == (1, 1)

    def test_memory_does_not_grow_with_the_window(self):
        u = random_state(1000, -500)
        grid = np.linspace(-1.0, 1.0, 2001)
        tracemalloc.start()
        try:
            density_and_cdf(u, *COMPLEX_PAIR, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("grid_points", [2001, 20001])
    @pytest.mark.parametrize("n_sites", [1, 33, 193])
    def test_blocks_change_no_bit(self, monkeypatch, n_sites, grid_points):
        u = {
            1: LatticeState(-3, np.array([[0.6, 0.8j]])),
            33: random_state(33, -20, seed=33),
            193: packet_state(),
        }[n_sites]
        grid = np.linspace(-1.0, 1.0, grid_points)
        runs = []
        # Seven points per block against one block for the whole grid, which
        # is above numpy's 256 KiB temporary-elision threshold.
        for block in (7, 10**9):
            monkeypatch.setattr(spectral, "_BLOCK", block)
            curve, cdf = density_and_cdf(u, *COMPLEX_PAIR, grid)
            runs.append(
                (
                    curve.density.tobytes(),
                    np.float64(curve.total_mass).tobytes(),
                    cdf.tobytes(),
                )
            )
        assert runs[0] == runs[1]

    def test_memory_does_not_grow_with_the_grid(self):
        u = packet_state()
        grid = np.linspace(-1.0, 1.0, 20001)
        tracemalloc.start()
        try:
            density_and_cdf(u, *COMPLEX_PAIR, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 2 MB in blocks; the whole grid at once peaks near 13 MB.
        assert peak < 4 * 2**20


class TestEmpiricalScaledCdf:
    def test_one_step_split(self):
        a, b = 0.6, 0.8
        u1 = evolve(delta_state(1, 0), ConstantCoin(c0_from_ab(a, b)), 1).final
        grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        cdf = empirical_scaled_cdf(u1, 1, grid)
        want = np.array([a * a, a * a, a * a, a * a, 1.0])
        assert np.max(np.abs(cdf - want)) <= 1e-14

    def test_monotone_up_to_total_mass(self):
        traj = evolve(delta_state(1, 0), ConstantCoin(c0_from_ab(R, R)), 64)
        grid = np.linspace(-1.2, 1.2, 301)
        cdf = empirical_scaled_cdf(traj.final, 64, grid)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] == 0.0
        total = finding_probability(traj.final).total_mass()
        assert cdf[-1] == pytest.approx(total, abs=1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            empirical_scaled_cdf(delta_state(1, 0), 0, np.array([0.0]))


class TestDecayFit:
    def test_exact_power_law(self):
        ts = np.arange(1, 2000, dtype=np.float64)
        fit = decay_fit(ts, 2.7 * ts ** (-1.0 / 3.0), 10, 1500)
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log10(2.7), abs=1e-12)
        assert fit.residual_rms <= 1e-12

    def test_linear_walk_sup_norm_slope(self):
        traj = evolve(
            delta_state(1, 0),
            ConstantCoin(c0_from_ab(R, R)),
            3000,
            Recorder(sup_norm=True),
        )
        ts = np.arange(3001, dtype=np.float64)
        fit = decay_fit(ts, traj.series["sup_norm"], 300, 3000)
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=0.05)

    def test_rejects_nonpositive_values(self):
        ts = np.arange(1, 100, dtype=np.float64)
        values = np.ones_like(ts)
        values[50] = 0.0
        with pytest.raises(ValueError):
            decay_fit(ts, values, 1, 99)

    def test_rejects_underfilled_window(self):
        ts = np.arange(1, 100, dtype=np.float64)
        with pytest.raises(ValueError):
            decay_fit(ts, np.ones_like(ts), 200, 300)

    def test_json_form_headers(self):
        ts = np.arange(1, 50, dtype=np.float64)
        fit = decay_fit(ts, ts ** (-0.5), 1, 49)
        assert set(fit.to_json()) == {"slope", "intercept", "t_min", "t_max"}


class TestWeakL4DecayCheck:
    def test_starts_at_one(self):
        series = weak_l4_decay_check(R, R, 32)
        assert series[0] == 1.0

    def test_running_max_levels_off(self):
        series = weak_l4_decay_check(R, R, 2000)
        assert np.all(np.diff(series) >= 0)
        assert series[-1] <= series[200] * 1.05


class TestStrichartzRatio:
    def test_at_least_the_sup_part(self):
        assert strichartz_ratio(delta_state(1, 0), R, R, 200) >= 1.0

    def test_stable_in_the_horizon(self):
        u0 = delta_state(1, 0)
        early = strichartz_ratio(u0, R, R, 300)
        late = strichartz_ratio(u0, R, R, 600)
        assert late - early <= 0.01

    def test_rejects_zero_state(self):
        zero = LatticeState(0, np.zeros((1, 2), dtype=np.complex128))
        with pytest.raises(ValueError):
            strichartz_ratio(zero, R, R, 10)
