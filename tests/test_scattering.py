"""Series diagnostics, wave operator, and derivative recovery probes."""

import numpy as np
import pytest

import nlqw.scattering as scattering
from nlqw import (
    ComposedCoin,
    ConstantCoin,
    GaltonCoin,
    NonConvergenceError,
    Recorder,
    QuinticExponentialCoin,
    RotationPowerCoin,
    c0_from_ab,
    combine,
    delta_state,
    dlambda,
    evolve,
    LatticeState,
    inner_product,
    l2_distance,
    l5_decay_check,
    linear_step,
    linear_step_inverse,
    lp_norm,
    nonlinear_residual,
    recover_derivatives,
    recovery_ladder,
    recovery_probe,
    rotation,
    scaled,
    scattering_series,
    wave_operator,
)
from nlqw.coins import coin_kernel
from nlqw.evolution import walk

R = 1.0 / np.sqrt(2.0)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

C0 = c0_from_ab(R, R)
QUINTIC = ComposedCoin(C0, QuinticExponentialCoin(0.3 * SIGMA_X, 0.2 * SIGMA_Z))
ZERO_QUINTIC = ComposedCoin(
    C0, QuinticExponentialCoin(np.zeros((2, 2)), np.zeros((2, 2)))
)


def probe_seed(lam: float):
    return combine(
        [(lam**2, delta_state(1, 0)), (lam**3, delta_state(2, 0))]
    )


class TestTrivialSeries:
    def test_constant_coin_residual_is_the_zero_state(self):
        u0 = scaled(delta_state(1, 0), 0.4)
        res = nonlinear_residual(u0, ConstantCoin(C0), C0, t_max=96)
        assert lp_norm(res, 2.0) == 0.0

    def test_zero_generators_leave_the_profile_unchanged(self):
        u0 = combine([(0.3, delta_state(1, 0)), (0.2j, delta_state(2, 1))])
        out = wave_operator(u0, ZERO_QUINTIC, C0, tol=1e-7, t_max=256)
        assert l2_distance(out, u0) == 0.0

    def test_constant_coin_report_is_all_zero(self):
        u0 = scaled(delta_state(1, 0), 0.4)
        report = scattering_series(u0, ConstantCoin(C0), C0, 128)
        assert np.max(report.tail_norms) == 0.0
        assert np.max(report.defect_series) == 0.0
        assert report.converged
        assert l2_distance(report.u_plus, u0) == 0.0


class TestSeriesScaling:
    def test_residual_scales_like_the_tenth_power(self):
        lams = np.array([0.2, 0.1, 0.05])
        norms = []
        for lam in lams:
            res = nonlinear_residual(probe_seed(lam), QUINTIC, C0, t_max=768)
            norms.append(lp_norm(res, 2.0))
        slope = np.polyfit(np.log10(lams), np.log10(norms), 1)[0]
        assert slope == pytest.approx(10.0, abs=0.5)

    def test_profile_is_seed_plus_residual_bitwise(self):
        u0 = probe_seed(0.3)
        res = nonlinear_residual(u0, QUINTIC, C0, t_max=256)
        out = wave_operator(u0, QUINTIC, C0, tol=0.0, t_max=256)
        rebuilt = combine([(1.0, u0), (1.0, res)])
        assert out.origin == rebuilt.origin
        assert np.array_equal(out.amplitudes, rebuilt.amplitudes)

    def test_coupling_rescale_consistency(self):
        # Runs at coupling g and at unit coupling from amplitude-rescaled
        # data produce the same series after scaling back.
        g, p = 0.3, 2
        spec_g = RotationPowerCoin(np.pi / 4.0, g, p)
        spec_1 = RotationPowerCoin(np.pi / 4.0, 1.0, p)
        c0 = rotation(np.pi / 4.0)
        u0 = scaled(delta_state(1, 0), 0.2)
        c = g ** (1.0 / (2 * p))
        rep_g = scattering_series(u0, spec_g, c0, 256)
        rep_1 = scattering_series(scaled(u0, c), spec_1, c0, 256)
        back = scaled(rep_1.u_plus, 1.0 / c)
        assert l2_distance(rep_g.u_plus, back) <= 1e-10
        assert np.max(np.abs(rep_g.tail_norms - rep_1.tail_norms / c)) <= 1e-10


@pytest.fixture(scope="module")
def small_data_report():
    u0 = scaled(delta_state(1, 0), 0.1)
    return scattering_series(u0, QUINTIC, C0, 1024, defect_times=(100, 1000))


class TestScatteringReport:
    def test_tails_decay(self, small_data_report):
        tails = small_data_report.tail_norms
        assert np.max(tails[512:]) < np.max(tails[:64])

    def test_defect_shrinks_by_decade(self, small_data_report):
        d = dict(
            zip(
                small_data_report.defect_times.tolist(),
                small_data_report.defect_series.tolist(),
            )
        )
        assert d[1000] < d[100]

    def test_converged_at_calibrated_tolerance(self, small_data_report):
        assert small_data_report.tolerance == 1e-5
        assert small_data_report.converged

    def test_rejects_defect_times_outside_horizon(self):
        u0 = scaled(delta_state(1, 0), 0.1)
        with pytest.raises(ValueError):
            scattering_series(u0, QUINTIC, C0, 64, defect_times=(100,))

    def test_rejects_mismatched_linear_part(self):
        u0 = scaled(delta_state(1, 0), 0.1)
        with pytest.raises(ValueError):
            scattering_series(u0, QUINTIC, rotation(0.3), 64)


class TestStoppingRule:
    def test_early_stop_when_tail_block_is_quiet(self):
        u0 = scaled(delta_state(1, 0), 0.1)
        out = wave_operator(u0, QUINTIC, C0, tol=1e-3, t_max=4096)
        assert lp_norm(out, 2.0) > 0

    def test_raises_when_tolerance_is_unreachable(self):
        u0 = scaled(delta_state(1, 0), 0.1)
        with pytest.raises(NonConvergenceError):
            wave_operator(u0, QUINTIC, C0, tol=1e-13, t_max=128)


class TestL5DecayCheck:
    def test_initial_value_is_dominated_by_l1(self):
        u0 = combine([(0.05, delta_state(1, 0)), (0.05, delta_state(2, 3))])
        series = l5_decay_check(u0, QUINTIC, 32)
        assert series[0] <= lp_norm(u0, 1.0)

    def test_normalized_series_stays_bounded(self):
        u0 = scaled(delta_state(1, 0), 0.1)
        spec = RotationPowerCoin(np.pi / 4.0, 0.5, 2)
        series = l5_decay_check(u0, spec, 2000)
        assert np.max(series[1000:]) <= np.max(series[:1000]) * 1.05


class TestDLambda:
    def test_annihilates_constants(self):
        assert dlambda(lambda lam: 4.2, 0.3) == 0.0

    def test_extracts_the_linear_coefficient(self):
        assert dlambda(lambda lam: lam, 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_probe(self):
        for lam in (0.05, 0.2, 0.7):
            got = dlambda(lambda x: x * x, lam)
            assert got == pytest.approx(3.0 * lam, abs=1e-12)

    def test_polynomial_probe(self):
        c0, c1, c2 = 1.3, -0.7, 2.1
        lam = 0.11
        got = dlambda(lambda x: c0 + c1 * x + c2 * x * x, lam)
        assert got == pytest.approx(c1 + 3.0 * c2 * lam, abs=1e-12)

    def test_vector_valued_functions(self):
        got = dlambda(lambda x: np.array([x, x * x]), 0.2)
        assert np.allclose(got, [1.0, 0.6], atol=1e-12)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            dlambda(lambda x: x, 0.0)


class TestRecoveryProbe:
    def test_zero_nonlinearity_probes_to_zero(self):
        got = recovery_probe(ZERO_QUINTIC, C0, 0.2, 1, 1, t_max=128)
        assert got == 0.0

    def test_small_lambda_asymptotics(self):
        # L_{1j} approaches column 1 of i A1 with a lambda-linear correction
        # from column 2.
        lam = 0.1
        l11 = recovery_probe(QUINTIC, C0, lam, 1, 1, t_max=1024)
        l12 = recovery_probe(QUINTIC, C0, lam, 1, 2, t_max=1024)
        assert abs(l11 - lam * 0.3j) <= 5e-3
        assert abs(l12 - 0.3j) <= 5e-3

    def test_matches_the_cancellation_prone_evaluation(self):
        lam = 0.2
        t_max = 512
        w0 = probe_seed(lam)
        plain = wave_operator(w0, QUINTIC, C0, tol=0.0, t_max=t_max)
        shifted = wave_operator(
            linear_step(w0, C0), QUINTIC, C0, tol=0.0, t_max=t_max
        )
        back = linear_step_inverse(shifted, C0)
        for j in (1, 2):
            d = delta_state(j, 0)
            naive = lam**-10 * (
                inner_product(plain, d) - inner_product(back, d)
            )
            fast = recovery_probe(QUINTIC, C0, lam, 1, j, t_max=t_max)
            assert abs(naive - fast) <= 1e-6 * abs(fast)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            recovery_probe(QUINTIC, C0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            recovery_probe(QUINTIC, C0, 0.9, 1, 1)
        with pytest.raises(ValueError):
            recovery_probe(QUINTIC, C0, 0.2, 3, 1)
        with pytest.raises(ValueError):
            recovery_probe(GaltonCoin(0.5), C0, 0.2, 1, 1)

    def test_rejects_mismatched_linear_part(self):
        with pytest.raises(ValueError):
            recovery_probe(QUINTIC, rotation(0.3), 0.2, 1, 1, t_max=64)


class TestRecoverDerivatives:
    def test_zero_nonlinearity_recovers_exact_zeros(self):
        res = recover_derivatives(ZERO_QUINTIC, C0, 0.2, t_max=128)
        assert np.array_equal(res.m1, np.zeros((2, 2)))
        assert np.array_equal(res.m2, np.zeros((2, 2)))
        assert res.error1 == 0.0
        assert res.error2 == 0.0

    def test_single_rung_lands_near_the_truth(self):
        res = recover_derivatives(QUINTIC, C0, 0.2, t_max=512)
        assert res.error <= 0.05
        assert np.max(np.abs(res.m1 - 0.3j * SIGMA_X)) <= 0.05
        assert np.max(np.abs(res.m2 - 0.2j * SIGMA_Z)) <= 0.05

    def test_rejects_lambda_whose_double_leaves_the_domain(self):
        with pytest.raises(ValueError):
            recover_derivatives(QUINTIC, C0, 0.5)


class TestRecoveryLadder:
    def test_zero_nonlinearity_reports_infinite_order(self):
        report = recovery_ladder(
            ZERO_QUINTIC, C0, lams=(0.2, 0.1), t_max=128
        )
        assert np.array_equal(report.errors, [0.0, 0.0])
        assert report.fitted_order == np.inf
        assert report.fit_residual_rms == 0.0

    def test_two_rung_ratio_is_cubic(self):
        report = recovery_ladder(QUINTIC, C0, lams=(0.2, 0.1), t_max=512)
        ratio = report.errors[0] / report.errors[1]
        assert 4.0 <= ratio <= 16.0
        assert 2.5 <= report.fitted_order <= 3.5

    def test_rejects_degenerate_ladders(self):
        with pytest.raises(ValueError):
            recovery_ladder(QUINTIC, C0, lams=(0.2,))
        with pytest.raises(ValueError):
            recovery_ladder(QUINTIC, C0, lams=(0.2, -0.1))

    @pytest.mark.parametrize("lams", [(0.2, 0.2), (0.2, 0.1, 0.2)])
    def test_rejects_repeated_rungs_before_any_walk(self, lams, monkeypatch):
        def no_probes(*args, **kwargs):
            raise AssertionError("a probe walk ran")

        monkeypatch.setattr(scattering, "_rung_probes", no_probes)
        with pytest.raises(ValueError, match="rungs must be distinct"):
            recovery_ladder(QUINTIC, C0, lams=lams)


def lockstep_seeds(runs: int, sites: int):
    """Distinct small seeds on a shared window around site 0: one-site
    seeds, their three-site images U0 w0, or random windows of `sites`."""
    rng = np.random.default_rng(runs)
    seeds = []
    for _ in range(runs):
        n = 1 if sites == 3 else sites
        amp = 0.3 * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
        w0 = LatticeState(-(n // 2), amp)
        seeds.append(linear_step(w0, C0) if sites == 3 else w0)
    return seeds


def pairing_run(seeds, t_max: int, k: int) -> np.ndarray:
    observer = scattering._Pairings(C0, k)
    return walk(seeds, coin_kernel(QUINTIC), t_max, observer)[0]


def window_sum(n0: int, steps: int) -> int:
    return steps * n0 + steps * (steps - 1)


class TestLoneRunSeries:
    @pytest.mark.parametrize(
        "sites, t_max",
        # the widest window passes numpy's 16384-element temporary elision
        [(1, 37), (3, 37), (21, 96), (16401, 5)],
    )
    def test_residual_telescopes_to_the_rotated_back_state(self, sites, t_max):
        # the terms U0^{-t} d_t telescope to U0^{-T} U(T) u0 - u0, which the
        # series never forms as a difference; agree to the rounding of the
        # T forward and T inverse steps of that reference (4 T eps)
        u0 = lockstep_seeds(1, sites)[0]
        res = nonlinear_residual(u0, QUINTIC, C0, t_max=t_max)
        back = evolve(u0, QUINTIC, t_max, Recorder(snapshot_times=(t_max,)))
        v = back.snapshots[t_max]
        for _ in range(t_max):
            v = linear_step_inverse(v, C0)
        want = combine([(1.0, v), (-1.0, u0)])
        assert l2_distance(res, want) <= 4 * t_max * 2.0**-52 * lp_norm(u0, 2.0)

    def test_tail_norms_are_the_one_step_defects(self):
        # tail_norms[t] = ||d_t|| = ||U(t+1) u0 - U0 U(t) u0||, to a few eps
        u0 = lockstep_seeds(1, 21)[0]
        report = scattering_series(u0, QUINTIC, C0, 40, defect_times=())
        times = tuple(range(41))
        states = evolve(u0, QUINTIC, 40, Recorder(snapshot_times=times)).snapshots
        want = [l2_distance(states[t + 1], linear_step(states[t], C0)) for t in range(40)]
        assert report.tail_norms.shape == (40,)
        bound = 4 * 2.0**-52 * lp_norm(u0, 2.0)
        assert np.max(np.abs(report.tail_norms - np.asarray(want))) <= bound


class TestLockstepBatches:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("sites", [1, 3])
    @pytest.mark.parametrize("runs", [1, 3, 8])
    def test_each_pairing_matches_its_lone_run_bitwise(self, runs, sites, k):
        seeds = lockstep_seeds(runs, sites)
        batch = pairing_run(seeds, 37, k)
        for r, seed in enumerate(seeds):
            alone = pairing_run([seed], 37, k)
            assert batch[:, r].tobytes() == alone[:, 0].tobytes()

    def test_wide_windows_match_lone_runs_bitwise(self):
        # 8 runs of 2101-site windows make 16808-site kernel and pairing
        # arrays, past numpy's 16384-element temporary elision; a lone
        # run stays below it
        seeds = lockstep_seeds(8, 2101)
        pairings = pairing_run(seeds, 5, 1)
        for r, seed in enumerate(seeds):
            assert pairings[:, r].tobytes() == pairing_run([seed], 5, 1)[:, 0].tobytes()

    def test_chunked_batches_match_lone_runs(self, monkeypatch):
        seeds = lockstep_seeds(8, 3)
        # room for three runs per chunk: chunks of 3, 3 and 2
        monkeypatch.setattr(scattering, "_BATCH_SITES", 3 * (3 + 2 * 21))
        got = scattering._lockstep_pairings(seeds, QUINTIC, C0, 21, 1)
        assert got.shape == (2, 8)
        for r, seed in enumerate(seeds):
            assert got[:, r].tobytes() == pairing_run([seed], 21, 1)[:, 0].tobytes()

    def test_pairing_equals_the_full_state_pairing(self):
        # <N, U0^k delta_{j,0}> from the pairing observer against the
        # residual N built in full, to the rounding of 40 terms (40 eps)
        seeds = lockstep_seeds(3, 3)
        for k in (0, 1, 2):
            got = pairing_run(seeds, 40, k)
            for r, seed in enumerate(seeds):
                res = nonlinear_residual(seed, QUINTIC, C0, t_max=40)
                for j in (1, 2):
                    phi = delta_state(j, 0)
                    for _ in range(k):
                        phi = linear_step(phi, C0)
                    want = inner_product(res, phi)
                    assert abs(got[j - 1, r] - want) <= 40 * 2.0**-52 * lp_norm(res, 2.0)

    def test_rejects_seeds_on_different_windows(self):
        seeds = [lockstep_seeds(1, 1)[0], lockstep_seeds(1, 3)[0]]
        with pytest.raises(ValueError, match="share origin and window length"):
            pairing_run(seeds, 8, 0)

    def test_pairing_rejects_seeds_off_site_zero(self):
        # far enough right that the linear walk from site 0 would start
        # outside the buffers
        seed = LatticeState(5, np.array([[0.1, 0.2j]]))
        with pytest.raises(ValueError, match="site 0"):
            pairing_run([seed], 3, 0)

    def test_ladder_probes_match_single_probes_bitwise(self):
        report = recovery_ladder(QUINTIC, C0, lams=(0.2, 0.1), t_max=48)
        for res in report.results:
            rungs = ((res.lam, res.probes_lam), (2.0 * res.lam, res.probes_2lam))
            for lam, probes in rungs:
                single = np.array(
                    [
                        [
                            recovery_probe(QUINTIC, C0, lam, row, j, 48)
                            for j in (1, 2)
                        ]
                        for row in (1, 2)
                    ]
                )
                assert probes.tobytes() == single.tobytes()

    def test_ladder_hands_the_kernel_only_live_windows(self, monkeypatch):
        sites = []
        real = scattering.coin_kernel

        def counting_kernel(spec):
            kern = real(spec)

            def counted(u1, u2):
                sites.append(len(u1))
                return kern(u1, u2)

            return counted

        monkeypatch.setattr(scattering, "coin_kernel", counting_kernel)
        t_max = 33
        recovery_ladder(QUINTIC, C0, lams=(0.2, 0.1), t_max=t_max)
        # lambdas 0.2, 0.1 and 0.4, two rows each: six runs per seed window
        assert sum(sites) == 6 * (window_sum(1, t_max) + window_sum(3, t_max))
        # one kernel call per step for each seed window's batch
        assert len(sites) == 2 * t_max


def full_state_pair(lam: float, row: int, t_max: int):
    """Both probes of one (lambda, row) from whole residual states, as
    lambda^{-10} <N(w0) - U0^{-1} N(U0 w0), delta_{j,0}>."""
    w0 = scattering._probe_w0(lam, row)
    n_base, n_shift = (
        nonlinear_residual(u0, QUINTIC, C0, t_max=t_max)
        for u0 in (w0, linear_step(w0, C0))
    )
    diff = combine([(1.0, n_base), (-1.0, linear_step_inverse(n_shift, C0))])
    return np.array([lam**-10 * inner_product(diff, delta_state(j, 0)) for j in (1, 2)])


def extended_pair(lam: float, row: int, t_max: int) -> np.ndarray:
    """The probes of one (lambda, row) from lone series
    summed plainly in np.clongdouble on a fixed window, with the float64
    coin entries, generators and seed taken as exact.  U0^{-1} uses the
    exact inverse of C0: the rounded C0 has C0^H C0 = (1 - 2.2e-16) I, so
    its adjoint would put a bias of order t_max * 1e-16 into the reference."""
    ld = np.clongdouble
    half = 2 * t_max + 4
    c0 = C0.astype(ld)
    det = c0[0, 0] * c0[1, 1] - c0[0, 1] * c0[1, 0]
    ch = np.array([[c0[1, 1], -c0[0, 1]], [-c0[1, 0], c0[0, 0]]]) / det
    a1, a2 = (g.astype(ld) for g in (0.3 * SIGMA_X, 0.2 * SIGMA_Z))

    def coin(m, z1, z2):
        return m[0, 0] * z1 + m[0, 1] * z2, m[1, 0] * z1 + m[1, 1] * z2

    def forward(z1, z2):  # U0 = S C0
        b1, b2 = coin(c0, z1, z2)
        return np.concatenate([b1[1:], [0]]), np.concatenate([[0], b2[:-1]])

    def backward(z1, z2):  # U0^{-1} = C0^{-1} S^{-1}
        return coin(ch, np.concatenate([[0], z1[:-1]]), np.concatenate([z2[1:], [0]]))

    def factor(z1, z2):  # exp(i (s1^2 A1 + s2^2 A2)) applied pointwise
        r1 = (z1.real**2 + z1.imag**2) ** 2
        r2 = (z2.real**2 + z2.imag**2) ** 2
        h = [[r1 * a1[p, q] + r2 * a2[p, q] for q in (0, 1)] for p in (0, 1)]
        c = (h[0][0] + h[1][1]).real / 2
        w = (h[0][0] - h[1][1]).real / 2
        beta = h[0][1]
        rho = np.hypot(w, np.abs(beta))
        sinc = np.where(rho > 0, np.sin(rho) / np.where(rho > 0, rho, 1), 1)
        phase = np.exp(1j * c.astype(ld))
        v1 = phase * (np.cos(rho) * z1 + 1j * sinc * (w * z1 + beta * z2))
        v2 = phase * (np.cos(rho) * z2 + 1j * sinc * (np.conj(beta) * z1 - w * z2))
        return v1, v2

    def residual(z1, z2):  # N = sum_t U0^{-t} (F - I) u_t
        g1 = np.zeros_like(z1)
        g2 = np.zeros_like(z2)
        for _ in range(t_max):
            v1, v2 = factor(z1, z2)
            g1, g2 = forward(g1 + (v1 - z1), g2 + (v2 - z2))
            z1, z2 = forward(v1, v2)
        for _ in range(t_max):
            g1, g2 = backward(g1, g2)
        return g1, g2

    w0 = scattering._probe_w0(lam, row)
    z1 = np.zeros(2 * half + 1, dtype=ld)
    z2 = np.zeros(2 * half + 1, dtype=ld)
    z1[half], z2[half] = (ld(x) for x in w0.amplitudes[0])
    base = residual(z1, z2)
    shift = backward(*residual(*forward(z1, z2)))
    return np.array(
        [(base[j][half] - shift[j][half]) / ld(lam) ** 10 for j in (0, 1)]
    )


class TestPairingAccuracy:
    def test_both_paths_match_an_extended_precision_series(self):
        # the largest probe amplitude, where the float64 kernel's own
        # rounding (relative eps / lambda^8 in each term) stays below 1e-15
        lam, row, t_max = 0.8, 1, 128
        ref = extended_pair(lam, row, t_max)
        scale = float(np.max(np.abs(ref)))
        pairing = np.array(
            [recovery_probe(QUINTIC, C0, lam, row, j, t_max) for j in (1, 2)]
        )
        full = full_state_pair(lam, row, t_max)
        for got in (pairing, full):
            assert np.max(np.abs(got.astype(np.clongdouble) - ref)) <= 1e-13 * scale
