"""Series diagnostics, wave operator, and derivative recovery probes."""

import numpy as np
import pytest

import nlqw.scattering as scattering
from nlqw import (
    ComposedCoin,
    ConstantCoin,
    GaltonCoin,
    NonConvergenceError,
    QuinticExponentialCoin,
    RotationPowerCoin,
    c0_from_ab,
    combine,
    delta_state,
    dlambda,
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

    def test_proof_indexing_shifts_the_series_by_one_inverse_step(self):
        u0 = probe_seed(0.3)
        theorem = nonlinear_residual(u0, QUINTIC, C0, t_max=256)
        proof = nonlinear_residual(
            u0, QUINTIC, C0, t_max=256, exponent_variant="proof"
        )
        shifted = linear_step_inverse(theorem, C0)
        assert l2_distance(proof, shifted) == 0.0

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            nonlinear_residual(
                probe_seed(0.2), QUINTIC, C0, t_max=64, exponent_variant="both"
            )


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


def lockstep_seeds(runs: int, sites: int):
    """Distinct small seeds on a shared window: one-site seeds, or their
    three-site images U0 w0."""
    rng = np.random.default_rng(runs)
    seeds = []
    for _ in range(runs):
        amp = 0.3 * (rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)))
        w0 = LatticeState(0, amp)
        seeds.append(w0 if sites == 1 else linear_step(w0, C0))
    return seeds


def window_sum(n0: int, steps: int) -> int:
    return steps * n0 + steps * (steps - 1)


class TestLockstepBatches:
    @pytest.mark.parametrize("sites", [1, 3])
    @pytest.mark.parametrize("runs", [1, 3, 8])
    def test_each_run_matches_its_lone_run_bitwise(self, runs, sites):
        seeds = lockstep_seeds(runs, sites)
        batch = scattering._series_run(seeds, QUINTIC, C0, 37, 0.0)
        for seed, got in zip(seeds, batch):
            (alone,) = scattering._series_run([seed], QUINTIC, C0, 37, 0.0)
            assert got.residual.origin == alone.residual.origin
            amp = got.residual.amplitudes
            assert amp.tobytes() == alone.residual.amplitudes.tobytes()
            assert got.tail_norms.tobytes() == alone.tail_norms.tobytes()

    def test_chunked_batches_match_lone_runs(self, monkeypatch):
        seeds = lockstep_seeds(8, 3)
        # room for three runs per chunk: chunks of 3, 3 and 2
        monkeypatch.setattr(scattering, "_BATCH_SITES", 3 * (3 + 2 * 21))
        got = scattering._lockstep_residuals(seeds, QUINTIC, C0, 21)
        for seed, res in zip(seeds, got):
            alone = nonlinear_residual(seed, QUINTIC, C0, t_max=21)
            assert res.origin == alone.origin
            assert res.amplitudes.tobytes() == alone.amplitudes.tobytes()

    def test_rejects_seeds_on_different_windows(self):
        seeds = [lockstep_seeds(1, 1)[0], lockstep_seeds(1, 3)[0]]
        with pytest.raises(ValueError):
            scattering._series_run(seeds, QUINTIC, C0, 8, 0.0)

    @pytest.mark.parametrize("variant", ["theorem", "proof"])
    def test_ladder_probes_match_single_probes_bitwise(self, variant):
        report = recovery_ladder(
            QUINTIC, C0, lams=(0.2, 0.1), t_max=48, exponent_variant=variant
        )
        for res in report.results:
            rungs = ((res.lam, res.probes_lam), (2.0 * res.lam, res.probes_2lam))
            for lam, probes in rungs:
                single = np.array(
                    [
                        [
                            recovery_probe(QUINTIC, C0, lam, row, j, 48, variant)
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
