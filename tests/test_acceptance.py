"""Acceptance gate: ten numbered criteria, one printed line each.

Each test prints a [PASS]/[FAIL] line on the real stdout so the verdicts
survive pytest's capture, then asserts. Each line ends with the criterion's
wall time; every criterion makes its own runs, so the time is all its own.
"""

import time

import numpy as np
import pytest

from nlqw import (
    ComposedCoin,
    ConstantCoin,
    GaltonCoin,
    GrossNeveuCoin,
    LatticeState,
    QuinticExponentialCoin,
    Recorder,
    RotationPowerCoin,
    ThirringCoin,
    c0_from_ab,
    combine,
    decay_fit,
    delta_state,
    empirical_scaled_cdf,
    evaluate_coin,
    evolve,
    g_scaling_check,
    instability_trace,
    kolmogorov_distance,
    l2_distance,
    lp_norm,
    nonlinear_residual,
    oscillatory_integral,
    recovery_ladder,
    scaled,
    scattering_series,
    soliton_amplitude,
    spectral_propagate,
    weak_l4_decay_check,
    weak_limit_cdf,
    weak_limit_density,
)

R = 1.0 / np.sqrt(2.0)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
C0 = c0_from_ab(R, R)

TABLE1_MEASURED = {
    (1, 0.8): 0.990865,
    (1, -0.8): 0.990911,
    (1, 1.0): 0.886256,
    (1, -1.0): 0.886299,
    (2, 0.8): 0.995414,
    (2, -0.8): 0.995425,
    (2, 1.0): 0.111958,
    (2, -1.0): 0.941415,
}


@pytest.fixture
def report(capsys):
    """Prints a criterion's verdict line, ending with its wall time since the
    fixture was set up."""
    t0 = time.perf_counter()

    def _report(name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"\n[{verdict}] {name}: {detail} [{elapsed:.1f} s]", flush=True)

    return _report


def _sup_series(spec, steps, site=0):
    traj = evolve(delta_state(1, site), spec, steps, Recorder(sup_norm=True))
    return traj.series["sup_norm"]


def test_criterion_01_table1_reproduction(report):
    steps = 10000
    worst = 0.0
    slowest = 0.0
    failures = []
    for (p, g), expected in TABLE1_MEASURED.items():
        t0 = time.perf_counter()
        spec = RotationPowerCoin(np.pi / 4.0, g, p)
        measured = float(lp_norm(evolve(delta_state(1, 0), spec, steps).final, np.inf))
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        tol = 1e-3 if (p, g) == (2, 1.0) else 5e-4
        err = abs(measured - expected)
        worst = max(worst, err)
        if err > tol or elapsed > 30.0:
            failures.append((p, g, measured, err, elapsed))
    ok = not failures
    report(
        "criterion 1 (edge-amplitude table)",
        ok,
        f"worst |measured-reference| {worst:.2e}, slowest cell {slowest:.1f}s"
        + (f", failures {failures}" if failures else ""),
    )
    assert ok


def test_criterion_02_dispersive_decay(report):
    ts = np.arange(10001)
    fit = decay_fit(ts, _sup_series(ConstantCoin(C0), 10000), 1000, 10000)
    slope_ok = abs(fit.slope + 1.0 / 3.0) <= 0.03
    wl4 = weak_l4_decay_check(R, R, 10000)
    growth = wl4[10000] / wl4[1000]
    growth_ok = growth <= 1.05
    ok = slope_ok and growth_ok
    report(
        "criterion 2 (dispersive decay)",
        ok,
        f"sup-norm slope {fit.slope:.4f} (want -1/3 +- 0.03), "
        f"scaled weak-l4 max growth x{growth:.4f} (want <= 1.05)",
    )
    assert ok


def test_criterion_03_weak_coupling_decay_fits(report):
    ts = np.arange(10001)
    window = (ts >= 1000) & (ts <= 10000)
    log_t = np.log10(ts[window])
    results = []
    ok = True
    for p, target in ((1, 0.16), (2, 0.23)):
        for g in (0.2, 0.4):
            sup = _sup_series(RotationPowerCoin(np.pi / 4.0, g, p), 10000)
            fit = decay_fit(ts, sup, 1000, 10000)
            # Intercept of the reference line with slope pinned to -1/3,
            # matching how the comparison line is drawn.
            intercept = float(np.mean(np.log10(sup[window]) + log_t / 3.0))
            good = abs(fit.slope + 1.0 / 3.0) <= 0.05 and abs(intercept - target) <= 0.05
            ok = ok and good
            results.append(f"p={p},g={g}: slope {fit.slope:.3f}, intercept {intercept:.3f}")
    report(
        "criterion 3 (weak-coupling log-log fits)",
        ok,
        "; ".join(results) + " (want slope -1/3 +- 0.05, intercepts 0.16/0.23 +- 0.05)",
    )
    assert ok


def test_criterion_04_exact_solutions(report):
    g, p = -0.8, 2
    spec = RotationPowerCoin(np.pi / 4.0, g, p)
    a = soliton_amplitude(g, p)
    final = evolve(scaled(delta_state(1, 0), a), spec, 1000).final
    expected = scaled(delta_state(1, -1000), a)
    soliton_err = lp_norm(combine([(1.0, final), (-1.0, expected)]), np.inf)

    spec4 = RotationPowerCoin(np.pi / 4.0, 0.8, 2)
    a4 = soliton_amplitude(0.8, 2)
    u0 = scaled(delta_state(1, 0), a4)
    period_err = l2_distance(evolve(u0, spec4, 400).final, u0)

    trace = instability_trace(0.1, spec, 1000)
    unstable_ok = bool(np.all(np.diff(trace) < 0)) and trace[-1] < 1e-6

    ok = soliton_err <= 1e-12 and period_err <= 1e-10 and unstable_ok
    report(
        "criterion 4 (exact solutions)",
        ok,
        f"soliton entrywise error {soliton_err:.2e} (<=1e-12), "
        f"period-4 return {period_err:.2e} (<=1e-10), "
        f"perturbed edge final {trace[-1]:.2e} (<1e-6, strictly decreasing: "
        f"{bool(np.all(np.diff(trace) < 0))})",
    )
    assert ok


def test_criterion_05_oracle_equivalence(report):
    spec = ConstantCoin(C0)
    u0 = combine([(0.8, delta_state(1, 0)), (0.6j, delta_state(2, 2))])
    direct = evolve(u0, spec, 100).final
    fourier = spectral_propagate(u0, R, R, 100)
    prop_err = lp_norm(combine([(1.0, fourier), (-1.0, direct)]), np.inf)

    t = 50
    direct50 = evolve(delta_state(1, 0), spec, t).final
    e1 = np.array([1.0, 0.0], dtype=np.complex128)
    amps = []
    for x in range(-t, t + 1):
        m = oscillatory_integral(t, x / t, 1, R, R, 4096)
        m = m + oscillatory_integral(t, x / t, -1, R, R, 4096)
        amps.append(m @ e1)
    rebuilt = LatticeState(-t, np.asarray(amps))
    rec_err = lp_norm(combine([(1.0, rebuilt), (-1.0, direct50)]), np.inf)

    ok = prop_err <= 1e-10 and rec_err <= 1e-8
    report(
        "criterion 5 (oracle equivalence)",
        ok,
        f"fourier stepping error {prop_err:.2e} (<=1e-10), "
        f"kernel reconstruction error {rec_err:.2e} (<=1e-8)",
    )
    assert ok


def test_criterion_06_weak_limit(report):
    t = 5000
    u0 = delta_state(1, 0)
    final = evolve(u0, ConstantCoin(C0), t).final
    grid = np.linspace(-1.0, 1.0, 2001)
    curve = weak_limit_density(u0, R, R, grid)
    theory = weak_limit_cdf(u0, R, R, grid)
    empirical = empirical_scaled_cdf(final, t, grid)
    ks = float(kolmogorov_distance(empirical, theory))
    mass = float(curve.total_mass)
    ok = ks <= 0.02 and abs(mass - 1.0) <= 1e-5
    report(
        "criterion 6 (weak limit)",
        ok,
        f"kolmogorov distance {ks:.4f} (<=0.02), density mass {mass:.7f} (1 +- 1e-5)",
    )
    assert ok


def test_criterion_07_scattering(report):
    quintic = ComposedCoin(C0, QuinticExponentialCoin(0.3 * SIGMA_X, 0.2 * SIGMA_Z))
    series_report = scattering_series(
        scaled(delta_state(1, 0), 0.1), quintic, 1024, defect_times=(100, 1000)
    )
    tails = series_report.tail_norms
    block_maxima = [
        float(np.max(tails[1:11])),
        float(np.max(tails[11:102])),
        float(np.max(tails[102:1025])),
    ]
    tails_ok = block_maxima[0] > block_maxima[1] > block_maxima[2]
    defects = dict(
        zip(series_report.defect_times.tolist(), series_report.defect_series.tolist())
    )
    defect_ok = defects[1000] < defects[100]

    norms, resids = [], []
    for c in (0.1, 0.05, 0.025):
        u0 = scaled(delta_state(1, 0), c)
        res = nonlinear_residual(u0, quintic, t_max=512)
        norms.append(float(lp_norm(u0, 2.0)))
        resids.append(float(lp_norm(res, 2.0)))
    exponent = float(np.polyfit(np.log10(norms), np.log10(resids), 1)[0])
    exp_ok = exponent >= 4.5

    ok = tails_ok and defect_ok and exp_ok
    report(
        "criterion 7 (scattering)",
        ok,
        f"tail decade maxima {block_maxima[0]:.1e} > {block_maxima[1]:.1e} > "
        f"{block_maxima[2]:.1e} ({tails_ok}), defect(1000)={defects[1000]:.2e} < "
        f"defect(100)={defects[100]:.2e} ({defect_ok}), "
        f"residual exponent {exponent:.2f} (>=4.5)",
    )
    assert ok


def test_criterion_08_inverse_scattering(report):
    pairs = {
        "pair A": (0.3 * SIGMA_X, 0.2 * SIGMA_Z),
        "pair B": (0.2 * SIGMA_Y + 0.1 * SIGMA_Z, 0.25 * SIGMA_X),
    }
    details = []
    ok = True
    for name, (a1, a2) in pairs.items():
        spec = ComposedCoin(C0, QuinticExponentialCoin(a1, a2))
        t0 = time.perf_counter()
        rep = recovery_ladder(spec, lams=(0.2, 0.1, 0.05), t_max=2048)
        elapsed = time.perf_counter() - t0
        ratio = rep.errors[0] / rep.errors[1]
        good = rep.fitted_order >= 2.5 and 4.0 <= ratio <= 16.0 and elapsed < 120.0
        ok = ok and good
        details.append(
            f"{name}: order {rep.fitted_order:.2f}, ratio {ratio:.2f}, {elapsed:.0f}s"
        )

    zero = ComposedCoin(C0, QuinticExponentialCoin(np.zeros((2, 2)), np.zeros((2, 2))))
    zrep = recovery_ladder(zero, lams=(0.2, 0.1), t_max=128)
    zero_ok = np.array_equal(zrep.errors, [0.0, 0.0]) and zrep.fitted_order == np.inf
    ok = ok and zero_ok
    details.append(f"zero pair exact: {zero_ok}")
    report(
        "criterion 8 (inverse scattering)",
        ok,
        "; ".join(details) + " (want order >= 2.5, ratio in [4,16], < 120s)",
    )
    assert ok


def test_criterion_09_invariant_suites(report):
    families = {
        "constant": ConstantCoin(C0),
        "galton": GaltonCoin(0.7),
        "gross_neveu": GrossNeveuCoin(0.5, 0.9),
        "thirring": ThirringCoin(0.6, 1.1),
        "rotation_power": RotationPowerCoin(np.pi / 4.0, -0.8, 2),
        "quintic": ComposedCoin(
            C0, QuinticExponentialCoin(0.3 * SIGMA_X, 0.2 * SIGMA_Z)
        ),
    }
    norm_devs = {}
    for name, spec in families.items():
        traj = evolve(delta_state(1, 0), spec, 10000, Recorder(lp=(2.0,)))
        norm_devs[name] = float(np.max(np.abs(traj.series["lp_2"] - 1.0)))
    norms_ok = max(norm_devs.values()) <= 1e-10

    t = 200
    final = evolve(delta_state(1, 0), ConstantCoin(C0), t).final
    sites = np.arange(final.origin, final.origin + final.amplitudes.shape[0])
    occupied = sites[np.any(final.amplitudes != 0, axis=1)]
    cone_ok = (
        occupied.min() >= -t
        and occupied.max() <= t
        and abs(final.value_at(-t)[0]) > 0
        and abs(final.value_at(t)[1]) > 0
    )

    rng = np.random.default_rng(20260818)
    unit_dev = 0.0
    eye = np.eye(2)
    specs = list(families.values())
    for k in range(1000):
        spec = specs[k % len(specs)]
        s1, s2 = rng.uniform(0.0, 4.0, size=2)
        c = evaluate_coin(spec, s1, s2)
        unit_dev = max(unit_dev, float(np.max(np.abs(c.conj().T @ c - eye))))
    unitary_ok = unit_dev <= 1e-12

    gdev = max(
        g_scaling_check(delta_state(1, 0), RotationPowerCoin(0.3, 0.25, 1), 200),
        g_scaling_check(delta_state(1, 0), ThirringCoin(0.5, 0.7), 200),
    )
    gscale_ok = gdev <= 1e-12

    ok = norms_ok and cone_ok and unitary_ok and gscale_ok
    report(
        "criterion 9 (invariant suites)",
        ok,
        f"worst norm drift {max(norm_devs.values()):.1e} over 1e4 steps x "
        f"{len(families)} families (<=1e-10), light cone exact: {cone_ok}, "
        f"coin unitarity on 1000 draws {unit_dev:.1e} (<=1e-12), "
        f"g-scaling deviation {gdev:.1e} (<=1e-12)",
    )
    assert ok


def test_criterion_10_strong_regime(report):
    spec = RotationPowerCoin(np.pi / 4.0, -15.2, 2)
    rec = Recorder(sup_norm=True, threshold=0.1, threshold_component=1)
    traj = evolve(delta_state(1, 10000), spec, 7500, rec)
    sup = traj.series["sup_norm"]
    late = sup[5000:]
    mean_late = float(late.mean())
    occupancy = float(np.mean((late >= 0.3) & (late <= 0.5)))
    settled = 0.3 <= mean_late <= 0.5 and occupancy >= 0.9 and sup[:100].max() > 0.5

    trace = dict(traj.threshold_trace)

    def cluster_count(sites, gap=10):
        sites = np.sort(np.asarray(sites))
        if sites.size == 0:
            return 0
        return 1 + int(np.sum(np.diff(sites) > gap))

    counts = {t: cluster_count(trace[t]) for t in (6000, 6500, 7000, 7500)}
    clusters_ok = all(c >= 3 for c in counts.values())

    ok = settled and clusters_ok
    report(
        "criterion 10 (strong-coupling regime)",
        ok,
        f"late sup mean {mean_late:.3f} in [0.3,0.5], band occupancy "
        f"{occupancy:.0%} (>=90%), persistent cluster counts {counts} (each >= 3)",
    )
    assert ok
