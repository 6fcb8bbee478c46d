"""Wave-operator series and inverse-scattering probes.

The nonlinear walk U(t)u0 deviates from its linear part through the
interaction-picture series

    W* u0 = u0 + sum_{t >= 0} U0^{-t} (C_N - I) U(t) u0,

whose terms are pointwise quintic (or higher) in the amplitude for the
families handled here.  The engine's one step loop, evolution.walk, runs
the walk and hands every step to an observer.  Where the whole series is
wanted it is accumulated in the forward frame G <- U0 (G + d_t) with a
Kahan carry propagated through the unitary step, then rotated back once.
The recovery probes need only two pairings of it, which are summed term
by term against a linear walk instead.  Every intermediate quantity is of
the size of the terms themselves, so no near-equal states are ever
subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import (
    CoinSpec,
    ConstantCoin,
    _op_norm,
    check_runs,
    coin_kernel,
    linear_part,
    matrix_kernel,
    nonlinear_partial_derivatives,
)
from .evolution import (
    Recorder,
    evolve,
    linear_step,
    lockstep_chunks,
    shift_into,
    walk,
)
from .state import LatticeState, combine, delta_state, l2_distance, sum_of_squares

__all__ = [
    "NonConvergenceError",
    "ScatteringReport",
    "RecoveryResult",
    "RecoveryReport",
    "scattering_series",
    "l5_decay_check",
    "wave_operator",
    "nonlinear_residual",
    "dlambda",
    "recovery_probe",
    "recover_derivatives",
    "recovery_ladder",
]


class NonConvergenceError(RuntimeError):
    """Raised when a series fails its stopping rule within the horizon."""


def _series_args(spec: CoinSpec, t_max: int) -> np.ndarray:
    """Check shared by the series, each a walk of one run; returns the
    coin's linear part C0."""
    if t_max < 1:
        raise ValueError("t_max must be positive")
    check_runs(spec, 1)
    return linear_part(spec)


def _coin_defect(c0, a1, a2, w1, w2, e1, e2, tmp) -> None:
    """Series term e_t = (C(u) - C0) u into (e1, e2), from u = (a1, a2) and
    its coin output w = C(u) u, with tmp as scratch.  Taken in the coin
    output frame: when the coin has no intensity-dependent part, C0 u
    repeats every operation of C(u) u, so e_t is exactly zero."""
    for e, w, (ma, mb) in zip((e1, e2), (w1, w2), c0):
        np.multiply(ma, a1, out=e)
        np.multiply(mb, a2, out=tmp)
        np.add(e, tmp, out=e)
        np.subtract(w, e, out=e)


def _kahan_add(total: np.ndarray, carry: np.ndarray, x: np.ndarray) -> None:
    """total += x in place, compensated by the Kahan carry, also in place."""
    y = x - carry
    s = total + y
    carry[...] = (s - total) - y
    total[...] = s


class _Residuals:
    """walk() observer that builds a lone run's whole series
    N = sum_t U0^{-t} d_t.

    The terms d_t = C0^{-1} (C(u) - C0) u are added into the forward frame
    G <- U0 (G + d_t) with a Kahan carry K propagated through the unitary
    step, and G is rotated back once at the end.  The term norms are
    recorded; with tol > 0 the run stops at the first t >= 64 where the
    trailing 32 term norms sum below tol (NonConvergenceError if that
    never happens).  tol = 0 always uses the full horizon.
    """

    def __init__(self, c0: np.ndarray, t_max: int, tol: float) -> None:
        self.c0 = c0
        self.coin = matrix_kernel(c0)
        self.coin_inverse = matrix_kernel(c0.conj().T)
        self.tol = tol
        # the rotate-back widens the window by up to t_max + 1 more sites per side
        self.margin = t_max + 2
        self.tails: list[float] = []
        self.stopped = False

    def begin(self, u1, u2, base: int, lo: int, hi: int) -> None:
        self.base = base
        self.g1, self.g2, self.k1, self.k2 = (
            np.zeros(u1.shape[0], dtype=np.complex128) for _ in range(4)
        )

    def observe(self, t, lo, hi, a1, a2, w1, w2) -> bool:
        g1, g2, k1, k2 = self.g1, self.g2, self.k1, self.k2
        # series term d_t = C0^{-1} e_t
        e1, e2, tmp = (np.empty_like(a1) for _ in range(3))
        _coin_defect(self.c0, a1, a2, w1, w2, e1, e2, tmp)
        d1, d2 = self.coin_inverse(e1, e2)
        self.tails.append(np.sqrt(sum_of_squares(d1, d2).sum()))
        _kahan_add(g1[lo:hi], k1[lo:hi], d1)
        _kahan_add(g2[lo:hi], k2[lo:hi], d2)
        # one linear step of accumulator and carry: G <- U0 G, K <- U0 K
        for z1, z2 in ((g1, g2), (k1, k2)):
            shift_into(z1, z2, *self.coin(z1[lo:hi], z2[lo:hi]), lo, hi)
        tails = self.tails
        if self.tol > 0.0 and len(tails) >= 64 and sum(tails[-32:]) < self.tol:
            self.stopped = True
        return self.stopped

    def finish(self, t: int, lo: int, hi: int) -> tuple[LatticeState, np.ndarray]:
        """The residual N and the term norms."""
        if self.tol > 0.0 and not self.stopped:
            raise NonConvergenceError(
                f"series tails did not fall below {self.tol} within "
                f"{len(self.tails)} terms"
            )
        g1, g2 = self.g1, self.g2
        # rotate the accumulated sum back: N = U0^{-terms} G, where S^{-1}
        # is the shift with the components' roles swapped
        for _ in range(len(self.tails)):
            lo, hi = shift_into(g2, g1, g2[lo:hi], g1[lo:hi], lo, hi)
            g1[lo:hi], g2[lo:hi] = self.coin_inverse(g1[lo:hi], g2[lo:hi])
        residual = LatticeState(self.base + lo, np.column_stack([g1[lo:hi], g2[lo:hi]]))
        return residual, np.asarray(self.tails)


class _Pairings:
    """walk() observer that pairs each run's series with U0^k delta_{j,0},
    j = 1, 2, without building the series itself.

    With N = sum_t U0^{-t} d_t and d_t = C0^{-1} e_t, e_t = (C(u) - C0) u,

        <N, U0^k delta> = sum_t <d_t, U0^{t+k} delta>
                        = sum_t <e_t, C0 U0^{t+k} delta>,

    and C0 U0^{t+k} delta is the coin stage of that walk's next step.  The
    observer steps the conjugate walk chi_t = conj(U0^{t+k} delta) beside
    the batch, one column per j shared by all runs, and adds each step's
    (2, runs) pairings sum_x e_t(x) conj(C0 psi_t)(x) with a Kahan carry.
    np.einsum sums each run's column on its own, in an order that does not
    depend on the batch width (matmul's does).  A coin with no intensity
    part gives e_t exactly zero and so exactly zero pairings.
    """

    def __init__(self, c0: np.ndarray, k: int) -> None:
        self.c0 = c0
        self.chi_coin = matrix_kernel(c0.conj())
        self.k = k
        # chi starts k steps ahead of the walk, so its window is k sites wider
        self.margin = k

    def begin(self, u1, u2, base: int, lo: int, hi: int) -> None:
        size, runs = u1.shape
        zero = -base
        # keeps chi's window, k + t_max sites either side of 0, in the buffers
        if not lo <= zero < hi:
            raise ValueError("paired seeds must cover site 0")
        # e_t with a scratch array, then chi and its coin stage; the first
        # index is the spinor component
        self.e = np.zeros((2, size, runs), dtype=np.complex128)
        self.tmp = np.zeros((size, runs), dtype=np.complex128)
        self.chi, self.stage = (
            np.zeros((2, size, 2), dtype=np.complex128) for _ in range(2)
        )
        self.chi[0, zero, 0] = 1.0
        self.chi[1, zero, 1] = 1.0
        self.lo, self.hi = zero, zero + 1
        for _ in range(self.k):
            self._step_chi()
        # stage stays zero outside chi's window, which holds chi's support
        self.sum = np.zeros((2, runs), dtype=np.complex128)
        self.carry = np.zeros((2, runs), dtype=np.complex128)

    def _step_chi(self) -> None:
        """Advance chi one step, leaving its coin stage conj(C0) chi in stage."""
        lo, hi = self.lo, self.hi
        (c1, c2), (s1, s2) = self.chi, self.stage
        s1[lo:hi], s2[lo:hi] = self.chi_coin(c1[lo:hi], c2[lo:hi])
        self.lo, self.hi = shift_into(c1, c2, s1[lo:hi], s2[lo:hi], lo, hi)

    def observe(self, t, lo, hi, a1, a2, w1, w2) -> bool:
        a1, a2, w1, w2 = (x.reshape(hi - lo, -1) for x in (a1, a2, w1, w2))
        e1, e2 = self.e[0, lo:hi], self.e[1, lo:hi]
        _coin_defect(self.c0, a1, a2, w1, w2, e1, e2, self.tmp[lo:hi])
        self._step_chi()  # leaves chi's coin stage conj(C0 psi_t) in stage
        pair = np.einsum("xr,xj->jr", e1, self.stage[0, lo:hi])
        pair += np.einsum("xr,xj->jr", e2, self.stage[1, lo:hi])
        _kahan_add(self.sum, self.carry, pair)
        return False

    def finish(self, t: int, lo: int, hi: int) -> np.ndarray:
        return self.sum


def _lockstep_pairings(
    seeds: list[LatticeState], spec: CoinSpec, t_max: int, k: int
) -> np.ndarray:
    """(2, runs) pairings <N, U0^k delta_{j,0}> of full-horizon series from
    seeds sharing origin and window length, run in the equal lockstep
    batches of evolution.lockstep_chunks.  Their count and width follow
    from the window and t_max, not from the coin, so a coin with one
    parameter per run is refused."""
    if spec.runs is not None:
        raise ValueError("the pairings' lockstep batches need one coupling for every run")
    c0 = _series_args(spec, t_max)
    kern = coin_kernel(spec)
    return np.concatenate(
        [
            walk(chunk, kern, t_max, _Pairings(c0, k))[0]
            for chunk in lockstep_chunks(seeds, len(seeds[0]), t_max)
        ],
        axis=1,
    )


def nonlinear_residual(
    u0: LatticeState,
    spec: CoinSpec,
    tol: float = 0.0,
    t_max: int = 2048,
) -> LatticeState:
    """Series value W* u0 - u0, accumulated directly from its terms.

    Never computed as a difference of near-equal states: each term is built
    pointwise from the intensity factor and added into the running frame.
    """
    c0 = _series_args(spec, t_max)
    (residual, _), _ = walk([u0], coin_kernel(spec), t_max, _Residuals(c0, t_max, tol))
    return residual


def wave_operator(
    u0: LatticeState,
    spec: CoinSpec,
    tol: float = 1e-7,
    t_max: int = 4096,
) -> LatticeState:
    """Asymptotic profile W* u0 = u0 + (series), sharing the accumulation
    path of nonlinear_residual bit for bit."""
    res = nonlinear_residual(u0, spec, tol, t_max)
    return combine([(1.0, u0), (1.0, res)])


@dataclass
class ScatteringReport:
    """Series diagnostics of one nonlinear run.

    tail_norms[t] is the l2 norm of the t-th series term (invariant under
    the unitary rotation, so available without rotating back).  defect[i]
    is ||U(t_i) u0 - U0^{t_i} u_plus||_2 at the sampled times.  converged
    is set when the final decade of term norms sums below the tolerance.
    """

    u_plus: LatticeState
    tail_norms: np.ndarray
    defect_times: np.ndarray
    defect_series: np.ndarray
    horizon: int
    converged: bool
    tolerance: float


def _default_defect_times(horizon: int) -> np.ndarray:
    pts = set(np.round(np.geomspace(1, horizon, 17)).astype(int).tolist())
    d = 10
    while d <= horizon:
        pts.add(d)
        d *= 10
    pts.add(horizon)
    return np.asarray(sorted(p for p in pts if 1 <= p <= horizon), dtype=np.int64)


def scattering_series(
    u0: LatticeState,
    spec: CoinSpec,
    horizon: int,
    defect_times: np.ndarray | None = None,
    tol: float = 1e-5,
) -> ScatteringReport:
    """Accumulate `horizon` series terms and measure the defect against the
    linear evolution of the extracted profile at log-spaced times."""
    times = (
        _default_defect_times(horizon)
        if defect_times is None
        else np.asarray(sorted(set(int(t) for t in defect_times)), dtype=np.int64)
    )
    if times.size and (times[0] < 1 or times[-1] > horizon):
        raise ValueError("defect times must lie in [1, horizon]")
    sampled = tuple(int(t) for t in times)
    c0 = _series_args(spec, horizon)
    (residual, tail_norms), (states,) = walk(
        [u0], coin_kernel(spec), horizon, _Residuals(c0, horizon, 0.0), sampled
    )
    u_plus = combine([(1.0, u0), (1.0, residual)])

    linear = evolve(
        u_plus,
        ConstantCoin(c0),
        sampled[-1] if sampled else 0,
        Recorder(snapshot_times=sampled),
    )
    defects = np.asarray(
        [l2_distance(states[t], linear.snapshots[t]) for t in sampled],
        dtype=np.float64,
    )

    last_decade = tail_norms[horizon // 10 :]
    converged = bool(np.sum(last_decade) < tol)
    return ScatteringReport(
        u_plus=u_plus,
        tail_norms=tail_norms,
        defect_times=times,
        defect_series=defects,
        horizon=horizon,
        converged=converged,
        tolerance=tol,
    )


def l5_decay_check(u0: LatticeState, spec: CoinSpec, horizon: int) -> np.ndarray:
    """Series <t>^{4/15} ||u(t)||_{l5} for the nonlinear evolution,
    <t> = sqrt(1 + t^2); bounded for small data."""
    traj = evolve(u0, spec, horizon, Recorder(lp=(5.0,)))
    t = np.arange(horizon + 1, dtype=np.float64)
    return (1.0 + t * t) ** (2.0 / 15.0) * traj.series["lp_5"]


def dlambda(gfun, lam: float):
    """Scaled difference (g(2 lambda) - g(lambda)) / lambda.

    Annihilates constants and maps lambda -> 1, which is what isolates the
    two columns of the derivative matrices in the recovery assembly.
    """
    if not (lam > 0):
        raise ValueError("lambda must be positive")
    ga = np.asarray(gfun(2.0 * lam))
    gb = np.asarray(gfun(lam))
    out = (ga - gb) / lam
    return complex(out) if out.ndim == 0 else out


_PROBE_LAMBDA_MAX = 0.8


def _probe_w0(lam: float, row: int) -> LatticeState:
    if row == 1:
        return combine(
            [(lam**2, delta_state(1, 0)), (lam**3, delta_state(2, 0))]
        )
    return combine([(lam**3, delta_state(1, 0)), (lam**2, delta_state(2, 0))])


def _probe_pairs(
    spec: CoinSpec,
    keys: list[tuple[float, int]],
    t_max: int,
) -> dict[tuple[float, int], tuple[complex, complex]]:
    """Both pairings <(W* - U0^{-1} W* U0) w0, delta_{j,0}> for j = 1, 2,
    scaled by lambda^{-10}, for each (lambda, row) key.

    The series from the one-site seeds w0 and from the three-site seeds
    U0 w0 run as two groups of lockstep batches of _Pairings, each group
    cut by evolution.lockstep_chunks (up to 15 runs a batch at t_max = 512,
    3 at 2048); neither series is formed as a state.  The
    conjugated-minus-plain orientation matters: the series for
    W* - U0^{-1} W* U0 telescopes to the single t = 0 defect term, so the
    pairing converges to <(C_hat - I) w0, delta_{j,0}> as lambda -> 0.
    The opposite orientation converges to its negative.
    """
    # <N_base - U0^{-1} N_shift, delta> = <N_base, delta> - <N_shift, U0 delta>
    seeds = [_probe_w0(lam, row) for lam, row in keys]
    bases = _lockstep_pairings(seeds, spec, t_max, 0)
    c0 = linear_part(spec)
    shifted = [linear_step(w0, c0) for w0 in seeds]
    shifts = _lockstep_pairings(shifted, spec, t_max, 1)
    diff = bases - shifts
    out = {}
    for r, key in enumerate(keys):
        scale = key[0] ** -10
        out[key] = (complex(scale * diff[0, r]), complex(scale * diff[1, r]))
    return out


def _check_probe_args(spec: CoinSpec, lam: float, row: int, j: int) -> None:
    nonlinear_partial_derivatives(spec)  # raises unless quintic structure
    if not (0.0 < lam <= _PROBE_LAMBDA_MAX):
        raise ValueError(f"lambda must lie in (0, {_PROBE_LAMBDA_MAX}]")
    if row not in (1, 2) or j not in (1, 2):
        raise ValueError("row and j must be 1 or 2")


def recovery_probe(
    spec: CoinSpec,
    lam: float,
    row: int,
    j: int,
    t_max: int = 2048,
) -> complex:
    """Scattering probe L_{row,j}(lambda) = lambda^{-10}
    <(W* - U0^{-1} W* U0) w0, delta_{j,0}> with w0 the row-specific
    two-site seed lambda^2 delta_1 + lambda^3 delta_2 (rows swapped for 2)."""
    _check_probe_args(spec, lam, row, j)
    pairs = _probe_pairs(spec, [(lam, row)], t_max)
    return pairs[(lam, row)][j - 1]


@dataclass
class RecoveryResult:
    """Assembled derivative estimates at one ladder rung.

    probes_lam[r-1][j-1] holds L_{rj}(lambda); m1 and m2 approximate the
    partial derivatives of the squared-intensity factor at zero, with
    errors measured in the operator 2-norm against the exact values.
    """

    lam: float
    probes_lam: np.ndarray
    probes_2lam: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    truth1: np.ndarray
    truth2: np.ndarray
    error1: float
    error2: float

    @property
    def error(self) -> float:
        return max(self.error1, self.error2)


def _assemble(
    lam: float, l_lam: np.ndarray, l_2lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    d = (l_2lam - l_lam) / lam
    m1 = np.array(
        [
            [l_lam[0, 0] - lam * d[0, 0], d[0, 0]],
            [l_lam[0, 1] - lam * d[0, 1], d[0, 1]],
        ],
        dtype=np.complex128,
    )
    m2 = np.array(
        [
            [d[1, 0], l_lam[1, 0] - lam * d[1, 0]],
            [d[1, 1], l_lam[1, 1] - lam * d[1, 1]],
        ],
        dtype=np.complex128,
    )
    return m1, m2


def _rung_probes(
    spec: CoinSpec,
    lams: tuple[float, ...],
    t_max: int,
) -> dict[tuple[float, int], tuple[complex, complex]]:
    """Probe pairs of the rungs lams keyed by (lambda, row), probing each
    distinct lambda of lams and 2 lams once."""
    for lam in lams:
        _check_probe_args(spec, lam, 1, 1)
        if not (2.0 * lam <= _PROBE_LAMBDA_MAX):
            raise ValueError("need 2*lambda within the probe domain")
    amps = dict.fromkeys(x for lam in lams for x in (lam, 2.0 * lam))
    keys = [(x, row) for x in amps for row in (1, 2)]
    return _probe_pairs(spec, keys, t_max)


def _rung(
    spec: CoinSpec,
    lam: float,
    probes: dict[tuple[float, int], tuple[complex, complex]],
) -> RecoveryResult:
    l_lam, l_2lam = (
        np.array([probes[(x, 1)], probes[(x, 2)]], dtype=np.complex128)
        for x in (lam, 2.0 * lam)
    )
    m1, m2 = _assemble(lam, l_lam, l_2lam)
    t1, t2 = nonlinear_partial_derivatives(spec)
    return RecoveryResult(
        lam=lam,
        probes_lam=l_lam,
        probes_2lam=l_2lam,
        m1=m1,
        m2=m2,
        truth1=t1,
        truth2=t2,
        error1=_op_norm(m1 - t1),
        error2=_op_norm(m2 - t2),
    )


def recover_derivatives(
    spec: CoinSpec,
    lam: float,
    t_max: int = 2048,
) -> RecoveryResult:
    """Estimate both partial derivatives of the squared-intensity factor at
    zero from probes at lambda and 2 lambda; errors are O(lambda^3)."""
    probes = _rung_probes(spec, (lam,), t_max)
    return _rung(spec, lam, probes)


@dataclass
class RecoveryReport:
    """Ladder of recovery results with the fitted error order in lambda."""

    lams: list[float]
    results: list[RecoveryResult]
    fitted_order: float
    fit_residual_rms: float
    t_max: int

    @property
    def errors(self) -> np.ndarray:
        return np.asarray([r.error for r in self.results])


def recovery_ladder(
    spec: CoinSpec,
    lams: tuple[float, ...] = (0.2, 0.1, 0.05),
    t_max: int = 2048,
) -> RecoveryReport:
    """Run recover_derivatives down a lambda ladder, sharing probes between
    rungs (the 2 lambda probes of one rung are the lambda probes of the rung
    above), and fit the error order in lambda.  Every distinct probe series
    of the ladder runs in the same groups of lockstep batches.  The rungs
    must be distinct, since the order is fitted through one point per rung.

    A zero nonlinearity yields exactly zero errors, which cannot be fit;
    the order is reported as inf in that case.
    """
    lams = tuple(float(x) for x in lams)
    if len(lams) < 2:
        raise ValueError("ladder needs at least two rungs")
    if len(set(lams)) < len(lams):
        raise ValueError(f"ladder rungs must be distinct, got {list(lams)}")
    probes = _rung_probes(spec, lams, t_max)
    results = [_rung(spec, lam, probes) for lam in lams]
    errs = np.asarray([r.error for r in results])
    if np.all(errs > 0):
        lx = np.log10(np.asarray(lams))
        ly = np.log10(errs)
        coef = np.polyfit(lx, ly, 1)
        order = coef[0]
        resid = ly - np.polyval(coef, lx)
        rms = float(np.sqrt(np.mean(resid**2)))
    else:
        order, rms = np.inf, 0.0
    return RecoveryReport(
        lams=list(lams),
        results=results,
        fitted_order=float(order),
        fit_residual_rms=rms,
        t_max=t_max,
    )
