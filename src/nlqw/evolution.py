"""Walk dynamics on the line: shifts, coin-plus-shift steps, trajectory
evolution with per-step observables, and the edge-tracking protocols.

One step is u -> S C(u) u where the coin acts pointwise and the shift S
moves component 1 one site left and component 2 one site right.  A state
supported on [x0, x1] at time 0 is therefore supported in [x0 - t, x1 + t]
at time t, exactly; the engine grows its dense window by one site per side
per step so the light cone is respected by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coins import (
    CoinSpec,
    ConstantCoin,
    GaltonCoin,
    GrossNeveuCoin,
    QuinticExponentialCoin,
    RotationPowerCoin,
    ThirringCoin,
    coin_kernel,
    require_unitary,
)
from .state import LatticeState, l2_distance, scaled, weak_lp_of_norms

__all__ = [
    "Recorder",
    "Trajectory",
    "shift",
    "inverse_shift",
    "step",
    "linear_step",
    "linear_step_inverse",
    "evolve",
    "soliton_amplitude",
    "period4_amplitude",
    "g_scaling_check",
    "instability_trace",
    "edge_recovery_trace",
]


def shift(u: LatticeState) -> LatticeState:
    """S: component 1 moves one site left, component 2 one site right."""
    n = len(u)
    amp = np.zeros((n + 2, 2), dtype=np.complex128)
    amp[0:n, 0] = u.amplitudes[:, 0]
    amp[2 : n + 2, 1] = u.amplitudes[:, 1]
    return LatticeState(u.origin - 1, amp)


def inverse_shift(u: LatticeState) -> LatticeState:
    """S^{-1}: component 1 moves right, component 2 moves left."""
    n = len(u)
    amp = np.zeros((n + 2, 2), dtype=np.complex128)
    amp[2 : n + 2, 0] = u.amplitudes[:, 0]
    amp[0:n, 1] = u.amplitudes[:, 1]
    return LatticeState(u.origin - 1, amp)


def step(u: LatticeState, spec: CoinSpec) -> LatticeState:
    """One walk step S C(u) u; the window widens by one site per side."""
    kern = coin_kernel(spec)
    v1, v2 = kern(u.amplitudes[:, 0], u.amplitudes[:, 1])
    n = len(u)
    amp = np.zeros((n + 2, 2), dtype=np.complex128)
    amp[0:n, 0] = v1
    amp[2 : n + 2, 1] = v2
    return LatticeState(u.origin - 1, amp)


def linear_step(u: LatticeState, c0: np.ndarray) -> LatticeState:
    """One step of the linear walk U0 = S C0."""
    return step(u, ConstantCoin(c0))


def linear_step_inverse(u: LatticeState, c0: np.ndarray) -> LatticeState:
    """One step of U0^{-1} = C0^{-1} S^{-1}."""
    c0 = require_unitary(c0, "c0")
    v = inverse_shift(u)
    m = c0.conj().T
    a = v.amplitudes
    out = np.empty_like(a)
    out[:, 0] = m[0, 0] * a[:, 0] + m[0, 1] * a[:, 1]
    out[:, 1] = m[1, 0] * a[:, 0] + m[1, 1] * a[:, 1]
    return LatticeState(v.origin, out)


@dataclass(frozen=True)
class Recorder:
    """Selects per-step observables captured during evolve().

    lp and weak_lp list the exponents to track (use float('inf') in lp for
    the sup norm).  threshold records, per step, the sites where the chosen
    component modulus exceeds gamma.  left_edge captures the amplitude pair
    at the leftmost window site, which is the light-cone edge for initial
    data whose window starts at its support.
    """

    sup_norm: bool = False
    lp: tuple[float, ...] = ()
    weak_lp: tuple[float, ...] = ()
    argmax: bool = False
    threshold: float | None = None
    threshold_component: int = 1
    left_edge: bool = False
    snapshot_times: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.threshold is not None and not (self.threshold > 0):
            raise ValueError("threshold gamma must be positive")
        if self.threshold_component not in (1, 2):
            raise ValueError("threshold_component must be 1 or 2")


@dataclass
class Trajectory:
    """Evolution result: endpoint states plus the recorded series.

    series maps observable keys ("sup_norm", "lp_2", "weak_lp_4", ...) to
    arrays of length steps + 1 including the t = 0 value.  threshold_trace
    holds (t, sites) pairs; snapshots maps requested times to states.
    """

    initial: LatticeState
    final: LatticeState
    steps: int
    series: dict[str, np.ndarray] = field(default_factory=dict)
    threshold_trace: list[tuple[int, np.ndarray]] = field(default_factory=list)
    snapshots: dict[int, LatticeState] = field(default_factory=dict)


def _lp_key(p: float) -> str:
    return "lp_inf" if np.isinf(p) else f"lp_{p:g}"


def evolve(
    u0: LatticeState,
    spec: CoinSpec,
    steps: int,
    recorder: Recorder | None = None,
) -> Trajectory:
    """Run `steps` walk steps from u0, recording requested observables.

    Preallocates the full light-cone window once and advances two component
    buffers in place, so the cost is O(steps * window) array work.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rec = recorder or Recorder()
    for t in rec.snapshot_times:
        if not 0 <= t <= steps:
            raise ValueError(f"snapshot time {t} is outside [0, {steps}]")
    kern = coin_kernel(spec)

    n0 = len(u0)
    size = n0 + 2 * steps + 2
    u1 = np.zeros(size, dtype=np.complex128)
    u2 = np.zeros(size, dtype=np.complex128)
    lo, hi = steps + 1, steps + 1 + n0
    u1[lo:hi] = u0.amplitudes[:, 0]
    u2[lo:hi] = u0.amplitudes[:, 1]
    base = u0.origin - lo  # site of buffer index 0

    sup_series: list[float] = []
    lp_series: dict[float, list[float]] = {p: [] for p in rec.lp}
    wlp_series: dict[float, list[float]] = {p: [] for p in rec.weak_lp}
    argmax_series: list[int] = []
    edge1: list[complex] = []
    edge2: list[complex] = []
    traj = Trajectory(initial=u0, final=u0, steps=steps)
    snap_times = set(rec.snapshot_times)

    need_site_norms = bool(
        rec.sup_norm or rec.lp or rec.weak_lp or rec.argmax
    )

    def capture(t: int, lo: int, hi: int) -> None:
        a1 = u1[lo:hi]
        a2 = u2[lo:hi]
        if need_site_norms:
            norms = np.sqrt(a1.real**2 + a1.imag**2 + a2.real**2 + a2.imag**2)
            if rec.sup_norm:
                sup_series.append(float(norms.max()))
            for p in rec.lp:
                if np.isinf(p):
                    lp_series[p].append(float(norms.max()))
                else:
                    lp_series[p].append(float(np.sum(norms**p) ** (1.0 / p)))
            for p in rec.weak_lp:
                wlp_series[p].append(weak_lp_of_norms(norms, p))
            if rec.argmax:
                argmax_series.append(base + lo + int(np.argmax(norms)))
        if rec.threshold is not None:
            comp = a1 if rec.threshold_component == 1 else a2
            mags = np.abs(comp)
            traj.threshold_trace.append(
                (t, base + lo + np.flatnonzero(mags > rec.threshold))
            )
        if rec.left_edge:
            edge1.append(complex(u1[lo]))
            edge2.append(complex(u2[lo]))
        if t in snap_times:
            traj.snapshots[t] = LatticeState(
                base + lo, np.column_stack([a1, a2]).copy()
            )

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

    traj.final = LatticeState(base + lo, np.column_stack([u1[lo:hi], u2[lo:hi]]))
    if rec.sup_norm:
        traj.series["sup_norm"] = np.asarray(sup_series)
    for p in rec.lp:
        traj.series[_lp_key(p)] = np.asarray(lp_series[p])
    for p in rec.weak_lp:
        traj.series[f"weak_lp_{p:g}"] = np.asarray(wlp_series[p])
    if rec.argmax:
        traj.series["argmax"] = np.asarray(argmax_series, dtype=np.int64)
    if rec.left_edge:
        traj.series["edge_comp1"] = np.asarray(edge1)
        traj.series["edge_comp2"] = np.asarray(edge2)
    return traj


def soliton_amplitude(g: float, p: int) -> float:
    """Amplitude a with pi/4 + g a^(2p) = 0, the stationary edge value (g < 0)."""
    if g == 0:
        raise ValueError("g must be nonzero")
    return (np.pi / (4.0 * abs(g))) ** (1.0 / (2.0 * p))


def period4_amplitude(g: float, p: int) -> float:
    """Amplitude a with pi/4 + g a^(2p) = pi/2, the period-4 branch (g > 0)."""
    if not g > 0:
        raise ValueError("the period-4 branch needs g > 0")
    return (np.pi / (4.0 * g)) ** (1.0 / (2.0 * p))


def _unit_strength_form(spec: CoinSpec) -> tuple[CoinSpec, float]:
    """Reference spec with unit coupling plus the amplitude scale c such
    that evolving c*u0 under the reference matches c * (evolution under spec)."""
    if isinstance(spec, ConstantCoin):
        return spec, 1.0
    if isinstance(spec, GaltonCoin):
        if spec.g == 0:
            return spec, 1.0
        return GaltonCoin(float(np.sign(spec.g))), float(np.sqrt(abs(spec.g)))
    if isinstance(spec, GrossNeveuCoin):
        if spec.g == 0:
            return spec, 1.0
        return (
            GrossNeveuCoin(float(np.sign(spec.g)), spec.theta),
            float(np.sqrt(abs(spec.g))),
        )
    if isinstance(spec, ThirringCoin):
        if spec.g == 0:
            return spec, 1.0
        return (
            ThirringCoin(float(np.sign(spec.g)), spec.theta),
            float(np.sqrt(abs(spec.g))),
        )
    if isinstance(spec, RotationPowerCoin):
        if spec.g == 0:
            return spec, 1.0
        return (
            RotationPowerCoin(spec.theta0, float(np.sign(spec.g)), spec.p),
            float(abs(spec.g) ** (1.0 / (2.0 * spec.p))),
        )
    raise ValueError(
        f"coupling of {type(spec).__name__} does not enter as an intensity scale"
    )


def g_scaling_check(u0: LatticeState, spec: CoinSpec, steps: int) -> float:
    """Max l2 deviation over t <= steps between the walk under spec and the
    rescaled walk at unit coupling.  Exact (up to rounding) for families
    whose coupling multiplies an intensity power."""
    ref, c = _unit_strength_form(spec)
    u = u0
    v = scaled(u0, c)
    worst = l2_distance(u, scaled(v, 1.0 / c))
    for _ in range(steps):
        u = step(u, spec)
        v = step(v, ref)
        worst = max(worst, l2_distance(u, scaled(v, 1.0 / c)))
    return worst


def _left_edge_series(u0: LatticeState, spec: CoinSpec, steps: int) -> tuple[np.ndarray, np.ndarray]:
    traj = evolve(u0, spec, steps, Recorder(left_edge=True))
    return traj.series["edge_comp1"], traj.series["edge_comp2"]


def instability_trace(
    a: float, eps: float, spec: RotationPowerCoin, steps: int
) -> np.ndarray:
    """Light-cone edge norms ||u(t, -t)|| for u(0) = a(1 - eps) delta_{1,0}.

    Requires the stationary-edge branch: g < 0 with pi/4 + g a^(2p) = 0.
    The second edge component vanishes identically, so the returned series
    is |u1(t, -t)| and obeys the scalar recursion
    x_{t+1} = |cos(pi/4 + g x_t^(2p))| x_t.
    """
    if not isinstance(spec, RotationPowerCoin):
        raise ValueError("edge tracking is defined for the rotation_power family")
    if not (spec.g < 0):
        raise ValueError("stationary edge branch needs g < 0")
    if abs(np.pi / 4.0 + spec.g * a ** (2 * spec.p)) > 1e-9:
        raise ValueError("amplitude a is not on the stationary edge branch")
    if abs(spec.theta0 - np.pi / 4.0) > 1e-12:
        raise ValueError("stationary edge branch needs theta0 = pi/4")
    u0 = LatticeState(0, np.array([[a * (1.0 - eps), 0.0]], dtype=np.complex128))
    e1, e2 = _left_edge_series(u0, spec, steps)
    return np.sqrt(np.abs(e1) ** 2 + np.abs(e2) ** 2)


def edge_recovery_trace(
    eps: float,
    a: float,
    spec: RotationPowerCoin,
    steps: int,
    right_tail: np.ndarray | None = None,
) -> np.ndarray:
    """Deviation ||u(t, -t) - (a, 0)|| for data (1 + eps) a at the origin.

    right_tail, if given, places arbitrary (n, 2) amplitudes on sites
    1..n; they never reach the left light-cone edge, so the trace depends
    only on the origin value.  Requires the stationary edge branch.
    """
    if not isinstance(spec, RotationPowerCoin):
        raise ValueError("edge tracking is defined for the rotation_power family")
    if not (spec.g < 0) or abs(np.pi / 4.0 + spec.g * a ** (2 * spec.p)) > 1e-9:
        raise ValueError("parameters are not on the stationary edge branch")
    rows = [[a * (1.0 + eps), 0.0]]
    if right_tail is not None:
        tail = np.asarray(right_tail, dtype=np.complex128)
        if tail.ndim != 2 or tail.shape[1] != 2:
            raise ValueError("right_tail must have shape (n, 2)")
        rows.extend(tail.tolist())
    u0 = LatticeState(0, np.asarray(rows, dtype=np.complex128))
    e1, e2 = _left_edge_series(u0, spec, steps)
    return np.sqrt(np.abs(e1 - a) ** 2 + np.abs(e2) ** 2)
