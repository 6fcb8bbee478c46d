"""Walk dynamics on the line: shifts, coin-plus-shift steps, trajectory
evolution with per-step observables, and the edge-tracking protocols.

One step is u -> S C(u) u where the coin acts pointwise and the shift S
moves component 1 one site left and component 2 one site right.  A state
supported on [x0, x1] at time 0 is therefore supported in [x0 - t, x1 + t]
at time t, exactly; the engine grows its dense window by one site per side
per step, so by construction the support stays inside the cone.  Every
_FLUSH_STEPS steps the engine zeroes the window's subnormal components
(magnitude below 2^-1022), which x86 SIMD units handle in slow microcode;
only values already at the bottom of the float range change.

Every shift in the engine is the one in-place primitive shift_into; S^{-1}
is shift_into with the roles of the two components swapped.  Every walk
runs through one step loop, walk(), which evolve(), lockstep_finals() and
the scattering series drive with their own per-step observers.  The
recorder's site norms and their norms are state.site_norms and
state.lp_of_norms, the functions the state API uses, so a recorded series
equals the state-level norm of the matching snapshot bit for bit; a lone
sup_norm series is state.max_site_norm, the same bits with one root.

walk() can advance several runs in lockstep, as the columns of its
buffers, so that each numpy call of a step serves all of them.  One budget,
_LOCKSTEP_BYTES (256 KiB per buffer), sets how many runs share a batch for
every batched caller (lockstep_chunks): table1's cells of one p, and the
recovery ladder's probe series.  On short windows numpy's per-call cost
dominates a step, so wide batches pay; once one run's window fills the
budget, at 10000 steps of a delta walk on float buffers, each run walks
alone.

evolve() walks on float64 buffers when the coin is real (CoinSpec.real)
and every imaginary part of u0 is +0, bit for bit; otherwise, and in the
scattering series, on complex128.  The imaginary parts a real walk would
carry stay exact zeros, so dropping them keeps every nonzero value's
bits; only the sign of an exact zero may change, +0 where the complex
loop, with a negative cos(theta) or coin entry, writes -0.

The first walk() of a process fixes glibc's mmap threshold at 1 MiB and
its trim threshold at 2 MiB (mallopt), for the whole process and every
caller: at their 128 KiB defaults, which glibc raises only after freeing a
block it had mapped, the per-step temporaries are mapped and faulted in
afresh on every step.  The heap is not trimmed afterwards.  Without glibc's
mallopt nothing is set, and the outputs are the same.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coins import (
    CoinSpec,
    ConstantCoin,
    RotationPowerCoin,
    apply_coin,
    check_runs,
    coin_kernel,
    require_unitary,
)
from .state import (
    LatticeState,
    l2_distance,
    lp_of_norms,
    max_site_norm,
    scaled,
    site_norms,
    weak_lp_of_norms,
)

__all__ = [
    "Recorder",
    "Trajectory",
    "shift",
    "inverse_shift",
    "step",
    "linear_step",
    "linear_step_inverse",
    "evolve",
    "lockstep_chunks",
    "lockstep_finals",
    "soliton_amplitude",
    "period4_amplitude",
    "g_scaling_check",
    "instability_trace",
    "edge_recovery_trace",
]


def shift_into(z1, z2, v1, v2, lo: int, hi: int, width: int = 1) -> tuple[int, int]:
    """Write S(v) in place into buffers (z1, z2) that are zero outside rows
    [lo, hi), where v = (v1, v2) lives (v may view that window); returns the
    new window (lo - width, hi + width), outside which the buffers are zero
    again.  A row is one entry, or `width` entries of flat buffers whose
    rows each hold `width` runs.  shift_into(z2, z1, v2, v1, lo, hi) is
    S^{-1}: component 1 moves up, component 2 down."""
    z1[lo - width : hi - width] = v1
    z1[hi - width : hi] = 0.0
    z2[lo + width : hi + width] = v2
    z2[lo : lo + width] = 0.0
    return lo - width, hi + width


# Steps between subnormal flushes: cadences 4, 16 and 64 all cut the T=5000
# weak-limit walk by a third or more, while a flush every step gained nothing.
_FLUSH_STEPS = 16
_TINY = np.finfo(np.float64).tiny
# Entries per block of flush_subnormals: its temporaries stay at 36 KiB
# rather than growing with the window, which would raise peak RSS.
_FLUSH_BLOCK = 4096


def flush_subnormals(x: np.ndarray) -> None:
    """Zero in place every subnormal entry of the float array x, keeping its
    sign; exact zeros, -0.0 included, keep their bits.  A block with no
    subnormal entry is only scanned: the masked multiply is the costly part."""
    for lo in range(0, x.size, _FLUSH_BLOCK):
        b = x[lo : lo + _FLUSH_BLOCK]
        mags = np.abs(b)
        sub = (mags < _TINY) & (mags > 0.0)
        if sub.any():
            np.multiply(b, 0.0, out=b, where=sub)


def _moved(u: LatticeState, v1, v2, inverse: bool = False) -> LatticeState:
    """S (S^{-1} if inverse) of (v1, v2), a state on u's window, into a
    fresh window one site wider per side."""
    n = len(u)
    amp = np.zeros((n + 2, 2), dtype=np.complex128)
    if inverse:
        shift_into(amp[:, 1], amp[:, 0], v2, v1, 1, n + 1)
    else:
        shift_into(amp[:, 0], amp[:, 1], v1, v2, 1, n + 1)
    return LatticeState(u.origin - 1, amp)


def shift(u: LatticeState) -> LatticeState:
    """S: component 1 moves one site left, component 2 one site right."""
    return _moved(u, u.amplitudes[:, 0], u.amplitudes[:, 1])


def inverse_shift(u: LatticeState) -> LatticeState:
    """S^{-1}: component 1 moves right, component 2 moves left."""
    return _moved(u, u.amplitudes[:, 0], u.amplitudes[:, 1], inverse=True)


def step(u: LatticeState, spec: CoinSpec) -> LatticeState:
    """One walk step S C(u) u; the window widens by one site per side."""
    v1, v2 = _lockstep_kernel(spec, 1)(u.amplitudes[:, 0], u.amplitudes[:, 1])
    return _moved(u, v1, v2)


def linear_step(u: LatticeState, c0: np.ndarray) -> LatticeState:
    """One step of the linear walk U0 = S C0."""
    return step(u, ConstantCoin(c0))


def linear_step_inverse(u: LatticeState, c0: np.ndarray) -> LatticeState:
    """One step of U0^{-1} = C0^{-1} S^{-1}."""
    c0 = require_unitary(c0, "c0")
    return apply_coin(ConstantCoin(c0.conj().T), inverse_shift(u))


def _series_key(name: str, p: float) -> str:
    return f"{name}_inf" if np.isinf(p) else f"{name}_{p:g}"


@dataclass(frozen=True)
class Recorder:
    """Selects per-step observables captured during evolve().

    lp and weak_lp list the exponents to track, each at least 1 (use
    float('inf') in lp for the sup norm; weak_lp exponents are finite), no
    two of one list giving the same series key.  threshold records, per
    step, the sites where the chosen component modulus exceeds gamma.
    left_edge captures the amplitude pair at the leftmost window site,
    which is the light-cone edge for initial data whose window starts at
    its support.
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
        if not all(p >= 1 for p in self.lp):
            raise ValueError(f"lp exponents must be at least 1, got {list(self.lp)}")
        if not all(1 <= p < np.inf for p in self.weak_lp):
            raise ValueError(
                f"weak_lp exponents must lie in [1, inf), got {list(self.weak_lp)}"
            )
        for name, ps in (("lp", self.lp), ("weak_lp", self.weak_lp)):
            keys = [_series_key(name, p) for p in ps]
            if len(set(keys)) < len(keys):
                raise ValueError(f"{name} exponents give repeated series keys {keys}")


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


def _non_finite(kern, a1, a2, site0: int, runs: int, step: int) -> str:
    """Message for a walk that overflowed in `step` on the flat window of
    `runs` runs at site0."""
    with np.errstate(all="ignore"):
        w1, w2 = kern(a1, a2)
    bad = np.flatnonzero(~(np.isfinite(w1) & np.isfinite(w2)))
    where = f" at site {site0 + int(bad[0]) // runs}" if bad.size else ""
    return f"overflow or invalid value in step {step}{where}"


_MALLOPT = ((-3, 1 << 20), (-1, 2 << 20))  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


@functools.cache
def _set_malloc_thresholds() -> None:
    """mallopt each of _MALLOPT, once per process; without glibc's mallopt,
    nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    for param, value in _MALLOPT:
        mallopt(param, value)


def walk(
    seeds: list[LatticeState],
    kern: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    steps: int,
    observer,
    snapshot_times: tuple[int, ...] = (),
    dtype: type = np.complex128,
):
    """The engine's one step loop: up to `steps` steps u -> S C(u) u of one
    walk per seed, kern being the coin kernel, each step handed to observer.
    The buffers hold dtype: complex128, or float64 for a kern that keeps
    real input real and seeds whose imaginary parts are all +0, which the
    buffers then drop.

    The seeds share origin and window length and advance in lockstep as
    the columns of (size, runs) buffers, so kern sees every run's window in
    one call, as the flat (rows * runs,) view of rows [lo, hi).  Observers'
    arithmetic is elementwise or reduces each run on its own, so each run is
    bit for bit what it would be alone, except under the Thirring and
    Gross-Neveu kernels past 16384 flat complex entries, where numpy's
    temporary elision may swap the operands of their complex products.
    An observer has
    - margin: spare buffer sites per side beyond the walk's own;
    - begin(u1, u2, base, lo, hi): the buffers, row 0's site, the seed rows;
    - observe(t, lo, hi, a1, a2, w1, w2): u(t) on rows [lo, hi) and its coin
      output, as the kernel's flat views (reshape(hi - lo, -1) gives
      (rows, runs)); returning True stops the walk after this step;
    - finish(t, lo, hi): u(t) on rows [lo, hi) is the last state.

    After each step t that is a multiple of _FLUSH_STEPS, the window's
    subnormal components are zeroed (flush_subnormals), before the observer
    and the snapshots see u(t).  The flush looks only at each entry's value,
    so lockstep runs still match their lone runs bit for bit.

    Returns observer.finish(...) and per run a dict of the states at the
    snapshot_times reached.  Overflow or an invalid operation in a step
    raises ValueError naming the step and the first non-finite coin site;
    in finish, naming the last step.
    """
    _set_malloc_thresholds()
    origin, n0 = seeds[0].origin, len(seeds[0])
    if any(s.origin != origin or len(s) != n0 for s in seeds):
        raise ValueError("batched seeds must share origin and window length")
    runs = len(seeds)
    off = steps + observer.margin + 1
    size = n0 + 2 * off
    u1, u2 = (np.zeros((size, runs), dtype=dtype) for _ in range(2))
    f1, f2 = u1.reshape(-1), u2.reshape(-1)  # flat views, row after row
    lo, hi = off, off + n0
    amp = np.stack([s.amplitudes for s in seeds], axis=-1)  # (n0, 2, runs)
    if dtype == np.float64:
        amp = amp.real
    u1[lo:hi], u2[lo:hi] = amp[:, 0], amp[:, 1]
    base = origin - off  # site of buffer row 0
    observer.begin(u1, u2, base, lo, hi)

    snaps: list[dict[int, LatticeState]] = [{} for _ in seeds]
    want_snap = set(snapshot_times)

    def snap(t: int, lo: int, hi: int) -> None:
        for r, out in enumerate(snaps):
            out[t] = LatticeState(
                base + lo, np.column_stack([u1[lo:hi, r], u2[lo:hi, r]])
            )

    if 0 in want_snap:
        snap(0, lo, hi)
    t, stop = 0, False
    with np.errstate(over="raise", invalid="raise"):
        while t < steps and not stop:
            a1, a2 = f1[lo * runs : hi * runs], f2[lo * runs : hi * runs]
            try:
                w1, w2 = kern(a1, a2)
                stop = observer.observe(t, lo, hi, a1, a2, w1, w2)
            except FloatingPointError:
                raise ValueError(
                    _non_finite(kern, a1, a2, base + lo, runs, t + 1)
                ) from None
            shift_into(f1, f2, w1, w2, lo * runs, hi * runs, runs)
            lo, hi, t = lo - 1, hi + 1, t + 1
            if t % _FLUSH_STEPS == 0:
                flush_subnormals(f1[lo * runs : hi * runs].view(np.float64))
                flush_subnormals(f2[lo * runs : hi * runs].view(np.float64))
            if t in want_snap:
                snap(t, lo, hi)
        try:
            return observer.finish(t, lo, hi), snaps
        except FloatingPointError:
            raise ValueError(f"overflow or invalid value after step {t}") from None


# Bytes each buffer of one lockstep batch may hold: batches past it ran no
# faster than their runs one at a time, or slower.
_LOCKSTEP_BYTES = 256 << 10


def lockstep_chunks(
    runs: list, n0: int, steps: int, dtype: type = np.complex128
) -> list[list]:
    """runs, one entry per walk from an n0-site window, cut into equal
    consecutive lockstep batches for walk(): each at most
    max(1, _LOCKSTEP_BYTES // row) runs wide, row being the bytes one run's
    window takes after `steps` steps, n0 + 2 steps entries of dtype."""
    row = (n0 + 2 * steps) * np.dtype(dtype).itemsize
    width = max(1, _LOCKSTEP_BYTES // row)
    chunks = -(-len(runs) // width)
    size = -(-len(runs) // chunks)
    return [runs[i : i + size] for i in range(0, len(runs), size)]


def _lockstep_kernel(spec: CoinSpec, runs: int):
    """coin_kernel(spec) for a walk of `runs` runs in lockstep; a coin with
    one parameter per run (spec.runs) is refused unless it has `runs`."""
    check_runs(spec, runs)
    return coin_kernel(spec)


def _buffer_dtype(spec: CoinSpec, seeds: list[LatticeState]) -> type:
    """float64 when the coin is real and every imaginary part of the seeds
    is +0, bit for bit; complex128 otherwise."""
    real = spec.real and not any(s.amplitudes.imag.view(np.uint64).any() for s in seeds)
    return np.float64 if real else np.complex128


class _Unobserved:
    """walk() observer for runs that keep only their snapshots."""

    margin = 0

    def begin(self, *buffers) -> None:
        pass

    def observe(self, *step) -> bool:
        return False

    def finish(self, *window) -> None:
        pass


def lockstep_finals(
    seeds: list[LatticeState], spec: CoinSpec, steps: int
) -> list[LatticeState]:
    """u(steps) of one walk per seed, advanced in lockstep as the columns of
    one walk() under spec, whose kernel sees the flat (rows * runs) window:
    a coin shared by every run, or one with a parameter per run such as a
    RotationPowerCoin whose g is a tuple of len(seeds) couplings; another
    count is refused before any step, as evolve refuses any but one.
    Buffers are chosen as in evolve, and each final state is the lone
    evolve(seed, ...).final, bit for bit as far as walk() says."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    kern = _lockstep_kernel(spec, len(seeds))
    dtype = _buffer_dtype(spec, seeds)
    _, snaps = walk(seeds, kern, steps, _Unobserved(), (steps,), dtype)
    return [s[steps] for s in snaps]


class _Recording:
    """walk() observer that evaluates a Recorder's observables on every
    state u(t) of a lone walk, as the flat window the coin kernel sees, and
    builds the Trajectory.

    lp, weak_lp and argmax read state.site_norms once per step, and
    sup_norm with them.  When sup_norm is the only one asked for, as in
    simulate's and decay's runs, it is state.max_site_norm instead: the
    square root of the largest sum of squares, one root per step rather
    than one per site, and the same bits."""

    margin = 0

    def __init__(self, u0: LatticeState, rec: Recorder) -> None:
        self.u0, self.rec = u0, rec
        self.need_site_norms = bool(rec.lp or rec.weak_lp or rec.argmax)
        # (series key, exponent) pairs; the Recorder keeps the keys distinct
        self.lp = [(_series_key("lp", p), p) for p in rec.lp]
        self.weak_lp = [(_series_key("weak_lp", p), p) for p in rec.weak_lp]
        keys = (
            ["sup_norm"] * rec.sup_norm
            + [k for k, _ in self.lp + self.weak_lp]
            + ["argmax"] * rec.argmax
            + ["edge_comp1", "edge_comp2"] * rec.left_edge
        )
        self.values: dict[str, list] = {k: [] for k in keys}
        self.threshold_trace: list[tuple[int, np.ndarray]] = []

    def begin(self, u1, u2, base: int, lo: int, hi: int) -> None:
        self.u1, self.u2, self.base = u1, u2, base

    def _capture(self, t: int, lo: int, a1: np.ndarray, a2: np.ndarray) -> None:
        rec, v = self.rec, self.values
        if self.need_site_norms:
            norms = site_norms(a1, a2)
            if rec.sup_norm:
                v["sup_norm"].append(lp_of_norms(norms, np.inf))
            for key, p in self.lp:
                v[key].append(lp_of_norms(norms, p))
            for key, p in self.weak_lp:
                v[key].append(weak_lp_of_norms(norms, p))
            if rec.argmax:
                v["argmax"].append(self.base + lo + int(np.argmax(norms)))
        elif rec.sup_norm:
            v["sup_norm"].append(max_site_norm(a1, a2))
        if rec.threshold is not None:
            comp = a1 if rec.threshold_component == 1 else a2
            mags = np.abs(comp)
            self.threshold_trace.append(
                (t, self.base + lo + np.flatnonzero(mags > rec.threshold))
            )
        if rec.left_edge:
            v["edge_comp1"].append(complex(a1[0]))
            v["edge_comp2"].append(complex(a2[0]))

    def observe(self, t, lo, hi, a1, a2, w1, w2) -> bool:
        self._capture(t, lo, a1, a2)
        return False

    def finish(self, t: int, lo: int, hi: int) -> Trajectory:
        a1, a2 = self.u1[lo:hi].reshape(-1), self.u2[lo:hi].reshape(-1)
        self._capture(t, lo, a1, a2)
        traj = Trajectory(
            initial=self.u0,
            final=LatticeState(self.base + lo, np.column_stack([a1, a2])),
            steps=t,
            threshold_trace=self.threshold_trace,
        )
        for key, values in self.values.items():
            dtype = np.int64 if key == "argmax" else None
            traj.series[key] = np.asarray(values, dtype=dtype)
        return traj


def evolve(
    u0: LatticeState,
    spec: CoinSpec,
    steps: int,
    recorder: Recorder | None = None,
) -> Trajectory:
    """Run `steps` walk steps from u0, recording requested observables.

    A lone run of walk(): the full light-cone window is allocated once and
    advanced in place, so the cost is O(steps * window) array work.  A real
    coin (spec.real) on u0 whose imaginary parts are all +0, bit for bit,
    walks on float64 buffers; any other walk on complex128.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rec = recorder or Recorder()
    for t in rec.snapshot_times:
        if not 0 <= t <= steps:
            raise ValueError(f"snapshot time {t} is outside [0, {steps}]")
    kern = _lockstep_kernel(spec, 1)
    dtype = _buffer_dtype(spec, [u0])
    traj, (snaps,) = walk([u0], kern, steps, _Recording(u0, rec), rec.snapshot_times, dtype)
    traj.snapshots = snaps
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


def g_scaling_check(u0: LatticeState, spec: CoinSpec, steps: int) -> float:
    """Max l2 deviation over t <= steps between the walk under spec and the
    rescaled walk at unit coupling.  Exact (up to rounding) for families
    whose coupling multiplies an intensity power."""
    ref, c = spec.unit_strength()
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


def _stationary_amplitude(spec: RotationPowerCoin) -> float:
    """Edge amplitude a, pi/4 + g a^(2p) = 0, of a stationary-branch coin:
    rotation_power with g < 0 and theta0 = pi/4; other coins are refused."""
    if not isinstance(spec, RotationPowerCoin):
        raise ValueError("edge tracking is defined for the rotation_power family")
    if not (spec.g < 0):
        raise ValueError("stationary edge branch needs g < 0")
    if abs(spec.theta0 - np.pi / 4.0) > 1e-12:
        raise ValueError("stationary edge branch needs theta0 = pi/4")
    return soliton_amplitude(spec.g, spec.p)


def instability_trace(eps: float, spec: RotationPowerCoin, steps: int) -> np.ndarray:
    """Light-cone edge norms ||u(t, -t)|| for u(0) = a(1 - eps) delta_{1,0}.

    Requires the stationary-edge branch: theta0 = pi/4 and g < 0, with a
    from pi/4 + g a^(2p) = 0.  The second edge component vanishes
    identically, so the returned series is |u1(t, -t)| and obeys the scalar
    recursion x_{t+1} = |cos(pi/4 + g x_t^(2p))| x_t.
    """
    a = _stationary_amplitude(spec)
    u0 = LatticeState(0, np.array([[a * (1.0 - eps), 0.0]], dtype=np.complex128))
    return site_norms(*_left_edge_series(u0, spec, steps))


def edge_recovery_trace(
    eps: float,
    spec: RotationPowerCoin,
    steps: int,
    right_tail: np.ndarray | None = None,
) -> np.ndarray:
    """Deviation ||u(t, -t) - (a, 0)|| for data (1 + eps) a at the origin,
    a the edge amplitude of the stationary branch, which is required.

    right_tail, if given, places arbitrary (n, 2) amplitudes on sites 1..n;
    they never reach the left light-cone edge, so the trace depends only on
    the origin value."""
    a = _stationary_amplitude(spec)
    rows = [[a * (1.0 + eps), 0.0]]
    if right_tail is not None:
        tail = np.asarray(right_tail, dtype=np.complex128)
        if tail.ndim != 2 or tail.shape[1] != 2:
            raise ValueError("right_tail must have shape (n, 2)")
        rows.extend(tail.tolist())
    u0 = LatticeState(0, np.asarray(rows, dtype=np.complex128))
    e1, e2 = _left_edge_series(u0, spec, steps)
    return site_norms(e1 - a, e2)
