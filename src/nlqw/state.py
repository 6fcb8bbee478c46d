"""Finitely supported two-component complex states on the integer lattice.

A state is a map Z -> C^2 stored as a dense window of amplitudes together
with the lattice coordinate of the first stored site.  Everything outside
the window is implicitly zero.  Published states are treated as immutable
values; evolution code works on private buffers and copies on the way out.

The lattice primitives that the state API, the coin kernels and the
engine share live here, once each: sum_of_squares (|z|^2 summed over
arrays), site_norms (the C^2 norm of each site), max_site_norm (their
maximum, with one square root) and lp_of_norms and weak_lp_of_norms
(norms of those site norms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LatticeState",
    "ProbabilityDistribution",
    "delta_state",
    "combine",
    "scaled",
    "l2_distance",
    "lp_norm",
    "weak_lp_norm",
    "finding_probability",
    "inner_product",
    "argmax_position",
    "threshold_positions",
    "save_state_csv",
    "load_state_csv",
]

STATE_CSV_HEADER = "x,re_u1,im_u1,re_u2,im_u2"
_CSV_BLOCK = 256  # sites per tolist() block in save_state_csv
_TINY = np.finfo(np.float64).tiny
# below this norm a site's squared components may underflow
_SQRT_TINY = math.sqrt(_TINY)


def sum_of_squares(*parts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of |z|^2 over the arrays parts, added left to right as
    re^2 + im^2 of each complex part or x^2 of each real part; the
    intensities of the coin kernels and the site norms.  out, a float64
    array of the parts' shape, receives the sum if given."""
    total = None
    for z in parts:
        for x in (z.real, z.imag) if z.dtype.kind == "c" else (z,):
            if total is None:
                total = np.square(x, out=out)
            else:
                total += x**2
    return total


def site_norms(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Per-site norms sqrt(|a1|^2 + |a2|^2) of component arrays, real or
    complex, as the square root of sum_of_squares.

    Two cases are recomputed by hypot, which neither overflows nor
    underflows: the sites whose sum of squares overflows, so a norm is
    infinite only where it exceeds the float range (and then that hypot
    warns or raises under the caller's errstate), and the whole window when
    its largest norm is below sqrt(tiny), about 1.5e-154, where squares
    underflow.  The one limit left: a site below about 1.5e-162 next to
    normal-sized sites squares to 0 and reads 0."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(sum_of_squares(a1, a2))
    m = norms.max()
    if m == np.inf:
        big = np.isinf(norms)
        norms[big] = np.hypot(np.abs(a1[big]), np.abs(a2[big]))
    elif m < _SQRT_TINY:
        norms = np.hypot(np.abs(a1), np.abs(a2))
    return norms


def max_site_norm(a1: np.ndarray, a2: np.ndarray) -> float:
    """max(site_norms(a1, a2)) with one square root: sqrt of the largest
    sum_of_squares, which is bit for bit the same, sqrt being monotone and
    correctly rounded.  Where that maximum is infinite or below sqrt(tiny),
    the cases site_norms recomputes by hypot, it is read from site_norms."""
    with np.errstate(over="ignore"):
        m = math.sqrt(sum_of_squares(a1, a2).max())
    if _SQRT_TINY <= m < math.inf:
        return m
    return float(site_norms(a1, a2).max())


@dataclass(frozen=True, eq=False)
class LatticeState:
    """Walker state u: Z -> C^2 held on the dense window [origin, origin+n).

    The amplitude array has shape (n, 2) and must not be written to after
    construction.  Window edges may hold zeros; methods that depend on the
    support (argmax, trimming) look at actual magnitudes, not the window.
    """

    origin: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=np.complex128))
        if amp.ndim != 2 or amp.shape[1] != 2:
            raise ValueError(f"amplitudes must have shape (n, 2), got {amp.shape}")
        if amp.shape[0] == 0:
            raise ValueError("amplitude window must contain at least one site")
        if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amp)
        if not isinstance(self.origin, (int, np.integer)):
            raise TypeError("origin must be an integer")
        object.__setattr__(self, "origin", int(self.origin))

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return self.origin + np.arange(len(self))

    def site_norms(self) -> np.ndarray:
        """Pointwise C^2 norms ||u(x)|| over the window (site_norms)."""
        return site_norms(self.amplitudes[:, 0], self.amplitudes[:, 1])

    def value_at(self, x: int) -> np.ndarray:
        """Amplitude pair at site x, zero outside the window."""
        i = x - self.origin
        if 0 <= i < len(self):
            return self.amplitudes[i].copy()
        return np.zeros(2, dtype=np.complex128)

    def support_window(self, tol: float = 0.0) -> tuple[int, int] | None:
        """Smallest (min_site, max_site) holding every entry above tol."""
        keep = self.site_norms() > tol
        if not keep.any():
            return None
        idx = np.flatnonzero(keep)
        return self.origin + int(idx[0]), self.origin + int(idx[-1])

    def trimmed(self, tol: float = 0.0) -> "LatticeState":
        """Copy with the window shrunk to the support (keeps one zero site
        when the state vanishes identically)."""
        w = self.support_window(tol)
        if w is None:
            return LatticeState(self.origin, np.zeros((1, 2), dtype=np.complex128))
        lo, hi = w[0] - self.origin, w[1] - self.origin + 1
        return LatticeState(self.origin + lo, self.amplitudes[lo:hi].copy())


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Site-indexed nonnegative weights |u1(x)|^2 + |u2(x)|^2."""

    origin: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if w.ndim != 1 or w.shape[0] == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "origin", int(self.origin))

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return self.origin + np.arange(len(self))

    def total_mass(self) -> float:
        return float(np.sum(self.weights))


def delta_state(component: int, site: int) -> LatticeState:
    """Unit basis state delta_{component, site}; component is 1 or 2."""
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    amp = np.zeros((1, 2), dtype=np.complex128)
    amp[0, component - 1] = 1.0
    return LatticeState(int(site), amp)


def _window_union(states: Iterable[LatticeState]) -> tuple[int, int]:
    lo = min(u.origin for u in states)
    hi = max(u.origin + len(u) for u in states)
    return lo, hi


def combine(terms: Sequence[tuple[complex, LatticeState]]) -> LatticeState:
    """Linear combination sum_k c_k u_k over the union window."""
    if not terms:
        raise ValueError("need at least one term")
    lo, hi = _window_union([u for _, u in terms])
    out = np.zeros((hi - lo, 2), dtype=np.complex128)
    for c, u in terms:
        i = u.origin - lo
        out[i : i + len(u)] += complex(c) * u.amplitudes
    return LatticeState(lo, out)


def scaled(u: LatticeState, c: complex) -> LatticeState:
    return LatticeState(u.origin, complex(c) * u.amplitudes)


def l2_distance(u: LatticeState, v: LatticeState) -> float:
    """l2 norm of u - v; where it overflows, or falls below sqrt(tiny) for
    a nonzero u - v, it is m ||(u - v)/m||, m the largest real or imaginary
    part, so it is inf only beyond the float range and 0 only for u = v."""
    d = combine([(1, u), (-1, v)]).amplitudes.ravel()
    with np.errstate(over="ignore"):
        dist = float(np.linalg.norm(d))
        if dist == math.inf or dist < _SQRT_TINY:
            parts = d.view(np.float64)
            m = float(np.abs(parts).max())
            if m > 0.0:
                return m * float(np.linalg.norm(parts / m))
    return dist


def lp_norm(u: LatticeState, p: float) -> float:
    """l^p norm of the site norms ||u(x)||_{C^2}; p = inf gives the sup."""
    if not (p >= 1):
        raise ValueError("p must be >= 1")
    return lp_of_norms(u.site_norms(), p)


def lp_of_norms(norms: np.ndarray, p: float) -> float:
    """lp_norm from precomputed site norms (p already validated): their
    maximum for p = inf, else (sum norms^p)^(1/p).  Where that sum
    overflows or falls below the smallest normal double while some norm is
    nonzero, the norms are scaled by their maximum m first,
    m (sum (norms/m)^p)^(1/p), so the norm is infinite only where it
    exceeds the float range and zero only for the zero state."""
    if np.isinf(p):
        return float(norms.max())
    with np.errstate(over="ignore"):
        total = np.sum(norms**p)
    if np.isinf(total) or total < _TINY:
        m = norms.max()
        if 0.0 < m < np.inf:
            return float(m * np.sum((norms / m) ** p) ** (1.0 / p))
    return float(total ** (1.0 / p))


def weak_lp_norm(u: LatticeState, p: float) -> float:
    """Weak l^p quasinorm sup_gamma gamma * #{x : ||u(x)|| > gamma}^(1/p).

    The supremum over gamma is attained in the left limit at an order
    statistic of the site norms, so it equals max_k m_(k) * k^(1/p) with
    m_(1) >= m_(2) >= ... the sorted nonzero site norms.
    """
    if not (p >= 1) or np.isinf(p):
        raise ValueError("p must be finite and >= 1")
    return weak_lp_of_norms(u.site_norms(), p)


def weak_lp_of_norms(norms: np.ndarray, p: float) -> float:
    """weak_lp_norm from precomputed site norms (p already validated)."""
    mags = np.sort(norms[norms > 0.0])[::-1]
    if mags.size == 0:
        return 0.0
    k = np.arange(1, mags.size + 1, dtype=np.float64)
    return float(np.max(mags * k ** (1.0 / p)))


def finding_probability(u: LatticeState) -> ProbabilityDistribution:
    """Position distribution with weights ||u(x)||^2 over the window."""
    a = u.amplitudes
    w = np.abs(a[:, 0]) ** 2 + np.abs(a[:, 1]) ** 2
    return ProbabilityDistribution(u.origin, w)


def inner_product(u: LatticeState, v: LatticeState) -> complex:
    """l^2 pairing sum_x <u(x), v(x)>, linear in u and conjugate-linear in v."""
    lo = max(u.origin, v.origin)
    hi = min(u.origin + len(u), v.origin + len(v))
    if hi <= lo:
        return 0.0 + 0.0j
    a = u.amplitudes[lo - u.origin : hi - u.origin]
    b = v.amplitudes[lo - v.origin : hi - v.origin]
    return complex(np.sum(a * np.conj(b)))


def argmax_position(u: LatticeState) -> int:
    """Site of the largest ||u(x)||; ties resolve to the smallest site."""
    norms = u.site_norms()
    m = float(np.max(norms))
    if m == 0.0:
        raise ValueError("argmax of the zero state is undefined")
    return int(u.origin + int(np.argmax(norms)))


def threshold_positions(u: LatticeState, component: int, gamma: float) -> np.ndarray:
    """Sites where |u_component(x)| exceeds gamma, in increasing order."""
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    mags = np.abs(u.amplitudes[:, component - 1])
    return u.origin + np.flatnonzero(mags > gamma)


def save_state_csv(u: LatticeState, path: str) -> None:
    """Write the window as CSV rows x, re_u1, im_u1, re_u2, im_u2."""
    # The (n, 2) complex window viewed as (n, 4) floats is one row per site.
    # Python floats format faster than numpy scalars; converting a block at a
    # time keeps their lists (about 200 bytes a site) off the peak memory.
    rows = u.amplitudes.view(np.float64)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(STATE_CSV_HEADER + "\n")
        for lo in range(0, len(rows), _CSV_BLOCK):
            block = rows[lo : lo + _CSV_BLOCK].tolist()
            for x, (r1, i1, r2, i2) in enumerate(block, u.origin + lo):
                fh.write(f"{x:d},{r1:.17g},{i1:.17g},{r2:.17g},{i2:.17g}\n")


def load_state_csv(path: str) -> LatticeState:
    """Read a state written by save_state_csv: consecutive sites and finite
    amplitudes.  Each rejection names the file and its 1-based line."""
    xs: list[int] = []
    rows: list[list[float]] = []
    columns = STATE_CSV_HEADER.split(",")
    # a byte outside ASCII reads as U+FFFD, which no field accepts, so it is
    # rejected at its line like any other bad field
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline().strip()
        if header != STATE_CSV_HEADER:
            raise ValueError(f"{path}:1: unexpected state CSV header {header!r}")
        for n, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns):
                raise ValueError(
                    f"{path}:{n}: expected {len(columns)} fields, got {len(parts)}: {line!r}"
                )
            try:
                x = int(parts[0])
            except ValueError:
                raise ValueError(f"{path}:{n}: site {parts[0]!r} is not an integer") from None
            values = []
            for name, field in zip(columns[1:], parts[1:]):
                try:
                    value = float(field)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{n}: {name} {field!r} is not a finite number")
                values.append(value)
            if xs and x != xs[-1] + 1:
                raise ValueError(
                    f"{path}:{n}: site {x} does not follow site {xs[-1]}; "
                    "state CSV sites must be consecutive"
                )
            xs.append(x)
            rows.append(values)
    if not xs:
        raise ValueError(f"{path}: state CSV holds no rows")
    # each row's (re, im, re, im) pairs are the bits of its two amplitudes
    return LatticeState(xs[0], np.array(rows, dtype=np.float64).view(np.complex128))
