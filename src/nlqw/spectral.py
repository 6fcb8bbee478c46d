"""Fourier analysis of the linear walk: symbol, dispersion relation,
eigenprojections, oscillatory-integral kernels, exact spectral propagation,
and the ballistic weak-limit density.

The linear walk U0 = S C0 with C0 = ((a, b), (-conj b, conj a)) is
diagonalized by the Fourier transform (F u)(xi) = sum_x e^{-i x xi} u(x).
Its symbol has eigenvalues exp(+-i p(xi + theta_a)) where
p(xi) = arccos(|a| cos xi) and theta_a = arg a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coins import ConstantCoin, c0_from_ab
from .evolution import Recorder, evolve
from .state import (
    LatticeState,
    ProbabilityDistribution,
    delta_state,
    finding_probability,
    lp_norm,
)

__all__ = [
    "SymbolData",
    "DensityCurve",
    "DecayFit",
    "symbol",
    "dispersion",
    "curvature_lower_bound",
    "curvature_minimum",
    "eigenprojections",
    "oscillatory_integral",
    "spectral_propagate",
    "konno_density",
    "weak_limit_density",
    "weak_limit_cdf",
    "empirical_scaled_cdf",
    "kolmogorov_distance",
    "decay_fit",
    "weak_l4_decay_check",
    "strichartz_ratio",
]


def symbol(xi: float | np.ndarray, a: complex, b: complex) -> np.ndarray:
    """Symbol U0(xi) of the linear walk, shape (..., 2, 2)."""
    a, b = map(complex, c0_from_ab(a, b)[0])
    xi = np.asarray(xi, dtype=np.float64)
    e = np.exp(1j * xi)
    out = np.empty(xi.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = e * a
    out[..., 0, 1] = e * b
    out[..., 1, 0] = -np.conj(e * b)
    out[..., 1, 1] = np.conj(e * a)
    return out


def dispersion(
    xi: float | np.ndarray, mod_a: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """p(xi) = arccos(|a| cos xi) and its first three derivatives.

    Closed forms, valid for 0 < |a| < 1 where p is analytic:
      p'   = |a| sin xi / q
      p''  = |a| (1 - |a|^2) cos xi / q^3
      p''' = -|a| (1 - |a|^2) (1 + 2 |a|^2 cos^2 xi) sin xi / q^5
    with q = sqrt(1 - |a|^2 cos^2 xi).
    """
    r = float(mod_a)
    if not (0.0 < r < 1.0):
        raise ValueError("need 0 < |a| < 1")
    xi = np.asarray(xi, dtype=np.float64)
    c, s = np.cos(xi), np.sin(xi)
    q2 = 1.0 - (r * c) ** 2
    q = np.sqrt(q2)
    p0 = np.arccos(r * c)
    p1 = r * s / q
    p2 = r * (1.0 - r * r) * c / (q2 * q)
    p3 = -r * (1.0 - r * r) * (1.0 + 2.0 * r * r * c * c) * s / (q2 * q2 * q)
    return p0, p1, p2, p3


def curvature_minimum(mod_a: float, n_grid: int = 100001) -> tuple[float, float]:
    """Grid minimum of (((1 + 2|a|^2)/(1 - |a|^2)) p'')^2 + (p''')^2 and the
    xi achieving it."""
    r = float(mod_a)
    if not (0.0 < r < 1.0):
        raise ValueError("need 0 < |a| < 1")
    xi = np.linspace(0.0, 2.0 * np.pi, int(n_grid))
    _, _, p2, p3 = dispersion(xi, r)
    vals = ((1.0 + 2.0 * r * r) / (1.0 - r * r) * p2) ** 2 + p3**2
    i = int(np.argmin(vals))
    return float(vals[i]), float(xi[i])


def curvature_lower_bound(mod_a: float, n_grid: int = 100001) -> float:
    """Minimum over xi of the combined curvature functional; bounded below
    by |a|^2 (1 - |a|^2)^2, which is attained at cos xi = 0."""
    return curvature_minimum(mod_a, n_grid)[0]


def _projection_grid(
    xi: np.ndarray, a: complex, b: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projections Pi+(xi), Pi-(xi) of the symbol, vectorized.

    Uses the resolvent form Pi+- = (U0(xi) - lambda_-+ I) / (lambda_+- -
    lambda_-+), exact for a normal matrix with distinct eigenvalues; the
    gap |lambda_+ - lambda_-| = 2 sqrt(1 - w^2) >= 2 sqrt(1 - |a|^2) > 0.
    """
    sym = symbol(xi, a, b)
    w = sym[..., 0, 0].real  # Re(e^{i xi} a) = |a| cos(xi + theta_a)
    s = np.sqrt(np.maximum(1.0 - w * w, 0.0))
    lam_p = w + 1j * s
    lam_m = w - 1j * s
    denom = (lam_p - lam_m)[..., None, None]
    eye = np.zeros_like(sym)
    eye[..., 0, 0] = 1.0
    eye[..., 1, 1] = 1.0
    pi_p = (sym - lam_m[..., None, None] * eye) / denom
    pi_m = (sym - lam_p[..., None, None] * eye) / (-denom)
    return pi_p, pi_m


def eigenprojections(xi: float, a: complex, b: complex) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one spectral projections of U0(xi) onto the +- branches."""
    a, b = map(complex, c0_from_ab(a, b)[0])
    pi_p, pi_m = _projection_grid(np.asarray(float(xi)), a, b)
    return pi_p, pi_m


@dataclass(frozen=True)
class SymbolData:
    """Symbol of a linear walk with coin ((a, b), (-conj b, conj a)).

    Bundles the dispersion phase, eigenvalues and eigenprojections; the
    eigenvalues are exp(+-i p(xi + theta_a)) with theta_a = arg a.
    """

    a: complex
    b: complex

    def __post_init__(self) -> None:
        a, b = map(complex, c0_from_ab(self.a, self.b)[0])
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def mod_a(self) -> float:
        return abs(self.a)

    @property
    def theta_a(self) -> float:
        return float(np.angle(self.a))

    def matrix(self, xi: float | np.ndarray) -> np.ndarray:
        return symbol(xi, self.a, self.b)

    def dispersion(self, xi: float | np.ndarray):
        return dispersion(xi, self.mod_a)

    def eigenvalues(self, xi: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xi = np.asarray(xi, dtype=np.float64)
        ptilde = np.arccos(self.mod_a * np.cos(xi + self.theta_a))
        return np.exp(1j * ptilde), np.exp(-1j * ptilde)

    def projections(self, xi: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _projection_grid(np.asarray(xi, dtype=np.float64), self.a, self.b)


def _require_pow2(n: int) -> None:
    if n < 64 or (n & (n - 1)) != 0:
        raise ValueError("quadrature size must be a power of two, at least 64")


def oscillatory_integral(
    t: int,
    s: float,
    branch: int,
    a: complex,
    b: complex,
    n_points: int = 4096,
) -> np.ndarray:
    """Kernel integral (1/2pi) int e^{i t (branch * p(xi) + s (xi - theta_a))}
    Q_branch(xi) d xi by the N-point torus trapezoid rule.

    Q_+-(xi) = Pi_+-(xi - theta_a).  The rule is spectrally accurate when
    t * s is an integer (the integrand is then 2pi-periodic); reconstruction
    uses s = x / t with integer x.  Guard: N >= 8 t.
    """
    a, b = map(complex, c0_from_ab(a, b)[0])
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    _require_pow2(n_points)
    if n_points < 8 * max(t, 1):
        raise ValueError("quadrature too coarse for this t; need N >= 8 t")
    theta_a = float(np.angle(a))
    xi = 2.0 * np.pi * np.arange(n_points) / n_points
    p0 = np.arccos(abs(a) * np.cos(xi))
    pi_p, pi_m = _projection_grid(xi - theta_a, a, b)
    q = pi_p if branch == 1 else pi_m
    phase = np.exp(1j * (t * branch * p0 + (t * s) * (xi - theta_a)))
    return (phase[:, None, None] * q).mean(axis=0)


def _next_pow2(n: int) -> int:
    m = 64
    while m < n:
        m *= 2
    return m


def spectral_propagate(
    u0: LatticeState, a: complex, b: complex, t: int, grid_size: int | None = None
) -> LatticeState:
    """Evolve t steps of the linear walk by FFT diagonalization.

    Embeds the window in a ring large enough that the light cone never
    wraps, applies exp(+-i t p~(xi)) on the eigenprojections per frequency,
    and returns the full light-cone window.
    """
    a, b = map(complex, c0_from_ab(a, b)[0])
    if t < 0:
        raise ValueError("t must be nonnegative")
    n0 = len(u0)
    need = n0 + 2 * t + 64
    n = _next_pow2(need if grid_size is None else max(grid_size, need))
    f1 = np.zeros(n, dtype=np.complex128)
    f2 = np.zeros(n, dtype=np.complex128)
    pad = t + 32
    f1[pad : pad + n0] = u0.amplitudes[:, 0]
    f2[pad : pad + n0] = u0.amplitudes[:, 1]

    xi = 2.0 * np.pi * np.arange(n) / n
    sym = symbol(xi, a, b)
    w = sym[:, 0, 0].real
    sq = np.sqrt(np.maximum(1.0 - w * w, 0.0))
    ptilde = np.arccos(np.clip(w, -1.0, 1.0))
    ep = np.exp(1j * t * ptilde)
    em = np.conj(ep)
    lam_m = w - 1j * sq
    denom = 2j * sq
    # U0^t = e^{i t p~} Pi+ + e^{-i t p~} Pi- with Pi+ = (U0 - lam_- I)/(2 i s)
    m00 = (ep * (sym[:, 0, 0] - lam_m) + em * (lam_m + 2j * sq - sym[:, 0, 0])) / denom
    m01 = (ep - em) * sym[:, 0, 1] / denom
    m10 = (ep - em) * sym[:, 1, 0] / denom
    m11 = (ep * (sym[:, 1, 1] - lam_m) + em * (lam_m + 2j * sq - sym[:, 1, 1])) / denom

    g1 = np.fft.fft(f1)
    g2 = np.fft.fft(f2)
    h1 = m00 * g1 + m01 * g2
    h2 = m10 * g1 + m11 * g2
    r1 = np.fft.ifft(h1)
    r2 = np.fft.ifft(h2)

    lo = pad - t
    hi = pad + n0 + t
    amp = np.column_stack([r1[lo:hi], r2[lo:hi]])
    return LatticeState(u0.origin - t, amp)


def konno_density(v: float | np.ndarray, r: float) -> np.ndarray:
    """Arcsine-type density sqrt(1 - r^2) / (pi (1 - v^2) sqrt(r^2 - v^2))
    on |v| < r, zero outside; r = |a| in (0, 1)."""
    r = float(r)
    if not (0.0 < r < 1.0):
        raise ValueError("need 0 < r < 1")
    v = np.asarray(v, dtype=np.float64)
    inside = np.abs(v) < r
    out = np.zeros_like(v)
    vv = v[inside]
    out[inside] = np.sqrt(1.0 - r * r) / (
        np.pi * (1.0 - vv * vv) * np.sqrt(r * r - vv * vv)
    )
    return out


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Sampled density over a velocity grid plus its total integral."""

    grid: np.ndarray
    density: np.ndarray
    total_mass: float

    def __post_init__(self) -> None:
        g = np.ascontiguousarray(np.asarray(self.grid, dtype=np.float64))
        d = np.ascontiguousarray(np.asarray(self.density, dtype=np.float64))
        if g.ndim != 1 or g.shape != d.shape:
            raise ValueError("grid and density must be matching 1-d arrays")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", d)


def _fourier_values(u: LatticeState, eta: np.ndarray) -> np.ndarray:
    """u^(eta) = sum_x e^{-i x eta} u(x) as an (len(eta), 2) array.

    Horner's rule in z = e^{-i eta} over the window, then one phase for the
    window's origin, so memory is O(len(eta)) whatever the window's length.
    Each component has its own contiguous accumulator.  The products keep
    the order acc * z, since complex products are not bitwise commutative,
    and are not taken in place: an in-place product of one-element arrays
    rounds differently.
    """
    z = np.exp(-1j * eta)
    acc1 = np.zeros(len(eta), dtype=np.complex128)
    acc2 = np.zeros(len(eta), dtype=np.complex128)
    for c1, c2 in u.amplitudes[::-1].tolist():
        acc1 = acc1 * z
        acc1 += c1
        acc2 = acc2 * z
        acc2 += c2
    phase = np.exp(-1j * u.origin * eta)
    return np.column_stack([acc1 * phase, acc2 * phase])


# Velocity points per block of _weight_function: the working set is a few
# (block, 2, 2) complex arrays, whatever the grid's length.
_BLOCK = 2048


def _weight_function(
    u_plus: LatticeState, a: complex, b: complex, v: np.ndarray
) -> np.ndarray:
    """Branch weight w(v) averaging the projected Fourier mass of u_plus
    over the four stationary frequencies of the velocity-v direction.

    The roots xi_{+-,m}(v) = m pi + arcsin(-+ (-1)^m |b| v / (|a|
    sqrt(1 - v^2))) share one sine per branch and alternate the cosine sign.
    """
    theta_a = float(np.angle(a))
    mod_a, mod_b = abs(a), abs(b)
    v = np.asarray(v, dtype=np.float64)
    w = np.zeros_like(v)
    # Every operation is pointwise in v, so blocks of _BLOCK points bound the
    # working set without changing a bit of the result.
    for lo in range(0, len(v), _BLOCK):
        vb = v[lo : lo + _BLOCK]
        wb = w[lo : lo + _BLOCK]
        arg = np.clip(mod_b * vb / (mod_a * np.sqrt(1.0 - vb * vb)), -1.0, 1.0)
        for branch_sign in (1.0, -1.0):
            for m in (0, 1):
                root = m * np.pi + np.arcsin(-branch_sign * (-1.0) ** m * arg)
                eta = root - theta_a
                uhat = _fourier_values(u_plus, eta)
                pi_p, pi_m = _projection_grid(eta, a, b)
                q = pi_p if branch_sign > 0 else pi_m
                qu = np.einsum("kij,kj->ki", q, uhat)
                wb += np.real(np.einsum("ki,ki->k", np.conj(uhat), qu))
    return 0.5 * w


@lru_cache(maxsize=1)
def _angle_integrand(
    origin: int, amp_bytes: bytes, a: complex, b: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (phi, density in phi) on 20001 points of [-pi/2, pi/2],
    where v = |a| sin(phi) removes the edge singularities.  The state enters
    by value, so one cached entry serves the density and the CDF of a state.
    """
    u_plus = LatticeState(origin, np.frombuffer(amp_bytes, np.complex128).reshape(-1, 2))
    r = abs(a)
    phi = np.linspace(-np.pi / 2.0, np.pi / 2.0, 20001)
    vphi = r * np.sin(phi)
    integrand = _weight_function(u_plus, a, b, vphi) * np.sqrt(1.0 - r * r) / (
        np.pi * (1.0 - vphi**2)
    )
    phi.flags.writeable = False
    integrand.flags.writeable = False
    return phi, integrand


def weak_limit_density(
    u_plus: LatticeState, a: complex, b: complex, v_grid: np.ndarray | None = None
) -> DensityCurve:
    """Limiting rescaled-position density w(v) f_K(v; |a|) for the linear
    walk started from u_plus.

    total_mass integrates the density with the singularity removed by the
    substitution v = |a| sin(phi); it equals the squared l2 norm of u_plus.
    """
    a, b = map(complex, c0_from_ab(a, b)[0])
    if v_grid is None:
        v_grid = np.linspace(-1.0, 1.0, 2001)
    v_grid = np.asarray(v_grid, dtype=np.float64)
    r = abs(a)
    density = np.zeros_like(v_grid)
    inside = np.abs(v_grid) < r
    if inside.any():
        vv = v_grid[inside]
        density[inside] = _weight_function(u_plus, a, b, vv) * konno_density(vv, r)

    phi, integrand = _angle_integrand(u_plus.origin, u_plus.amplitudes.tobytes(), a, b)
    total = float(np.trapezoid(integrand, phi))
    return DensityCurve(v_grid, density, total)


def weak_limit_cdf(
    u_plus: LatticeState, a: complex, b: complex, v_grid: np.ndarray
) -> np.ndarray:
    """Cumulative limit distribution on the given grid, by quadrature in the
    angle variable phi = arcsin(v / |a|) where the density is smooth."""
    a, b = map(complex, c0_from_ab(a, b)[0])
    v_grid = np.asarray(v_grid, dtype=np.float64)
    phi, integrand = _angle_integrand(u_plus.origin, u_plus.amplitudes.tobytes(), a, b)
    dphi = phi[1] - phi[0]
    seg = 0.5 * (integrand[1:] + integrand[:-1]) * dphi
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    phi_query = np.arcsin(np.clip(v_grid / abs(a), -1.0, 1.0))
    return np.interp(phi_query, phi, cum)


def empirical_scaled_cdf(
    u_t: LatticeState, t: int, v_grid: np.ndarray
) -> np.ndarray:
    """CDF of the rescaled position X_t / t under the finding probability
    of u_t, evaluated at each grid velocity."""
    if t <= 0:
        raise ValueError("t must be positive")
    dist: ProbabilityDistribution = finding_probability(u_t)
    sites = dist.sites.astype(np.float64)
    cum = np.cumsum(dist.weights)
    v_grid = np.asarray(v_grid, dtype=np.float64)
    idx = np.searchsorted(sites, v_grid * t, side="right")
    out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    return out


def kolmogorov_distance(f: np.ndarray, g: np.ndarray) -> float:
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError("CDF arrays must have the same shape")
    return float(np.max(np.abs(f - g)))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (log10 t, log10 value) on [t_min, t_max]."""

    slope: float
    intercept: float
    t_min: int
    t_max: int
    residual_rms: float

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "t_min": self.t_min,
            "t_max": self.t_max,
        }


def decay_fit(
    ts: np.ndarray, values: np.ndarray, t_min: int, t_max: int
) -> DecayFit:
    """Fit log10(values) vs log10(t) over t in [t_min, t_max]."""
    ts = np.asarray(ts, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if ts.shape != values.shape:
        raise ValueError("ts and values must match")
    sel = (ts >= t_min) & (ts <= t_max) & (ts > 0)
    if np.count_nonzero(sel) < 2:
        raise ValueError("fit window holds fewer than two samples")
    if np.any(values[sel] <= 0):
        raise ValueError("values must be positive inside the fit window")
    lx = np.log10(ts[sel])
    ly = np.log10(values[sel])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return DecayFit(
        float(slope),
        float(intercept),
        int(t_min),
        int(t_max),
        float(np.sqrt(np.mean(resid**2))),
    )


def weak_l4_decay_check(a: complex, b: complex, horizon: int) -> np.ndarray:
    """Running max over t <= horizon of <t>^{1/4} times the weak-l4 norm of
    the linear evolution of delta_{1,0}; <t> = sqrt(1 + t^2)."""
    spec = ConstantCoin(c0_from_ab(a, b))
    traj = evolve(delta_state(1, 0), spec, horizon, Recorder(weak_lp=(4.0,)))
    wl4 = traj.series["weak_lp_4"]
    t = np.arange(horizon + 1, dtype=np.float64)
    scaled_series = (1.0 + t * t) ** 0.125 * wl4
    return np.maximum.accumulate(scaled_series)


def strichartz_ratio(u0: LatticeState, a: complex, b: complex, horizon: int) -> float:
    """max(sup_t l2, (sum_{t<=T} sup_x ||u(t,x)||^6)^{1/6}) / ||u0||_2 for
    the linear evolution; finite uniformly in T by the dispersive bound."""
    spec = ConstantCoin(c0_from_ab(a, b))
    traj = evolve(u0, spec, horizon, Recorder(lp=(2.0, np.inf)))
    l2 = traj.series["lp_2"]
    linf = traj.series["lp_inf"]
    denom = lp_norm(u0, 2)
    if denom == 0:
        raise ValueError("u0 must be nonzero")
    return float(max(np.max(l2), float(np.sum(linf**6) ** (1.0 / 6.0))) / denom)
