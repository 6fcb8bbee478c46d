"""U(2) coin families, linear and intensity-dependent.

A coin is a map (s1, s2) -> U(2) evaluated at the local intensities
s_j = |u_j(x)|^2 and applied pointwise.  Every family factors as a constant
linear part C0 times an intensity-dependent factor that reduces to the
identity at zero intensity, which is what the scattering diagnostics use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .state import LatticeState

__all__ = [
    "UNITARITY_TOL",
    "unitarity_defect",
    "require_unitary",
    "rotation",
    "c0_from_ab",
    "ConstantCoin",
    "GaltonCoin",
    "GrossNeveuCoin",
    "ThirringCoin",
    "RotationPowerCoin",
    "QuinticExponentialCoin",
    "ComposedCoin",
    "CoinSpec",
    "GALTON_LINEAR",
    "linear_part",
    "evaluate_coin",
    "coin_kernel",
    "apply_coin",
    "nonlinear_deviation",
    "nonlinear_partial_derivatives",
    "coin_to_json",
    "coin_from_json",
]

UNITARITY_TOL = 1e-12

_I2 = np.eye(2, dtype=np.complex128)


def unitarity_defect(m: np.ndarray) -> float:
    """Largest entry of |M^dagger M - I|."""
    m = np.asarray(m, dtype=np.complex128)
    return float(np.max(np.abs(m.conj().T @ m - _I2)))


def require_unitary(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
    if m.shape != (2, 2):
        raise ValueError(f"{what} must be 2x2")
    if unitarity_defect(m) > UNITARITY_TOL:
        raise ValueError(f"{what} is not unitary within {UNITARITY_TOL}")
    return m


def rotation(theta: float) -> np.ndarray:
    """Real rotation R(theta) = ((cos, -sin), (sin, cos))."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def c0_from_ab(a: complex, b: complex) -> np.ndarray:
    """Canonical linear coin ((a, b), (-conj b, conj a)) with 0 < |a| < 1.

    The strict interior condition keeps the dispersion relation nondegenerate;
    |a| in {0, 1} is rejected.
    """
    a, b = complex(a), complex(b)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > UNITARITY_TOL:
        raise ValueError("need |a|^2 + |b|^2 = 1")
    if not (0.0 < abs(a) < 1.0):
        raise ValueError("need 0 < |a| < 1")
    return np.array([[a, b], [-np.conj(b), np.conj(a)]], dtype=np.complex128)


def _herm2(m: np.ndarray, what: str) -> np.ndarray:
    m = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
    if m.shape != (2, 2):
        raise ValueError(f"{what} must be 2x2")
    if np.max(np.abs(m - m.conj().T)) > UNITARITY_TOL:
        raise ValueError(f"{what} must be Hermitian")
    return m


def _herm2_exp(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian 2x2 H via the trace/traceless split."""
    c = 0.5 * (h[0, 0].real + h[1, 1].real)
    w = 0.5 * (h[0, 0].real - h[1, 1].real)
    beta = h[0, 1]
    rho = float(np.hypot(w, abs(beta)))
    sinc = np.sinc(rho / np.pi)  # sin(rho)/rho, exact 1 at rho = 0
    cosr = np.cos(rho)
    out = np.array(
        [
            [cosr + 1j * sinc * w, 1j * sinc * beta],
            [1j * sinc * np.conj(beta), cosr - 1j * sinc * w],
        ],
        dtype=np.complex128,
    )
    return np.exp(1j * c) * out


@dataclass(frozen=True, eq=False)
class ConstantCoin:
    """Intensity-independent coin given by a fixed unitary matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", require_unitary(self.matrix, "coin matrix"))


@dataclass(frozen=True)
class GaltonCoin:
    """Balanced beam splitter followed by intensity phases exp(i g s_j)."""

    g: float


@dataclass(frozen=True)
class GrossNeveuCoin:
    """Opposite phases exp(-+ i g (s1 - s2)) on the rows of a rotation."""

    g: float
    theta: float


@dataclass(frozen=True)
class ThirringCoin:
    """Global phase exp(i g (s1 + s2)) times a rotation."""

    g: float
    theta: float


@dataclass(frozen=True)
class RotationPowerCoin:
    """Rotation by theta0 + g (s1 + s2)^p; g may take either sign."""

    theta0: float
    g: float
    p: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise ValueError("p must be a positive integer")
        object.__setattr__(self, "p", int(self.p))


@dataclass(frozen=True, eq=False)
class QuinticExponentialCoin:
    """Intensity factor exp(i (s1^2 A1 + s2^2 A2)) with Hermitian A1, A2.

    The quadratic dependence on the intensities makes the deviation from the
    identity quintic in the amplitude once applied to the state.
    """

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a1", _herm2(self.a1, "a1"))
        object.__setattr__(self, "a2", _herm2(self.a2, "a2"))


@dataclass(frozen=True, eq=False)
class ComposedCoin:
    """Constant unitary c0 composed with a nonlinear factor family."""

    c0: np.ndarray
    inner: "CoinSpec"

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", require_unitary(self.c0, "c0"))
        if isinstance(self.inner, (ConstantCoin, ComposedCoin)):
            raise ValueError("inner factor must be an intensity-dependent family")


CoinSpec = Union[
    ConstantCoin,
    GaltonCoin,
    GrossNeveuCoin,
    ThirringCoin,
    RotationPowerCoin,
    QuinticExponentialCoin,
    ComposedCoin,
]

GALTON_LINEAR = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def linear_part(spec: CoinSpec) -> np.ndarray:
    """Constant factor of the coin; equals the full coin at zero intensity."""
    if isinstance(spec, ConstantCoin):
        return spec.matrix.copy()
    if isinstance(spec, GaltonCoin):
        return GALTON_LINEAR.copy()
    if isinstance(spec, (GrossNeveuCoin, ThirringCoin)):
        return rotation(spec.theta)
    if isinstance(spec, RotationPowerCoin):
        return rotation(spec.theta0)
    if isinstance(spec, QuinticExponentialCoin):
        return _I2.copy()
    if isinstance(spec, ComposedCoin):
        return spec.c0 @ linear_part(spec.inner)
    raise TypeError(f"unknown coin spec {type(spec).__name__}")


def _check_intensities(s1: float, s2: float) -> tuple[float, float]:
    s1, s2 = float(s1), float(s2)
    if not (np.isfinite(s1) and np.isfinite(s2)) or s1 < 0 or s2 < 0:
        raise ValueError("intensities must be finite and nonnegative")
    return s1, s2


def evaluate_coin(spec: CoinSpec, s1: float, s2: float) -> np.ndarray:
    """Coin matrix at intensities (s1, s2) = (|u1|^2, |u2|^2)."""
    s1, s2 = _check_intensities(s1, s2)
    if isinstance(spec, ConstantCoin):
        return spec.matrix.copy()
    if isinstance(spec, GaltonCoin):
        ph = np.array(
            [[np.exp(1j * spec.g * s1), 0.0], [0.0, np.exp(1j * spec.g * s2)]],
            dtype=np.complex128,
        )
        return GALTON_LINEAR @ ph
    if isinstance(spec, GrossNeveuCoin):
        d = spec.g * (s1 - s2)
        ph = np.array(
            [[np.exp(-1j * d), 0.0], [0.0, np.exp(1j * d)]], dtype=np.complex128
        )
        return ph @ rotation(spec.theta)
    if isinstance(spec, ThirringCoin):
        return np.exp(1j * spec.g * (s1 + s2)) * rotation(spec.theta)
    if isinstance(spec, RotationPowerCoin):
        return rotation(spec.theta0 + spec.g * (s1 + s2) ** spec.p)
    if isinstance(spec, QuinticExponentialCoin):
        return _herm2_exp(s1 * s1 * spec.a1 + s2 * s2 * spec.a2)
    if isinstance(spec, ComposedCoin):
        return spec.c0 @ evaluate_coin(spec.inner, s1, s2)
    raise TypeError(f"unknown coin spec {type(spec).__name__}")


def matrix_kernel(m: np.ndarray) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Pointwise product (u1, u2) -> m (u1, u2) with a constant 2x2 m: the
    constant coin's kernel, and every linear coin stage of the engine."""
    m00, m01, m10, m11 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]

    def kern(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return m00 * u1 + m01 * u2, m10 * u1 + m11 * u2

    return kern


def _intensity_power(s: np.ndarray, p: int) -> np.ndarray:
    if p == 1:
        return s
    if p == 2:
        return s * s
    return s**p


def coin_kernel(spec: CoinSpec) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Vectorized pointwise application (u1, u2) -> coin(s1, s2) (u1, u2).

    The returned callable is the hot path shared by single steps, trajectory
    evolution and the scattering series, so every family is written with a
    handful of array operations and no per-site Python.
    """
    if isinstance(spec, ConstantCoin):
        return matrix_kernel(spec.matrix)

    if isinstance(spec, GaltonCoin):
        g = spec.g
        inv_sqrt2 = 1.0 / np.sqrt(2.0)

        def kern_galton(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            w1 = np.exp(1j * (g * (u1.real**2 + u1.imag**2))) * u1
            w2 = np.exp(1j * (g * (u2.real**2 + u2.imag**2))) * u2
            return inv_sqrt2 * (w1 + w2), inv_sqrt2 * (w1 - w2)

        return kern_galton

    if isinstance(spec, GrossNeveuCoin):
        g = spec.g
        c, s = np.cos(spec.theta), np.sin(spec.theta)

        def kern_gn(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            d = g * ((u1.real**2 + u1.imag**2) - (u2.real**2 + u2.imag**2))
            ph = np.exp(1j * d)
            return np.conj(ph) * (c * u1 - s * u2), ph * (s * u1 + c * u2)

        return kern_gn

    if isinstance(spec, ThirringCoin):
        g = spec.g
        c, s = np.cos(spec.theta), np.sin(spec.theta)

        def kern_thirring(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            ph = np.exp(
                1j * (g * (u1.real**2 + u1.imag**2 + u2.real**2 + u2.imag**2))
            )
            return ph * (c * u1 - s * u2), ph * (s * u1 + c * u2)

        return kern_thirring

    if isinstance(spec, RotationPowerCoin):
        theta0, g, p = spec.theta0, spec.g, spec.p

        def kern_rotpow(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            s = u1.real**2 + u1.imag**2 + u2.real**2 + u2.imag**2
            th = theta0 + g * _intensity_power(s, p)
            c, sn = np.cos(th), np.sin(th)
            return c * u1 - sn * u2, sn * u1 + c * u2

        return kern_rotpow

    if isinstance(spec, QuinticExponentialCoin):
        a1_00 = spec.a1[0, 0].real
        a1_01 = spec.a1[0, 1]
        a1_11 = spec.a1[1, 1].real
        a2_00 = spec.a2[0, 0].real
        a2_01 = spec.a2[0, 1]
        a2_11 = spec.a2[1, 1].real

        def kern_quintic(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            r1 = (u1.real**2 + u1.imag**2) ** 2
            r2 = (u2.real**2 + u2.imag**2) ** 2
            alpha = r1 * a1_00 + r2 * a2_00
            delta = r1 * a1_11 + r2 * a2_11
            beta = r1 * a1_01 + r2 * a2_01
            c = 0.5 * (alpha + delta)
            w = 0.5 * (alpha - delta)
            rho = np.hypot(w, np.abs(beta))
            # np.sinc(rho / pi) with np.sinc's own arithmetic and zero guard,
            # and exp(1j * c) as cos + i sin, which gives the same bits.
            y = np.pi * (rho / np.pi)
            y[y == 0] = 1e-20
            isinc = 1j * (np.sin(y) / y)
            phase = np.empty(c.shape, dtype=np.complex128)
            np.cos(c, out=phase.real)
            np.sin(c, out=phase.imag)
            cosr = np.cos(rho)
            v1 = phase * (cosr * u1 + isinc * (w * u1 + beta * u2))
            v2 = phase * (cosr * u2 + isinc * (np.conj(beta) * u1 - w * u2))
            return v1, v2

        return kern_quintic

    if isinstance(spec, ComposedCoin):
        inner = coin_kernel(spec.inner)
        outer = matrix_kernel(spec.c0)

        def kern_composed(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return outer(*inner(u1, u2))

        return kern_composed

    raise TypeError(f"unknown coin spec {type(spec).__name__}")


def apply_coin(spec: CoinSpec, u: LatticeState) -> LatticeState:
    """Apply the coin pointwise; the window is unchanged."""
    kern = coin_kernel(spec)
    v1, v2 = kern(u.amplitudes[:, 0], u.amplitudes[:, 1])
    return LatticeState(u.origin, np.column_stack([v1, v2]))


def nonlinear_deviation(spec: CoinSpec, s1: float, s2: float) -> float:
    """Operator norm of C0^{-1} C(s1, s2) - I, the intensity-driven part."""
    if isinstance(spec, ConstantCoin):
        raise ValueError("constant coin has no intensity-dependent factor")
    c0 = linear_part(spec)
    m = c0.conj().T @ evaluate_coin(spec, s1, s2) - _I2
    return float(np.linalg.svd(m, compute_uv=False)[0])


def nonlinear_partial_derivatives(spec: CoinSpec) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives at zero of the squared-intensity factor.

    For the quintic exponential family the factor is exp(i(r1 A1 + r2 A2))
    in the squared intensities r_j, so the derivatives at the origin are
    exactly (i A1, i A2).  Other families do not expose this structure.
    """
    if isinstance(spec, ComposedCoin):
        return nonlinear_partial_derivatives(spec.inner)
    if isinstance(spec, QuinticExponentialCoin):
        return 1j * spec.a1.copy(), 1j * spec.a2.copy()
    raise ValueError("squared-intensity derivatives exist only for the quintic exponential family")


def _complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _pair_to_complex(v: object, what: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(t, (int, float)) and np.isfinite(t) for t in v)
    ):
        raise ValueError(f"{what} must be a [re, im] pair of finite numbers")
    return complex(float(v[0]), float(v[1]))


def _herm_to_json(m: np.ndarray) -> list[list[float]]:
    return [_complex_to_pair(m[i, j]) for i in range(2) for j in range(2)]


def _herm_from_json(v: object, what: str) -> np.ndarray:
    if not isinstance(v, (list, tuple)) or len(v) != 4:
        raise ValueError(f"{what} must list four [re, im] entries row-major")
    ent = [_pair_to_complex(e, f"{what} entry") for e in v]
    m = np.array([[ent[0], ent[1]], [ent[2], ent[3]]], dtype=np.complex128)
    return _herm2(m, what)


def coin_to_json(spec: CoinSpec) -> dict:
    """JSON-serializable description; inverse of coin_from_json."""
    if isinstance(spec, ConstantCoin):
        return {
            "family": "constant",
            "a": _complex_to_pair(spec.matrix[0, 0]),
            "b": _complex_to_pair(spec.matrix[0, 1]),
        }
    if isinstance(spec, GaltonCoin):
        return {"family": "galton", "g": spec.g}
    if isinstance(spec, GrossNeveuCoin):
        return {"family": "gross_neveu", "g": spec.g, "theta": spec.theta}
    if isinstance(spec, ThirringCoin):
        return {"family": "thirring", "g": spec.g, "theta": spec.theta}
    if isinstance(spec, RotationPowerCoin):
        return {
            "family": "rotation_power",
            "theta0": spec.theta0,
            "g": spec.g,
            "p": spec.p,
        }
    if isinstance(spec, ComposedCoin) and isinstance(spec.inner, QuinticExponentialCoin):
        return {
            "family": "quintic_exponential",
            "a1": _herm_to_json(spec.inner.a1),
            "a2": _herm_to_json(spec.inner.a2),
            "c0": {
                "a": _complex_to_pair(spec.c0[0, 0]),
                "b": _complex_to_pair(spec.c0[0, 1]),
            },
        }
    raise ValueError(f"coin spec {type(spec).__name__} has no JSON form")


def _require_keys(d: dict, keys: set[str], what: str) -> None:
    extra = set(d) - keys
    if extra:
        raise ValueError(f"unknown keys in {what}: {sorted(extra)}")


def coin_from_json(d: dict) -> CoinSpec:
    """Build a coin spec from its JSON description, validating all fields."""
    if not isinstance(d, dict) or "family" not in d:
        raise ValueError("coin description must be an object with a 'family' key")
    fam = d["family"]
    if fam == "constant":
        _require_keys(d, {"family", "a", "b"}, "constant coin")
        a = _pair_to_complex(d["a"], "a")
        b = _pair_to_complex(d["b"], "b")
        return ConstantCoin(c0_from_ab(a, b))
    if fam == "galton":
        _require_keys(d, {"family", "g"}, "galton coin")
        return GaltonCoin(float(d["g"]))
    if fam == "gross_neveu":
        _require_keys(d, {"family", "g", "theta"}, "gross_neveu coin")
        return GrossNeveuCoin(float(d["g"]), float(d["theta"]))
    if fam == "thirring":
        _require_keys(d, {"family", "g", "theta"}, "thirring coin")
        return ThirringCoin(float(d["g"]), float(d["theta"]))
    if fam == "rotation_power":
        _require_keys(d, {"family", "theta0", "g", "p"}, "rotation_power coin")
        p = d["p"]
        if not isinstance(p, int):
            raise ValueError("p must be an integer")
        return RotationPowerCoin(float(d["theta0"]), float(d["g"]), p)
    if fam == "quintic_exponential":
        _require_keys(d, {"family", "a1", "a2", "c0"}, "quintic_exponential coin")
        c0d = d["c0"]
        if not isinstance(c0d, dict):
            raise ValueError("c0 must be an object with keys a, b")
        _require_keys(c0d, {"a", "b"}, "c0")
        c0 = c0_from_ab(_pair_to_complex(c0d["a"], "c0.a"), _pair_to_complex(c0d["b"], "c0.b"))
        inner = QuinticExponentialCoin(
            _herm_from_json(d["a1"], "a1"), _herm_from_json(d["a2"], "a2")
        )
        return ComposedCoin(c0, inner)
    raise ValueError(f"unknown coin family {fam!r}")
