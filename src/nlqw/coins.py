"""U(2) coin families, linear and intensity-dependent.

A coin is a map (s1, s2) -> U(2) evaluated at the local intensities
s_j = |u_j(x)|^2 and applied pointwise.  Every family factors as a constant
linear part C0 times an intensity-dependent factor that reduces to the
identity at zero intensity, which is what the scattering diagnostics use.

Each family is one class holding what nlqw knows about it: its linear part,
its matrix at given intensities (the oracle the unitarity gate checks the
kernels against) and its vectorized kernel; the module-level functions
delegate.  A coin's JSON form is described once, by the coin branch of
config_schema.json; coin_from_json holds its input to that branch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._schema import validated
from .state import LatticeState, sum_of_squares

__all__ = [
    "UNITARITY_TOL",
    "unitarity_defect",
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
    "apply_coin",
    "nonlinear_deviation",
    "nonlinear_partial_derivatives",
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


def matrix_kernel(m: np.ndarray) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Pointwise product (u1, u2) -> m (u1, u2) with a constant 2x2 m: the
    constant coin's kernel, and every linear coin stage of the engine.  A
    real m acts through its real parts, so real input stays real."""
    if not m.imag.any():
        m = m.real
    m00, m01, m10, m11 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]

    def kern(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return m00 * u1 + m01 * u2, m10 * u1 + m11 * u2

    return kern


class CoinSpec:
    """Base of the coin families.  Each family implements _linear_part,
    _evaluate(s1, s2) (its matrix at those intensities) and _kernel.  The
    defaults below are for the families that lack the structure in
    question.

    real is True for a coin that maps real amplitudes to real amplitudes
    and whose kernel keeps real input real, so that the engine may walk
    real data on float buffers."""

    real = False
    # the number of lockstep runs a per-run parameter fixes; None for a
    # coin that any number of runs may share
    runs: int | None = None

    def _derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        raise ValueError(
            "squared-intensity derivatives exist only for the quintic exponential family"
        )

    def unit_strength(self) -> tuple[CoinSpec, float]:
        """Reference spec with unit coupling plus the amplitude scale c such
        that evolving c*u0 under the reference matches c * (evolution under
        this spec)."""
        raise ValueError(
            f"coupling of {type(self).__name__} does not enter as an intensity scale"
        )


class _Coupled(CoinSpec):
    """A family whose coupling g multiplies a power of the intensities, so
    that rescaling the amplitudes by c = |g|^(1 / (2 power)) brings g to
    unit size.  Its JSON keys are its dataclass fields."""

    def _scale(self) -> float:
        """c for the first power."""
        return float(np.sqrt(abs(self.g)))

    def unit_strength(self) -> tuple[CoinSpec, float]:
        c = self._scale()  # before the test of g, which a tuple g would pass
        if self.g == 0:
            return self, 1.0
        return replace(self, g=float(np.sign(self.g))), c

@dataclass(frozen=True, eq=False)
class ConstantCoin(CoinSpec):
    """Intensity-independent coin given by a fixed unitary matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", require_unitary(self.matrix, "coin matrix"))

    def _linear_part(self) -> np.ndarray:
        return self.matrix.copy()

    def _evaluate(self, s1: float, s2: float) -> np.ndarray:
        return self.matrix.copy()

    @property
    def real(self) -> bool:
        return not self.matrix.imag.any()

    def _kernel(self):
        return matrix_kernel(self.matrix)

    def unit_strength(self) -> tuple[CoinSpec, float]:
        return self, 1.0

@dataclass(frozen=True)
class GaltonCoin(_Coupled):
    """Balanced beam splitter followed by intensity phases exp(i g s_j)."""

    g: float

    def _linear_part(self) -> np.ndarray:
        return GALTON_LINEAR.copy()

    def _evaluate(self, s1: float, s2: float) -> np.ndarray:
        ph = np.array(
            [[np.exp(1j * self.g * s1), 0.0], [0.0, np.exp(1j * self.g * s2)]],
            dtype=np.complex128,
        )
        return GALTON_LINEAR @ ph

    def _kernel(self):
        g = self.g
        inv_sqrt2 = 1.0 / np.sqrt(2.0)

        def kern_galton(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            w1 = np.exp(1j * (g * sum_of_squares(u1))) * u1
            w2 = np.exp(1j * (g * sum_of_squares(u2))) * u2
            return inv_sqrt2 * (w1 + w2), inv_sqrt2 * (w1 - w2)

        return kern_galton


@dataclass(frozen=True)
class GrossNeveuCoin(_Coupled):
    """Opposite phases exp(-+ i g (s1 - s2)) on the rows of a rotation."""

    g: float
    theta: float

    def _linear_part(self) -> np.ndarray:
        return rotation(self.theta)

    def _evaluate(self, s1: float, s2: float) -> np.ndarray:
        d = self.g * (s1 - s2)
        ph = np.array(
            [[np.exp(-1j * d), 0.0], [0.0, np.exp(1j * d)]], dtype=np.complex128
        )
        return ph @ rotation(self.theta)

    def _kernel(self):
        g = self.g
        c, s = np.cos(self.theta), np.sin(self.theta)

        def kern_gn(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            d = g * (sum_of_squares(u1) - sum_of_squares(u2))
            ph = np.exp(1j * d)
            return np.conj(ph) * (c * u1 - s * u2), ph * (s * u1 + c * u2)

        return kern_gn


@dataclass(frozen=True)
class ThirringCoin(_Coupled):
    """Global phase exp(i g (s1 + s2)) times a rotation."""

    g: float
    theta: float

    def _linear_part(self) -> np.ndarray:
        return rotation(self.theta)

    def _evaluate(self, s1: float, s2: float) -> np.ndarray:
        return np.exp(1j * self.g * (s1 + s2)) * rotation(self.theta)

    def _kernel(self):
        g = self.g
        c, s = np.cos(self.theta), np.sin(self.theta)

        def kern_thirring(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            ph = np.exp(1j * (g * sum_of_squares(u1, u2)))
            return ph * (c * u1 - s * u2), ph * (s * u1 + c * u2)

        return kern_thirring


@dataclass(frozen=True)
class RotationPowerCoin(_Coupled):
    """Rotation by theta0 + g (s1 + s2)^p; g may take either sign.

    g may also be a nonempty tuple of floats, one per run of a lockstep
    walk: the kernel then reads its flat window as (rows, runs), row after
    row, and gives each column that run's g, bit for bit its scalar kernel.
    Such a coin has no single matrix or coupling scale, and walks only with
    len(g) runs (runs).  Every g must be finite.

    The kernel takes cos and sin only of the moved angles, those whose bits
    differ from theta0's: on a walk's window the empty parity class and the
    light-cone tails, where g (s1 + s2)^p vanishes against theta0, leave most
    angles unmoved.  Those take cos theta0 and sin theta0, computed once by
    the same numpy loops, so the outputs are the plain kernel's bit for bit.
    The angles, cos, sin and one product temporary live in scratch the
    kernel owns, grown to twice the window when a wider one comes; the two
    outputs are fresh arrays.  The kernel is therefore not reentrant: one
    thread calls it at a time.  Windows are float64 or complex128, the
    engine's buffers."""

    theta0: float
    g: float | tuple[float, ...]
    p: int

    real = True

    def __post_init__(self) -> None:
        p = self.p
        if isinstance(p, bool) or not (isinstance(p, (int, np.integer)) and p >= 1):
            raise ValueError("p must be a positive integer")
        object.__setattr__(self, "p", int(self.p))
        if isinstance(self.g, tuple):
            if not self.g:
                raise ValueError("a tuple g needs one coupling per lockstep run, got none")
            object.__setattr__(self, "g", tuple(float(g) for g in self.g))
        if not np.isfinite(self.g).all():
            raise ValueError(f"g must be finite, got {self.g}")

    @property
    def runs(self) -> int | None:
        return len(self.g) if isinstance(self.g, tuple) else None

    def _one_g(self) -> float:
        if isinstance(self.g, tuple):
            raise ValueError("this needs one coupling g, not one per lockstep run")
        return self.g

    def _linear_part(self) -> np.ndarray:
        return rotation(self.theta0)

    def _evaluate(self, s1: float, s2: float) -> np.ndarray:
        return rotation(self.theta0 + self._one_g() * (s1 + s2) ** self.p)

    def _kernel(self):
        theta0, g, p = self.theta0, self.g, self.p
        runs = len(g) if isinstance(g, tuple) else 0
        # an angle whose bits are theta0's takes cos and sin of theta0, from
        # the loops that every other angle goes through
        at0 = np.array([theta0], dtype=np.float64)
        bits0 = at0.view(np.uint64)[0]
        cos0, sin0 = np.cos(at0)[0], np.sin(at0)[0]
        cap, block, prod, tiled = -1, None, None, None

        def grow(n: int) -> None:
            # scratch for windows up to 2n entries: the angles, cos and sin
            # as rows of one block, the product temporary (complex, which a
            # float window views as floats) and a tuple g tiled row after row
            nonlocal cap, block, prod, tiled
            cap = 2 * n
            block = np.empty((3, cap))
            prod = np.empty(cap, dtype=np.complex128)
            if runs:
                tiled = np.tile(np.array(g), -(-cap // runs))

        def kern_rotpow(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            n = u1.size
            if n > cap:
                grow(n)
            th, c, sn = block[:, :n]
            sum_of_squares(u1, u2, out=th)
            if p == 2:
                np.multiply(th, th, out=th)
            elif p > 2:
                np.power(th, p, out=th)
            if runs:
                # each entry's g from one contiguous array: a broadcast over
                # (rows, runs) costs a loop of `runs` entries per row
                np.multiply(tiled[:n], th, out=th)
            else:
                np.multiply(g, th, out=th)
            np.add(theta0, th, out=th)
            moved = np.flatnonzero(th.view(np.uint64) != bits0)
            k = moved.size
            # cos and sin of the k moved angles, gathered into the product
            # temporary, which the products overwrite later; the indices are
            # in range, and mode="clip" writes `at` unbuffered
            flat = prod.view(np.float64)
            at, trig = flat[:k], flat[k : 2 * k]
            np.take(th, moved, out=at, mode="clip")
            c.fill(cos0)
            sn.fill(sin0)
            c[moved] = np.cos(at, out=trig)
            sn[moved] = np.sin(at, out=trig)
            dt = np.result_type(u1, u2, c)
            tmp = prod.view(dt)[:n]
            v1, v2 = np.empty(n, dt), np.empty(n, dt)
            np.multiply(c, u1, out=v1)
            np.multiply(sn, u2, out=tmp)
            np.subtract(v1, tmp, out=v1)
            np.multiply(sn, u1, out=v2)
            np.multiply(c, u2, out=tmp)
            np.add(v2, tmp, out=v2)
            return v1, v2

        return kern_rotpow

    def _scale(self) -> float:
        return float(abs(self._one_g()) ** (1.0 / (2.0 * self.p)))


@dataclass(frozen=True, eq=False)
class QuinticExponentialCoin(CoinSpec):
    """Intensity factor exp(i (s1^2 A1 + s2^2 A2)) with Hermitian A1, A2.

    The quadratic dependence on the intensities makes the deviation from the
    identity quintic in the amplitude once applied to the state.  The JSON
    family quintic_exponential builds ComposedCoin(c0, self).
    """

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a1", _herm2(self.a1, "a1"))
        object.__setattr__(self, "a2", _herm2(self.a2, "a2"))

    def _linear_part(self) -> np.ndarray:
        return _I2.copy()

    def _evaluate(self, s1: float, s2: float) -> np.ndarray:
        return _herm2_exp(s1 * s1 * self.a1 + s2 * s2 * self.a2)

    def _kernel(self):
        a1_00 = self.a1[0, 0].real
        a1_01 = self.a1[0, 1]
        a1_11 = self.a1[1, 1].real
        a2_00 = self.a2[0, 0].real
        a2_01 = self.a2[0, 1]
        a2_11 = self.a2[1, 1].real

        def kern_quintic(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            r1 = sum_of_squares(u1) ** 2
            r2 = sum_of_squares(u2) ** 2
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

    def _derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        return 1j * self.a1.copy(), 1j * self.a2.copy()

@dataclass(frozen=True, eq=False)
class ComposedCoin(CoinSpec):
    """Constant unitary c0 composed with a nonlinear factor family."""

    c0: np.ndarray
    inner: "CoinSpec"

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", require_unitary(self.c0, "c0"))
        if isinstance(self.inner, (ConstantCoin, ComposedCoin)):
            raise ValueError("inner factor must be an intensity-dependent family")

    @property
    def real(self) -> bool:
        return self.inner.real and not self.c0.imag.any()

    @property
    def runs(self) -> int | None:
        return self.inner.runs

    def _linear_part(self) -> np.ndarray:
        return self.c0 @ linear_part(self.inner)

    def _evaluate(self, s1: float, s2: float) -> np.ndarray:
        return self.c0 @ evaluate_coin(self.inner, s1, s2)

    def _kernel(self):
        inner = coin_kernel(self.inner)
        outer = matrix_kernel(self.c0)

        def kern_composed(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return outer(*inner(u1, u2))

        return kern_composed

    def _derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        return nonlinear_partial_derivatives(self.inner)


GALTON_LINEAR = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _family(spec: CoinSpec, error: type[Exception] = TypeError) -> CoinSpec:
    """spec itself, once it is known to be a coin spec."""
    if not isinstance(spec, CoinSpec):
        raise error(f"unknown coin spec {type(spec).__name__}")
    return spec


def linear_part(spec: CoinSpec) -> np.ndarray:
    """Constant factor of the coin; equals the full coin at zero intensity."""
    return _family(spec)._linear_part()


def _check_intensities(s1: float, s2: float) -> tuple[float, float]:
    s1, s2 = float(s1), float(s2)
    if not (np.isfinite(s1) and np.isfinite(s2)) or s1 < 0 or s2 < 0:
        raise ValueError("intensities must be finite and nonnegative")
    return s1, s2


def evaluate_coin(spec: CoinSpec, s1: float, s2: float) -> np.ndarray:
    """Coin matrix at intensities (s1, s2) = (|u1|^2, |u2|^2)."""
    s1, s2 = _check_intensities(s1, s2)
    return _family(spec)._evaluate(s1, s2)


def coin_kernel(spec: CoinSpec) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Vectorized pointwise application (u1, u2) -> coin(s1, s2) (u1, u2).

    The returned callable is the hot path shared by single steps, trajectory
    evolution and the scattering series, so every family is written with a
    handful of array operations and no per-site Python.
    """
    return _family(spec)._kernel()


def check_runs(spec: CoinSpec, runs: int) -> None:
    """Refuse a coin with one parameter per lockstep run (spec.runs) for a
    walk or application over any other number of runs."""
    if spec.runs not in (None, runs):
        raise ValueError(f"the coin has couplings for {spec.runs} lockstep runs, not {runs}")


def apply_coin(spec: CoinSpec, u: LatticeState) -> LatticeState:
    """Apply the coin pointwise; the window is unchanged."""
    check_runs(spec, 1)
    kern = coin_kernel(spec)
    v1, v2 = kern(u.amplitudes[:, 0], u.amplitudes[:, 1])
    return LatticeState(u.origin, np.column_stack([v1, v2]))


def _op_norm(m: np.ndarray) -> float:
    """Operator (spectral) norm of a matrix."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def nonlinear_deviation(spec: CoinSpec, s1: float, s2: float) -> float:
    """Operator norm of C0^{-1} C(s1, s2) - I, the intensity-driven part."""
    if isinstance(spec, ConstantCoin):
        raise ValueError("constant coin has no intensity-dependent factor")
    c0 = linear_part(spec)
    return _op_norm(c0.conj().T @ evaluate_coin(spec, s1, s2) - _I2)


def nonlinear_partial_derivatives(spec: CoinSpec) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives at zero of the squared-intensity factor.

    For the quintic exponential family the factor is exp(i(r1 A1 + r2 A2))
    in the squared intensities r_j, so the derivatives at the origin are
    exactly (i A1, i A2).  Other families do not expose this structure.
    """
    return _family(spec, ValueError)._derivatives()


# JSON family name -> the class built from the branch's other keys
_COUPLED = {
    "galton": GaltonCoin,
    "gross_neveu": GrossNeveuCoin,
    "thirring": ThirringCoin,
    "rotation_power": RotationPowerCoin,
}


def _matrix(entries: list) -> np.ndarray:
    """A 2x2 matrix from its four [re, im] entries, row-major."""
    return np.array([complex(*e) for e in entries], dtype=np.complex128).reshape(2, 2)


def coin_from_json(d: dict) -> CoinSpec:
    """Build a coin spec from its JSON description, a config's "coin".

    d is held to the coin branch of config_schema.json, whose errors name
    the offending key, and read as resolved there: a "number" as a float,
    an "integer" as an int.  The classes check what the schema cannot:
    unitarity, 0 < |a| < 1, Hermitian generators and a positive integer p.
    """
    d = validated({"coin": d})["coin"]
    family = d.pop("family")
    if family == "constant":
        return ConstantCoin(c0_from_ab(complex(*d["a"]), complex(*d["b"])))
    if family == "quintic_exponential":
        c0 = c0_from_ab(complex(*d["c0"]["a"]), complex(*d["c0"]["b"]))
        return ComposedCoin(c0, QuinticExponentialCoin(_matrix(d["a1"]), _matrix(d["a2"])))
    return _COUPLED[family](**d)
