"""Coin families: construction, unitarity, deviations, and JSON forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlqw import (
    ComposedCoin,
    ConstantCoin,
    GaltonCoin,
    GrossNeveuCoin,
    QuinticExponentialCoin,
    RotationPowerCoin,
    ThirringCoin,
    apply_coin,
    c0_from_ab,
    coin_from_json,
    combine,
    delta_state,
    evaluate_coin,
    l2_distance,
    linear_part,
    nonlinear_deviation,
    nonlinear_partial_derivatives,
    rotation,
    scaled,
)
from nlqw._schema import config_schema
from nlqw.coins import coin_kernel

I2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
R = 1.0 / np.sqrt(2.0)


def unitarity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - I2)))


def quintic(a1: np.ndarray, a2: np.ndarray, c0=None) -> ComposedCoin:
    return ComposedCoin(
        c0_from_ab(R, R) if c0 is None else c0, QuinticExponentialCoin(a1, a2)
    )


intensity = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
angle = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)
coupling = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def coin_specs(draw):
    fam = draw(st.integers(min_value=0, max_value=5))
    if fam == 0:
        th = draw(angle)
        return ConstantCoin(rotation(th))
    if fam == 1:
        return GaltonCoin(draw(coupling))
    if fam == 2:
        return GrossNeveuCoin(draw(coupling), draw(angle))
    if fam == 3:
        return ThirringCoin(draw(coupling), draw(angle))
    if fam == 4:
        return RotationPowerCoin(
            draw(angle), draw(coupling), draw(st.integers(1, 3))
        )
    h1 = draw(coupling)
    h2 = draw(coupling)
    return quintic(h1 * SIGMA_X, h2 * SIGMA_Z)


@st.composite
def small_states(draw, max_sites: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_sites))
    vals = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    rows = draw(
        st.lists(st.tuples(vals, vals, vals, vals), min_size=n, max_size=n)
    )
    amp = np.array(
        [[complex(a, b), complex(c, d)] for a, b, c, d in rows],
        dtype=np.complex128,
    )
    from nlqw import LatticeState

    return LatticeState(draw(st.integers(-10, 10)), amp)


class TestC0FromAb:
    def test_balanced_real_pair(self):
        m = c0_from_ab(R, R)
        expect = np.array([[R, R], [-R, R]], dtype=np.complex128)
        assert np.array_equal(m, expect)

    def test_complex_a_is_unitary(self):
        m = c0_from_ab(R * np.exp(1j * np.pi / 4.0), R)
        assert unitarity_defect(m) <= 1e-15

    def test_rejects_modulus_one(self):
        with pytest.raises(ValueError):
            c0_from_ab(1.0, 0.0)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            c0_from_ab(0.9, 0.9)


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(rotation(0.0), I2)

    def test_quarter_turn(self):
        m = rotation(np.pi / 2.0)
        assert np.max(np.abs(m - np.array([[0.0, -1.0], [1.0, 0.0]]))) <= 1e-16

    @given(alpha=angle, beta=angle)
    @settings(max_examples=100, deadline=None)
    def test_group_law(self, alpha, beta):
        lhs = rotation(alpha) @ rotation(beta)
        assert np.max(np.abs(lhs - rotation(alpha + beta))) <= 1e-14


class TestEvaluateCoin:
    ALL_FAMILIES = [
        GaltonCoin(0.7),
        GrossNeveuCoin(0.5, 0.3),
        ThirringCoin(0.9, 1.1),
        RotationPowerCoin(np.pi / 4.0, -0.8, 2),
        quintic(0.3 * SIGMA_X, 0.2 * SIGMA_Z),
    ]

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: type(s).__name__)
    def test_zero_intensity_gives_linear_part(self, spec):
        diff = np.abs(evaluate_coin(spec, 0.0, 0.0) - linear_part(spec))
        assert np.max(diff) <= 1e-15

    def test_stationary_rotation_cancels(self):
        # At the amplitude where the intensity term exactly undoes theta0
        # the full coin degenerates to the identity.
        g, p = -0.8, 2
        a = (np.pi / (4.0 * abs(g))) ** (1.0 / (2 * p))
        spec = RotationPowerCoin(np.pi / 4.0, g, p)
        m = evaluate_coin(spec, a * a, 0.0)
        assert np.max(np.abs(m - I2)) <= 1e-14

    @given(s1=intensity, s2=intensity)
    @settings(max_examples=80, deadline=None)
    def test_thirring_determinant(self, s1, s2):
        g, th = 0.6, 0.4
        det = np.linalg.det(evaluate_coin(ThirringCoin(g, th), s1, s2))
        assert det == pytest.approx(np.exp(2j * g * (s1 + s2)), abs=1e-13)

    @given(spec=coin_specs(), s1=intensity, s2=intensity)
    @settings(max_examples=200, deadline=None)
    def test_always_unitary(self, spec, s1, s2):
        assert unitarity_defect(evaluate_coin(spec, s1, s2)) <= 1e-12

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            evaluate_coin(GaltonCoin(1.0), -0.1, 0.0)


class TestApplyCoin:
    def test_constant_on_delta(self):
        a, b = 0.6, 0.8
        spec = ConstantCoin(c0_from_ab(a, b))
        got = apply_coin(spec, delta_state(1, 0))
        want = combine([(a, delta_state(1, 0)), (-b, delta_state(2, 0))])
        assert l2_distance(got, want) == 0.0

    @given(u=small_states(), spec=coin_specs())
    @settings(max_examples=100, deadline=None)
    def test_sitewise_norm_preserved(self, u, spec):
        before = u.site_norms()
        after = apply_coin(spec, u).site_norms()
        assert np.max(np.abs(after - before)) <= 1e-13

    @given(u=small_states())
    @settings(max_examples=60, deadline=None)
    def test_galton_without_coupling_is_constant(self, u):
        balanced = np.array([[R, R], [R, -R]], dtype=np.complex128)
        got = apply_coin(GaltonCoin(0.0), u)
        want = apply_coin(ConstantCoin(balanced), u)
        assert l2_distance(got, want) <= 1e-15

    @given(u=small_states(), spec=coin_specs(), alpha=angle)
    @settings(max_examples=100, deadline=None)
    def test_gauge_property(self, u, spec, alpha):
        phase = np.exp(1j * alpha)
        lhs = apply_coin(spec, scaled(u, phase))
        rhs = scaled(apply_coin(spec, u), phase)
        assert l2_distance(lhs, rhs) <= 1e-12


def np_sinc_quintic_kernel(spec: QuinticExponentialCoin):
    """The quintic kernel as written with np.sinc and np.exp, kept as the
    reference for the inlined one."""
    a1_00, a1_01, a1_11 = spec.a1[0, 0].real, spec.a1[0, 1], spec.a1[1, 1].real
    a2_00, a2_01, a2_11 = spec.a2[0, 0].real, spec.a2[0, 1], spec.a2[1, 1].real

    def kern(u1, u2):
        r1 = (u1.real**2 + u1.imag**2) ** 2
        r2 = (u2.real**2 + u2.imag**2) ** 2
        alpha = r1 * a1_00 + r2 * a2_00
        delta = r1 * a1_11 + r2 * a2_11
        beta = r1 * a1_01 + r2 * a2_01
        c = 0.5 * (alpha + delta)
        w = 0.5 * (alpha - delta)
        rho = np.hypot(w, np.abs(beta))
        sinc = np.sinc(rho / np.pi)
        phase = np.exp(1j * c)
        cosr = np.cos(rho)
        v1 = phase * (cosr * u1 + 1j * sinc * (w * u1 + beta * u2))
        v2 = phase * (cosr * u2 + 1j * sinc * (np.conj(beta) * u1 - w * u2))
        return v1, v2

    return kern


class TestQuinticKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_match_the_np_sinc_kernel(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        h = h + np.conj(np.swapaxes(h, 1, 2))
        # Traces of opposite sign give a phase c of both signs, unlike the
        # shipped coin, where c cancels to zero.
        for k, trace in ((0, 6.0), (1, -6.0)):
            h[k] += (trace - np.trace(h[k]).real) / 2.0 * np.eye(2)
        h *= rng.uniform(1.0, 20.0)
        spec = QuinticExponentialCoin(h[0], h[1])
        n = 120_000
        u = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        u *= rng.uniform(0.01, 2.0, size=n)
        u[:, :1000] = 0.0
        u[:, 1000:2000] = 5e-324 + 5e-324j
        u[0, 2000:3000] = -5e-324j
        u[1, 3000:4000] = 1e-160
        c = np.abs(u[0]) ** 4 * (h[0, 0, 0] + h[0, 1, 1]).real
        c += np.abs(u[1]) ** 4 * (h[1, 0, 0] + h[1, 1, 1]).real
        assert np.any(c > 0) and np.any(c < 0)
        kern, ref = coin_kernel(spec), np_sinc_quintic_kernel(spec)
        # Whole arrays, and windows on both sides of numpy's 256 KiB
        # temporary-elision threshold (16384 complex sites).
        for size in (n, 16383, 16384, 1000):
            got = kern(u[0, :size].copy(), u[1, :size].copy())
            want = ref(u[0, :size].copy(), u[1, :size].copy())
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


class TestNonlinearDeviation:
    NONLINEAR = [
        GaltonCoin(0.7),
        GrossNeveuCoin(0.5, 0.3),
        ThirringCoin(0.9, 1.1),
        RotationPowerCoin(0.2, -0.8, 1),
        quintic(0.3 * SIGMA_X, 0.2 * SIGMA_Z),
    ]

    @pytest.mark.parametrize("spec", NONLINEAR, ids=lambda s: type(s).__name__)
    def test_zero_at_zero_intensity(self, spec):
        assert nonlinear_deviation(spec, 0.0, 0.0) <= 1e-15

    def test_rejects_constant_coin(self):
        with pytest.raises(ValueError):
            nonlinear_deviation(ConstantCoin(rotation(0.3)), 0.1, 0.1)

    @given(s1=intensity, s2=intensity)
    @settings(max_examples=80, deadline=None)
    def test_quintic_bounded_by_generator_norm(self, s1, s2):
        a1 = 0.3 * SIGMA_X
        a2 = 0.2 * SIGMA_Z
        spec = quintic(a1, a2)
        h = s1 * s1 * a1 + s2 * s2 * a2
        bound = float(np.linalg.svd(h, compute_uv=False)[0])
        assert nonlinear_deviation(spec, s1, s2) <= bound + 1e-13

    @given(s=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_thirring_closed_form(self, s):
        g = 0.7
        got = nonlinear_deviation(ThirringCoin(g, 0.0), s, 0.0)
        assert got == pytest.approx(2.0 * abs(np.sin(g * s / 2.0)), abs=1e-12)


class TestPartialDerivatives:
    def test_zero_generators(self):
        d1, d2 = nonlinear_partial_derivatives(quintic(0.0 * I2, 0.0 * I2))
        assert np.array_equal(d1, np.zeros((2, 2)))
        assert np.array_equal(d2, np.zeros((2, 2)))

    def test_closed_form(self):
        a1 = 0.3 * SIGMA_X
        a2 = 0.2 * SIGMA_Z
        d1, d2 = nonlinear_partial_derivatives(quintic(a1, a2))
        assert np.array_equal(d1, 1j * a1)
        assert np.array_equal(d2, 1j * a2)

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_finite_difference_agrees(self, h):
        a1 = 0.3 * SIGMA_X
        spec = quintic(a1, 0.2 * SIGMA_Z)
        c0 = linear_part(spec)
        # The factor in the squared intensities at (h, 0) is reached by
        # evaluating the coin at amplitude intensity sqrt(h).
        factor = c0.conj().T @ evaluate_coin(spec, np.sqrt(h), 0.0)
        fd = (factor - I2) / h
        d1, _ = nonlinear_partial_derivatives(spec)
        norm_a = float(np.linalg.svd(a1, compute_uv=False)[0])
        assert np.max(np.abs(fd - d1)) <= h * norm_a**2

    def test_rejects_families_without_closed_form(self):
        with pytest.raises(ValueError):
            nonlinear_partial_derivatives(GaltonCoin(0.5))


class TestJsonRoundTrip:
    # one literal JSON example per branch of the schema's coin oneOf, with
    # the spec it describes
    EXAMPLES = [
        (
            {"family": "constant", "a": [0.6, 0.0], "b": [0.8, 0.0]},
            ConstantCoin(c0_from_ab(0.6, 0.8)),
        ),
        ({"family": "galton", "g": -0.3}, GaltonCoin(-0.3)),
        ({"family": "gross_neveu", "g": 0.5, "theta": 0.3}, GrossNeveuCoin(0.5, 0.3)),
        ({"family": "thirring", "g": 0.9, "theta": 1.1}, ThirringCoin(0.9, 1.1)),
        (
            {"family": "rotation_power", "theta0": np.pi / 4.0, "g": -0.8, "p": 2},
            RotationPowerCoin(np.pi / 4.0, -0.8, 2),
        ),
        (
            {
                "family": "quintic_exponential",
                "a1": [[0.0, 0.0], [0.3, 0.0], [0.3, 0.0], [0.0, 0.0]],
                "a2": [[0.2, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.2, 0.0]],
                "c0": {"a": [R, 0.0], "b": [R, 0.0]},
            },
            quintic(0.3 * SIGMA_X, 0.2 * SIGMA_Z),
        ),
    ]

    @pytest.mark.parametrize(
        "d, spec", EXAMPLES, ids=[type(spec).__name__ for _, spec in EXAMPLES]
    )
    def test_round_trip_preserves_evaluation(self, d, spec):
        back = coin_from_json(d)
        assert type(back) is type(spec)
        for s1, s2 in [(0.0, 0.0), (0.3, 0.1), (1.7, 2.4)]:
            got, want = evaluate_coin(back, s1, s2), evaluate_coin(spec, s1, s2)
            assert got.tobytes() == want.tobytes()

    def test_examples_cover_every_schema_family(self):
        branches = config_schema().root["$defs"]["coin"]["oneOf"]
        families = [b["properties"]["family"]["const"] for b in branches]
        assert sorted(d["family"] for d, _ in self.EXAMPLES) == sorted(families)

    @pytest.mark.parametrize(
        "d, key",
        [
            ({"family": "galton"}, "g"),
            ({"family": "constant", "a": [0.6, 0.0]}, "b"),
            ({"family": "rotation_power", "theta0": 0.1, "g": 0.5}, "p"),
            ({"family": "thirring", "g": [1], "theta": 0}, "g"),
            ({"family": "galton", "g": float("nan")}, "g"),
            ({"family": "gross_neveu", "g": 0.5, "theta": float("-inf")}, "theta"),
            ({"family": "galton", "g": 10**400}, "g"),
            ({"family": "galton", "g": "0.5"}, "g"),
            ({"family": "galton", "g": True}, "g"),
            ({"family": "rotation_power", "theta0": 0.1, "g": 0.5, "p": True}, "p"),
            ({"family": "rotation_power", "theta0": 0.1, "g": 0.5, "p": 2.5}, "p"),
            ({"family": "constant", "a": [0.6, False], "b": [0.8, 0.0]}, "a"),
            ({"family": "constant", "a": [0.6, 0.0], "b": [0.8, float("nan")]}, "b"),
            (
                {"family": "quintic_exponential", "a1": [[0.0, 0.0]] * 4, "c0": {}},
                "a2",
            ),
            (
                {
                    "family": "quintic_exponential",
                    "a1": [[0.0, 0.0]] * 4,
                    "a2": [[0.0, 0.0]] * 4,
                    "c0": {"a": [R, 0.0]},
                },
                "b",
            ),
        ],
    )
    def test_rejects_missing_and_bad_scalars_naming_the_key(self, d, key):
        # the key's path, or the key named as missing; the message also
        # quotes the whole coin, so the bare key proves nothing
        where = rf"at coin(/\w+)*/{key}(/\d+)*(:|$)|'{key}' is a required property"
        with pytest.raises(ValueError, match=where):
            coin_from_json(d)

    def test_valid_scalars_build_the_same_specs(self):
        spec = coin_from_json({"family": "galton", "g": -1})
        assert spec == GaltonCoin(-1.0) and type(spec.g) is float
        spec = coin_from_json({"family": "rotation_power", "theta0": 0, "g": 2, "p": 3})
        assert spec == RotationPowerCoin(0.0, 2.0, 3)
        assert [type(v) for v in (spec.theta0, spec.g, spec.p)] == [float, float, int]
        # an integral float is a JSON integer, as on the command line
        spec = coin_from_json({"family": "rotation_power", "theta0": 0.1, "g": 0.5, "p": 2.0})
        assert spec == RotationPowerCoin(0.1, 0.5, 2) and type(spec.p) is int
        spec = coin_from_json({"family": "constant", "a": [0, 0.6], "b": [0.8, 0]})
        assert spec.matrix.tobytes() == c0_from_ab(0.6j, 0.8).tobytes()

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"at coin: Additional properties .*'extra'"):
            coin_from_json({"family": "galton", "g": 0.5, "extra": 1})

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match=r"'family' must be one of \['constant', "):
            coin_from_json({"family": "parrondo"})

    def test_rejects_non_hermitian_generator(self):
        d = {
            "family": "quintic_exponential",
            "a1": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
            "a2": [[0.2, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.2, 0.0]],
            "c0": {"a": [R, 0.0], "b": [R, 0.0]},
        }
        with pytest.raises(ValueError, match="a1 must be Hermitian"):
            coin_from_json(d)


class TestUnitStrength:
    @pytest.mark.parametrize(
        "spec, ref, scale",
        [
            (GaltonCoin(-0.3), GaltonCoin(-1.0), np.sqrt(0.3)),
            (GrossNeveuCoin(2.5, 0.3), GrossNeveuCoin(1.0, 0.3), np.sqrt(2.5)),
            (ThirringCoin(0.9, 1.1), ThirringCoin(1.0, 1.1), np.sqrt(0.9)),
            (RotationPowerCoin(0.2, -0.8, 1), RotationPowerCoin(0.2, -1.0, 1), 0.8**0.5),
            (RotationPowerCoin(0.2, 0.7, 3), RotationPowerCoin(0.2, 1.0, 3), 0.7 ** (1 / 6)),
        ],
    )
    def test_unit_coupling_and_amplitude_scale(self, spec, ref, scale):
        got, c = spec.unit_strength()
        assert got == ref
        assert c == float(scale)

    @pytest.mark.parametrize(
        "spec",
        [GaltonCoin(0.0), ThirringCoin(0.0, 0.4), ConstantCoin(rotation(0.3))],
        ids=lambda s: type(s).__name__,
    )
    def test_zero_coupling_and_constant_coin_are_their_own_reference(self, spec):
        got, c = spec.unit_strength()
        assert got is spec and c == 1.0

    def test_quintic_coupling_is_not_an_intensity_scale(self):
        with pytest.raises(ValueError, match="QuinticExponentialCoin"):
            QuinticExponentialCoin(SIGMA_X, SIGMA_Z).unit_strength()
        with pytest.raises(ValueError, match="ComposedCoin"):
            quintic(SIGMA_X, SIGMA_Z).unit_strength()


class TestLockstepCoupling:
    GS = (0.8, -0.8, 1.0, -1.3)

    # 4 runs of 1001, 4100 and 8200 rows: flat windows on both sides of
    # 16384 entries (256 KiB complex) and 32768 (256 KiB float), where
    # numpy's temporary elision sets in
    @pytest.mark.parametrize("rows", [1001, 4100, 8200])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_each_column_is_its_scalar_kernel_bitwise(self, rows, p, dtype):
        rng = np.random.default_rng(rows + p)
        runs = len(self.GS)
        u1, u2 = (0.6 * rng.standard_normal(rows * runs) for _ in range(2))
        if dtype is np.complex128:
            u1 = u1 + 0.4j * rng.standard_normal(rows * runs)
            u2 = u2 - 0.4j * rng.standard_normal(rows * runs)
        kern = coin_kernel(RotationPowerCoin(0.3, self.GS, p))
        kern(u1[: 3 * runs], u2[: 3 * runs])  # the window grows, as in a walk
        w1, w2 = kern(u1, u2)
        assert w1.dtype == w2.dtype == dtype
        for r, g in enumerate(self.GS):
            v1, v2 = coin_kernel(RotationPowerCoin(0.3, g, p))(
                u1[r::runs].copy(), u2[r::runs].copy()
            )
            assert w1[r::runs].tobytes() == v1.tobytes()
            assert w2[r::runs].tobytes() == v2.tobytes()

    def test_tuple_coupling_has_no_matrix_and_no_scale(self):
        spec = RotationPowerCoin(0.3, (0.8, -1), 2)
        assert spec.g == (0.8, -1.0) and isinstance(spec.g[1], float)
        with pytest.raises(ValueError, match="one per lockstep run"):
            evaluate_coin(spec, 0.1, 0.2)
        with pytest.raises(ValueError, match="one per lockstep run"):
            spec.unit_strength()


class TestConstruction:
    def test_constant_requires_unitary(self):
        with pytest.raises(ValueError):
            ConstantCoin(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rotation_power_requires_positive_integer_p(self):
        with pytest.raises(ValueError):
            RotationPowerCoin(0.0, 0.5, 0)

    def test_quintic_requires_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=np.complex128)
        with pytest.raises(ValueError):
            QuinticExponentialCoin(bad, np.zeros((2, 2)))

    def test_composed_rejects_constant_inner(self):
        with pytest.raises(ValueError):
            ComposedCoin(rotation(0.1), ConstantCoin(rotation(0.2)))
