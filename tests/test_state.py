"""Norms, probabilities, inner products, and CSV serialization of states."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlqw import (
    LatticeState,
    argmax_position,
    combine,
    delta_state,
    finding_probability,
    inner_product,
    l2_distance,
    load_state_csv,
    lp_norm,
    save_state_csv,
    scaled,
    threshold_positions,
    weak_lp_norm,
)
from nlqw.state import sum_of_squares

TINY = np.finfo(np.float64).tiny
SQRT_TINY = np.sqrt(TINY)

finite = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def lattice_states(draw, max_sites: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_sites))
    origin = draw(st.integers(min_value=-30, max_value=30))
    rows = draw(
        st.lists(
            st.tuples(finite, finite, finite, finite), min_size=n, max_size=n
        )
    )
    amp = np.array(
        [[complex(a, b), complex(c, d)] for a, b, c, d in rows],
        dtype=np.complex128,
    )
    return LatticeState(origin, amp)


def two_site_state() -> LatticeState:
    """(1,0) at x=0 and (0,1) at x=1."""
    return combine([(1.0, delta_state(1, 0)), (1.0, delta_state(2, 1))])


class TestDeltaState:
    def test_component_one_at_origin(self):
        d = delta_state(1, 0)
        assert len(d) == 1
        assert np.array_equal(d.value_at(0), np.array([1.0, 0.0]))

    def test_component_two_at_far_site(self):
        d = delta_state(2, 10000)
        assert d.origin == 10000
        assert np.array_equal(d.value_at(10000), np.array([0.0, 1.0]))

    def test_unit_l1_norm(self):
        assert lp_norm(delta_state(1, 0), 1.0) == 1.0

    @pytest.mark.parametrize("component", [0, 3, -1])
    def test_rejects_bad_component(self, component):
        with pytest.raises(ValueError):
            delta_state(component, 0)


class TestLpNorm:
    def test_delta_l2(self):
        assert lp_norm(delta_state(1, 0), 2.0) == 1.0

    def test_two_sites_l1(self):
        assert lp_norm(two_site_state(), 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_two_sites_sup(self):
        assert lp_norm(two_site_state(), np.inf) == 1.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(delta_state(1, 0), 0.5)

    @given(u=lattice_states(), p=st.sampled_from([1.0, 1.5, 2.0, 4.0, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_bits_of_the_power_sum(self, u, p):
        total = np.sum(u.site_norms() ** p)
        if total >= np.finfo(np.float64).tiny:
            want = float(total ** (1.0 / p))
            assert np.float64(lp_norm(u, p)).tobytes() == np.float64(want).tobytes()
        else:
            assert lp_norm(u, p) >= lp_norm(u, np.inf)

    def test_underflowing_power_sum_scales_by_the_maximum(self):
        u = LatticeState(0, np.array([[0.3, 0.0], [0.0, 0.2], [0.1, 0.0]]))
        assert lp_norm(u, 700.0) == 0.3
        assert lp_norm(scaled(delta_state(2, 5), 1e-100), 4.0) == 1e-100
        assert lp_norm(LatticeState(0, np.zeros((3, 2))), 700.0) == 0.0

    def test_overflowing_power_sum_scales_by_the_maximum(self):
        u = scaled(delta_state(1, 0), 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_norm(u, 2.0) == 1e160
            two = LatticeState(0, np.array([[3e200, 0.0], [0.0, 4e200j]]))
            assert lp_norm(two, 2.0) == pytest.approx(5e200, rel=1e-15)
            assert lp_norm(two, 1.0) == pytest.approx(7e200, rel=1e-15)
        with pytest.warns(RuntimeWarning, match="overflow"):
            huge = LatticeState(0, np.array([[1.5e308, 0.0], [1.5e308, 0.0]]))
            assert np.isinf(lp_norm(huge, 2.0))

    @given(u=lattice_states(), p=st.sampled_from([1.0, 2.0, 4.0, np.inf]))
    @settings(max_examples=60, deadline=None)
    def test_absolutely_homogeneous(self, u, p):
        c = 0.3 - 1.2j
        assert lp_norm(scaled(u, c), p) == pytest.approx(
            abs(c) * lp_norm(u, p), abs=1e-13, rel=1e-13
        )


class TestWeakLpNorm:
    def test_delta(self):
        assert weak_lp_norm(delta_state(1, 0), 4.0) == 1.0

    def test_two_unit_magnitudes(self):
        # Two sites of magnitude 1: the count function steps at gamma = 1,
        # and the supremum is attained just below it, giving 1 * 2^(1/4).
        assert weak_lp_norm(two_site_state(), 4.0) == pytest.approx(
            2.0**0.25, abs=1e-15
        )

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            weak_lp_norm(delta_state(1, 0), 0.99)

    @given(u=lattice_states(), p=st.sampled_from([2.0, 4.0, 5.0]))
    @settings(max_examples=100, deadline=None)
    def test_dominated_by_lp_norm(self, u, p):
        assert weak_lp_norm(u, p) <= lp_norm(u, p) + 1e-12


class TestFindingProbability:
    def test_delta_unit_mass(self):
        dist = finding_probability(delta_state(1, 0))
        assert dist.origin == 0
        assert np.array_equal(dist.weights, np.array([1.0]))

    def test_two_site_half_split(self):
        r = 1.0 / np.sqrt(2.0)
        u = combine([(r, delta_state(1, 0)), (r, delta_state(2, 5))])
        dist = finding_probability(u)
        sites = dict(zip(dist.sites.tolist(), dist.weights.tolist()))
        assert sites[0] == pytest.approx(0.5, abs=1e-15)
        assert sites[5] == pytest.approx(0.5, abs=1e-15)

    @given(u=lattice_states())
    @settings(max_examples=100, deadline=None)
    def test_total_mass_is_squared_l2_norm(self, u):
        total = finding_probability(u).total_mass()
        assert total == pytest.approx(lp_norm(u, 2.0) ** 2, abs=1e-12)


class TestInnerProduct:
    def test_same_delta(self):
        d = delta_state(1, 0)
        assert inner_product(d, d) == 1.0

    def test_orthogonal_components(self):
        assert inner_product(delta_state(1, 0), delta_state(2, 0)) == 0.0

    def test_conjugate_linear_in_second_argument(self):
        u = delta_state(1, 3)
        v = scaled(delta_state(1, 3), 2.0j)
        assert inner_product(u, v) == pytest.approx(-2.0j, abs=1e-15)
        assert inner_product(v, u) == pytest.approx(2.0j, abs=1e-15)

    @given(u=lattice_states())
    @settings(max_examples=100, deadline=None)
    def test_self_pairing_is_squared_norm(self, u):
        z = inner_product(u, u)
        assert z.imag == pytest.approx(0.0, abs=1e-13)
        assert z.real == pytest.approx(lp_norm(u, 2.0) ** 2, abs=1e-12)


class TestSiteNorms:
    @given(u=lattice_states())
    @settings(max_examples=50, deadline=None)
    def test_bits_of_the_squared_form(self, u):
        a = u.amplitudes
        want = np.sqrt(sum_of_squares(a[:, 0], a[:, 1]))
        # a window whose largest norm is below sqrt(tiny) is computed by hypot
        assume(want.max() >= SQRT_TINY)
        assert u.site_norms().tobytes() == want.tobytes()

    def test_overflowing_squares_fall_back_to_hypot(self):
        amp = np.array([[3e200, 4e200j], [0.6, 0.8], [1.3e308, 1.3e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = LatticeState(0, amp[:2]).site_norms()
        assert norms[0] == np.hypot(3e200, 4e200)
        assert norms[1] == np.sqrt(0.6**2 + 0.8**2)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert np.isinf(LatticeState(0, amp[2:]).site_norms()[0])

    def test_underflowing_window_falls_back_to_hypot(self):
        # every square underflows to 0, so the squared form alone reads
        # each of these states as the zero state
        u = scaled(delta_state(2, 5), 1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_norm(u, 2.0) == 1e-200
            assert lp_norm(u, np.inf) == 1e-200
            assert weak_lp_norm(u, 4.0) == 1e-200
        v = scaled(delta_state(1, 3), 1e-200)
        assert argmax_position(v) == 3
        t = v.trimmed()
        assert t.origin == 3 and t.amplitudes.tobytes() == v.amplitudes.tobytes()
        pair = LatticeState(0, np.array([[3e-200, 4e-200j], [0.0, 0.0]]))
        assert pair.site_norms().tolist() == [np.hypot(3e-200, 4e-200), 0.0]

    def test_tiny_site_beside_normal_sites_reads_zero(self):
        # the documented limit: the window's largest norm is normal, so
        # the squared form applies and 1e-170 squares to 0
        u = LatticeState(0, np.array([[1.0, 0.0], [1e-170, 0.0]]))
        assert u.site_norms().tolist() == [1.0, 0.0]


class TestScaleCovariance:
    """Norms of c u for c = 2^k, whose entries scale exactly."""

    @given(u=lattice_states(), k=st.sampled_from([-600, -500, 0, 500]))
    @settings(max_examples=200, deadline=None)
    def test_norms_scale_with_the_state(self, u, k):
        c = 2.0**k
        entries = np.abs(u.amplitudes.view(np.float64))
        nonzero = entries[entries != 0.0]
        for x in (nonzero, nonzero * c):
            assume(np.all(x >= TINY) and np.all(x < np.inf))
        v = scaled(u, c)
        for norm in (
            lambda w: lp_norm(w, 2.0),
            lambda w: lp_norm(w, np.inf),
            lambda w: weak_lp_norm(w, 4.0),
        ):
            want = c * norm(u)
            assert abs(norm(v) - want) <= 4 * np.spacing(want)
        norms = np.sort(u.site_norms())
        if norms[-1] > 0:
            # near-ties may break either way under the last-ulp wobble of
            # the two norm forms, so only decided maxima are compared
            assume(len(norms) == 1 or norms[-1] - norms[-2] > 1e-9)
            assert argmax_position(v) == argmax_position(u)


    @given(u=lattice_states(), v=lattice_states(), k=st.sampled_from([-600, -500, 500]))
    @settings(max_examples=200, deadline=None)
    def test_l2_distance_scales_with_the_states(self, u, v, k):
        c = 2.0**k
        entries = np.abs(combine([(1, u), (-1, v)]).amplitudes.view(np.float64))
        nonzero = entries[entries != 0.0]
        for x in (nonzero, nonzero * c):
            assume(np.all(x >= TINY) and np.all(x < np.inf))
        want = c * l2_distance(u, v)
        got = l2_distance(scaled(u, c), scaled(v, c))
        assert abs(got - want) <= 4 * np.spacing(want)


class TestArgmaxPosition:
    def test_delta(self):
        assert argmax_position(delta_state(1, 7)) == 7

    def test_tie_breaks_to_smaller_site(self):
        u = combine([(0.5, delta_state(1, 3)), (0.5, delta_state(2, 9))])
        assert argmax_position(u) == 3

    def test_traveling_peak(self):
        for t in (0, 17, 250):
            assert argmax_position(scaled(delta_state(1, -t), 0.7)) == -t

    def test_rejects_zero_state(self):
        zero = LatticeState(0, np.zeros((3, 2), dtype=np.complex128))
        with pytest.raises(ValueError):
            argmax_position(zero)

    @given(
        u=lattice_states(),
        alpha=st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_global_phase(self, u, alpha):
        norms = np.sort(u.site_norms())
        assume(norms[-1] > 0)
        # Near-ties can flip under the last-ulp wobble of the rotation, so
        # only decided maxima are meaningful here.
        assume(len(norms) == 1 or norms[-1] - norms[-2] > 1e-9)
        rotated = scaled(u, np.exp(1j * alpha))
        assert argmax_position(rotated) == argmax_position(u)


class TestThresholdPositions:
    def test_delta_first_component(self):
        assert threshold_positions(delta_state(1, 0), 1, 0.5).tolist() == [0]

    def test_delta_second_component_empty(self):
        assert threshold_positions(delta_state(1, 0), 2, 0.5).tolist() == []

    def test_three_clusters(self):
        terms = [(0.4, delta_state(1, x)) for x in (-5, -4, 0, 7, 8)]
        terms.append((0.05, delta_state(1, 2)))
        u = combine(terms)
        assert threshold_positions(u, 1, 0.1).tolist() == [-5, -4, 0, 7, 8]

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            threshold_positions(delta_state(1, 0), 1, 0.0)


class TestCsvRoundTrip:
    @given(u=lattice_states())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_exact(self, u, tmp_path_factory):
        path = tmp_path_factory.mktemp("state") / "u.csv"
        save_state_csv(u, str(path))
        v = load_state_csv(str(path))
        assert v.origin == u.origin
        assert np.array_equal(v.amplitudes, u.amplitudes)

    def test_bytes_match_the_row_by_row_writer(self, tmp_path):
        def row_by_row(u, path):
            a = u.amplitudes
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write("x,re_u1,im_u1,re_u2,im_u2\n")
                for i, x in enumerate(u.sites):
                    row = (
                        f"{x:d},{a[i, 0].real:.17g},{a[i, 0].imag:.17g},"
                        f"{a[i, 1].real:.17g},{a[i, 1].imag:.17g}"
                    )
                    fh.write(row + "\n")

        rng = np.random.default_rng(5)
        amp = rng.standard_normal((600, 2)) + 1j * rng.standard_normal((600, 2))
        amp[:4] = [[-0.0, 5e-324], [1e300, -5e-324j], [-0.0j, -1e300], [0.0, -0.0 - 0.0j]]
        u = LatticeState(-17, amp)
        save_state_csv(u, str(tmp_path / "new.csv"))
        row_by_row(u, str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_header_format(self, tmp_path):
        path = tmp_path / "u.csv"
        save_state_csv(delta_state(1, 0), str(path))
        first = path.read_text().splitlines()[0]
        assert first == "x,re_u1,im_u1,re_u2,im_u2"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("site,a,b,c,d\n0,1,0,0,0\n")
        with pytest.raises(ValueError):
            load_state_csv(str(path))


class TestWindowInvariants:
    def test_rejects_nonfinite_amplitudes(self):
        amp = np.array([[np.nan, 0.0]], dtype=np.complex128)
        with pytest.raises(ValueError):
            LatticeState(0, amp)

    @given(u=lattice_states())
    @settings(max_examples=60, deadline=None)
    def test_combine_with_negation_cancels(self, u):
        diff = combine([(1.0, u), (-1.0, u)])
        assert lp_norm(diff, 2.0) == 0.0

    @given(u=lattice_states(), v=lattice_states(), zeros=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_l2_distance_bits(self, u, v, zeros):
        if zeros:  # signed zeros in both states
            u = LatticeState(u.origin, np.where(u.amplitudes.real < 0, -0.0, u.amplitudes))
            v = scaled(v, -1.0)
        # the former form: both states copied onto the union window
        lo = min(u.origin, v.origin)
        hi = max(u.origin + len(u), v.origin + len(v))
        a, b = (np.zeros((hi - lo, 2), dtype=np.complex128) for _ in range(2))
        a[u.origin - lo : u.origin - lo + len(u)] = u.amplitudes
        b[v.origin - lo : v.origin - lo + len(v)] = v.amplitudes
        aligned = np.linalg.norm((a - b).ravel())
        combined = np.linalg.norm(combine([(1, u), (-1, v)]).amplitudes.ravel())
        got = np.float64(l2_distance(u, v)).tobytes()
        assert aligned.tobytes() == combined.tobytes()
        if aligned >= SQRT_TINY or not (a - b).any():
            assert got == aligned.tobytes()
        else:  # squares underflow: scaled by the largest part first
            parts = (a - b).ravel().view(np.float64)
            m = np.abs(parts).max()
            assert got == (m * np.linalg.norm(parts / m)).tobytes()

    @pytest.mark.parametrize(
        "a, b, scale, want",
        [
            (1, 2, 1e160, 1.4142135623730951e160),
            (1, 1, 1e200, 2e200),  # u = -v
            (1, 2, 1e-170, 1.4142135623730951e-170),
            (2, 2, 5e-324, 1e-323),
        ],
        ids=["overflow", "overflow-opposite", "underflow", "subnormal"],
    )
    def test_l2_distance_outside_the_squares_range(self, a, b, scale, want):
        u = scaled(delta_state(a, 0), scale)
        v = scaled(delta_state(b, 0), -scale if a == b else scale)
        assert l2_distance(u, v) == pytest.approx(want, rel=4e-16, abs=0)
        assert l2_distance(u, u) == 0.0

    def test_trimmed_drops_zero_margin(self):
        amp = np.zeros((5, 2), dtype=np.complex128)
        amp[2, 0] = 1.0
        u = LatticeState(-2, amp)
        t = u.trimmed()
        assert t.origin == 0
        assert len(t) == 1
        assert l2_distance(t, u) == 0.0
