import contextlib
import math
import pickle
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from elements import (
    block_ratios,
    element_positions,
    module_sums,
    ratio_blocks,
    user_position,
)
from modxl.channel import LinkBudget
from modxl.errors import (
    DegenerateGeometryError,
    ModelBreakdownError,
    ModelMismatchError,
    QuadratureAccuracyError,
    UnboundedLimitError,
)
from modxl import geometry, snr_models
from modxl.geometry import ArrayGeometry, UserLocation
from modxl.snr_models import (
    CONTINUUM_TOLERANCE,
    EVALUATORS,
    FLAG_EPSILON_NOT_SMALL,
    FLAG_THETA_NEAR_ENDFIRE,
    QUADRATURE_AGREEMENT,
    SnrModel,
    SnrReport,
    is_collocated,
    is_on_segment,
    models_outside_domain,
    snr_asymptotic,
    snr_closed_form,
    snr_collocated,
    snr_double_integral,
    snr_exact_sum,
    snr_upw,
)

LINK = LinkBudget(wavelength_m=0.1256, transmit_snr=1e5)
BROADSIDE = UserLocation(35.0)


def rational_squared_distances(geom, user):
    """The squared element distances in rationals, from the Cartesian
    offsets of the float positions, or None where an element is nearer than
    1e-2 r: ill-conditioned for every route of the exact sum."""
    position = [Fraction(v) for v in user_position(user)]
    squared = [
        sum((p - Fraction(e)) ** 2 for p, e in zip(position, element))
        for element in element_positions(geom)
    ]
    if min(squared) < Fraction(1e-2 * user.range_m) ** 2:
        return None
    return squared


@pytest.mark.parametrize("model", list(SnrModel))
def test_model_survives_a_pickle(model):
    # Members hash by identity: a round trip must give the member itself,
    # and so a key that every dict of models finds.
    copy = pickle.loads(pickle.dumps(model))
    assert copy is model and hash(copy) == hash(model)
    assert EVALUATORS[copy] is EVALUATORS[model]


class TestSnrReport:
    def test_db_round_trip(self):
        report = SnrReport(SnrModel.UPW, 250.0)
        assert 10.0 ** (report.value_db / 10.0) == pytest.approx(250.0, rel=1e-12)
        assert report.validity_flags == frozenset()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SnrReport(SnrModel.UPW, -1.0)

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            SnrReport(SnrModel.UPW, math.inf)

    def test_nan_is_a_breakdown(self):
        with pytest.raises(ModelBreakdownError):
            SnrReport(SnrModel.EXACT_SUM, math.nan)

    @pytest.mark.parametrize("value, error, message", [
        (math.inf, OverflowError, "SNR value overflows to inf"),
        (-math.inf, ValueError, "upw SNR is -inf, outside the floating-point range"),
        (math.nan, ModelBreakdownError, "upw model returned NaN"),
        (0.0, ValueError, "upw SNR is 0.0, outside the floating-point range"),
        (-0.0, ValueError, "upw SNR is -0.0, outside the floating-point range"),
        (-1.0, ValueError, "upw SNR is -1.0, outside the floating-point range"),
        (5e-324, None, None),
        (1.7976931348623157e308, None, None),
    ])
    def test_judges_each_edge_value(self, value, error, message):
        # The exact type and message, or acceptance with the value's bits.
        if error is None:
            report = SnrReport(SnrModel.UPW, value)
            assert report.value_linear.hex() == value.hex()
            assert report.validity_flags == frozenset()
            return
        with pytest.raises(Exception) as caught:
            SnrReport(SnrModel.UPW, value)
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestExactSum:
    def test_single_element(self):
        geom = ArrayGeometry(1, 1, 0.0628, 1.0)
        report = snr_exact_sum(geom, BROADSIDE, LINK)
        assert report.value_linear == pytest.approx(1e5 / 1225.0, rel=1e-12)
        assert report.value_db == pytest.approx(19.1186, abs=5e-4)
        assert report.validity_flags == frozenset()

    def test_matches_cartesian_sum(self):
        geom = ArrayGeometry(3, 3, 0.5, 4.0)
        user = UserLocation(9.0, -0.6)
        total = sum(
            1.0 / np.sum((user_position(user) - position) ** 2)
            for position in element_positions(geom)
        )
        report = snr_exact_sum(geom, user, LINK)
        assert report.value_linear == pytest.approx(1e5 * total, rel=1e-12)

    def test_reference_scenario(self, reference):
        report = snr_exact_sum(reference.geometry, reference.user, reference.link)
        assert report.value_linear == pytest.approx(23328.75286890568, rel=1e-12)
        assert report.value_db == pytest.approx(43.6789, abs=5e-4)

    def test_user_on_array_rejected(self):
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        with pytest.raises(DegenerateGeometryError):
            snr_exact_sum(geom, UserLocation(1.0, math.pi / 2), LINK)

    @pytest.mark.parametrize("range_m", [5e-155, 1e-170])
    def test_tiny_range_overflows(self, reference, range_m):
        # The squared distance ratios overflow at 5e-155 m; at 1e-170 m the
        # distance floor's own ratio overflows first.
        with pytest.raises(OverflowError):
            snr_exact_sum(reference.geometry, UserLocation(range_m), LINK)

    @pytest.mark.parametrize("m, n", [(1, 5), (16, 7), (1024, 3)])
    def test_blocked_sum_matches_rational_sum(self, m, n):
        # Unit power at a unit range leaves the sum unscaled, so the report
        # is the summed value itself; the oracle sums the same float terms
        # exactly.  numpy's blocked pairwise sum of positive terms is within
        # about log2(M) + 11 units of 2**-53 at worst; on smooth terms like
        # these it stays within log2(M) + 1, and fsum of the partials adds
        # at most one more.
        geom = ArrayGeometry(m, n, 1e-3, 3.0)
        user = UserLocation(1.0, 0.4)
        terms = 1.0 / block_ratios(geom, user)
        exact = sum(map(Fraction, terms.tolist()))
        total = snr_exact_sum(geom, user, LinkBudget(0.1)).value_linear
        bound = (math.log2(m) + 2) * 2.0**-53
        assert abs(Fraction(total) - exact) <= bound * exact

    def test_compensated_sum_sees_one_partial_per_module(self, monkeypatch):
        # The Python-level fsum walks N module partials, never M*N terms.
        compensated_sum, counts = geometry.compensated_sum, []

        def spy(values):
            counts.append(len(values))
            return compensated_sum(values)

        monkeypatch.setattr(geometry, "compensated_sum", spy)
        snr_exact_sum(ArrayGeometry(64, 5, 0.0628, 3.0), BROADSIDE, LINK)
        assert counts == [5]

    def test_every_distance_overflowing_raises(self, reference):
        # At 1e-155 m every squared distance ratio overflows, so every term
        # would be 0; with a power this low the scale does not overflow, and
        # a sum of 0 must not pass for the SNR.
        link = LinkBudget(wavelength_m=0.1256, transmit_snr=1e-30)
        with pytest.raises(OverflowError):
            snr_exact_sum(reference.geometry, UserLocation(1e-155), link)

    @given(
        st.integers(1, 16),
        st.integers(1, 32),
        st.floats(1e-3, 2.0),
        st.floats(1.0, 30.0),
        st.floats(-2.0, 12.0),
        st.floats(-90.0, 90.0),
    )
    def test_matches_rational_sum_over_decades(
        self, m, n, spacing, ratio, log_r, deg
    ):
        # The reference squares the Cartesian offsets of the float positions
        # exactly, in rationals; the sum is taken exactly too.
        geom = ArrayGeometry(m, n, spacing, ratio)
        user = UserLocation(10.0**log_r, math.radians(deg))
        squared = rational_squared_distances(geom, user)
        if squared is None:
            return
        try:
            report = snr_exact_sum(geom, user, LINK)
            ratios = block_ratios(geom, user)
        except DegenerateGeometryError:
            return
        oracle = Fraction(LINK.effective_power) * sum(1 / value for value in squared)
        assert report.value_linear == pytest.approx(float(oracle), rel=1e-12)
        range_squared = Fraction(user.range_m) ** 2
        np.testing.assert_allclose(
            ratios, [float(v / range_squared) for v in squared], rtol=1e-12
        )


@contextlib.contextmanager
def progression_route():
    """Blocks of one element: an array of two elements or more then takes
    the exact sum's progression route, and the distance kernel must not
    run."""

    def kernel(*args):
        raise AssertionError("the exact sum ran the distance kernel")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "BLOCK_ELEMENTS", 1)
        patch.setattr(geometry, "run_ratio_blocks", kernel)
        yield


class KernelReached(Exception):
    "Raised where a test forbids the kernel's walk over the elements."


class TestProgressionRoute:
    """Arrays of more than one block, at every angle, sum their progressions
    of like elements through psi differences rather than element by
    element."""

    @given(
        st.integers(1, 64),
        st.integers(1, 64),
        st.floats(1e-3, 2.0),
        st.floats(1.0, 30.0),
        st.floats(-1.0, 9.0),
        st.floats(-90.0, 90.0),
    )
    # The user 0.11 m from the centre, inside the span: offsets formed as
    # (element - foot) / stride + k, not as the kernel forms them, were
    # 3.9e-12 off here.
    @example(17, 97, 1.0233, 27.318, math.log10(0.11), 45.228)
    # Every element on the negative side of the user's foot.
    @example(4, 40, 0.5, 3.0, 2.0, 80.0)
    @example(40, 4, 0.5, 3.0, 2.0, -80.0)
    # Endfire, beyond the span and on the axis inside it, and one module.
    @example(16, 40, 0.0628, 20.0, 1.9, 90.0)
    @example(16, 40, 0.0628, 20.0, 1.0, -90.0)
    @example(64, 1, 0.5, 1.0, 0.7, 90.0)
    def test_matches_rational_sum_over_decades(self, m, n, spacing, ratio, log_r, deg):
        assume(m * n >= 2)  # one element is one block however small
        geom = ArrayGeometry(m, n, spacing, ratio)
        user = UserLocation(10.0**log_r, math.radians(deg))
        squared = rational_squared_distances(geom, user)
        if squared is None:
            return
        with progression_route():
            try:
                report = snr_exact_sum(geom, user, LINK)
            except DegenerateGeometryError:
                return
        # Each exact term rounded once and summed exactly: within 2.3e-16 of
        # the rational sum, with no rational sum to take.
        oracle = LINK.effective_power * math.fsum(float(1 / value) for value in squared)
        assert report.value_linear == pytest.approx(oracle, rel=1e-12)

    def test_matches_the_kernel_at_scale(self):
        user = UserLocation(80.0, 0.4)
        # Many modules, and one module longer than a block.
        for m, n in ((16, 100_000), (geometry.BLOCK_ELEMENTS + 1, 1)):
            geom = ArrayGeometry(m, n, 0.0628, 20.0)
            # The kernel route's value: each module summed, the partials by
            # fsum.
            kernel = math.fsum(module_sums(geom, user).tolist())
            kernel *= LINK.effective_power / user.range_m**2
            value = snr_exact_sum(geom, user, LINK).value_linear
            assert value == pytest.approx(kernel, rel=1e-14)

    #: 80,000 elements at 1e154 m: the route returns None, and the kernel
    #: runs two blocks.
    FALLBACK = ArrayGeometry(16, 5000, 1e-3, 3.0), UserLocation(1e154, 0.4)

    @pytest.mark.parametrize("helpers", [0, 1, geometry._MAX_THREADS - 1])
    def test_kernel_fallback_bits(self, set_helpers, helpers):
        set_helpers(helpers)
        assert geometry._progression_sum(*self.FALLBACK) is None
        assert len(ratio_blocks(*self.FALLBACK)) == 2
        value = snr_exact_sum(*self.FALLBACK, LINK).value_linear
        assert value.hex() == "0x1.ac9a7b3b7302fp-991"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "BLOCK_ELEMENTS", 1 << 17)  # one block
            assert self.FALLBACK[0].total_elements <= geometry.BLOCK_ELEMENTS
            assert snr_exact_sum(*self.FALLBACK, LINK).value_linear == value

    @pytest.mark.parametrize("m, n", [(16, 2**53), (2**53, 3)])
    @pytest.mark.parametrize("angle", [0.0, 0.4])
    def test_largest_counts_are_exact(self, m, n, angle):
        # At 2**53, the largest count accepted, centred indices are still
        # exact: the sum has converged to that of 10**15 of the same parity.
        # Two more modules were once 17% off it.
        user = UserLocation(1.0, angle)
        value = snr_exact_sum(ArrayGeometry(m, n, 0.0628, 20.0), user, LINK)
        fewer = ArrayGeometry(min(m, 10**15), min(n, 10**15), 0.0628, 20.0)
        reference = snr_exact_sum(fewer, user, LINK).value_linear
        assert value.value_linear == pytest.approx(reference, rel=1e-14)

    # 200 examples in the suite, and the profile's count in a deep run.
    @settings(max_examples=max(200, settings.default.max_examples))
    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.one_of(st.just(1.0), st.floats(1.0, 30.0), st.floats(1.0, 1e300)),
        st.floats(-320.0, 3.0),
        st.floats(-323.0, 300.0),
        st.floats(-90.0, 90.0),
    )
    def test_kernels_value_or_error_over_the_float_range(
        self, m, n, ratio, log_d, log_r, deg
    ):
        # Where the route's values would leave the floating-point range, the
        # kernel takes the sum; elsewhere the two agree, and raise alike.
        # Where the route returns None, the kernel's blocks of one module
        # give the one-block kernel's bits.
        geom = ArrayGeometry(m, n, 10.0**log_d, ratio)
        user = UserLocation(10.0**log_r, math.radians(deg))
        outcomes, progressions = [], []
        route_sum = geometry._progression_sum

        def progression_sum(*args):
            progressions.append(route_sum(*args))
            return progressions[-1]

        for block_elements in (1, geometry.BLOCK_ELEMENTS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry, "BLOCK_ELEMENTS", block_elements)
                patch.setattr(geometry, "_progression_sum", progression_sum)
                try:
                    outcomes.append(snr_exact_sum(geom, user, LINK).value_linear)
                except (OverflowError, ValueError, DegenerateGeometryError) as error:
                    outcomes.append((type(error), str(error)))
        route, kernel = outcomes
        if isinstance(kernel, float) and any(p is not None for p in progressions):
            assert route == pytest.approx(kernel, rel=1e-14)
        else:
            assert route == kernel

    #: 3 x 2**40 elements, 3.3e12.  Past about 1e154 spacings, and at
    #: endfire where b^2 is subnormal, the route returns None, and the kernel
    #: would walk every element: ``eval`` ran for more than 15 s on either
    #: user before it was stopped, against 0.3 s at 1e150 m.
    HUGE = ArrayGeometry(3, 2**40, 0.0628, 20.0)

    @pytest.mark.xfail(
        strict=True, raises=KernelReached,
        reason="_progression_sum returns None, and the kernel walks 3.3e12 elements",
    )
    @pytest.mark.parametrize(
        "user",
        [UserLocation(1e160, 0.0), UserLocation(1e-140, math.pi / 2)],
        ids=["far", "endfire"],
    )
    def test_huge_array_takes_no_kernel_walk(self, monkeypatch, user):
        def reached(*args):
            raise KernelReached

        monkeypatch.setattr(geometry, "run_ratio_blocks", reached)
        with contextlib.suppress(OverflowError, ValueError, DegenerateGeometryError):
            snr_exact_sum(self.HUGE, user, LINK)

    #: Two blocks and one module more, with an element at 0.1 m.
    FLOORED = ArrayGeometry(2, 2 * geometry.block_rows(2) + 1, 0.2, 2.0)

    @staticmethod
    def assert_floor_raises_as_the_kernel(geom, user):
        with pytest.raises(DegenerateGeometryError) as kernel:
            block_ratios(geom, user)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometryError) as route:
                snr_exact_sum(geom, user, LINK)
        assert str(route.value) == str(kernel.value)

    def test_floor_raises_as_the_kernel(self):
        # The user is 2e-10 m off the array line, beside the element at
        # 0.1 m, so within the 1e-9 m floor; cos(angle) = 2e-9 is off the
        # endfire predicate.
        user = UserLocation(0.1, math.acos(2e-9))
        assert not snr_models.is_near_endfire(user)
        self.assert_floor_raises_as_the_kernel(self.FLOORED, user)

    def test_floor_raises_as_the_kernel_at_endfire(self):
        # On the array axis, 5e-10 m beyond the element at 0.1 m.
        user = UserLocation(0.1 + 5e-10, math.pi / 2)
        assert snr_models.is_near_endfire(user)
        self.assert_floor_raises_as_the_kernel(self.FLOORED, user)

    def test_overflow_outranks_the_floor(self):
        # The same layout scaled to 1e-165 m: the floor's own ratio
        # overflows, so the range check raises before the floor test.
        geom = ArrayGeometry(2, 2 * geometry.block_rows(2) + 1, 2e-165, 2.0)
        user = UserLocation(1e-165, math.acos(2e-9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (block_ratios, lambda *args: snr_exact_sum(*args, LINK)):
                with pytest.raises(OverflowError):
                    call(geom, user)


class TestDomains:
    @pytest.mark.parametrize("range_m,angle,outside", [
        (35.0, 0.0, {SnrModel.COLLOCATED}),
        (35.0, math.pi / 2, {SnrModel.COLLOCATED, SnrModel.ASYMPTOTIC}),
        (5.0, -math.pi / 2,
         {SnrModel.COLLOCATED, SnrModel.ASYMPTOTIC, SnrModel.INTEGRAL}),
        (5.0, 1.0, {SnrModel.COLLOCATED}),
    ])
    def test_models_outside_domain(self, reference, range_m, angle, outside):
        user = UserLocation(range_m, angle)
        assert models_outside_domain(reference.geometry, user) == outside

    @pytest.mark.parametrize("range_m", [22.0, 23.0])
    def test_segment_is_where_the_integral_raises(self, reference, range_m):
        # The augmented half-span of the reference array is 22.48 m.
        user = UserLocation(range_m, math.pi / 2)
        on_segment = is_on_segment(reference.geometry, user)
        assert on_segment is (range_m < 22.48)
        if on_segment:
            with pytest.raises(DegenerateGeometryError, match="integrand singular"):
                snr_double_integral(reference.geometry, user, LINK)
        else:
            snr_double_integral(reference.geometry, user, LINK)


class TestClosedForm:
    def test_reference_scenario(self, reference):
        report = snr_closed_form(reference.geometry, reference.user, reference.link)
        assert report.value_linear == pytest.approx(23324.33235764653, rel=1e-12)
        exact = snr_exact_sum(reference.geometry, reference.user, reference.link)
        assert report.value_linear == pytest.approx(
            exact.value_linear, rel=CONTINUUM_TOLERANCE
        )
        assert report.validity_flags == frozenset()

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (16, 1)])
    def test_small_arrays_stay_close_to_exact(self, m, n):
        geom = ArrayGeometry(m, n, 0.0628, 20.0)
        exact = snr_exact_sum(geom, BROADSIDE, LINK).value_linear
        closed = snr_closed_form(geom, BROADSIDE, LINK).value_linear
        assert closed == pytest.approx(exact, rel=5e-4)

    def test_angle_symmetry(self, reference):
        geom = reference.geometry
        left = snr_closed_form(geom, UserLocation(35.0, 0.6), LINK)
        right = snr_closed_form(geom, UserLocation(35.0, -0.6), LINK)
        assert left.value_linear == pytest.approx(right.value_linear, rel=1e-13)

    def test_matches_quadrature(self, reference):
        geom = reference.geometry
        user = UserLocation(35.0, math.radians(30.0))
        closed = snr_closed_form(geom, user, LINK).value_linear
        integral = snr_double_integral(geom, user, LINK).value_linear
        assert closed == pytest.approx(integral, rel=QUADRATURE_AGREEMENT)

    def test_wide_spacing_flagged(self):
        geom = ArrayGeometry(4, 4, 0.5, 2.0)
        report = snr_closed_form(geom, BROADSIDE, LINK)
        assert FLAG_EPSILON_NOT_SMALL in report.validity_flags
        assert math.isfinite(report.value_linear)

    def test_endfire_falls_back_to_exact(self, reference):
        geom = reference.geometry
        user = UserLocation(35.0, math.pi / 2)
        report = snr_closed_form(geom, user, LINK)
        assert FLAG_THETA_NEAR_ENDFIRE in report.validity_flags
        assert report.value_linear == snr_exact_sum(geom, user, LINK).value_linear
        assert report.model is SnrModel.CLOSED_FORM

    def test_endfire_fallback_carries_only_its_flag(self, reference):
        user = UserLocation(35.0, math.pi / 2)
        report = snr_closed_form(reference.geometry, user, LINK)
        assert report.validity_flags == {FLAG_THETA_NEAR_ENDFIRE}

    @pytest.mark.parametrize("theta_deg", [88.0, 89.0, 89.9])
    def test_beside_the_array_near_endfire_flagged(self, theta_deg):
        # 100 modules reach past the user, who stands r cos(theta) from the
        # array line: 1.2 m at 88 deg, 6 cm at 89.9 deg, where the closed form
        # is 75.73 dB against an exact 66.40 dB.
        geom = ArrayGeometry(16, 100, 0.0628, 20.0)
        user = UserLocation(35.0, math.radians(theta_deg))
        closed = snr_closed_form(geom, user, LINK)
        exact = snr_exact_sum(geom, user, LINK)
        assert abs(closed.value_linear / exact.value_linear - 1.0) > CONTINUUM_TOLERANCE
        assert closed.validity_flags == {FLAG_EPSILON_NOT_SMALL}

    @given(
        st.integers(1, 32),
        st.integers(1, 625),
        st.floats(1.0, 60.0),
        st.floats(math.log10(35.0), 4.0),
        st.floats(-89.999, 89.999),
    )
    def test_near_field_within_one_percent_or_flagged(self, m, n, ratio, log_r, deg):
        geom = ArrayGeometry(m, n, 0.0628, ratio)
        user = UserLocation(10.0**log_r, math.radians(deg))
        closed = snr_closed_form(geom, user, LINK)
        exact = snr_exact_sum(geom, user, LINK).value_linear
        if not closed.validity_flags:
            assert closed.value_linear == pytest.approx(exact, rel=CONTINUUM_TOLERANCE)

    @pytest.mark.parametrize("theta_deg", [60.0, -45.0])
    def test_far_field_cancellation_raises(self, reference, theta_deg):
        # At 1e200 m every term of the bracket underflows to 0; no value would
        # be better than a silently wrong one.
        user = UserLocation(1e200, math.radians(theta_deg))
        with pytest.raises(ValueError, match="floating-point range"):
            snr_closed_form(reference.geometry, user, LINK)

    @pytest.mark.parametrize("theta_deg", [0.0, -45.0, 60.0, 89.9])
    @pytest.mark.parametrize("range_m", [1e7, 1e9, 1e12])
    def test_far_field_tracks_exact_sum(self, reference, theta_deg, range_m):
        # The h(o -+ t) - h(i -+ t) bracket once cancelled here: 2.7e-4 off at
        # 1e7 m, a breakdown at 1e9 m, and 61 dB too high at 1e12 m, -45 deg.
        user = UserLocation(range_m, math.radians(theta_deg))
        closed = snr_closed_form(reference.geometry, user, LINK).value_linear
        exact = snr_exact_sum(reference.geometry, user, LINK).value_linear
        assert closed == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_far_out_near_endfire_tracks_exact_sum(self):
        # 1.5% off and unflagged while the bracket cancelled.
        geom = ArrayGeometry(6, 5, 0.0628, 29.852789547469307)
        user = UserLocation(619275.557, math.radians(-89.94264))
        closed = snr_closed_form(geom, user, LINK)
        exact = snr_exact_sum(geom, user, LINK).value_linear
        assert closed.value_linear == pytest.approx(exact, rel=1e-10)
        assert closed.validity_flags == frozenset()

    @given(
        st.integers(1, 32),
        st.integers(1, 625),
        st.floats(1.0, 60.0),
        st.floats(math.log10(35.0), 12.0),
        st.floats(-89.9, 89.9),
    )
    def test_over_decades_within_one_percent_or_flagged(self, m, n, ratio, log_r, deg):
        geom = ArrayGeometry(m, n, 0.0628, ratio)
        user = UserLocation(10.0**log_r, math.radians(deg))
        closed = snr_closed_form(geom, user, LINK)
        exact = snr_exact_sum(geom, user, LINK).value_linear
        assert closed.value_linear > 0
        if not closed.validity_flags:
            assert closed.value_linear == pytest.approx(
                exact, rel=CONTINUUM_TOLERANCE, abs=0.0
            )


class TestCollocated:
    def test_domain_is_unit_separation(self, reference):
        assert is_collocated(ArrayGeometry(16, 20, 0.0628, 1.0))
        assert is_collocated(ArrayGeometry(16, 20, 0.0628, 1.0 + 1e-13))
        assert not is_collocated(ArrayGeometry(16, 20, 0.0628, 1.0 + 1e-9))
        assert not is_collocated(reference.geometry)

    def test_requires_unit_separation(self, reference):
        with pytest.raises(ModelMismatchError):
            snr_collocated(reference.geometry, BROADSIDE, LINK)

    def test_reference_collocated_value(self):
        geom = ArrayGeometry(16, 20, 0.0628, 1.0)
        report = snr_collocated(geom, BROADSIDE, LINK)
        assert report.value_linear == pytest.approx(25438.3188077737, rel=1e-9)
        assert report.value_db == pytest.approx(44.0549, abs=5e-4)

    def test_agrees_with_exact_and_closed(self):
        geom = ArrayGeometry(16, 20, 0.0628, 1.0)
        value = snr_collocated(geom, BROADSIDE, LINK).value_linear
        assert value == pytest.approx(
            snr_exact_sum(geom, BROADSIDE, LINK).value_linear, rel=CONTINUUM_TOLERANCE
        )
        assert value == pytest.approx(
            snr_closed_form(geom, BROADSIDE, LINK).value_linear, rel=CONTINUUM_TOLERANCE
        )

    def test_small_extent_approaches_plane_wave(self):
        geom = ArrayGeometry(4, 3, 1e-4, 1.0)
        value = snr_collocated(geom, BROADSIDE, LINK).value_linear
        assert value == pytest.approx(
            snr_upw(geom, BROADSIDE, LINK).value_linear, rel=1e-9
        )

    def test_endfire_falls_back_to_exact(self):
        geom = ArrayGeometry(4, 3, 0.0628, 1.0)
        user = UserLocation(35.0, -math.pi / 2)
        report = snr_collocated(geom, user, LINK)
        assert FLAG_THETA_NEAR_ENDFIRE in report.validity_flags
        assert report.value_linear == snr_exact_sum(geom, user, LINK).value_linear

    def test_close_in_near_endfire_flagged(self):
        # 51x the exact sum, once with no flag.
        geom = ArrayGeometry(8, 47, 0.0628, 1.0)
        user = UserLocation(0.0710220811304449, math.radians(-89.73878464626696))
        report = snr_collocated(geom, user, LINK)
        exact = snr_exact_sum(geom, user, LINK).value_linear
        assert report.value_linear > 50.0 * exact
        assert report.validity_flags == {FLAG_EPSILON_NOT_SMALL}

    def test_endfire_fallback_keeps_the_continuum_flag(self):
        geom = ArrayGeometry(4, 3, 0.0628, 1.0)
        report = snr_collocated(geom, UserLocation(1.0, math.pi / 2), LINK)
        assert report.validity_flags == {FLAG_EPSILON_NOT_SMALL, FLAG_THETA_NEAR_ENDFIRE}

    @given(
        st.integers(1, 32),
        st.integers(1, 625),
        st.floats(-1.3, 8.0),
        st.floats(-89.9, 89.9),
    )
    def test_over_decades_within_one_percent_or_flagged(self, m, n, log_r, deg):
        geom = ArrayGeometry(m, n, 0.0628, 1.0)
        user = UserLocation(10.0**log_r, math.radians(deg))
        try:
            exact = snr_exact_sum(geom, user, LINK).value_linear
        except DegenerateGeometryError:
            return
        report = snr_collocated(geom, user, LINK)
        if not report.validity_flags:
            assert report.value_linear == pytest.approx(
                exact, rel=CONTINUUM_TOLERANCE, abs=0.0
            )

    @pytest.mark.parametrize("theta_deg", [30.0, 45.0, 60.0, 89.9, -75.0])
    @pytest.mark.parametrize("range_m", [1e6, 1e9, 1e12, 1e14])
    def test_far_field_tracks_exact_sum(self, theta_deg, range_m):
        # atan(a - t) + atan(a + t) once cancelled as a -> 0: 3.7e-6 off at
        # 1e12 m, 60 deg, and 27% too high at 1e14 m, 89.9 deg.
        geom = ArrayGeometry(16, 20, 0.0628, 1.0)
        user = UserLocation(range_m, math.radians(theta_deg))
        value = snr_collocated(geom, user, LINK).value_linear
        exact = snr_exact_sum(geom, user, LINK).value_linear
        assert value == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("range_m", [1e-300, 1e-320])
    def test_tiny_range_raises_overflow_error(self, range_m):
        # At 1e-320 m r*d*cos(angle) underflows to 0: once a bare
        # ZeroDivisionError.
        geom = ArrayGeometry(16, 20, 0.0628, 1.0)
        user = UserLocation(range_m, math.radians(89.99))
        with pytest.raises(OverflowError):
            snr_collocated(geom, user, LINK)

    def test_infinite_prefactor_with_underflowed_bracket_overflows(self):
        # P/(r d) = 1e310 overflows while N d/(2r) = 5e-331 underflows to 0:
        # the product inf * 0 would be NaN, a model breakdown (exit 3).
        geom = ArrayGeometry(1, 1, 1e-170, 1.0)
        link = LinkBudget(wavelength_m=0.1, transmit_snr=1e300)
        with pytest.raises(OverflowError):
            snr_collocated(geom, UserLocation(1e160), link)

    def test_half_extent_denominator_underflow(self):
        # 2 r cos(angle) underflows to 0 while r d cos(angle) does not, and
        # a power this low keeps the prefactor finite: the arctangents take
        # their limit, where they once divided by zero.
        geom = ArrayGeometry(16, 20, 10.0, 1.0)
        user = UserLocation(5e-321, math.radians(89.99))
        link = LinkBudget(wavelength_m=0.1, transmit_snr=1e-300)
        scale = user.range_m * 10.0 * math.cos(user.angle_rad)
        report = snr_collocated(geom, user, link)
        assert report.value_linear == 1e-300 / scale * math.pi

    def test_doubled_half_extent_overflow(self):
        # The half extent a = 1e308 is finite but 2a is not: the arctangents
        # still sum to their limit pi, not atan2(inf, -inf) = 3pi/4.
        geom = ArrayGeometry(16, 20, 10.0, 1.0)
        user = UserLocation(1.6e-305, 0.0)
        link = LinkBudget(wavelength_m=0.1, transmit_snr=1e-300)
        report = snr_collocated(geom, user, link)
        assert report.value_linear == 1e-300 / (1.6e-305 * 10.0) * math.pi


class TestAsymptotic:
    def test_reference_scenario(self, reference):
        report = snr_asymptotic(reference.geometry, reference.user, reference.link)
        want = math.pi * 16 * 1e5 / (35 * 0.0628 * 35)
        assert report.value_linear == pytest.approx(want, rel=1e-12)
        assert report.value_linear == pytest.approx(65339.24666246809, rel=1e-12)
        assert report.value_db == pytest.approx(48.1517, abs=5e-4)

    def test_collocated_limit_ignores_module_size(self):
        a = snr_asymptotic(ArrayGeometry(4, 2, 0.0628, 1.0), BROADSIDE, LINK)
        b = snr_asymptotic(ArrayGeometry(9, 2, 0.0628, 1.0), BROADSIDE, LINK)
        assert a.value_linear == pytest.approx(b.value_linear, rel=1e-12)

    def test_single_element_modules_scale_with_separation(self):
        near = snr_asymptotic(ArrayGeometry(1, 2, 0.0628, 2.0), BROADSIDE, LINK)
        far = snr_asymptotic(ArrayGeometry(1, 2, 0.0628, 4.0), BROADSIDE, LINK)
        assert near.value_linear == pytest.approx(2.0 * far.value_linear, rel=1e-12)

    def test_endfire_diverges(self, reference):
        with pytest.raises(UnboundedLimitError):
            snr_asymptotic(reference.geometry, UserLocation(35.0, math.pi / 2), LINK)


class TestPlaneWave:
    def test_single_element_matches_exact_bitwise(self):
        geom = ArrayGeometry(1, 1, 0.0628, 1.0)
        user = UserLocation(17.3, 0.4)
        upw = snr_upw(geom, user, LINK)
        exact = snr_exact_sum(geom, user, LINK)
        assert upw.value_linear == exact.value_linear

    def test_reference_scenario(self, reference):
        report = snr_upw(reference.geometry, reference.user, reference.link)
        assert report.value_linear == pytest.approx(3.2e7 / 1225.0, rel=1e-12)
        assert report.value_db == pytest.approx(44.1701, abs=5e-4)
        assert report.validity_flags == {"far_field_assumed"}

    def test_value_ignores_angle_and_separation(self, reference):
        geom = reference.geometry
        base = snr_upw(geom, BROADSIDE, LINK).value_linear
        assert snr_upw(geom, UserLocation(35.0, 1.0), LINK).value_linear == base
        squeezed = ArrayGeometry(16, 20, 0.0628, 1.0)
        assert snr_upw(squeezed, BROADSIDE, LINK).value_linear == base

    def test_flag_cleared_far_away(self, reference):
        report = snr_upw(reference.geometry, UserLocation(300.0), LINK)
        assert report.validity_flags == frozenset()


class TestDoubleIntegral:
    @given(
        st.integers(1, 32),
        st.integers(1, 344),
        st.floats(1.0, 60.0),
        st.floats(-1.3, 4.0),
        st.floats(-89.9, 89.9),
    )
    def test_within_one_percent_or_flagged(self, m, n, ratio, log_r, deg):
        # The integral sets the closed form's flag, computed by one helper;
        # at 0.155 m from a 3 x 344 array at 89 deg it was once 418 times
        # the exact sum with no flag.
        geom = ArrayGeometry(m, n, 0.0628, ratio)
        user = UserLocation(10.0**log_r, math.radians(deg))
        try:
            integral = snr_double_integral(geom, user, LINK)
            exact = snr_exact_sum(geom, user, LINK).value_linear
        except (DegenerateGeometryError, QuadratureAccuracyError):
            return
        flags = snr_closed_form(geom, user, LINK).validity_flags
        assert integral.validity_flags == flags
        if not flags:
            assert integral.value_linear == pytest.approx(
                exact, rel=CONTINUUM_TOLERANCE
            )

    def test_single_element(self):
        geom = ArrayGeometry(1, 1, 0.0628, 1.0)
        report = snr_double_integral(geom, BROADSIDE, LINK)
        assert report.value_linear == pytest.approx(1e5 / 1225.0, rel=2e-6)

    def test_angle_symmetry(self, reference):
        geom = reference.geometry
        left = snr_double_integral(geom, UserLocation(35.0, 0.5), LINK)
        right = snr_double_integral(geom, UserLocation(35.0, -0.5), LINK)
        assert left.value_linear == pytest.approx(right.value_linear, rel=1e-12)

    @pytest.mark.parametrize("theta_deg", [89.9999999, 89.99999999, 90.0])
    def test_flagged_beyond_the_tip_at_endfire(self, reference, theta_deg):
        # Beyond the tip the value stays the continuum's, 43161.13 against an
        # exact 43030.73 at 35 m, at all three angles.  The flag once dropped
        # at the closed forms' endfire threshold, |cos| < 1e-9, which lies
        # between the first two angles.
        user = UserLocation(35.0, math.radians(theta_deg))
        report = snr_double_integral(reference.geometry, user, LINK)
        assert report.validity_flags == {FLAG_EPSILON_NOT_SMALL}
        assert report.value_linear == pytest.approx(43161.13, rel=1e-7)
        # The closed form's flags stay its own: the continuum step off
        # endfire, and only the fallback's flag on it.
        closed = snr_closed_form(reference.geometry, user, LINK)
        off_endfire = theta_deg == 89.9999999
        assert closed.validity_flags == {
            FLAG_EPSILON_NOT_SMALL if off_endfire else FLAG_THETA_NEAR_ENDFIRE
        }

    def test_user_on_segment_rejected(self):
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        with pytest.raises(DegenerateGeometryError):
            snr_double_integral(geom, UserLocation(2.0, math.pi / 2), LINK)

    @staticmethod
    def endfire_tip(r):
        """The user at endfire, r - 3 m beyond the tip of three elements 1 m
        apart, and the SNR of the continuum integral there.

        The integrand is 1/(x + 3y - 1)^2 over [-1.5/r, 1.5/r] x
        [-0.5/r, 0.5/r], which integrates to ln(r^2 / ((r - 3)(r + 3))) / 3;
        r - 3 is exact in floating point.
        """
        exact = LINK.effective_power * math.log(r * r / ((r - 3.0) * (r + 3.0))) / 3.0
        return ArrayGeometry(3, 1, 1.0, 1.0), UserLocation(r, math.pi / 2), exact

    def test_near_singular_tip_matches_endfire_integral(self):
        geom, user, exact = self.endfire_tip(3.0000001)
        report = snr_double_integral(geom, user, LINK)
        assert report.value_linear == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize(
        "gap_m", [1e-5, 1e-7, 1e-8, 1e-9, 3e-10, 1e-10, 5e-11, 3e-11]
    )
    def test_near_singular_tip_never_silently_off(self, gap_m):
        # Within 1e-9 m of the tip, rounding in x + v - sin alone is worth up
        # to 3e-7 of the value; the error estimate must count it and raise.
        geom, user, exact = self.endfire_tip(3.0 + gap_m)
        try:
            report = snr_double_integral(geom, user, LINK)
        except QuadratureAccuracyError:
            return  # the right answer once rounding outweighs the tolerance
        assert report.value_linear == pytest.approx(exact, rel=1e-8)

    def test_near_singular_reports_accuracy_failure(self):
        # With a 1e-11 m gap to the tip, rounding alone is worth more than
        # the tolerance, so the quadrature halves the tip panel until the
        # panel budget runs out, quickly and with a close estimate.
        geom, user, exact = self.endfire_tip(3.0 + 1e-11)
        start = time.monotonic()
        with pytest.raises(QuadratureAccuracyError) as info:
            snr_double_integral(geom, user, LINK)
        assert time.monotonic() - start < 2.0
        assert "integrand evaluations" in str(info.value)
        assert info.value.estimate == pytest.approx(exact, rel=QUADRATURE_AGREEMENT)

    def test_unreachable_tolerance_stops_at_the_rectangle_budget(
        self, reference, monkeypatch
    ):
        # A tolerance below rounding on a smooth integrand: the quadrature
        # must stop at the panel budget, quickly, with the converged value.
        converged = snr_double_integral(reference.geometry, BROADSIDE, LINK)
        monkeypatch.setattr(snr_models, "QUADRATURE_REL_TOL", 1e-17)
        start = time.monotonic()
        with pytest.raises(QuadratureAccuracyError) as info:
            snr_double_integral(reference.geometry, BROADSIDE, LINK)
        assert time.monotonic() - start < 2.0
        assert "integrand evaluations" in str(info.value)
        assert info.value.estimate == pytest.approx(converged.value_linear, rel=1e-12)

    def test_overflowing_interval_raises_before_the_quadrature(self, monkeypatch):
        # At separation ratio 1e308 the panel edges would be +-1.5e308, and
        # their midpoints and widths would overflow; the model raises before
        # the quadrature runs.
        runs = []
        monkeypatch.setattr(
            snr_models, "_adaptive_gauss_legendre",
            lambda *args: runs.append(args),
        )
        geom = ArrayGeometry(2, 3, 1.0, 1e308)
        with pytest.raises(OverflowError):
            snr_double_integral(geom, UserLocation(1.0, 0.3), LINK)
        assert runs == []

    def test_nan_estimates_stop_the_quadrature(self):
        # A NaN error estimate splits no panel, so the loop must stop after
        # the first generation rather than spin.
        def integrand(u):
            return np.full(u.shape, math.nan), np.zeros(u.shape)

        total, error, evaluations = snr_models._adaptive_gauss_legendre(
            integrand, (-1.0, -0.5, 0.5, 1.0), 1e-9
        )
        assert math.isnan(total) and math.isnan(error)
        assert evaluations == 3 * (16 + 8)

    @pytest.mark.parametrize(
        "modules,range_m,theta_deg", [(625, 4.0, 60.0), (400, 3.0, 80.0)]
    )
    def test_close_to_a_long_array(self, modules, range_m, theta_deg):
        # The integrand's peak is a thin ridge across an integration
        # rectangle about 900 and 1400 times longer than wide.
        geom = ArrayGeometry(16, modules, 0.0628, 20.0)
        user = UserLocation(range_m, math.radians(theta_deg))
        value = snr_double_integral(geom, user, LINK).value_linear
        closed = snr_closed_form(geom, user, LINK).value_linear
        assert value == pytest.approx(closed, rel=QUADRATURE_AGREEMENT)

    @pytest.mark.parametrize(
        "m,n,ratio,range_m,theta_deg",
        [
            (23, 35, 23.296, 18.0176, -89.077),
            (23, 536, 6.148, 1.1977, -89.8363),
            (28, 355, 23.687, 1.1355, 89.8763),
            (7, 445, 17.1148577533563, 1.6177924820475376, 89.47446643769709),
        ],
    )
    def test_close_in_near_endfire(self, m, n, ratio, range_m, theta_deg):
        # Thin ridges along x + v = sin(angle); the last one exhausts the
        # panel budget of a loop that accepts panels for good.
        geom = ArrayGeometry(m, n, 0.0628, ratio)
        user = UserLocation(range_m, math.radians(theta_deg))
        value = snr_double_integral(geom, user, LINK).value_linear
        closed = snr_closed_form(geom, user, LINK).value_linear
        assert value == pytest.approx(closed, rel=QUADRATURE_AGREEMENT)

    @given(
        st.integers(1, 32),
        st.integers(1, 625),
        st.floats(1.0, 30.0),
        st.floats(0.005, 0.1),
        st.floats(0.0, 4.0),
        st.floats(-89.9, 89.9),
    )
    def test_close_in_domain_never_raises(self, m, n, ratio, d, log_range, deg):
        # Beyond 1e3 m the closed form's own cancellation reaches 4e-7, so it
        # is no reference there.
        geom = ArrayGeometry(m, n, d, ratio)
        user = UserLocation(10.0**log_range, math.radians(deg))
        value = snr_double_integral(geom, user, LINK).value_linear
        if user.range_m <= 1e3:
            closed = snr_closed_form(geom, user, LINK).value_linear
            assert value == pytest.approx(closed, rel=QUADRATURE_AGREEMENT)

    @given(
        st.integers(1, 20),
        st.integers(1, 30),
        st.floats(1.0, 30.0),
        st.floats(0.01, 0.1),
        st.floats(1e-4, 2e-3),
        st.floats(0.0, 80.0),
    )
    def test_criterion_domain_matches_closed_form(self, m, n, ratio, d, eps, deg):
        # The domain of acceptance criterion 02; no case may run out of
        # panels, so QuadratureAccuracyError fails the test.
        geom = ArrayGeometry(m, n, d, ratio)
        left = UserLocation(d / eps, math.radians(deg))
        right = UserLocation(d / eps, -math.radians(deg))
        value = snr_double_integral(geom, left, LINK).value_linear
        closed = snr_closed_form(geom, left, LINK).value_linear
        assert value == pytest.approx(closed, rel=QUADRATURE_AGREEMENT)
        mirrored = snr_double_integral(geom, right, LINK).value_linear
        assert value == pytest.approx(mirrored, rel=1e-12)


@pytest.mark.parametrize(
    "model", [snr_exact_sum, snr_upw, snr_double_integral, snr_closed_form]
)
@pytest.mark.parametrize("range_m", [5e-155, 1e-158, 1e-170])
def test_tiny_range_raises_overflow_error(reference, model, range_m):
    # Below about 1e-154 m P / r**2 or a squared distance ratio overflows,
    # below about 2.2e-162 m r**2 underflows to 0, and the closed form's
    # bracket squares arguments past 1e154: each is an OverflowError, never
    # a NaN breakdown or a bare ZeroDivisionError.
    with pytest.raises(OverflowError):
        model(reference.geometry, UserLocation(range_m), reference.link)


def test_integral_of_zero_raises(reference):
    # At 1e-155 m every node's squared offset overflows, so the quadrature
    # of the positive integrand reads 0; with this power the scale is finite.
    link = LinkBudget(wavelength_m=0.1256, transmit_snr=1e-30)
    with pytest.raises(ValueError, match="floating-point range"):
        snr_double_integral(reference.geometry, UserLocation(1e-155), link)


#: Each model's documented typed errors besides ``OverflowError`` and
#: ``ValueError``.  The closed forms return the exact sum near endfire, so
#: they can meet its distance floor.
TYPED_ERRORS = {
    SnrModel.EXACT_SUM: (snr_exact_sum, (DegenerateGeometryError,)),
    SnrModel.CLOSED_FORM: (snr_closed_form, (DegenerateGeometryError,)),
    SnrModel.COLLOCATED: (
        snr_collocated,
        (DegenerateGeometryError, ModelMismatchError),
    ),
    SnrModel.ASYMPTOTIC: (snr_asymptotic, (UnboundedLimitError,)),
    SnrModel.UPW: (snr_upw, ()),
    SnrModel.INTEGRAL: (
        snr_double_integral,
        (DegenerateGeometryError, QuadratureAccuracyError),
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", list(SnrModel))
@settings(max_examples=200)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.one_of(st.just(1.0), st.floats(1.0, 30.0)),
    st.floats(-320.0, 3.0),
    st.floats(-323.0, 300.0),
    st.floats(-300.0, 300.0),
    st.floats(-89.99999, 89.99999),
)
def test_value_or_typed_error(model, m, n, ratio, log_d, log_r, log_p, deg):
    # Spacing, range and power over most of the floating-point range.  A
    # scale whose divisor underflowed to 0 once raised a bare
    # ZeroDivisionError, and an infinite scale times a bracket that
    # underflowed to 0 once reported the NaN as a model breakdown.  200
    # examples, not the suite's 60, find the asymptotic model's zero divisor.
    # Neither error is among those caught here.
    evaluate, typed = TYPED_ERRORS[model]
    geom = ArrayGeometry(m, n, 10.0**log_d, ratio)
    user = UserLocation(10.0**log_r, math.radians(deg))
    link = LinkBudget(wavelength_m=0.1256, transmit_snr=10.0**log_p)
    try:
        value = evaluate(geom, user, link).value_linear
    except (OverflowError, ValueError, *typed):
        return
    assert 0.0 < value < math.inf
