import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modxl.channel import LinkBudget
from modxl.errors import (
    DegenerateGeometryError,
    ModelBreakdownError,
    ModelMismatchError,
    QuadratureAccuracyError,
    UnboundedLimitError,
)
from modxl.geometry import ArrayGeometry, UserLocation, element_indices, element_position
from modxl.snr_models import (
    FLAG_EPSILON_NOT_SMALL,
    FLAG_THETA_NEAR_ENDFIRE,
    SnrModel,
    SnrReport,
    h_aux,
    is_collocated,
    snr_asymptotic,
    snr_closed_form,
    snr_collocated,
    snr_double_integral,
    snr_exact_sum,
    snr_upw,
)

LINK = LinkBudget(wavelength_m=0.1256, transmit_snr=1e5)
BROADSIDE = UserLocation(35.0)


class TestAuxiliary:
    def test_zero(self):
        assert h_aux(0.0) == 0.0

    @pytest.mark.parametrize("x", [0.3, 1.0, 7.5])
    def test_even(self, x):
        assert h_aux(-x) == h_aux(x)

    def test_known_value(self):
        assert h_aux(1.0) == pytest.approx(math.pi / 4 - 0.5 * math.log(2),
                                           rel=1e-15)

    def test_small_argument_precision(self):
        # Quadratic regime: h(x) -> x^2/2.  A naive log() would lose it all.
        assert h_aux(1e-8) == pytest.approx(5e-17, rel=1e-3)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError):
            h_aux(x)

    @given(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0))
    def test_monotone_in_magnitude(self, a, b):
        lo, hi = sorted((a, b))
        assert h_aux(lo) <= h_aux(hi)


class TestSnrReport:
    def test_db_round_trip(self):
        report = SnrReport(SnrModel.UPW, 250.0)
        assert 10.0 ** (report.value_db / 10.0) == pytest.approx(250.0, rel=1e-12)
        assert report.validity_flags == frozenset()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SnrReport(SnrModel.UPW, -1.0)


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
            1.0 / np.sum((user.position - element_position(geom, idx)) ** 2)
            for idx in element_indices(geom)
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


class TestClosedForm:
    def test_reference_scenario(self, reference):
        report = snr_closed_form(reference.geometry, reference.user, reference.link)
        assert report.value_linear == pytest.approx(23324.33235764653, rel=1e-12)
        exact = snr_exact_sum(reference.geometry, reference.user, reference.link)
        assert report.value_linear == pytest.approx(exact.value_linear, rel=1e-2)
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
        assert closed == pytest.approx(integral, rel=1e-6)

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
        assert abs(closed.value_linear / exact.value_linear - 1.0) > 1e-2
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
            assert closed.value_linear == pytest.approx(exact, rel=1e-2)

    @pytest.mark.parametrize("theta_deg", [60.0, -45.0])
    def test_far_field_cancellation_raises(self, reference, theta_deg):
        # At 1e9 m the bracket cancels to exactly 0 (60 deg) or below it
        # (-45 deg); no value would be better than a silently wrong one.
        user = UserLocation(1e9, math.radians(theta_deg))
        with pytest.raises(ModelBreakdownError):
            snr_closed_form(reference.geometry, user, LINK)


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
            snr_exact_sum(geom, BROADSIDE, LINK).value_linear, rel=1e-2
        )
        assert value == pytest.approx(
            snr_closed_form(geom, BROADSIDE, LINK).value_linear, rel=1e-2
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
    def test_single_element(self):
        geom = ArrayGeometry(1, 1, 0.0628, 1.0)
        report = snr_double_integral(geom, BROADSIDE, LINK)
        assert report.value_linear == pytest.approx(1e5 / 1225.0, rel=2e-6)

    def test_angle_symmetry(self, reference):
        geom = reference.geometry
        left = snr_double_integral(geom, UserLocation(35.0, 0.5), LINK)
        right = snr_double_integral(geom, UserLocation(35.0, -0.5), LINK)
        assert left.value_linear == pytest.approx(right.value_linear, rel=1e-12)

    def test_invalid_tolerance(self, reference):
        with pytest.raises(ValueError):
            snr_double_integral(reference.geometry, BROADSIDE, LINK, rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, reference, rel_tol):
        # An infinite tolerance would let any quadrature pass.
        with pytest.raises(ValueError):
            snr_double_integral(reference.geometry, BROADSIDE, LINK, rel_tol=rel_tol)

    def test_user_on_segment_rejected(self):
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        with pytest.raises(DegenerateGeometryError):
            snr_double_integral(geom, UserLocation(2.0, math.pi / 2), LINK)

    @staticmethod
    def endfire_tip(r):
        """The user at endfire, r - 3 m beyond the tip of three elements 1 m
        apart, and the SNR of the continuum integral there.

        The integrand is 1/(x + 3y - 1)^2 over the rectangle of half-widths
        1.5/r (x) and 0.5/r (y), which integrates to
        ln(r^2 / ((r - 3)(r + 3))) / 3; r - 3 is exact in floating point.
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
        # 1e-8 of the value, so the cubature refines until its rectangles
        # run out.
        geom, user, _ = self.endfire_tip(3.0 + 1e-11)
        with pytest.raises(QuadratureAccuracyError) as info:
            snr_double_integral(geom, user, LINK)
        assert info.value.estimate > 0.0

    def test_unreachable_tolerance_stops_at_the_rectangle_budget(self, reference):
        start = time.monotonic()
        with pytest.raises(QuadratureAccuracyError) as info:
            snr_double_integral(reference.geometry, BROADSIDE, LINK, rel_tol=1e-17)
        assert time.monotonic() - start < 2.0
        assert "integrand evaluations" in str(info.value)
        assert info.value.estimate == pytest.approx(
            snr_double_integral(reference.geometry, BROADSIDE, LINK).value_linear,
            rel=1e-12,
        )

    @pytest.mark.parametrize(
        "modules,range_m,theta_deg", [(625, 4.0, 60.0), (400, 3.0, 80.0)]
    )
    def test_close_to_a_long_array(self, modules, range_m, theta_deg):
        # The integrand's peak is a thin ridge across a rectangle about 900
        # and 1400 times longer than wide; splitting every rectangle into
        # quadrants runs out of rectangles in both cases.
        geom = ArrayGeometry(16, modules, 0.0628, 20.0)
        user = UserLocation(range_m, math.radians(theta_deg))
        value = snr_double_integral(geom, user, LINK).value_linear
        closed = snr_closed_form(geom, user, LINK).value_linear
        assert value == pytest.approx(closed, rel=1e-6)

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
        # rectangles, so QuadratureAccuracyError fails the test.
        geom = ArrayGeometry(m, n, d, ratio)
        left = UserLocation(d / eps, math.radians(deg))
        right = UserLocation(d / eps, -math.radians(deg))
        value = snr_double_integral(geom, left, LINK).value_linear
        closed = snr_closed_form(geom, left, LINK).value_linear
        assert value == pytest.approx(closed, rel=1e-6)
        mirrored = snr_double_integral(geom, right, LINK).value_linear
        assert value == pytest.approx(mirrored, rel=1e-12)
