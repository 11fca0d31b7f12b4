import copy
import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elements import block_ratios, element_distances, element_positions
from modxl import geometry
from modxl.channel import LinkBudget, array_response_nusw
from modxl.errors import DegenerateGeometryError
from modxl.geometry import (
    ArrayGeometry,
    UserLocation,
    normalized_spacing,
    run_ratio_blocks,
)
from modxl.snr_models import snr_exact_sum

REF = ArrayGeometry(
    elements_per_module=16, module_count=20,
    element_spacing=0.0628, separation_ratio=20.0,
)
#: The fields that the constructor derives from the four inputs.
DERIVED = ("module_separation", "total_elements", "stride", "half_span",
           "aperture", "augmented_span")


def inputs(geom):
    "The constructor's arguments of ``geom``, by name."
    return {f.name: getattr(geom, f.name) for f in fields(geom) if f.init}


def geometries():
    return st.builds(
        ArrayGeometry,
        elements_per_module=st.integers(1, 8),
        module_count=st.integers(1, 6),
        element_spacing=st.floats(1e-3, 2.0),
        separation_ratio=st.floats(1.0, 30.0),
    )


def users():
    return st.builds(
        UserLocation,
        range_m=st.floats(5.0, 500.0),
        angle_rad=st.floats(-math.pi / 2, math.pi / 2),
    )


class TestArrayGeometry:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(elements_per_module=0, module_count=1, element_spacing=0.1),
            dict(elements_per_module=1, module_count=0, element_spacing=0.1),
            dict(elements_per_module=1, module_count=1, element_spacing=0.0),
            dict(elements_per_module=1, module_count=1, element_spacing=-1.0),
            dict(
                elements_per_module=1, module_count=1,
                element_spacing=0.1, separation_ratio=0.5,
            ),
            dict(elements_per_module=16.5, module_count=20, element_spacing=0.1),
            dict(elements_per_module=16, module_count=20.0, element_spacing=0.1),
            dict(elements_per_module=16, module_count=20, element_spacing=math.inf),
            dict(elements_per_module=16, module_count=20, element_spacing=math.nan),
            dict(
                elements_per_module=16, module_count=20,
                element_spacing=0.1, separation_ratio=math.inf,
            ),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ArrayGeometry(**kwargs)

    @pytest.mark.parametrize("name", ["elements_per_module", "module_count"])
    def test_counts_up_to_2_to_the_53(self, name):
        # Above 2**53 centred indices are not exact floats, and the exact sum
        # of 10**17 modules was 6.4 times that of 10**15.
        counts = dict(elements_per_module=3, module_count=3, element_spacing=0.1)
        assert getattr(ArrayGeometry(**{**counts, name: 2**53}), name) == 2**53
        with pytest.raises(ValueError, match=r"2\*\*53"):
            ArrayGeometry(**{**counts, name: 2**53 + 1})

    @pytest.mark.parametrize("name", ["elements_per_module", "module_count"])
    @pytest.mark.parametrize("count", [np.int64(3), True], ids=["int64", "True"])
    def test_integral_counts_are_stored_as_int(self, name, count):
        # Neither is of type int, so each takes the Integral check.
        counts = dict(elements_per_module=3, module_count=3, element_spacing=0.1)
        value = getattr(ArrayGeometry(**{**counts, name: count}), name)
        assert type(value) is int and value == int(count)

    @pytest.mark.parametrize("name", ["elements_per_module", "module_count"])
    @pytest.mark.parametrize(
        "count", [16.0, np.bool_(True)], ids=["float", "numpy-bool"]
    )
    def test_non_integral_counts_are_rejected(self, name, count):
        counts = dict(elements_per_module=3, module_count=3, element_spacing=0.1)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1$"):
            ArrayGeometry(**{**counts, name: count})

    def test_counts_are_checked_in_order(self):
        with pytest.raises(ValueError, match="^elements_per_module must"):
            ArrayGeometry(16.0, np.bool_(True), 0.1)
        with pytest.raises(ValueError, match="^module_count must"):
            ArrayGeometry(True, 0, -1.0)

    def test_numpy_integer_counts_accepted(self):
        geom = ArrayGeometry(np.int64(16), np.int32(20), 0.0628, 20.0)
        assert geom.total_elements == 320
        # Held as int: numpy counts 1024 * 2**53 once wrapped to -2**63, and
        # the exact sum was routed to the distance kernel, asking for 64 PiB.
        counts = ArrayGeometry(np.int64(1024), np.int64(2**53), 0.0628, 20.0)
        ints = ArrayGeometry(1024, 2**53, 0.0628, 20.0)
        assert type(counts.elements_per_module) is int
        assert type(counts.module_count) is int
        assert counts.total_elements == 2**63
        user, link = UserLocation(80.0, 0.4), LinkBudget(0.1256, transmit_snr=1e5)
        assert (snr_exact_sum(counts, user, link).value_linear
                == snr_exact_sum(ints, user, link).value_linear)

    def test_stride(self):
        assert REF.stride == 35.0
        collocated = ArrayGeometry(7, 3, 0.1, 1.0)
        assert collocated.stride == collocated.elements_per_module

    def test_module_separation_and_counts(self):
        assert REF.module_separation == pytest.approx(1.256, rel=1e-15)
        assert REF.total_elements == 320

    def test_derived_fields_stay_out_of_equality_hash_and_repr(self):
        # The derived lengths are set by the constructor; an instance whose
        # fields were set otherwise still compares, hashes and prints as the
        # four inputs say.
        assert DERIVED == tuple(f.name for f in fields(REF) if not f.init)
        fresh = ArrayGeometry(16, 20, 0.0628, 20.0)
        altered = ArrayGeometry(16, 20, 0.0628, 20.0)
        for name in DERIVED:
            object.__setattr__(altered, name, -1.0)
        assert altered == fresh and hash(altered) == hash(fresh)
        assert repr(altered) == repr(fresh) == (
            "ArrayGeometry(elements_per_module=16, module_count=20, "
            "element_spacing=0.0628, separation_ratio=20.0)"
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(fresh, protocol) == pickle.dumps(REF, protocol)
            clone = pickle.loads(pickle.dumps(fresh, protocol))
            assert clone == fresh and vars(clone) == vars(fresh)
        for clone in (copy.copy(fresh), copy.deepcopy(fresh)):
            assert clone == fresh and vars(clone) == vars(fresh)

    def test_replace_sets_the_derived_fields_again(self):
        for changes in (
            dict(elements_per_module=7), dict(module_count=3),
            dict(element_spacing=0.5), dict(separation_ratio=1.0),
        ):
            changed = replace(REF, **changes)
            built = ArrayGeometry(**{**inputs(REF), **changes})
            assert vars(changed) == vars(built) != vars(REF)
        with pytest.raises(ValueError, match="init=False"):
            replace(REF, stride=1.0)

    @given(geometries())
    def test_stride_at_least_module_size(self, geom):
        assert geom.stride >= geom.elements_per_module


class TestAperture:
    def test_single_element(self):
        single = ArrayGeometry(1, 1, 0.0628, 1.0)
        span, augmented = single.aperture, single.augmented_span
        assert span == 0.0
        assert augmented == pytest.approx(0.1256, rel=1e-15)

    def test_reference_values(self):
        span, augmented = REF.aperture, REF.augmented_span
        assert span == pytest.approx(680 * 0.0628, rel=1e-15)
        assert span == pytest.approx(42.704, rel=1e-12)
        assert augmented == pytest.approx(44.9648, rel=1e-12)

    @given(geometries())
    def test_augmented_exceeds_span(self, geom):
        span, augmented = geom.aperture, geom.augmented_span
        assert augmented > span
        single = geom.elements_per_module == 1 and geom.module_count == 1
        assert (span == 0.0) == single

    @given(geometries())
    def test_span_is_max_pairwise_distance(self, geom):
        ys = [y for _, y in element_positions(geom)]
        span = geom.aperture
        assert span == pytest.approx(max(ys) - min(ys), rel=1e-12, abs=1e-15)


def distances(geom, user):
    "Element-to-user distances from the blocked kernel, module-major, metres."
    return user.range_m * np.sqrt(block_ratios(geom, user))


def axis_offsets(geom):
    """Axis offsets of the elements in spacings, module-major, read back from
    the distance kernel.  A user on the positive array axis at 2^k spacings,
    beyond the array, sees the element at offset u at distance ratio
    1 - u*2^-k, so u = (1 - sqrt(ratio))*2^k.  With eps = 2^-k, every step
    is exact where u*eps fits the significand beside the 1."""
    span = geom.aperture
    scale = 2.0 ** math.ceil(math.log2(span / geom.element_spacing + 2.0))
    user = UserLocation(scale * geom.element_spacing, math.pi / 2)
    return (1.0 - np.sqrt(block_ratios(geom, user))) * scale


class TestElementIndexing:
    def test_center_element_at_origin(self):
        # The centre element sees the range itself at every angle.
        geom = ArrayGeometry(3, 3, 1.0, 2.0)
        assert axis_offsets(geom)[4] == 0.0
        for angle in (-1.2, 0.0, 0.4, math.pi / 2):
            assert distances(geom, UserLocation(7.0, angle))[4] == 7.0

    def test_half_integer_offset(self):
        # K = 35, so (m, n) = (0.5, 0.5), element 168, sits 18 spacings off
        # center.
        offset = axis_offsets(REF)[168]
        assert offset == 18.0
        assert offset * REF.element_spacing == pytest.approx(1.1304, rel=1e-12)

    def test_collocated_layout(self):
        # (m, n) = (1, 1) is the last element.
        geom = ArrayGeometry(3, 3, 1.0, 1.0)
        assert axis_offsets(geom)[8] * geom.element_spacing == 4.0

    def test_enumeration_is_module_major(self):
        # Modules ascending, elements ascending within each; K = 5.
        geom = ArrayGeometry(2, 3, 0.5, 4.0)
        assert axis_offsets(geom).tolist() == [-5.5, -4.5, -0.5, 0.5, 4.5, 5.5]

    @given(geometries())
    def test_offsets_antisymmetric(self, geom):
        offsets = axis_offsets(geom)
        np.testing.assert_allclose(offsets, -offsets[::-1], atol=1e-12)

    def test_positions_antisymmetric_in_index(self):
        # (m, n) = (2, 1.5) and (-2, -1.5) are the last and the first element.
        geom = ArrayGeometry(5, 4, 0.2, 3.5)
        y = axis_offsets(geom) * geom.element_spacing
        assert y[-1] == -y[0]

    def test_unit_separation_matches_plain_array(self):
        # L = 1 collapses modules into one contiguous uniform array: the
        # kernel gives the same distances in the same order.
        user = UserLocation(3.0, 0.8)
        modular = distances(ArrayGeometry(3, 2, 0.7, 1.0), user)
        plain = distances(ArrayGeometry(6, 1, 0.7, 1.0), user)
        assert modular.tobytes() == plain.tobytes()


class TestUserLocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            UserLocation(0.0)
        with pytest.raises(ValueError):
            UserLocation(-3.0)
        with pytest.raises(ValueError):
            UserLocation(5.0, 1.6)
        with pytest.raises(ValueError):
            UserLocation(math.inf)
        with pytest.raises(ValueError):
            UserLocation(math.nan)

    def test_normalized_spacing(self):
        user = UserLocation(35.0)
        assert normalized_spacing(REF, user) == pytest.approx(
            0.0628 / 35.0, rel=1e-15
        )


class TestDistance:
    def test_center_element_sees_range(self):
        geom = ArrayGeometry(1, 1, 0.1, 1.0)
        user = UserLocation(35.0, 0.3)
        assert distances(geom, user).tolist() == [35.0]

    def test_collinear_case(self):
        # User on the array axis one spacing beyond the element m = 1.
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        user = UserLocation(10.0, math.pi / 2)
        assert distances(geom, user)[2] == pytest.approx(9.0, rel=1e-14)

    def test_reference_off_axis_element(self):
        # K = 36 here, so (m, n) = (0, 1), element 195, sits 36 spacings =
        # 2.2608 m off center; the user is broadside at 35 m.
        geom = ArrayGeometry(17, 21, 0.0628, 20.0)
        user = UserLocation(35.0, 0.0)
        value = distances(geom, user)[195]
        assert value == pytest.approx(math.hypot(35.0, 2.2608), rel=1e-14)
        assert value == pytest.approx(35.072941, abs=5e-6)

    # Element 5 lies 1.4e-15 m from the user, so the kernel rejects the
    # whole array while element 0 is 10 m away.
    @example(ArrayGeometry(1, 6, 1.0, 2.0), UserLocation(5.0, 1.5707963267948963), 0)
    @given(geometries(), users(), st.integers(0, 47))
    def test_matches_cartesian_norm(self, geom, user, index):
        i = index % geom.total_elements  # at most 8 x 6 elements
        oracle = element_distances(geom, user)[i]
        if oracle < 1e-2 * user.range_m:
            return  # near-coincident element, ill-conditioned for both routes
        try:
            value = distances(geom, user)[i]
        except DegenerateGeometryError:
            return  # another element lies within the kernel's floor
        assert value == pytest.approx(oracle, rel=1e-12)

    @given(geometries(), users())
    def test_reflection_symmetry(self, geom, user):
        # Mirroring the user across broadside mirrors element (m, n) to
        # (-m, -n), which reverses the module-major order.
        mirrored = UserLocation(user.range_m, -user.angle_rad)
        try:
            left = distances(geom, user)
            right = distances(geom, mirrored)
        except DegenerateGeometryError:
            return
        np.testing.assert_allclose(left, right[::-1], rtol=1e-14)

    def test_near_coincident_element_keeps_precision(self):
        # The user sits 1e-6 m beyond element m = 1 on the array axis; the
        # expanded 1 - 2*u*eps*sin + (u*eps)^2 would lose all but four digits.
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        user = UserLocation(1.000001, math.pi / 2)
        oracle = math.hypot(user.range_m * math.cos(user.angle_rad), user.range_m - 1.0)
        assert distances(geom, user)[2] == pytest.approx(oracle, rel=1e-9)
        amplitude = abs(array_response_nusw(geom, user, LinkBudget(0.1))[2])
        assert amplitude == pytest.approx(1.0 / oracle, rel=1e-9)

    def test_user_on_element_rejected(self):
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        user = UserLocation(1.0, math.pi / 2)  # coincides with element m=1
        with pytest.raises(DegenerateGeometryError):
            block_ratios(geom, user)

    @pytest.mark.parametrize("range_m", [1e-153, 1e-155])
    def test_overflowing_ratio_raises(self, range_m):
        # At 1e-153 m only the squared ratios of the outer elements overflow,
        # at 1e-155 m all of them; neither leaves an infinite distance.
        with pytest.raises(OverflowError):
            block_ratios(REF, UserLocation(range_m))

    def test_offsets_left_unchanged(self):
        # Each block of the kernel is a fresh array: arrays a caller holds
        # are never written by a later call of the kernel or of its two
        # consumers, and no two results share memory.
        # Read-only, a write would raise.
        geom = ArrayGeometry(4, 3, 0.3, 2.5)
        user = UserLocation(12.0, -0.7)
        link = LinkBudget(0.1)
        held = [
            block_ratios(geom, user),
            array_response_nusw(geom, user, link),
        ]
        before = [array.copy() for array in held]
        for array in held:
            array.setflags(write=False)
        run_ratio_blocks(geom, user, lambda *block: None, None)
        snr_exact_sum(geom, user, link)
        held.append(block_ratios(geom, user))
        held.append(array_response_nusw(geom, user, link))
        for array, copy in zip(held, before):
            np.testing.assert_array_equal(array, copy)
        for i, left in enumerate(held):
            for right in held[i + 1:]:
                assert not np.shares_memory(left, right)


#: A user 2e-9 m from the array line beside the element at 1 m of a
#: three-element, 1 m array, at 1 m from its centre.
TWICE_THE_FLOOR = math.acos(2e-9)


class TestFloorScan:
    """The kernel scans for a ratio below the floor only where
    ``geometry._floor_may_fire`` holds: wherever it does not, no ratio may
    lie below the floor."""

    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.floats(1e-3, 2.0),
        st.floats(1.0, 30.0),
        st.floats(-12.0, 14.0).map(lambda exponent: 10.0**exponent),
        st.floats(-math.pi / 2, math.pi / 2),
    )
    # r |cos(angle)| at 2e-9 m, the bound's edge, and one ulp of r either
    # side, at broadside and beside an element.
    @example(1, 1, 1e-3, 1.0, math.nextafter(2e-9, 0.0), 0.0)
    @example(1, 1, 1e-3, 1.0, 2e-9, 0.0)
    @example(1, 1, 1e-3, 1.0, math.nextafter(2e-9, 1.0), 0.0)
    @example(3, 1, 1.0, 1.0, math.nextafter(1.0, 0.0), TWICE_THE_FLOOR)
    @example(3, 1, 1.0, 1.0, 1.0, TWICE_THE_FLOOR)
    @example(3, 1, 1.0, 1.0, math.nextafter(1.0, 2.0), TWICE_THE_FLOOR)
    # 7e-10 m from the line beside that element: within the floor, where a
    # bound four times too weak would skip the scan.
    @example(3, 1, 1.0, 1.0, 1.0, math.acos(7e-10))
    # At endfire, beyond the array and on an element.
    @example(3, 1, 1.0, 1.0, 2.0, math.pi / 2)
    @example(3, 1, 1.0, 1.0, 1.0, math.pi / 2)
    @example(3, 1, 1.0, 1.0, 1.0, -math.pi / 2)
    def test_no_ratio_below_the_floor_where_the_scan_is_skipped(
        self, m, n, spacing, ratio, range_m, angle
    ):
        geom = ArrayGeometry(m, n, spacing, ratio)
        user = UserLocation(range_m, angle)
        try:
            floor_ratio = geometry._checked_floor_ratio(geom, user)
        except OverflowError:
            return
        if geometry._floor_may_fire(math.cos(angle), floor_ratio):
            return
        # The kernel's ratios, scanned in full: the floor 0 never fires.
        ue = geometry._module_offsets(m, n, geom.stride, 0, n)
        ue *= normalized_spacing(geom, user)
        assert geometry._offset_ratios(user, ue, 0.0).min() >= floor_ratio
        block_ratios(geom, user)  # the kernel's own floor test agrees

    @pytest.mark.parametrize("c, floor_ratio, may_fire", [
        (1.0, 0.25, False),  # c^2 = 4 * floor_ratio exactly
        (1.0, math.nextafter(0.25, 1.0), True),
        (2e-9, 1e-16, True),  # 2e-10 m from the line at 0.1 m
        (math.cos(math.pi / 2), 1e-40, False),  # 90 degrees, at 1e11 m
        (math.cos(math.pi / 2), 1e-18, True),  # 90 degrees, at 1 m
        # No user's cosine is this small: the guard keeps the bound's proof
        # in the normal range, whatever the floor.
        (1e-151, 0.0, True),
        (1e-149, 0.0, False),
    ])
    def test_skip_needs_twice_the_floor_and_a_normal_square(
        self, c, floor_ratio, may_fire
    ):
        assert geometry._floor_may_fire(c, floor_ratio) is may_fire

    def test_floor_within_twice_its_distance_raises(self):
        # 7e-10 m from the line beside the element at 1 m: the scan runs
        # and fires, off endfire, in the kernel and in the exact sum.
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        user = UserLocation(1.0, math.acos(7e-10))
        with pytest.raises(DegenerateGeometryError):
            block_ratios(geom, user)
        with pytest.raises(DegenerateGeometryError):
            snr_exact_sum(geom, user, LinkBudget(0.1))
