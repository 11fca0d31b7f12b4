import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modxl import geometry
from modxl.errors import DegenerateGeometryError, ElementIndexError
from modxl.geometry import (
    ArrayGeometry,
    ElementIndex,
    UserLocation,
    aperture,
    distance,
    distances,
    element_index_offset,
    element_indices,
    element_offsets,
    element_position,
    normalized_spacing,
)

REF = ArrayGeometry(
    elements_per_module=16, module_count=20,
    element_spacing=0.0628, separation_ratio=20.0,
)


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

    def test_numpy_integer_counts_accepted(self):
        geom = ArrayGeometry(np.int64(16), np.int32(20), 0.0628, 20.0)
        assert geom.total_elements == 320

    def test_stride(self):
        assert REF.stride == 35.0
        collocated = ArrayGeometry(7, 3, 0.1, 1.0)
        assert collocated.stride == collocated.elements_per_module

    def test_module_separation_and_counts(self):
        assert REF.module_separation == pytest.approx(1.256, rel=1e-15)
        assert REF.total_elements == 320

    @given(geometries())
    def test_stride_at_least_module_size(self, geom):
        assert geom.stride >= geom.elements_per_module


class TestAperture:
    def test_single_element(self):
        span, augmented = aperture(ArrayGeometry(1, 1, 0.0628, 1.0))
        assert span == 0.0
        assert augmented == pytest.approx(0.1256, rel=1e-15)

    def test_reference_values(self):
        span, augmented = aperture(REF)
        assert span == pytest.approx(680 * 0.0628, rel=1e-15)
        assert span == pytest.approx(42.704, rel=1e-12)
        assert augmented == pytest.approx(44.9648, rel=1e-12)

    @given(geometries())
    def test_augmented_exceeds_span(self, geom):
        span, augmented = aperture(geom)
        assert augmented > span
        single = geom.elements_per_module == 1 and geom.module_count == 1
        assert (span == 0.0) == single

    @given(geometries())
    def test_span_is_max_pairwise_distance(self, geom):
        offsets = element_offsets(geom) * geom.element_spacing
        span, _ = aperture(geom)
        assert span == pytest.approx(offsets.max() - offsets.min(), rel=1e-12, abs=1e-15)


class TestElementIndexing:
    def test_center_element_at_origin(self):
        geom = ArrayGeometry(3, 3, 1.0, 2.0)
        pos = element_position(geom, ElementIndex(0.0, 0.0))
        assert pos.tolist() == [0.0, 0.0]

    def test_half_integer_offset(self):
        # K = 35, so (m, n) = (0.5, 0.5) sits 18 spacings off center.
        pos = element_position(REF, ElementIndex(0.5, 0.5))
        assert pos[0] == 0.0
        assert pos[1] == pytest.approx(18 * 0.0628, rel=1e-15)
        assert pos[1] == pytest.approx(1.1304, rel=1e-12)

    def test_collocated_layout(self):
        geom = ArrayGeometry(3, 3, 1.0, 1.0)
        pos = element_position(geom, ElementIndex(1.0, 1.0))
        assert pos.tolist() == [0.0, 4.0]

    @pytest.mark.parametrize(
        "element,module",
        [
            (0.0, 0.5),     # wrong parity for even M
            (0.5, 0.0),     # wrong parity for even N
            (8.5, 0.5),     # outside the element range
            (0.5, 10.5),    # outside the module range
            (0.3, 0.5),     # not on the unit grid
        ],
    )
    def test_invalid_indices_rejected(self, element, module):
        with pytest.raises(ElementIndexError):
            element_index_offset(REF, ElementIndex(element, module))

    def test_enumeration_is_module_major(self):
        geom = ArrayGeometry(2, 3, 0.5, 4.0)
        listed = list(element_indices(geom))
        assert len(listed) == geom.total_elements
        assert listed[0] == ElementIndex(element=-0.5, module=-1.0)
        assert listed[1] == ElementIndex(element=0.5, module=-1.0)
        assert listed[2] == ElementIndex(element=-0.5, module=0.0)
        offsets = element_offsets(geom)
        for idx, offset in zip(listed, offsets):
            assert element_index_offset(geom, idx) == offset

    @given(geometries())
    def test_offsets_antisymmetric(self, geom):
        offsets = element_offsets(geom)
        np.testing.assert_allclose(offsets, -offsets[::-1], atol=1e-12)

    def test_positions_antisymmetric_in_index(self):
        geom = ArrayGeometry(5, 4, 0.2, 3.5)
        plus = element_position(geom, ElementIndex(2.0, 1.5))
        minus = element_position(geom, ElementIndex(-2.0, -1.5))
        assert plus[1] == -minus[1]

    def test_unit_separation_matches_plain_array(self):
        # L = 1 collapses modules into one contiguous uniform array.
        modular = element_offsets(ArrayGeometry(3, 2, 0.7, 1.0))
        plain = element_offsets(ArrayGeometry(6, 1, 0.7, 1.0))
        np.testing.assert_allclose(np.sort(modular), np.sort(plain), atol=0)


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

    @given(users())
    def test_cartesian_norm_is_range(self, user):
        assert np.linalg.norm(user.position) == pytest.approx(
            user.range_m, rel=1e-12
        )

    def test_normalized_spacing(self):
        user = UserLocation(35.0)
        assert normalized_spacing(REF, user) == pytest.approx(
            0.0628 / 35.0, rel=1e-15
        )


class TestDistance:
    def test_center_element_sees_range(self):
        geom = ArrayGeometry(1, 1, 0.1, 1.0)
        user = UserLocation(35.0, 0.3)
        assert distance(geom, user, ElementIndex(0.0, 0.0)) == 35.0

    def test_collinear_case(self):
        # User on the array axis one spacing beyond an element.
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        user = UserLocation(10.0, math.pi / 2)
        value = distance(geom, user, ElementIndex(1.0, 0.0))
        assert value == pytest.approx(9.0, rel=1e-14)

    def test_reference_off_axis_element(self):
        # K = 36 here, so (m, n) = (0, 1) sits 36 spacings = 2.2608 m off
        # center; the user is broadside at 35 m.
        geom = ArrayGeometry(17, 21, 0.0628, 20.0)
        user = UserLocation(35.0, 0.0)
        value = distance(geom, user, ElementIndex(0.0, 1.0))
        assert value == pytest.approx(math.hypot(35.0, 2.2608), rel=1e-14)
        assert value == pytest.approx(35.072941, abs=5e-6)

    @given(geometries(), users(), st.data())
    def test_matches_cartesian_norm(self, geom, user, data):
        m_values = [i - 0.5 * (geom.elements_per_module - 1)
                    for i in range(geom.elements_per_module)]
        n_values = [i - 0.5 * (geom.module_count - 1)
                    for i in range(geom.module_count)]
        idx = ElementIndex(
            data.draw(st.sampled_from(m_values)),
            data.draw(st.sampled_from(n_values)),
        )
        element = element_position(geom, idx)
        oracle = float(np.linalg.norm(user.position - element))
        if oracle < 1e-2 * user.range_m:
            return  # near-coincident element, ill-conditioned for both routes
        assert distance(geom, user, idx) == pytest.approx(oracle, rel=1e-12)

    @given(geometries(), users(), st.data())
    def test_reflection_symmetry(self, geom, user, data):
        m_values = [i - 0.5 * (geom.elements_per_module - 1)
                    for i in range(geom.elements_per_module)]
        n_values = [i - 0.5 * (geom.module_count - 1)
                    for i in range(geom.module_count)]
        m = data.draw(st.sampled_from(m_values))
        n = data.draw(st.sampled_from(n_values))
        mirrored = UserLocation(user.range_m, -user.angle_rad)
        try:
            left = distance(geom, user, ElementIndex(m, n))
            right = distance(geom, mirrored, ElementIndex(-m, -n))
        except DegenerateGeometryError:
            return
        assert left == pytest.approx(right, rel=1e-14)

    def test_near_coincident_element_keeps_precision(self):
        # The user sits 1e-6 m beyond element m = 1 on the array axis; the
        # expanded 1 - 2*u*eps*sin + (u*eps)^2 would lose all but four digits.
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        user = UserLocation(1.000001, math.pi / 2)
        oracle = math.hypot(user.range_m * math.cos(user.angle_rad), user.range_m - 1.0)
        assert distance(geom, user, ElementIndex(1.0, 0.0)) == pytest.approx(
            oracle, rel=1e-9
        )
        assert distances(geom, user)[2] == pytest.approx(oracle, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        geom = ArrayGeometry(4, 3, 0.3, 2.5)
        user = UserLocation(12.0, -0.7)
        vector = distances(geom, user)
        scalar = [distance(geom, user, idx) for idx in element_indices(geom)]
        np.testing.assert_allclose(vector, scalar, rtol=1e-15)

    def test_user_on_element_rejected(self):
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        user = UserLocation(1.0, math.pi / 2)  # coincides with element m=1
        with pytest.raises(DegenerateGeometryError):
            distance(geom, user, ElementIndex(1.0, 0.0))
        with pytest.raises(DegenerateGeometryError):
            distances(geom, user)

    @pytest.mark.parametrize("range_m", [1e-153, 1e-155])
    def test_overflowing_ratio_raises(self, range_m):
        # At 1e-153 m only the squared ratios of the outer elements overflow,
        # at 1e-155 m all of them; neither leaves an infinite distance.
        user = UserLocation(range_m)
        with pytest.raises(OverflowError):
            distances(REF, user)
        with pytest.raises(OverflowError):
            distance(REF, user, ElementIndex(7.5, 9.5))

    def test_offsets_left_unchanged(self):
        # The kernel works in its own block buffers only: arrays a caller
        # holds, the offsets among them, are never written by a later call,
        # and no two results share memory.  Read-only, a write would raise.
        geom = ArrayGeometry(4, 3, 0.3, 2.5)
        user = UserLocation(12.0, -0.7)
        held = [
            element_offsets(geom),
            geometry.squared_distance_ratios(geom, user),
            distances(geom, user),
        ]
        before = [array.copy() for array in held]
        for array in held:
            array.setflags(write=False)
        distance(geom, user, ElementIndex(0.5, -1.0))
        held.append(geometry.squared_distance_ratios(geom, user))
        held.append(distances(geom, user))
        for _ in geometry.squared_ratio_blocks(geom, user):
            pass
        for array, copy in zip(held, before):
            np.testing.assert_array_equal(array, copy)
        for i, left in enumerate(held):
            for right in held[i + 1:]:
                assert not np.shares_memory(left, right)
