import cmath
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elements import element_distances, element_positions, user_position
from modxl import channel
from modxl.channel import LinkBudget, array_response_nusw
from modxl.errors import DegenerateGeometryError
from modxl.geometry import ArrayGeometry, UserLocation

WAVELENGTH = 0.1256
LINK = LinkBudget(wavelength_m=WAVELENGTH)


def expected_coefficient(gain: float, r: float, wavelength: float) -> complex:
    phase = (2.0 * math.pi * r / wavelength) % (2.0 * math.pi)
    return math.sqrt(gain) / r * cmath.exp(-1j * phase)


class TestLinkBudget:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(wavelength_m=0.0),
            dict(wavelength_m=-0.1),
            dict(wavelength_m=0.1, reference_gain=0.0),
            dict(wavelength_m=0.1, transmit_snr=-2.0),
            dict(wavelength_m=math.inf),
            dict(wavelength_m=0.1, reference_gain=math.nan),
            dict(wavelength_m=0.1, transmit_snr=math.inf),
            dict(wavelength_m=0.1, reference_gain=1e300, transmit_snr=1e300),
            dict(wavelength_m=0.1, reference_gain=1e-300, transmit_snr=1e-300),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkBudget(**kwargs)

    def test_overflowing_product_rejected(self):
        # Each factor is finite; only the product that every SNR uses is not.
        with pytest.raises(ValueError, match="effective_power"):
            LinkBudget(wavelength_m=0.1, reference_gain=1e300, transmit_snr=1e300)

    def test_effective_power(self):
        link = LinkBudget(wavelength_m=0.1, reference_gain=3.0, transmit_snr=2.0)
        assert link.effective_power == 6.0
        assert LINK.effective_power == 1.0

    def test_effective_power_is_a_derived_field(self):
        # Set by the constructor, again by replace, and outside equality,
        # hashing and the repr.
        link = LinkBudget(wavelength_m=0.1, reference_gain=3.0, transmit_snr=2.0)
        assert replace(link, transmit_snr=5.0).effective_power == 15.0
        assert replace(link, reference_gain=0.5).effective_power == 1.0
        with pytest.raises(ValueError, match="effective_power"):
            replace(link, transmit_snr=1e308)
        altered = LinkBudget(wavelength_m=0.1, reference_gain=3.0, transmit_snr=2.0)
        object.__setattr__(altered, "effective_power", 7.0)
        assert altered == link and hash(altered) == hash(link)
        assert repr(altered) == repr(link) == (
            "LinkBudget(wavelength_m=0.1, reference_gain=3.0, transmit_snr=2.0)"
        )
        clone = pickle.loads(pickle.dumps(link))
        assert clone == link and clone.effective_power == 6.0


class TestArrayResponse:
    def test_read_only(self):
        geom = ArrayGeometry(2, 3, 0.0628, 2.0)
        resp = array_response_nusw(geom, UserLocation(35.0), LINK)
        assert resp.dtype == np.complex128
        assert resp.shape == (6,)
        with pytest.raises(ValueError):
            resp[0] = 0.0


class TestPhasors:
    @pytest.mark.parametrize("amplitude", [0.5, np.linspace(0.1, 3.0, 80)])
    def test_whole_cycles_reduced_exactly(self, amplitude):
        # The reduced phase of k + f cycles is exactly -2*pi*f however many
        # whole cycles k come first.
        whole = np.array([0.0, 1.0, 12345.0, 1e7 - 1.0, 1e7, 9.0, 2.0, 1e6, 99.0, 5.0])
        fraction = np.array([0.0, 0.125, 0.25, 0.3, 0.5, 0.625, 0.75, 0.9])
        cycles = (whole[:, None] + fraction[None, :]).ravel()
        # Near 1e7, k + 0.3 rounds; subtracting k recovers the fraction of
        # the rounded sum exactly.
        reduced = cycles - np.repeat(whole, fraction.size)
        expected = amplitude * np.exp(-2j * np.pi * reduced)
        out = np.empty(cycles.shape, dtype=np.complex128)
        channel._write_phasors(np.full(cycles.shape, amplitude), cycles, out)
        error = np.abs(out - expected) / amplitude
        assert error.max() <= 1e-12


class TestSphericalWave:
    def test_single_element(self):
        geom = ArrayGeometry(1, 1, 0.0628, 1.0)
        user = UserLocation(35.0)
        resp = array_response_nusw(geom, user, LINK)
        assert len(resp) == 1
        want = expected_coefficient(1.0, 35.0, WAVELENGTH)
        assert resp[0] == pytest.approx(want, rel=1e-12)
        assert abs(resp[0]) == pytest.approx(1.0 / 35.0, rel=1e-15)

    def test_broadside_palindrome(self):
        geom = ArrayGeometry(4, 3, 0.0628, 5.0)
        resp = array_response_nusw(geom, UserLocation(20.0, 0.0), LINK)
        assert np.array_equal(resp, resp[::-1])

    def test_module_major_order(self):
        link = LinkBudget(wavelength_m=WAVELENGTH, reference_gain=2.0)
        for geom in (ArrayGeometry(3, 3, 0.3, 2.0), ArrayGeometry(2, 2, 0.3, 2.0)):
            user = UserLocation(11.0, 0.4)
            resp = array_response_nusw(geom, user, link)
            for i, r in enumerate(element_distances(geom, user)):
                want = expected_coefficient(2.0, r, WAVELENGTH)
                assert resp[i] == pytest.approx(want, rel=1e-12)

    def test_norm_matches_distance_sum(self):
        geom = ArrayGeometry(3, 3, 0.5, 4.0)
        user = UserLocation(9.0, -0.6)
        link = LinkBudget(wavelength_m=WAVELENGTH, reference_gain=2.5)
        resp = array_response_nusw(geom, user, link)
        total = sum(
            2.5 / np.sum((user_position(user) - position) ** 2)
            for position in element_positions(geom)
        )
        norm_sq = float(np.vdot(resp, resp).real)
        assert norm_sq == pytest.approx(total, rel=1e-12)

    @given(
        st.integers(1, 6),
        st.integers(1, 5),
        st.floats(10.0, 300.0),
        st.floats(-1.4, 1.4),
    )
    def test_amplitudes_follow_distances(self, m, n, rng, theta):
        geom = ArrayGeometry(m, n, 0.05, 3.0)
        user = UserLocation(rng, theta)
        resp = array_response_nusw(geom, user, LINK)
        rs = element_distances(geom, user)
        np.testing.assert_allclose(np.abs(resp), 1.0 / np.array(rs),
                                   rtol=1e-14)

    def test_user_on_element_rejected(self):
        geom = ArrayGeometry(3, 1, 1.0, 1.0)
        with pytest.raises(DegenerateGeometryError):
            array_response_nusw(geom, UserLocation(1.0, math.pi / 2), LINK)

    def test_far_field_amplitude_is_one_over_range(self):
        geom = ArrayGeometry(8, 4, 0.0628, 10.0)
        user = UserLocation(1e3 * geom.augmented_span, 0.5)
        resp = array_response_nusw(geom, user, LINK)
        ratio = np.abs(resp) * user.range_m
        assert np.max(np.abs(ratio - 1.0)) < 1e-3

    def test_path_overflowing_in_wavelengths_raises(self):
        # At a 0.1256 m wavelength the path in wavelengths overflows between
        # 2e307 and 3e307 m, where the phase of an infinite cycle count
        # would be NaN; the ratios themselves are finite.
        geom = ArrayGeometry(1, 2, 1.0)
        resp = array_response_nusw(geom, UserLocation(2e307), LINK)
        assert np.abs(resp) == pytest.approx([5e-308, 5e-308], rel=1e-12)
        with pytest.raises(OverflowError):
            array_response_nusw(geom, UserLocation(3e307), LINK)
