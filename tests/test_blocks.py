"""The blocked distance kernel and its consumers.

The kernel runs in blocks of whole modules of at most ``BLOCK_ELEMENTS``
elements.  Its values must be bit-identical to one whole-array pass of the
same formulas, which the reference below takes; its errors must come in the
same order; and its temporaries must stay block-sized.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from elements import block_ratios
from modxl.channel import LinkBudget, array_response_nusw
from modxl.errors import DegenerateGeometryError
from modxl.geometry import (
    BLOCK_ELEMENTS,
    ArrayGeometry,
    UserLocation,
    squared_ratio_blocks,
)
from modxl.snr_models import snr_exact_sum

LINK = LinkBudget(wavelength_m=0.1256, reference_gain=1.7, transmit_snr=3.0)


def reference_ratios(geom, user):
    "Squared distance ratios in one whole-array pass, without blocks."
    m = np.arange(geom.elements_per_module) - 0.5 * (geom.elements_per_module - 1)
    n = np.arange(geom.module_count) - 0.5 * (geom.module_count - 1)
    ue = (geom.stride * n[:, None] + m[None, :]).ravel() * (
        geom.element_spacing / user.range_m
    )
    along = 1.0 - ue * math.sin(user.angle_rad)
    across = ue * math.cos(user.angle_rad)
    return along * along + across * across


def reference_exact_sum(geom, user, link):
    inverse = 1.0 / reference_ratios(geom, user)
    partials = inverse.reshape(geom.module_count, geom.elements_per_module).sum(axis=1)
    return link.effective_power / user.range_m**2 * math.fsum(partials.tolist())


def reference_coefficients(geom, user, link):
    r = np.sqrt(reference_ratios(geom, user)) * user.range_m
    amplitude = math.sqrt(link.reference_gain) / r
    cycles = r / link.wavelength_m
    t = np.tan((cycles - np.rint(cycles)) * -math.pi)
    square = t * t
    weight = amplitude / (square + 1.0)
    out = np.empty(r.shape, dtype=np.complex128)
    out.real = (1.0 - square) * weight
    out.imag = weight * t * 2.0
    return out


def block_cases():
    "(M, N) with N mod (modules per block) in {0, 1, modules per block - 1}."
    for m in (1, 7, 16, 100, BLOCK_ELEMENTS + 1):
        rows = max(1, BLOCK_ELEMENTS // m)
        counts = (1, 2, 3) if rows == 1 else (rows, rows + 1, 2 * rows - 1, rows - 1)
        for n in counts:
            yield m, n


@pytest.mark.parametrize("m, n", list(block_cases()))
@pytest.mark.parametrize(
    "range_m, theta_rad", [(0.7, 0.3), (80.0, -1.2), (3e7, 1.5)]
)
def test_bit_identical_to_one_pass(m, n, range_m, theta_rad):
    geom = ArrayGeometry(m, n, 0.0628, 2.5)
    user = UserLocation(range_m, theta_rad)
    assert block_ratios(geom, user).tobytes() == reference_ratios(geom, user).tobytes()
    assert snr_exact_sum(geom, user, LINK).value_linear == reference_exact_sum(
        geom, user, LINK
    )
    coefficients = array_response_nusw(geom, user, LINK)
    assert coefficients.tobytes() == reference_coefficients(geom, user, LINK).tobytes()


@pytest.mark.parametrize("m, n", [(1, 3), (16, 4097), (BLOCK_ELEMENTS + 1, 2)])
def test_blocks_are_whole_modules_in_order(m, n):
    geom = ArrayGeometry(m, n, 0.0628, 2.5)
    user = UserLocation(50.0, 0.2)
    rows = min(n, max(1, BLOCK_ELEMENTS // m))
    seen = []
    for modules, ratios in squared_ratio_blocks(geom, user):
        assert ratios.shape == (modules.stop - modules.start, m)
        assert ratios.size <= max(BLOCK_ELEMENTS, m)
        seen.append((modules.start, modules.stop))
    assert seen == [(s, min(s + rows, n)) for s in range(0, n, rows)]


def test_kept_blocks_keep_their_values():
    # Every block is the consumer's own: blocks kept, without copies, from
    # one pass of three full blocks still hold their own ratios after it.
    geom = ArrayGeometry(16, 3 * (BLOCK_ELEMENTS // 16), 0.0628, 2.5)
    user = UserLocation(50.0, 0.2)
    kept = [ratios for _, ratios in squared_ratio_blocks(geom, user)]
    assert len(kept) == 3
    joined = np.concatenate([ratios.ravel() for ratios in kept])
    assert joined.tobytes() == block_ratios(geom, user).tobytes()


def test_floor_in_a_later_block_outranks_an_earlier_overflow():
    # The user sits 1e-153 m out on the axis, on the centre element of the
    # second block, while most ratios of the first block overflow.  As on
    # one whole-array pass, the floor error comes first; numpy prints no
    # warning on the way.
    geom = ArrayGeometry(1, 2 * BLOCK_ELEMENTS + 1, 1.0)
    user = UserLocation(1e-153, math.pi / 2)
    first = next(iter(squared_ratio_blocks(geom, user)))[1]
    assert first[0, 0] == math.inf
    calls = (
        lambda: block_ratios(geom, user),
        lambda: snr_exact_sum(geom, user, LINK),
        lambda: array_response_nusw(geom, user, LINK),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DegenerateGeometryError):
                call()


def test_overflow_raised_after_the_last_block():
    # An even count puts no element at the centre, where the user is.
    geom = ArrayGeometry(1, 2 * BLOCK_ELEMENTS + 2, 1.0)
    user = UserLocation(1e-153, 1.0)
    blocks = squared_ratio_blocks(geom, user)
    next(blocks)
    next(blocks)
    next(blocks)
    with pytest.raises(OverflowError):
        next(blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            array_response_nusw(geom, user, LINK)


def traced_peak_mb(call):
    "Peak traced memory of ``call()``, MB, counting what it returns."
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1] / 1e6, result
    finally:
        tracemalloc.stop()


# One whole-array pass held 38.4 MB at the peak of the exact sum and
# 51.2 MB in the channel, at 1.6e6 elements.
def test_exact_sum_memory_is_block_sized():
    geom = ArrayGeometry(16, 100_000, 0.0628, 20.0)
    peak, _ = traced_peak_mb(lambda: snr_exact_sum(geom, UserLocation(80.0, 0.4), LINK))
    assert peak <= 10.0


def test_channel_memory_is_output_plus_blocks():
    geom = ArrayGeometry(16, 100_000, 0.0628, 20.0)
    peak, response = traced_peak_mb(
        lambda: array_response_nusw(geom, UserLocation(80.0, 0.4), LINK)
    )
    assert peak <= response.nbytes / 1e6 + 8.0
