"""The block runner, the blocked distance kernel and its consumers.

The kernel runs in blocks of whole modules of at most ``BLOCK_ELEMENTS``
elements, split into contiguous shares: the caller runs the first, helper
threads the others.  Its values must be bit-identical to one whole-array
pass of the same formulas, which the reference below takes; a ratio that
would overflow must raise before the first block, ahead of a floor error in
any block; an error in any block must raise from the first failing block in
module order once every share has finished; and its temporaries must stay
block-sized.
"""

import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from elements import block_ratios, ratio_blocks
from modxl import geometry
from modxl.channel import LinkBudget, array_response_nusw
from modxl.errors import DegenerateGeometryError
from modxl.geometry import (
    BLOCK_ELEMENTS,
    ArrayGeometry,
    UserLocation,
    run_ratio_blocks,
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


@pytest.fixture
def helper(monkeypatch):
    "At least one helper thread, so that a call of two blocks or more uses it."
    monkeypatch.setattr(geometry, "_HELPERS", max(1, geometry._HELPERS))


@pytest.mark.parametrize("m, n", list(block_cases()))
@pytest.mark.parametrize(
    "range_m, theta_rad", [(0.7, 0.3), (80.0, -1.2), (3e7, 1.5)]
)
def test_bit_identical_to_one_pass(helper, m, n, range_m, theta_rad):
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
    for modules, ratios in ratio_blocks(geom, user):
        assert ratios.shape == (modules.stop - modules.start, m)
        assert ratios.size <= max(BLOCK_ELEMENTS, m)
        seen.append((modules.start, modules.stop))
    assert seen == [(s, min(s + rows, n)) for s in range(0, n, rows)]


def test_kept_blocks_keep_their_values():
    # Every block is the consumer's own: blocks kept, without copies, from
    # one pass of three full blocks still hold their own ratios after it.
    geom = ArrayGeometry(16, 3 * (BLOCK_ELEMENTS // 16), 0.0628, 2.5)
    user = UserLocation(50.0, 0.2)
    kept = [ratios for _, ratios in ratio_blocks(geom, user)]
    assert len(kept) == 3
    joined = np.concatenate([ratios.ravel() for ratios in kept])
    assert joined.tobytes() == block_ratios(geom, user).tobytes()


def assert_every_consumer_overflows(geom, user):
    "The kernel and both its consumers raise OverflowError, with no warning."
    calls = (
        lambda: block_ratios(geom, user),
        lambda: snr_exact_sum(geom, user, LINK),
        lambda: array_response_nusw(geom, user, LINK),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(OverflowError):
                call()


def test_overflow_outranks_a_floor_in_a_later_block():
    # The user sits 1e-153 m out on the axis, on the centre element of the
    # second block, while most ratios of the first block would overflow.
    # The kernel checks its range before the first block, so the overflow
    # comes first; numpy prints no warning on the way.
    geom = ArrayGeometry(1, 2 * BLOCK_ELEMENTS + 1, 1.0)
    user = UserLocation(1e-153, math.pi / 2)
    assert_every_consumer_overflows(geom, user)


def test_overflow_raised_before_the_first_block():
    # An even count puts no element at the centre, where the user is.
    geom = ArrayGeometry(1, 2 * BLOCK_ELEMENTS + 2, 1.0)
    user = UserLocation(1e-153, 1.0)
    blocks = []
    with pytest.raises(OverflowError):
        run_ratio_blocks(geom, user, lambda modules, ratios: blocks.append(modules))
    assert blocks == []
    assert_every_consumer_overflows(geom, user)


@pytest.mark.parametrize("range_m", [1e-318, 5e-324])
def test_overflow_where_the_floor_is_infinite(range_m):
    # Below about 5.6e-318 m, spacing/range and the floor over the range
    # overflow to inf without raising, and 0*inf would make NaN ratios,
    # which no floor test catches.
    geom = ArrayGeometry(1, 2, 1.0)
    user = UserLocation(range_m)
    assert_every_consumer_overflows(geom, user)


def block_threads(geom, user):
    "The thread that ran each block, by block index."
    rows = max(1, BLOCK_ELEMENTS // geom.elements_per_module)
    threads = {}

    def body(modules, ratios):
        threads[modules.start // rows] = threading.get_ident()

    run_ratio_blocks(geom, user, body)
    return [threads[block] for block in sorted(threads)]


STEP = 5


@pytest.mark.parametrize("helpers", [0, 1, geometry._MAX_THREADS - 1])
@pytest.mark.parametrize(
    "count",
    # Last blocks of 1, STEP - 1 and STEP items, after 0, 1 and 6 full ones.
    [1, STEP - 1, STEP, STEP + 1, 2 * STEP - 1, 2 * STEP]
    + [6 * STEP + 1, 7 * STEP - 1, 7 * STEP],
)
def test_run_blocks_returns_each_block_in_order(set_helpers, helpers, count):
    set_helpers(helpers)
    results = geometry.run_blocks(count, STEP, lambda args, *block: block, None)
    assert results == [
        (start, min(start + STEP, count)) for start in range(0, count, STEP)
    ]


def test_one_block_runs_in_the_caller(monkeypatch):
    def no_pool():
        raise AssertionError("a one-block call reached the helper pool")

    monkeypatch.setattr(geometry, "_helper_pool", no_pool)
    monkeypatch.setattr(geometry, "_HELPERS", 3)
    geom = ArrayGeometry(16, BLOCK_ELEMENTS // 16, 0.0628, 2.5)
    assert block_threads(geom, UserLocation(50.0, 0.2)) == [threading.get_ident()]


def test_shares_are_contiguous_and_the_caller_runs_the_first(monkeypatch):
    monkeypatch.setattr(geometry, "_HELPERS", 1)
    geom = ArrayGeometry(16, 5 * (BLOCK_ELEMENTS // 16), 0.0628, 2.5)
    threads = block_threads(geom, UserLocation(50.0, 0.2))
    caller = threading.get_ident()
    assert threads[:2] == [caller] * 2
    assert caller not in threads[2:] and len(set(threads[2:])) == 1


def test_floor_in_a_helpers_share(monkeypatch):
    # Three blocks of 65,536 one-element modules on the axis; the caller
    # runs the first, a helper the other two.  The user sits on an element
    # of the third, 40,000.5 spacings from the centre.
    monkeypatch.setattr(geometry, "_HELPERS", 1)
    geom = ArrayGeometry(1, 3 * BLOCK_ELEMENTS, 1.0)
    user = UserLocation(40_000.5, math.pi / 2)
    ran = []
    with pytest.raises(DegenerateGeometryError):
        run_ratio_blocks(geom, user, lambda modules, ratios: ran.append(modules.start))
    assert sorted(ran) == [0, BLOCK_ELEMENTS]
    calls = (
        lambda: block_ratios(geom, user),
        lambda: snr_exact_sum(geom, user, LINK),
        lambda: array_response_nusw(geom, user, LINK),
    )
    for call in calls:
        with pytest.raises(DegenerateGeometryError) as raised:
            call()
        assert str(raised.value) == (
            "user lies on the array: an element distance falls below 1e-09 m"
        )


def test_first_failing_block_raises_after_every_share(monkeypatch):
    # Blocks 0 and 1 are the caller's, 2 and 3 the helper's; 1 and 3 fail.
    # The helper's failure comes late, and the caller's error waits for it.
    monkeypatch.setattr(geometry, "_HELPERS", 1)
    rows = BLOCK_ELEMENTS // 16
    geom = ArrayGeometry(16, 4 * rows, 0.0628, 2.5)
    finished = []

    def body(modules, ratios):
        block = modules.start // rows
        if block == 3:
            time.sleep(0.2)
        finished.append(block)
        if block % 2:
            raise ValueError(f"block {block}")

    with pytest.raises(ValueError, match="^block 1$"):
        run_ratio_blocks(geom, UserLocation(50.0, 0.2), body)
    assert sorted(finished) == [0, 1, 2, 3]


def test_concurrent_callers_share_the_helpers(set_helpers):
    # Four callers race to make a pool of the most helpers the kernel uses
    # on any host, and share it on a shortened switch interval.  A lost or
    # misplaced block would change a sum.
    set_helpers(geometry._MAX_THREADS - 1)
    geom = ArrayGeometry(16, 5 * (BLOCK_ELEMENTS // 16), 0.0628, 2.5)
    users = [UserLocation(50.0 + k, 0.2) for k in range(4)]
    results = {}

    def caller(k):
        sums = [snr_exact_sum(geom, users[k], LINK) for _ in range(3)]
        results[k] = [report.value_linear for report in sums]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    expected = [reference_exact_sum(geom, user, LINK) for user in users]
    assert [results.get(k) for k in range(4)] == [[value] * 3 for value in expected]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* multi-threaded:DeprecationWarning")
def test_a_forked_child_makes_its_own_helpers(helper):
    # The parent's helper threads exist now; a forked child has none of
    # them, so a multi-block call there must not wait on the parent's pool.
    geom = ArrayGeometry(16, 3 * (BLOCK_ELEMENTS // 16), 0.0628, 2.5)
    user = UserLocation(50.0, 0.2)
    expected = snr_exact_sum(geom, user, LINK)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        forked = pool.apply_async(snr_exact_sum, (geom, user, LINK)).get(timeout=60)
    assert forked.value_linear == expected.value_linear


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
MEMORY_GEOMETRY = ArrayGeometry(16, 100_000, 0.0628, 20.0)
MEMORY_USER = UserLocation(80.0, 0.4)


def exact_sum_peak_mb():
    return traced_peak_mb(lambda: snr_exact_sum(MEMORY_GEOMETRY, MEMORY_USER, LINK))[0]


def channel_peak_beyond_output_mb():
    peak, response = traced_peak_mb(
        lambda: array_response_nusw(MEMORY_GEOMETRY, MEMORY_USER, LINK)
    )
    return peak - response.nbytes / 1e6


def test_exact_sum_memory_is_block_sized():
    assert exact_sum_peak_mb() <= 10.0


def test_channel_memory_is_output_plus_blocks():
    assert channel_peak_beyond_output_mb() <= 8.0


def test_memory_bounds_hold_with_the_most_helpers(set_helpers):
    # The most helpers that the kernel uses on any host, from a pool of
    # that size: every thread holds its own block's temporaries.
    set_helpers(geometry._MAX_THREADS - 1)
    assert exact_sum_peak_mb() <= 10.0
    assert channel_peak_beyond_output_mb() <= 8.0
