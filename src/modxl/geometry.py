"""Modular uniform-linear-array layout: spans, the blocked kernel of
element-to-user distances, and :func:`run_blocks`, which runs a function on
each block on threads and returns the results in block order.

The array lies on the y axis, symmetric about the origin.  A layout consists
of ``module_count`` modules of ``elements_per_module`` antenna elements each.
Elements inside a module are ``element_spacing`` metres apart, and the gap
from the last element of one module to the first element of the next is
``separation_ratio`` element spacings (the module separation).  Element and
module indices are centred so that every position formula is antisymmetric;
for even counts the centred indices are half-integers.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Tuple

from .errors import DegenerateGeometryError
from .numerics import np

#: Element-to-user distances below this floor (metres) are rejected: the 1/r
#: free-space amplitude model diverges as the user reaches an element.
DISTANCE_FLOOR_M = 1e-9
#: Elements per block of the distance kernel, of the Monte-Carlo uplink and
#: of the beamforming reductions.  A block of 65,536 float64 values is
#: 512 KiB, so the few arrays of one block stay within a 4 MiB L2 cache
#: while it is run through.  A kernel or uplink block holds whole rows
#: (modules, or uplink samples), and at least one.
BLOCK_ELEMENTS = 1 << 16
#: Threads of :func:`run_blocks` at most, the caller's among them.  A
#: thread of the distance kernel holds at most four arrays of one block at
#: once (2.1 MB at 65,536 elements), so a call's temporaries stay within
#: 6.3 MB on any host.
_MAX_THREADS = 3
#: Helper threads of :func:`run_blocks`: one for each usable CPU but the
#: caller's, within ``_MAX_THREADS``.
_HELPERS = min(
    _MAX_THREADS,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1,
) - 1
_pool = None
_pool_lock = threading.Lock()


def _centered(count: int) -> np.ndarray:
    "Centred unit-step index values for ``count`` positions."
    return np.arange(0.5 * (1 - count), 0.5 * count)


@dataclass(frozen=True)
class ArrayGeometry:
    """Geometry of a modular uniform linear array.

    Parameters
    ----------
    elements_per_module :
        Number of antenna elements per module (>= 1).
    module_count :
        Number of modules (>= 1).
    element_spacing :
        Spacing between adjacent elements within a module, metres.
    separation_ratio :
        Module separation in units of the element spacing (>= 1, real).
        A ratio of 1 collapses the layout to a conventional collocated array.
    """

    elements_per_module: int
    module_count: int
    element_spacing: float
    separation_ratio: float = 1.0

    def __post_init__(self) -> None:
        m, n = self.elements_per_module, self.module_count
        if not (isinstance(m, Integral) and m >= 1):
            raise ValueError("elements_per_module must be an integer >= 1")
        if not (isinstance(n, Integral) and n >= 1):
            raise ValueError("module_count must be an integer >= 1")
        if not 0 < self.element_spacing < math.inf:
            raise ValueError("element_spacing must be positive and finite")
        if not 1 <= self.separation_ratio < math.inf:
            raise ValueError("separation_ratio must be finite and >= 1")

    @property
    def module_separation(self) -> float:
        "Gap between adjacent modules, metres."
        return self.separation_ratio * self.element_spacing

    @property
    def stride(self) -> float:
        """Module-to-module index stride: the pitch between like elements of
        adjacent modules, in units of the element spacing."""
        return self.elements_per_module + self.separation_ratio - 1.0

    @property
    def total_elements(self) -> int:
        return self.elements_per_module * self.module_count


@dataclass(frozen=True)
class UserLocation:
    """Polar user position: ``range_m`` metres from the array centre at
    ``angle_rad`` radians off broadside (the positive x axis)."""

    range_m: float
    angle_rad: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.range_m < math.inf:
            raise ValueError("range_m must be positive and finite")
        if not abs(self.angle_rad) <= 0.5 * math.pi:
            raise ValueError("angle_rad must lie in [-pi/2, pi/2]")


def aperture(geom: ArrayGeometry) -> Tuple[float, float]:
    """Physical spans of the array, metres.

    Returns the end-to-end aperture and the augmented span (aperture plus one
    module width plus one module separation) that drives the closed-form SNR.
    """
    d = geom.element_spacing
    span = (geom.stride * (geom.module_count - 1) + (geom.elements_per_module - 1)) * d
    augmented = span + geom.elements_per_module * d + geom.module_separation
    return span, augmented


def normalized_spacing(geom: ArrayGeometry, user: UserLocation) -> float:
    "Element spacing over user range; the small parameter of the far models."
    return geom.element_spacing / user.range_m


def _helper_pool():
    """The helper threads' executor, made on first use, so that a run of
    one-block arrays neither starts a thread nor imports concurrent.futures."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_HELPERS, thread_name_prefix="modxl-blocks")
    return _pool


def _forget_pool() -> None:
    """In a forked child: drop the parent's executor, whose threads the
    child does not have, so that its first call makes its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def block_rows(width: int) -> int:
    "Rows of ``width`` elements that fit in one block, and at least one."
    return max(1, BLOCK_ELEMENTS // width)


def largest_squared_ratio(geom: ArrayGeometry, user: UserLocation) -> float:
    """The largest ratio of :func:`run_ratio_blocks`, from one evaluation
    of its formula in its operation order: ratios are convex in the offset u
    and the end offsets are opposites, so the largest is at the end with the
    larger along-axis term.  Reads inf or NaN where the kernel would
    overflow."""
    eps = normalized_spacing(geom, user)
    end = (
        geom.stride * (0.5 * (geom.module_count - 1))
        + 0.5 * (geom.elements_per_module - 1)
    ) * eps
    along = 1.0 + abs(end * math.sin(user.angle_rad))
    across = end * math.cos(user.angle_rad)
    return along * along + across * across


def run_ratio_blocks(
    geom: ArrayGeometry,
    user: UserLocation,
    body: Callable[[slice, np.ndarray], None],
) -> None:
    """Squared element-to-user distances over the squared range, in
    cache-sized blocks: the toolkit's one distance kernel.

    Each ratio is (1 - u*eps*sin)^2 + (u*eps*cos)^2 for axis offset u and
    eps = spacing/range, which keeps the precision that
    1 - 2*u*eps*sin + (u*eps)^2 loses to cancellation near the array axis.
    Calls ``body(modules, ratios)`` for each run of whole modules of at most
    ``BLOCK_ELEMENTS`` elements (of one module, where a module alone is
    larger): the slice of module indices and their ratios, shaped
    (modules, elements per module).  Each block is a fresh array that the
    body owns.

    The blocks run on :func:`run_blocks`: the calling thread runs the
    first contiguous share and helper threads the others, every share in
    module order, so bodies of different blocks must write disjoint data.

    Raises ``OverflowError`` before the first block unless the floor's ratio
    and :func:`largest_squared_ratio` are finite, as below a range of about
    7.5e-164 m or once u*eps passes about 1.3e154.  Raises
    :class:`DegenerateGeometryError` for a distance below
    ``DISTANCE_FLOOR_M``, and any error of ``body``, from the first failing
    block in module order, after every share has finished.
    """
    floor = DISTANCE_FLOOR_M / user.range_m
    floor_ratio = floor * floor
    if not (largest_squared_ratio(geom, user) < math.inf and floor_ratio < math.inf):
        raise OverflowError(f"element distances at range {user.range_m:.3g} m overflow")
    rows = block_rows(geom.elements_per_module)
    run_blocks(geom.module_count, rows, _ratio_block, (geom, user, floor_ratio, body))


def run_blocks(
    count: int, step: int, work: Callable[[object, int, int], object], args: object
) -> list:
    """The results of ``work(args, start, stop)`` on each block of ``step``
    items of ``range(count)`` (the last may be shorter), in block order:
    the toolkit's one runner of blocks on threads.

    The blocks are split into contiguous shares, one per usable CPU (three
    at most) and at most one per block.  The calling thread runs the first
    share and a helper thread each other share, every share in block
    order, so work on different blocks must write disjoint data.  One
    block, or any number on one usable CPU, runs wholly in the caller.  An
    error of ``work`` is raised from the first failing block in block
    order, after every share has finished, so no thread still writes to
    the caller's arrays.  ``args`` is one object, not spread arguments: a
    call through ``*args`` cost a one-block call about 0.3 us more, on
    CPython 3.11.
    """
    if count <= step:
        return [work(args, 0, count)]
    starts = range(0, count, step)
    blocks = len(starts)
    threads = min(_HELPERS + 1, blocks)
    shares = [
        starts[blocks * k // threads : blocks * (k + 1) // threads]
        for k in range(threads)
    ]
    helpers = [_helper_pool().submit(_run_share, work, args, count, share)
               for share in shares[1:]]
    try:
        results = _run_share(work, args, count, shares[0])
    finally:
        for helper in helpers:
            helper.exception()  # waits; a helper's error is raised below
    for helper in helpers:
        results += helper.result()
    return results


def _run_share(work: Callable, args: object, count: int, starts: range) -> list:
    "The results of ``work`` on the blocks that begin at ``starts``, in order."
    step = starts.step
    return [work(args, start, min(start + step, count)) for start in starts]


def _ratio_block(args: tuple, start: int, stop: int) -> None:
    """Make the block of :func:`run_ratio_blocks` of modules ``start`` to
    ``stop`` and hand it to ``body``; ``args`` is (geom, user, floor_ratio,
    body).  The block's module indices are made with it, so a thread holds
    no array longer than a block, and two of them at most until ``body``
    is called: a third, as ``1.0 - ue * sin``, took the memory each block
    frees over glibc's trim threshold, and the exact sum at 1.6 million
    elements then faulted every block's pages in again (8,640 page faults
    a call against 419)."""
    geom, user, floor_ratio, body = args
    low = 0.5 * (1 - geom.module_count)  # the first centred module index
    eps = normalized_spacing(geom, user)
    elements = _centered(geom.elements_per_module)
    ue = geom.stride * np.arange(low + start, low + stop)[:, None] + elements
    ue *= eps
    ratios = ue * math.sin(user.angle_rad)
    np.subtract(1.0, ratios, out=ratios)  # along the array axis
    ratios *= ratios
    ue *= math.cos(user.angle_rad)  # across it
    ue *= ue
    ratios += ue
    del ue
    if ratios.min() < floor_ratio:
        raise DegenerateGeometryError(
            "user lies on the array: an element distance falls below "
            f"{DISTANCE_FLOOR_M:.0e} m"
        )
    body(slice(start, stop), ratios)
