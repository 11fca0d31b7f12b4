"""Modular uniform-linear-array layout: its derived lengths, set once at
construction; the blocked kernel of element-to-user distances with its
cache of one-block element offsets; the sum over the elements of its
inverse ratios; and :func:`run_blocks`, which runs a function on each block
on threads and returns the results in order.

Every pass in blocks, here and in the channel and beamforming, is a
module-level block function ``work(args, start, stop)`` (the kernel's take
the block's ``ratios`` too) whose results :func:`run_blocks` returns in
block order; only :func:`run_blocks` decides whether a block runs on the
calling thread.  The one call past the runner is the exact sum's of an
array of one block (:func:`inverse_ratio_sum` says why).

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

import functools
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

from .errors import DegenerateGeometryError
from .numerics import compensated_sum, np

#: Element-to-user distances below this floor (metres) are rejected: the 1/r
#: free-space amplitude model diverges as the user reaches an element.
DISTANCE_FLOOR_M = 1e-9
#: Elements per block of the distance kernel, of the Monte-Carlo uplink and
#: of the beamforming reductions.  A block of 65,536 float64 values is
#: 512 KiB.  The size is the fastest measured, not one derived from a
#: cache: the channel at 1.6 million elements on two threads took 60.5,
#: 34.1, 20.5, 16.0, 15.5, 17.6 and 19.7 ms with blocks of 4K, 8K, 16K,
#: 32K, 64K, 128K and 256K elements (medians of 8, 2-core x86_64 with
#: 2 MiB of L2 cache a core).  A kernel or uplink block holds whole rows
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
#: Offset arrays of one-block layouts that :func:`_one_block_offsets`
#: keeps, least recently used out first.  A sweep over range, angle or
#: spacing evaluates one layout at every point in turn, so a few entries
#: catch its repeats; each is at most one block, so all hold 4 MiB at most.
_OFFSET_CACHE_SIZE = 8
_pool = None
_pool_lock = threading.Lock()


def _centered(count: int) -> np.ndarray:
    "Centred unit-step index values for ``count`` positions."
    return np.arange(0.5 * (1 - count), 0.5 * count)


#: Sets a field of a frozen instance past its ``__setattr__``.  Unlike a
#: write into ``instance.__dict__``, which makes the dict an object of its
#: own, it keeps the values inline, where CPython 3.11 reads them faster: the
#: models read an array's and a user's fields dozens of times a sweep point,
#: and a 96-element ``grid`` point took about 1 us less so.
_set = object.__setattr__


@dataclass(frozen=True)
class ArrayGeometry:
    """Geometry of a modular uniform linear array.

    Parameters
    ----------
    elements_per_module :
        Number of antenna elements per module (1 to 2**53).
    module_count :
        Number of modules (1 to 2**53).
    element_spacing :
        Spacing between adjacent elements within a module, metres.
    separation_ratio :
        Module separation in units of the element spacing (>= 1, real).
        A ratio of 1 collapses the layout to a conventional collocated array.

    The constructor sets the fields that follow the four inputs, as
    ``dataclasses.replace`` sets them again; they stay out of equality,
    hashing and the repr.
    """

    elements_per_module: int
    module_count: int
    element_spacing: float
    separation_ratio: float = 1.0
    #: Gap between adjacent modules, metres.
    module_separation: float = field(init=False, repr=False, compare=False)
    total_elements: int = field(init=False, repr=False, compare=False)
    #: Module-to-module index stride: the pitch between like elements of
    #: adjacent modules, in units of the element spacing.
    stride: float = field(init=False, repr=False, compare=False)
    #: The largest centred axis offset of an element, in element spacings:
    #: half the end-to-end aperture.
    half_span: float = field(init=False, repr=False, compare=False)
    #: The end-to-end aperture, metres.
    aperture: float = field(init=False, repr=False, compare=False)
    #: The aperture plus one module width plus one module separation, metres:
    #: the span that drives the closed-form SNR.
    augmented_span: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m, n = self.elements_per_module, self.module_count
        if not (isinstance(m, Integral) and m >= 1):
            raise ValueError("elements_per_module must be an integer >= 1")
        if not (isinstance(n, Integral) and n >= 1):
            raise ValueError("module_count must be an integer >= 1")
        if max(m, n) > 2**53:  # where centred indices stop being exact floats
            raise ValueError("elements_per_module and module_count must be <= 2**53")
        m, n = int(m), int(n)  # no numpy overflow
        d, ratio = self.element_spacing, self.separation_ratio
        if not 0 < d < math.inf:
            raise ValueError("element_spacing must be positive and finite")
        if not 1 <= ratio < math.inf:
            raise ValueError("separation_ratio must be finite and >= 1")
        separation, stride = ratio * d, m + ratio - 1.0
        half_span = stride * (0.5 * (n - 1)) + 0.5 * (m - 1)
        span = 2.0 * half_span * d
        _set(self, "elements_per_module", m)
        _set(self, "module_count", n)
        _set(self, "module_separation", separation)
        _set(self, "total_elements", m * n)
        _set(self, "stride", stride)
        _set(self, "half_span", half_span)
        _set(self, "aperture", span)
        _set(self, "augmented_span", span + m * d + separation)


@dataclass(frozen=True, init=False)
class UserLocation:
    """Polar user position: ``range_m`` metres from the array centre at
    ``angle_rad`` radians off broadside (the positive x axis).

    A sweep over the range or the angle builds one at each point, so the
    constructor is written out: it checks its arguments and sets the fields
    (see ``_set``), with no ``__post_init__`` call.  Equality, hashing and
    the repr stay the generated ones, and an unpickled copy is not built
    through the constructor.
    """

    range_m: float
    angle_rad: float = 0.0

    def __init__(self, range_m: float, angle_rad: float = 0.0) -> None:
        if not 0 < range_m < math.inf:
            raise ValueError("range_m must be positive and finite")
        if not abs(angle_rad) <= 0.5 * math.pi:
            raise ValueError("angle_rad must lie in [-pi/2, pi/2]")
        _set(self, "range_m", range_m)
        _set(self, "angle_rad", angle_rad)


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


def _one_block(geom: ArrayGeometry) -> bool:
    """Whether the array fits one block of :func:`run_ratio_blocks`; its
    offsets are then cached, and its exact sum makes that block itself."""
    return geom.total_elements <= BLOCK_ELEMENTS


def largest_squared_ratio(geom: ArrayGeometry, user: UserLocation) -> float:
    """The largest ratio of :func:`run_ratio_blocks`, from one evaluation
    of its formula in its operation order: ratios are convex in the offset u
    and the end offsets are opposites, so the largest is at the end with the
    larger along-axis term.  Reads inf or NaN where the kernel would
    overflow."""
    end = geom.half_span * normalized_spacing(geom, user)
    along = 1.0 + abs(end * math.sin(user.angle_rad))
    across = end * math.cos(user.angle_rad)
    return along * along + across * across


def run_ratio_blocks(
    geom: ArrayGeometry,
    user: UserLocation,
    work: Callable[[object, int, int, np.ndarray], object],
    args: object,
) -> list:
    """Squared element-to-user distances over the squared range, in
    cache-sized blocks: the toolkit's one distance kernel.

    Each ratio is (1 - u*eps*sin)^2 + (u*eps*cos)^2 for axis offset u and
    eps = spacing/range, which keeps the precision that
    1 - 2*u*eps*sin + (u*eps)^2 loses to cancellation near the array axis.
    Returns ``work(args, start, stop, ratios)`` for each run of whole
    modules ``start`` to ``stop`` of at most ``BLOCK_ELEMENTS`` elements
    (of one module, where a module alone is larger), in module order:
    ``ratios`` are those modules' ratios, shaped (modules, elements per
    module), a fresh array that ``work`` owns.

    The blocks run on :func:`run_blocks`, so ``work`` on different blocks
    must write disjoint data.  Raises ``OverflowError`` before the first
    block unless the floor's ratio and :func:`largest_squared_ratio` are
    finite, as below a range of about 7.5e-164 m or once u*eps passes about
    1.3e154.  Raises :class:`DegenerateGeometryError` for a distance below
    ``DISTANCE_FLOOR_M``, and any error of ``work``, as :func:`run_blocks`
    raises an error of its blocks.
    """
    kernel = (geom, user, _checked_floor_ratio(geom, user), work, args)
    rows = block_rows(geom.elements_per_module)
    return run_blocks(geom.module_count, rows, _ratio_block, kernel)


def _checked_floor_ratio(geom: ArrayGeometry, user: UserLocation) -> float:
    """The squared ratio of ``DISTANCE_FLOOR_M`` to the range, after the
    kernel's range check: raises ``OverflowError`` unless it and
    :func:`largest_squared_ratio` are finite."""
    floor = DISTANCE_FLOOR_M / user.range_m
    floor_ratio = floor * floor
    if not (largest_squared_ratio(geom, user) < math.inf and floor_ratio < math.inf):
        raise OverflowError(f"element distances at range {user.range_m:.3g} m overflow")
    return floor_ratio


def _offset_ratios(
    user: UserLocation, ue: np.ndarray, floor_ratio: float
) -> np.ndarray:
    """The kernel's squared distance ratios of the elements at axis offsets
    ``ue``, in units of the range (offsets in element spacings times
    :func:`normalized_spacing`).  ``ue`` is consumed: it holds the
    across-axis terms afterwards.  Raises :class:`DegenerateGeometryError`
    where a ratio is below ``floor_ratio``, from
    :func:`_checked_floor_ratio`.

    The scan for such a ratio runs only where :func:`_floor_may_fire`
    holds: elsewhere every ratio is at least c^2 / 2 > floor_ratio, for the
    computed sine s and cosine c below (each within one ulp, a factor
    1 + 2u, u = 2^-53) and any offset ue.  Each rounding is a factor 1 + d,
    |d| <= u (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 2-3): p = fl(ue*s) = ue*s', s' = s(1 + d1); q = fl(1 - p)
    = (1 - p)(1 + d2); A = fl(q*q) >= (1 - ue*s')^2 (1 - u)^3;
    t = fl(ue*c) = ue*c(1 + d4); B = fl(t*t) >= (ue*c)^2 (1 - u)^3; the
    ratio fl(A + B) >= (A + B)(1 - u) >= (1 - u)^4 ((1 - ue*s')^2 + (ue*c)^2).
    Over ue that quadratic is least at c^2 / (s'^2 + c^2), and
    s'^2 + c^2 <= (1 + u)^2 (1 + 2u)^2, so the ratio is at least
    c^2 (1 - 11u).  A product that underflows errs by up to 2^-1075
    instead.  Where |t| >= 2^-511, B is normal, and p underflows only where
    A is about 1, so the bound stands.  Where |t| < 2^-511, |c| >= 1e-150
    (c^2 >= 1e-300) makes |ue| < 1.5e-4, so A alone is above 0.999 c^2.
    The test reads c*c rounded, within a factor 1 + u of c^2, so where it
    passes, c*c >= 4 * floor_ratio, each ratio is at least
    4 * floor_ratio (1 - 12u).  Users within twice ``DISTANCE_FLOOR_M`` of
    the array's line keep the scan, as do users at 90 degrees
    (c = 6.1e-17) closer than 3.3e7 m.
    """
    sin_t, cos_t = math.sin(user.angle_rad), math.cos(user.angle_rad)
    ratios = ue * sin_t
    np.subtract(1.0, ratios, out=ratios)  # along the array axis
    ratios *= ratios
    ue *= cos_t  # across it
    ue *= ue
    ratios += ue
    if _floor_may_fire(cos_t, floor_ratio) and ratios.min() < floor_ratio:
        raise DegenerateGeometryError(
            "user lies on the array: an element distance falls below "
            f"{DISTANCE_FLOOR_M:.0e} m"
        )
    return ratios


def _floor_may_fire(c: float, floor_ratio: float) -> bool:
    """Whether a ratio of :func:`_offset_ratios`, whose across-axis factor
    is the computed cosine ``c``, can fall below ``floor_ratio``: False
    only where c^2 >= 4 * floor_ratio, as for a user at least twice
    ``DISTANCE_FLOOR_M`` from the array's line, and c^2 >= 1e-300.  The
    cosine of an angle in [-pi/2, pi/2] is at least 6.1e-17, so the second
    test holds for every user; it keeps the bound inside the normal range."""
    c_squared = c * c
    return not (c_squared >= 4.0 * floor_ratio and c_squared >= 1e-300)


def inverse_ratio_sum(geom: ArrayGeometry, user: UserLocation) -> float:
    """The sum over the elements of the kernel's inverse squared distance
    ratios, r^2 / d_n^2.

    An array of :func:`_one_block` makes its block, with the kernel's checks,
    and reduces it by :func:`_module_sums` itself: through
    :func:`run_ratio_blocks` that cost about 1 us more, some 5% of a small
    sweep point.  A larger array takes :func:`_progression_sum`, or the
    kernel where that returns None.  Kernel ratios are summed by numpy's
    pairwise summation within each module and by :func:`compensated_sum`
    over the module partials.  The terms are positive, so the relative
    error grows only as the logarithm of the module size (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 4), and the fixed
    module-major order keeps reruns bit-identical.  The progressions' bits
    differ from the kernel's in the last places.  Each route raises the
    kernel's ``OverflowError``, then its :class:`DegenerateGeometryError`."""
    if _one_block(geom):
        n = geom.module_count
        ratios = _block_ratios(geom, user, _checked_floor_ratio(geom, user), 0, n)
        partials = _module_sums(None, 0, n, ratios)
    else:
        total = _progression_sum(geom, user)
        if total is not None:
            return total
        partials = np.concatenate(run_ratio_blocks(geom, user, _module_sums, None))
    return compensated_sum(memoryview(partials))


def _module_sums(args: None, start: int, stop: int, ratios: np.ndarray) -> np.ndarray:
    """A block function of :func:`run_ratio_blocks`: each module's sum of
    its inverse ratios, taken in place of ``ratios``."""
    return np.add.reduce(np.reciprocal(ratios, out=ratios), axis=1)


#: B_2k / 2k for k = 1 to 8: the coefficients of the asymptotic series of
#: the digamma function, psi(z) ~ ln z - 1/(2z) - sum B_2k / (2k z^2k)
#: (DLMF 5.11.2).
_PSI_SERIES = (
    1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160
)
#: Offsets, in steps, below which a progression's terms are added one by
#: one: from |z| = 12 on, the first term the series leaves out is below
#: 1.2e-19.
_PSI_FROM = 12


def _progression_sum(geom: ArrayGeometry, user: UserLocation) -> float | None:
    """:func:`inverse_ratio_sum` in O(min(M, N)) operations, or None where
    the values it needs in units of its steps leave the floating-point range.

    The elements lie on a lattice, so the elements of one index in every
    module, or the elements of one module, form an arithmetic progression
    along the array axis.  Each runs along the longer axis, with step h
    (the stride, or one spacing).  In units of h, with offsets v_k from the
    user's foot on the axis and b = r cos(angle) / (h d), its terms sum to
    sum_k 1/(v_k^2 + b^2) = -Im[psi(z + n) - psi(z)] / b for z = v_0 + ib
    (DLMF 5.15).  Terms with |v_k| < ``_PSI_FROM`` are added one by one.
    The rest form a part with v_k >= ``_PSI_FROM`` and a part with
    v_k <= -``_PSI_FROM``, which is taken as its mirror image: psi has its
    poles on the negative real axis, where its series does not hold.  A
    part of n terms from w_0 gives atan2(n b, w_0 (w_0 + n) + b^2) / b, the
    integral of its terms, and the series' tail at w_0 and w_0 + n.
    :func:`compensated_sum` adds every piece.  Each offset is formed as the
    kernel forms it, stride * module + element first and then minus the
    user's foot, so that the offsets near the user keep their precision.

    Raises the kernel's ``OverflowError`` before any work, and its
    :class:`DegenerateGeometryError` from the kernel's ratios of each
    progression's elements nearest the user.
    """
    floor_ratio = _checked_floor_ratio(geom, user)
    m, n = geom.elements_per_module, geom.module_count
    stride = geom.stride
    along_modules = n >= m
    length, rows = (n, m) if along_modules else (m, n)
    step = stride if along_modules else 1.0
    spacings = user.range_m / geom.element_spacing  # the range, in spacings
    foot = math.sin(user.angle_rad) * spacings  # the user's foot on the axis
    per_step = spacings / step  # the range, in steps
    b = math.cos(user.angle_rad) * per_step
    farthest = (geom.half_span + abs(foot)) / step + 1.0
    # Where b^2 is subnormal or an offset's square overflows, as where the
    # range is over 1e154 spacings, the kernel takes the sum.
    if not (b * b >= sys.float_info.min and farthest * farthest + b * b < math.inf):
        return None
    first = 0.5 * (1 - length)  # the first centred index along a progression
    across = _centered(rows)[:, None]

    def axis_offsets(k: np.ndarray) -> np.ndarray:
        "Axis offsets, in spacings, of element k of each progression."
        if along_modules:
            return stride * (first + k) + across
        return stride * across + (first + k)

    def steps(ue: np.ndarray) -> np.ndarray:
        return (ue - foot) / step

    v0 = steps(axis_offsets(np.zeros(1)))
    # The elements before ``below`` have v <= -_PSI_FROM, and those from
    # ``above`` on have v >= _PSI_FROM.
    below = np.clip(np.floor(-_PSI_FROM - v0) + 1.0, 0.0, length)
    above = np.clip(np.ceil(_PSI_FROM - v0), 0.0, length)
    # The elements from below - 1 to above: the ones added one by one, and
    # the nearest of each part.  One of them is the nearest to the user.
    near = below - 1.0 + np.arange(2 * _PSI_FROM + 2)
    single = (near >= below) & (near < above)
    ue = axis_offsets(np.clip(near, 0.0, length - 1.0))
    v = steps(ue)
    ue *= normalized_spacing(geom, user)
    _offset_ratios(user, ue, floor_ratio)  # the kernel's floor test
    terms = np.where(single, 1.0 / (v * v + b * b), 0.0)

    # Each part's first offset and the one past its last: the negative
    # part mirrored, -v(below - 1) to -v(-1), and v(above) to v(length).
    bounds = steps(axis_offsets(np.hstack((
        below - 1.0, above, -np.ones_like(below), np.full_like(above, length)
    ))))
    bounds[:, ::2] *= -1.0
    counts = np.hstack((below, length - above))
    # An empty part starts and stops at _PSI_FROM, so it adds 0.
    bounds = np.where(np.tile(counts, 2) > 0.0, bounds, _PSI_FROM)
    start, stop = bounds[:, :2].ravel(), bounds[:, 2:].ravel()
    # math.atan2 and real arithmetic: numpy's arctan2 and complex loops
    # give other bits under other SIMD dispatch.
    main = list(map(math.atan2, (counts.ravel() * b).tolist(),
                    (start * stop + b * b).tolist()))
    tails = _psi_series_imag(np.concatenate((start, stop)), b)
    tails[start.size :] *= -1.0
    pieces = np.concatenate((np.concatenate((main, tails)) / b, terms.ravel()))
    return compensated_sum(memoryview(pieces)) * per_step * per_step


def _psi_series_imag(w: np.ndarray, b: float) -> np.ndarray:
    """Im T(w + ib) for the tail T(z) = -1/(2z) - sum B_2k / (2k z^2k) of
    psi's asymptotic series, in real arithmetic."""
    norm = w * w + b * b
    re, im = w / norm, -b / norm  # 1/z
    square_re, square_im = re * re - im * im, 2.0 * re * im  # 1/z^2
    sum_re, sum_im = _PSI_SERIES[-1], 0.0
    for coefficient in _PSI_SERIES[-2::-1]:
        sum_re, sum_im = (
            sum_re * square_re - sum_im * square_im + coefficient,
            sum_re * square_im + sum_im * square_re,
        )
    return -0.5 * im - (square_re * sum_im + square_im * sum_re)


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


def _ratio_block(args: tuple, start: int, stop: int) -> object:
    """One block of :func:`run_ratio_blocks`; ``args``: (geom, user,
    floor_ratio, work, its args)."""
    geom, user, floor_ratio, work, work_args = args
    ratios = _block_ratios(geom, user, floor_ratio, start, stop)
    return work(work_args, start, stop, ratios)


def _block_ratios(geom, user, floor_ratio: float, start: int, stop: int) -> np.ndarray:
    """The kernel's ratios of modules ``start`` to ``stop``, a fresh array
    shaped (modules, elements per module).  An array of :func:`_one_block`
    takes its offsets from :func:`_one_block_offsets`.  A larger array's
    block makes its offsets with it, so a thread holds no array longer than
    a block, and two of them at most until it returns: a third, as
    ``1.0 - ue * sin``, took the memory each block frees over glibc's trim
    threshold, and the exact sum at 1.6 million elements then faulted every
    block's pages in again (8,640 page faults a call against 419)."""
    m, n, stride = geom.elements_per_module, geom.module_count, geom.stride
    eps = normalized_spacing(geom, user)
    if _one_block(geom):
        ue = _one_block_offsets(m, n, stride) * eps
    else:
        ue = _module_offsets(m, n, stride, start, stop)
        ue *= eps
    return _offset_ratios(user, ue, floor_ratio)


def _module_offsets(
    elements: int, modules: int, stride: float, start: int, stop: int
) -> np.ndarray:
    """Axis offsets, in element spacings, of the elements of modules
    ``start`` to ``stop`` of ``modules``: stride * module + element, on
    centred indices, shaped (modules, elements)."""
    low = 0.5 * (1 - modules)  # the first centred module index
    return stride * np.arange(low + start, low + stop)[:, None] + _centered(elements)


@functools.lru_cache(maxsize=_OFFSET_CACHE_SIZE)
def _one_block_offsets(elements: int, modules: int, stride: float) -> np.ndarray:
    """The :func:`_module_offsets` of every module, read-only, cached by
    what they depend on.  Only arrays of :func:`_one_block` come here."""
    offsets = _module_offsets(elements, modules, stride, 0, modules)
    offsets.setflags(write=False)
    return offsets
