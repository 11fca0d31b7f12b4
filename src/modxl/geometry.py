"""Modular uniform-linear-array layout: element indexing, positions, spans,
and element-to-user distances.

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
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator, Tuple

import numpy as np

from .errors import DegenerateGeometryError, ElementIndexError

#: Element-to-user distances below this floor (metres) are rejected: the 1/r
#: free-space amplitude model diverges as the user reaches an element.
DISTANCE_FLOOR_M = 1e-9
#: Elements per block of the distance kernel and its consumers, which reuse
#: their buffers for every block.  A block of 65,536 float64 values is
#: 512 KiB, so the kernel's two buffers and a consumer's few stay within a
#: 4 MiB L2 cache while each block is run through.  A block holds whole
#: modules, and at least one.
BLOCK_ELEMENTS = 1 << 16


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
class ElementIndex:
    """Centred (element, module) index pair.

    ``element`` ranges over M centred unit steps, ``module`` over N; both are
    half-integers when the respective count is even.
    """

    element: float
    module: float


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

    @property
    def position(self) -> np.ndarray:
        "Cartesian coordinates [x, y] in metres."
        return np.array([
            self.range_m * math.cos(self.angle_rad),
            self.range_m * math.sin(self.angle_rad),
        ])


def _checked_offset(value: float, count: int, what: str) -> float:
    "Validate one centred index against its count; return it unchanged."
    shifted = value + 0.5 * (count - 1)
    if not (float(shifted).is_integer() and 0 <= shifted < count):
        raise ElementIndexError(
            f"{what} index {value} invalid for count {count}: expected one of "
            f"the {count} centred unit steps"
        )
    return value


def element_index_offset(geom: ArrayGeometry, idx: ElementIndex) -> float:
    "Axis offset of an element in units of the element spacing."
    m = _checked_offset(idx.element, geom.elements_per_module, "element")
    n = _checked_offset(idx.module, geom.module_count, "module")
    return geom.stride * n + m


def element_position(geom: ArrayGeometry, idx: ElementIndex) -> np.ndarray:
    "Cartesian position [0, y] of one array element, metres."
    return np.array([0.0, element_index_offset(geom, idx) * geom.element_spacing])


def element_indices(geom: ArrayGeometry) -> Iterator[ElementIndex]:
    """All element indices in module-major order: modules ascending, elements
    ascending within each module."""
    for n in _centered(geom.module_count):
        for m in _centered(geom.elements_per_module):
            yield ElementIndex(element=float(m), module=float(n))


def element_offsets(geom: ArrayGeometry) -> np.ndarray:
    "Axis offsets of all elements in module-major order, units of the spacing."
    m = _centered(geom.elements_per_module)
    n = _centered(geom.module_count)
    return (geom.stride * n[:, None] + m[None, :]).ravel()


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


def squared_distance_ratios(geom: ArrayGeometry, user: UserLocation) -> np.ndarray:
    """Squared element-to-user distances over the squared range, module-major:
    the toolkit's one distance kernel.  Each is (1 - u*eps*sin)^2 +
    (u*eps*cos)^2 for axis offset u and eps = spacing/range, which keeps the
    precision that 1 - 2*u*eps*sin + (u*eps)^2 loses to cancellation near the
    array axis.  Raises :class:`DegenerateGeometryError` for a distance below
    ``DISTANCE_FLOOR_M``, and ``OverflowError`` where a ratio overflows, as
    it does once u*eps passes about 1.3e154, or the floor's own ratio does,
    below a range of about 7.5e-164 m.  Filled from
    :func:`squared_ratio_blocks`.
    """
    out = np.empty((geom.module_count, geom.elements_per_module))
    for modules, ratios in squared_ratio_blocks(geom, user):
        out[modules] = ratios
    return out.ravel()


def squared_ratio_blocks(
    geom: ArrayGeometry, user: UserLocation
) -> Iterator[Tuple[slice, np.ndarray]]:
    """The ratios of :func:`squared_distance_ratios` in cache-sized blocks.

    Yields ``(modules, ratios)`` for each run of whole modules of at most
    ``BLOCK_ELEMENTS`` elements (of one module, where a module alone is
    larger): the slice of module indices and their ratios, shaped (modules,
    elements per module).  ``ratios`` is a view of a buffer that the next
    block overwrites, and the consumer may overwrite it too.  Raises
    :class:`DegenerateGeometryError` in the block that holds a distance below
    the floor, and ``OverflowError``, if a ratio overflowed, only after the
    last block, so the floor error comes first as on one whole-array pass.
    """
    return _ratio_blocks(
        geom, user, _centered(geom.module_count), _centered(geom.elements_per_module)
    )


def _ratio_blocks(
    geom: ArrayGeometry, user: UserLocation, modules: np.ndarray, elements: np.ndarray
) -> Iterator[Tuple[slice, np.ndarray]]:
    """The block driver behind :func:`squared_ratio_blocks`, at the given
    ascending centred module and element indices.  Two buffers serve every
    block: the offsets stride*n + m are built in one, and the kernel writes
    the ratios into the other."""
    floor_ratio = (DISTANCE_FLOOR_M / user.range_m) ** 2
    rows = min(modules.size, max(1, BLOCK_ELEMENTS // elements.size))
    ue, ratios = np.empty((rows, elements.size)), np.empty((rows, elements.size))
    for start in range(0, modules.size, rows):
        stop = min(start + rows, modules.size)
        if stop - start < rows:  # the last block, and shorter
            ue, ratios = ue[: stop - start], ratios[: stop - start]
        np.add(geom.stride * modules[start:stop, None], elements, out=ue)
        _squared_ratios(geom, user, ue, ratios)
        if ratios.min() < floor_ratio:
            raise DegenerateGeometryError(
                "user lies on the array: an element distance falls below "
                f"{DISTANCE_FLOOR_M:.0e} m"
            )
        if start == 0:
            first = ratios[0, 0]
        last = ratios[-1, -1]
        yield slice(start, stop), ratios
    # Each ratio is convex in its offset, so where one overflows, the ratio
    # at the first or the last of the ascending offsets overflows too.
    if max(first, last) == math.inf:
        raise OverflowError(
            f"element distances over the range {user.range_m:.3g} m overflow"
        )


def _squared_ratios(
    geom: ArrayGeometry, user: UserLocation, ue: np.ndarray, ratios: np.ndarray
) -> None:
    """The kernel of :func:`squared_distance_ratios`: writes into ``ratios``
    the squared ratios at the axis offsets that ``ue`` holds, and overwrites
    ``ue``.  Both are the caller's buffers, of one shape."""
    with np.errstate(over="ignore"):
        ue *= geom.element_spacing / user.range_m
        np.multiply(ue, math.sin(user.angle_rad), out=ratios)
        np.subtract(1.0, ratios, out=ratios)  # along the array axis
        ratios *= ratios
        ue *= math.cos(user.angle_rad)  # across it
        ue *= ue
        ratios += ue


def distance(geom: ArrayGeometry, user: UserLocation, idx: ElementIndex) -> float:
    "Distance from the user to one array element, metres."
    m = _checked_offset(idx.element, geom.elements_per_module, "element")
    n = _checked_offset(idx.module, geom.module_count, "module")
    # Unpacking runs the driver to its end, past its overflow test.
    [(_, ratios)] = _ratio_blocks(geom, user, np.array([n]), np.array([m]))
    return user.range_m * math.sqrt(ratios[0, 0])


def distances(geom: ArrayGeometry, user: UserLocation) -> np.ndarray:
    "Distances from the user to every element, module-major order, metres."
    ratios = squared_distance_ratios(geom, user)
    np.sqrt(ratios, out=ratios)
    ratios *= user.range_m
    return ratios
