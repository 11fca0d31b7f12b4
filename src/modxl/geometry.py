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


def _centered(count: int) -> np.ndarray:
    "Centred unit-step index values for ``count`` positions."
    return np.arange(count) - 0.5 * (count - 1)


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
    below a range of about 7.5e-164 m.
    """
    return _squared_ratios(geom, user, element_offsets(geom))


def _squared_ratios(
    geom: ArrayGeometry, user: UserLocation, offsets: np.ndarray
) -> np.ndarray:
    """The kernel of :func:`squared_distance_ratios` at the given ascending
    axis offsets, which it leaves unchanged.  It works in place in two
    arrays."""
    floor_ratio = (DISTANCE_FLOOR_M / user.range_m) ** 2
    with np.errstate(over="ignore"):
        ue = offsets * (geom.element_spacing / user.range_m)
        ratios = ue * math.sin(user.angle_rad)
        np.subtract(1.0, ratios, out=ratios)  # along the array axis
        ratios *= ratios
        ue *= math.cos(user.angle_rad)  # across it
        ue *= ue
        ratios += ue
    if ratios.min() < floor_ratio:
        raise DegenerateGeometryError(
            "user lies on the array: an element distance falls below "
            f"{DISTANCE_FLOOR_M:.0e} m"
        )
    # Each ratio is convex in its offset, so where one overflows, the ratio
    # at the first or the last of the ascending offsets overflows too.
    if max(ratios[0], ratios[-1]) == math.inf:
        raise OverflowError(
            f"element distances over the range {user.range_m:.3g} m overflow"
        )
    return ratios


def distance(geom: ArrayGeometry, user: UserLocation, idx: ElementIndex) -> float:
    "Distance from the user to one array element, metres."
    offset = np.array([element_index_offset(geom, idx)])
    return user.range_m * math.sqrt(_squared_ratios(geom, user, offset)[0])


def distances(geom: ArrayGeometry, user: UserLocation) -> np.ndarray:
    "Distances from the user to every element, module-major order, metres."
    ratios = squared_distance_ratios(geom, user)
    np.sqrt(ratios, out=ratios)
    ratios *= user.range_m
    return ratios
