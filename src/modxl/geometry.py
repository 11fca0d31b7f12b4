"""Modular uniform-linear-array layout: spans and the blocked kernel of
element-to-user distances.

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

from .errors import DegenerateGeometryError
from .numerics import np

#: Element-to-user distances below this floor (metres) are rejected: the 1/r
#: free-space amplitude model diverges as the user reaches an element.
DISTANCE_FLOOR_M = 1e-9
#: Elements per block of the distance kernel and of the Monte-Carlo uplink.
#: A block of 65,536 float64 values is 512 KiB, so the few arrays of one
#: block stay within a 4 MiB L2 cache while it is run through.  A block
#: holds whole rows (modules, or uplink samples), and at least one.
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


def block_rows(width: int) -> int:
    "Rows of ``width`` elements that fit in one block, and at least one."
    return max(1, BLOCK_ELEMENTS // width)


def largest_squared_ratio(geom: ArrayGeometry, user: UserLocation) -> float:
    """The largest ratio of :func:`squared_ratio_blocks`, from one evaluation
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


def squared_ratio_blocks(
    geom: ArrayGeometry, user: UserLocation
) -> Iterator[Tuple[slice, np.ndarray]]:
    """Squared element-to-user distances over the squared range, in
    cache-sized blocks: the toolkit's one distance kernel.

    Each ratio is (1 - u*eps*sin)^2 + (u*eps*cos)^2 for axis offset u and
    eps = spacing/range, which keeps the precision that
    1 - 2*u*eps*sin + (u*eps)^2 loses to cancellation near the array axis.
    Yields ``(modules, ratios)`` for each run of whole modules of at most
    ``BLOCK_ELEMENTS`` elements (of one module, where a module alone is
    larger), in module-major order: the slice of module indices and their
    ratios, shaped (modules, elements per module).  Each block is a fresh
    array that the consumer owns.

    Raises ``OverflowError`` before the first block unless the floor's ratio
    and :func:`largest_squared_ratio` are finite, as below a range of about
    7.5e-164 m or once u*eps passes about 1.3e154.  Raises
    :class:`DegenerateGeometryError` in the block that holds a distance
    below ``DISTANCE_FLOOR_M``.
    """
    modules = _centered(geom.module_count)
    elements = _centered(geom.elements_per_module)
    eps = normalized_spacing(geom, user)
    sin_t, cos_t = math.sin(user.angle_rad), math.cos(user.angle_rad)
    floor = DISTANCE_FLOOR_M / user.range_m
    floor_ratio = floor * floor
    if not (largest_squared_ratio(geom, user) < math.inf and floor_ratio < math.inf):
        raise OverflowError(f"element distances at range {user.range_m:.3g} m overflow")
    rows = block_rows(elements.size)
    for start in range(0, modules.size, rows):
        stop = min(start + rows, modules.size)
        ue = geom.stride * modules[start:stop, None] + elements
        ue *= eps
        ratios = 1.0 - ue * sin_t  # along the array axis
        ratios *= ratios
        ue *= cos_t  # across it
        ue *= ue
        ratios += ue
        if ratios.min() < floor_ratio:
            raise DegenerateGeometryError(
                "user lies on the array: an element distance falls below "
                f"{DISTANCE_FLOOR_M:.0e} m"
            )
        yield slice(start, stop), ratios
