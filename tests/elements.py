"""Per-element references for the tests.

``element_positions`` lays the elements out one at a time from the centred
index formula, offset = stride*n + m for element and module indices m and n
centred on 0.  It shares no code with ``modxl.geometry``, so the tests that
compare the toolkit against it stay independent of the layout they check.
``block_ratios`` gathers the blocks of the distance kernel into one array.
"""

import math

import numpy as np

from modxl.geometry import squared_ratio_blocks


def element_positions(geom):
    "Cartesian positions (0, y) of the elements in module-major order, metres."
    m0 = 0.5 * (geom.elements_per_module - 1)
    n0 = 0.5 * (geom.module_count - 1)
    return [
        (0.0, (geom.stride * (n - n0) + (m - m0)) * geom.element_spacing)
        for n in range(geom.module_count)
        for m in range(geom.elements_per_module)
    ]


def element_distances(geom, user):
    "Cartesian distances from the user to ``element_positions``, metres."
    x, y = user.position
    return [math.hypot(x - ex, y - ey) for ex, ey in element_positions(geom)]


def block_ratios(geom, user):
    """The squared distance ratios of ``squared_ratio_blocks`` in one
    module-major array, joined from the blocks as they come."""
    return np.concatenate(
        [ratios.ravel() for _, ratios in squared_ratio_blocks(geom, user)]
    )
