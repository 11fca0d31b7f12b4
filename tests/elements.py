"""Per-element references for the tests.

``element_positions`` lays the elements out one at a time from the centred
index formula, offset = stride*n + m for element and module indices m and n
centred on 0.  It shares no code with ``modxl.geometry``, so the tests that
compare the toolkit against it stay independent of the layout they check.
``user_position`` is the user's Cartesian position, r*cos(angle) and
r*sin(angle).  ``ratio_blocks`` collects the blocks of the distance kernel,
and ``block_ratios`` joins them into one array.
"""

import math

import numpy as np

from modxl.geometry import run_ratio_blocks


def element_positions(geom):
    "Cartesian positions (0, y) of the elements in module-major order, metres."
    m0 = 0.5 * (geom.elements_per_module - 1)
    n0 = 0.5 * (geom.module_count - 1)
    return [
        (0.0, (geom.stride * (n - n0) + (m - m0)) * geom.element_spacing)
        for n in range(geom.module_count)
        for m in range(geom.elements_per_module)
    ]


def user_position(user):
    "Cartesian coordinates [x, y] of the user, metres."
    return np.array([
        user.range_m * math.cos(user.angle_rad),
        user.range_m * math.sin(user.angle_rad),
    ])


def element_distances(geom, user):
    "Cartesian distances from the user to ``element_positions``, metres."
    x, y = user_position(user)
    return [math.hypot(x - ex, y - ey) for ex, ey in element_positions(geom)]


def ratio_blocks(geom, user):
    """The ``(modules, ratios)`` blocks of ``run_ratio_blocks``, as its
    threads hand them over, sorted into module order."""
    blocks = []
    run_ratio_blocks(geom, user, lambda *block: blocks.append(block))
    return sorted(blocks, key=lambda block: block[0].start)


def block_ratios(geom, user):
    """The squared distance ratios of ``run_ratio_blocks`` in one
    module-major array, joined from its blocks."""
    return np.concatenate([ratios.ravel() for _, ratios in ratio_blocks(geom, user)])
