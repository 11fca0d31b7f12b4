"""Analytic SNR models for the modular linear array under maximal-ratio
combining.

Six routes to the same quantity, each with its own domain of validity:

* exact per-element sum (always valid, the reference for everything else),
* closed form from the continuum limit of the sum,
* collocated-array reduction (unit separation ratio),
* infinite-array limit in the module count,
* plane-wave far-field value,
* adaptive tensor Gauss-Legendre cubature of the continuum integral, kept
  as an independent numerical cross-check of the closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import LinkBudget
from .errors import (
    DegenerateGeometryError,
    ModelBreakdownError,
    ModelMismatchError,
    QuadratureAccuracyError,
    UnboundedLimitError,
)
from .geometry import (
    DISTANCE_FLOOR_M,
    ArrayGeometry,
    UserLocation,
    _distance_components,
    aperture,
    element_offsets,
    normalized_spacing,
)
from .numerics import compensated_sum, linear_to_db


class SnrModel(Enum):
    """The six models, in the canonical order of every serialized output.

    ``token`` names a model on the command line and in the ``snr_<token>_*``
    fields of the sweep CSV and the ``eval`` report.
    """

    EXACT_SUM = "exact_sum", "exact"
    CLOSED_FORM = "closed_form", "closed"
    COLLOCATED = "collocated", "collocated"
    ASYMPTOTIC = "asymptotic", "asymptotic"
    UPW = "upw", "upw"
    INTEGRAL = "integral", "integral"

    def __new__(cls, value: str, token: str) -> "SnrModel":
        member = object.__new__(cls)
        member._value_ = value
        member.token = token
        return member


#: Spacing-to-range ratio above which the continuum approximation is suspect.
EPSILON_WARN_THRESHOLD = 0.01
#: |cos(angle)| below which closed forms fall back to the exact sum.
ENDFIRE_COS_FLOOR = 1e-9
#: The plane-wave value is flagged when the range is closer than this multiple
#: of the augmented span.
FAR_FIELD_MARGIN = 5.0
#: Rectangles the quadrature model's adaptive cubature may evaluate in all
#: before it gives up.
CUBATURE_MAX_RECTANGLES = 4096

FLAG_EPSILON_NOT_SMALL = "epsilon_not_small"
FLAG_THETA_NEAR_ENDFIRE = "theta_near_endfire"
FLAG_FAR_FIELD_ASSUMED = "far_field_assumed"


@dataclass(frozen=True)
class SnrReport:
    "One SNR value with its model tag and any validity warnings."

    model: SnrModel
    value_linear: float
    validity_flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.value_linear < 0:
            raise ValueError("value_linear must be nonnegative")

    @property
    def value_db(self) -> float:
        return linear_to_db(self.value_linear)


def h_aux(x: float) -> float:
    """Running integral of the arctangent: x*arctan(x) - ln(1 + x^2)/2.

    Even in its argument; evaluated through log1p so small arguments keep
    full relative precision.
    """
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    ax = abs(x)
    return ax * math.atan(ax) - 0.5 * math.log1p(ax * ax)


def snr_exact_sum(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> SnrReport:
    """Exact SNR: effective power times the compensated sum of inverse squared
    element distances.  Deterministic for a fixed geometry ordering."""
    along, across = _distance_components(
        element_offsets(geom), user, geom.element_spacing
    )
    ratios = along * along + across * across
    floor_ratio = (DISTANCE_FLOOR_M / user.range_m) ** 2
    if ratios.min() < floor_ratio:
        raise DegenerateGeometryError(
            "user lies on the array: an element distance falls below "
            f"{DISTANCE_FLOOR_M:.0e} m"
        )
    total = compensated_sum(1.0 / ratios)
    value = link.effective_power / user.range_m**2 * total
    return SnrReport(SnrModel.EXACT_SUM, value)


def _endfire_fallback(geom, user, link, model: SnrModel, flags: set) -> SnrReport:
    exact = snr_exact_sum(geom, user, link)
    flags = flags | {FLAG_THETA_NEAR_ENDFIRE}
    return SnrReport(model, exact.value_linear, frozenset(flags))


def snr_closed_form(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> SnrReport:
    """Closed-form SNR from the continuum limit of the exact sum.

    Accurate when the element spacing is small against the user range and
    against ``r cos(angle)``, the user's distance from the array line; a
    validity flag is raised otherwise.  Near endfire the expression
    degenerates and the exact sum is returned instead, flagged.  Raises
    :class:`ModelBreakdownError` when the bracket of ``h_aux`` differences
    cancels to a non-positive value, as it does far out in the far field.
    """
    flags = set()
    eps = normalized_spacing(geom, user)
    if eps > EPSILON_WARN_THRESHOLD:
        flags.add(FLAG_EPSILON_NOT_SMALL)
    cos_t = math.cos(user.angle_rad)
    if abs(cos_t) < ENDFIRE_COS_FLOOR:
        return _endfire_fallback(geom, user, link, SnrModel.CLOSED_FORM, flags)
    # Beside the array segment the continuum step is d / (r cos(angle)).
    if eps / abs(cos_t) > EPSILON_WARN_THRESHOLD:
        flags.add(FLAG_EPSILON_NOT_SMALL)
    tan_t = math.tan(user.angle_rad)
    d = geom.element_spacing
    _, augmented = aperture(geom)
    scale = 2.0 * user.range_m * cos_t
    outer = augmented / scale
    inner = (augmented - 2.0 * geom.elements_per_module * d) / scale
    bracket = (
        h_aux(outer - tan_t)
        + h_aux(outer + tan_t)
        - h_aux(inner - tan_t)
        - h_aux(inner + tan_t)
    )
    if not bracket > 0:
        raise ModelBreakdownError(
            f"closed form cancelled to {bracket:.3e} at range {user.range_m:.6g} m; "
            "use the exact sum"
        )
    prefactor = link.effective_power / (
        (geom.elements_per_module - 1) * d * d + geom.module_separation * d
    )
    return SnrReport(SnrModel.CLOSED_FORM, prefactor * bracket, frozenset(flags))


def is_collocated(geom: ArrayGeometry) -> bool:
    "Whether the modules abut (separation ratio 1), the collocated model's domain."
    return abs(geom.separation_ratio - 1.0) <= 1e-12


def snr_collocated(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> SnrReport:
    """Closed-form SNR for the collocated special case (separation ratio 1),
    which depends on the geometry only through the total element count."""
    if not is_collocated(geom):
        raise ModelMismatchError(
            "collocated model requires separation_ratio == 1, got "
            f"{geom.separation_ratio}"
        )
    cos_t = math.cos(user.angle_rad)
    if abs(cos_t) < ENDFIRE_COS_FLOOR:
        return _endfire_fallback(geom, user, link, SnrModel.COLLOCATED, set())
    tan_t = math.tan(user.angle_rad)
    d = geom.element_spacing
    half_extent = geom.total_elements * d / (2.0 * user.range_m * cos_t)
    value = (
        link.effective_power
        / (user.range_m * d * cos_t)
        * (math.atan(half_extent - tan_t) + math.atan(half_extent + tan_t))
    )
    return SnrReport(SnrModel.COLLOCATED, value)


def snr_asymptotic(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> SnrReport:
    """Limit SNR as the module count grows without bound: independent of the
    module count, inversely proportional to the projected range."""
    cos_t = math.cos(user.angle_rad)
    if abs(cos_t) < ENDFIRE_COS_FLOOR:
        raise UnboundedLimitError(
            "infinite-array SNR diverges at endfire (cos(angle) == 0)"
        )
    d = geom.element_spacing
    pitch = (geom.elements_per_module - 1) * d + geom.module_separation
    value = (
        math.pi
        * geom.elements_per_module
        * link.effective_power
        / (pitch * user.range_m * cos_t)
    )
    return SnrReport(SnrModel.ASYMPTOTIC, value)


def snr_upw(geom: ArrayGeometry, user: UserLocation, link: LinkBudget) -> SnrReport:
    """Plane-wave SNR: element count times the single-element value.
    Independent of the module separation and the user direction."""
    flags = set()
    _, augmented = aperture(geom)
    if user.range_m < FAR_FIELD_MARGIN * augmented:
        flags.add(FLAG_FAR_FIELD_ASSUMED)
    value = link.effective_power / user.range_m**2 * geom.total_elements
    return SnrReport(SnrModel.UPW, value, frozenset(flags))


def snr_double_integral(
    geom: ArrayGeometry,
    user: UserLocation,
    link: LinkBudget,
    rel_tol: float = 1e-8,
) -> SnrReport:
    """Adaptive cubature of the continuum integral behind the closed form.

    A globally adaptive tensor Gauss-Legendre rule over the element-axis by
    module-axis rectangle (see :func:`_adaptive_gauss_legendre`), run a
    decade tighter than ``rel_tol``.  Serves as an independent oracle for
    the closed form.  Raises :class:`QuadratureAccuracyError`, carrying the
    current estimate, when ``CUBATURE_MAX_RECTANGLES`` rectangles do not
    reach that, as when the user is so close to the tip of the array
    segment that rounding alone exceeds the tolerance.
    """
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    eps = normalized_spacing(geom, user)
    stride = geom.stride
    sin_t = math.sin(user.angle_rad)
    cos_t = math.cos(user.angle_rad)
    cos_sq = cos_t * cos_t
    m_half = 0.5 * geom.elements_per_module * eps
    n_half = 0.5 * geom.module_count * eps

    # The integrand 1/((u - sin)^2 + cos^2) with u = x + stride*y is the
    # cancellation-safe regrouping of 1/(1 - 2*u*sin + u^2).  It is singular
    # exactly where the user sits on the array segment: endfire direction
    # with the range inside the augmented half-span.
    u_max = m_half + stride * n_half
    if abs(sin_t) <= u_max:
        if abs(cos_t) < ENDFIRE_COS_FLOOR:
            raise DegenerateGeometryError(
                "integrand singular: user lies on the array segment"
            )
    elif (abs(sin_t) - u_max) ** 2 + cos_sq <= 0.0:
        raise DegenerateGeometryError(
            "integrand singular: user at the tip of the array segment"
        )

    # Integrated over (x, v) with v = stride*y: both axes are then in units
    # of u, so the rectangles are refined to the integrand's own scale.
    def integrand(x: np.ndarray, v: np.ndarray) -> tuple:
        off = x + v - sin_t
        value = 1.0 / (off * off + cos_sq)
        # Rounding moves off by about one ulp of |x| + |v| + |sin|, and the
        # value by that times |d value/d off| = 2*|off|*value^2.
        shift = math.ulp(1.0) * (np.abs(x) + np.abs(v) + abs(sin_t))
        return value, shift * 2.0 * np.abs(off) * value * value

    level_tol = 0.1 * rel_tol
    raw, abserr, evaluations = _adaptive_gauss_legendre(
        integrand, m_half, stride * n_half, level_tol
    )
    value = link.effective_power / user.range_m**2 / eps**2 * (raw / stride)
    if not abserr <= level_tol * abs(raw):
        achieved = abserr / abs(raw) if raw != 0.0 else math.inf
        raise QuadratureAccuracyError(
            f"quadrature stopped at relative error estimate {achieved:.2e} "
            f"after {evaluations} integrand evaluations; rel_tol {rel_tol:.0e} "
            f"needs {level_tol:.0e}",
            estimate=value,
        )
    return SnrReport(SnrModel.INTEGRAL, value)


@functools.cache
def _gauss_legendre_rules() -> tuple:
    """Nodes and weights on [-1, 1] of the 16- and 8-point Gauss-Legendre
    rules.  Built on the first quadrature call, not at import: no other model
    needs ``numpy.polynomial``."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(16), leggauss(8)


def _adaptive_gauss_legendre(integrand, x_half: float, y_half: float, tol: float):
    """Integrate ``integrand`` over [-x_half, x_half] x [-y_half, y_half].

    Globally adaptive tensor Gauss-Legendre cubature (Davis & Rabinowitz,
    *Methods of Numerical Integration*, ch. 5).  A rectangle's value is its
    16x16-point rule Q16.  Its error estimate is |Q16 - Q8| plus Q16 of the
    integrand's own rounding estimate, which no refinement reduces; each
    generation of rectangles is one vectorised pass.  The loop stops once
    the summed estimate is at most ``tol`` times the total.  Otherwise it
    accepts the rectangles whose estimate fits an equal share of the budget
    left, and splits the rest (:func:`_split_rectangles`).  It also stops
    when the next generation would take the count of rectangles evaluated
    past ``CUBATURE_MAX_RECTANGLES``, so the caller tells the two stops
    apart by testing the returned estimate against ``tol`` again.

    ``integrand`` takes node arrays x of shape (rects, i, 1) and y of shape
    (rects, 1, j), and returns its values there and an estimate of each
    value's rounding error.  Returns the integral, its summed error
    estimate and the number of integrand evaluations.
    """
    fine_rule, coarse_rule = _gauss_legendre_rules()
    cx, cy = np.zeros(1), np.zeros(1)
    hx, hy = np.full(1, float(x_half)), np.full(1, float(y_half))
    done_value = done_error = 0.0
    evaluations = rectangles = 0
    while cx.size:
        rectangles += cx.size
        evaluations += cx.size * (fine_rule[0].size ** 2 + coarse_rule[0].size ** 2)
        fine, rounding = _tensor_rule(integrand, cx, cy, hx, hy, *fine_rule)
        coarse, _ = _tensor_rule(integrand, cx, cy, hx, hy, *coarse_rule)
        error = np.abs(fine - coarse) + rounding
        total = done_value + float(fine.sum())
        total_error = done_error + float(error.sum())
        budget = tol * abs(total)
        if total_error <= budget:
            break
        split = error > (budget - done_error) / cx.size
        children = _split_rectangles(cx[split], cy[split], hx[split], hy[split])
        if rectangles + children[0].size > CUBATURE_MAX_RECTANGLES:
            break
        done_value += float(fine[~split].sum())
        done_error += float(error[~split].sum())
        cx, cy, hx, hy = children
    return total, total_error, evaluations


def _tensor_rule(integrand, cx, cy, hx, hy, nodes, weights) -> list:
    """One tensor Gauss-Legendre rule on each rectangle of centre (cx, cy)
    and half-widths (hx, hy), applied to each array the integrand returns."""
    x = cx[:, None] + hx[:, None] * nodes
    y = cy[:, None] + hy[:, None] * nodes
    return [
        hx * hy * ((values @ weights) @ weights)
        for values in integrand(x[:, :, None], y[:, None, :])
    ]


def _split_rectangles(cx, cy, hx, hy):
    """Halve each side that is at least half as long as its rectangle's
    longest side: a near-square splits into quadrants, a long strip only
    across its length."""
    halve_x, halve_y = 2.0 * hx > hy, 2.0 * hy > hx
    hx = np.where(halve_x, 0.5 * hx, hx)
    hy = np.where(halve_y, 0.5 * hy, hy)
    shift_x, shift_y = hx * halve_x, hy * halve_y
    signs = ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))
    keep = (np.ones_like(halve_x), halve_x, halve_y, halve_x & halve_y)
    return (
        np.concatenate([(cx + sx * shift_x)[k] for (sx, _), k in zip(signs, keep)]),
        np.concatenate([(cy + sy * shift_y)[k] for (_, sy), k in zip(signs, keep)]),
        np.concatenate([hx[k] for k in keep]),
        np.concatenate([hy[k] for k in keep]),
    )
