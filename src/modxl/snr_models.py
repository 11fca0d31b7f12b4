"""Analytic SNR models for the modular linear array under maximal-ratio
combining.

Six routes to the same quantity, each with its own domain of validity:

* exact per-element sum (always valid, the reference for everything else),
* closed form from the continuum limit of the sum,
* collocated-array reduction (unit separation ratio),
* infinite-array limit in the module count,
* plane-wave far-field value,
* adaptive Gauss-Legendre quadrature of the continuum integral, reduced
  exactly to one dimension and kept as an independent numerical
  cross-check of the closed form.
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
#: Relative error estimate the quadrature model must reach: a decade inside
#: the 1e-8 to which it checks the closed form.
QUADRATURE_REL_TOL = 1e-9
#: Panels the quadrature model's adaptive rule may evaluate in all before it
#: gives up.
QUADRATURE_MAX_PANELS = 4096

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
    if is_near_endfire(user):
        return _endfire_fallback(geom, user, link, SnrModel.CLOSED_FORM, flags)
    cos_t = math.cos(user.angle_rad)
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


def is_near_endfire(user: UserLocation) -> bool:
    "Whether the user lies along the array axis, where the closed forms degenerate."
    return abs(math.cos(user.angle_rad)) < ENDFIRE_COS_FLOOR


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
    if is_near_endfire(user):
        return _endfire_fallback(geom, user, link, SnrModel.COLLOCATED, set())
    cos_t = math.cos(user.angle_rad)
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
    if is_near_endfire(user):
        raise UnboundedLimitError(
            "infinite-array SNR diverges at endfire (cos(angle) == 0)"
        )
    cos_t = math.cos(user.angle_rad)
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
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> SnrReport:
    """Adaptive quadrature of the continuum integral behind the closed form.

    The continuum integrand over the element-axis by module-axis rectangle
    [-a, a] x [-b, b] depends on the two coordinates only through their sum
    u = x + v, so the double integral is exactly the single integral of the
    integrand times w(u) = min(a + b - |u|, 2 min(a, b)), the length of the
    line x + v = u inside the rectangle.  That integral is taken with a
    globally adaptive Gauss-Legendre rule (see
    :func:`_adaptive_gauss_legendre`) to an estimated relative error of
    ``QUADRATURE_REL_TOL``.  It uses neither :func:`h_aux` nor
    :func:`aperture`, so it stays an independent oracle for the closed form.
    Raises :class:`QuadratureAccuracyError`, carrying the current estimate,
    when ``QUADRATURE_MAX_PANELS`` panels do not reach that, as when the
    user is so close to the tip of the array segment that rounding alone
    exceeds the tolerance.
    """
    eps = normalized_spacing(geom, user)
    stride = geom.stride
    sin_t = math.sin(user.angle_rad)
    cos_t = math.cos(user.angle_rad)
    cos_sq = cos_t * cos_t
    a = 0.5 * geom.elements_per_module * eps
    b = stride * 0.5 * geom.module_count * eps

    # The integrand 1/((u - sin)^2 + cos^2) is the cancellation-safe
    # regrouping of 1/(1 - 2*u*sin + u^2).  It is singular exactly where the
    # user sits on the array segment: endfire direction with the range
    # inside the augmented half-span.
    u_max = a + b
    if abs(sin_t) <= u_max:
        if is_near_endfire(user):
            raise DegenerateGeometryError(
                "integrand singular: user lies on the array segment"
            )
    elif (abs(sin_t) - u_max) ** 2 + cos_sq <= 0.0:
        raise DegenerateGeometryError(
            "integrand singular: user at the tip of the array segment"
        )

    # The weight w is linear on each of the three panels split at
    # +-|a - b|: sloped on the two ends, flat between them.
    knee, width = abs(a - b), 2.0 * min(a, b)

    def integrand(u: np.ndarray) -> tuple:
        off = u - sin_t
        value = 1.0 / (off * off + cos_sq)
        weight = np.minimum(u_max - np.abs(u), width)
        slope = np.where(np.abs(u) > knee, -np.sign(u), 0.0)
        # Rounding moves u by about one ulp of |u| + |sin|, and value*weight
        # by that times its derivative value*slope - 2*off*value^2*weight.
        shift = math.ulp(1.0) * (np.abs(u) + abs(sin_t))
        rounding = shift * np.abs(value * slope - 2.0 * off * value * value * weight)
        return value * weight, rounding

    raw, abserr, evaluations = _adaptive_gauss_legendre(
        integrand, (-u_max, -knee, knee, u_max), QUADRATURE_REL_TOL
    )
    value = link.effective_power / user.range_m**2 / eps**2 * (raw / stride)
    if not abserr <= QUADRATURE_REL_TOL * abs(raw):
        achieved = abserr / abs(raw) if raw != 0.0 else math.inf
        raise QuadratureAccuracyError(
            f"quadrature stopped at relative error estimate {achieved:.2e} "
            f"after {evaluations} integrand evaluations; needs "
            f"{QUADRATURE_REL_TOL:.0e}",
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


def _adaptive_gauss_legendre(integrand, edges: tuple, tol: float):
    """Integrate ``integrand`` over the panels between consecutive ``edges``.

    Globally adaptive Gauss-Legendre quadrature (Davis & Rabinowitz,
    *Methods of Numerical Integration*, ch. 5).  A panel's value is its
    16-point rule Q16.  Its error estimate is |Q16 - Q8| plus Q16 of the
    integrand's own rounding estimate, which no refinement reduces.  The
    loop stops once the summed estimate is at most ``tol`` times the total.
    Otherwise it halves every panel whose estimate exceeds an equal share of
    that budget and keeps the rest, so each panel is weighed against the
    current total in every generation and none is accepted for good.  It
    also stops when the halves would take the count of panels evaluated past
    ``QUADRATURE_MAX_PANELS``, so the caller tells the two stops apart by
    testing the returned estimate against ``tol`` again.

    ``integrand`` takes a node array of shape (panels, nodes) and returns
    its values there and an estimate of each value's rounding error.
    Returns the integral, its summed error estimate and the number of
    integrand evaluations.
    """
    (fine_x, fine_w), (coarse_x, coarse_w) = _gauss_legendre_rules()

    def panel_rule(centre, half):
        fine_values, rounding = integrand(centre[:, None] + half[:, None] * fine_x)
        coarse_values, _ = integrand(centre[:, None] + half[:, None] * coarse_x)
        fine = half * (fine_values @ fine_w)
        coarse = half * (coarse_values @ coarse_w)
        return fine, np.abs(fine - coarse) + half * (rounding @ fine_w)

    edges = np.asarray(edges, dtype=float)
    centre, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    fine, error = panel_rule(centre, half)
    panels = centre.size
    while True:
        total, total_error = float(fine.sum()), float(error.sum())
        budget = tol * abs(total)
        split = error > budget / centre.size
        # A NaN estimate stops the loop too: no panel would be split.
        if not total_error > budget or panels + 2 * split.sum() > QUADRATURE_MAX_PANELS:
            break
        quarter = 0.5 * half[split]
        halves = np.concatenate((centre[split] - quarter, centre[split] + quarter))
        quarter = np.tile(quarter, 2)
        new_fine, new_error = panel_rule(halves, quarter)
        keep = ~split
        centre = np.concatenate((centre[keep], halves))
        half = np.concatenate((half[keep], quarter))
        fine = np.concatenate((fine[keep], new_fine))
        error = np.concatenate((error[keep], new_error))
        panels += halves.size
    evaluations = panels * (fine_x.size + coarse_x.size)
    return total, total_error, evaluations
