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
from dataclasses import dataclass
from enum import Enum

from .channel import LinkBudget
from .errors import (
    DegenerateGeometryError,
    ModelBreakdownError,
    ModelMismatchError,
    QuadratureAccuracyError,
    UnboundedLimitError,
)
from .geometry import (
    ArrayGeometry,
    UserLocation,
    inverse_ratio_sum,
    normalized_spacing,
)
from .numerics import linear_to_db, np


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

    __hash__ = object.__hash__  # identity, as == is; Enum's runs hash(name) in Python

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
#: Largest relative error from the exact sum of an unflagged continuum value.
CONTINUUM_TOLERANCE = 1e-2
#: Relative gap within which the closed form and the quadrature model agree.
QUADRATURE_AGREEMENT = 1e-6
#: Error estimate the quadrature must reach: 1e-3 of ``QUADRATURE_AGREEMENT``.
QUADRATURE_REL_TOL = 1e-9
#: Panels the quadrature model's adaptive rule may evaluate in all before it
#: gives up.
QUADRATURE_MAX_PANELS = 4096

FLAG_EPSILON_NOT_SMALL = "epsilon_not_small"
FLAG_THETA_NEAR_ENDFIRE = "theta_near_endfire"
FLAG_FAR_FIELD_ASSUMED = "far_field_assumed"
_NO_FLAGS = frozenset()
_EPSILON_FLAGS = frozenset({FLAG_EPSILON_NOT_SMALL})
_FAR_FIELD_FLAGS = frozenset({FLAG_FAR_FIELD_ASSUMED})

# The members that the model functions report, bound once: on CPython 3.11
# reading a member as a class attribute costs about ten times a global's read.
_EXACT_SUM = SnrModel.EXACT_SUM
_CLOSED_FORM = SnrModel.CLOSED_FORM
_COLLOCATED = SnrModel.COLLOCATED
_ASYMPTOTIC = SnrModel.ASYMPTOTIC
_UPW = SnrModel.UPW
_INTEGRAL = SnrModel.INTEGRAL


@dataclass(frozen=True)
class SnrReport:
    """One SNR value with its model tag and any validity warnings.

    The one judge of a model's value, which must be positive and finite: an
    infinite value raises ``OverflowError``, NaN raises
    :class:`ModelBreakdownError`, and 0 or less, where the SNR underflowed,
    raises ``ValueError``.  No model returns 0, inf or NaN.
    """

    model: SnrModel
    value_linear: float
    validity_flags: frozenset = _NO_FLAGS

    def __post_init__(self) -> None:
        # One test on the good path; NaN and -0.0 fail it too.
        if not 0.0 < self.value_linear < math.inf:
            self._reject()

    def _reject(self) -> None:
        "Raises the error for a value that is not positive and finite."
        if self.value_linear == math.inf:
            raise OverflowError("SNR value overflows to inf")
        if math.isnan(self.value_linear):
            raise ModelBreakdownError(f"{self.model.value} model returned NaN")
        raise ValueError(
            f"{self.model.value} SNR is {self.value_linear}, "
            "outside the floating-point range"
        )

    @property
    def value_db(self) -> float:
        return linear_to_db(self.value_linear)


def snr_exact_sum(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> SnrReport:
    """Exact SNR: P/r^2 times :func:`inverse_ratio_sum`.  Raises its errors,
    and then ``OverflowError`` where P/r^2 overflows (see :func:`_scale`)."""
    total = inverse_ratio_sum(geom, user)
    scale = _scale(link.effective_power, user.range_m**2, "P/r^2")
    return SnrReport(_EXACT_SUM, scale * total)


def _scale(numerator: float, denominator: float, what: str) -> float:
    """``numerator / denominator``, a checked scale of a model's value.  Raises
    ``OverflowError`` where the quotient overflows, where the denominator
    underflowed to 0, and where both operands overflowed (the quotient is
    NaN).  Every model's scale passes through here, so none multiplies an
    infinite scale by a factor that underflowed to 0."""
    quotient = numerator / denominator if denominator else math.inf
    if not quotient < math.inf:
        raise OverflowError(f"{what} overflows")
    return quotient


def _endfire_fallback(geom, user, link, model: SnrModel) -> SnrReport:
    "The exact sum for a closed form, flagged, with the continuum step d/r alone."
    exact = snr_exact_sum(geom, user, link)
    flags = _continuum_flags(geom, user, 1.0) | {FLAG_THETA_NEAR_ENDFIRE}
    return SnrReport(model, exact.value_linear, flags)


def snr_closed_form(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> SnrReport:
    """Closed-form SNR from the continuum limit of the exact sum.

    Accurate when the element spacing is small against the user range and
    against ``r cos(angle)``, the user's distance from the array line; a
    validity flag is raised otherwise (see :func:`_continuum_flags`).  Near
    endfire the expression degenerates and the exact sum is returned
    instead, flagged.  Raises ``OverflowError`` where the bracket's terms
    overflow, at ranges below about 1e-76 m, and where the prefactor
    P/((M-1)d^2 + D d) overflows, as at spacings below about 1e-153 m in the
    default scenario (see :func:`_scale`).  Only underflow makes the bracket
    (see :func:`_continuum_bracket`) non-positive, as at a range of 1e200 m
    off broadside, and :class:`SnrReport` rejects the value then.
    """
    if is_near_endfire(user):
        return _endfire_fallback(geom, user, link, _CLOSED_FORM)
    cos_t = math.cos(user.angle_rad)
    flags = _continuum_flags(geom, user, cos_t)
    d = geom.element_spacing
    extent_scale = 2.0 * user.range_m * cos_t
    outer = _scale(geom.augmented_span, extent_scale, "closed form argument")
    # The bracket squares its arguments; where that overflows, it is NaN.
    if outer * outer == math.inf:
        raise OverflowError("closed form argument squared overflows")
    inner = (geom.augmented_span - 2.0 * geom.elements_per_module * d) / extent_scale
    bracket = _continuum_bracket(outer, inner, abs(math.tan(user.angle_rad)))
    prefactor = _scale(
        link.effective_power,
        (geom.elements_per_module - 1) * d * d + geom.module_separation * d,
        "closed form prefactor",
    )
    return SnrReport(_CLOSED_FORM, prefactor * bracket, flags)


def _continuum_flags(geom, user, cos_t: float) -> frozenset:
    """The continuum models' own flag: ``epsilon_not_small`` where the
    continuum step d/(r |cos_t|) exceeds ``EPSILON_WARN_THRESHOLD``.  With
    cos_t = cos(angle), r |cos_t| is the user's distance from the array
    line; the endfire fallback passes 1, for the spacing over the range."""
    eps = normalized_spacing(geom, user) / abs(cos_t)
    return _EPSILON_FLAGS if eps > EPSILON_WARN_THRESHOLD else _NO_FLAGS


def _continuum_bracket(o: float, i: float, t: float) -> float:
    """h(o - t) + h(o + t) - h(i - t) - h(i + t) for o > i >= 0, t >= 0 and
    h(x) = x*atan(x) - ln(1 + x^2)/2, regrouped term by term so that the
    four nearly equal h values of the far field are never subtracted.

    With delta = o - i, sigma = o + i, q+- = 1 + (o +- t)(i +- t) and
    D+- = atan2(delta, q+-) it is delta*atan2(2o, 1 + t^2 - o^2)
    + i*(D+ + D-) + t*(D+ - D-) - ln(P(o)/P(i))/2, where
    P(x) = (1 + x^2 + t^2)^2 - 4x^2t^2.  Every term is O(delta*sigma), and
    they cancel by only a factor of about 2 (Higham, *Accuracy and Stability
    of Numerical Algorithms*, sections 1.7-1.8).
    """
    delta, sigma = o - i, o + i
    q_plus, q_minus = 1.0 + (o + t) * (i + t), 1.0 + (o - t) * (i - t)
    return (
        delta * math.atan2(2.0 * o, 1.0 + t * t - o * o)
        + i * (math.atan2(delta, q_plus) + math.atan2(delta, q_minus))
        - t * math.atan2(2.0 * t * sigma * delta, q_plus * q_minus + delta * delta)
        - 0.5 * math.log1p(
            delta * sigma * (2.0 - 2.0 * t * t + o * o + i * i)
            / ((1.0 + i * i + t * t) ** 2 - 4.0 * i * i * t * t)
        )
    )


def is_collocated(geom: ArrayGeometry) -> bool:
    "Whether the modules abut (separation ratio 1), the collocated model's domain."
    return abs(geom.separation_ratio - 1.0) <= 1e-12


def is_near_endfire(user: UserLocation) -> bool:
    "Whether the user lies along the array axis, where the closed forms degenerate."
    return abs(math.cos(user.angle_rad)) < ENDFIRE_COS_FLOOR


def _half_widths(geom: ArrayGeometry, user: UserLocation) -> tuple:
    "eps = d/r and the half-widths a, b of the continuum integral's rectangle."
    eps = normalized_spacing(geom, user)
    a = 0.5 * geom.elements_per_module * eps
    return eps, a, geom.stride * 0.5 * geom.module_count * eps


def is_on_segment(geom: ArrayGeometry, user: UserLocation) -> bool:
    "Whether the user lies on the array segment: endfire, inside the half-span."
    _, a, b = _half_widths(geom, user)
    return abs(math.sin(user.angle_rad)) <= a + b and is_near_endfire(user)


def models_outside_domain(geom: ArrayGeometry, user: UserLocation) -> frozenset:
    """The models that raise a domain error here: collocated off unit ratio,
    asymptotic near endfire, and integral on the array segment."""
    outside = {
        SnrModel.COLLOCATED: not is_collocated(geom),
        SnrModel.ASYMPTOTIC: is_near_endfire(user),
        SnrModel.INTEGRAL: is_on_segment(geom, user),
    }
    return frozenset(model for model, out in outside.items() if out)


def snr_collocated(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> SnrReport:
    """Closed-form SNR for the collocated special case (separation ratio 1),
    which depends on the geometry only through the total element count.
    Flagged as the closed form is (see :func:`_continuum_flags`), and near
    endfire the exact sum is returned instead, flagged.  Raises
    ``OverflowError`` where the prefactor P/(r d cos(angle)) overflows, as it
    does where r d cos(angle) underflows to 0 (see :func:`_scale`)."""
    if not is_collocated(geom):
        raise ModelMismatchError(
            "collocated model requires separation_ratio == 1, got "
            f"{geom.separation_ratio}"
        )
    if is_near_endfire(user):
        return _endfire_fallback(geom, user, link, _COLLOCATED)
    cos_t = math.cos(user.angle_rad)
    flags = _continuum_flags(geom, user, cos_t)
    tan_t = math.tan(user.angle_rad)
    d = geom.element_spacing
    prefactor = _scale(link.effective_power, user.range_m * d * cos_t, "P/(r d cos)")
    extent_scale = 2.0 * user.range_m * cos_t
    half_extent = geom.total_elements * d / extent_scale if extent_scale else math.inf
    # atan(a - t) + atan(a + t) as one angle: the two terms cancel as a -> 0.
    # Where 2a overflows the sum is pi, not atan2(inf, -inf) = 3pi/4.
    extent = 2.0 * half_extent
    if extent == math.inf:
        bracket = math.pi
    else:
        bracket = math.atan2(extent, 1.0 + tan_t * tan_t - half_extent * half_extent)
    return SnrReport(_COLLOCATED, prefactor * bracket, flags)


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
    value = _scale(
        math.pi * geom.elements_per_module * link.effective_power,
        pitch * user.range_m * cos_t,
        "infinite-array limit",
    )
    return SnrReport(_ASYMPTOTIC, value)


def snr_upw(geom: ArrayGeometry, user: UserLocation, link: LinkBudget) -> SnrReport:
    """Plane-wave SNR: element count times the single-element value.
    Independent of the module separation and the user direction."""
    near = user.range_m < FAR_FIELD_MARGIN * geom.augmented_span
    scale = _scale(link.effective_power, user.range_m**2, "P/r^2")
    value = scale * geom.total_elements
    return SnrReport(_UPW, value, _FAR_FIELD_FLAGS if near else _NO_FLAGS)


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
    ``QUADRATURE_REL_TOL``.  It uses neither :func:`_continuum_bracket` nor
    the augmented span, so it stays an independent oracle for the closed form.
    Raises :class:`QuadratureAccuracyError`, carrying the current estimate,
    when ``QUADRATURE_MAX_PANELS`` panels do not reach that, as when the
    user is so close to the tip of the array segment that rounding alone
    exceeds the tolerance.  Raises ``OverflowError`` before the quadrature
    where twice the half-width a + b of the interval overflows, as at a
    separation ratio near 1e308, or where the scale (P/r^2)/eps^2 overflows
    (see :func:`_scale`), as at ranges or spacings so small that r^2 or
    eps^2 underflows to 0; where the integrand overflows at every node, the
    integral is 0 and :class:`SnrReport` rejects it.
    """
    eps, a, b = _half_widths(geom, user)
    sin_t = math.sin(user.angle_rad)
    cos_t = math.cos(user.angle_rad)
    cos_sq = cos_t * cos_t

    # Checked before the quadrature, as the distance kernel checks its range:
    # where 2*(a + b) is finite, no panel's midpoint or width overflows.
    u_max = a + b
    if not 2.0 * u_max < math.inf:
        raise OverflowError(f"integration interval +-{u_max:.3g} overflows")

    # The integrand 1/((u - sin)^2 + cos^2) is the cancellation-safe
    # regrouping of 1/(1 - 2*u*sin + u^2), singular exactly on the segment.
    if is_on_segment(geom, user):
        raise DegenerateGeometryError(
            "integrand singular: user lies on the array segment"
        )

    # Checked before the quadrature: no integral rescues a scale that overflows.
    per_area = _scale(link.effective_power, user.range_m**2, "P/r^2")
    scale = _scale(per_area, eps**2, "P/(r eps)^2")

    # The weight w is linear on each of the three panels split at
    # +-|a - b|: sloped on the two ends, flat between them.
    knee, width = abs(a - b), 2.0 * min(a, b)

    def integrand(u: np.ndarray) -> tuple:
        off = u - sin_t
        # At tiny ranges off**2 overflows to inf, where the value is truly
        # 0: the one floating-point warning that the package silences.
        with np.errstate(over="ignore"):
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
    # Judged before the accuracy test, so that raw is positive there.
    flags = _continuum_flags(geom, user, cos_t)
    report = SnrReport(_INTEGRAL, scale * (raw / geom.stride), flags)
    if not abserr <= QUADRATURE_REL_TOL * raw:
        raise QuadratureAccuracyError(
            f"quadrature stopped at relative error estimate {abserr / raw:.2e} "
            f"after {evaluations} integrand evaluations; needs "
            f"{QUADRATURE_REL_TOL:.0e}",
            estimate=report.value_linear,
        )
    return report


#: Each model's function, in a module-level dict so that a tracer can swap it.
EVALUATORS = {
    SnrModel.EXACT_SUM: snr_exact_sum,
    SnrModel.CLOSED_FORM: snr_closed_form,
    SnrModel.COLLOCATED: snr_collocated,
    SnrModel.ASYMPTOTIC: snr_asymptotic,
    SnrModel.UPW: snr_upw,
    SnrModel.INTEGRAL: snr_double_integral,
}


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
