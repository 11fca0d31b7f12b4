"""Analytic SNR models for the modular linear array under maximal-ratio
combining.

Six routes to the same quantity, each with its own domain of validity:

* exact per-element sum (always valid, the reference for everything else),
* closed form from the continuum limit of the sum,
* collocated-array reduction (unit separation ratio),
* infinite-array limit in the module count,
* plane-wave far-field value,
* adaptive double quadrature of the continuum integral, kept as an
  independent numerical cross-check of the closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
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
    """Adaptive quadrature of the continuum integral behind the closed form.

    Nested 1-D adaptive rules (outer over the module axis, inner over the
    element axis), each run a decade tighter than the requested composite
    tolerance.  Serves as an independent oracle for the closed form.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
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

    def integrand(x: float, y: float) -> float:
        off = x + stride * y - sin_t
        return 1.0 / (off * off + cos_sq)

    # Imported here: scipy.integrate is most of the package's import time,
    # and no other model needs it.
    from scipy.integrate import IntegrationWarning, dblquad

    level_tol = 0.1 * rel_tol
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        raw, abserr = dblquad(
            integrand, -n_half, n_half, -m_half, m_half,
            epsabs=0.0, epsrel=level_tol,
        )
    value = link.effective_power / user.range_m**2 / eps**2 * raw
    trouble = [w for w in caught if issubclass(w.category, IntegrationWarning)]
    if trouble or (raw != 0.0 and abserr > rel_tol * abs(raw)):
        achieved = abserr / abs(raw) if raw != 0.0 else math.inf
        raise QuadratureAccuracyError(
            f"quadrature reached relative error {achieved:.2e}, "
            f"requested {rel_tol:.0e}",
            estimate=value,
        )
    return SnrReport(SnrModel.INTEGRAL, value)
