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
import sys
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
    ArrayGeometry,
    UserLocation,
    aperture,
    centered,
    checked_floor_ratio,
    normalized_spacing,
    offset_ratios,
    one_block,
    run_ratio_blocks,
)
from .numerics import compensated_sum, linear_to_db, np


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
#: Relative error estimate the quadrature model must reach: three decades
#: inside the 1e-6 at which ``verify`` and the tests compare the closed form.
QUADRATURE_REL_TOL = 1e-9
#: Panels the quadrature model's adaptive rule may evaluate in all before it
#: gives up.
QUADRATURE_MAX_PANELS = 4096

FLAG_EPSILON_NOT_SMALL = "epsilon_not_small"
FLAG_THETA_NEAR_ENDFIRE = "theta_near_endfire"
FLAG_FAR_FIELD_ASSUMED = "far_field_assumed"
_EPSILON_FLAGS = frozenset({FLAG_EPSILON_NOT_SMALL})


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
    validity_flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.value_linear == math.inf:
            raise OverflowError("SNR value overflows to inf")
        if math.isnan(self.value_linear):
            raise ModelBreakdownError(f"{self.model.value} model returned NaN")
        if not self.value_linear > 0:
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
    """Exact SNR: effective power times the sum of inverse squared element
    distances.

    One rule picks the route: an array of :func:`one_block` takes the
    distance kernel, and a larger one :func:`_progression_sum`, at any
    angle.  The kernel sums each module's terms by numpy's pairwise
    summation and the module partials by :func:`compensated_sum`, read from
    their buffer.  The terms are positive, so the relative error grows only
    as the logarithm of the module size (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 4), and the fixed module-major order keeps
    reruns bit-identical.  The progression route takes O(min(M, N))
    operations on the calling thread, with deterministic bits that differ
    from the kernel's in the last places; where its values would leave the
    float range, it leaves the sum to the kernel.  Both routes raise the
    kernel's ``OverflowError`` and then its :class:`DegenerateGeometryError`.
    """
    total = None if one_block(geom) else _progression_sum(geom, user)
    if total is None:
        partials = np.empty(geom.module_count)

        def module_sums(modules: slice, inverse: np.ndarray) -> None:
            np.reciprocal(inverse, out=inverse)
            np.add.reduce(inverse, axis=1, out=partials[modules])

        run_ratio_blocks(geom, user, module_sums)
        total = compensated_sum(memoryview(partials))
    scale = _scale(link.effective_power, user.range_m**2, "P/r^2")
    return SnrReport(SnrModel.EXACT_SUM, scale * total)


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


def _progression_sum(
    geom: ArrayGeometry, user: UserLocation
) -> float | None:
    """The sum of the kernel's inverse squared distance ratios, in
    O(min(M, N)) operations, or None where the values it needs in units of
    its steps leave the floating-point range.

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
    floor_ratio = checked_floor_ratio(geom, user)
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
    across = centered(rows)[:, None]

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
    offset_ratios(user, ue, floor_ratio)  # the kernel's floor test
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


def _endfire_fallback(geom, user, link, model: SnrModel, flags: frozenset) -> SnrReport:
    exact = snr_exact_sum(geom, user, link)
    flags = flags | {FLAG_THETA_NEAR_ENDFIRE}
    return SnrReport(model, exact.value_linear, frozenset(flags))


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
    flags = _continuum_flags(geom, user)
    if is_near_endfire(user):
        return _endfire_fallback(geom, user, link, SnrModel.CLOSED_FORM, flags)
    cos_t = math.cos(user.angle_rad)
    d = geom.element_spacing
    _, augmented = aperture(geom)
    extent_scale = 2.0 * user.range_m * cos_t
    outer = _scale(augmented, extent_scale, "closed form argument")
    # The bracket squares its arguments; where that overflows, it is NaN.
    if outer * outer == math.inf:
        raise OverflowError("closed form argument squared overflows")
    inner = (augmented - 2.0 * geom.elements_per_module * d) / extent_scale
    bracket = _continuum_bracket(outer, inner, abs(math.tan(user.angle_rad)))
    prefactor = _scale(
        link.effective_power,
        (geom.elements_per_module - 1) * d * d + geom.module_separation * d,
        "closed form prefactor",
    )
    return SnrReport(SnrModel.CLOSED_FORM, prefactor * bracket, flags)


def _continuum_flags(geom: ArrayGeometry, user: UserLocation) -> frozenset:
    """The continuum models' own flag: ``epsilon_not_small`` where the
    continuum step exceeds ``EPSILON_WARN_THRESHOLD``.  The step is the
    element spacing over the range and, beside the array segment, over
    ``r |cos(angle)|``, the user's distance from the array line; near
    endfire, where the closed form returns the exact sum, only the first."""
    eps = normalized_spacing(geom, user)
    if not is_near_endfire(user):
        eps /= abs(math.cos(user.angle_rad))
    return _EPSILON_FLAGS if eps > EPSILON_WARN_THRESHOLD else frozenset()


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
    flags = _continuum_flags(geom, user)
    if is_near_endfire(user):
        return _endfire_fallback(geom, user, link, SnrModel.COLLOCATED, flags)
    cos_t = math.cos(user.angle_rad)
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
    return SnrReport(SnrModel.COLLOCATED, prefactor * bracket, flags)


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
    return SnrReport(SnrModel.ASYMPTOTIC, value)


def snr_upw(geom: ArrayGeometry, user: UserLocation, link: LinkBudget) -> SnrReport:
    """Plane-wave SNR: element count times the single-element value.
    Independent of the module separation and the user direction."""
    flags = set()
    _, augmented = aperture(geom)
    if user.range_m < FAR_FIELD_MARGIN * augmented:
        flags.add(FLAG_FAR_FIELD_ASSUMED)
    scale = _scale(link.effective_power, user.range_m**2, "P/r^2")
    value = scale * geom.total_elements
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
    ``QUADRATURE_REL_TOL``.  It uses neither :func:`_continuum_bracket` nor
    :func:`aperture`, so it stays an independent oracle for the closed form.
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
    eps = normalized_spacing(geom, user)
    stride = geom.stride
    sin_t = math.sin(user.angle_rad)
    cos_t = math.cos(user.angle_rad)
    cos_sq = cos_t * cos_t
    a = 0.5 * geom.elements_per_module * eps
    b = stride * 0.5 * geom.module_count * eps

    # Checked before the quadrature, as the distance kernel checks its range:
    # where 2*(a + b) is finite, no panel's midpoint or width overflows.
    u_max = a + b
    if not 2.0 * u_max < math.inf:
        raise OverflowError(f"integration interval +-{u_max:.3g} overflows")

    # The integrand 1/((u - sin)^2 + cos^2) is the cancellation-safe
    # regrouping of 1/(1 - 2*u*sin + u^2).  It is singular exactly where the
    # user sits on the array segment: endfire direction with the range
    # inside the augmented half-span.
    if abs(sin_t) <= u_max and is_near_endfire(user):
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
    report = SnrReport(
        SnrModel.INTEGRAL, scale * (raw / stride), _continuum_flags(geom, user)
    )
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
