"""Declarative parameter sweeps over the SNR models.

A sweep takes a base scenario, varies one quantity between two bounds, and
evaluates a chosen set of models at every point.  Points are pure functions
of the sweep definition and are evaluated in index order, so reruns give
bit-identical records.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .channel import LinkBudget
from .errors import SweepPointError
from .geometry import ArrayGeometry, UserLocation
from .snr_models import EVALUATORS, SnrModel, SnrReport, models_outside_domain

#: ``tuple(SnrModel)``, the canonical output order.  Loops iterate it
#: because iterating the Enum class runs a slower Python-level generator.
MODEL_ORDER: Tuple[SnrModel, ...] = tuple(SnrModel)


@dataclass(frozen=True, init=False)
class Scenario:
    """A complete evaluation context: array, user position, link budget.
    A sweep point builds one, so the constructor is written out, as
    :class:`~modxl.snr_models.SnrReport`'s is."""

    geometry: ArrayGeometry
    user: UserLocation
    link: LinkBudget

    def __init__(
        self, geometry: ArrayGeometry, user: UserLocation, link: LinkBudget
    ) -> None:
        fields = self.__dict__
        fields["geometry"] = geometry
        fields["user"] = user
        fields["link"] = link


class SweepVariable(Enum):
    MODULE_COUNT = "module_count"
    SEPARATION = "separation"
    THETA = "theta"
    RANGE = "range"
    ELEMENT_SPACING = "element_spacing"


class SweepScale(Enum):
    LINEAR = "linear"
    LOGARITHMIC = "log"


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over a base scenario.

    ``start``/``stop`` are in the variable's native unit: counts for
    ``module_count``, meters for ``separation``, ``range`` and
    ``element_spacing``, radians for ``theta``.  The constructor sets
    ``ends``, the scenarios at the first and the last point, outside
    equality, hashing and the repr.
    """

    base: Scenario
    variable: SweepVariable
    start: float
    stop: float
    steps: int = 40
    scale: SweepScale = SweepScale.LINEAR
    models: frozenset = frozenset({SnrModel.EXACT_SUM, SnrModel.CLOSED_FORM})
    ends: Tuple[Scenario, Scenario] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", frozenset(self.models))
        if not self.models:
            raise ValueError("models must be a nonempty set")
        for model in self.models:
            if not isinstance(model, SnrModel):
                raise ValueError(f"unknown model {model!r}")
        if not (isinstance(self.steps, Integral) and self.steps >= 2):
            raise ValueError(f"steps must be an integer >= 2, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))  # points stay Python floats
        if not self.start < self.stop:
            raise ValueError(
                f"start must be below stop, got [{self.start}, {self.stop}]"
            )
        if self.scale is SweepScale.LOGARITHMIC and self.start <= 0:
            raise ValueError("logarithmic scale needs a positive start")
        # Every bound on a swept quantity is an interval and both scales are
        # monotonic, so the scenario constructors, run at the two endpoints,
        # reject a bad start or stop before any point is evaluated.
        object.__setattr__(self, "ends", tuple(
            apply_variable(self.base, self.variable, self.point_value(index))
            for index in (0, self.steps - 1)
        ))

    def point_value(self, index: int) -> float:
        "Variable value at a 0-based point index; endpoints are exact."
        if not 0 <= index < self.steps:
            raise IndexError(f"point index {index} outside 0..{self.steps - 1}")
        if index == 0:
            raw = self.start
        elif index == self.steps - 1:
            raw = self.stop
        elif self.scale is SweepScale.LINEAR:
            raw = self.start + index * (self.stop - self.start) / (self.steps - 1)
        else:
            raw = self.start * (self.stop / self.start) ** (index / (self.steps - 1))
        if self.variable is SweepVariable.MODULE_COUNT:
            return float(round(raw))
        return raw


@dataclass(frozen=True, init=False)
class SweepRecord:
    """Evaluated models at one sweep point; ``reports`` is a fresh dict where
    it is not given.  The constructor is written out, as
    :class:`~modxl.snr_models.SnrReport`'s is."""

    index: int
    variable_value: float
    scenario: Scenario
    reports: Dict[SnrModel, SnrReport] = field(default_factory=dict)

    def __init__(
        self,
        index: int,
        variable_value: float,
        scenario: Scenario,
        reports: Optional[Dict[SnrModel, SnrReport]] = None,
    ) -> None:
        fields = self.__dict__
        fields["index"] = index
        fields["variable_value"] = variable_value
        fields["scenario"] = scenario
        fields["reports"] = {} if reports is None else reports

    @property
    def validity_flags(self) -> frozenset:
        return flag_union(self.reports)


def flag_union(reports: Dict[SnrModel, SnrReport]) -> frozenset:
    "The union of the validity flags of ``reports``."
    return frozenset().union(*(report.validity_flags for report in reports.values()))


def apply_variable(
    scenario: Scenario, variable: SweepVariable, value: float
) -> Scenario:
    """Return a copy of the scenario with one swept quantity replaced.  The
    constructors run their checks; ``dataclasses.replace`` cost a range
    point about 2 us more, on CPython 3.11."""
    geom, user, link = scenario.geometry, scenario.user, scenario.link
    if variable is SweepVariable.THETA:
        return Scenario(geom, UserLocation(user.range_m, value), link)
    if variable is SweepVariable.RANGE:
        return Scenario(geom, UserLocation(value, user.angle_rad), link)
    m, n = geom.elements_per_module, geom.module_count
    spacing, ratio = geom.element_spacing, geom.separation_ratio
    if variable is SweepVariable.MODULE_COUNT:
        geom = ArrayGeometry(m, int(round(value)), spacing, ratio)
    elif variable is SweepVariable.SEPARATION:
        geom = ArrayGeometry(m, n, spacing, value / spacing)
    elif variable is SweepVariable.ELEMENT_SPACING:
        geom = ArrayGeometry(m, n, value, ratio)
    else:
        raise ValueError(f"unknown sweep variable {variable!r}")
    return Scenario(geom, user, link)


def evaluate_models(
    scenario: Scenario, models: Iterable[SnrModel]
) -> Dict[SnrModel, SnrReport]:
    """Evaluate the requested models in canonical order: the one dispatch of
    ``eval`` and of every sweep point.  A frozenset, such as a sweep's, is
    used as it is; other iterables are copied into one.  Each evaluator is
    read from ``EVALUATORS`` at the call, so that a swapped one, such as a
    tracer's, is called.  The order is looked up (:func:`_in_order`) and the
    dict filled in a loop: the test of all six members and a dict
    comprehension cost four models about 0.2 us more (CPython 3.11)."""
    if type(models) is not frozenset:
        models = frozenset(models)
    geom, user, link = scenario.geometry, scenario.user, scenario.link
    reports = {}
    for model in _in_order(models):
        reports[model] = EVALUATORS[model](geom, user, link)
    return reports


@functools.lru_cache(maxsize=64)
def _in_order(models: frozenset) -> Tuple[SnrModel, ...]:
    "The models of ``models`` in ``MODEL_ORDER``, worked out once for each set."
    return tuple(model for model in MODEL_ORDER if model in models)


def applicable_models(
    scenario: Scenario, swept: Optional[SweepVariable] = None
) -> Tuple[SnrModel, ...]:
    """The models valid at ``scenario``, in canonical order: all but those of
    ``models_outside_domain``, less ``collocated`` on a sweep over the
    separation and ``asymptotic`` on one over the angle."""
    excluded = set(models_outside_domain(scenario.geometry, scenario.user))
    if swept is SweepVariable.SEPARATION:
        excluded.add(SnrModel.COLLOCATED)
    if swept is SweepVariable.THETA:
        excluded.add(SnrModel.ASYMPTOTIC)
    return tuple(model for model in MODEL_ORDER if model not in excluded)


def _evaluate_point(spec: SweepSpec, index: int) -> SweepRecord:
    value = spec.point_value(index)
    scenario = apply_variable(spec.base, spec.variable, value)
    reports = evaluate_models(scenario, spec.models)
    return SweepRecord(index, value, scenario, reports)


def run_sweep(spec: SweepSpec) -> List[SweepRecord]:
    """Evaluate every sweep point and return records in index order.

    Any point failing with a hard error aborts the sweep; the raised
    error names the failing index.
    """
    records = []
    for i in range(spec.steps):
        try:
            records.append(_evaluate_point(spec, i))
        except Exception as exc:
            raise SweepPointError(i, exc) from exc
    return records


def default_scenario() -> Scenario:
    """Reference configuration of the CLI and the presets: a 16-element
    module repeated 20 times at separation ratio 20, half-wavelength spacing
    at a wavelength of 0.1256 m, broadside user at 35 m, 50 dB transmit SNR."""
    wavelength = 0.1256
    geom = ArrayGeometry(
        elements_per_module=16,
        module_count=20,
        element_spacing=wavelength / 2.0,
        separation_ratio=20.0,
    )
    user = UserLocation(range_m=35.0, angle_rad=0.0)
    link = LinkBudget(wavelength_m=wavelength, reference_gain=1.0, transmit_snr=1e5)
    return Scenario(geom, user, link)


_PRESET_MODELS = frozenset({SnrModel.EXACT_SUM, SnrModel.CLOSED_FORM, SnrModel.UPW})


def _element_count_sweep(base: Scenario) -> SweepSpec:
    return SweepSpec(
        base, SweepVariable.MODULE_COUNT, 1.0, 625.0, steps=40, models=_PRESET_MODELS
    )


def _separation_sweep(base: Scenario) -> SweepSpec:
    d = base.geometry.element_spacing
    return SweepSpec(
        base, SweepVariable.SEPARATION, d, 40.0 * d, steps=50, models=_PRESET_MODELS
    )


#: Named sweeps over a base scenario, comparing the exact sum, the closed form
#: and the plane-wave value: the module count from 1 to 625, or the module
#: separation from one element spacing up to 40 spacings.
PRESETS: Dict[str, Callable[[Scenario], SweepSpec]] = {
    "element-count": _element_count_sweep,
    "separation": _separation_sweep,
}
