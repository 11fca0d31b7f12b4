"""Declarative parameter sweeps over the SNR models.

A sweep takes a base scenario, varies one quantity between two bounds, and
evaluates a chosen set of models at every point.  Points are pure functions
of the sweep definition and are evaluated in index order, so reruns give
bit-identical records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .channel import LinkBudget
from .errors import SweepPointError
from .geometry import ArrayGeometry, UserLocation
from .snr_models import (
    EVALUATORS,
    SnrModel,
    SnrReport,
    is_collocated,
    is_near_endfire,
)

#: ``tuple(SnrModel)``, the canonical output order.  Per-point loops iterate
#: it because iterating the Enum class runs a slower Python-level generator.
MODEL_ORDER: Tuple[SnrModel, ...] = tuple(SnrModel)


@dataclass(frozen=True)
class Scenario:
    "A complete evaluation context: array, user position, link budget."

    geometry: ArrayGeometry
    user: UserLocation
    link: LinkBudget


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
    ``element_spacing``, radians for ``theta``.
    """

    base: Scenario
    variable: SweepVariable
    start: float
    stop: float
    steps: int = 40
    scale: SweepScale = SweepScale.LINEAR
    models: frozenset = frozenset({SnrModel.EXACT_SUM, SnrModel.CLOSED_FORM})

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", frozenset(self.models))
        if not self.models:
            raise ValueError("models must be a nonempty set")
        for model in self.models:
            if not isinstance(model, SnrModel):
                raise ValueError(f"unknown model {model!r}")
        if not (isinstance(self.steps, int) and self.steps >= 2):
            raise ValueError(f"steps must be an integer >= 2, got {self.steps}")
        if not self.start < self.stop:
            raise ValueError(
                f"start must be below stop, got [{self.start}, {self.stop}]"
            )
        if self.scale is SweepScale.LOGARITHMIC and self.start <= 0:
            raise ValueError("logarithmic scale needs a positive start")
        # Every bound on a swept quantity is an interval and both scales are
        # monotonic, so the scenario constructors, run at the two endpoints,
        # reject a bad start or stop before any point is evaluated.
        for index in (0, self.steps - 1):
            apply_variable(self.base, self.variable, self.point_value(index))

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


@dataclass(frozen=True)
class SweepRecord:
    "Evaluated models at one sweep point."

    index: int
    variable_value: float
    scenario: Scenario
    reports: Dict[SnrModel, SnrReport] = field(default_factory=dict)

    @property
    def validity_flags(self) -> frozenset:
        flags: set = set()
        for report in self.reports.values():
            flags |= report.validity_flags
        return frozenset(flags)


def apply_variable(
    scenario: Scenario, variable: SweepVariable, value: float
) -> Scenario:
    "Return a copy of the scenario with one swept quantity replaced."
    if variable is SweepVariable.MODULE_COUNT:
        geom = replace(scenario.geometry, module_count=int(round(value)))
        return replace(scenario, geometry=geom)
    if variable is SweepVariable.SEPARATION:
        ratio = value / scenario.geometry.element_spacing
        geom = replace(scenario.geometry, separation_ratio=ratio)
        return replace(scenario, geometry=geom)
    if variable is SweepVariable.THETA:
        return replace(scenario, user=replace(scenario.user, angle_rad=value))
    if variable is SweepVariable.RANGE:
        return replace(scenario, user=replace(scenario.user, range_m=value))
    if variable is SweepVariable.ELEMENT_SPACING:
        geom = replace(scenario.geometry, element_spacing=value)
        return replace(scenario, geometry=geom)
    raise ValueError(f"unknown sweep variable {variable!r}")


def evaluate_models(
    scenario: Scenario, models: Iterable[SnrModel]
) -> Dict[SnrModel, SnrReport]:
    "Evaluate the requested models in canonical order."
    wanted = set(models)
    return {
        model: EVALUATORS[model](scenario.geometry, scenario.user, scenario.link)
        for model in MODEL_ORDER
        if model in wanted
    }


def applicable_models(
    scenario: Scenario, swept: Optional[SweepVariable] = None
) -> Tuple[SnrModel, ...]:
    """The models valid at ``scenario`` and at every point of a sweep over
    ``swept``, in canonical order: the collocated model only at unit
    separation ratio, and the infinite-array limit away from endfire."""
    excluded = set()
    if not is_collocated(scenario.geometry) or swept is SweepVariable.SEPARATION:
        excluded.add(SnrModel.COLLOCATED)
    if is_near_endfire(scenario.user) or swept is SweepVariable.THETA:
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
    """Reference configuration used across the experiment scripts: a 16-element
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
