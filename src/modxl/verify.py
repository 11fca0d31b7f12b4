"""Built-in verification suite.

Each check exercises one documented property of the toolkit (model
cross-agreement, limits, optimality, determinism) at desk scale and reports
its tolerance alongside the observed error.  The suite accepts an injectable
base scenario so tests can confirm that a corrupted geometry is actually
caught by the cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Tuple

from .beamforming import (
    BeamformingWeights,
    UplinkSimulation,
    complex_gaussian,
    mrc_weights,
    simulate_uplink,
    snr,
)
from .channel import LinkBudget, array_response_nusw
from .geometry import ArrayGeometry, UserLocation, aperture
from .numerics import np
from .snr_models import (
    CONTINUUM_TOLERANCE,
    FLAG_THETA_NEAR_ENDFIRE,
    QUADRATURE_AGREEMENT,
    SnrModel,
    snr_asymptotic,
    snr_closed_form,
    snr_collocated,
    snr_double_integral,
    snr_exact_sum,
    snr_upw,
)
from .sweep import (
    PRESETS,
    Scenario,
    SweepScale,
    SweepSpec,
    SweepVariable,
    default_scenario,
    run_sweep,
)


@dataclass(frozen=True)
class CheckResult:
    "Outcome of one named verification check."

    name: str
    passed: bool
    tolerance: float
    observed: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"{status}  {self.name}: tolerance {self.tolerance:.3e}, "
            f"observed {self.observed:.3e}"
        )
        if self.detail:
            text += f"  ({self.detail})"
        return text


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_response_norm_identity(base: Scenario) -> Tuple[float, float, str]:
    "Exact sum equals transmit SNR times the squared response norm."
    cases = [
        base,
        replace(base, user=replace(base.user, angle_rad=math.radians(30.0))),
        replace(
            base,
            user=replace(base.user, range_m=100.0, angle_rad=math.radians(75.0)),
        ),
        Scenario(
            ArrayGeometry(5, 3, base.geometry.element_spacing, 2.5),
            UserLocation(10.0, math.radians(-40.0)),
            base.link,
        ),
    ]
    worst = 0.0
    for sc in cases:
        resp = array_response_nusw(sc.geometry, sc.user, sc.link)
        via_weights = snr(mrc_weights(resp), resp, sc.link)
        exact = snr_exact_sum(sc.geometry, sc.user, sc.link).value_linear
        worst = max(worst, _rel_diff(via_weights, exact))
    return 1e-12, worst, f"{len(cases)} scenarios"


def _check_closed_form_grid(base: Scenario) -> Tuple[float, float, str]:
    "Closed form within 1% of the exact sum over a count/angle/range grid."
    worst = 0.0
    points = 0
    for n in (1, 5, 20, 100, 200):
        for theta_deg in (0.0, 30.0, 60.0, 75.0):
            for range_m in (35.0, 100.0):
                geom = replace(base.geometry, module_count=n)
                user = UserLocation(range_m, math.radians(theta_deg))
                exact = snr_exact_sum(geom, user, base.link).value_linear
                closed = snr_closed_form(geom, user, base.link).value_linear
                worst = max(worst, _rel_diff(closed, exact))
                points += 1
    return CONTINUUM_TOLERANCE, worst, f"{points} grid points"


def _check_collocated_reduction(base: Scenario) -> Tuple[float, float, str]:
    "Collocated special case within 1% of the exact sum at unit separation."
    worst = 0.0
    for n in (1, 10, 100, 625):
        geom = replace(base.geometry, module_count=n, separation_ratio=1.0)
        exact = snr_exact_sum(geom, base.user, base.link).value_linear
        col = snr_collocated(geom, base.user, base.link).value_linear
        worst = max(worst, _rel_diff(col, exact))
    return CONTINUUM_TOLERANCE, worst, "module counts 1..625"


def _check_asymptotic_convergence(base: Scenario) -> Tuple[float, float, str]:
    "Exact sum approaches the infinite-array limit monotonically from N=100."
    limit = snr_asymptotic(base.geometry, base.user, base.link).value_linear
    errors = []
    for n in (100, 1000, 10000, 100000):
        geom = replace(base.geometry, module_count=n)
        exact = snr_exact_sum(geom, base.user, base.link).value_linear
        errors.append(_rel_diff(exact, limit))
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    if not decreasing:
        return 5e-3, math.inf, "error sequence not decreasing"
    return 5e-3, errors[-1], "final error at 100000 modules"


def _check_far_field_consistency(base: Scenario) -> Tuple[float, float, str]:
    "At 10 augmented spans the closed form matches the plane-wave value."
    _, augmented = aperture(base.geometry)
    user = replace(base.user, range_m=10.0 * augmented, angle_rad=0.0)
    closed = snr_closed_form(base.geometry, user, base.link).value_linear
    plane = snr_upw(base.geometry, user, base.link).value_linear
    return 1e-2, _rel_diff(closed, plane), f"range {user.range_m:.1f} m"


def _check_plane_wave_sign(base: Scenario) -> Tuple[float, float, str]:
    "Plane-wave value over-estimates at broadside, under-estimates at 75 deg."
    d = base.geometry.element_spacing
    worst = 0.0
    for separation in np.linspace(d, 40.0 * d, 10):
        geom = replace(base.geometry, separation_ratio=separation / d)
        for theta_deg, upw_above in ((0.0, True), (75.0, False)):
            user = replace(base.user, angle_rad=math.radians(theta_deg))
            exact = snr_exact_sum(geom, user, base.link).value_linear
            plane = snr_upw(geom, user, base.link).value_linear
            margin = (plane - exact) if upw_above else (exact - plane)
            worst = max(worst, -margin / exact)
    return 0.0, worst, "10 separations, both angles"


def _check_asymptotic_gap(base: Scenario) -> Tuple[float, float, str]:
    "Collocated-over-modular limit ratio equals stride over module size."
    modular = snr_asymptotic(base.geometry, base.user, base.link).value_linear
    collocated_geom = replace(base.geometry, separation_ratio=1.0)
    collocated = snr_asymptotic(collocated_geom, base.user, base.link).value_linear
    gap_db = 10.0 * math.log10(collocated / modular)
    expected_db = 10.0 * math.log10(
        base.geometry.stride / base.geometry.elements_per_module
    )
    return 1e-9, abs(gap_db - expected_db), f"expected {expected_db:.3f} dB"


def _check_closed_vs_quadrature(base: Scenario) -> Tuple[float, float, str]:
    "Closed form agrees with adaptive quadrature of its defining integral."
    worst = 0.0
    for theta_deg in (0.0, 30.0):
        user = replace(base.user, angle_rad=math.radians(theta_deg))
        closed = snr_closed_form(base.geometry, user, base.link).value_linear
        quad = snr_double_integral(base.geometry, user, base.link).value_linear
        worst = max(worst, _rel_diff(closed, quad))
    return QUADRATURE_AGREEMENT, worst, "broadside and 30 deg"


def _random_unit_weights(rng: np.random.Generator, size: int) -> BeamformingWeights:
    return mrc_weights(complex_gaussian(rng, (size,), 1.0))


def _check_mrc_optimality(base: Scenario) -> Tuple[float, float, str]:
    "No random unit beamformer beats maximal-ratio combining."
    rng = np.random.Generator(np.random.PCG64(20240817))
    worst = -math.inf
    trials = 0
    for _ in range(5):
        geom = ArrayGeometry(
            elements_per_module=int(rng.integers(1, 9)),
            module_count=int(rng.integers(1, 7)),
            element_spacing=base.geometry.element_spacing,
            separation_ratio=1.0 + 24.0 * rng.random(),
        )
        user = UserLocation(
            range_m=20.0 + 80.0 * rng.random(),
            angle_rad=math.radians(150.0 * rng.random() - 75.0),
        )
        resp = array_response_nusw(geom, user, base.link)
        best = snr(mrc_weights(resp), resp, base.link)
        for _ in range(200):
            other = snr(_random_unit_weights(rng, len(resp)), resp, base.link)
            worst = max(worst, other - best)
            trials += 1
    return 1e-9, worst, f"{trials} random beamformers"


def _check_mrc_phase_invariance(base: Scenario) -> Tuple[float, float, str]:
    "A global phase on the MRC weights leaves the SNR unchanged."
    resp = array_response_nusw(base.geometry, base.user, base.link)
    weights = mrc_weights(resp)
    best = snr(weights, resp, base.link)
    worst = 0.0
    for phase_deg in (30.0, 123.0, 251.0):
        rotated = BeamformingWeights(
            weights.weights * np.exp(1j * math.radians(phase_deg))
        )
        worst = max(worst, _rel_diff(snr(rotated, resp, base.link), best))
    return 1e-12, worst, "three global phases"


def _check_upw_sweep_linearity(base: Scenario) -> Tuple[float, float, str]:
    "Plane-wave SNR sweeps exactly linearly with the element count."
    spec = SweepSpec(
        base=base,
        variable=SweepVariable.MODULE_COUNT,
        start=1.0,
        stop=10.0,
        steps=10,
        scale=SweepScale.LINEAR,
        models=frozenset({SnrModel.UPW}),
    )
    worst = 0.0
    for record in run_sweep(spec):
        count = record.scenario.geometry.total_elements
        predicted = base.link.effective_power / base.user.range_m**2 * count
        worst = max(
            worst, _rel_diff(record.reports[SnrModel.UPW].value_linear, predicted)
        )
    return 1e-15, worst, "module counts 1..10"


def _check_separation_monotonic(base: Scenario) -> Tuple[float, float, str]:
    "Exact broadside SNR never increases as the modules spread apart."
    spec = PRESETS["separation"](replace(base, user=replace(base.user, angle_rad=0.0)))
    values = [
        r.reports[SnrModel.EXACT_SUM].value_linear for r in run_sweep(spec)
    ]
    worst = 0.0
    for a, b in zip(values, values[1:]):
        worst = max(worst, (b - a) / a)
    return 0.0, worst, f"{len(values)} separation points"


def _check_sweep_determinism(base: Scenario) -> Tuple[float, float, str]:
    "Sweep records are bit-identical across reruns."
    spec = PRESETS["element-count"](base)
    first, second = run_sweep(spec), run_sweep(spec)
    if first != second:
        index = next(a.index for a, b in zip(first, second) if a != b)
        return 0.0, math.inf, f"record mismatch at index {index}"
    return 0.0, 0.0, "two serial runs"


def _check_uplink_simulation(base: Scenario, seed: int) -> Tuple[float, float, str]:
    "Seeded Monte-Carlo uplink SNR sits close to the analytic value."
    resp = array_response_nusw(base.geometry, base.user, base.link)
    weights = mrc_weights(resp)
    analytic = snr(weights, resp, base.link)
    sim = UplinkSimulation(
        sample_count=50000,
        noise_power=1.0,
        transmit_power=base.link.transmit_snr,
        seed=seed,
    )
    empirical = simulate_uplink(resp, weights, sim)
    return 3e-2, _rel_diff(empirical, analytic), f"{sim.sample_count} samples, seed {seed}"


def _check_endfire_fallback(base: Scenario) -> Tuple[float, float, str]:
    "Closed form at endfire returns the flagged exact sum."
    user = replace(base.user, angle_rad=0.5 * math.pi)
    closed = snr_closed_form(base.geometry, user, base.link)
    exact = snr_exact_sum(base.geometry, user, base.link)
    if FLAG_THETA_NEAR_ENDFIRE not in closed.validity_flags:
        return 0.0, math.inf, "fallback flag missing"
    return 0.0, abs(closed.value_linear - exact.value_linear), "angle 90 deg"


def run_checks(base: Optional[Scenario] = None, seed: int = 7) -> List[CheckResult]:
    """Run every verification check against ``base`` (default: the reference
    scenario).  ``seed`` feeds the Monte-Carlo check.  A check that raises is
    reported as failed, not propagated."""
    scenario = default_scenario() if base is None else base
    checks: List[Tuple[str, Callable[[Scenario], Tuple[float, float, str]]]] = [
        ("response_norm_identity", _check_response_norm_identity),
        ("closed_form_grid", _check_closed_form_grid),
        ("collocated_reduction", _check_collocated_reduction),
        ("asymptotic_convergence", _check_asymptotic_convergence),
        ("far_field_consistency", _check_far_field_consistency),
        ("plane_wave_sign", _check_plane_wave_sign),
        ("asymptotic_gap", _check_asymptotic_gap),
        ("closed_vs_quadrature", _check_closed_vs_quadrature),
        ("mrc_optimality", _check_mrc_optimality),
        ("mrc_phase_invariance", _check_mrc_phase_invariance),
        ("upw_sweep_linearity", _check_upw_sweep_linearity),
        ("separation_monotonic", _check_separation_monotonic),
        ("sweep_determinism", _check_sweep_determinism),
        ("uplink_simulation", partial(_check_uplink_simulation, seed=seed)),
        ("endfire_fallback", _check_endfire_fallback),
    ]
    results = []
    for name, func in checks:
        try:
            tolerance, observed, detail = func(scenario)
        except Exception as exc:
            results.append(
                CheckResult(name, False, math.nan, math.nan, f"raised {exc!r}")
            )
            continue
        passed = bool(observed <= tolerance)
        results.append(CheckResult(name, passed, tolerance, observed, detail))
    return results
