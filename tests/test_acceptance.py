"""Acceptance gate: ten end-to-end quality criteria for the toolkit.

Each test prints one ``criterion NN PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite doubles as a human-readable
scorecard of the headline behaviors: model cross-agreement, limiting
regimes, beamforming optimality, simulation consistency and determinism.
"""

import math
import time
from dataclasses import replace

import numpy as np

from modxl.beamforming import (
    BeamformingWeights,
    UplinkSimulation,
    mrc_weights,
    simulate_uplink,
    snr,
)
from modxl.channel import LinkBudget, array_response_nusw
from modxl.cli import main
from modxl.geometry import ArrayGeometry, UserLocation
from modxl.snr_models import (
    CONTINUUM_TOLERANCE,
    QUADRATURE_AGREEMENT,
    SnrModel,
    snr_asymptotic,
    snr_closed_form,
    snr_collocated,
    snr_double_integral,
    snr_exact_sum,
    snr_upw,
)
from modxl.sweep import PRESETS, default_scenario, run_sweep

LINK = LinkBudget(wavelength_m=0.1256, reference_gain=1.0, transmit_snr=1e5)
BROADSIDE = UserLocation(35.0, 0.0)


def _report(num: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status}  {text}"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_tracks_exact_sum():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 626):
        geom = ArrayGeometry(16, n, 0.0628, 20.0)
        exact = snr_exact_sum(geom, BROADSIDE, LINK).value_linear
        closed = snr_closed_form(geom, BROADSIDE, LINK).value_linear
        worst = max(worst, abs(closed - exact) / exact)
    elapsed = time.monotonic() - start
    ok = worst <= CONTINUUM_TOLERANCE and elapsed < 5.0
    _report(1, ok, "closed form vs exact sum over N=1..625: worst rel err "
                   f"{worst:.3e} (tol {CONTINUUM_TOLERANCE:g}), {elapsed:.2f}s "
                   "(budget 5s)")


def test_criterion_02_quadrature_confirms_closed_form():
    start = time.monotonic()
    cases = [(ArrayGeometry(16, 20, 0.0628, 20.0), BROADSIDE)]
    rng = np.random.Generator(np.random.PCG64(20250817))
    while len(cases) < 21:
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 31))
        ratio = float(rng.uniform(1.0, 30.0))
        d = float(rng.uniform(0.01, 0.1))
        eps = float(rng.uniform(1e-4, 2e-3))
        theta = float(rng.uniform(-math.radians(80.0), math.radians(80.0)))
        cases.append((ArrayGeometry(m, n, d, ratio),
                      UserLocation(d / eps, theta)))
    worst = 0.0
    for geom, user in cases:
        closed = snr_closed_form(geom, user, LINK).value_linear
        integral = snr_double_integral(geom, user, LINK).value_linear
        worst = max(worst, abs(closed - integral) / integral)
    elapsed = time.monotonic() - start
    ok = worst <= QUADRATURE_AGREEMENT and elapsed < 30.0
    _report(2, ok, "closed form vs double quadrature on 21 configs: worst "
                   f"rel err {worst:.3e} (tol {QUADRATURE_AGREEMENT:g}), "
                   f"{elapsed:.2f}s "
                   "(budget 30s)")


def test_criterion_03_collocated_reduction_tracks_exact_sum():
    worst = 0.0
    for n in range(1, 626):
        geom = ArrayGeometry(16, n, 0.0628, 1.0)
        exact = snr_exact_sum(geom, BROADSIDE, LINK).value_linear
        collocated = snr_collocated(geom, BROADSIDE, LINK).value_linear
        worst = max(worst, abs(collocated - exact) / exact)
    ok = worst <= CONTINUUM_TOLERANCE
    _report(3, ok, "collocated closed form vs exact sum over N=1..625: "
                   f"worst rel err {worst:.3e} (tol {CONTINUUM_TOLERANCE:g})")


def test_criterion_04_exact_sum_reaches_asymptote():
    start = time.monotonic()
    geom = ArrayGeometry(16, 100_000, 0.0628, 20.0)
    exact = snr_exact_sum(geom, BROADSIDE, LINK)
    limit = snr_asymptotic(geom, BROADSIDE, LINK)
    rel = abs(exact.value_linear - limit.value_linear) / limit.value_linear
    elapsed = time.monotonic() - start
    ok = (rel <= 5e-3
          and abs(limit.value_db - 48.15) < 5e-3
          and elapsed < 5.0)
    _report(4, ok, "exact sum at N=100000 vs infinite-array limit "
                   f"{limit.value_db:.2f} dB: rel err {rel:.3e} "
                   f"(tol 5e-3), {elapsed:.2f}s (budget 5s)")


def test_criterion_05_far_user_matches_plane_wave():
    geom = ArrayGeometry(16, 20, 0.0628, 20.0)
    user = UserLocation(10.0 * geom.augmented_span, 0.0)
    closed = snr_closed_form(geom, user, LINK).value_linear
    upw = snr_upw(geom, user, LINK).value_linear
    rel = abs(closed - upw) / upw
    ok = rel <= 1e-2
    _report(5, ok, "closed form at range 10x augmented span vs plane wave: "
                   f"rel err {rel:.3e} (tol 1e-2)")


def test_criterion_06_limit_gap_between_layouts():
    modular = snr_asymptotic(ArrayGeometry(16, 20, 0.0628, 20.0),
                             BROADSIDE, LINK)
    collocated = snr_asymptotic(ArrayGeometry(16, 20, 0.0628, 1.0),
                                BROADSIDE, LINK)
    gap_db = collocated.value_db - modular.value_db
    want = 10.0 * math.log10(35.0 / 16.0)
    ok = abs(gap_db - want) <= 1e-9 and abs(gap_db - 3.40) < 5e-3
    _report(6, ok, "collocated vs modular infinite-array gap "
                   f"{gap_db:.4f} dB, expected {want:.4f} dB (tol 1e-9)")


def test_criterion_07_plane_wave_bias_flips_with_angle():
    over = 0
    base = default_scenario()
    records = run_sweep(PRESETS["separation"](base))
    for record in records:
        upw = record.reports[SnrModel.UPW].value_linear
        exact = record.reports[SnrModel.EXACT_SUM].value_linear
        over += upw > exact
    under = 0
    at75 = replace(base, user=replace(base.user, angle_rad=math.radians(75.0)))
    records75 = run_sweep(PRESETS["separation"](at75))
    for record in records75:
        upw = record.reports[SnrModel.UPW].value_linear
        exact = record.reports[SnrModel.EXACT_SUM].value_linear
        under += upw < exact
    ok = over == len(records) == 50 and under == len(records75) == 50
    _report(7, ok, "plane wave overestimates at broadside "
                   f"({over}/50 points) and underestimates at 75 deg "
                   f"({under}/50 points)")


def test_criterion_08_mrc_is_optimal():
    rng = np.random.Generator(np.random.PCG64(414243))
    worst_excess = -math.inf
    worst_phase = 0.0
    trials = 0
    for _ in range(10):
        geom = ArrayGeometry(
            int(rng.integers(1, 9)), int(rng.integers(1, 7)),
            float(rng.uniform(0.01, 0.2)), float(rng.uniform(1.0, 20.0)),
        )
        user = UserLocation(float(rng.uniform(5.0, 200.0)),
                            float(rng.uniform(-1.4, 1.4)))
        response = array_response_nusw(geom, user, LINK)
        weights = mrc_weights(response)
        best = snr(weights, response, LINK)
        size = len(response)
        for _ in range(150):
            raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            candidate = BeamformingWeights(raw / np.linalg.norm(raw))
            worst_excess = max(worst_excess,
                               snr(candidate, response, LINK) - best)
            trials += 1
        for phase in (0.7, -2.1):
            rotated = BeamformingWeights(weights.weights * np.exp(1j * phase))
            rel = abs(snr(rotated, response, LINK) - best) / best
            worst_phase = max(worst_phase, rel)
    ok = trials >= 1000 and worst_excess <= 1e-9 and worst_phase <= 1e-12
    _report(8, ok, f"{trials} random beamformers never beat maximal-ratio "
                   f"combining (worst excess {worst_excess:.3e}, tol 1e-9); "
                   f"phase rotations match to {worst_phase:.3e} (tol 1e-12)")


def test_criterion_09_simulation_matches_analytic_snr():
    geom = ArrayGeometry(16, 20, 0.0628, 20.0)
    response = array_response_nusw(geom, BROADSIDE, LINK)
    weights = mrc_weights(response)
    sim = UplinkSimulation(100_000, noise_power=1.0, transmit_power=1e5,
                           seed=20240817)
    estimate = simulate_uplink(response, weights, sim)
    analytic = snr(weights, response, LINK)
    rel = abs(estimate - analytic) / analytic
    repeat = simulate_uplink(response, weights, sim)
    ok = rel <= 3e-2 and repeat == estimate
    _report(9, ok, "simulated uplink SNR vs analytic at 1e5 samples: rel "
                   f"err {rel:.3e} (tol 3e-2); identical seed reproduces "
                   f"bit-identically: {repeat == estimate}")


def test_criterion_10_sweep_output_is_deterministic(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    assert main(["sweep", "--out", str(paths[0])]) == 0
    assert main(["sweep", "--out", str(paths[1])]) == 0
    blobs = [path.read_bytes() for path in paths]
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report(10, ok, "sweep CSV byte-identical across reruns")
