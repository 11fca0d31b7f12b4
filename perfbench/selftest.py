"""Self-test of the output checks: each must accept a real modxl output and
reject the same output with one deliberate fault.

Runs inside every benchmark run, after the timed phase; a check that lets a
fault through makes the run incorrect.
"""

from __future__ import annotations

import math
import os
import re

import oracle

#: The reference scenario of the CLI defaults.
DEFAULT_SC = {"m": 16, "n": 20, "ratio": 20.0, "range_m": 35.0,
              "theta_deg": 0.0, "txsnr_db": 50.0}


def bump_digit(text: str, k: int) -> str:
    "Change the k-th significant digit of a number written in ``text``."
    seen = 0
    for i, ch in enumerate(text):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == k:
                return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
    raise ValueError(f"{text!r} has fewer than {k} significant digits")


def _rejects(validate, bad) -> bool:
    try:
        validate(bad)
    except oracle.Mismatch:
        return True
    return False


def _outputs(workdir: str):
    "Real outputs of modxl for the reference scenario."
    import modxl
    from modxl import cli

    paths = {k: os.path.join(workdir, f"selftest.{k}") for k in ("json", "csv", "svg")}
    for argv in (["eval", "--out", paths["json"]],
                 ["sweep", "--preset", "element-count", "--out", paths["csv"]],
                 ["plot", "--in", paths["csv"], "--out", paths["svg"]]):
        if cli.main(argv) != 0:
            raise RuntimeError(f"modxl {argv[0]} failed in the self-test")
    texts = {}
    for key, path in paths.items():
        with open(path, encoding="utf-8") as handle:
            texts[key] = handle.read()

    sc = DEFAULT_SC
    link = modxl.LinkBudget(oracle.WAVELENGTH_M, 1.0, oracle.db_to_linear(sc["txsnr_db"]))
    geom = modxl.ArrayGeometry(sc["m"], sc["n"], oracle.SPACING_M, sc["ratio"])
    user = modxl.UserLocation(sc["range_m"], math.radians(30.0))
    response = modxl.array_response_nusw(geom, user, link)
    weights = modxl.mrc_weights(response)
    mrc = modxl.snr(weights, response, link)
    exact = oracle.exact_snr(link.transmit_snr, sc["m"], sc["n"], oracle.SPACING_M,
                             sc["ratio"], sc["range_m"], math.radians(30.0))
    sim = modxl.UplinkSimulation(20000, 1.0, link.transmit_snr, seed=11)
    estimate = modxl.simulate_uplink(response, weights, sim)
    return texts, mrc, exact, estimate


def run(workdir: str) -> list:
    "Return the faults some check failed to reject (empty when all hold)."
    texts, mrc, exact, estimate = _outputs(workdir)
    sc = DEFAULT_SC
    count_points = [dict(sc, n=1 + 16 * i, var_value=1 + 16 * i) for i in range(40)]

    csv_lines = texts["csv"].split("\n")
    cells = csv_lines[6].split(",")
    cells[10] = bump_digit(cells[10], 6)
    bad_csv = "\n".join(csv_lines[:6] + [",".join(cells)] + csv_lines[7:])

    bad_json = re.sub(r'("snr_closed_db": )[^,\n]+', r"\1-Infinity", texts["json"])

    svg_lines = texts["svg"].split("\n")
    first_line = next(i for i, s in enumerate(svg_lines) if s.startswith("<polyline"))
    bad_svg = "\n".join(svg_lines[:first_line] + svg_lines[first_line + 1:])

    def verify_results(uplink_estimate):
        # Fourteen passing checks plus the uplink check as run_checks reports it.
        observed = abs(uplink_estimate - exact) / exact
        return [(f"check_{i}", True, 0.0) for i in range(14)] + [
            ("uplink_simulation", True, observed)]

    cases = (
        ("sweep-CSV dB value changed in its 6th significant digit",
         lambda t: oracle.check_sweep_csv(t, "module_count", count_points),
         texts["csv"], bad_csv),
        ("eval JSON carrying -Infinity",
         lambda t: oracle.check_eval_json(t, sc), texts["json"], bad_json),
        ("SVG missing one series polyline",
         lambda t: oracle.check_svg(t, ("snr_exact_db", "snr_closed_db", "snr_upw_db"), 40),
         texts["svg"], bad_svg),
        ("MRC SNR off by 1e-9 relative",
         lambda v: oracle.close(v, exact, oracle.REL_EXACT, "MRC SNR"),
         mrc, mrc * (1.0 + 1e-9)),
        ("uplink estimate off by 5%",
         lambda v: oracle.check_verify_results(verify_results(v)),
         estimate, estimate * 1.05),
    )
    faults = []
    for label, validate, good, bad in cases:
        if _rejects(validate, good):
            faults.append(f"{label}: the check rejects the real output")
        if not _rejects(validate, bad):
            faults.append(f"{label}: the check accepts the fault")
    return faults
