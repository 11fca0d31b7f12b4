"""Reference values made apart from modxl, and validators for its outputs.

Nothing here imports modxl.  Element positions are laid out from the array
description (module after module, one element spacing inside a module, one
module separation between modules), distances come from plain Cartesian
geometry, and the plane-wave and infinite-array values are the paper's
formulas written out again.  A validator raises ``Mismatch`` with a message
naming the first wrong value.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

#: Reference carrier of the CLI defaults (2.4 GHz) and half-wavelength spacing.
WAVELENGTH_M = 0.1256
SPACING_M = 0.5 * WAVELENGTH_M

#: Tolerance for values that must agree up to rounding.
REL_EXACT = 1e-12
#: Documented accuracy of the continuum approximations against the exact sum.
REL_APPROX = 1e-2
#: Acceptance tolerance of the Monte-Carlo uplink check.
UPLINK_TOL = 3e-2
#: Flags under which the closed forms may leave the 1% band.
APPROX_FLAGS = frozenset({"epsilon_not_small", "theta_near_endfire"})

SWEEP_CSV_HEADER = [
    "index", "var_name", "var_value", "M", "N", "d_m", "D_m", "r_m",
    "theta_rad", "txsnr_db", "snr_exact_db", "snr_closed_db",
    "snr_collocated_db", "snr_asymptotic_db", "snr_upw_db",
    "snr_integral_db", "flags",
]
SVG_NS = "{http://www.w3.org/2000/svg}"


class Mismatch(Exception):
    "An output of the program disagrees with its reference or format."


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def element_positions(m: int, n: int, spacing: float, ratio: float) -> np.ndarray:
    """Positions along the array axis, centred on the array midpoint, metres.

    Like elements of neighbouring modules sit ``m - 1 + ratio`` spacings
    apart: ``m - 1`` spacings across a module plus one module separation.
    """
    import numpy as np  # here, so that importing oracle does not load numpy

    steps = np.arange(n)[:, None] * (m - 1 + ratio) + np.arange(m)[None, :]
    y = steps.ravel() * spacing
    return y - 0.5 * y[-1]


def inverse_square_sum(m, n, spacing, ratio, range_m, theta_rad) -> float:
    "Correctly rounded sum of 1/distance^2 over all elements."
    y = element_positions(m, n, spacing, ratio)
    xu = range_m * math.cos(theta_rad)
    yu = range_m * math.sin(theta_rad)
    dist2 = xu * xu + (yu - y) ** 2
    return math.fsum((1.0 / dist2).tolist())


def exact_snr(power, m, n, spacing, ratio, range_m, theta_rad) -> float:
    return power * inverse_square_sum(m, n, spacing, ratio, range_m, theta_rad)


def upw_snr(power, m, n, range_m) -> float:
    "P * MN / r^2."
    return power * m * n / range_m**2


def asymptotic_snr(power, m, spacing, ratio, range_m, theta_rad) -> float:
    "pi M P / (((M - 1) d + D) r cos(theta))."
    pitch = (m - 1) * spacing + ratio * spacing
    return math.pi * m * power / (pitch * range_m * math.cos(theta_rad))


def close(value: float, ref: float, rel: float, what: str) -> None:
    if not abs(value - ref) <= rel * abs(ref):
        raise Mismatch(
            f"{what}: got {value!r}, reference {ref!r} "
            f"(relative error {abs(value - ref) / abs(ref):.3e} > {rel:.0e})"
        )


def approx_or_flagged(value: float, ref: float, flags, what: str) -> None:
    "Within 1% of the reference unless a closed-form validity flag is set."
    if APPROX_FLAGS & set(flags):
        return
    close(value, ref, REL_APPROX, what)


def close_printed(text: str, ref: float, what: str) -> None:
    """``text`` is ``ref`` printed with nine significant digits.

    Allows half a unit in the ninth digit, plus the 1e-12 relative agreement
    expected between the program and the reference before printing.
    """
    try:
        value = float(text)
    except ValueError:
        raise Mismatch(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise Mismatch(f"{what}: {text!r} is not finite")
    scale = abs(value) if value != 0.0 else abs(ref)
    unit = 10.0 ** (math.floor(math.log10(scale)) - 8) if scale > 0 else 0.0
    tol = 0.5000001 * unit + 10.0 * REL_EXACT * abs(ref)
    if not abs(value - ref) <= tol:
        raise Mismatch(f"{what}: printed {text}, reference {ref!r}")


def _reject_constant(name: str):
    raise Mismatch(f"JSON carries {name}, which RFC 8259 does not allow")


def strict_json(text: str):
    "Parse JSON, refusing NaN and the infinities."
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"invalid JSON: {exc}") from None


def check_eval_json(text: str, sc: dict) -> None:
    """``modxl eval`` report for scenario ``sc`` (keys m, n, ratio, range_m,
    theta_deg, txsnr_db), models ``all``."""
    doc = strict_json(text)
    theta = math.radians(sc["theta_deg"])
    m, n, ratio, r = sc["m"], sc["n"], sc["ratio"], sc["range_m"]
    power = db_to_linear(sc["txsnr_db"])
    try:
        snr = doc["snr"]
        flags = doc["flags"]
        total = doc["geometry"]["total_elements"]
    except (KeyError, TypeError):
        raise Mismatch("eval report lacks snr, flags or geometry") from None
    if total != m * n:
        raise Mismatch(f"total_elements {total}, expected {m * n}")
    exact = exact_snr(power, m, n, SPACING_M, ratio, r, theta)
    expected = {"exact", "closed", "upw", "integral", "asymptotic"}
    if ratio == 1.0:
        expected.add("collocated")
    got = {k[len("snr_"):-len("_linear")] for k in snr if k.endswith("_linear")}
    if got != expected:
        raise Mismatch(f"eval models {sorted(got)}, expected {sorted(expected)}")
    for token in expected:
        db = snr[f"snr_{token}_db"]
        if not abs(db - 10.0 * math.log10(snr[f"snr_{token}_linear"])) <= 1e-9:
            raise Mismatch(f"eval snr_{token}_db {db!r} disagrees with its linear value")
    close(snr["snr_exact_linear"], exact, REL_EXACT, "eval exact")
    close(snr["snr_upw_linear"], upw_snr(power, m, n, r), REL_EXACT, "eval upw")
    close(snr["snr_asymptotic_linear"],
          asymptotic_snr(power, m, SPACING_M, ratio, r, theta), REL_EXACT,
          "eval asymptotic")
    for token in ("closed", "integral", "collocated"):
        if token in expected:
            approx_or_flagged(snr[f"snr_{token}_linear"], exact, flags,
                              f"eval {token}")


def read_csv(text: str, rows: int):
    "Parse sweep CSV: the documented header and ``rows`` rows of equal width."
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != SWEEP_CSV_HEADER:
        raise Mismatch(f"CSV header {table[:1]}, expected {SWEEP_CSV_HEADER}")
    body = table[1:]
    if len(body) != rows:
        raise Mismatch(f"CSV has {len(body)} rows, expected {rows}")
    for i, row in enumerate(body):
        if len(row) != len(SWEEP_CSV_HEADER):
            raise Mismatch(f"CSV row {i} has {len(row)} fields")
    return [dict(zip(SWEEP_CSV_HEADER, row)) for row in body]


def check_sweep_csv(text: str, var_name: str, points) -> None:
    """Sweep CSV whose row i evaluates exact, closed and upw on ``points[i]``,
    a dict with m, n, ratio, range_m, theta_deg, txsnr_db and var_value."""
    rows = read_csv(text, len(points))
    for i, (row, sc) in enumerate(zip(rows, points)):
        where = f"CSV row {i}"
        if row["index"] != str(i) or row["var_name"] != var_name:
            raise Mismatch(f"{where}: index/var_name {row['index']}/{row['var_name']}")
        m, n, ratio, r = sc["m"], sc["n"], sc["ratio"], sc["range_m"]
        theta = math.radians(sc["theta_deg"])
        power = db_to_linear(sc["txsnr_db"])
        close_printed(row["var_value"], sc["var_value"], f"{where} var_value")
        if row["M"] != str(m) or row["N"] != str(n):
            raise Mismatch(f"{where}: M,N {row['M']},{row['N']}, expected {m},{n}")
        close_printed(row["D_m"], ratio * SPACING_M, f"{where} D_m")
        close_printed(row["r_m"], r, f"{where} r_m")
        close_printed(row["theta_rad"], theta, f"{where} theta_rad")
        close_printed(row["txsnr_db"], sc["txsnr_db"], f"{where} txsnr_db")
        exact = exact_snr(power, m, n, SPACING_M, ratio, r, theta)
        close_printed(row["snr_exact_db"], 10.0 * math.log10(exact), f"{where} exact")
        close_printed(row["snr_upw_db"], 10.0 * math.log10(upw_snr(power, m, n, r)),
                      f"{where} upw")
        flags = row["flags"].split(";") if row["flags"] else []
        closed = db_to_linear(float(row["snr_closed_db"]))
        approx_or_flagged(closed, exact, flags, f"{where} closed")
        for column in ("snr_collocated_db", "snr_asymptotic_db", "snr_integral_db"):
            if row[column]:
                raise Mismatch(f"{where}: unrequested column {column} is filled")


def check_svg(text: str, labels, points: int) -> None:
    "SVG chart with one polyline of ``points`` vertices and a legend per label."
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise Mismatch(f"SVG does not parse: {exc}") from None
    lines = root.findall(f"{SVG_NS}polyline")
    if len(lines) != len(labels):
        raise Mismatch(f"SVG has {len(lines)} polylines, expected {len(labels)}")
    for line in lines:
        if len(line.get("points", "").split()) != points:
            raise Mismatch(f"SVG polyline does not have {points} vertices")
    texts = {t.text for t in root.findall(f"{SVG_NS}text")}
    missing = [label for label in labels if label not in texts]
    if missing:
        raise Mismatch(f"SVG legend lacks {missing}")


def check_verify_results(results) -> None:
    """``run_checks`` outcome as (name, passed, observed) triples: at least the
    fifteen documented checks, all passing, uplink error within 3e-2."""
    failed = [name for name, passed, _ in results if not passed]
    if len(results) < 15 or failed:
        raise Mismatch(f"{len(results) - len(failed)}/{len(results)} checks passed; "
                       f"failed {failed}")
    uplink = [obs for name, _, obs in results if name == "uplink_simulation"]
    if len(uplink) != 1 or not uplink[0] <= UPLINK_TOL:
        raise Mismatch(f"uplink_simulation error {uplink}, limit {UPLINK_TOL}")
