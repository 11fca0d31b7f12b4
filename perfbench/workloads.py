"""The four workloads: seeded inputs, one operation each, output digests and
the checks that compare those digests with ``oracle``.

Operations come in rounds; ``make_round`` draws one round of specs from the
seeded generator, and a workload with ``fixed_round`` repeats its first round.
An operation is described by a JSON-able ``spec``.  ``prepare`` turns it into
program inputs (the set-up pays for that), ``execute`` runs the program once
(the only timed call), ``digest`` reduces the output to a comparable value,
and ``check`` validates one digest against the independent reference.
Operations whose spec repeats must give equal digests, so each distinct spec
is checked against the reference once.

The ``cli`` operations are ``python -m modxl.cli`` subprocesses.  modxl is
imported inside the methods, and ``oracle`` loads numpy only when a check
runs, so the cli load generator imports neither before its timed phase ends:
its set-up holds only what a user's command pays.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import oracle
from oracle import SPACING_M, WAVELENGTH_M, db_to_linear

#: Module size and transmit SNR of the scenarios (the CLI defaults).
ELEMENTS_PER_MODULE = 16
TXSNR_DB = 50.0

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _uniform(rng, lo, hi, digits=6):
    "Seeded value rounded so CLI flags and specs stay readable."
    return round(rng.uniform(lo, hi), digits)


class Workload:
    "Common constructor: ``outdir`` is where a workload may write files."

    #: True when every round repeats the inputs of the first.
    fixed_round = False
    #: Reference task that scales the times (a kind in ``calibrate``, or
    #: None for raw times), and the least time between two timings of it.
    calibration = "compute"
    calibration_interval_s = 0.5

    def __init__(self, outdir: str):
        self.outdir = outdir


class Cli(Workload):
    """A cycle of ``modxl`` commands, each a fresh interpreter: ``eval``
    (models ``all``), ``sweep --preset element-count``, ``sweep --preset
    separation --theta-deg 75`` and ``plot`` of the element-count CSV."""

    name = "cli"
    round_s = 4.3
    calibration = "startup"
    calibration_interval_s = 2.0
    COMMANDS = ("eval", "sweep_count", "sweep_sep", "plot")
    PLOT_LABELS = ("snr_exact_db", "snr_closed_db", "snr_upw_db")

    def __init__(self, outdir: str):
        super().__init__(os.path.join(outdir, "cli"))
        os.makedirs(self.outdir, exist_ok=True)
        self.span_path = os.path.join(self.outdir, "spans.json")
        #: Set by a traced run: commands then run through ``tracecli.py`` and
        #: their spans are appended here.
        self.recorder = None

    def make_round(self, rng, index):
        # Every other round is a collocated array, so ``all`` adds the
        # collocated model to ``eval``.
        sc = {
            "m": ELEMENTS_PER_MODULE,
            "n": rng.randint(5, 40),
            "ratio": 1.0 if index % 2 else _uniform(rng, 2.0, 30.0),
            "range_m": _uniform(rng, 30.0, 150.0),
            "theta_deg": _uniform(rng, -60.0, 60.0),
            "txsnr_db": _uniform(rng, 30.0, 60.0),
        }
        return [{"cmd": cmd, "round": index, "sc": sc} for cmd in self.COMMANDS]

    def _path(self, cmd):
        ext = {"eval": "json", "sweep_count": "csv", "sweep_sep": "csv", "plot": "svg"}
        return os.path.join(self.outdir, f"{cmd}.{ext[cmd]}")

    def prepare(self, spec):
        sc = spec["sc"]
        flags = [
            "--elements-per-module", str(sc["m"]),
            "--modules", str(sc["n"]),
            "--range-m", repr(sc["range_m"]),
            "--txsnr-db", repr(sc["txsnr_db"]),
        ]
        cmd = spec["cmd"]
        out = ["--out", self._path(cmd)]
        if cmd == "eval":
            return ["eval", *flags, "--separation-ratio", repr(sc["ratio"]),
                    "--theta-deg", repr(sc["theta_deg"]), *out]
        if cmd == "sweep_count":
            return ["sweep", "--preset", "element-count", *flags,
                    "--separation-ratio", repr(sc["ratio"]),
                    "--theta-deg", repr(sc["theta_deg"]), *out]
        if cmd == "sweep_sep":
            return ["sweep", "--preset", "separation", "--theta-deg", "75", *flags, *out]
        return ["plot", "--in", self._path("sweep_count"), *out]

    def execute(self, argv):
        if self.recorder is None:
            cmd = [sys.executable, "-m", "modxl.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(PERFBENCH_DIR, "tracecli.py"),
                   self.span_path, *argv]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"modxl {argv[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        if self.recorder is not None:
            with open(self.span_path, encoding="utf-8") as handle:
                self.recorder.extend(json.load(handle), self.recorder.op)
        return argv[-1]

    def digest(self, spec, out_path):
        with open(out_path, encoding="utf-8") as handle:
            return handle.read()

    def check(self, spec, text):
        sc, cmd = spec["sc"], spec["cmd"]
        if cmd == "eval":
            oracle.check_eval_json(text, sc)
        elif cmd == "sweep_count":
            # Module count 1..625 in 40 linear steps of 16.
            points = [dict(sc, n=1 + 16 * i, var_value=1 + 16 * i) for i in range(40)]
            oracle.check_sweep_csv(text, "module_count", points)
        elif cmd == "sweep_sep":
            # Module separation d..40d in 50 linear steps, at 75 degrees.
            d = SPACING_M
            points = []
            for i in range(50):
                sep = 40.0 * d if i == 49 else d + i * (39.0 * d) / 49
                points.append(dict(sc, ratio=sep / d, theta_deg=75.0, var_value=sep))
            oracle.check_sweep_csv(text, "separation", points)
        else:
            oracle.check_svg(text, self.PLOT_LABELS, 40)


class Grid(Workload):
    """In-process log range sweeps of 40 points: exact_sum, closed_form, upw
    and asymptotic, plus collocated on every fourth (unit-separation) sweep.
    A round holds one sweep per module count in ``COUNTS``."""

    name = "grid"
    round_s = 0.03
    #: At most 256 elements, so that per-call work in ``sweep`` and
    #: ``snr_models`` outweighs the O(elements) sums (see the README).
    COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16)
    fixed_round = True

    def make_round(self, rng, index):
        round_ops = []
        for i, n in enumerate(self.COUNTS):
            collocated = i % 4 == 3
            round_ops.append({
                "n": n,
                "collocated": collocated,
                "ratio": 1.0 if collocated else _uniform(rng, 2.0, 40.0),
                "theta_deg": _uniform(rng, -75.0, 75.0),
                "r0": _uniform(rng, 35.0, 60.0),
                "r1": round(10.0 ** rng.uniform(4.0, 6.0), 3),
            })
        return round_ops

    def prepare(self, spec):
        import modxl

        geom = modxl.ArrayGeometry(ELEMENTS_PER_MODULE, spec["n"], SPACING_M, spec["ratio"])
        user = modxl.UserLocation(spec["r0"], math.radians(spec["theta_deg"]))
        link = modxl.LinkBudget(WAVELENGTH_M, 1.0, db_to_linear(TXSNR_DB))
        models = {modxl.SnrModel.EXACT_SUM, modxl.SnrModel.CLOSED_FORM,
                  modxl.SnrModel.UPW, modxl.SnrModel.ASYMPTOTIC}
        if spec["collocated"]:
            models.add(modxl.SnrModel.COLLOCATED)
        return modxl.SweepSpec(
            base=modxl.Scenario(geom, user, link),
            variable=modxl.SweepVariable.RANGE,
            start=spec["r0"], stop=spec["r1"], steps=40,
            scale=modxl.SweepScale.LOGARITHMIC, models=frozenset(models),
        )

    def execute(self, sweep_spec):
        import modxl

        return modxl.run_sweep(sweep_spec)

    def digest(self, spec, records):
        return tuple(
            (rec.index, rec.variable_value,
             tuple((model.value, rep.value_linear, tuple(sorted(rep.validity_flags)))
                   for model, rep in rec.reports.items()))
            for rec in records
        )

    def check(self, spec, digest):
        m, n, ratio = ELEMENTS_PER_MODULE, spec["n"], spec["ratio"]
        theta = math.radians(spec["theta_deg"])
        r0, r1 = spec["r0"], spec["r1"]
        power = db_to_linear(TXSNR_DB)
        expected = {"exact_sum", "closed_form", "upw", "asymptotic"}
        if spec["collocated"]:
            expected.add("collocated")
        if len(digest) != 40:
            raise oracle.Mismatch(f"sweep returned {len(digest)} points, expected 40")
        for i, (index, value, reports) in enumerate(digest):
            r = r1 if i == 39 else r0 * (r1 / r0) ** (i / 39)
            if index != i:
                raise oracle.Mismatch(f"point {i} carries index {index}")
            oracle.close(value, r, oracle.REL_EXACT, f"range of point {i}")
            got = {name: (v, flags) for name, v, flags in reports}
            if set(got) != expected:
                raise oracle.Mismatch(f"point {i} models {sorted(got)}")
            exact = oracle.exact_snr(power, m, n, SPACING_M, ratio, value, theta)
            where = f"n={n} point {i}"
            oracle.close(got["exact_sum"][0], exact, oracle.REL_EXACT, f"{where} exact_sum")
            oracle.close(got["upw"][0], oracle.upw_snr(power, m, n, value),
                         oracle.REL_EXACT, f"{where} upw")
            oracle.close(got["asymptotic"][0],
                         oracle.asymptotic_snr(power, m, SPACING_M, ratio, value, theta),
                         oracle.REL_EXACT, f"{where} asymptotic")
            for name in ("closed_form", "collocated"):
                if name in got:
                    oracle.approx_or_flagged(got[name][0], exact, got[name][1],
                                             f"{where} {name}")


class LargeArray(Workload):
    """One scenario per operation: ``snr_exact_sum``, then
    ``array_response_nusw`` -> ``mrc_weights`` -> ``snr``.  A round holds one
    scenario per element count in ``TOTALS``."""

    name = "large_array"
    round_s = 0.6
    TOTALS = (10_000, 40_000, 160_000, 640_000, 1_600_000)
    #: Module sizes dividing every total, so the element count never varies.
    MODULE_SIZES = (8, 16, 25, 40, 50, 100)
    fixed_round = True

    def make_round(self, rng, index):
        return [
            {
                "elements": total,
                "m": rng.choice(self.MODULE_SIZES),
                "ratio": _uniform(rng, 1.0, 40.0),
                "range_m": _uniform(rng, 20.0, 500.0),
                "theta_deg": _uniform(rng, -75.0, 75.0),
            }
            for total in self.TOTALS
        ]

    def prepare(self, spec):
        import modxl

        geom = modxl.ArrayGeometry(spec["m"], spec["elements"] // spec["m"],
                                   SPACING_M, spec["ratio"])
        user = modxl.UserLocation(spec["range_m"], math.radians(spec["theta_deg"]))
        link = modxl.LinkBudget(WAVELENGTH_M, 1.0, db_to_linear(TXSNR_DB))
        return geom, user, link

    def execute(self, scenario):
        import modxl

        exact = modxl.snr_exact_sum(*scenario)
        response = modxl.array_response_nusw(*scenario)
        weights = modxl.mrc_weights(response)
        return exact.value_linear, modxl.snr(weights, response, scenario[2])

    def digest(self, spec, out):
        return out

    def check(self, spec, digest):
        m = spec["m"]
        exact = oracle.exact_snr(db_to_linear(TXSNR_DB), m, spec["elements"] // m,
                                 SPACING_M, spec["ratio"], spec["range_m"],
                                 math.radians(spec["theta_deg"]))
        where = f"{spec['elements']} elements"
        oracle.close(digest[0], exact, oracle.REL_EXACT, f"{where} exact_sum")
        # Response-norm identity: MRC SNR = transmit SNR * |h|^2 = exact sum.
        oracle.close(digest[1], exact, oracle.REL_EXACT, f"{where} MRC SNR")


class Verify(Workload):
    "One in-process ``run_checks(seed=...)`` per operation."

    name = "verify"
    round_s = 1.2
    calibration = None

    def make_round(self, rng, index):
        return [{"seed": rng.getrandbits(32)}]

    def prepare(self, spec):
        return spec["seed"]

    def execute(self, seed):
        import modxl

        return modxl.run_checks(seed=seed)

    def digest(self, spec, results):
        return tuple((r.name, r.passed, r.observed) for r in results)

    def check(self, spec, digest):
        oracle.check_verify_results(digest)


WORKLOADS = {w.name: w for w in (Cli, Grid, LargeArray, Verify)}
