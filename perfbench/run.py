"""Benchmark of modxl: end-to-end metrics of four workloads, or a traced run
with per-layer metrics.

    python3 perfbench/run.py --workload {cli,grid,large_array,verify,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload process runs whole rounds of operations until
``--seconds`` have passed.  With ``--trace 0`` the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics.
Run records and span files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    "A worker process failed outside any timed operation."


def program_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def max_rounds(workload: str, seconds: float) -> int:
    "Inputs for four times the rounds the reference machine runs in ``seconds``."
    return math.ceil(4 * seconds / workloads.WORKLOADS[workload].round_s) + 1


def launch(workload, seed, seconds, mode, env):
    """Start a worker; return its set-up time (launch to ``READY``) and, past
    set-up mode, its result."""
    rounds = max_rounds(workload, seconds) if seconds else 1
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--max-rounds", str(rounds),
           "--mode", mode, "--outdir", OUTDIR]
    start = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        setup_s = time.monotonic() - start
        try:
            rest, _ = proc.communicate(timeout=2 * seconds + 120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} worker timed out") from None
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank), or None below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return pct, ordered[rank - 1], n - rank


def timed_run(workload, seed, seconds, env):
    raw_setups, setup_marks = [], []
    startup = calibrate.StartupTask()
    for i in range(SETUP_REPEATS):
        setup_marks.append(startup())
        mode = "run" if i == SETUP_REPEATS - 1 else "setup"
        setup_s, res = launch(workload, seed, seconds, mode, env)
        raw_setups.append(setup_s)
    phase = res["phases"][0]
    if not phase["ops"]:
        raise BenchError(f"{workload}: every operation failed: {phase['errors'][:3]}")
    setup_scale = calibrate.scale("startup", setup_marks)
    op_scale = calibrate.scale(workloads.WORKLOADS[workload].calibration, phase["marks"])
    raw_lat = [latency for latency, _ in phase["ops"]]
    raw_rate = len(raw_lat) / sum(wall for _, wall in phase["ops"])
    lat = [latency * op_scale for latency in raw_lat]
    metrics = {
        "setup_s": {"value": statistics.median(raw_setups) * setup_scale, "unit": "s"},
        "ops_per_s": {"value": raw_rate / op_scale, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    tail = tail_percentile(lat)
    notes = {
        "setup_s": f"median of {len(raw_setups)} set-ups; raw "
                   + ", ".join(f"{s:.3f}" for s in raw_setups)
                   + f"; scale {setup_scale:.3f}",
        "ops_per_s": f"{len(lat)} ops; raw {raw_rate:.4g}; scale {op_scale:.3f} "
                     f"from {len(phase['marks'])} reference timings; "
                     f"cpu/wall {phase['cpu_s'] / phase['wall_s']:.2f}",
        "op_p50_ms": f"n={len(lat)}; raw {statistics.median(raw_lat) * 1e3:.4g}" + (
            f"; p{tail[0]} {tail[1] * 1e3:.4g} with {tail[2]} beyond" if tail else ""),
        "peak_rss_mb": "largest modxl child" if workload == "cli" else "workload process",
    }
    raw = {"setup_s": statistics.median(raw_setups), "ops_per_s": raw_rate,
           "op_p50_ms": statistics.median(raw_lat) * 1e3}
    record = {"raw_setups_s": raw_setups, "setup_marks_s": setup_marks, **res,
              "metrics": metrics, "raw": raw, "tail": tail}
    return record, notes


def import_metrics(env, repeats=3):
    """Import times from ``python -X importtime`` and a bare interpreter
    start, and the import rows ``import modxl`` no longer loads (they read 0)."""
    wanted = {"modxl": "import.modxl_ms", "scipy.integrate": "import.scipy_integrate_ms",
              "numpy": "import.numpy_ms"}
    samples = {name: [] for name in wanted}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import modxl"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in wanted:
                samples[fields[2].strip()].append(int(fields[1]) / 1e3)
    out = {wanted[name]: {"value": statistics.median(v) if v else 0.0, "unit": "ms"}
           for name, v in samples.items()}
    missing = [wanted[name] for name, v in samples.items() if not v]
    starts = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        starts.append((time.perf_counter() - t0) * 1e3)
    out["cli.interpreter_ms"] = {"value": statistics.median(starts), "unit": "ms"}
    return out, missing


def traced_run(workload, seed, seconds, env):
    """Untraced then traced halves of the run, plus an untraced and a traced
    round of each other workload."""
    _, res = launch(workload, seed, seconds / 2, "trace", env)
    untraced, traced = res["phases"]
    layers = dict(res["layers"])
    imports, missing = import_metrics(env)
    layers.update(imports)
    missing += res["layers_missing"]
    problems, phases = list(res["problems"]), [untraced, traced]
    for other in workloads.WORKLOADS:
        if other != workload:
            _, probe = launch(other, seed, 0, "probe", env)
            layers.update(probe["layers"])
            missing += probe["layers_missing"]
            problems += probe["problems"]
            phases += probe["phases"]
    kind = workloads.WORKLOADS[workload].calibration
    rates = [len(p["ops"]) / sum(wall for _, wall in p["ops"]) / calibrate.scale(kind, p["marks"])
             for p in (untraced, traced)]
    layers["trace.untraced_ops_per_s"] = {"value": rates[0], "unit": "1/s"}
    layers["trace.traced_ops_per_s"] = {"value": rates[1], "unit": "1/s"}
    layers["trace.overhead_pct"] = {"value": (rates[0] / rates[1] - 1.0) * 100, "unit": "%"}
    record = {**res, "problems": problems, "phases": phases, "metrics": layers}
    notes = {name: "0: no spans or import line, the layer was not reached"
             for name in missing}
    notes["trace.overhead_pct"] = f"{workload}: traced against untraced, same inputs"
    return record, notes


def summarize(workload, seed, record, notes, trace):
    attempted = sum(p["attempted"] for p in record["phases"])
    failed = sum(len(p["errors"]) for p in record["phases"])
    env = record.get("env", {})
    print(f"workload {workload}  seed {seed}  inputs sha256 {record['inputs_sha256'][:16]}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    print(f"  attempted {attempted}  failed {failed}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    os.makedirs(OUTDIR, exist_ok=True)
    name = f"result-{workload}-seed{seed}{'-trace' if trace else ''}.json"
    slim = {k: v for k, v in record.items() if k != "phases"}
    slim["phases"] = [{k: v for k, v in p.items() if k not in ("ops", "marks")}
                      for p in record["phases"]]
    with open(os.path.join(OUTDIR, name), "w", encoding="utf-8") as handle:
        json.dump(slim, handle, indent=1)
    return {"correct": not record["problems"], "attempted": attempted,
            "failed": failed, "metrics": record["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "modxl", "__init__.py")):
        print(f"perfbench: no modxl sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    env = program_env()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = traced_run if args.trace else timed_run
        try:
            record, notes = run(name, args.seed, args.seconds, env)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        results[name] = summarize(name, args.seed, record, notes, args.trace)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
