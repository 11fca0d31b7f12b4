"""One workload process: set-up, a ``READY`` line, the timed phase, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --max-rounds R --mode {setup,run,trace,probe}
                                --outdir DIR

Set-up is interpreter start, the imports the workload needs, input
generation and one untimed warm-up operation; the parent times it up to the
``READY`` line.  ``setup`` mode exits there.  ``run`` times whole rounds of
operations until S seconds have passed (at most R rounds), as one
closed-loop client with no threads of its own.  ``trace`` does that
untraced, then again with spans recorded; ``probe`` does the same without
the self-test, for one round each (S = 0).
The last stdout line is a JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time

import calibrate
import oracle
import workloads


def plan(wl, seed, count):
    "``count`` rounds of (key, spec) pairs drawn from the workload seed."
    rng = random.Random(f"{wl.name}:{seed}")
    rounds = []
    for index in range(count):
        if index and wl.fixed_round:
            rounds.append(rounds[0])
        else:
            rounds.append([(json.dumps(spec, sort_keys=True), spec)
                           for spec in wl.make_round(rng, index)])
    return rounds


def timed_phase(wl, rounds, inputs, seconds, reference, rec=None):
    """Run whole rounds until ``seconds`` have passed, timing each operation.

    A failed operation is counted and the run goes on.  Unless it is None,
    ``reference`` times the workload's reference task (see ``calibrate``)
    before an operation whenever its interval has passed, and once more at
    the end.  Each operation records its latency and its wall time
    including the digest.  Spans recorded in ``rec`` are tagged with the
    operation's number."""
    ops, marks, errors, mismatches = [], [], [], 0
    first = {}
    attempted = 0
    last_mark = -math.inf
    cpu0 = sum(os.times()[:4])  # own and child processes' CPU time
    start = time.perf_counter()
    for round_ops in rounds:
        for key, spec in round_ops:
            if reference and time.perf_counter() - last_mark >= wl.calibration_interval_s:
                marks.append(reference())
                last_mark = time.perf_counter()
            if rec is not None:
                rec.op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.execute(inputs[key])
            except Exception as exc:
                errors.append(f"op {attempted - 1}: {exc!r}"[:400])
                continue
            latency = time.perf_counter() - t0
            digest = wl.digest(spec, out)
            if first.setdefault(key, (spec, digest))[1] != digest:
                mismatches += 1
            ops.append((latency, time.perf_counter() - t0))
        if time.perf_counter() - start >= seconds:
            break
    if reference:
        marks.append(reference())
    wall = time.perf_counter() - start
    return {
        "attempted": attempted,
        "ops": ops,
        "marks": marks,
        "wall_s": wall,
        "cpu_s": sum(os.times()[:4]) - cpu0,
        "errors": errors,
        "mismatches": mismatches,
        "first": list(first.values()),
    }


def check_outputs(wl, phase) -> list:
    "Problems found by the independent checks (empty when all outputs hold)."
    problems = [f"{e}" for e in phase["errors"][:5]]
    if phase["mismatches"]:
        problems.append(f"{phase['mismatches']} outputs differ from an earlier run "
                        "of the same input")
    for spec, digest in phase["first"]:
        try:
            wl.check(spec, digest)
        except oracle.Mismatch as exc:
            problems.append(f"{wl.name} {json.dumps(spec, sort_keys=True)}: {exc}")
            if len(problems) >= 10:
                break
    return problems


def openblas_threads():
    "Thread count of the OpenBLAS bundled with numpy, or None if not found."
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "machine": platform.machine(),
    }


def peak_rss_mb(workload: str) -> float:
    "Peak resident set; for cli the largest modxl child process."
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, args, rounds, inputs, reference, result) -> list:
    """The timed phases of ``run``, ``trace`` and ``probe`` mode; the traced
    modes add their per-layer metrics to ``result``."""
    if args.mode == "run":
        measured = [timed_phase(wl, rounds, inputs, args.seconds, reference)]
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
        return measured
    import tracing

    untraced = timed_phase(wl, rounds, inputs, args.seconds, reference)
    rec = tracing.Recorder()
    if args.workload == "cli":
        wl.recorder = rec  # each command records its spans in its own process
    else:
        tracing.install(rec)
    traced = timed_phase(wl, rounds, inputs, args.seconds, reference, rec)
    # Untraced time of the traced operations, the base of the shares.
    untraced_lat = [latency for latency, _ in untraced["ops"]]
    op_ns = round(1e9 * statistics.fmean(untraced_lat) * len(traced["ops"])
                  if untraced_lat else 0)
    result["layers"], result["layers_missing"] = tracing.layer_metrics(
        rec, args.workload, traced["attempted"], op_ns)
    result["spans"] = len(rec)
    rec.dump(os.path.join(args.outdir, f"spans-{args.workload}.json"))
    return [untraced, traced]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-rounds", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "probe"))
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.outdir)
    rounds = plan(wl, args.seed, args.max_rounds)
    digest = hashlib.sha256()
    inputs = {}
    for ops in rounds[:1] if wl.fixed_round else rounds:
        for key, spec in ops:
            digest.update(key.encode())
            if key not in inputs:
                inputs[key] = wl.prepare(spec)
    wl.execute(inputs[rounds[0][0][0]])  # warm-up
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"workload": args.workload, "seed": args.seed,
              "inputs_sha256": digest.hexdigest()}
    reference = calibrate.TASKS[wl.calibration]() if wl.calibration else None
    measured = measure(wl, args, rounds, inputs, reference, result)

    problems = []
    for phase in measured:
        problems += check_outputs(wl, phase)
    if args.mode != "probe":
        import selftest

        problems += [f"self-test: {f}" for f in selftest.run(args.outdir)]
        result["env"] = environment()
    result["phases"] = [
        {k: phase[k] for k in ("attempted", "ops", "marks", "wall_s", "cpu_s", "errors")}
        for phase in measured
    ]
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
