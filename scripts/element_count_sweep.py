#!/usr/bin/env python3
"""Run the element-count scaling experiment.

Sweeps the module count from 1 to 625 on the reference scenario and renders
the exact, closed-form and plane-wave SNR curves, showing the bounded
near-field scaling law against the unbounded plane-wave prediction.
"""

import argparse
import sys
from pathlib import Path

from modxl.cli import main as modxl


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--outdir", type=Path, default=Path("out"),
        help="directory for the CSV and SVG outputs (default: out/)",
    )
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    csv_path = args.outdir / "element_count_sweep.csv"
    svg_path = args.outdir / "element_count_sweep.svg"

    status = modxl([
        "sweep",
        "--preset", "element-count",
        "--out", str(csv_path),
    ])
    if status != 0:
        return status
    status = modxl([
        "plot",
        "--in", str(csv_path),
        "--title", "SNR versus module count (broadside user at 35 m)",
        "--out", str(svg_path),
    ])
    if status != 0:
        return status
    print(f"wrote {csv_path} and {svg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
