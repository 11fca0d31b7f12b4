#!/usr/bin/env python3
"""Run the module-separation experiment.

Sweeps the module separation from one element spacing to forty spacings at
two user directions (broadside and 75 degrees off).  The plane-wave SNR is
flat in both cases while the exact SNR moves with the separation, so the
plane-wave model over-estimates at broadside and under-estimates off axis.
"""

import argparse
import sys
from pathlib import Path

from modxl.cli import main as modxl


def run_one(theta_deg: float, outdir: Path) -> int:
    tag = f"theta{theta_deg:g}"
    csv_path = outdir / f"separation_sweep_{tag}.csv"
    svg_path = outdir / f"separation_sweep_{tag}.svg"
    status = modxl([
        "sweep",
        "--preset", "separation",
        "--theta-deg", str(theta_deg),
        "--out", str(csv_path),
    ])
    if status != 0:
        return status
    status = modxl([
        "plot",
        "--in", str(csv_path),
        "--title", f"SNR versus module separation ({theta_deg:g} deg user)",
        "--out", str(svg_path),
    ])
    if status != 0:
        return status
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--outdir", type=Path, default=Path("out"),
        help="directory for the CSV and SVG outputs (default: out/)",
    )
    parser.add_argument(
        "--theta-deg", type=float, nargs="*", default=[0.0, 75.0],
        help="user directions to sweep (degrees)",
    )
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for theta in args.theta_deg:
        status = run_one(theta, args.outdir)
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
