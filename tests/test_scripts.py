"""Smoke tests of the experiment scripts, each run as its own process."""

import csv
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def data_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


@pytest.mark.parametrize(
    "script,argv,outputs,rows",
    [
        ("element_count_sweep.py", (), ["element_count_sweep"], 40),
        (
            "separation_sweep.py", ("--theta-deg", "0", "75"),
            ["separation_sweep_theta0", "separation_sweep_theta75"], 50,
        ),
    ],
)
def test_script_writes_csv_and_svg(tmp_path, script, argv, outputs, rows):
    result = run_script(script, "--outdir", str(tmp_path), *argv)
    assert result.returncode == 0, result.stderr
    for stem in outputs:
        assert len(data_rows(tmp_path / f"{stem}.csv")) == rows
        ET.parse(tmp_path / f"{stem}.svg")
