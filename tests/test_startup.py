"""Start-up cost: modules that only one model or none needs stay unloaded.

numpy itself is executed on its first attribute access, not when modxl is
imported, so a command that makes no numpy call never pays its import.
Each case runs in a fresh interpreter, so that modules this test process
has already imported do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# numpy.polynomial supplies the quadrature model's Gauss-Legendre nodes and
# nothing else; scipy is not a dependency; xml.sax pulls in urllib.request
# and was once loaded for SVG escaping alone.  numpy as a whole is deferred
# too, but its sys.modules entry is a lazy module from the moment modxl is
# imported: it counts as executed once any ``numpy.`` submodule is loaded.
DEFERRED = ("numpy.polynomial", "scipy", "xml.sax")

_PROBE = """
import json, sys
import modxl.cli
codes = [modxl.cli.main(argv) for argv in json.loads(sys.argv[1])]
prefixes = tuple(json.loads(sys.argv[2]))
loaded = sorted(
    name for name in sys.modules
    if name in prefixes or name.startswith(tuple(p + "." for p in prefixes))
)
numpy_executed = any(name.startswith("numpy.") for name in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded, "numpy": numpy_executed}))
"""


def run_python(*args):
    "Run ``python *args`` with modxl's sources on the path; return stdout."
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def run_commands(*commands):
    """Import modxl.cli in a fresh interpreter, run each command through
    ``cli.main`` and return the exit codes, the loaded modules that fall
    under a DEFERRED package, and whether numpy was executed."""
    result = json.loads(
        run_python("-c", _PROBE, json.dumps(commands), json.dumps(DEFERRED))
    )
    return result["codes"], result["loaded"], result["numpy"]


def test_import_loads_no_deferred_module():
    assert run_commands() == ([], [], False)


def test_plot_executes_no_numpy(tmp_path):
    svg_path = tmp_path / "chart.svg"
    csv_path = ROOT / "tests" / "data" / "sweep_element_count.csv"
    assert run_commands(
        ["plot", "--in", str(csv_path), "--out", str(svg_path)]
    ) == ([0], [], False)
    assert svg_path.read_text().startswith("<svg")


def test_math_models_execute_no_numpy(tmp_path):
    report, csv_path = tmp_path / "report.json", tmp_path / "sweep.csv"
    models = "closed,upw,asymptotic"
    assert run_commands(
        ["eval", "--models", models, "--out", str(report)],
        ["sweep", "--preset", "element-count", "--models", models,
         "--out", str(csv_path)],
    ) == ([0, 0], [], False)
    assert sorted(json.loads(report.read_text())["snr"]) == [
        "snr_asymptotic_db", "snr_asymptotic_linear", "snr_closed_db",
        "snr_closed_linear", "snr_upw_db", "snr_upw_linear",
    ]


@pytest.mark.parametrize(
    "imports", ["import numpy, modxl", "import modxl, numpy"]
)
def test_one_numpy_module(imports):
    # modxl's handle is the process's numpy, whichever is imported first.
    out = run_python(
        "-c", f"{imports}; print(modxl.geometry.np is numpy, numpy.pi)"
    )
    assert out.split() == ["True", "3.141592653589793"]


def test_sweep_and_plot_load_no_deferred_module(tmp_path):
    csv_path, svg_path = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    codes, loaded, numpy_executed = run_commands(
        ["sweep", "--preset", "element-count", "--out", str(csv_path)],
        ["plot", "--in", str(csv_path), "--out", str(svg_path)],
    )
    assert codes == [0, 0]
    assert loaded == []
    assert numpy_executed  # the exact sum is a numpy model
    assert svg_path.read_text().startswith("<svg")


def test_no_command_loads_scipy(tmp_path):
    report = tmp_path / "report.json"
    codes, loaded, _ = run_commands(
        ["eval", "--models", "all", "--out", str(report)],
        ["verify", "--out", str(tmp_path / "verify.txt")],
    )
    assert codes == [0, 0]
    assert "snr_integral_db" in json.loads(report.read_text())["snr"]
    assert "numpy.polynomial.legendre" in loaded
    assert [name for name in loaded if name.startswith("scipy")] == []
