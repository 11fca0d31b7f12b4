"""Start-up cost: modules that only one model or none needs stay unloaded.

Each case runs in a fresh interpreter, so that modules this test process
has already imported do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# numpy.polynomial supplies the quadrature model's Gauss-Legendre nodes and
# nothing else; scipy is not a dependency; xml.sax pulls in urllib.request
# and was once loaded for SVG escaping alone.
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
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def run_commands(*commands):
    """Import modxl.cli in a fresh interpreter, run each command through
    ``cli.main`` and return the exit codes and the loaded modules that fall
    under a DEFERRED package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands), json.dumps(DEFERRED)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    return result["codes"], result["loaded"]


def test_import_loads_no_deferred_module():
    assert run_commands() == ([], [])


def test_sweep_and_plot_load_no_deferred_module(tmp_path):
    csv_path, svg_path = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    codes, loaded = run_commands(
        ["sweep", "--preset", "element-count", "--out", str(csv_path)],
        ["plot", "--in", str(csv_path), "--out", str(svg_path)],
    )
    assert codes == [0, 0]
    assert loaded == []
    assert svg_path.read_text().startswith("<svg")


def test_no_command_loads_scipy(tmp_path):
    report = tmp_path / "report.json"
    codes, loaded = run_commands(
        ["eval", "--models", "all", "--out", str(report)],
        ["verify", "--out", str(tmp_path / "verify.txt")],
    )
    assert codes == [0, 0]
    assert "snr_integral_db" in json.loads(report.read_text())["snr"]
    assert "numpy.polynomial.legendre" in loaded
    assert [name for name in loaded if name.startswith("scipy")] == []
