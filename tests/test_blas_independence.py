"""The same bytes on every OpenBLAS kernel and thread count.

No reduction on the ``verify`` or the beamforming path calls BLAS, so the
stdout of ``verify`` and the MRC SNR at 40,000 and 1.6 million elements do
not depend on the kernel that OpenBLAS picks for the CPU, nor on how many
threads it runs.  OpenBLAS reads ``OPENBLAS_CORETYPE`` and
``OPENBLAS_NUM_THREADS`` once, when numpy loads it, so each case runs in a
fresh interpreter.  Where numpy's BLAS is not an OpenBLAS built with
``DYNAMIC_ARCH``, the kernel cannot be chosen and the test skips.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import hashlib
from modxl import cli
from modxl.beamforming import mrc_weights, snr
from modxl.channel import LinkBudget, array_response_nusw
from modxl.geometry import ArrayGeometry, UserLocation

print(cli.main(["verify"]))
link = LinkBudget(0.1256, 1.0, 1e5)
for total in (40_000, 1_600_000):
    geom = ArrayGeometry(16, total // 16, 0.0628, 20.0)
    response = array_response_nusw(geom, UserLocation(80.0, 0.4), link)
    weights = mrc_weights(response)
    digest = hashlib.sha256(weights.weights.tobytes()).hexdigest()
    print(total, snr(weights, response, link).hex(), digest)
"""

#: The settings compared: OpenBLAS's own choice, two kernels that it
#: cannot pick on one CPU (SSE4.2 and AVX-512), and a single thread.
SETTINGS = (
    {},
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"OPENBLAS_CORETYPE": "SkylakeX"},
    {"OPENBLAS_NUM_THREADS": "1"},
)


def dynamic_openblas() -> str:
    "Why the kernel cannot be chosen here, or '' where it can."
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError) as error:
        return f"numpy {np.__version__} does not describe its BLAS ({error!r})"
    config = f"{blas.get('name', '')} {blas.get('openblas configuration', '')}"
    if "openblas" not in config.lower() or "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: {config.strip()!r}"
    return ""


def probe(setting: dict) -> bytes:
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith(("OPENBLAS_", "OMP_"))
    }
    env.update(setting)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, timeout=300, check=True,
    ).stdout


def test_same_bytes_on_every_kernel():
    reason = dynamic_openblas()
    if reason:
        pytest.skip(reason)
    outputs = [probe(setting) for setting in SETTINGS]
    assert outputs[0].splitlines()[-3] == b"0"  # every verify check passed
    for setting, output in zip(SETTINGS[1:], outputs[1:]):
        assert output == outputs[0], setting
