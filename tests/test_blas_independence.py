"""The same bytes on every OpenBLAS kernel and thread count, and the exact
sum's, the goldens' and ``verify``'s on every numpy SIMD dispatch.

No reduction on the ``verify`` or the beamforming path calls BLAS, so the
stdout of ``verify`` and the MRC SNR at 40,000 and 1.6 million elements do
not depend on the kernel that OpenBLAS picks for the CPU, nor on how many
threads it runs.  OpenBLAS reads ``OPENBLAS_CORETYPE`` and
``OPENBLAS_NUM_THREADS`` once, when numpy loads it, so each case runs in a
fresh interpreter.  Where numpy's BLAS is not an OpenBLAS built with
``DYNAMIC_ARCH``, the kernel cannot be chosen and the test skips.  numpy
reads ``NPY_DISABLE_CPU_FEATURES`` once too, when it loads.
"""

import os
import platform
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

#: The exact sum of arrays of more than one block, which sums progressions
#: of like elements: the 160,000- and 1.6-million-element arrays, and a
#: digest over 440 users each, 40 of them at endfire, of four layouts, one
#: of them a single module longer than a block.
_EXACT_SUM_PROBE = """
import hashlib, math
from modxl.channel import LinkBudget
from modxl.geometry import ArrayGeometry, UserLocation
from modxl.snr_models import snr_exact_sum

link = LinkBudget(0.1256, 1.0, 1e5)
for total in (160_000, 1_600_000):
    geom = ArrayGeometry(16, total // 16, 0.0628, 20.0)
    print(total, snr_exact_sum(geom, UserLocation(80.0, 0.4), link).value_linear.hex())
digest = hashlib.sha256()
for m, n in ((8, 20_000), (100, 1_600), (65_537, 3), (65_537, 1)):
    geom = ArrayGeometry(m, n, 0.0628, 20.0)
    for i in range(440):
        log_r = -1.0 + 0.37 * i % 10.0
        deg = -89.0 + 1.37 * i % 178.0 if i < 400 else (-90.0, 90.0)[i % 2]
        user = UserLocation(10.0**log_r, math.radians(deg))
        digest.update(snr_exact_sum(geom, user, link).value_linear.hex().encode())
print(digest.hexdigest())
"""

#: numpy's X86_V2 baseline: its AVX2 and AVX-512 loops switched off.
_BASELINE_FEATURES = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

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


def probe(setting: dict, script: str = _PROBE) -> bytes:
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith(("OPENBLAS_", "OMP_", "NPY_DISABLE_CPU_FEATURES"))
    }
    env.update(setting)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return subprocess.run(
        [sys.executable, "-c", script],
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


def dispatched_features() -> list:
    "The CPU features that numpy dispatches to at run time, where it says."
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        return []
    return list(__cpu_dispatch__)


#: ``verify`` and the two ``eval --models all`` golden commands, whose
#: stdout is the contract, where the channel's last bits are not.
_GOLDEN_PROBE = """
from modxl import cli
for argv in (["verify"], ["eval", "--models", "all"],
             ["eval", "--theta-deg", "-89.9", "--modules", "100", "--models", "all"]):
    print(cli.main(argv))
"""

x86_only = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="numpy's baseline features are named for x86-64",
)


def with_and_without_baseline(script: str) -> tuple:
    "The stdout of ``script`` on numpy's own dispatch and on its baseline loops."
    missing = set(_BASELINE_FEATURES.split()) - set(dispatched_features())
    if missing:
        pytest.skip(f"numpy {np.__version__} does not dispatch {sorted(missing)}")
    return (probe({}, script),
            probe({"NPY_DISABLE_CPU_FEATURES": _BASELINE_FEATURES}, script))


@x86_only
def test_exact_sum_same_bytes_on_the_baseline_loops():
    default, baseline = with_and_without_baseline(_EXACT_SUM_PROBE)
    assert baseline == default


@x86_only
def test_goldens_same_bytes_on_the_baseline_loops():
    default, baseline = with_and_without_baseline(_GOLDEN_PROBE)
    assert default.splitlines().count(b"0") == 3  # every command exited 0
    assert baseline == default
