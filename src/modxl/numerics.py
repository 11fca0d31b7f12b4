"""Small numeric helpers: deterministic reductions, dB conversions and the
package's one numpy handle."""

import importlib.util
import math
import sys
from types import ModuleType
from typing import Iterable


def _lazy_numpy() -> ModuleType:
    """numpy, executed on its first attribute access rather than at import.

    Commands that never reach a numpy call (``plot``, and ``eval`` or
    ``sweep`` of closed-form models only) then skip numpy's import, which
    is most of their start-up.  The lazy module is registered as
    ``sys.modules["numpy"]``, so a later ``import numpy`` anywhere in the
    process executes it and returns this same object.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


#: The package's numpy.  Modules import this name, not numpy itself: an
#: ``import numpy`` statement reads the lazy module's ``__spec__``, and that
#: read executes numpy.  For the same reason they keep ``from __future__
#: import annotations``, so that ``np.ndarray`` annotations stay unevaluated.
np = _lazy_numpy()


def compensated_sum(values: Iterable[float]) -> float:
    """Sum ``values`` with exact compensated accumulation.

    Backed by Shewchuk partial sums (``math.fsum``), so the result is the
    correctly rounded sum of the inputs and depends only on the input order,
    never on chunking.
    """
    return math.fsum(values)


def linear_to_db(value: float) -> float:
    "Power ratio to decibels; a ratio of 0 or less raises ``ValueError``."
    if value <= 0:
        raise ValueError(f"power ratio must be positive, got {value!r}")
    return 10.0 * math.log10(value)


def db_to_linear(value_db: float) -> float:
    "Decibels to linear power ratio."
    return 10.0 ** (value_db / 10.0)
