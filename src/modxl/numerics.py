"""Small numeric helpers: deterministic reductions and dB conversions."""

import math
from typing import Iterable


def compensated_sum(values: Iterable[float]) -> float:
    """Sum ``values`` with exact compensated accumulation.

    Backed by Shewchuk partial sums (``math.fsum``), so the result is the
    correctly rounded sum of the inputs and depends only on the input order,
    never on chunking.
    """
    return math.fsum(values)


def linear_to_db(value: float) -> float:
    "Power ratio to decibels; 0 maps to -inf."
    if value < 0:
        raise ValueError("power ratio must be nonnegative")
    if value == 0:
        return float("-inf")
    return 10.0 * math.log10(value)


def db_to_linear(value_db: float) -> float:
    "Decibels to linear power ratio."
    return 10.0 ** (value_db / 10.0)
