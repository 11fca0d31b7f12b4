"""Receive beamforming: weight vectors, the resulting SNR, and a seeded
Monte-Carlo uplink simulation for empirical validation.

Every reduction over the elements is a numpy ``einsum``, never a BLAS call:
einsum's own loops give the same bits on every CPU and start no thread,
while OpenBLAS picks its kernel by CPU and, above 10,000 elements, wakes a
second thread that keeps the other core busy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .channel import LinkBudget
from .geometry import block_rows
from .numerics import compensated_sum, np


def _parts(vector: np.ndarray) -> np.ndarray:
    "The interleaved real and imaginary parts of a complex vector, as float64."
    return np.ascontiguousarray(vector, dtype=np.complex128).view(np.float64)


def _squared_norm(vector: np.ndarray) -> float:
    "Sum of squared magnitudes: the dot product of the parts with themselves."
    parts = _parts(vector)
    return float(np.einsum("i,i->", parts, parts))


def _combine(weights: BeamformingWeights, response: np.ndarray) -> complex:
    """The combined channel w^H h, from the parts of both vectors: no
    conjugated copy of the weights, which at 1.6 million elements would
    hold 25.6 MB beside the two vectors.  The real part is the dot product
    of the parts, the imaginary part sum(w_re h_im) - sum(w_im h_re)."""
    w, h = _parts(weights.weights), _parts(response)
    imag = np.einsum("i,i->", w[::2], h[1::2]) - np.einsum("i,i->", w[1::2], h[::2])
    return complex(np.einsum("i,i->", w, h), imag)


@dataclass(frozen=True, eq=False)
class BeamformingWeights:
    "Unit-norm complex receive weight vector."

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.weights, dtype=np.complex128)
        norm = math.sqrt(_squared_norm(arr))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"weights must have unit norm, got {norm!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class UplinkSimulation:
    """Monte-Carlo uplink setup: number of noise draws, noise power, transmit
    power (so transmit_power/noise_power is the transmit SNR), and RNG seed."""

    sample_count: int
    noise_power: float
    transmit_power: float
    seed: int

    def __post_init__(self) -> None:
        if not (isinstance(self.sample_count, Integral) and self.sample_count >= 1):
            raise ValueError("sample_count must be an integer >= 1")
        if not 0 < self.noise_power < math.inf:
            raise ValueError("noise_power must be positive and finite")
        if not 0 < self.transmit_power < math.inf:
            raise ValueError("transmit_power must be positive and finite")
        if not (isinstance(self.seed, Integral) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer that fits in 64 unsigned bits")


def mrc_weights(response: np.ndarray) -> BeamformingWeights:
    "Maximal-ratio combining weights: the response normalised to unit norm."
    norm = math.sqrt(_squared_norm(response))
    if not 0 < norm < math.inf:
        raise ValueError(f"cannot normalise a response vector of norm {norm}")
    # numpy divides by a real scalar as a product with its reciprocal, so
    # this multiplication gives the same bits without the complex division.
    return BeamformingWeights(response * (1.0 / norm))


def snr(weights: BeamformingWeights, response: np.ndarray, link: LinkBudget) -> float:
    """Linear SNR after receive beamforming: transmit SNR times the squared
    magnitude of the combined channel."""
    if len(weights) != len(response):
        raise ValueError(
            f"weights length {len(weights)} != response length {len(response)}"
        )
    return link.transmit_snr * abs(_combine(weights, response)) ** 2


def complex_gaussian(
    rng: np.random.Generator, shape: tuple, variance: float
) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples of the given total
    variance: one draw of interleaved real and imaginary parts, each scaled by
    sqrt(variance/2) and viewed as complex."""
    pairs = rng.standard_normal((*shape, 2))
    pairs *= math.sqrt(variance / 2.0)
    return pairs.view(np.complex128)[..., 0]


def uplink_power_estimates(
    response: np.ndarray, weights: BeamformingWeights, sim: UplinkSimulation
) -> tuple:
    """(signal power, empirical noise power) after beamforming.

    The signal power P*|g|^2, with g = w^H h, is computed: a unit-power
    symbol makes it the same in every sample.  The noise power is the mean of
    |w^H z|^2 over ``sample_count`` draws of white complex Gaussian noise z
    across the elements.

    The draws run in blocks of ``block_rows(len(response))`` samples, each
    drawn, combined and squared while it is in cache; at 320 elements a
    block is 204 samples, about 1 MB.  ``standard_normal`` fills the PCG64
    stream in C order, so the values drawn, and with them the estimate's
    bits, do not depend on the block size.
    """
    if len(weights) != len(response):
        raise ValueError(
            f"weights length {len(weights)} != response length {len(response)}"
        )
    conj_weights = np.conj(weights.weights)
    count = sim.sample_count
    rows = block_rows(len(response))

    noise_samples = np.empty(count)
    rng = np.random.Generator(np.random.PCG64(sim.seed))
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        noise = complex_gaussian(rng, (stop - start, len(response)), sim.noise_power)
        combined_noise = np.einsum("ij,j->i", noise, conj_weights)
        noise_samples[start:stop] = np.abs(combined_noise) ** 2

    signal_power = sim.transmit_power * abs(_combine(weights, response)) ** 2
    noise_power = compensated_sum(memoryview(noise_samples)) / count
    return signal_power, noise_power


def simulate_uplink(
    response: np.ndarray, weights: BeamformingWeights, sim: UplinkSimulation
) -> float:
    "Empirical linear SNR estimate; deterministic for a fixed seed."
    signal_power, noise_power = uplink_power_estimates(response, weights, sim)
    return signal_power / noise_power
