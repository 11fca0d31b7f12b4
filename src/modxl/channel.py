"""Complex array response vectors for line-of-sight propagation.

Two models are provided: the non-uniform spherical wave (NUSW) response, in
which amplitude and phase both follow the exact per-element distance, and the
uniform plane wave (UPW) response, in which the amplitude is constant and the
phase progresses linearly across the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, UserLocation, distances, element_offsets


@dataclass(frozen=True)
class LinkBudget:
    """Link-level constants: carrier wavelength (metres), channel power gain at
    the 1 m reference distance, and transmit SNR (both linear).

    Only the product ``transmit_snr * reference_gain`` enters any SNR formula;
    it is exposed as :attr:`effective_power`.
    """

    wavelength_m: float
    reference_gain: float = 1.0
    transmit_snr: float = 1.0

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "reference_gain", "transmit_snr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 < self.effective_power < math.inf:
            raise ValueError(
                "effective_power (transmit_snr * reference_gain) must be "
                "positive and finite"
            )

    @property
    def effective_power(self) -> float:
        return self.transmit_snr * self.reference_gain


@dataclass(frozen=True, eq=False)
class ArrayResponse:
    """Per-element channel coefficients in module-major order (modules
    ascending, elements ascending within each module)."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coefficients, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    def __len__(self) -> int:
        return len(self.coefficients)


def _phasors(amplitude, path: np.ndarray, wavelength_m: float) -> ArrayResponse:
    """Coefficients amplitude * exp(-j*2*pi*path/wavelength), for a scalar or
    per-element ``amplitude``.  Overwrites ``path``, a fresh array.

    The phase phi is reduced by whole cycles to [-pi, pi], so long paths stay
    well conditioned.  With t = tan(-phi/2), the real and imaginary parts are
    amplitude * (1 - t^2)/(1 + t^2) = amplitude * cos(phi) and
    amplitude * 2t/(1 + t^2) = -amplitude * sin(phi).  One tangent costs a
    fraction of a cosine and a sine, and each pass writes in place into the
    halves of one complex array.
    """
    cycles = np.divide(path, wavelength_m, out=path)
    out = np.empty(cycles.shape, dtype=np.complex128)
    real, imag = out.real, out.imag
    cycles -= np.rint(cycles, out=real)
    cycles *= -math.pi
    t = np.tan(cycles, out=cycles)
    np.multiply(t, t, out=real)
    np.add(real, 1.0, out=imag)
    np.divide(amplitude, imag, out=imag)
    np.subtract(1.0, real, out=real)
    real *= imag
    imag *= t
    imag *= 2.0
    return ArrayResponse(out)


def array_response_nusw(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> ArrayResponse:
    """Spherical-wave response: coefficient sqrt(gain)/r_e * exp(-j*2*pi*r_e/wl)
    with r_e the exact element-to-user distance."""
    r = distances(geom, user)
    return _phasors(math.sqrt(link.reference_gain) / r, r, link.wavelength_m)


def array_response_upw(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> ArrayResponse:
    """Plane-wave response: constant amplitude sqrt(gain)/range and linear
    phase progression from the element axis offsets."""
    path = user.range_m - element_offsets(geom) * geom.element_spacing * math.sin(
        user.angle_rad
    )
    amplitude = math.sqrt(link.reference_gain) / user.range_m
    return _phasors(amplitude, path, link.wavelength_m)
