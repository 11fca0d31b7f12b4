"""The complex array response vector for line-of-sight propagation.

The non-uniform spherical wave (NUSW) response, in which amplitude and phase
both follow the exact per-element distance, is returned as a read-only
complex128 array of per-element coefficients in module-major order (modules
ascending, elements ascending within each module).  The plane-wave (UPW)
comparison enters only through its SNR, ``snr_models.snr_upw``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (
    ArrayGeometry,
    UserLocation,
    largest_squared_ratio,
    run_ratio_blocks,
)
from .numerics import np


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


def _write_phasors(amplitude: np.ndarray, cycles: np.ndarray, out: np.ndarray) -> None:
    """Write amplitude * exp(-j*2*pi*cycles) into the complex ``out``.
    Overwrites ``amplitude`` and ``cycles``, float arrays of the shape of
    ``out``.

    The phase phi is reduced by whole cycles to [-pi, pi], so long paths stay
    well conditioned.  With t = tan(-phi/2), the real and imaginary parts are
    amplitude * (1 - t^2)/(1 + t^2) = amplitude * cos(phi) and
    amplitude * 2t/(1 + t^2) = -amplitude * sin(phi).  One tangent costs a
    fraction of a cosine and a sine.
    """
    cycles -= np.rint(cycles)
    cycles *= -math.pi
    t = np.tan(cycles, out=cycles)
    square = t * t
    amplitude /= square + 1.0
    np.multiply(1.0 - square, amplitude, out=out.real)
    amplitude *= t
    np.multiply(amplitude, 2.0, out=out.imag)


def array_response_nusw(
    geom: ArrayGeometry, user: UserLocation, link: LinkBudget
) -> np.ndarray:
    """Spherical-wave response: coefficient sqrt(gain)/r_e * exp(-j*2*pi*r_e/wl)
    with r_e the exact element-to-user distance.  Each block of
    :func:`run_ratio_blocks` is turned into its coefficients while it is
    in cache, on the thread that made it.

    Raises ``OverflowError`` before the first block where the longest path
    in wavelengths is not finite, as above about 2.3e307 m at a 0.1256 m
    wavelength: no phase can be reduced from an infinite cycle count.
    """
    longest = math.sqrt(largest_squared_ratio(geom, user)) * user.range_m
    if not longest / link.wavelength_m < math.inf:
        raise OverflowError(f"element distances at range {user.range_m:.3g} m overflow")
    out = np.empty((geom.module_count, geom.elements_per_module), dtype=np.complex128)
    args = (math.sqrt(link.reference_gain), user.range_m, link.wavelength_m, out)
    run_ratio_blocks(geom, user, _coefficients, args)
    out.setflags(write=False)
    return out.ravel()


def _coefficients(args: tuple, start: int, stop: int, path: np.ndarray) -> None:
    """A block function of :func:`run_ratio_blocks`: the coefficients of
    modules ``start`` to ``stop``, into those rows of ``out``; ``path`` is
    overwritten.  ``args`` is (sqrt(gain), range, wavelength, out)."""
    gain, range_m, wavelength_m, out = args
    np.sqrt(path, out=path)
    path *= range_m
    amplitude = gain / path
    path /= wavelength_m
    _write_phasors(amplitude, path, out[start:stop])
