import math
import tracemalloc

import numpy as np
import pytest

from modxl import geometry
from modxl.beamforming import (
    BeamformingWeights,
    UplinkSimulation,
    complex_gaussian,
    mrc_weights,
    simulate_uplink,
    snr,
    uplink_power_estimates,
)
from modxl.channel import LinkBudget, array_response_nusw
from modxl.geometry import BLOCK_ELEMENTS, ArrayGeometry, UserLocation

LINK = LinkBudget(wavelength_m=0.1256, transmit_snr=1e5)


def unit(vector) -> BeamformingWeights:
    arr = np.asarray(vector, dtype=np.complex128)
    return BeamformingWeights(arr / np.linalg.norm(arr))


class TestBeamformingWeights:
    def test_accepts_unit_norm(self):
        w = BeamformingWeights(np.array([0.6, 0.8j]))
        assert len(w) == 2
        with pytest.raises(ValueError):
            w.weights[0] = 1.0

    @pytest.mark.parametrize(
        "vector", [[1.0, 1.0], [0.5], [0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0]]
    )
    def test_rejects_other_norms(self, vector):
        with pytest.raises(ValueError):
            BeamformingWeights(np.array(vector))


class TestMrcWeights:
    def test_single_coefficient(self):
        w = mrc_weights(np.array([3.0 - 4.0j]))
        assert w.weights[0] == pytest.approx((3.0 - 4.0j) / 5.0, rel=1e-15)

    def test_magnitudes_follow_response(self):
        w = mrc_weights(np.array([1.0, 2.0j, -2.0]))
        np.testing.assert_allclose(np.abs(w.weights), np.array([1, 2, 2]) / 3.0,
                                   rtol=1e-15)

    def test_zero_response_rejected(self):
        with pytest.raises(ValueError):
            mrc_weights(np.zeros(3))

    @pytest.mark.parametrize(
        "vector", [[1.0, np.nan], [np.inf, 1.0], [np.nan * 1j]]
    )
    def test_non_finite_norm_rejected(self, vector):
        with pytest.raises(ValueError, match="cannot normalise"):
            mrc_weights(np.array(vector))


class TestSnr:
    def test_orthogonal_weights_give_zero(self):
        response = np.array([1.0, 0.0])
        assert snr(unit([0.0, 1.0]), response, LINK) == 0.0

    def test_single_element_value(self):
        geom = ArrayGeometry(1, 1, 0.0628, 1.0)
        response = array_response_nusw(geom, UserLocation(35.0), LINK)
        value = snr(mrc_weights(response), response, LINK)
        assert value == pytest.approx(1e5 / 1225.0, rel=1e-12)

    def test_mrc_value_is_power_times_norm(self):
        geom = ArrayGeometry(2, 2, 0.0628, 3.0)
        response = array_response_nusw(geom, UserLocation(20.0, 0.5), LINK)
        value = snr(mrc_weights(response), response, LINK)
        norm_sq = float(np.vdot(response, response).real)
        assert value == pytest.approx(LINK.transmit_snr * norm_sq, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            snr(unit([1.0]), np.array([1.0, 2.0]), LINK)

    def test_global_phase_invariance(self):
        response = np.array([0.3 + 0.1j, -0.2j, 0.05])
        base = mrc_weights(response)
        for phase in (0.4, 1.9, -2.7):
            rotated = BeamformingWeights(base.weights * np.exp(1j * phase))
            assert snr(rotated, response, LINK) == pytest.approx(
                snr(base, response, LINK), rel=1e-12
            )

    def test_mrc_maximises_over_random_weights(self):
        rng = np.random.Generator(np.random.PCG64(99))
        response = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        best = snr(mrc_weights(response), response, LINK)
        for _ in range(100):
            w = unit(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            assert snr(w, response, LINK) <= best * (1.0 + 1e-12)


class TestUplinkSimulation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sample_count=0, noise_power=1.0, transmit_power=1.0, seed=1),
            dict(sample_count=10, noise_power=0.0, transmit_power=1.0, seed=1),
            dict(sample_count=10, noise_power=1.0, transmit_power=-1.0, seed=1),
            dict(sample_count=10, noise_power=1.0, transmit_power=1.0, seed=2**64),
            dict(sample_count=10, noise_power=1.0, transmit_power=1.0, seed=-1),
            dict(sample_count=2.5, noise_power=1.0, transmit_power=1.0, seed=1),
            dict(sample_count=10, noise_power=1.0, transmit_power=1.0, seed=1.5),
            dict(sample_count=10, noise_power=math.inf, transmit_power=1.0, seed=1),
            dict(sample_count=10, noise_power=1.0, transmit_power=math.inf, seed=1),
            dict(sample_count=10, noise_power=math.nan, transmit_power=1.0, seed=1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            UplinkSimulation(**kwargs)

    def test_complex_gaussian_statistics(self):
        rng = np.random.Generator(np.random.PCG64(5))
        samples = complex_gaussian(rng, (50000,), 4.0)
        assert samples.dtype == np.complex128
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(4.0, rel=3e-2)

    def test_complex_gaussian_components_of_a_2d_draw(self):
        # Each of the 200x250 samples is one (real, imag) pair of the same
        # draw: both halves carry variance/2 and are uncorrelated.
        rng = np.random.Generator(np.random.PCG64(6))
        samples = complex_gaussian(rng, (200, 250), 4.0)
        assert samples.shape == (200, 250)
        assert samples.dtype == np.complex128
        real, imag = samples.real.ravel(), samples.imag.ravel()
        assert np.var(real) == pytest.approx(2.0, rel=3e-2)
        assert np.var(imag) == pytest.approx(2.0, rel=3e-2)
        assert abs(np.corrcoef(real, imag)[0, 1]) < 2e-2

    def test_same_seed_is_bit_identical(self):
        geom = ArrayGeometry(4, 2, 0.0628, 3.0)
        response = array_response_nusw(geom, UserLocation(35.0, 0.3), LINK)
        weights = mrc_weights(response)
        sim = UplinkSimulation(20000, noise_power=1.0, transmit_power=1e5, seed=11)
        assert simulate_uplink(response, weights, sim) == simulate_uplink(
            response, weights, sim
        )

    def test_different_seeds_differ(self):
        response = np.array([0.1, 0.2j])
        weights = mrc_weights(response)
        first = UplinkSimulation(5000, 1.0, 1e5, seed=1)
        second = UplinkSimulation(5000, 1.0, 1e5, seed=2)
        assert simulate_uplink(response, weights, first) != simulate_uplink(
            response, weights, second
        )

    def test_signal_power_is_exact_for_unit_symbols(self):
        # A unit-power symbol gives every sample the same signal power
        # P*|w^H h|^2, so the estimate computes it exactly; only noise is drawn.
        response = np.array([0.02 + 0.01j, -0.03j, 0.015])
        weights = mrc_weights(response)
        sim = UplinkSimulation(4096, noise_power=1.0, transmit_power=1e5, seed=3)
        signal_power, noise_power = uplink_power_estimates(response, weights, sim)
        gain = combined_channel(weights.weights, response)
        assert signal_power == sim.transmit_power * np.abs(gain) ** 2
        assert noise_power == pytest.approx(1.0, rel=0.1)

    def test_estimate_tracks_analytic_snr(self):
        geom = ArrayGeometry(4, 2, 0.0628, 3.0)
        response = array_response_nusw(geom, UserLocation(35.0, 0.3), LINK)
        weights = mrc_weights(response)
        # Both cases have transmit SNR 1e5; the second checks that the noise
        # power scales the noise draw, its only way into the estimate.
        for noise_power, transmit_power in ((1.0, 1e5), (4.0, 4e5)):
            sim = UplinkSimulation(
                30000, noise_power=noise_power, transmit_power=transmit_power, seed=7
            )
            estimate = simulate_uplink(response, weights, sim)
            assert estimate == pytest.approx(snr(weights, response, LINK), rel=3e-2)

    def test_length_mismatch_rejected(self):
        sim = UplinkSimulation(10, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            uplink_power_estimates(np.array([1.0, 2.0]), unit([1.0]), sim)


def combined_channel(w, h):
    """w^H h from the interleaved real and imaginary parts of both vectors:
    real part w_re.h_re + w_im.h_im, imaginary part w_re.h_im - w_im.h_re."""
    w, h = w.view(np.float64), h.view(np.float64)
    imag = np.einsum("i,i->", w[::2], h[1::2]) - np.einsum("i,i->", w[1::2], h[::2])
    return complex(np.einsum("i,i->", w, h), imag)


def test_combined_channel_and_snr_match_vdot():
    # combined_channel repeats the module's formula, so np.vdot checks both
    # independently, to the rounding bound of a dot product of n terms:
    # |error| <= n * 2**-53 * ||w|| * ||h||, with ||w|| = 1.
    geom = ArrayGeometry(16, 64, 0.0628, 3.0)
    response = array_response_nusw(geom, UserLocation(35.0, 0.3), LINK)
    rng = np.random.Generator(np.random.PCG64(5))
    pairs = rng.standard_normal((len(response), 2))
    bound = 1e-15 * len(response) * np.linalg.norm(response)
    for weights in (mrc_weights(response), unit(pairs[:, 0] + 1j * pairs[:, 1])):
        expected = np.vdot(weights.weights, response)
        assert abs(combined_channel(weights.weights, response) - expected) <= bound
        assert math.sqrt(snr(weights, response, LINK) / LINK.transmit_snr) == (
            pytest.approx(abs(expected), abs=bound)
        )


def reference_power_estimates(response, weights, sim):
    "(signal, noise) power from one whole-sample pass: every draw at once."
    rng = np.random.Generator(np.random.PCG64(sim.seed))
    pairs = rng.standard_normal((sim.sample_count, len(response), 2))
    pairs *= math.sqrt(sim.noise_power / 2.0)
    noise = pairs.view(np.complex128)[..., 0]
    conj_weights = np.conj(weights.weights)
    samples = np.abs(np.einsum("ij,j->i", noise, conj_weights)) ** 2
    gain = combined_channel(weights.weights, response)
    return sim.transmit_power * abs(gain) ** 2, math.fsum(samples) / sim.sample_count


class TestUplinkBlocks:
    """The uplink draws its noise in blocks of ``BLOCK_ELEMENTS`` // elements
    samples.  Its estimates must be bit-identical to one whole-sample pass,
    and its memory must stay a few blocks in size."""

    @pytest.mark.parametrize(
        "block_elements, elements, count",
        [
            # 10 samples a block: last blocks of 1, 2 and 3 samples.
            (70, 7, 31),
            (70, 7, 32),
            (70, 7, 33),
            # A response longer than one block: one sample a block.
            (5, 7, 3),
            # The toolkit's own blocks of 204 samples at 320 elements.
            (BLOCK_ELEMENTS, 320, 2 * 204 + 1),
        ],
    )
    def test_bit_identical_to_one_pass(
        self, monkeypatch, block_elements, elements, count
    ):
        monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", block_elements)
        rng = np.random.Generator(np.random.PCG64(elements))
        response = rng.standard_normal(elements) + 1j * rng.standard_normal(elements)
        weights = mrc_weights(response)
        sim = UplinkSimulation(count, noise_power=2.5, transmit_power=1e3, seed=13)
        blocked = uplink_power_estimates(response, weights, sim)
        reference = reference_power_estimates(response, weights, sim)
        assert [v.hex() for v in blocked] == [v.hex() for v in reference]

    # Batches of 8,192 samples, two of them live at once, held 85 MB here.
    def test_memory_is_a_few_blocks(self, reference):
        response = array_response_nusw(
            reference.geometry, reference.user, reference.link
        )
        assert len(response) == 320
        weights = mrc_weights(response)
        sim = UplinkSimulation(50_000, noise_power=1.0, transmit_power=1e5, seed=7)
        block_mb = (BLOCK_ELEMENTS // 320) * 320 * 16 / 1e6
        tracemalloc.start()
        try:
            uplink_power_estimates(response, weights, sim)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb <= 50_000 * 8 / 1e6 + 4 * block_mb
