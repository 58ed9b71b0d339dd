"""Unit tests for the layered and fixed-point decoders."""

import numpy as np
import pytest

from repro.channel.awgn import ebn0_to_sigma
from repro.channel.llr import channel_llrs
from repro.channel.modulation import BPSKModulator
from repro.channel.quantize import FixedPointFormat
from repro.decode import (
    BatchedLayeredMinSumDecoder,
    LayeredMinSumDecoder,
    NormalizedMinSumDecoder,
    QuantizedMinSumDecoder,
)


@pytest.fixture(scope="module")
def noisy_frames(request):
    code = request.getfixturevalue("scaled_code")
    encoder = request.getfixturevalue("scaled_encoder")
    rng = np.random.default_rng(99)
    info = rng.integers(0, 2, size=(10, encoder.dimension), dtype=np.uint8)
    codewords = encoder.encode(info)
    sigma = ebn0_to_sigma(5.0, code.rate)
    received = BPSKModulator().modulate(codewords) + rng.normal(0, sigma, size=(10, code.block_length))
    return codewords, channel_llrs(received, sigma)


class TestLayeredDecoder:
    def test_noiseless_exact(self, scaled_code, scaled_encoder, rng):
        info = rng.integers(0, 2, size=scaled_encoder.dimension, dtype=np.uint8)
        codeword = scaled_encoder.encode(info)
        llrs = 8.0 * (1.0 - 2.0 * codeword.astype(np.float64))
        result = LayeredMinSumDecoder(scaled_code, max_iterations=5).decode(llrs)
        assert bool(result.converged)
        assert np.array_equal(result.bits, codeword)

    def test_corrects_moderate_noise(self, scaled_code, noisy_frames):
        codewords, llrs = noisy_frames
        result = LayeredMinSumDecoder(scaled_code, max_iterations=20).decode(llrs)
        assert int((result.bits != codewords).sum()) / codewords.size < 0.01

    def test_converges_at_least_as_fast_as_flooding(self, scaled_code, noisy_frames):
        """The layered schedule propagates information faster per iteration."""
        codewords, llrs = noisy_frames
        flooding = NormalizedMinSumDecoder(scaled_code, max_iterations=30).decode(llrs)
        layered = LayeredMinSumDecoder(scaled_code, max_iterations=30).decode(llrs)
        assert layered.average_iterations <= flooding.average_iterations + 0.5

    def test_number_of_layers_default(self, scaled_code):
        decoder = LayeredMinSumDecoder(scaled_code)
        assert decoder.num_layers == scaled_code.spec.row_blocks

    def test_explicit_layers(self, scaled_code, noisy_frames):
        codewords, llrs = noisy_frames
        result = LayeredMinSumDecoder(scaled_code, max_iterations=20, num_layers=4).decode(llrs)
        assert int((result.bits != codewords).sum()) / codewords.size < 0.01

    def test_parameter_validation(self, scaled_code):
        with pytest.raises(ValueError):
            LayeredMinSumDecoder(scaled_code, max_iterations=0)
        with pytest.raises(ValueError):
            LayeredMinSumDecoder(scaled_code, alpha=0.5)

    def test_wrong_length_rejected(self, scaled_code):
        with pytest.raises(ValueError):
            LayeredMinSumDecoder(scaled_code).decode(np.zeros(5))

    def test_degree_one_check_does_not_poison_posterior(self):
        """Regression: a degree-1 check (e.g. after puncturing/shortening) used
        to emit an infinite extrinsic magnitude in the layered schedule."""
        from repro.codes.parity_check import ParityCheckMatrix

        h = np.array(
            [
                [1, 1, 0, 1, 1, 0, 0],
                [1, 0, 1, 1, 0, 1, 0],
                [0, 1, 1, 1, 0, 0, 1],
                [0, 0, 0, 0, 0, 0, 1],  # degree-1 check
            ],
            dtype=np.uint8,
        )
        decoder = LayeredMinSumDecoder(ParityCheckMatrix(h), max_iterations=5, num_layers=2)
        rng = np.random.default_rng(0)
        result = decoder.decode(rng.normal(2.0, 1.0, size=(4, 7)))
        assert np.isfinite(result.posterior_llrs).all()
        # A clean all-zero codeword still decodes exactly.
        clean = decoder.decode(np.full(7, 5.0))
        assert bool(clean.converged)
        assert not clean.bits.any()

    def test_degree_one_check_matches_flooding_decoder(self):
        """The layered and flooding schedules agree on degree-1 handling.

        With one layer and one iteration the layered update degenerates to a
        flooding iteration (the posterior starts at the channel LLRs), so the
        posteriors must match exactly — including the zeroed extrinsic of the
        degree-1 check.
        """
        from repro.codes.parity_check import ParityCheckMatrix

        h = np.array(
            [
                [1, 1, 0, 1, 1, 0, 0],
                [1, 0, 1, 1, 0, 1, 0],
                [0, 1, 1, 1, 0, 0, 1],
                [0, 0, 0, 1, 0, 0, 0],  # degree-1 check on an interior bit
            ],
            dtype=np.uint8,
        )
        pcm = ParityCheckMatrix(h)
        rng = np.random.default_rng(3)
        llrs = rng.normal(1.0, 2.0, size=(8, 7))
        layered = LayeredMinSumDecoder(pcm, max_iterations=1, num_layers=1).decode(llrs)
        flooding = NormalizedMinSumDecoder(pcm, max_iterations=1).decode(llrs)
        assert np.isfinite(layered.posterior_llrs).all()
        np.testing.assert_allclose(layered.posterior_llrs, flooding.posterior_llrs)

    @pytest.mark.parametrize("num_layers", [1, 2, 4])
    def test_all_zero_check_row_serial_and_batched_agree(self, num_layers):
        """An all-zero check row has no edges; with one layer per check
        (``num_layers == num_checks``) a whole layer has zero edges.  The
        serial and batched schedules must still agree bit for bit."""
        from repro.codes.parity_check import ParityCheckMatrix

        h = np.array(
            [
                [1, 1, 0, 1, 1, 0, 0],
                [1, 0, 1, 1, 0, 1, 0],
                [0, 0, 0, 0, 0, 0, 0],  # all-zero check row
                [0, 1, 1, 1, 0, 0, 1],
            ],
            dtype=np.uint8,
        )
        pcm = ParityCheckMatrix(h)
        llrs = np.random.default_rng(5).normal(1.0, 2.0, size=(40, 7))
        serial = LayeredMinSumDecoder(pcm, max_iterations=5, num_layers=num_layers)
        batched = BatchedLayeredMinSumDecoder(
            pcm, max_iterations=5, num_layers=num_layers
        )
        expected = serial.decode(llrs)
        got = batched.decode(llrs)
        for field in ("bits", "posterior_llrs", "converged", "iterations"):
            np.testing.assert_array_equal(getattr(got, field), getattr(expected, field))
        assert np.isfinite(expected.posterior_llrs).all()


class TestQuantizedDecoder:
    def test_noiseless_exact(self, scaled_code, scaled_encoder, rng):
        info = rng.integers(0, 2, size=scaled_encoder.dimension, dtype=np.uint8)
        codeword = scaled_encoder.encode(info)
        llrs = 4.0 * (1.0 - 2.0 * codeword.astype(np.float64))
        result = QuantizedMinSumDecoder(scaled_code, max_iterations=5).decode(llrs)
        assert bool(result.converged)
        assert np.array_equal(result.bits, codeword)

    def test_corrects_moderate_noise(self, scaled_code, noisy_frames):
        codewords, llrs = noisy_frames
        result = QuantizedMinSumDecoder(scaled_code, max_iterations=20).decode(llrs)
        assert int((result.bits != codewords).sum()) / codewords.size < 0.02

    def test_posterior_on_quantized_grid(self, scaled_code, noisy_frames):
        """The channel values seen by the decoder are quantized; messages stay
        on the grid, so the posterior is a sum of grid values."""
        _, llrs = noisy_frames
        fmt = FixedPointFormat(total_bits=6, fractional_bits=2)
        decoder = QuantizedMinSumDecoder(scaled_code, max_iterations=5, message_format=fmt)
        result = decoder.decode(llrs[:2])
        scaled = np.asarray(result.posterior_llrs) / fmt.step
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)

    def test_coarser_quantization_degrades_or_matches(self, scaled_code, noisy_frames):
        codewords, llrs = noisy_frames
        fine = QuantizedMinSumDecoder(
            scaled_code, max_iterations=15, message_format=FixedPointFormat(8, 3)
        ).decode(llrs)
        coarse = QuantizedMinSumDecoder(
            scaled_code, max_iterations=15, message_format=FixedPointFormat(3, 0)
        ).decode(llrs)
        fine_errors = int((fine.bits != codewords).sum())
        coarse_errors = int((coarse.bits != codewords).sum())
        assert fine_errors <= coarse_errors

    def test_alpha_validation(self, scaled_code):
        with pytest.raises(ValueError):
            QuantizedMinSumDecoder(scaled_code, alpha=0.8)

    def test_channel_format_defaults_to_message_format(self, scaled_code):
        fmt = FixedPointFormat(5, 1)
        decoder = QuantizedMinSumDecoder(scaled_code, message_format=fmt)
        assert decoder.channel_format == fmt
