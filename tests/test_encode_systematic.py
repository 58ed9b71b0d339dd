"""Unit tests for repro.encode.systematic."""

import numpy as np
import pytest

from repro.codes.parity_check import ParityCheckMatrix, as_parity_check_matrix
from repro.encode.systematic import SystematicEncoder


class TestAsParityCheckMatrix:
    def test_passthrough(self, hamming_pcm):
        assert as_parity_check_matrix(hamming_pcm) is hamming_pcm

    def test_from_code_object(self, scaled_code):
        assert as_parity_check_matrix(scaled_code) is scaled_code.parity_check_matrix()

    def test_from_dense_array(self):
        h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        pcm = as_parity_check_matrix(h)
        assert isinstance(pcm, ParityCheckMatrix)
        assert pcm.block_length == 3


class TestHammingEncoder:
    def test_dimension(self, hamming_pcm):
        encoder = SystematicEncoder(hamming_pcm)
        assert encoder.dimension == 4
        assert encoder.block_length == 7

    def test_all_codewords_valid(self, hamming_pcm):
        encoder = SystematicEncoder(hamming_pcm)
        for value in range(16):
            info = np.array([(value >> i) & 1 for i in range(4)], dtype=np.uint8)
            assert hamming_pcm.is_codeword(encoder.encode(info))

    def test_encoding_is_linear(self, hamming_pcm, rng):
        encoder = SystematicEncoder(hamming_pcm)
        a = rng.integers(0, 2, size=4, dtype=np.uint8)
        b = rng.integers(0, 2, size=4, dtype=np.uint8)
        assert np.array_equal(
            encoder.encode(a ^ b), encoder.encode(a) ^ encoder.encode(b)
        )

    def test_information_recoverable(self, hamming_pcm, rng):
        encoder = SystematicEncoder(hamming_pcm)
        info = rng.integers(0, 2, size=4, dtype=np.uint8)
        assert np.array_equal(encoder.extract_information(encoder.encode(info)), info)

    def test_distinct_info_gives_distinct_codewords(self, hamming_pcm):
        encoder = SystematicEncoder(hamming_pcm)
        words = {tuple(encoder.encode(np.array([(v >> i) & 1 for i in range(4)], dtype=np.uint8))) for v in range(16)}
        assert len(words) == 16


class TestScaledCodeEncoder:
    def test_dimension_matches_code(self, scaled_code, scaled_encoder):
        assert scaled_encoder.dimension == scaled_code.dimension

    def test_batch_encoding_valid(self, scaled_code, scaled_encoder, rng):
        info = rng.integers(0, 2, size=(10, scaled_encoder.dimension), dtype=np.uint8)
        codewords = scaled_encoder.encode(info)
        assert codewords.shape == (10, scaled_code.block_length)
        assert bool(np.all(scaled_code.is_codeword(codewords)))

    def test_positions_partition_codeword(self, scaled_encoder):
        info = set(scaled_encoder.information_positions.tolist())
        parity = set(scaled_encoder.parity_positions.tolist())
        assert info.isdisjoint(parity)
        assert len(info) + len(parity) == scaled_encoder.block_length

    def test_wrong_info_length(self, scaled_encoder):
        with pytest.raises(ValueError):
            scaled_encoder.encode(np.zeros(scaled_encoder.dimension + 1, dtype=np.uint8))

    def test_non_binary_rejected(self, scaled_encoder):
        with pytest.raises(ValueError):
            scaled_encoder.encode(np.full(scaled_encoder.dimension, 2))


class TestParityCheckFingerprint:
    def test_fingerprint_distinguishes_shapes_and_content(self, hamming_pcm):
        from repro.encode.systematic import parity_check_fingerprint

        other = ParityCheckMatrix(
            np.array([[1, 1, 0, 1, 1, 0, 1], [1, 0, 1, 1, 0, 1, 0],
                      [0, 1, 1, 1, 0, 0, 1]], dtype=np.uint8)
        )
        assert parity_check_fingerprint(hamming_pcm) != parity_check_fingerprint(other)
        assert parity_check_fingerprint(hamming_pcm) == parity_check_fingerprint(hamming_pcm)
