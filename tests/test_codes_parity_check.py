"""Unit tests for repro.codes.parity_check."""

import sys

import numpy as np
import pytest

import repro.gf2.dense
from repro.codes import build_scaled_ccsds_code
from repro.codes.parity_check import ParityCheckMatrix
from repro.codes.shortening import ShortenedCode
from repro.decode import NormalizedMinSumDecoder
from repro.encode import SystematicEncoder
from repro.sim.montecarlo import MonteCarloSimulator, SimulationConfig


class TestDimensions:
    def test_hamming_dimensions(self, hamming_pcm):
        assert hamming_pcm.num_checks == 3
        assert hamming_pcm.block_length == 7
        assert hamming_pcm.num_edges == 12
        assert hamming_pcm.rank == 3
        assert hamming_pcm.dimension == 4
        assert hamming_pcm.rate == pytest.approx(4 / 7)

    def test_design_rate(self, hamming_pcm):
        assert hamming_pcm.design_rate == pytest.approx(4 / 7)

    def test_scaled_code_rank_deficiency(self, scaled_code):
        pcm = scaled_code.parity_check_matrix()
        # Even column weight implies the rows of H sum to zero.
        assert pcm.rank < pcm.num_checks
        assert pcm.dimension == pcm.block_length - pcm.rank


class TestSystematicForm:
    def test_one_elimination_per_matrix(self, monkeypatch):
        """Dimension, encoders, a random-data simulator and shortening share
        one GF(2) row reduction of H."""
        calls = []
        real = repro.gf2.dense.gf2_row_reduce

        def counting(matrix):
            calls.append(np.shape(matrix))
            return real(matrix)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("repro") and (
                getattr(module, "gf2_row_reduce", None) is real
            ):
                monkeypatch.setattr(module, "gf2_row_reduce", counting)

        code = build_scaled_ccsds_code(31)
        assert code.dimension == 436
        first = SystematicEncoder(code)
        second = SystematicEncoder(code)
        decoder = NormalizedMinSumDecoder(code, max_iterations=5)
        config = SimulationConfig(max_frames=4, target_frame_errors=4, batch_frames=4)
        MonteCarloSimulator(code, decoder, config=config, rng=0).run_point(6.0)
        ShortenedCode.from_encoder(code, second, info_bits=code.dimension - 8)
        parity, info, _ = code.parity_check_matrix().systematic_form()
        assert len(calls) == 1
        for encoder in (first, second):
            assert np.array_equal(encoder.parity_positions, parity)
            assert np.array_equal(encoder.information_positions, info)

    def test_memo_is_shared_and_read_only(self, hamming_pcm):
        form = hamming_pcm.systematic_form()
        assert hamming_pcm.systematic_form() is form
        parity, info, packed = form
        assert parity.size == hamming_pcm.rank
        assert sorted(parity.tolist() + info.tolist()) == list(range(7))
        assert packed.shape == (hamming_pcm.rank, 1)
        for array in form:
            assert not array.flags.writeable


class TestDegrees:
    def test_hamming_degrees(self, hamming_pcm):
        assert hamming_pcm.check_degrees().tolist() == [4, 4, 4]
        assert hamming_pcm.bit_degrees().tolist() == [2, 2, 2, 3, 1, 1, 1]

    def test_regularity_detection(self, hamming_pcm, scaled_code):
        assert not hamming_pcm.is_regular()
        assert scaled_code.parity_check_matrix().is_regular()

    def test_degree_profile(self, scaled_code):
        profile = scaled_code.parity_check_matrix().degree_profile()
        assert profile["check"] == {32: scaled_code.num_checks}
        assert profile["bit"] == {4: scaled_code.block_length}


class TestSyndrome:
    def test_zero_codeword(self, hamming_pcm):
        assert hamming_pcm.is_codeword(np.zeros(7, dtype=np.uint8))

    def test_single_error_detected(self, hamming_pcm):
        word = np.zeros(7, dtype=np.uint8)
        word[2] = 1
        assert not hamming_pcm.is_codeword(word)

    def test_batch_codeword_check(self, hamming_pcm):
        words = np.zeros((3, 7), dtype=np.uint8)
        words[1, 0] = 1
        flags = hamming_pcm.is_codeword(words)
        assert flags.tolist() == [True, False, True]

    def test_syndrome_matches_dense(self, hamming_pcm, rng):
        word = rng.integers(0, 2, size=7, dtype=np.uint8)
        dense = hamming_pcm.to_dense()
        expected = (dense @ word) % 2
        assert np.array_equal(hamming_pcm.syndrome(word), expected)


class TestScatterViews:
    def test_scatter_count(self, scaled_code):
        pcm = scaled_code.parity_check_matrix()
        rows, cols = pcm.scatter()
        assert rows.size == pcm.num_edges
        assert cols.size == pcm.num_edges

    def test_density_grid_totals(self, scaled_code):
        pcm = scaled_code.parity_check_matrix()
        grid = pcm.density_grid(2, 16)
        assert grid.shape == (2, 16)
        assert grid.sum() == pcm.num_edges
        # The CCSDS structure has weight-2 circulants in every block.
        assert (grid == 2 * scaled_code.circulant_size).all()

    def test_density_grid_invalid_bins(self, hamming_pcm):
        with pytest.raises(ValueError):
            hamming_pcm.density_grid(0, 4)
