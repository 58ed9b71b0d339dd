"""Unit tests for repro.codes.ccsds_c2 (structure of the CCSDS C2 code)."""

import os

import pytest

from repro.codes.ccsds_c2 import (
    CCSDS_C2_BLOCK_LENGTH,
    CCSDS_C2_CIRCULANT_SIZE,
    CCSDS_C2_COLUMN_BLOCKS,
    CCSDS_C2_NUM_CHECKS,
    CCSDS_C2_ROW_BLOCKS,
    CCSDS_C2_TX_FRAME_LENGTH,
    CCSDS_C2_TX_INFO_BITS,
    build_ccsds_c2_code,
    build_ccsds_c2_spec,
    build_ccsds_c2_transmission_code,
    build_scaled_ccsds_code,
)
from repro.codes.construction import spec_has_four_cycle
from repro.decode import NormalizedMinSumDecoder
from repro.sim.montecarlo import MonteCarloSimulator, SimulationConfig

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE") == "1"


class TestConstants:
    def test_paper_section_2_2_values(self):
        """Section 2.2: 2 x 16 array of 511 x 511 circulants -> 1022 x 8176 H."""
        assert CCSDS_C2_CIRCULANT_SIZE == 511
        assert CCSDS_C2_ROW_BLOCKS == 2
        assert CCSDS_C2_COLUMN_BLOCKS == 16
        assert CCSDS_C2_BLOCK_LENGTH == 8176
        assert CCSDS_C2_NUM_CHECKS == 1022
        assert CCSDS_C2_TX_FRAME_LENGTH == 8160
        assert CCSDS_C2_TX_INFO_BITS == 7136


class TestFullSizeSpec:
    def test_spec_structure(self):
        spec = build_ccsds_c2_spec()
        assert spec.circulant_size == 511
        assert spec.row_blocks == 2
        assert spec.col_blocks == 16
        # Row weight 2 per circulant -> total row weight 32, column weight 4.
        assert spec.row_weight() == 32
        assert spec.column_weight() == 4
        assert spec.total_edges() == 32 * 1022

    def test_spec_is_girth_6(self):
        assert not spec_has_four_cycle(build_ccsds_c2_spec())

    def test_spec_deterministic(self):
        assert build_ccsds_c2_spec() == build_ccsds_c2_spec()

    def test_full_code_shape_without_expansion(self):
        code = build_ccsds_c2_code()
        assert code.block_length == 8176
        assert code.num_checks == 1022
        assert code.num_edges == 32704


class TestScaledTwins:
    def test_scaled_structure_matches(self, scaled_code):
        assert scaled_code.spec.row_blocks == 2
        assert scaled_code.spec.col_blocks == 16
        assert scaled_code.spec.row_weight() == 32
        assert scaled_code.spec.column_weight() == 4

    def test_scaled_rate_close_to_full(self, scaled_code):
        # 7154/8176 = 0.875; scaled twins stay within a couple of percent.
        assert abs(scaled_code.rate - 0.875) < 0.02

    def test_different_sizes_give_different_lengths(self):
        assert build_scaled_ccsds_code(31).block_length == 31 * 16
        assert build_scaled_ccsds_code(63).block_length == 63 * 16


class TestTransmissionCode:
    def test_scaled_transmission_code(self):
        shortened = build_ccsds_c2_transmission_code(circulant_size=31)
        assert shortened.frame_length == round(8160 * 31 / 511)
        assert shortened.info_bits <= shortened.base_code.dimension
        assert shortened.num_shortened == shortened.base_code.dimension - shortened.info_bits
        assert 0.85 < shortened.rate < 0.9

    def test_scaled_transmission_code_simulates_random_data(self):
        """Regression: the virtual fill used to sit on parity (pivot) columns,
        so a random-data simulator refused the transmission code."""
        shortened = build_ccsds_c2_transmission_code(circulant_size=31)
        decoder = NormalizedMinSumDecoder(shortened, max_iterations=10)
        config = SimulationConfig(max_frames=10, target_frame_errors=10, batch_frames=5)
        point = MonteCarloSimulator(shortened, decoder, config=config, rng=8).run_point(7.0)
        assert point.frames == 10
        assert point.info_bits == point.frames * shortened.info_bits

    @pytest.mark.slow
    @pytest.mark.skipif(not FULL_SCALE, reason="full 8176-bit code (set REPRO_FULL_SCALE=1)")
    def test_full_transmission_code(self):
        shortened = build_ccsds_c2_transmission_code()
        assert shortened.frame_length == 8160
        assert shortened.info_bits == 7136
        assert shortened.rate == pytest.approx(7136 / 8160)
