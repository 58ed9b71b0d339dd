"""Unit tests for repro.decode.graph (edge structure and update kernels)."""

import numpy as np
import pytest

from repro.codes.parity_check import ParityCheckMatrix
from repro.decode.graph import tanner_graph


@pytest.fixture
def small_structure(hamming_pcm):
    return tanner_graph(hamming_pcm)


def brute_force_min_sum(pcm, bit_to_check, scale=1.0, offset=0.0):
    """Reference check-node update computed edge by edge."""
    check_idx, bit_idx = pcm.edges()
    out = np.zeros_like(bit_to_check)
    for frame in range(bit_to_check.shape[0]):
        for e in range(check_idx.size):
            same_check = np.nonzero(check_idx == check_idx[e])[0]
            others = same_check[same_check != e]
            values = bit_to_check[frame, others]
            sign = np.prod(np.sign(values)) if values.size else 1.0
            sign = 1.0 if sign == 0 else sign
            magnitude = np.min(np.abs(values)) if values.size else 0.0
            magnitude = max(magnitude - offset, 0.0) * scale
            out[frame, e] = sign * magnitude
    return out


def brute_force_sum_product(pcm, bit_to_check):
    """Reference BP check-node update computed edge by edge."""
    check_idx, _ = pcm.edges()
    out = np.zeros_like(bit_to_check)
    for frame in range(bit_to_check.shape[0]):
        for e in range(check_idx.size):
            same_check = np.nonzero(check_idx == check_idx[e])[0]
            others = same_check[same_check != e]
            product = np.prod(np.tanh(bit_to_check[frame, others] / 2.0))
            product = np.clip(product, -1 + 1e-12, 1 - 1e-12)
            out[frame, e] = 2.0 * np.arctanh(product)
    return out


class TestStructure:
    def test_edge_counts(self, small_structure, hamming_pcm):
        assert small_structure.num_edges == hamming_pcm.num_edges
        assert small_structure.num_bits == 7
        assert small_structure.num_checks == 3

    def test_sum_per_bit_matches_bincount(self, small_structure, rng):
        values = rng.normal(size=(2, small_structure.num_edges))
        totals = small_structure.sum_per_bit(values)
        for frame in range(2):
            expected = np.bincount(
                small_structure.edge_bit, weights=values[frame], minlength=7
            )
            assert np.allclose(totals[frame], expected)

    def test_sum_per_check_matches_bincount(self, small_structure, rng):
        values = rng.normal(size=(3, small_structure.num_edges))
        totals = small_structure.sum_per_check(values)
        for frame in range(3):
            expected = np.bincount(
                small_structure.edge_check, weights=values[frame], minlength=3
            )
            assert np.allclose(totals[frame], expected)

    def test_gather_inverse_of_sum_shapes(self, small_structure, rng):
        per_bit = rng.normal(size=(1, 7))
        gathered = small_structure.gather_bits(per_bit)
        assert gathered.shape == (1, small_structure.num_edges)


class TestMinSumKernel:
    def test_matches_brute_force(self, hamming_pcm, rng):
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(3, structure.num_edges))
        fast = structure.min_sum_extrinsic(messages)
        slow = brute_force_min_sum(hamming_pcm, messages)
        assert np.allclose(fast, slow)

    def test_scale_and_offset(self, hamming_pcm, rng):
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(2, structure.num_edges))
        assert np.allclose(
            structure.min_sum_extrinsic(messages, scale=0.8),
            brute_force_min_sum(hamming_pcm, messages, scale=0.8),
        )
        assert np.allclose(
            structure.min_sum_extrinsic(messages, offset=0.3),
            brute_force_min_sum(hamming_pcm, messages, offset=0.3),
        )

    def test_duplicate_minimum_handled(self, hamming_pcm):
        structure = tanner_graph(hamming_pcm)
        # All magnitudes equal: the extrinsic magnitude must stay that value.
        messages = np.ones((1, structure.num_edges))
        out = structure.min_sum_extrinsic(messages)
        assert np.allclose(np.abs(out), 1.0)

    def test_matches_brute_force_on_qc_code(self, scaled_code, rng):
        pcm = scaled_code.parity_check_matrix()
        structure = tanner_graph(pcm)
        messages = rng.normal(size=(1, structure.num_edges))
        fast = structure.min_sum_extrinsic(messages)
        # Only check a subset of edges against brute force (the full brute
        # force on 992 edges x 32-degree checks is still fast enough).
        slow = brute_force_min_sum(pcm, messages)
        assert np.allclose(fast, slow)


class TestSumProductKernel:
    def test_matches_brute_force(self, hamming_pcm, rng):
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(2, structure.num_edges))
        assert np.allclose(
            structure.sum_product_extrinsic(messages),
            brute_force_sum_product(hamming_pcm, messages),
            atol=1e-6,
        )

    def test_min_sum_upper_bounds_bp(self, hamming_pcm, rng):
        """|min-sum output| >= |BP output| on every edge (the known bias)."""
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(4, structure.num_edges))
        ms = np.abs(structure.min_sum_extrinsic(messages))
        bp = np.abs(structure.sum_product_extrinsic(messages))
        assert (ms >= bp - 1e-9).all()

    def test_signs_agree(self, hamming_pcm, rng):
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(2, structure.num_edges)) * 3
        ms = structure.min_sum_extrinsic(messages)
        bp = structure.sum_product_extrinsic(messages)
        nonzero = (np.abs(ms) > 1e-9) & (np.abs(bp) > 1e-9)
        assert np.array_equal(np.sign(ms[nonzero]), np.sign(bp[nonzero]))


class TestBitNodeUpdate:
    def test_posterior_is_channel_plus_all_messages(self, small_structure, rng):
        llrs = rng.normal(size=(2, 7))
        check_to_bit = rng.normal(size=(2, small_structure.num_edges))
        _, posterior = small_structure.bit_node_update(llrs, check_to_bit)
        expected = llrs + small_structure.sum_per_bit(check_to_bit)
        assert np.allclose(posterior, expected)

    def test_extrinsic_excludes_own_message(self, small_structure, rng):
        llrs = rng.normal(size=(1, 7))
        check_to_bit = rng.normal(size=(1, small_structure.num_edges))
        bit_to_check, posterior = small_structure.bit_node_update(llrs, check_to_bit)
        gathered = small_structure.gather_bits(posterior)
        assert np.allclose(bit_to_check, gathered - check_to_bit)

    def test_syndrome_ok(self, small_structure):
        zero = np.zeros((2, 7), dtype=np.uint8)
        assert small_structure.syndrome_ok(zero).tolist() == [True, True]


class TestGraphSharing:
    """Every decoder on one code holds the one cached graph (and its layers)."""

    def test_decoders_on_one_code_share_graph_layout_and_layers(self, scaled_code):
        from repro.decode import (
            BatchedLayeredMinSumDecoder,
            GallagerBDecoder,
            LayeredMinSumDecoder,
            NormalizedMinSumDecoder,
        )

        decoders = [
            NormalizedMinSumDecoder(scaled_code),
            NormalizedMinSumDecoder(scaled_code, alpha=1.5),
            LayeredMinSumDecoder(scaled_code),
            BatchedLayeredMinSumDecoder(scaled_code),
            GallagerBDecoder(scaled_code),
        ]
        graph = decoders[0].edge_structure
        assert all(decoder.edge_structure is graph for decoder in decoders)
        # The lazily built padded layout is built once, for everyone.
        layout = decoders[1].edge_structure._padded_check_layout()
        assert graph._padded_check_layout() is layout
        layered, batched = decoders[2], decoders[3]
        assert len(layered.layers) == layered.num_layers
        assert all(a is b for a, b in zip(layered.layers, batched.layers))
