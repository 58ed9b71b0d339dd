"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.channel.quantize import FixedPointFormat, UniformQuantizer
from repro.codes.parity_check import ParityCheckMatrix
from repro.codes.qc import CirculantSpec, QCLDPCCode
from repro.decode import BatchedMinSumDecoder, DecodeResult, MinSumDecoder
from repro.decode.graph import tanner_graph
from repro.gf2.circulant import Circulant
from repro.gf2.dense import gf2_matmul, gf2_matvec, gf2_null_space, gf2_rank
from repro.gf2.polynomial import poly_add, poly_degree, poly_divmod, poly_mul, poly_trim
from repro.gf2.sparse import SparseBinaryMatrix

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
binary_matrices = st.integers(2, 8).flatmap(
    lambda rows: st.integers(2, 10).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        ).map(lambda data: np.array(data, dtype=np.uint8))
    )
)

polynomials = st.lists(st.integers(0, 1), min_size=1, max_size=12).map(
    lambda coeffs: np.array(coeffs, dtype=np.uint8)
)


def circulants(max_size: int = 16):
    return st.integers(2, max_size).flatmap(
        lambda size: st.lists(
            st.integers(0, size - 1), min_size=0, max_size=min(4, size), unique=True
        ).map(lambda positions: Circulant(size, tuple(positions)))
    )


# --------------------------------------------------------------------------- #
# GF(2) algebra invariants
# --------------------------------------------------------------------------- #
class TestGF2Properties:
    @SETTINGS
    @given(binary_matrices)
    def test_rank_bounded_by_dimensions(self, matrix):
        rank = gf2_rank(matrix)
        assert 0 <= rank <= min(matrix.shape)

    @SETTINGS
    @given(binary_matrices)
    def test_rank_equals_transpose_rank(self, matrix):
        assert gf2_rank(matrix) == gf2_rank(matrix.T)

    @SETTINGS
    @given(binary_matrices)
    def test_rank_nullity_theorem(self, matrix):
        nullity = gf2_null_space(matrix).shape[0]
        assert gf2_rank(matrix) + nullity == matrix.shape[1]

    @SETTINGS
    @given(binary_matrices)
    def test_null_space_vectors_are_in_kernel(self, matrix):
        for row in gf2_null_space(matrix):
            assert not gf2_matvec(matrix, row).any()


class TestPolynomialProperties:
    @SETTINGS
    @given(polynomials, polynomials)
    def test_addition_commutes(self, a, b):
        assert np.array_equal(poly_add(a, b), poly_add(b, a))

    @SETTINGS
    @given(polynomials, polynomials)
    def test_multiplication_commutes(self, a, b):
        assert np.array_equal(poly_mul(a, b), poly_mul(b, a))

    @SETTINGS
    @given(polynomials, polynomials)
    def test_degree_of_product(self, a, b):
        da, db = poly_degree(a), poly_degree(b)
        dp = poly_degree(poly_mul(a, b))
        if da < 0 or db < 0:
            assert dp < 0
        else:
            assert dp == da + db

    @SETTINGS
    @given(polynomials, polynomials)
    def test_division_identity(self, a, b):
        if poly_degree(b) < 0:
            return
        quotient, remainder = poly_divmod(a, b)
        reconstructed = poly_add(poly_mul(quotient, b), remainder)
        assert np.array_equal(poly_trim(reconstructed), poly_trim(a))


class TestCirculantProperties:
    @SETTINGS
    @given(circulants())
    def test_dense_is_circulant(self, circulant):
        dense = circulant.to_dense()
        for i in range(1, circulant.size):
            assert np.array_equal(dense[i], np.roll(dense[i - 1], 1))

    @SETTINGS
    @given(circulants(12), st.data())
    def test_product_matches_dense(self, a, data):
        b = data.draw(
            st.lists(
                st.integers(0, a.size - 1), min_size=0, max_size=min(3, a.size), unique=True
            ).map(lambda positions: Circulant(a.size, tuple(positions)))
        )
        expected = gf2_matmul(a.to_dense(), b.to_dense())
        assert np.array_equal((a @ b).to_dense(), expected)

    @SETTINGS
    @given(circulants(12))
    def test_transpose_involution(self, circulant):
        assert circulant.transpose().transpose() == circulant

    @SETTINGS
    @given(circulants(12))
    def test_weight_preserved_in_dense(self, circulant):
        dense = circulant.to_dense()
        assert (dense.sum(axis=1) == circulant.weight).all()


# --------------------------------------------------------------------------- #
# Sparse matrix / code invariants
# --------------------------------------------------------------------------- #
class TestSparseProperties:
    @SETTINGS
    @given(binary_matrices)
    def test_dense_sparse_roundtrip(self, matrix):
        assert np.array_equal(SparseBinaryMatrix.from_dense(matrix).to_dense(), matrix)

    @SETTINGS
    @given(binary_matrices, st.integers(0, 2**32 - 1))
    def test_matvec_matches_dense(self, matrix, seed):
        rng = np.random.default_rng(seed)
        vector = rng.integers(0, 2, size=matrix.shape[1], dtype=np.uint8)
        sparse = SparseBinaryMatrix.from_dense(matrix)
        assert np.array_equal(sparse.matvec(vector), gf2_matvec(matrix, vector))

    @SETTINGS
    @given(binary_matrices)
    def test_degree_sums_equal_nnz(self, matrix):
        pcm = ParityCheckMatrix(matrix)
        assert pcm.check_degrees().sum() == pcm.num_edges
        assert pcm.bit_degrees().sum() == pcm.num_edges


class TestQCCodeProperties:
    @SETTINGS
    @given(
        st.integers(3, 9),
        st.integers(1, 3),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_expansion_dimensions_and_weights(self, circulant_size, row_blocks, col_blocks, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(row_blocks):
            row = []
            for _ in range(col_blocks):
                weight = int(rng.integers(0, min(2, circulant_size)) + 1)
                positions = tuple(
                    int(p) for p in rng.choice(circulant_size, size=weight, replace=False)
                )
                row.append(positions)
            rows.append(tuple(row))
        spec = CirculantSpec(circulant_size, tuple(rows))
        code = QCLDPCCode(spec)
        pcm = code.parity_check_matrix()
        assert pcm.block_length == circulant_size * col_blocks
        assert pcm.num_checks == circulant_size * row_blocks
        assert pcm.num_edges == spec.total_edges()
        # Column degrees within one block column are all equal (circulant property).
        degrees = pcm.bit_degrees().reshape(col_blocks, circulant_size)
        assert (degrees == degrees[:, :1]).all()


# --------------------------------------------------------------------------- #
# Decoder kernel invariants
# --------------------------------------------------------------------------- #
class TestDecoderKernelProperties:
    @SETTINGS
    @given(binary_matrices, st.integers(0, 2**32 - 1))
    def test_min_sum_magnitude_never_exceeds_inputs(self, matrix, seed):
        if not matrix.any():
            return
        pcm = ParityCheckMatrix(matrix)
        structure = tanner_graph(pcm)
        rng = np.random.default_rng(seed)
        messages = rng.normal(0, 3, size=(1, structure.num_edges))
        out = structure.min_sum_extrinsic(messages)
        max_in = np.abs(messages).max()
        assert (np.abs(out) <= max_in + 1e-9).all()

    @SETTINGS
    @given(binary_matrices, st.integers(0, 2**32 - 1))
    def test_bp_magnitude_bounded_by_min_sum(self, matrix, seed):
        if not matrix.any():
            return
        pcm = ParityCheckMatrix(matrix)
        structure = tanner_graph(pcm)
        rng = np.random.default_rng(seed)
        messages = rng.normal(0, 2, size=(1, structure.num_edges))
        bp = structure.sum_product_extrinsic(messages)
        ms = structure.min_sum_extrinsic(messages)
        assert (np.abs(bp) <= np.abs(ms) + 1e-6).all()

    @SETTINGS
    @given(binary_matrices, st.integers(0, 2**32 - 1))
    def test_bit_node_update_linearity_in_channel(self, matrix, seed):
        pcm = ParityCheckMatrix(matrix)
        structure = tanner_graph(pcm)
        rng = np.random.default_rng(seed)
        llrs = rng.normal(size=(1, pcm.block_length))
        c2b = rng.normal(size=(1, structure.num_edges))
        _, posterior = structure.bit_node_update(llrs, c2b)
        _, posterior_shifted = structure.bit_node_update(llrs + 1.0, c2b)
        assert np.allclose(posterior_shifted - posterior, 1.0)


# --------------------------------------------------------------------------- #
# Batched decoding invariants (small random parity-check matrices)
# --------------------------------------------------------------------------- #
class TestBatchedDecoderProperties:
    """The batched/serial contract on arbitrary small codes, not just the
    scaled CCSDS fixture: hypothesis draws the parity-check matrix."""

    @SETTINGS
    @given(binary_matrices, st.integers(0, 2**32 - 1))
    def test_batched_matches_serial_per_frame(self, matrix, seed):
        if not matrix.any():
            return
        pcm = ParityCheckMatrix(matrix)
        rng = np.random.default_rng(seed)
        llrs = rng.normal(0.5, 1.5, size=(5, pcm.block_length))
        got = BatchedMinSumDecoder(pcm, max_iterations=6).decode_batch(llrs)
        serial = MinSumDecoder(pcm, max_iterations=6)
        want = DecodeResult.stack([serial.decode(llrs[i]) for i in range(5)])
        assert np.array_equal(got.bits, want.bits)
        assert np.array_equal(got.iterations, want.iterations)
        assert np.array_equal(got.converged, want.converged)
        assert np.array_equal(got.posterior_llrs, want.posterior_llrs)

    @SETTINGS
    @given(binary_matrices, st.integers(0, 2**32 - 1))
    def test_outputs_frozen_at_convergence_iteration(self, matrix, seed):
        """Raising the iteration budget must not change any frame that
        already converged: its outputs were written (and its state dropped
        from the working set) at its convergence iteration."""
        if not matrix.any():
            return
        pcm = ParityCheckMatrix(matrix)
        rng = np.random.default_rng(seed)
        llrs = rng.normal(0.5, 1.5, size=(4, pcm.block_length))
        short = BatchedMinSumDecoder(pcm, max_iterations=6).decode_batch(llrs)
        long = BatchedMinSumDecoder(pcm, max_iterations=12).decode_batch(llrs)
        frozen = short.converged
        assert np.array_equal(long.iterations[frozen], short.iterations[frozen])
        assert np.array_equal(long.bits[frozen], short.bits[frozen])
        assert np.array_equal(
            long.posterior_llrs[frozen], short.posterior_llrs[frozen]
        )
        assert long.converged[frozen].all()

    @SETTINGS
    @given(binary_matrices, st.integers(0, 2**32 - 1))
    def test_codeword_in_records_zero_iterations(self, matrix, seed):
        if not matrix.any():
            return
        pcm = ParityCheckMatrix(matrix)
        rng = np.random.default_rng(seed)
        null = gf2_null_space(matrix)
        if null.shape[0]:
            combo = rng.integers(0, 2, size=null.shape[0], dtype=np.uint8)
            codeword = (combo @ null) % 2
        else:
            codeword = np.zeros(pcm.block_length, dtype=np.uint8)
        magnitudes = rng.uniform(0.5, 5.0, size=pcm.block_length)
        llrs = magnitudes * (1.0 - 2.0 * codeword.astype(np.float64))
        for decoder in (
            BatchedMinSumDecoder(pcm, max_iterations=6),
            MinSumDecoder(pcm, max_iterations=6),
        ):
            result = decoder.decode(llrs)
            assert bool(result.converged)
            assert int(result.iterations) == 0
            assert np.array_equal(result.bits, codeword)


# --------------------------------------------------------------------------- #
# Quantizer invariants
# --------------------------------------------------------------------------- #
class TestQuantizerProperties:
    @SETTINGS
    @given(
        st.integers(2, 10),
        st.integers(0, 5),
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
    )
    def test_quantization_is_idempotent_and_bounded(self, total_bits, fractional_bits, values):
        if fractional_bits >= total_bits:
            return
        quantizer = UniformQuantizer(FixedPointFormat(total_bits, fractional_bits))
        arr = np.array(values)
        once = quantizer.quantize(arr)
        assert np.array_equal(quantizer.quantize(once), once)
        low, high = quantizer.saturation
        assert (once >= low - 1e-12).all() and (once <= high + 1e-12).all()

    @SETTINGS
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=30))
    def test_quantization_error_bounded_by_half_step(self, values):
        fmt = FixedPointFormat(8, 2)
        quantizer = UniformQuantizer(fmt)
        arr = np.clip(np.array(values), -fmt.max_value, fmt.max_value)
        error = np.abs(quantizer.quantize(arr) - arr)
        assert (error <= fmt.step / 2 + 1e-12).all()


# --------------------------------------------------------------------------- #
# Fabric chaos invariants
# --------------------------------------------------------------------------- #
class TestFabricChaosProperties:
    """Random fault schedules over random small grids change nothing.

    The directed chaos battery (``test_fabric_chaos.py``) replays named
    schedules; this property sweeps the schedule space itself: any
    :meth:`FaultPlan.random` plan (worker ``w0`` is always spared, so the
    campaign must finish) over any fleet size and grid length leaves both
    the completed-point set and the stored curve bytes exactly equal to the
    serial engine's.
    """

    GRID = (2.0, 2.5, 3.0)
    _serial_cache: dict = {}

    @staticmethod
    def _spec(n_points):
        from repro.sim import SimulationConfig
        from repro.sim.campaign import (
            CampaignSpec,
            CodeSpec,
            DecoderSpec,
            ExperimentSpec,
        )

        return CampaignSpec(
            name="fabric-prop",
            seed=3,
            ebn0=TestFabricChaosProperties.GRID[:n_points],
            config=SimulationConfig(
                max_frames=30,
                target_frame_errors=5,
                batch_frames=10,
                all_zero_codeword=True,
            ),
            experiments=[
                ExperimentSpec(
                    label="nms",
                    code=CodeSpec(family="scaled", circulant=31),
                    decoder=DecoderSpec("nms", 8),
                )
            ],
        )

    @classmethod
    def _run(cls, n_points, fabric=None):
        import tempfile
        from pathlib import Path

        from repro.sim.campaign import CampaignScheduler, ResultStore

        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore.create(Path(tmp) / "store", cls._spec(n_points))
            CampaignScheduler(
                store.spec, store, telemetry=False, fabric=fabric
            ).run()
            completed = store.completed_ebn0("nms")
            curves = {
                path.name: path.read_bytes()
                for path in sorted(Path(store.directory).glob("*.curve.json"))
            }
        return completed, curves

    @classmethod
    def _serial(cls, n_points):
        cached = cls._serial_cache.get(n_points)
        if cached is None:
            cached = cls._run(n_points)
            cls._serial_cache[n_points] = cached
        return cached

    @settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(1, 3),
        workers=st.integers(1, 4),
    )
    def test_random_fault_schedule_is_invisible(self, seed, n_points, workers):
        from repro.fabric import FabricConfig, FaultPlan, LeasePolicy

        plan = FaultPlan.random(seed, workers)
        fabric = FabricConfig(
            local_workers=workers,
            policy=LeasePolicy(
                ttl=5.0,
                max_attempts=6,
                backoff_base=1.0,
                backoff_factor=2.0,
                straggler_after=6.0,
            ),
            fault_plan=plan,
            wall_clock=False,
        )
        completed, curves = self._run(n_points, fabric=fabric)
        serial_completed, serial_curves = self._serial(n_points)
        assert completed == serial_completed == set(self.GRID[:n_points])
        assert curves == serial_curves
