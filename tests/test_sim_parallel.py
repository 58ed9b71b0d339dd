"""Tests for shard planning, the shared driver loop and its transports."""

import numpy as np
import pytest

from repro.decode import MinSumDecoder, NormalizedMinSumDecoder
from repro.fabric import FabricPool, FilesystemBroker
from repro.sim import (
    EbN0Sweep,
    MonteCarloSimulator,
    PoolEntry,
    SharedWorkerPool,
    SimulationConfig,
    iter_shard_sizes,
)
from repro.sim.parallel import PointState
from repro.utils.rng import as_seed_sequence, spawn_seed_sequences


def _factory_for(code, iterations=8):
    def factory():
        return NormalizedMinSumDecoder(code, max_iterations=iterations)

    return factory


class _ExplodingDecoder:
    """Raises on the first frame; module-level so it pickles under fork."""

    def decode(self, llrs):
        raise RuntimeError("exploding test decoder")


def _exploding_decoder_factory():
    return _ExplodingDecoder()


class TestShardSchedule:
    def test_constant_without_adaptive(self):
        config = SimulationConfig(max_frames=100, target_frame_errors=10, batch_frames=32)
        sizes = list(iter_shard_sizes(config))
        assert sizes == [32, 32, 32, 4]

    def test_sizes_sum_to_budget(self):
        config = SimulationConfig(
            max_frames=777, target_frame_errors=10, batch_frames=10, adaptive_batch=True
        )
        assert sum(iter_shard_sizes(config)) == 777

    def test_adaptive_growth_is_geometric_and_capped(self):
        config = SimulationConfig(
            max_frames=10_000,
            target_frame_errors=10,
            batch_frames=8,
            adaptive_batch=True,
            batch_growth=2.0,
            max_batch_frames=100,
        )
        sizes = list(iter_shard_sizes(config))
        assert sizes[:4] == [8, 16, 32, 64]
        assert max(sizes) == 100
        # Once at the cap the size stays there (apart from the final remnant).
        assert sizes[4:-1] == [100] * (len(sizes) - 5)
        assert sum(sizes) == 10_000

    def test_adaptive_cap_default(self):
        config = SimulationConfig(
            max_frames=10**6, target_frame_errors=10, batch_frames=4, adaptive_batch=True
        )
        assert config.effective_max_batch_frames() == 256
        assert max(iter_shard_sizes(config)) == 256

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(batch_growth=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(batch_frames=16, max_batch_frames=8)


def _early_stop_case(scaled_code, scaled_encoder):
    config = SimulationConfig(
        max_frames=60, target_frame_errors=6, batch_frames=10, all_zero_codeword=True
    )

    def check(serial):
        assert serial.frame_errors >= 6  # the early-stop path is exercised

    return scaled_code, _factory_for(scaled_code), config, 2.0, 42, check


def _adaptive_case(scaled_code, scaled_encoder):
    config = SimulationConfig(
        max_frames=80,
        target_frame_errors=50,
        batch_frames=5,
        all_zero_codeword=True,
        adaptive_batch=True,
        max_batch_frames=40,
    )

    def check(serial):
        assert serial.frames == 80  # high SNR: budget exhausted, batches grew

    return scaled_code, _factory_for(scaled_code), config, 7.0, 9, check


def _shortened_random_case(scaled_code, scaled_encoder):
    from repro.codes.shortening import ShortenedCode

    shortened = ShortenedCode.from_encoder(
        scaled_code, scaled_encoder, info_bits=scaled_code.dimension - 8
    )
    config = SimulationConfig(max_frames=10, target_frame_errors=10, batch_frames=5)

    def check(point):
        assert point.bits == point.frames * shortened.transmitted_code_bits

    return shortened, _factory_for(scaled_code, iterations=10), config, 6.0, 6, check


ORACLE_CASES = {
    "early-stop": _early_stop_case,
    "adaptive-batching": _adaptive_case,
    "shortened-random-data": _shortened_random_case,
}

TRANSPORTS = ["pool-1", "pool-2", "pool-4", "fabric-inprocess", "fabric-filesystem"]


def _transport(name, entries, tmp_path, **pool_options):
    """Build one of the transports the shared driver loop runs over."""
    if name.startswith("pool-"):
        return SharedWorkerPool(entries, workers=int(name[5:]), **pool_options)
    broker = None
    if name == "fabric-filesystem":
        broker = FilesystemBroker.create(
            tmp_path / "broker", {"campaign": "oracle", "entries": {}}
        )
    return FabricPool(entries, broker=broker, workers=2)


class TestTransportOracle:
    """Every transport, through the one driver loop, reproduces the serial
    reference ``MonteCarloSimulator.run_point`` exactly."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_run_point(
        self, case, transport, scaled_code, scaled_encoder, tmp_path
    ):
        code, factory, config, ebn0, seed, check = ORACLE_CASES[case](
            scaled_code, scaled_encoder
        )
        simulator = MonteCarloSimulator(code, factory(), config=config, rng=seed)
        serial = simulator.run_point(ebn0)
        check(serial)
        entries = {"oracle": PoolEntry(code, factory, config)}
        state = PointState("oracle", ebn0, as_seed_sequence(seed), config)
        with _transport(transport, entries, tmp_path) as executor:
            assert executor.run_states([]) == []
            (point,) = executor.run_states([state])
        assert point == serial
        check(point)


class TestParallelDeterminism:
    def test_sweep_matches_serial(self, scaled_code):
        config = SimulationConfig(
            max_frames=40, target_frame_errors=5, batch_frames=10, all_zero_codeword=True
        )
        factory = _factory_for(scaled_code)
        grid = [2.0, 4.0, 6.0]
        serial = EbN0Sweep(scaled_code, factory, config=config, rng=11).run(grid)
        parallel = EbN0Sweep(
            scaled_code, factory, config=config, rng=11, workers=3
        ).run(grid)
        assert serial.points == parallel.points

    def test_run_overrides_constructor_workers(self, scaled_code):
        config = SimulationConfig(
            max_frames=20, target_frame_errors=5, batch_frames=10, all_zero_codeword=True
        )
        factory = _factory_for(scaled_code)
        sweep = EbN0Sweep(scaled_code, factory, config=config, rng=13, workers=2)
        parallel = sweep.run([3.0])
        serial = EbN0Sweep(scaled_code, factory, config=config, rng=13).run(
            [3.0], workers=None
        )
        assert parallel.points == serial.points


class TestParallelEngineBehaviour:
    def test_progress_reports_every_point(self, scaled_code):
        config = SimulationConfig(
            max_frames=20, target_frame_errors=5, batch_frames=10, all_zero_codeword=True
        )
        messages = []
        EbN0Sweep(
            scaled_code, _factory_for(scaled_code), config=config, rng=5, workers=2
        ).run([3.0, 5.0], progress=messages.append)
        assert len(messages) == 2
        assert all("Eb/N0" in m for m in messages)

    def test_empty_grid(self, scaled_code):
        sweep = EbN0Sweep(scaled_code, _factory_for(scaled_code), rng=1, workers=2)
        assert sweep.run([]).points == []

    def test_pool_is_reused_across_points(self, scaled_code):
        config = SimulationConfig(
            max_frames=10, target_frame_errors=5, batch_frames=5, all_zero_codeword=True
        )
        entries = {"only": PoolEntry(scaled_code, _factory_for(scaled_code), config)}
        seeds = spawn_seed_sequences(1, 2)
        with SharedWorkerPool(entries, workers=2) as pool:
            pool.run_states([PointState("only", 4.0, seeds[0], config)])
            processes = pool._pool
            pool.run_states([PointState("only", 5.0, seeds[1], config)])
            assert pool._pool is processes
        assert pool._pool is None  # closed on exit

    def test_spawn_context_rejects_unpicklable_factory(self, scaled_code, tmp_path):
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable")
        config = SimulationConfig(max_frames=10, target_frame_errors=5, batch_frames=5)
        entries = {  # closure factory: not picklable
            "oracle": PoolEntry(scaled_code, _factory_for(scaled_code), config)
        }
        (seed,) = spawn_seed_sequences(1, 1)
        pool = _transport("pool-2", entries, tmp_path, mp_context="spawn")
        with pytest.raises(TypeError, match="picklable"):
            pool.run_states([PointState("oracle", 3.0, seed, config)])
        pool.close()


class TestSharedWorkerPool:
    """The multi-experiment pool underneath the campaign scheduler."""

    def test_mixed_entries_reproduce_their_serial_engines(self, scaled_code):
        config_a = SimulationConfig(
            max_frames=40, target_frame_errors=6, batch_frames=10, all_zero_codeword=True
        )
        config_b = SimulationConfig(
            max_frames=30, target_frame_errors=4, batch_frames=5, all_zero_codeword=True
        )
        entries = {
            "nms": PoolEntry(scaled_code, _factory_for(scaled_code), config_a),
            "ms": PoolEntry(
                scaled_code,
                lambda: MinSumDecoder(scaled_code, max_iterations=8),
                config_b,
            ),
        }
        seeds = spawn_seed_sequences(17, 4)
        states = [
            PointState("nms", 2.0, seeds[0], config_a),
            PointState("ms", 2.0, seeds[1], config_b),
            PointState("nms", 4.0, seeds[2], config_a),
            PointState("ms", 4.0, seeds[3], config_b),
        ]
        with SharedWorkerPool(entries, workers=3) as pool:
            points = pool.run_states(states)
        # Each point must match the serial engine for its own entry+seed.
        seeds = spawn_seed_sequences(17, 4)
        serial_nms = MonteCarloSimulator(
            scaled_code, _factory_for(scaled_code)(), config=config_a, rng=0
        )
        serial_ms = MonteCarloSimulator(
            scaled_code, MinSumDecoder(scaled_code, max_iterations=8), config=config_b, rng=0
        )
        assert points[0] == serial_nms.run_point(2.0, rng=seeds[0])
        assert points[1] == serial_ms.run_point(2.0, rng=seeds[1])
        assert points[2] == serial_nms.run_point(4.0, rng=seeds[2])
        assert points[3] == serial_ms.run_point(4.0, rng=seeds[3])

    def test_on_point_receives_state_and_tag(self, scaled_code):
        config = SimulationConfig(
            max_frames=10, target_frame_errors=50, batch_frames=5, all_zero_codeword=True
        )
        entries = {"only": PoolEntry(scaled_code, _factory_for(scaled_code), config)}
        (seed,) = spawn_seed_sequences(1, 1)
        states = [PointState("only", 3.0, seed, config, tag={"marker": 42})]
        seen = []
        with SharedWorkerPool(entries, workers=2) as pool:
            pool.run_states(states, on_point=lambda s, p: seen.append((s.tag, p.frames)))
        assert seen == [({"marker": 42}, 10)]

    def test_unknown_state_key_rejected(self, scaled_code):
        config = SimulationConfig(max_frames=10, target_frame_errors=5, batch_frames=5)
        entries = {"only": PoolEntry(scaled_code, _factory_for(scaled_code), config)}
        (seed,) = spawn_seed_sequences(1, 1)
        with SharedWorkerPool(entries, workers=1) as pool:
            with pytest.raises(KeyError):
                pool.run_states([PointState("other", 3.0, seed, config)])

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            SharedWorkerPool({})

    def test_worker_exception_surfaces_without_deadlock(self, scaled_code):
        """A worker raising mid-shard must propagate, not hang the pool.

        Regression coverage for the PR 5 teardown semantics: the error
        re-raises in the parent when the failed shard's result is folded,
        the ``with`` block exits through the force/terminate path (an
        exception must not wait for speculative shards), and ``close`` is
        still idempotent afterwards.  A deadlock here would hang the whole
        suite, which is exactly the failure mode being pinned.
        """
        config = SimulationConfig(
            max_frames=40, target_frame_errors=10, batch_frames=5,
            all_zero_codeword=True,
        )
        entries = {
            "boom": PoolEntry(scaled_code, _exploding_decoder_factory, config)
        }
        (seed,) = spawn_seed_sequences(99, 1)
        pool = SharedWorkerPool(entries, workers=2)
        with pool:
            with pytest.raises(RuntimeError, match="exploding test decoder"):
                pool.run_states([PointState("boom", 3.0, seed, config)])
        assert pool._pool is None  # torn down by the exception exit
        pool.close()  # idempotent after the force path


class TestSweepResume:
    def test_resumed_sweep_is_bit_identical(self, scaled_code):
        config = SimulationConfig(
            max_frames=30, target_frame_errors=5, batch_frames=10, all_zero_codeword=True
        )
        factory = _factory_for(scaled_code)
        grid = [2.0, 4.0, 6.0]
        full = EbN0Sweep(scaled_code, factory, config=config, rng=23).run(
            grid, label="nms", metadata={"alpha": 1.25}
        )
        # A killed run of the same grid leaves behind a subset of the points
        # (each measured at its own grid position).
        from repro.sim import SimulationCurve

        partial = SimulationCurve(label="nms", metadata={"alpha": 1.25})
        partial.add(full.points[0])
        partial.add(full.points[2])
        # Resume fills in the missing middle point — serially and pooled.
        for workers in (None, 2):
            resumed = EbN0Sweep(
                scaled_code, factory, config=config, rng=23, workers=workers
            ).run(grid, resume=partial)
            assert resumed.points == full.points
            assert resumed.label == "nms"
            assert resumed.metadata == {"alpha": 1.25}

    def test_duplicate_grid_values_simulated_once(self, scaled_code):
        config = SimulationConfig(
            max_frames=20, target_frame_errors=5, batch_frames=10, all_zero_codeword=True
        )
        factory = _factory_for(scaled_code)
        deduped = EbN0Sweep(scaled_code, factory, config=config, rng=3).run([3.0, 5.0])
        duplicated = EbN0Sweep(scaled_code, factory, config=config, rng=3).run(
            [3.0, 5.0, 3.0]
        )
        assert duplicated.points == deduped.points

    def test_resume_with_everything_done_runs_nothing(self, scaled_code):
        config = SimulationConfig(
            max_frames=20, target_frame_errors=5, batch_frames=10, all_zero_codeword=True
        )
        factory = _factory_for(scaled_code)
        full = EbN0Sweep(scaled_code, factory, config=config, rng=5).run([3.0])
        calls = []
        resumed = EbN0Sweep(scaled_code, factory, config=config, rng=5).run(
            [3.0], resume=full, progress=calls.append
        )
        assert calls == []
        assert resumed.points == full.points
