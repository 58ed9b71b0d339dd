"""Sharded Monte-Carlo execution: one dispatch-and-fold loop, two transports.

Every parallel run in the repository — an :class:`~repro.sim.sweep.EbN0Sweep`
with ``workers=N``, a pooled campaign, a fabric campaign — goes through the
same loop, :meth:`ShardTransport.run_states`.  It drives a list of
:class:`PointState`\\ s (one per Eb/N0 point) to completion:

* shards are submitted round-robin across the active points, at most
  ``2 x transport.workers`` ahead of aggregation;
* completed shards are folded into each point's
  :class:`~repro.sim.statistics.ErrorCounter` strictly in shard order
  (:func:`~repro.sim.sharding.consume_shard`), and once the stopping rule
  triggers every speculative shard of that point is cancelled, never
  counted;
* ``on_shard`` observes each folded shard and ``on_point`` each finished
  point; both are write-only.

A transport only moves shards: :meth:`~ShardTransport.submit`,
:meth:`~ShardTransport.poll`, :meth:`~ShardTransport.cancel` and a
per-iteration :meth:`~ShardTransport.step`.  Two exist:

* :class:`SharedWorkerPool` — a ``multiprocessing`` pool whose workers hold
  a registry of simulators, one per :class:`PoolEntry` (code + decoder
  factory + config), built lazily on first use, so any mix of experiments
  shares one pool;
* :class:`~repro.fabric.pool.FabricPool` — shards leased through a work
  broker to embedded or external workers.

:meth:`MonteCarloSimulator.run_point
<repro.sim.montecarlo.MonteCarloSimulator.run_point>` stays the serial
reference the loop is checked against.  The determinism contract is per
point: the shard sizes come from the point's own config
(:func:`repro.sim.sharding.iter_shard_sizes`), shard ``i`` draws from child
``i`` of the point's :class:`numpy.random.SeedSequence`, and the stopping
rule sees the ordered prefix.  For a fixed seed a point therefore yields
bit-identical counts for any transport, any worker count and any
co-scheduled workload.

Pool workers are long-lived and build each simulator once.  On platforms
whose default start method is ``fork`` (Linux) codes and decoder factories
are inherited without pickling, so lambdas work; with ``spawn`` start
methods they must be picklable.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.obs import clock
from repro.obs.probe import StageAccumulator
from repro.sim.montecarlo import (
    BatchResult,
    MonteCarloSimulator,
    SimulationConfig,
    point_from_counter,
)
from repro.sim.results import SimulationPoint
from repro.sim.sharding import consume_shard, iter_shard_sizes
from repro.sim.statistics import ErrorCounter

__all__ = [
    "PoolEntry",
    "PointState",
    "ShardInfo",
    "ShardTransport",
    "SharedWorkerPool",
    "run_shard",
]

#: Dispatch at most this many shards per transport worker ahead of folding.
_INFLIGHT_PER_WORKER = 2


@dataclass(frozen=True)
class PoolEntry:
    """One simulatable configuration a transport can serve.

    ``decoder_factory`` is a zero-argument callable returning a fresh
    decoder; it runs once per simulator built.  ``pipeline`` is the
    modulator + channel pair
    (:class:`~repro.channel.pipeline.ChannelPipeline`) this entry simulates
    over; ``None`` means the default BPSK/AWGN pipeline.

    ``profiled`` switches worker-side telemetry on for this entry: shards
    time themselves and attach a per-stage breakdown (from a
    :class:`~repro.obs.probe.StageAccumulator` probe).  The flag travels
    inside the entry, so forked and spawned workers agree with the parent
    without consulting environment variables.  Profiling never changes
    counts — the byte-identity telemetry test pins that.
    """

    code: Any
    decoder_factory: Callable[[], Any]
    config: SimulationConfig = field(default_factory=SimulationConfig)
    pipeline: Any = None
    profiled: bool = False

    def simulator(self) -> MonteCarloSimulator:
        """Build this entry's simulator (every executor builds it here)."""
        return MonteCarloSimulator(
            self.code,
            self.decoder_factory(),
            config=self.config,
            rng=0,
            pipeline=self.pipeline,
            probe=StageAccumulator() if self.profiled else None,
        )


@dataclass(frozen=True)
class ShardInfo:
    """Who computed one shard and, for profiled entries, how long it took.

    ``worker`` is a pid (pool), a worker name (fabric) or ``0`` (serial).
    ``stage_seconds`` is ``None`` when the shard was not timed — an
    unprofiled entry, or a completion record from an external fabric worker
    — and ``seconds`` is then ``0.0``.
    """

    worker: int | str
    seconds: float = 0.0
    stage_seconds: dict[str, float] | None = None


def run_shard(
    simulator: MonteCarloSimulator,
    ebn0_db: float,
    size: int,
    seed: np.random.SeedSequence,
    worker: int | str,
) -> tuple[BatchResult, ShardInfo]:
    """Simulate one shard; time it when the simulator carries a stage probe."""
    sigma = simulator.sigma_for(ebn0_db)
    rng = np.random.default_rng(seed)
    probe = simulator.probe
    if not isinstance(probe, StageAccumulator):
        return simulator.run_batch(size, sigma, rng=rng), ShardInfo(worker)
    mark = probe.checkpoint()
    started = clock.monotonic()
    result = simulator.run_batch(size, sigma, rng=rng)
    seconds = clock.monotonic() - started
    _, _, stage_seconds = probe.since(mark)
    return result, ShardInfo(worker, seconds, stage_seconds)


class PointState:
    """Book-keeping of one in-flight Eb/N0 point.

    ``key`` selects the transport-side simulator (the :class:`PoolEntry`),
    ``tag`` is opaque caller metadata handed back with the completed point.
    """

    def __init__(
        self,
        key: Hashable,
        ebn0_db: float,
        seed_seq: np.random.SeedSequence,
        config: SimulationConfig,
        tag: Any = None,
    ) -> None:
        self.key = key
        self.ebn0_db = float(ebn0_db)
        self.seed_seq = seed_seq
        self.config = config
        self.tag = tag
        self.sizes = iter_shard_sizes(config)
        # (transport handle, shard_index, dispatched_at) tuples, in shard order.
        self.pending: deque[tuple[Any, int, float]] = deque()
        self.shards_dispatched = 0
        self.counter = ErrorCounter()
        self.stopped = False  # stopping rule triggered; discard further shards
        self.exhausted = False  # shard schedule fully dispatched

    @property
    def done(self) -> bool:
        return self.stopped or (self.exhausted and not self.pending)

    def next_shard(self) -> tuple[int, np.random.SeedSequence] | None:
        """Next ``(size, child_seed)`` to dispatch, or ``None``."""
        if self.stopped or self.exhausted:
            return None
        try:
            size = next(self.sizes)
        except StopIteration:
            self.exhausted = True
            return None
        (child,) = self.seed_seq.spawn(1)
        return size, child

    def to_point(self) -> SimulationPoint:
        return point_from_counter(self.ebn0_db, self.counter)


#: ``on_point(state, point)`` — a point finished (completion order).
PointObserver = Callable[[PointState, SimulationPoint], None]
#: ``on_shard(state, shard_index, result, info, dispatched_at)`` — a shard
#: was folded; ``dispatched_at`` is the :func:`repro.obs.clock.monotonic`
#: reading taken when it was submitted.
ShardObserver = Callable[[PointState, int, BatchResult, ShardInfo, float], None]


class ShardTransport:
    """Base of the executors that move shards; owns the one driver loop.

    A transport sets ``entries`` (key -> :class:`PoolEntry`) and ``workers``
    (its executor count, which sizes the in-flight cap) and implements:

    * :meth:`submit` — start one shard, return an opaque handle;
    * :meth:`poll` — the shard's ``(BatchResult, ShardInfo)`` or ``None``
      while it is outstanding; raises when the shard can never complete;
    * :meth:`cancel` — forget a speculative shard;
    * :meth:`step` — once per loop iteration, after submission and before
      folding; ``progressed`` says whether the previous iteration folded a
      shard or finished a point.
    """

    entries: dict[Any, PoolEntry]
    workers: int

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        return None

    def submit(
        self,
        key: Hashable,
        ebn0_db: float,
        shard_index: int,
        size: int,
        seed: np.random.SeedSequence,
    ) -> Any:
        raise NotImplementedError

    def poll(self, handle: Any) -> tuple[BatchResult, ShardInfo] | None:
        raise NotImplementedError

    def cancel(self, handle: Any) -> None:
        raise NotImplementedError

    def step(self, progressed: bool) -> None:
        raise NotImplementedError

    def run_states(
        self,
        states: Sequence[PointState],
        *,
        on_point: PointObserver | None = None,
        on_shard: ShardObserver | None = None,
    ) -> list[SimulationPoint]:
        """Drive every :class:`PointState` to completion over this transport.

        Dispatch is round-robin across the active states, so every point
        keeps the workers fed and early-stopping points release capacity
        quickly; ``on_point`` fires as each point completes (completion
        order, not input order).  Returns the points in input order.

        ``on_shard`` is the telemetry observer, called per folded shard
        strictly after its result exists and before the stopping rule;
        when set, dispatch timestamps are taken so the observer can split
        queue wait from compute.  Both callbacks are write-only: dispatch
        order, RNG spawning and stopping decisions are identical with or
        without them.
        """
        for state in states:
            if state.key not in self.entries:
                raise KeyError(f"state references unknown pool entry {state.key!r}")
        if not states:
            return []
        max_inflight = self.workers * _INFLIGHT_PER_WORKER
        active = list(states)
        progressed = True
        while active:
            inflight = sum(len(state.pending) for state in active)
            made_submission = True
            while inflight < max_inflight and made_submission:
                made_submission = False
                for state in active:
                    if inflight >= max_inflight:
                        break
                    shard = state.next_shard()
                    if shard is None:
                        continue
                    size, child = shard
                    index = state.shards_dispatched
                    dispatched_at = clock.monotonic() if on_shard is not None else 0.0
                    handle = self.submit(state.key, state.ebn0_db, index, size, child)
                    state.pending.append((handle, index, dispatched_at))
                    state.shards_dispatched += 1
                    inflight += 1
                    made_submission = True

            self.step(progressed)

            progressed = False
            for state in active:
                while state.pending:
                    handle, index, dispatched_at = state.pending[0]
                    shard_result = self.poll(handle)
                    if shard_result is None:
                        break
                    state.pending.popleft()
                    progressed = True
                    result, info = shard_result
                    if on_shard is not None:
                        on_shard(state, index, result, info, dispatched_at)
                    if not consume_shard(state.counter, result, state.config):
                        # Stopping rule hit: everything already dispatched
                        # beyond this shard is speculative, never counted.
                        state.stopped = True
                        for speculative, _, _ in state.pending:
                            self.cancel(speculative)
                        state.pending.clear()
            finished = [state for state in active if state.done]
            for state in finished:
                active.remove(state)
                progressed = True
                if on_point is not None:
                    on_point(state, state.to_point())
        return [state.to_point() for state in states]


# Worker-process state: the entry registry shipped by the initializer and the
# simulators built (lazily, per entry key) from it.
_WORKER_ENTRIES: dict[Any, PoolEntry] = {}
_WORKER_SIMULATORS: dict[Any, MonteCarloSimulator] = {}


def _init_worker(entries: dict[Any, PoolEntry]) -> None:
    """Pool initializer: receive the entry registry."""
    global _WORKER_ENTRIES, _WORKER_SIMULATORS
    _WORKER_ENTRIES = dict(entries)
    _WORKER_SIMULATORS = {}


def _run_pool_shard(
    key: Hashable, ebn0_db: float, size: int, seed: np.random.SeedSequence
) -> tuple[BatchResult, ShardInfo]:
    """Pool task body: one shard on this worker's simulator for ``key``."""
    simulator = _WORKER_SIMULATORS.get(key)
    if simulator is None:
        simulator = _WORKER_SIMULATORS[key] = _WORKER_ENTRIES[key].simulator()
    return run_shard(simulator, ebn0_db, size, seed, os.getpid())


class SharedWorkerPool(ShardTransport):
    """A ``multiprocessing`` pool transport serving any number of experiments.

    Parameters
    ----------
    entries:
        Mapping from an arbitrary hashable key to the :class:`PoolEntry`
        (code, decoder factory, config) that key simulates.  Every worker
        can serve every entry; simulators are built lazily on first use.
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    mp_context:
        ``multiprocessing`` context (or start-method name); defaults to
        ``fork`` when available so non-picklable factories work.

    The pool is a context manager; processes start lazily on the first
    submitted shard and are torn down by :meth:`close` / ``with``-exit.
    """

    def __init__(
        self,
        entries: Mapping[Any, PoolEntry],
        *,
        workers: int | None = None,
        mp_context: Any = None,
    ) -> None:
        if not entries:
            raise ValueError("a SharedWorkerPool needs at least one entry")
        self.entries = dict(entries)
        self.workers = max(1, int(workers or os.cpu_count() or 1))
        if mp_context is None or isinstance(mp_context, str):
            methods = multiprocessing.get_all_start_methods()
            method = mp_context if isinstance(mp_context, str) else (
                "fork" if "fork" in methods else None
            )
            mp_context = multiprocessing.get_context(method)
        self._ctx = mp_context
        self._pool: Any = None
        # Submitted, not yet folded or cancelled, oldest first.
        self._outstanding: dict[Any, None] = {}

    # ------------------------------------------------------------------ #
    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        # Bail out hard when an exception is unwinding (a Ctrl-C must not
        # wait for speculative shards); shut down gracefully otherwise.
        self.close(force=exc_type is not None)

    def close(self, *, force: bool = False) -> None:
        """Shut the worker pool down (idempotent).

        The default path closes the pool and *joins* it: workers drain the
        few speculative shards still queued (each is one small batch), the
        task-handler thread sees the drained queue and exits, and teardown
        is deterministic.  ``Pool.terminate`` — kept for ``force`` — kills
        workers while the handler thread may be blocked writing to the task
        queue, a known CPython race that intermittently deadlocks the join;
        paying for at most ``workers x inflight`` tiny shards is cheaper
        than a hung interpreter.
        """
        if self._pool is not None:
            if force:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
            self._pool = None
        self._outstanding.clear()

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            if self._ctx.get_start_method() != "fork":
                # Spawn/forkserver pickle the initargs; fail with an
                # actionable message instead of an opaque PicklingError deep
                # inside Pool (every in-repo factory is a lambda or closure,
                # which only works under fork).
                import pickle

                try:
                    pickle.dumps(self.entries)
                except Exception as exc:
                    raise TypeError(
                        "every code/decoder_factory must be picklable with "
                        f"the '{self._ctx.get_start_method()}' start method; "
                        "use module-level factory functions (lambdas and "
                        "closures only work where 'fork' is available)"
                    ) from exc
            self._pool = self._ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.entries,),
            )
        return self._pool

    # ------------------------------------------------------------------ #
    def submit(
        self,
        key: Hashable,
        ebn0_db: float,
        shard_index: int,
        size: int,
        seed: np.random.SeedSequence,
    ) -> Any:
        handle = self._ensure_pool().apply_async(
            _run_pool_shard, (key, ebn0_db, size, seed)
        )
        self._outstanding[handle] = None
        return handle

    def poll(self, handle: Any) -> tuple[BatchResult, ShardInfo] | None:
        if not handle.ready():
            return None
        self._outstanding.pop(handle, None)
        shard: tuple[BatchResult, ShardInfo] = handle.get()  # re-raises
        return shard

    def cancel(self, handle: Any) -> None:
        # A pool task cannot be recalled; its result is simply never read.
        self._outstanding.pop(handle, None)

    def step(self, progressed: bool) -> None:
        if not progressed and self._outstanding:
            # Nothing folded last time round: block briefly on the oldest
            # outstanding shard instead of spinning.
            next(iter(self._outstanding)).wait(0.01)
