"""FabricPool: the broker transport under the shared shard-dispatch loop.

:class:`~repro.sim.parallel.ShardTransport.run_states` is the one loop that
submits shards, folds them in shard order and cancels speculative ones;
:class:`~repro.sim.parallel.SharedWorkerPool` and this class are the two
transports it drives.  Here a submitted shard becomes a self-describing
:class:`~repro.fabric.jobs.ShardJob` handed to a
:class:`~repro.fabric.broker.Broker`, and any mix of executors may serve it:

* **embedded workers** — in-process executors stepped synchronously by
  :meth:`FabricPool.step`.  Under the logical clock (``wall_clock=False``)
  the whole run is a deterministic discrete-event simulation: one loop
  iteration is one tick, lease grants and expiries happen at exact ticks,
  and a seeded :class:`~repro.fabric.faults.FaultPlan` scripts worker
  deaths, dropped heartbeats, duplicate deliveries and stragglers — the
  chaos battery replays identical failure schedules against both broker
  backends;
* **external workers** — ``repro fabric worker <dir>`` processes (any
  machine sharing the broker directory) leasing from the same
  :class:`~repro.fabric.broker.FilesystemBroker`.  The coordinator then
  runs on the wall clock and merely submits, reclaims and folds.

Determinism is inherited, not re-proven: shard sizes, seeds, fold order
and the stopping rule all belong to the shared loop, and completion
records are idempotent per shard address.  *Which* worker computed a
shard, how often it was retried, and in what order completions landed are
all invisible to the folded counts — that is the bit-identity guarantee
the chaos battery pins.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Hashable, Mapping

import numpy as np

from repro.fabric.broker import Broker, FabricError, InProcessBroker, LeasedShard
from repro.fabric.faults import FaultPlan
from repro.fabric.jobs import ShardJob, result_from_dict, result_to_dict, seed_to_dict
from repro.obs import clock
from repro.sim.montecarlo import BatchResult, MonteCarloSimulator
from repro.sim.parallel import PoolEntry, ShardInfo, ShardTransport, run_shard

__all__ = ["FabricPool", "FabricJobError", "FabricStalledError", "EXTERNAL_WORKERS"]

#: Executor count presumed when only external workers serve the broker.
EXTERNAL_WORKERS = 4
#: Idle sleep between wall-clock iterations that made no progress.
_POLL_SECONDS = 0.05


class FabricJobError(FabricError):
    """A shard exhausted its retry budget (dead-lettered)."""


class FabricStalledError(FabricError):
    """No executor can ever serve the remaining queued work.

    Raised only under the logical clock, where the embedded workers are the
    complete fleet: once every one of them is dead and no lease remains to
    reclaim, queued jobs would wait forever.  The store keeps every point
    completed so far — re-running with a healthy fleet resumes from there.
    """


class _EmbeddedWorker:
    """One synchronous in-process executor, scripted by the fault plan.

    A worker holds at most one lease.  Each :meth:`step` advances it by one
    unit: lease a job, burn one execution tick (``FaultPlan.shard_ticks``
    makes a worker slow), heartbeat (unless the plan dropped it), and on the
    final tick compute the shard for real and record the completion.  Death
    (``FaultPlan.kill_after``) strikes mid-execution: the lease is simply
    abandoned and must expire.
    """

    def __init__(self, pool: "FabricPool", worker_id: str, plan: FaultPlan) -> None:
        self._pool = pool
        self.id = worker_id
        self._plan = plan
        self.completed = 0
        self.dead = False
        self._lease: LeasedShard | None = None
        self._ticks_left = 0

    def step(self, now: float) -> bool:
        """Advance one tick; returns ``True`` when anything happened."""
        if self.dead:
            return False
        if self._lease is None:
            leased = self._pool.broker.lease(self.id, now)
            if leased is None:
                return False
            self._lease = leased
            self._ticks_left = self._plan.ticks_for(self.id)
            self._pool._on_lease_granted(leased, self.id)
            return True
        if self._plan.dies_now(self.id, self.completed):
            # Mid-shard death: no completion, no further heartbeats; the
            # lease is reclaimed by TTL expiry like a real crashed host's.
            self.dead = True
            self._lease = None
            self._pool._emit("worker_leave", worker=self.id)
            return True
        job = self._lease.job
        if self._plan.heartbeats(self.id, self.completed):
            self._pool.broker.heartbeat(job.job_id, self.id, now)
        self._ticks_left -= 1
        if self._ticks_left > 0:
            return True
        result, info = self._pool._execute(job, self.id)
        if self._pool.broker.complete(job.job_id, result_to_dict(result), self.id):
            self._pool._timings[job.job_id] = info
        else:
            self._pool._emit("duplicate_completion", job=job.job_id, worker=self.id)
        self.completed += 1
        self._lease = None
        return True


class FabricPool(ShardTransport):
    """Transport leasing shards through a work broker.

    Parameters
    ----------
    entries:
        Same mapping a :class:`~repro.sim.parallel.SharedWorkerPool` takes:
        entry key -> :class:`~repro.sim.parallel.PoolEntry`.  Embedded
        workers build one simulator per key, lazily, in this process, and
        time their shards when the entry is ``profiled``.
    broker:
        Any :class:`~repro.fabric.broker.Broker`; defaults to a fresh
        :class:`~repro.fabric.broker.InProcessBroker`.
    workers:
        Number of embedded workers (``w0`` … ``w{n-1}``).  ``0`` means the
        coordinator only submits and folds — external ``repro fabric
        worker`` processes must serve the queue (requires ``wall_clock``);
        the in-flight cap then presumes :data:`EXTERNAL_WORKERS` of them.
    fault_plan:
        Scripted failure schedule for the embedded workers (chaos battery);
        ``None`` is fault-free.
    wall_clock:
        ``False`` (default) runs on the logical clock — one loop iteration
        per tick, fully deterministic, no sleeping.  ``True`` reads
        :func:`repro.obs.clock.wall_time` so TTLs are seconds and external
        workers can participate.
    on_event:
        Fabric lifecycle observer: ``on_event(event, **fields)`` for
        ``worker_join`` / ``worker_leave`` / ``lease_granted`` /
        ``lease_expired`` / ``job_retry`` / ``job_dead`` /
        ``straggler_redispatch`` / ``duplicate_delivery`` /
        ``duplicate_completion``.  Strictly write-only, like all
        :mod:`repro.obs` hooks: counts are byte-identical with or without.
    """

    def __init__(
        self,
        entries: Mapping[Any, PoolEntry],
        *,
        broker: Broker | None = None,
        workers: int = 1,
        fault_plan: FaultPlan | None = None,
        wall_clock: bool = False,
        on_event: Callable[..., None] | None = None,
    ) -> None:
        if not entries:
            raise ValueError("a FabricPool needs at least one entry")
        self.entries = dict(entries)
        self.broker: Broker = broker if broker is not None else InProcessBroker()
        self.wall_clock = bool(wall_clock)
        self._on_event = on_event
        plan = fault_plan or FaultPlan()
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if workers == 0 and not self.wall_clock:
            raise ValueError(
                "a logical-clock fabric run needs at least one embedded "
                "worker; workers=0 only makes sense with wall_clock=True "
                "and external 'repro fabric worker' processes"
            )
        self._fleet = [
            _EmbeddedWorker(self, f"w{index}", plan) for index in range(int(workers))
        ]
        self.workers = len(self._fleet) or EXTERNAL_WORKERS
        self._fault_plan = plan
        self._simulators: dict[Any, MonteCarloSimulator] = {}
        self._lease_count = 0
        self._redispatched: set[str] = set()
        # Jobs handed to the broker at the start of the next step; jobs the
        # broker holds that are neither folded nor cancelled; shard timings
        # of embedded completions awaiting their fold.
        self._unsubmitted: list[ShardJob] = []
        self._outstanding: set[str] = set()
        self._timings: dict[str, ShardInfo] = {}
        self._started = False
        self._fleet_progressed = False
        self._now = 0.0

    # ------------------------------------------------------------------ #
    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        if self._started:
            for worker in self._fleet:
                if not worker.dead:
                    self._emit("worker_leave", worker=worker.id)
        # A clean finish tells external workers sharing the broker to exit.
        mark_done = getattr(self.broker, "mark_done", None)
        if exc_type is None and mark_done is not None:
            mark_done()

    # ------------------------------------------------------------------ #
    def _emit(self, event: str, **fields: Any) -> None:
        if self._on_event is not None:
            self._on_event(event, **fields)

    def _execute(self, job: ShardJob, worker: str) -> tuple[BatchResult, ShardInfo]:
        """Compute one shard exactly as a pool worker would."""
        simulator = self._simulators.get(job.key)
        if simulator is None:
            simulator = self._simulators[job.key] = self.entries[job.key].simulator()
        return run_shard(simulator, job.ebn0_db, job.size, job.seed_sequence(), worker)

    def _on_lease_granted(self, leased: LeasedShard, worker: str) -> None:
        self._emit(
            "lease_granted",
            job=leased.job.job_id,
            worker=worker,
            attempt=leased.attempt,
        )
        if self._fault_plan.duplicates(self._lease_count):
            if self.broker.redispatch(leased.job.job_id):
                self._emit(
                    "duplicate_delivery", job=leased.job.job_id, worker=worker
                )
        self._lease_count += 1

    def _reclaim_and_redispatch(self, now: float) -> None:
        for transition in self.broker.reclaim(now):
            self._emit(
                "lease_expired",
                job=transition.job_id,
                worker=transition.worker,
                attempt=transition.attempt,
            )
            if transition.outcome == "dead":
                self._emit(
                    "job_dead", job=transition.job_id, attempts=transition.attempt
                )
            else:
                self._emit(
                    "job_retry",
                    job=transition.job_id,
                    attempt=transition.attempt + 1,
                    backoff=max(transition.not_before - now, 0.0),
                )
        threshold = self.broker.policy.straggler_after
        if threshold is None:
            return
        for view in self.broker.leases():
            if now - view.granted_at < threshold:
                continue
            if view.job_id in self._redispatched:
                continue
            if self.broker.redispatch(view.job_id):
                self._redispatched.add(view.job_id)
                self._emit(
                    "straggler_redispatch", job=view.job_id, worker=view.worker
                )

    def _assert_not_stalled(self) -> None:
        if any(not worker.dead for worker in self._fleet):
            return
        if self.broker.leases():
            return  # expiries still pending; reclaim will advance things
        if self._outstanding:
            raise FabricStalledError(
                "every embedded worker is dead and shards remain queued; "
                "the campaign cannot progress (completed points are in the "
                "store — resume with a healthy fleet)"
            )

    # ------------------------------------------------------------------ #
    def submit(
        self,
        key: Hashable,
        ebn0_db: float,
        shard_index: int,
        size: int,
        seed: np.random.SeedSequence,
    ) -> str:
        job = ShardJob(
            key=str(key),
            ebn0_db=ebn0_db,
            shard_index=shard_index,
            size=int(size),
            seed=seed_to_dict(seed),
        )
        self._unsubmitted.append(job)
        return job.job_id

    def poll(self, handle: str) -> tuple[BatchResult, ShardInfo] | None:
        record = self.broker.result(handle)
        if record is None:
            attempts = self.broker.dead_attempts(handle)
            if attempts is not None:
                raise FabricJobError(
                    f"shard {handle} failed {attempts} attempts and was "
                    "dead-lettered; the fleet cannot finish this campaign"
                )
            return None
        self._outstanding.discard(handle)
        info = self._timings.pop(handle, None)
        if info is None:  # an external worker's record carries no timing
            info = ShardInfo(str(record.get("worker", "?")))
        return result_from_dict(record["result"]), info

    def cancel(self, handle: str) -> None:
        # Anything already leased completes harmlessly (idempotent record,
        # never folded) or expires into the cancelled set.
        self.broker.cancel(handle)
        self._outstanding.discard(handle)
        self._timings.pop(handle, None)

    def step(self, progressed: bool) -> None:
        """One tick: close the previous one, then submit, reclaim, work.

        Closing a tick sleeps (wall clock, when nothing moved) or checks for
        a stall and advances the logical clock; the jobs submitted since are
        handed to the broker only afterwards, so every tick runs in the
        order stall check, submit, reclaim, embedded workers, fold.
        """
        if not self._started:
            self._started = True
            for worker in self._fleet:
                self._emit("worker_join", worker=worker.id)
            self._now = clock.wall_time() if self.wall_clock else 0.0
        elif self.wall_clock:
            if not (progressed or self._fleet_progressed):
                time.sleep(_POLL_SECONDS)
            self._now = clock.wall_time()
        else:
            self._assert_not_stalled()
            self._now += 1.0
        for job in self._unsubmitted:
            self.broker.submit(job, now=self._now)
            self._outstanding.add(job.job_id)
        self._unsubmitted.clear()
        self._reclaim_and_redispatch(self._now)
        self._fleet_progressed = False
        for worker in self._fleet:
            if worker.step(self._now):
                self._fleet_progressed = True
