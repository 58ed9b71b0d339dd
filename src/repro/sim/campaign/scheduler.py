"""Campaign scheduling: one shard stream, one serial path, one transport path.

The scheduler flattens every (experiment, Eb/N0) combination of a
:class:`~repro.sim.campaign.spec.CampaignSpec` into a deterministic list of
:class:`PointJob`\\ s and runs them one of two ways:

* ``workers=0`` — serially in-process, each point through
  :meth:`~repro.sim.montecarlo.MonteCarloSimulator.run_point`, the
  reference every parallel executor is checked against;
* otherwise through the one dispatch-and-fold loop of
  :mod:`repro.sim.parallel`, over a transport: a single
  :class:`~repro.sim.parallel.SharedWorkerPool` for ``workers=N``, or the
  broker-leased :class:`~repro.fabric.pool.FabricPool` for ``fabric=``.
  Experiments share the transport, and early-stopping points of one
  configuration release workers to the others.  Jobs are interleaved
  round-robin across experiments so every curve grows from its most
  informative (lowest-index) points first.

Both paths build the same :class:`~repro.sim.parallel.PoolEntry` per
experiment and report shards to the same telemetry observer.

Seeds are a pure function of the spec: experiment ``i`` owns child ``i`` of
``SeedSequence(spec.seed)`` and point ``j`` of that experiment owns child
``j`` of the experiment's sequence.  Combined with the per-point shard
determinism of :mod:`repro.sim.parallel`, a campaign therefore produces
bit-identical counts for any executor and worker count — and a *resumed*
campaign (jobs already in the :class:`~repro.sim.campaign.store.ResultStore`
are skipped, but every seed is re-derived from scratch) completes to
exactly the counts of an uninterrupted run.

This determinism is what makes the paper's measured figures reproducible
artifacts rather than one-off runs: the Figure 4 waterfalls and Section 5
ablation tables regenerate bit-for-bit from (spec, seed) alone, however
many workers the machine has and however often the run was interrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.obs import clock
from repro.obs.probe import StageAccumulator
from repro.obs.telemetry import Telemetry
from repro.sim.campaign.spec import CampaignSpec, config_to_dict
from repro.sim.campaign.store import ResultStore
from repro.sim.montecarlo import BatchResult, MonteCarloSimulator, SimulationConfig
from repro.sim.parallel import (
    PointState,
    PoolEntry,
    ShardInfo,
    ShardTransport,
    SharedWorkerPool,
)
from repro.sim.results import SimulationCurve, SimulationPoint
from repro.utils.rng import as_seed_sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric import FabricConfig

__all__ = ["PointJob", "CampaignScheduler"]


@dataclass(frozen=True)
class PointJob:
    """One schedulable (experiment, Eb/N0) unit of a campaign."""

    experiment_index: int
    label: str
    point_index: int
    ebn0_db: float
    seed: np.random.SeedSequence


class CampaignScheduler:
    """Run a campaign's point jobs serially or over one shared transport.

    Parameters
    ----------
    spec:
        The campaign description.
    store:
        Result store; every completed point is persisted immediately and
        already-persisted points are skipped.
    workers:
        ``None``/``0`` runs serially in-process (the reference every
        transport reproduces bit for bit); a positive count dispatches over
        a :class:`~repro.sim.parallel.SharedWorkerPool` of that size.
    mp_context:
        Optional ``multiprocessing`` context or start-method name.
    telemetry:
        Campaign observability (:mod:`repro.obs`).  ``None`` — the default
        — consults the ``REPRO_TELEMETRY`` environment variable; ``True`` /
        ``False`` force it on or off; a ready-made
        :class:`~repro.obs.telemetry.Telemetry` is used as-is.  When
        enabled, the run appends a structured event log and a metrics
        snapshot under ``<store>/telemetry/``.  Telemetry is strictly
        write-only: counts and stored curves are byte-identical with it on
        or off.
    fabric:
        A :class:`~repro.fabric.FabricConfig` routes the shard stream
        through the campaign fabric (work-lease broker + embedded and/or
        external workers) instead of a process pool; ``None`` — the default
        — keeps the pooled/serial paths.  ``workers`` is ignored under the
        fabric; ``fabric.local_workers`` sizes the embedded fleet and
        ``fabric.broker_dir`` lets ``repro fabric worker`` processes join.
        Determinism is unchanged: the same loop folds the same shard
        schedule in the same order, so stored curves are byte-identical to
        any pooled or serial run.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        *,
        workers: int | None = None,
        mp_context: Any = None,
        telemetry: "Telemetry | bool | None" = None,
        fabric: "FabricConfig | None" = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.workers = workers
        self.fabric = fabric
        self._mp_context = mp_context
        if telemetry is None or isinstance(telemetry, bool):
            telemetry = Telemetry.if_enabled(
                Path(store.directory) / "telemetry", enabled=telemetry
            )
        self.telemetry = telemetry
        self._points_recorded = 0
        # Worker identities seen by the shard observer during one dispatch.
        self._worker_names: dict[Any, int] = {}
        self._workers_seen: set[int] = set()

    # ------------------------------------------------------------------ #
    def plan(self) -> list[PointJob]:
        """Every point job of the campaign, in deterministic dispatch order.

        The order interleaves experiments round-robin by point index; it
        affects only scheduling (which points complete first), never counts.
        """
        root = as_seed_sequence(int(self.spec.seed))
        experiment_seeds = root.spawn(len(self.spec.experiments))
        jobs: list[PointJob] = []
        for index, experiment in enumerate(self.spec.experiments):
            grid = experiment.resolve_ebn0(self.spec.ebn0)
            seeds = experiment_seeds[index].spawn(len(grid))
            for point_index, (ebn0, seed) in enumerate(zip(grid, seeds)):
                jobs.append(
                    PointJob(index, experiment.label, point_index, float(ebn0), seed)
                )
        jobs.sort(key=lambda job: (job.point_index, job.experiment_index))
        return jobs

    def pending(self) -> list[PointJob]:
        """The planned jobs whose points are not yet in the store."""
        completed = {
            experiment.label: self.store.completed_ebn0(experiment.label)
            for experiment in self.spec.experiments
        }
        return [job for job in self.plan() if job.ebn0_db not in completed[job.label]]

    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        progress: Callable[[str, SimulationPoint], None] | None = None,
    ) -> dict[str, SimulationCurve]:
        """Execute every pending job; return the completed curves by label.

        ``progress`` is called with ``(label, point)`` as each point lands in
        the store — completion order under a pool, plan order serially.  An
        interrupted run (``KeyboardInterrupt``, ``SIGKILL``, …) leaves the
        store with every point completed so far; rerunning finishes the rest.

        With telemetry enabled the run is book-ended by ``campaign_start``
        and — only on a clean finish — ``campaign_end`` events; an
        interrupted run's log simply lacks the latter, which is how
        ``campaign trace`` recognizes it.  Already-persisted points emit
        ``resume_skip`` so a resumed run's log names exactly what it reused.
        """
        jobs = self.pending()
        telemetry = self.telemetry
        if telemetry is None:
            if jobs:
                self._dispatch(jobs, progress)
            return self.store.curves()

        plan = self.plan()
        pending_keys = {(job.label, job.point_index) for job in jobs}
        for experiment in self.spec.experiments:
            telemetry.register_experiment(
                experiment.label,
                channel=experiment.channel.kind,
                decoder=experiment.decoder.kind,
            )
        telemetry.campaign_started(
            campaign=self.spec.name,
            total_points=len(plan),
            pending_points=len(jobs),
            workers=self._executor_workers(),
        )
        self._points_recorded = 0
        self.store.telemetry = telemetry
        try:
            for job in plan:
                if (job.label, job.point_index) not in pending_keys:
                    telemetry.record_resume_skip(
                        experiment=job.label,
                        point_index=job.point_index,
                        ebn0_db=job.ebn0_db,
                    )
            if jobs:
                self._dispatch(jobs, progress)
            telemetry.campaign_ended(
                campaign=self.spec.name, points_recorded=self._points_recorded
            )
        finally:
            self.store.telemetry = None
            telemetry.close()
        return self.store.curves()

    # ------------------------------------------------------------------ #
    def _executor_workers(self) -> int:
        """Worker count of the executor :meth:`run` dispatches to (0: serial)."""
        if self.fabric is not None:
            from repro.fabric.pool import EXTERNAL_WORKERS

            return self.fabric.local_workers or EXTERNAL_WORKERS
        return int(self.workers or 0)

    def _entries(self, labels: set[str]) -> dict[str, PoolEntry]:
        """One :class:`PoolEntry` per experiment in ``labels``.

        Each distinct code is built once; entries are ``profiled`` exactly
        when telemetry is on, whichever executor serves them.
        """
        codes: dict[Any, Any] = {}
        entries: dict[str, PoolEntry] = {}
        for experiment in self.spec.experiments:
            if experiment.label not in labels:
                continue
            if experiment.code not in codes:
                codes[experiment.code] = experiment.code.build()
            code = codes[experiment.code]
            entries[experiment.label] = PoolEntry(
                code,
                experiment.decoder.factory(code),
                experiment.resolve_config(self.spec.config),
                experiment.channel.build(),
                profiled=self.telemetry is not None,
            )
        return entries

    def _record(
        self,
        label: str,
        point: SimulationPoint,
        config: SimulationConfig,
        progress: Callable[[str, SimulationPoint], None] | None,
    ) -> None:
        recorded = self.store.record_point(label, point)
        telemetry = self.telemetry
        if telemetry is not None and recorded:
            self._points_recorded += 1
            if point.frames < config.max_frames:
                telemetry.record_early_stop(
                    experiment=label,
                    ebn0_db=point.ebn0_db,
                    frames=point.frames,
                    max_frames=config.max_frames,
                )
        if progress is not None:
            progress(label, point)

    def _observe_shard(
        self,
        label: str,
        ebn0_db: float,
        shard_index: int,
        result: BatchResult,
        info: ShardInfo,
        dispatched_at: float | None = None,
    ) -> None:
        """The shard observer of every executor (telemetry runs only).

        Pool workers are named by pid, fabric workers by name (mapped to
        indices by first appearance), the serial path is worker ``0``.
        Queue wait is the in-flight time minus worker compute time — both
        ends are parent-side reads of the same monotonic clock — and only
        exists for timed shards of a transport.
        """
        recorder = self.telemetry
        if recorder is None:  # pragma: no cover - observer is telemetry-only
            return
        worker = info.worker
        if not isinstance(worker, int):
            worker = self._worker_names.setdefault(worker, len(self._worker_names))
        if worker not in self._workers_seen:
            self._workers_seen.add(worker)
            recorder.emit("worker_up", worker=worker)
        queue_seconds = 0.0
        if dispatched_at is not None and info.stage_seconds is not None:
            queue_seconds = max(clock.monotonic() - dispatched_at - info.seconds, 0.0)
        recorder.record_shard(
            experiment=label,
            ebn0_db=ebn0_db,
            shard_index=shard_index,
            frames=result.frames,
            frame_errors=result.frame_errors,
            seconds=info.seconds,
            queue_seconds=queue_seconds,
            worker=worker,
            stage_seconds=info.stage_seconds,
        )

    def _emit_dispatched(self, job: PointJob) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(
                "job_dispatched",
                experiment=job.label,
                point_index=job.point_index,
                ebn0_db=job.ebn0_db,
            )

    # ------------------------------------------------------------------ #
    def _dispatch(
        self,
        jobs: list[PointJob],
        progress: Callable[[str, SimulationPoint], None] | None,
    ) -> None:
        """Run the pending jobs on the serial reference or over a transport."""
        self._worker_names = {}
        self._workers_seen = set()
        try:
            if self.fabric is None and not self.workers:
                self._run_serial(jobs, progress)
            else:
                self._run_transport(jobs, progress)
        finally:
            if self.telemetry is not None:
                for worker in sorted(self._workers_seen):
                    self.telemetry.emit("worker_down", worker=worker)

    def _run_serial(
        self,
        jobs: list[PointJob],
        progress: Callable[[str, SimulationPoint], None] | None,
    ) -> None:
        """``workers=0``: each point through ``MonteCarloSimulator.run_point``,
        the reference every transport is checked against."""
        entries = self._entries({job.label for job in jobs})
        simulators: dict[str, MonteCarloSimulator] = {}
        for job in jobs:
            simulator = simulators.get(job.label)
            if simulator is None:
                simulator = simulators[job.label] = entries[job.label].simulator()
            on_shard: Callable[[int, Any, float], None] | None = None
            if self.telemetry is not None:
                self._emit_dispatched(job)
                on_shard = self._serial_shard_observer(simulator, job)
            point = simulator.run_point(job.ebn0_db, rng=job.seed, on_shard=on_shard)
            self._record(job.label, point, simulator.config, progress)

    def _serial_shard_observer(
        self, simulator: MonteCarloSimulator, job: PointJob
    ) -> Callable[[int, Any, float], None]:
        """Adapt ``run_point``'s ``on_shard`` to :meth:`_observe_shard`."""
        probe = simulator.probe
        if not isinstance(probe, StageAccumulator):  # pragma: no cover
            raise RuntimeError("telemetry runs build profiled simulators")
        accumulator: StageAccumulator = probe
        mark = [accumulator.checkpoint()]

        def on_shard(index: int, result: Any, seconds: float) -> None:
            _, _, stage_seconds = accumulator.since(mark[0])
            mark[0] = accumulator.checkpoint()
            info = ShardInfo(0, seconds, stage_seconds)
            self._observe_shard(job.label, job.ebn0_db, index, result, info)

        return on_shard

    def _run_transport(
        self,
        jobs: list[PointJob],
        progress: Callable[[str, SimulationPoint], None] | None,
    ) -> None:
        """Drive the pending jobs through the pool or the fabric.

        Either way the shared loop folds the same shard schedule in the
        same order, so stored curves are byte-identical to the serial path
        (the chaos battery's core assertion for the fabric).
        """
        entries = self._entries({job.label for job in jobs})
        states = [
            PointState(job.label, job.ebn0_db, job.seed, entries[job.label].config)
            for job in jobs
        ]
        for job in jobs:
            self._emit_dispatched(job)

        def on_point(state: PointState, point: SimulationPoint) -> None:
            self._record(str(state.key), point, state.config, progress)

        def on_shard(
            state: PointState,
            index: int,
            result: BatchResult,
            info: ShardInfo,
            dispatched_at: float,
        ) -> None:
            self._observe_shard(
                str(state.key), state.ebn0_db, index, result, info, dispatched_at
            )

        with self._transport(entries) as transport:
            transport.run_states(
                states,
                on_point=on_point,
                on_shard=on_shard if self.telemetry is not None else None,
            )

    def _transport(self, entries: dict[str, PoolEntry]) -> ShardTransport:
        fabric = self.fabric
        if fabric is None:
            return SharedWorkerPool(
                entries, workers=self.workers, mp_context=self._mp_context
            )
        from repro.fabric import FabricPool, FilesystemBroker, InProcessBroker

        if fabric.broker_dir:
            broker: Any = FilesystemBroker.create(
                fabric.broker_dir,
                self._fabric_manifest(),
                policy=fabric.policy,
                fresh=fabric.fresh,
            )
        else:
            broker = InProcessBroker(fabric.policy)
        return FabricPool(
            entries,
            broker=broker,
            workers=fabric.local_workers,
            fault_plan=fabric.fault_plan,
            wall_clock=fabric.resolved_wall_clock(),
            on_event=self.telemetry.emit if self.telemetry is not None else None,
        )

    def _fabric_manifest(self) -> dict[str, Any]:
        """Self-contained entry specs external workers rebuild from.

        Covers *every* experiment in the spec, not just the pending ones, so
        the manifest fingerprint is stable across resumes — a rerun after a
        crash reuses the broker directory even when some experiments already
        finished and dispatch no jobs.
        """
        entries: dict[str, Any] = {}
        for experiment in self.spec.experiments:
            entries[experiment.label] = {
                "code": experiment.code.as_dict(),
                "decoder": experiment.decoder.as_dict(),
                "channel": experiment.channel.as_dict(),
                "config": config_to_dict(
                    experiment.resolve_config(self.spec.config)
                ),
            }
        return {"campaign": self.spec.name, "entries": entries}
