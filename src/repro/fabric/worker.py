"""External fabric workers: extra processes (or hosts) joining a campaign.

``repro fabric worker <dir>`` runs :func:`run_worker` against the
:class:`~repro.fabric.broker.FilesystemBroker` directory a coordinator
created (``repro campaign run --fabric-dir <dir>``).  The worker needs
*nothing* but that directory: the broker manifest carries the code,
decoder, channel and config specs of every experiment, so the worker
rebuilds its simulators from specs exactly as the campaign scheduler does,
and each leased :class:`~repro.fabric.jobs.ShardJob` carries its own seed.
Any number of workers on any machines that share the directory may join,
leave, crash or duplicate work — completion records are idempotent per
shard address, so the coordinator's folded counts cannot tell the
difference.

Long shards are kept alive by a background heartbeat thread (one third of
the lease TTL), so a slow-but-healthy worker is distinguished from a dead
one; if the process is SIGKILLed anyway, its lease simply expires and the
shard is retried elsewhere — the recovery path the chaos battery scripts
deterministically and the CI smoke test exercises with a real SIGKILL.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.obs import clock
from repro.fabric.broker import FabricError, FilesystemBroker
from repro.fabric.jobs import ShardJob, result_to_dict
from repro.sim.campaign.spec import (
    ChannelSpec,
    CodeSpec,
    DecoderSpec,
    config_from_dict,
)
from repro.sim.montecarlo import MonteCarloSimulator
from repro.sim.parallel import PoolEntry, run_shard

__all__ = ["run_worker", "default_worker_id"]


def default_worker_id() -> str:
    """A name unique enough across a fleet: ``<host>-<pid>``."""
    host = platform.node() or "host"
    return f"{host}-{os.getpid()}"


class _Heartbeat:
    """Background thread extending one lease while its shard computes."""

    def __init__(self, broker: FilesystemBroker, job_id: str, worker: str) -> None:
        self._broker = broker
        self._job_id = job_id
        self._worker = worker
        self._stop = threading.Event()
        interval = max(broker.policy.ttl / 3.0, 0.05)
        self._thread = threading.Thread(
            target=self._run, args=(interval,), daemon=True
        )

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self._broker.heartbeat(self._job_id, self._worker, clock.wall_time())

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self._stop.set()
        self._thread.join()


class _SimulatorCache:
    """Rebuild simulators from the broker manifest's experiment specs."""

    def __init__(self, entries: Mapping[str, Mapping[str, Any]]) -> None:
        self._entries = entries
        self._codes: dict[str, Any] = {}
        self._simulators: dict[str, MonteCarloSimulator] = {}

    def simulator_for(self, key: str) -> MonteCarloSimulator:
        simulator = self._simulators.get(key)
        if simulator is not None:
            return simulator
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(
                f"broker manifest has no entry {key!r}; the directory may "
                "belong to a different campaign"
            )
        # Distinct experiments frequently share a code; build each once.
        code_key = json.dumps(entry["code"], sort_keys=True)
        code = self._codes.get(code_key)
        if code is None:
            code = self._codes[code_key] = CodeSpec.from_dict(entry["code"]).build()
        simulator = self._simulators[key] = PoolEntry(
            code,
            DecoderSpec.from_dict(entry["decoder"]).factory(code),
            config_from_dict(entry["config"]),
            ChannelSpec.from_dict(entry["channel"]).build(),
        ).simulator()
        return simulator


def _open_when_ready(
    directory: str | Path,
    poll_seconds: float,
    max_idle_seconds: float | None,
) -> FilesystemBroker:
    """Open the broker, waiting for a coordinator that has not created it yet.

    Workers are routinely launched *before* ``campaign run --fabric-dir``
    writes the manifest (fleet bring-up scripts start everything at once),
    so a missing ``fabric.json`` is an idle condition, not an error — up to
    the same idle budget the lease loop uses.
    """
    waited = 0.0
    while True:
        try:
            return FilesystemBroker.open(directory)
        except FabricError:
            if max_idle_seconds is not None and waited >= max_idle_seconds:
                raise
            time.sleep(poll_seconds)
            waited += poll_seconds


def run_worker(
    directory: str | Path,
    *,
    worker_id: str | None = None,
    max_jobs: int | None = None,
    poll_seconds: float = 0.2,
    max_idle_seconds: float | None = None,
    on_job: Callable[[ShardJob], None] | None = None,
) -> int:
    """Serve shard jobs from a fabric broker directory until told to stop.

    Exits when the coordinator writes the ``done`` marker, after ``max_jobs``
    completions, or after ``max_idle_seconds`` without a leasable job
    (``None`` waits forever — the long-lived fleet mode).  Returns the
    number of shards completed.  ``on_job`` observes each lease (progress
    printing in the CLI); it cannot influence results.
    """
    broker = _open_when_ready(directory, poll_seconds, max_idle_seconds)
    worker = worker_id or default_worker_id()
    cache = _SimulatorCache(broker.manifest.get("entries", {}))
    completed = 0
    idle_since: float | None = None
    while True:
        if broker.is_done():
            break
        now = clock.wall_time()
        leased = broker.lease(worker, now)
        if leased is None:
            if max_idle_seconds is not None:
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= max_idle_seconds:
                    break
            time.sleep(poll_seconds)
            continue
        idle_since = None
        job = leased.job
        if on_job is not None:
            on_job(job)
        simulator = cache.simulator_for(job.key)
        with _Heartbeat(broker, job.job_id, worker):
            result, _ = run_shard(
                simulator, job.ebn0_db, job.size, job.seed_sequence(), worker
            )
        broker.complete(job.job_id, result_to_dict(result), worker)
        completed += 1
        if max_jobs is not None and completed >= max_jobs:
            break
    return completed
