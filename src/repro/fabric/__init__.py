"""repro.fabric — the distributed campaign fabric.

From one process pool to a fleet: shard jobs become self-describing,
serializable units (:mod:`~repro.fabric.jobs`) leased through a
:class:`~repro.fabric.broker.Broker` with TTL heartbeats, idempotent
completion records, bounded retry-with-backoff and straggler re-dispatch.
Two broker backends ship: an in-process reference implementation and a
filesystem queue any machine can mount (``repro fabric worker <dir>``
joins extra processes/hosts to a running campaign).

The package's load-bearing promise is *determinism under failure*: final
curves and counts are byte-identical to the serial engine no matter which
worker computed which shard, how often leases expired, or how many
duplicate deliveries raced — the seeded fault-injection layer
(:mod:`~repro.fabric.faults`) and the chaos battery
(``tests/test_fabric_chaos.py``) prove it schedule by schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.broker import (
    Broker,
    FabricError,
    FabricMismatchError,
    FilesystemBroker,
    InProcessBroker,
    LeasePolicy,
    LeasedShard,
    LeaseView,
    manifest_fingerprint,
)
from repro.fabric.faults import FaultPlan
from repro.fabric.jobs import (
    ShardJob,
    result_from_dict,
    result_to_dict,
    seed_from_dict,
    seed_to_dict,
    shard_address,
)
from repro.fabric.pool import (
    FabricJobError,
    FabricPool,
    FabricStalledError,
)
from repro.fabric.worker import default_worker_id, run_worker

__all__ = [
    "Broker",
    "FabricConfig",
    "FabricError",
    "FabricJobError",
    "FabricMismatchError",
    "FabricPool",
    "FabricStalledError",
    "FaultPlan",
    "FilesystemBroker",
    "InProcessBroker",
    "LeasePolicy",
    "LeasedShard",
    "LeaseView",
    "ShardJob",
    "default_worker_id",
    "manifest_fingerprint",
    "result_from_dict",
    "result_to_dict",
    "run_worker",
    "seed_from_dict",
    "seed_to_dict",
    "shard_address",
]


@dataclass(frozen=True)
class FabricConfig:
    """How a campaign run uses the fabric (scheduler-facing knobs).

    ``broker_dir`` selects the filesystem backend (and therefore multi-host
    capability); ``None`` keeps everything in-process.  ``wall_clock``
    defaults to "on exactly when a broker directory is shared" — external
    workers need real TTL seconds, while purely in-process runs (and the
    chaos battery, which passes ``wall_clock=False`` explicitly with a
    directory) stay on the deterministic logical clock.
    """

    broker_dir: str | None = None
    local_workers: int = 1
    policy: LeasePolicy = field(default_factory=LeasePolicy)
    fault_plan: FaultPlan | None = None
    wall_clock: bool | None = None
    fresh: bool = False

    def resolved_wall_clock(self) -> bool:
        if self.wall_clock is not None:
            return bool(self.wall_clock)
        return self.broker_dir is not None
