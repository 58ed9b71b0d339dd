"""Reference-count gate.

Every operation a timed pass ran is compared, count by count, against a
reference path computed untimed after the pass:

* ``c2-*``: the serial decoder kind the program pairs with the workload's
  batched kind (``repro.decode.batched.SERIAL_EQUIVALENTS``: ``nms`` for
  ``nms-batched``, ``layered`` for ``layered-batched``) on the same shards —
  same seed sequence, same shard size, same channel draws;
* ``campaign-*``: a ``workers=0`` (serial, in-process) scheduler run of the
  same spec, whose stored curve files must be byte-identical.

References are cached per workload family and seed under the benchmark's
own directory (``perfbench/.refcache``, git-ignored), keyed additionally by
the code's parity-check fingerprint, so repeated runs with one seed pay for
them once.  Each cache file also records a digest of the program source it
was computed from; entries from another version of the program are
discarded and recomputed, so a run is always checked against the reference
path of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.decode.batched import SERIAL_EQUIVALENTS
from repro.sim.campaign import DecoderSpec
from repro.sim.montecarlo import MonteCarloSimulator

from paper_workloads import (
    C2State,
    C2Workload,
    CampaignRun,
    CampaignWorkload,
    Phase,
    c2_run_op,
    clear,
    run_campaign,
    shards_of,
)

#: Bump when the meaning of a cached entry changes.
CACHE_VERSION = 1


def source_digest(source: Path) -> str:
    """sha256 over the relative paths and bytes of every ``.py`` file under
    ``source`` — the identity of the program a reference was computed with."""
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*.py")):
        digest.update(path.relative_to(source).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class ReferenceCache:
    """A JSON file of reference entries for one (family, seed, code),
    valid only for the program source under ``source``."""

    def __init__(self, directory: Path, name: str, source: Path) -> None:
        self.path = directory / f"{name}.json"
        self.program = source_digest(source)
        self.entries: dict[str, Any] = {}
        self.computed = 0
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = {}
        if (
            isinstance(data, dict)
            and data.get("version") == CACHE_VERSION
            and data.get("program") == self.program
        ):
            self.entries = dict(data.get("entries", {}))

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        partial = self.path.with_suffix(f".{os.getpid()}.tmp")
        payload = {"version": CACHE_VERSION, "program": self.program, "entries": self.entries}
        partial.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(partial, self.path)


# --------------------------------------------------------------------------- #
def c2_reference(
    workload: C2Workload, state: C2State, seed: int, keys: list[str], cache: ReferenceCache
) -> dict[str, list[int]]:
    """Reference counts of ``keys``, computing (and caching) the missing ones."""
    missing = [key for key in keys if key not in cache.entries]
    if missing:
        serial = SERIAL_EQUIVALENTS[workload.decoder]
        decoder = DecoderSpec(serial, workload.iterations).build(state.code)
        sim = MonteCarloSimulator(state.code, decoder, config=workload.config, rng=0)
        for key in missing:
            cache.entries[key] = c2_run_op(workload, sim, seed, key)
        cache.computed += len(missing)
        cache.save()
    return {key: cache.entries[key] for key in keys}


def c2_failures(phase: Phase, reference: dict[str, list[int]]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, failing keys)`` of a c2 pass against the reference."""
    bad = sorted(phase.errors)
    bad += sorted(k for k, counts in phase.counts.items() if counts != reference[k])
    return len(phase.counts) + len(phase.errors), len(bad), bad


# --------------------------------------------------------------------------- #
def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def campaign_reference(
    workload: CampaignWorkload,
    seed: int,
    index: int,
    workdir: Path,
    cache: ReferenceCache,
) -> dict[str, Any]:
    """Curve digests and points of the serial run of campaign ``index``."""
    key = str(index)
    if key not in cache.entries:
        directory = workdir / "reference"
        run = run_campaign(workload.spec(seed, index), directory, executor="serial", workers=0)
        clear(directory)
        cache.entries[key] = {
            "sha256": {label: _digest(data) for label, data in run.curves.items()},
            "points": run.points,
        }
        cache.computed += 1
        cache.save()
    return cache.entries[key]


def campaign_failures(
    run: CampaignRun | None, reference: dict[str, Any], batch: int
) -> tuple[int, int]:
    """``(attempted, failed)`` shards of one campaign run.

    A run that raised fails every shard the reference ran.  Otherwise a
    curve whose bytes differ fails the shards of each differing point (or
    all its shards, when only non-point bytes differ).
    """
    if run is None:
        total = sum(shards_of(points, batch) for points in reference["points"].values())
        return total, total
    attempted = sum(shards_of(points, batch) for points in run.points.values())
    failed = 0
    for label, ref_points in reference["points"].items():
        data = run.curves.get(label)
        if data is not None and _digest(data) == reference["sha256"][label]:
            continue
        got = {p["ebn0_db"]: p for p in run.points.get(label, [])}
        label_failed = 0
        for point in ref_points:
            mine = got.get(point["ebn0_db"])
            if mine != point:
                label_failed += max(shards_of([point], batch), shards_of([mine], batch) if mine else 0)
        failed += label_failed or shards_of(run.points.get(label, ref_points), batch)
    return attempted, failed
