"""Workload definitions and their timed loops.

Two families:

* ``c2-*`` — the paper's full 8176-bit CCSDS C2 code driven through
  :class:`~repro.sim.montecarlo.MonteCarloSimulator` in-process, one
  64-frame shard per operation, round-robin over the workload's Eb/N0
  points.  A *round* is one operation per point; runs always measure whole
  rounds so every run has the same mix of operating points.
* ``campaign-*`` — a scaled C2 twin (n=1008, **not** the headline code)
  campaign run end to end through an executor: the shared worker pool or
  the filesystem-broker fabric.  One operation is one shard.

Both are closed loops: the next operation starts when the previous one has
finished.  Inputs are derived from the benchmark seed only.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator
from unittest.mock import patch

import numpy as np

from repro.codes.ccsds_c2 import build_ccsds_c2_code
from repro.decode.base import decode_frames
from repro.encode.systematic import SystematicEncoder
from repro.fabric import FabricConfig
from repro.fabric.broker import FilesystemBroker
from repro.sim.campaign import (
    CampaignScheduler,
    CampaignSpec,
    CodeSpec,
    DecoderSpec,
    ExperimentSpec,
    ResultStore,
)
from repro.sim.campaign.spec import ChannelSpec
from repro.sim.montecarlo import MonteCarloSimulator, SimulationConfig

from spans import KERNEL_SPANS, StageSpanProbe, Tracer

#: Counts compared against the reference path, per operation.
COUNT_FIELDS = (
    "frames",
    "bit_errors",
    "frame_errors",
    "undetected_frame_errors",
    "iterations",
    "info_bit_errors",
)

#: Broker methods timed in the traced fabric run.
BROKER_METHODS = ("submit", "lease", "complete", "result", "reclaim")


def seed_sequence(*words: int | str) -> np.random.SeedSequence:
    """A fresh SeedSequence from ints and names (names hashed with CRC-32)."""
    entropy = [zlib.crc32(w.encode()) if isinstance(w, str) else int(w) for w in words]
    return np.random.SeedSequence(entropy)


@dataclass
class Phase:
    """What one timed pass did: busy seconds, frames, per-operation outcome."""

    seconds: float = 0.0
    frames: int = 0
    counts: dict[str, Any] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# c2-* : the paper's code, in-process
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class C2Workload:
    name: str
    why: str
    decoder: str
    ebn0: tuple[float, ...]
    all_zero: bool
    batch: int = 64
    iterations: int = 18
    build_code: Callable[[], Any] = build_ccsds_c2_code
    headline: bool = True
    family: str = "c2"

    @property
    def config(self) -> SimulationConfig:
        """One shard of ``batch`` frames per point run, never stopped early."""
        return SimulationConfig(
            max_frames=self.batch,
            target_frame_errors=self.batch + 1,
            batch_frames=self.batch,
            all_zero_codeword=self.all_zero,
        )

    def op_keys(self, round_index: int) -> list[str]:
        return [f"{round_index}:{point}" for point in range(len(self.ebn0))]


@dataclass
class C2State:
    code: Any
    decoder: Any
    sim: MonteCarloSimulator
    parts: dict[str, float]


def c2_setup(workload: C2Workload, encoder_cache: Path) -> C2State:
    """Build everything the timed loop uses, timing each step.

    Covers the code, its lazy GF(2) rank (``QCLDPCCode.dimension``, which
    ``run_point`` would otherwise pay on its first call), the decoder with
    its Tanner graph plus one warm-up batch, and the simulator — whose
    ``SystematicEncoder`` row reduction runs here against an empty cache
    directory unless the workload sends the all-zero codeword.
    """
    os.environ["REPRO_ENCODER_CACHE"] = str(encoder_cache)
    marks = [time.perf_counter()]
    code = workload.build_code()
    marks.append(time.perf_counter())
    _ = code.dimension
    marks.append(time.perf_counter())
    decoder = DecoderSpec(workload.decoder, workload.iterations).build(code)
    warm = np.full((workload.batch, code.block_length), 2.0)
    warm[:, ::61] = -0.5
    decode_frames(decoder, warm)
    marks.append(time.perf_counter())
    sim = MonteCarloSimulator(code, decoder, config=workload.config, rng=0)
    marks.append(time.perf_counter())
    steps = ("codes.build", "codes.dimension", "decode.setup", "sim.setup")
    parts = {step: marks[i + 1] - marks[i] for i, step in enumerate(steps)}
    return C2State(code, decoder, sim, parts)


def _shard_counts(shard: Any) -> list[int]:
    return [int(getattr(shard, name)) for name in COUNT_FIELDS]


def c2_run_op(workload: C2Workload, sim: MonteCarloSimulator, seed: int, key: str) -> list[int]:
    """Run one operation — one point run of one shard — and return its counts."""
    round_index, point = (int(part) for part in key.split(":"))
    shards: list[Any] = []
    sim.run_point(
        workload.ebn0[point],
        rng=seed_sequence(workload.name, seed, round_index, point),
        on_shard=lambda _index, shard, _seconds: shards.append(shard),
    )
    (shard,) = shards
    return _shard_counts(shard)


def c2_round(
    workload: C2Workload,
    sim: MonteCarloSimulator,
    seed: int,
    round_index: int,
    phase: Phase,
    tracer: Tracer | None = None,
) -> None:
    """One operation per Eb/N0 point, each timed into ``phase``."""
    for key in workload.op_keys(round_index):
        started = time.perf_counter()
        try:
            if tracer is None:
                counts = c2_run_op(workload, sim, seed, key)
            else:
                with tracer.span("sim.run_point"):
                    counts = c2_run_op(workload, sim, seed, key)
        except Exception as exc:  # an operation that raises is a failed operation
            phase.errors[key] = f"{type(exc).__name__}: {exc}"
        else:
            phase.counts[key] = counts
            phase.frames += counts[0]
        phase.seconds += time.perf_counter() - started


def edge_structure(decoder: Any) -> Any:
    """The decoder's edge-structure object, or ``None`` if it exposes none."""
    edges = getattr(decoder, "edge_structure", None)
    return edges if edges is not None else getattr(decoder, "_edges", None)


@contextmanager
def traced_c2(state: C2State, tracer: Tracer, iterations: list[np.ndarray]) -> Iterator[None]:
    """Wrap the decoder kernels, capture iterations, attach a stage probe."""
    decoder = state.decoder
    decode_batch = decoder.decode_batch

    def capture(llrs: Any) -> Any:
        result = decode_batch(llrs)
        iterations.append(np.array(result.iterations, dtype=np.int64).ravel())
        return result

    with ExitStack() as stack:
        stack.enter_context(patch.object(decoder, "decode_batch", capture))
        edges = edge_structure(decoder)
        for method, span in zip(("min_sum_extrinsic", "bit_node_update", "syndrome_ok"), KERNEL_SPANS):
            if edges is not None and callable(getattr(edges, method, None)):
                wrapped = tracer.wrap(getattr(edges, method), span)
                stack.enter_context(patch.object(edges, method, wrapped))
        stack.enter_context(patch.object(state.sim, "probe", StageSpanProbe(tracer)))
        yield


# --------------------------------------------------------------------------- #
# campaign-* : scaled twin through an executor
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    why: str
    executor: str  # "pool" or "fabric"
    circulant: int = 63
    decoders: tuple[str, ...] = ("nms-batched", "layered-batched")
    channels: tuple[str, ...] = ("awgn", "bsc")
    ebn0: tuple[float, ...] = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5)
    batch: int = 16
    max_frames: int = 400
    target_frame_errors: int = 30
    iterations: int = 18
    headline: bool = False
    family: str = "campaign"

    def build_code(self) -> Any:
        return CodeSpec(family="scaled", circulant=self.circulant).build()

    def spec(self, seed: int, index: int, *, first_result: bool = False) -> CampaignSpec:
        """The campaign of operation group ``index``; ``first_result`` keeps
        one Eb/N0 point and one shard per experiment (the set-up probe)."""
        code = CodeSpec(family="scaled", circulant=self.circulant)
        config = SimulationConfig(
            max_frames=self.batch if first_result else self.max_frames,
            target_frame_errors=self.target_frame_errors,
            batch_frames=self.batch,
        )
        experiments = [
            ExperimentSpec(
                label=f"{decoder}-{channel}",
                code=code,
                decoder=DecoderSpec(decoder, self.iterations),
                channel=ChannelSpec(channel),
            )
            for decoder in self.decoders
            for channel in self.channels
        ]
        state = seed_sequence("campaign", seed, index).generate_state(1)[0]
        return CampaignSpec(
            name=f"perfbench-{seed}-{index}",
            experiments=experiments,
            ebn0=self.ebn0[:1] if first_result else self.ebn0,
            config=config,
            seed=int(state),
        )


@dataclass
class CampaignRun:
    seconds: float
    curves: dict[str, bytes]
    points: dict[str, list[dict[str, Any]]]
    telemetry_dir: Path

    @property
    def frames(self) -> int:
        return sum(p["frames"] for pts in self.points.values() for p in pts)


def shards_of(points: list[dict[str, Any]], batch: int) -> int:
    return sum(-(-int(p["frames"]) // batch) for p in points)


def run_campaign(
    spec: CampaignSpec,
    directory: Path,
    *,
    executor: str,
    workers: int,
    telemetry: bool = False,
    instrument: Callable[[ResultStore], None] | None = None,
) -> CampaignRun:
    """Run ``spec`` on a fresh store under ``directory``; only the run is timed."""
    if directory.exists():
        shutil.rmtree(directory)
    store_dir = directory / "store"
    started = time.perf_counter()
    store = ResultStore.create(store_dir, spec, fresh=True)
    if instrument is not None:
        instrument(store)
    fabric = None
    if executor == "fabric":
        fabric = FabricConfig(broker_dir=str(directory / "broker"), local_workers=workers)
    pool_workers = workers if executor == "pool" else None
    CampaignScheduler(
        spec, store, workers=pool_workers, telemetry=telemetry, fabric=fabric
    ).run()
    seconds = time.perf_counter() - started
    curves, points = {}, {}
    for experiment in spec.experiments:
        path = store.curve_path(experiment.label)
        curves[experiment.label] = path.read_bytes()
        points[experiment.label] = json.loads(curves[experiment.label])["points"]
    return CampaignRun(seconds, curves, points, store_dir / "telemetry")


@contextmanager
def traced_fabric(tracer: Tracer) -> Iterator[None]:
    """Time the filesystem broker's methods and the shards embedded fabric
    workers compute in this process (class-level patches, restored after)."""
    with ExitStack() as stack:
        for name in BROKER_METHODS:
            wrapped = tracer.wrap(getattr(FilesystemBroker, name), f"fabric.broker.{name}")
            stack.enter_context(patch.object(FilesystemBroker, name, wrapped))
        shard = tracer.wrap(MonteCarloSimulator.run_batch, "fabric.shard")
        stack.enter_context(patch.object(MonteCarloSimulator, "run_batch", shard))
        yield


def read_telemetry(directory: Path) -> tuple[dict[str, Any], list[str], int]:
    """``(metrics snapshot, event names, event-log bytes)`` of a telemetry dir."""
    metrics = json.loads((directory / "metrics.json").read_text(encoding="utf-8"))
    log = directory / "events.jsonl"
    raw = log.read_bytes()
    events = [json.loads(line)["event"] for line in raw.decode().splitlines() if line.strip()]
    return metrics, events, len(raw)


def clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)


def encoder_roundtrip_ok(code: Any, seed: int, frames: int = 8) -> bool:
    """Check the systematic encoder independently of any decoder.

    A codeword is correct when it satisfies every parity check and carries
    the information word on the encoder's information positions; given an
    information set those two properties fix the codeword, so the check is
    complete.  The decoder reference cannot catch encoder faults — it sees
    the same codewords — which is why this runs separately.
    """
    encoder = SystematicEncoder(code)
    rng = np.random.default_rng(seed_sequence("encoder-check", seed))
    info = rng.integers(0, 2, size=(frames, encoder.dimension), dtype=np.uint8)
    codewords = np.asarray(encoder.encode(info))
    pcm = code.parity_check_matrix()
    on_info = codewords[:, np.asarray(encoder.information_positions)]
    return bool(np.all(pcm.is_codeword(codewords)) and np.array_equal(on_info, info))


# --------------------------------------------------------------------------- #
# The workloads, each with the reason it exists
# --------------------------------------------------------------------------- #
WORKLOADS: dict[str, C2Workload | CampaignWorkload] = {
    w.name: w
    for w in (
        C2Workload(
            name="c2-fig4-sweep",
            why=(
                "Headline: full C2 code, nms-batched 18 it, random data at 3.6/4.0/4.2 dB; "
                "encode dominates today so the encoder fix shows here, flooding decode takes the rest"
            ),
            decoder="nms-batched",
            ebn0=(3.6, 4.0, 4.2),
            all_zero=False,
        ),
        C2Workload(
            name="c2-layered-allzero",
            why=(
                "Full C2 code, layered-batched 18 it, all-zero codeword at 3.6 dB: encoder "
                "bypassed, so encode-only changes must not move it; decode is nearly all of the time"
            ),
            decoder="layered-batched",
            ebn0=(3.6,),
            all_zero=True,
        ),
        CampaignWorkload(
            name="campaign-pool",
            why=(
                "Scaled twin (n=1008, not headline) campaign on the shared worker pool: small "
                "shards make dispatch, folding, store writes and hooks a visible share"
            ),
            executor="pool",
        ),
        CampaignWorkload(
            name="campaign-fabric",
            why=(
                "Same scaled campaign through the filesystem-broker fabric: leases and "
                "hard-link completions beside compute, compared against campaign-pool"
            ),
            executor="fabric",
        ),
    )
}
