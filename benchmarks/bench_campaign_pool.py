"""Campaign scheduling — one shared worker pool vs a pool per sweep.

The campaign layer's performance claim: running a grid of decoder
configurations through a single :class:`~repro.sim.parallel.SharedWorkerPool`
amortizes pool start-up and per-worker simulator construction across every
configuration and lets early-stopping points of one curve hand their workers
to the others, instead of each sweep paying its own pool and leaving cores
idle at its tail.  This benchmark times both strategies on the same
four-configuration grid and asserts the shared-pool counts are bit-identical
to standalone sweeps seeded with the campaign's per-experiment streams.

A third timed run repeats the shared-pool campaign with telemetry enabled
(event log + metrics + per-shard stage profiling) and asserts the curve
files come out **byte-identical** to the telemetry-off store — the
write-only contract, measured where it matters.  Wall times, campaign
frames/s and the telemetry overhead fraction are appended to the
``BENCH_campaign_pool.json`` trajectory at the repo root.

A fourth timed run swaps every decoder for its compacted batched twin
(``nms-batched`` & co.) on the *identical* spec — same seeds, same shard
schedule, same adaptive batch ladder — and asserts the stored points are
equal: the batched kernels are a campaign-level speed knob, never a
physics knob.  Its wall time and speedup land in the trajectory too.
"""

from __future__ import annotations

import os
import time

import numpy as np

from scale_config import DEFAULT_SCALED_CIRCULANT, full_scale
from trajectory import record as record_trajectory

from repro.sim import EbN0Sweep, SimulationConfig
from repro.sim.campaign import (
    CampaignScheduler,
    CampaignSpec,
    CodeSpec,
    DecoderSpec,
    ExperimentSpec,
    ResultStore,
)
from repro.utils.formatting import format_table

#: Never more workers than cores, so a trajectory entry cannot record an
#: oversubscribed pool.
WORKERS = min(4, os.cpu_count() or 1)
EBN0_GRID = (3.0, 3.5, 4.0)

#: Serial decoder kind -> its compacted batched twin in the registry.
BATCHED_KINDS = {
    "nms": "nms-batched",
    "min-sum": "min-sum-batched",
    "offset": "offset-batched",
}


def _batched_spec(spec: CampaignSpec) -> CampaignSpec:
    """The same campaign with every decoder swapped for its batched twin."""
    return CampaignSpec(
        name=f"{spec.name}-batched",
        seed=spec.seed,
        ebn0=spec.ebn0,
        config=spec.config,
        experiments=[
            ExperimentSpec(
                label=experiment.label,
                code=experiment.code,
                decoder=DecoderSpec(
                    BATCHED_KINDS[experiment.decoder.kind],
                    experiment.decoder.iterations,
                    params=experiment.decoder.params,
                ),
            )
            for experiment in spec.experiments
        ],
    )


def _spec() -> CampaignSpec:
    if full_scale():
        code = CodeSpec(family="ccsds-c2")
        config = SimulationConfig(
            max_frames=400, target_frame_errors=40, batch_frames=8,
            all_zero_codeword=True, adaptive_batch=True,
        )
    else:
        code = CodeSpec(family="scaled", circulant=DEFAULT_SCALED_CIRCULANT)
        config = SimulationConfig(
            max_frames=400, target_frame_errors=60, batch_frames=25,
            all_zero_codeword=True, adaptive_batch=True,
        )
    decoders = [
        ("nms-a1.25", DecoderSpec("nms", 18, params={"alpha": 1.25})),
        ("nms-a1.5", DecoderSpec("nms", 18, params={"alpha": 1.5})),
        ("min-sum", DecoderSpec("min-sum", 18)),
        ("offset", DecoderSpec("offset", 18, params={"beta": 0.15})),
    ]
    return CampaignSpec(
        name="bench-shared-pool",
        seed=42,
        ebn0=EBN0_GRID,
        config=config,
        experiments=[
            ExperimentSpec(label=label, code=code, decoder=decoder)
            for label, decoder in decoders
        ],
    )


def test_campaign_shared_pool_vs_pool_per_sweep(benchmark, report_sink, tmp_path):
    spec = _spec()
    code = spec.experiments[0].code.build()

    def run_pool_per_sweep():
        curves = {}
        children = np.random.SeedSequence(spec.seed).spawn(len(spec.experiments))
        for index, experiment in enumerate(spec.experiments):
            sweep = EbN0Sweep(
                code,
                experiment.decoder.factory(code),
                config=spec.config,
                rng=children[index],
                workers=WORKERS,
            )
            curves[experiment.label] = sweep.run(spec.ebn0, label=experiment.label)
        return curves

    def run_shared_pool(directory="shared", telemetry=False, campaign_spec=None):
        campaign_spec = campaign_spec if campaign_spec is not None else spec
        store = ResultStore.create(tmp_path / directory, campaign_spec, fresh=True)
        return CampaignScheduler(
            campaign_spec, store, workers=WORKERS, telemetry=telemetry
        ).run()

    start = time.perf_counter()
    per_sweep_curves = run_pool_per_sweep()
    per_sweep_seconds = time.perf_counter() - start

    start = time.perf_counter()
    shared_curves = benchmark.pedantic(run_shared_pool, rounds=1, iterations=1)
    shared_seconds = time.perf_counter() - start

    # The same campaign once more with full telemetry: event log, metrics
    # snapshot and per-shard stage profiling all on.
    start = time.perf_counter()
    run_shared_pool("shared-telemetry", telemetry=True)
    telemetry_seconds = time.perf_counter() - start
    telemetry_overhead = (
        max(telemetry_seconds - shared_seconds, 0.0) / shared_seconds
        if shared_seconds else 0.0
    )

    # The batched campaign leg: identical spec, compacted batched decoder
    # kernels.  Whole shards go through one decode_batch call per shard.
    start = time.perf_counter()
    batched_curves = run_shared_pool(
        "shared-batched", campaign_spec=_batched_spec(spec)
    )
    batched_seconds = time.perf_counter() - start
    batched_speedup = (
        shared_seconds / batched_seconds if batched_seconds else float("inf")
    )
    # Speed knob, not physics knob: every stored point must be equal.
    for label, curve in shared_curves.items():
        assert batched_curves[label].points == curve.points, (
            f"batched decoders changed the stored points of {label!r}"
        )

    # Write-only contract, measured end to end: telemetry must not change a
    # single byte of the persisted curves.
    labels = [experiment.label for experiment in spec.experiments]
    for label in labels:
        plain = ResultStore.open(tmp_path / "shared").curve_path(label)
        profiled = ResultStore.open(tmp_path / "shared-telemetry").curve_path(label)
        assert plain.read_bytes() == profiled.read_bytes(), (
            f"telemetry changed the persisted curve of {label!r}"
        )

    total_frames = sum(
        point.frames for curve in shared_curves.values() for point in curve.points
    )
    speedup = per_sweep_seconds / shared_seconds if shared_seconds else float("inf")
    cores = os.cpu_count() or 1
    rows = [
        [f"pool per sweep ({len(spec.experiments)} pools)",
         f"{per_sweep_seconds:.2f}", "1.00"],
        [f"one shared pool ({WORKERS} workers)",
         f"{shared_seconds:.2f}", f"{speedup:.2f}"],
        ["one shared pool + telemetry",
         f"{telemetry_seconds:.2f}",
         f"{per_sweep_seconds / telemetry_seconds:.2f}" if telemetry_seconds else "-"],
        ["one shared pool, batched decoder kernels",
         f"{batched_seconds:.2f}",
         f"{per_sweep_seconds / batched_seconds:.2f}" if batched_seconds else "-"],
    ]
    text = format_table(
        ["strategy", "wall clock (s)", "speedup"],
        rows,
        title=(
            f"{len(spec.experiments)}-configuration campaign, "
            f"{len(EBN0_GRID)} Eb/N0 points each ({cores} CPU cores available)"
        ),
    )
    text += (
        "\n\nDeterminism: every campaign curve matches its standalone sweep "
        "bit for bit (same per-experiment seed streams), and the "
        "telemetry-on rerun wrote byte-identical curve files "
        f"({100.0 * telemetry_overhead:.1f}% wall-clock overhead). The "
        "batched-kernel rerun (identical spec, compacted decode_batch "
        "shards) stored equal points in "
        f"{batched_seconds:.2f}s — {batched_speedup:.2f}x the serial-kind "
        "shared pool."
    )
    report_sink("campaign_shared_pool", text)

    record_trajectory("campaign_pool", {
        "workers": WORKERS,
        "experiments": len(spec.experiments),
        "ebn0_points_per_experiment": len(EBN0_GRID),
        "total_frames": int(total_frames),
        "pool_per_sweep_seconds": per_sweep_seconds,
        "shared_pool_seconds": shared_seconds,
        "shared_pool_speedup": speedup,
        "frames_per_second": total_frames / shared_seconds if shared_seconds else None,
        "telemetry_overhead": {
            "seconds_off": shared_seconds,
            "seconds_on": telemetry_seconds,
            "overhead_fraction": telemetry_overhead,
            "curves_byte_identical": True,
        },
        "batched_campaign": {
            "seconds": batched_seconds,
            "speedup": batched_speedup,
            "points_equal": True,
        },
    })

    # The scheduling strategy must never change the physics.
    for label, curve in per_sweep_curves.items():
        assert shared_curves[label].points == curve.points, label
    # The wall-clock claim needs four real cores to back it.
    if cores >= 4:
        assert speedup >= 1.0, (
            f"shared pool slower than pool-per-sweep: {speedup:.2f}x"
        )
