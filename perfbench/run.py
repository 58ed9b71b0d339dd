"""Paper-scale benchmark: frames/s on the CCSDS C2 code, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload c2-fig4-sweep --seed 1 --seconds 6 --trace 0

``--trace 0`` prints the end-to-end metrics (``frames_per_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` runs the same operations untraced and
traced, interleaved, and prints the per-layer metrics.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment (CPU count, numpy,
BLAS and its thread cap, code fingerprint, block length, scale).  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("c2-fig4-sweep", "c2-layered-allzero", "campaign-pool", "campaign-fabric")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is repeated and its median reported.
C2_SETUP_REPEATS = 3
CAMPAIGN_SETUP_REPEATS = 3

#: (name, unit, better) — printed with ``--trace 0``.
END_TO_END = (
    ("frames_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) — printed with ``--trace 1``.  A metric that does
#: not apply to a workload (README: "applies on") is reported as 0.
PER_LAYER = (
    ("codes.build_s", "s", "lower"),
    ("codes.dimension_s", "s", "lower"),
    ("encode.setup_s", "s", "lower"),
    ("encode.setup_cached_s", "s", "lower"),
    ("encode.ms_per_frame", "ms", "lower"),
    ("encode.wall_frac", "frac", "lower"),
    ("channel.ms_per_frame", "ms", "lower"),
    ("decode.ms_per_frame", "ms", "lower"),
    ("decode.wall_frac", "frac", "lower"),
    ("decode.check_node_s", "s", "lower"),
    ("decode.bit_node_s", "s", "lower"),
    ("decode.syndrome_s", "s", "lower"),
    ("decode.self_s", "s", "lower"),
    ("decode.edge_updates", "count", "lower"),
    ("decode.check_node_ns_per_edge", "ns", "lower"),
    ("decode.iterations_mean", "count", "lower"),
    ("decode.iterations_p50", "count", "lower"),
    ("decode.iterations_p99", "count", "lower"),
    ("sim.count_ms_per_frame", "ms", "lower"),
    ("sim.self_s", "s", "lower"),
    ("pool.shards", "count", "lower"),
    ("pool.compute_s", "s", "lower"),
    ("pool.queue_s", "s", "lower"),
    ("pool.utilization", "frac", "higher"),
    ("campaign.points", "count", "higher"),
    ("campaign.store_s", "s", "lower"),
    ("campaign.frames_saved_by_early_stop", "count", "higher"),
    ("fabric.broker_s", "s", "lower"),
    ("fabric.leases", "count", "lower"),
    ("fabric.retries", "count", "lower"),
    ("fabric.redispatches", "count", "lower"),
    ("fabric.dead_letters", "count", "lower"),
    ("fabric.utilization", "frac", "higher"),
    ("obs.telemetry_overhead_frac", "frac", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.event_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def configure_processes(workload: str) -> dict[str, int]:
    """Pick the worker count and cap BLAS threads, before numpy loads.

    ``workers = min(2, os.cpu_count())`` never exceeds the CPU count, and the
    BLAS thread variables are set so that processes x threads <= CPU count.
    """
    cpu_count = os.cpu_count() or 1
    workers = min(2, cpu_count)
    processes = workers if workload == "campaign-pool" else 1
    threads = max(1, cpu_count // processes)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = str(threads)
    return {"cpu_count": cpu_count, "workers": workers, "processes": processes,
            "blas_threads_cap": threads}


def blas_info() -> dict[str, Any]:
    """numpy version, BLAS library and the thread count BLAS reports."""
    import ctypes

    import numpy as np

    info: dict[str, Any] = {"numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(str(path)), symbol, None)
            if getter is not None:
                info["blas_threads"] = int(getter())
                return info
    return info


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest waited-for child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rate_since(phase: Any, mark: tuple[int, float]) -> float:
    """Frames per second a phase added since ``mark = (frames, seconds)``."""
    return ratio(phase.frames - mark[0], phase.seconds - mark[1])


# --------------------------------------------------------------------------- #
def run_c2(workload: Any, args: argparse.Namespace, workdir: Path, refdir: Path) -> dict[str, Any]:
    import numpy as np

    from paper_workloads import Phase, c2_round, c2_setup, encoder_roundtrip_ok, traced_c2
    from refcheck import ReferenceCache, c2_failures, c2_reference
    from repro.encode.systematic import SystematicEncoder, parity_check_fingerprint
    from repro.obs.probe import STAGES
    from spans import Tracer

    setups = []
    for rep in range(C2_SETUP_REPEATS):
        state = c2_setup(workload, workdir / f"encoder-cache-{rep}")
        setups.append(state.parts)
    # The last build is the one the loop runs on.
    encoder_ok = workload.all_zero or encoder_roundtrip_ok(state.code, args.seed)

    untraced, traced = Phase(), Phase()
    tracer, iterations = Tracer(), []
    rounds, round_rates = 0, []
    while untraced.seconds < args.seconds:
        failed_before = len(untraced.errors)
        mark = (untraced.frames, untraced.seconds)
        c2_round(workload, state.sim, args.seed, rounds, untraced)
        round_rates.append(rate_since(untraced, mark))
        if args.trace:
            with traced_c2(state, tracer, iterations):
                c2_round(workload, state.sim, args.seed, rounds, traced, tracer)
        rounds += 1
        if len(untraced.errors) - failed_before == len(workload.ebn0):
            break  # every operation of the round raised
    rss = peak_rss_mb()
    cached_encoder_s = 0.0
    if args.trace and not workload.all_zero:
        started = time.perf_counter()
        SystematicEncoder(state.code)
        cached_encoder_s = time.perf_counter() - started

    pcm = state.code.parity_check_matrix()
    fingerprint = parity_check_fingerprint(pcm)
    cache = ReferenceCache(
        refdir, f"{workload.name}-seed{args.seed}-{fingerprint[:16]}", ROOT / "src" / "repro"
    )
    keys = sorted(set(untraced.counts) | set(traced.counts))
    reference = c2_reference(workload, state, args.seed, keys, cache)
    attempted = failed = 0
    failing: list[str] = []
    for phase in (untraced, traced):
        a, f, bad = c2_failures(phase, reference)
        attempted, failed, failing = attempted + a, failed + f, failing + bad

    if not args.trace:
        metrics = {
            "frames_per_s": statistics.median(round_rates),
            "setup_s": statistics.median(sum(p.values()) for p in setups),
            "peak_rss_mb": rss,
        }
    else:
        tracer.dump(HERE / ".out" / f"spans-{workload.name}-seed{args.seed}.json")
        stage = {name: tracer.total(name) for name in STAGES}
        frames = max(traced.frames, 1)
        its = np.concatenate(iterations) if iterations else np.zeros(1, dtype=np.int64)
        edge_updates = int(its.sum()) * int(pcm.edges()[0].size)
        check_node = tracer.total("decode.check_node")

        def setup_median(step: str) -> float:
            return statistics.median(p[step] for p in setups)

        metrics = {
            "codes.build_s": setup_median("codes.build"),
            "codes.dimension_s": setup_median("codes.dimension"),
            "encode.setup_s": setup_median("sim.setup"),
            "encode.setup_cached_s": cached_encoder_s,
            "encode.ms_per_frame": 1e3 * stage["encode"] / frames,
            "encode.wall_frac": ratio(stage["encode"], traced.seconds),
            "channel.ms_per_frame": 1e3 * stage["channel"] / frames,
            "decode.ms_per_frame": 1e3 * stage["decode"] / frames,
            "decode.wall_frac": ratio(stage["decode"], traced.seconds),
            "decode.check_node_s": check_node / rounds,
            "decode.bit_node_s": tracer.total("decode.bit_node") / rounds,
            "decode.syndrome_s": tracer.total("decode.syndrome") / rounds,
            "decode.self_s": tracer.self_time("decode") / rounds,
            "decode.edge_updates": edge_updates / rounds,
            "decode.check_node_ns_per_edge": 1e9 * ratio(check_node, edge_updates),
            "decode.iterations_mean": float(its.mean()),
            "decode.iterations_p50": float(np.percentile(its, 50)),
            "decode.iterations_p99": float(np.percentile(its, 99)),
            "sim.count_ms_per_frame": 1e3 * stage["count"] / frames,
            "sim.self_s": tracer.self_time("sim.run_point") / rounds,
            "trace.overhead_frac": ratio(traced.seconds, untraced.seconds) - 1.0,
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and encoder_ok,
        "info": {
            "block_length": int(pcm.block_length),
            "parity_check_fingerprint": fingerprint,
            "rounds": rounds,
            "frames": untraced.frames + traced.frames,
            "encoder_check": encoder_ok,
            "failing_ops": failing[:8],
            "errors": sorted(set(untraced.errors.values()) | set(traced.errors.values()))[:4],
            "reference_computed": cache.computed,
        },
    }


# --------------------------------------------------------------------------- #
def run_campaign_workload(
    workload: Any, args: argparse.Namespace, workers: int, workdir: Path, refdir: Path
) -> dict[str, Any]:
    from collections import Counter

    from paper_workloads import (
        Phase,
        clear,
        encoder_roundtrip_ok,
        read_telemetry,
        run_campaign,
        traced_fabric,
    )
    from refcheck import ReferenceCache, campaign_failures, campaign_reference
    from repro.encode.systematic import parity_check_fingerprint
    from spans import Tracer

    setups = []
    for rep in range(CAMPAIGN_SETUP_REPEATS):
        os.environ["REPRO_ENCODER_CACHE"] = str(workdir / f"encoder-cache-{rep}")
        first = run_campaign(
            workload.spec(args.seed, 0, first_result=True), workdir / "first",
            executor=workload.executor, workers=workers,
        )
        setups.append(first.seconds)
    clear(workdir / "first")
    code = workload.build_code()
    encoder_ok = encoder_roundtrip_ok(code, args.seed)

    phases = {"off": Phase(), "telemetry": Phase(), "traced": Phase()}
    tracer = Tracer()
    snapshots: list[tuple[dict[str, Any], list[str], int]] = []

    def attempt(name: str, index: int, **kwargs: Any) -> None:
        phase = phases[name]
        started = time.perf_counter()
        try:
            run = run_campaign(
                workload.spec(args.seed, index), workdir / "op",
                executor=workload.executor, workers=workers, **kwargs,
            )
        except Exception as exc:  # a raising run fails all of its shards
            phase.errors[str(index)] = f"{type(exc).__name__}: {exc}"
            phase.seconds += time.perf_counter() - started
        else:
            phase.counts[str(index)] = run
            phase.frames += run.frames
            phase.seconds += run.seconds
            if name == "traced":
                snapshots.append(read_telemetry(run.telemetry_dir))
        clear(workdir / "op")

    def instrument(store: Any) -> None:
        store.record_point = tracer.wrap(store.record_point, "campaign.store")

    index, campaign_rates = 0, []
    while phases["off"].seconds < args.seconds:
        mark = (phases["off"].frames, phases["off"].seconds)
        attempt("off", index)
        campaign_rates.append(rate_since(phases["off"], mark))
        if args.trace:
            attempt("telemetry", index, telemetry=True)
            with tracer.span("campaign.run"), traced_fabric(tracer):
                attempt("traced", index, telemetry=True, instrument=instrument)
        index += 1
        if str(index - 1) in phases["off"].errors:
            break
    rss = peak_rss_mb()

    fingerprint = parity_check_fingerprint(code.parity_check_matrix())
    cache = ReferenceCache(
        refdir, f"campaign-seed{args.seed}-{fingerprint[:16]}", ROOT / "src" / "repro"
    )
    attempted = failed = 0
    for i in range(index):
        reference = campaign_reference(workload, args.seed, i, workdir, cache)
        for phase in phases.values():
            key = str(i)
            if key in phase.counts or key in phase.errors:
                a, f = campaign_failures(phase.counts.get(key), reference, workload.batch)
                attempted, failed = attempted + a, failed + f
    clear(workdir / "reference")

    off = phases["off"]
    if not args.trace:
        metrics = {
            "frames_per_s": statistics.median(campaign_rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
    else:
        tracer.dump(HERE / ".out" / f"spans-{workload.name}-seed{args.seed}.json")
        runs = max(len(snapshots), 1)
        events: Counter[str] = Counter()
        for _, names, _ in snapshots:
            events.update(names)

        def counter(name: str) -> float:
            return sum(m["counters"].get(name, 0.0) for m, _, _ in snapshots) / runs

        def gauge(name: str) -> float:
            return sum(m["gauges"].get(name, 0.0) for m, _, _ in snapshots) / runs

        broker_s = sum(
            span.seconds
            for span in tracer.spans
            if span.name.startswith("fabric.broker.")
            and (span.parent is None or not tracer.spans[span.parent].name.startswith("fabric.broker."))
        )
        metrics = {
            "pool.shards": counter("shards_total"),
            "pool.compute_s": counter("shard_compute_seconds_total"),
            "pool.queue_s": counter("shard_queue_seconds_total"),
            "pool.utilization": gauge("pool_utilization"),
            "campaign.points": counter("points_recorded_total"),
            "campaign.store_s": tracer.total("campaign.store") / runs,
            "campaign.frames_saved_by_early_stop": counter("frames_saved_by_early_stop_total"),
            "fabric.broker_s": broker_s / runs,
            "fabric.leases": events["lease_granted"] / runs,
            "fabric.retries": events["job_retry"] / runs,
            "fabric.redispatches": events["straggler_redispatch"] / runs,
            "fabric.dead_letters": events["job_dead"] / runs,
            "fabric.utilization": ratio(
                tracer.total("fabric.shard"), workers * phases["traced"].seconds
            ),
            "obs.telemetry_overhead_frac": ratio(phases["telemetry"].seconds, off.seconds) - 1.0,
            "obs.events": sum(events.values()) / runs,
            "obs.event_bytes": sum(size for _, _, size in snapshots) / runs,
            "trace.overhead_frac": ratio(phases["traced"].seconds, off.seconds) - 1.0,
        }
    errors = set()
    for phase in phases.values():
        errors.update(phase.errors.values())
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and encoder_ok,
        "info": {
            "block_length": int(code.block_length),
            "parity_check_fingerprint": fingerprint,
            "campaigns": index,
            "frames": sum(phase.frames for phase in phases.values()),
            "encoder_check": encoder_ok,
            "errors": sorted(errors)[:4],
            "reference_computed": cache.computed,
        },
    }


# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    env = configure_processes(args.workload)
    sys.path.insert(0, str(ROOT / "src"))
    from paper_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    refdir = HERE / ".refcache"
    try:
        if workload.family == "c2":
            outcome = run_c2(workload, args, workdir, refdir)
        else:
            outcome = run_campaign_workload(workload, args, env["workers"], workdir, refdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict((name, unit) for name, unit, _ in (PER_LAYER if args.trace else END_TO_END))
    metrics = {
        name: {"value": float(outcome["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "headline": workload.headline,
        "scale": (
            "paper: CCSDS C2 code" if workload.headline
            else "scaled C2 twin, not the paper's code: not a headline number"
        ),
        **env,
        **blas_info(),
        **outcome["info"],
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(outcome["correct"] and outcome["attempted"] >= 1),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
