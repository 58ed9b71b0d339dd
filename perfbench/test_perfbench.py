"""Tests of the benchmark itself: the reference gate catches perturbed
results, the tracer's self time, the output contract and BENCHMARK.json.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.  They use the
scaled C2 twin so they finish in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

from repro.codes import build_scaled_ccsds_code
from repro.decode.batched import SERIAL_EQUIVALENTS, BatchedNormalizedMinSumDecoder
from repro.registry import temporary_component

import run
from paper_workloads import WORKLOADS, C2Workload, CampaignWorkload, Phase, c2_round, c2_setup
from paper_workloads import run_campaign
from refcheck import (
    ReferenceCache,
    c2_failures,
    c2_reference,
    campaign_failures,
    campaign_reference,
)
from spans import Tracer

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "repro"


def _small_code():
    return build_scaled_ccsds_code(31)


class FlipFirstBit(BatchedNormalizedMinSumDecoder):
    """nms-batched with one decoded bit of every batch flipped."""

    def decode_batch(self, channel_llrs):
        result = super().decode_batch(channel_llrs)
        bits = result.bits.copy()
        bits[0, 0] ^= 1
        return dataclasses.replace(result, bits=bits)


class FlipInWorkers(FlipFirstBit):
    """Perturbed only inside pool worker processes (an executor-side fault)."""

    parent = os.getpid()

    def decode_batch(self, channel_llrs):
        if os.getpid() == self.parent:
            return BatchedNormalizedMinSumDecoder.decode_batch(self, channel_llrs)
        return super().decode_batch(channel_llrs)


def _c2_outcome(decoder_kind: str, tmp_path: Path) -> tuple[int, int, list[str]]:
    workload = C2Workload(
        name="c2-test", why="test", decoder=decoder_kind,
        ebn0=(2.5, 3.5), all_zero=False, batch=8, build_code=_small_code,
    )
    state = c2_setup(workload, tmp_path / "encoders")
    phase = Phase()
    for round_index in range(2):
        c2_round(workload, state.sim, 7, round_index, phase)
    cache = ReferenceCache(tmp_path / "refs", "c2-test", SOURCE)
    reference = c2_reference(workload, state, 7, sorted(phase.counts), cache)
    return c2_failures(phase, reference)


def test_c2_gate_passes_the_unperturbed_decoder(tmp_path):
    attempted, failed, bad = _c2_outcome("nms-batched", tmp_path)
    assert (attempted, failed, bad) == (4, 0, [])


def test_c2_gate_counts_a_perturbed_decoder_as_failed_operations(tmp_path):
    with temporary_component("decoder", "perfbench-flip", FlipFirstBit), patch.dict(
        SERIAL_EQUIVALENTS, {"perfbench-flip": "nms"}
    ):
        attempted, failed, bad = _c2_outcome("perfbench-flip", tmp_path)
    assert attempted == 4
    assert failed == 4
    assert bad == ["0:0", "0:1", "1:0", "1:1"]


def test_c2_gate_counts_a_raising_operation_as_failed(tmp_path):
    phase = Phase(counts={"0:0": [8, 0, 0, 0, 8, 0]}, errors={"0:1": "ValueError: x"})
    attempted, failed, bad = c2_failures(phase, {"0:0": [8, 0, 0, 0, 8, 0]})
    assert (attempted, failed, bad) == (2, 1, ["0:1"])


def _tiny_campaign(kind: str) -> CampaignWorkload:
    return CampaignWorkload(
        name="campaign-test", why="test", executor="pool", circulant=31,
        decoders=(kind,), channels=("awgn",), ebn0=(2.0, 3.0),
        batch=8, max_frames=16, target_frame_errors=4,
    )


@pytest.mark.parametrize("perturbed", [False, True])
def test_campaign_gate_catches_a_worker_side_fault(tmp_path, perturbed):
    decoder_class = FlipInWorkers if perturbed else BatchedNormalizedMinSumDecoder
    with temporary_component("decoder", "perfbench-workers", decoder_class):
        workload = _tiny_campaign("perfbench-workers")
        run_ = run_campaign(workload.spec(3, 0), tmp_path / "op", executor="pool", workers=2)
        cache = ReferenceCache(tmp_path / "refs", "campaign-test", SOURCE)
        reference = campaign_reference(workload, 3, 0, tmp_path, cache)
    attempted, failed = campaign_failures(run_, reference, workload.batch)
    assert attempted >= 2
    assert (failed > 0) is perturbed


def test_campaign_gate_fails_every_shard_of_a_raising_run():
    reference = {"sha256": {"a": "x"}, "points": {"a": [{"ebn0_db": 2.0, "frames": 20}]}}
    assert campaign_failures(None, reference, batch=8) == (3, 3)


def test_self_time_subtracts_children():
    tracer = Tracer()
    parent = tracer.add("decode", 0.0, 10.0, None)
    tracer.add("decode.check_node", 1.0, 4.0, parent)
    tracer.add("decode.bit_node", 5.0, 7.0, parent)
    assert tracer.self_time("decode") == pytest.approx(5.0)
    assert tracer.total("decode.check_node") == pytest.approx(3.0)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_processes_times_blas_threads_stay_within_the_cpu_count(monkeypatch, workload):
    for name in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "")
    env = run.configure_processes(workload)
    assert 1 <= env["workers"] <= env["cpu_count"]
    assert env["processes"] * env["blas_threads_cap"] <= env["cpu_count"]
    assert all(os.environ[name] == str(env["blas_threads_cap"]) for name in run.BLAS_THREAD_VARS)


def test_reference_cache_is_discarded_when_the_program_changes(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "mod.py").write_text("X = 1\n")
    cache = ReferenceCache(tmp_path / "refs", "entry", source)
    cache.entries["0:0"] = [1, 2, 3]
    cache.save()
    assert ReferenceCache(tmp_path / "refs", "entry", source).entries == {"0:0": [1, 2, 3]}
    (source / "mod.py").write_text("X = 2\n")
    assert ReferenceCache(tmp_path / "refs", "entry", source).entries == {}


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "c2-fig4-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_metrics_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
