"""Tests for the declarative campaign layer (repro.sim.campaign)."""

import json

import pytest

from repro.cli import main
from repro.registry import component_names
from repro.sim import EbN0Sweep, SimulationConfig
from repro.sim.campaign import (
    CampaignScheduler,
    CampaignSpec,
    ChannelSpec,
    CodeSpec,
    DecoderSpec,
    ExperimentSpec,
    ResultStore,
    StoreMismatchError,
    config_from_dict,
    expand_grid,
)
from repro.sim.campaign.spec import BoundDecoderFactory, slugify
from repro.sim.results import SimulationCurve, SimulationPoint


TINY_CONFIG = SimulationConfig(
    max_frames=40, target_frame_errors=6, batch_frames=10, all_zero_codeword=True
)


def tiny_spec(name="test-campaign", seed=7, ebn0=(2.0, 4.0)) -> CampaignSpec:
    """Two decoder configurations on the scaled code — fast but non-trivial."""
    code = CodeSpec(family="scaled", circulant=31)
    return CampaignSpec(
        name=name,
        seed=seed,
        ebn0=tuple(ebn0),
        config=TINY_CONFIG,
        experiments=[
            ExperimentSpec(label="nms", code=code, decoder=DecoderSpec("nms", 8)),
            ExperimentSpec(
                label="min-sum", code=code, decoder=DecoderSpec("min-sum", 8)
            ),
        ],
    )


class TestSpecs:
    def test_campaign_round_trips_through_json(self):
        spec = tiny_spec()
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert restored.as_dict() == spec.as_dict()

    def test_save_and_load(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert CampaignSpec.load(path).as_dict() == spec.as_dict()

    def test_experiment_overrides_survive_round_trip(self):
        override = SimulationConfig(max_frames=99, target_frame_errors=9)
        experiment = ExperimentSpec(
            label="override",
            code=CodeSpec(family="scaled", circulant=31),
            decoder=DecoderSpec("nms", 8, params={"alpha": 1.5}),
            ebn0=(1.0, 2.0, 3.0),
            config=override,
        )
        spec = CampaignSpec(name="o", experiments=[experiment], ebn0=(5.0,))
        restored = CampaignSpec.from_dict(spec.as_dict()).experiments[0]
        assert restored.ebn0 == (1.0, 2.0, 3.0)
        assert restored.config.max_frames == 99
        assert restored.decoder.params == {"alpha": 1.5}
        assert restored.resolve_ebn0(spec.ebn0) == (1.0, 2.0, 3.0)

    def test_decoder_factory_is_picklable(self, scaled_code):
        """Campaign pool entries must survive spawn-start-method pickling."""
        import pickle

        factory = DecoderSpec("nms", 8, params={"alpha": 1.25}).factory(scaled_code)
        assert isinstance(factory, BoundDecoderFactory)
        rebuilt = pickle.loads(pickle.dumps(factory))
        decoder = rebuilt()
        assert decoder.alpha == 1.25
        assert decoder.max_iterations == 8

    def test_decoder_spec_builds_with_fixed_point_format(self, scaled_code):
        decoder = DecoderSpec(
            "quantized", 8, params={"alpha": 1.25, "message_format": [6, 2]}
        ).build(scaled_code)
        assert decoder.message_format.total_bits == 6
        assert decoder.message_format.fractional_bits == 2

    def test_validation_errors(self):
        code = CodeSpec(family="scaled", circulant=31)
        with pytest.raises(ValueError, match="family"):
            CodeSpec(family="mystery")
        with pytest.raises(ValueError, match="circulant"):
            CodeSpec(family="scaled")
        with pytest.raises(ValueError, match="kind"):
            DecoderSpec(kind="turbo")
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                name="dup",
                ebn0=(1.0,),
                experiments=[
                    ExperimentSpec("a", code, DecoderSpec("nms")),
                    ExperimentSpec("a", code, DecoderSpec("min-sum")),
                ],
            )
        with pytest.raises(ValueError, match="Eb/N0"):
            CampaignSpec(
                name="nogrid",
                experiments=[ExperimentSpec("a", code, DecoderSpec("nms"))],
            )
        with pytest.raises(ValueError, match="at least one"):
            CampaignSpec(name="empty", ebn0=(1.0,), experiments=[])

    def test_duplicate_ebn0_values_rejected(self):
        """Two jobs at one Eb/N0 would race for one store slot."""
        code = CodeSpec(family="scaled", circulant=31)
        with pytest.raises(ValueError, match="duplicate Eb/N0"):
            CampaignSpec(
                name="dup-grid",
                ebn0=(3.0, 3.0),
                experiments=[ExperimentSpec("a", code, DecoderSpec("nms"))],
            )
        with pytest.raises(ValueError, match="duplicate Eb/N0"):
            CampaignSpec(
                name="dup-own",
                ebn0=(1.0,),
                experiments=[
                    ExperimentSpec("a", code, DecoderSpec("nms"), ebn0=(2.0, 2.0))
                ],
            )

    def test_ccsds_key_reflects_circulant_override(self):
        assert CodeSpec(family="ccsds-c2").key == "ccsds-c2"
        scaled_twin = CodeSpec(family="ccsds-c2", circulant=31)
        assert scaled_twin.key == "ccsds-c2-c31"
        assert scaled_twin.key != CodeSpec(family="ccsds-c2").key

    def test_slugify(self):
        assert slugify("nms/alpha=1.25") == "nms-alpha-1.25"
        assert slugify("///") == "experiment"


class TestGridExpansion:
    def test_cartesian_axes_over_params_and_iterations(self):
        experiments = expand_grid(
            {
                "codes": [{"family": "scaled", "circulant": 31}],
                "decoders": [
                    {
                        "kind": "nms",
                        "iterations": [10, 18],
                        "params": {"alpha": [1.25, 1.5]},
                    },
                    {"kind": "min-sum", "iterations": 50},
                ],
            }
        )
        labels = [e.label for e in experiments]
        assert len(experiments) == 5  # 2 x 2 + 1
        assert len(set(labels)) == 5
        assert "nms-it10-alpha1.25" in labels
        assert "nms-it18-alpha1.5" in labels
        assert "min-sum-it50" in labels

    def test_codes_and_configs_are_axes_too(self):
        experiments = expand_grid(
            {
                "codes": [
                    {"family": "scaled", "circulant": 31},
                    {"family": "scaled", "circulant": 63},
                ],
                "decoders": [{"kind": "nms", "iterations": 8}],
                "configs": [
                    {"max_frames": 10, "target_frame_errors": 2},
                    {"max_frames": 20, "target_frame_errors": 2},
                ],
            }
        )
        assert len(experiments) == 4
        labels = {e.label for e in experiments}
        assert "scaled31-nms-it8-cfg0" in labels
        assert {e.config.max_frames for e in experiments} == {10, 20}

    def test_format_pair_is_value_but_pair_list_is_axis(self):
        single = expand_grid(
            {"decoders": [{"kind": "quantized", "params": {"message_format": [6, 2]}}]}
        )
        assert len(single) == 1
        assert single[0].decoder.params["message_format"] == [6, 2]
        axis = expand_grid(
            {
                "decoders": [
                    {
                        "kind": "quantized",
                        "params": {"message_format": [[4, 1], [6, 2]]},
                    }
                ]
            }
        )
        assert len(axis) == 2
        assert [e.decoder.params["message_format"] for e in axis] == [[4, 1], [6, 2]]

    def test_grid_inside_campaign_dict(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "g",
                "ebn0": [3.0],
                "grid": {
                    "codes": [{"family": "scaled", "circulant": 31}],
                    "decoders": [{"kind": "nms", "iterations": [8, 18]}],
                },
            }
        )
        assert [e.label for e in spec.experiments] == ["nms-it8", "nms-it18"]
        assert spec.total_points() == 2

    def test_unknown_grid_keys_rejected(self):
        with pytest.raises(ValueError, match="grid keys"):
            expand_grid({"decoder": [{"kind": "nms"}]})


class TestResultStore:
    def test_create_open_round_trip(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        reopened = ResultStore.open(tmp_path / "c")
        assert reopened.spec.as_dict() == spec.as_dict()

    def test_mismatched_spec_rejected_unless_fresh(self, tmp_path):
        ResultStore.create(tmp_path / "c", tiny_spec(seed=7))
        with pytest.raises(StoreMismatchError):
            ResultStore.create(tmp_path / "c", tiny_spec(seed=8))
        store = ResultStore.create(tmp_path / "c", tiny_spec(seed=8), fresh=True)
        assert store.spec.seed == 8

    def test_record_point_persists_incrementally(self, tmp_path, scaled_code):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        point = (
            EbN0Sweep(
                scaled_code,
                lambda: DecoderSpec("nms", 8).build(scaled_code),
                config=TINY_CONFIG,
                rng=1,
            )
            .run([2.0], label="nms")
            .points[0]
        )
        store.record_point("nms", point)
        # Visible to a completely fresh store object (i.e. on disk, valid JSON).
        fresh = ResultStore.open(tmp_path / "c")
        assert fresh.completed_ebn0("nms") == {2.0}
        # Recording the same Eb/N0 again is a no-op, not a duplicate.
        store.record_point("nms", point)
        assert len(store.curve("nms").points) == 1

    def test_curve_metadata_addresses_the_experiment(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        metadata = store.curve("min-sum").metadata
        assert metadata["campaign"] == spec.name
        assert metadata["experiment"] == "min-sum"
        assert metadata["experiment_index"] == 1
        assert metadata["seed"] == spec.seed
        assert metadata["decoder"]["kind"] == "min-sum"
        assert metadata["config"]["max_frames"] == TINY_CONFIG.max_frames
        assert metadata["ebn0_grid"] == [2.0, 4.0]

    def test_unknown_label_rejected(self, tmp_path):
        store = ResultStore.create(tmp_path / "c", tiny_spec())
        with pytest.raises(KeyError):
            store.curve("nope")

    def test_fresh_discards_stray_curves_even_without_manifest(self, tmp_path):
        directory = tmp_path / "c"
        directory.mkdir()
        stray = directory / "nms.curve.json"
        stray.write_text(json.dumps({"label": "nms", "points": []}))
        ResultStore.create(directory, tiny_spec(), fresh=True)
        assert not stray.exists()

    def test_status_reports_corrupt_curve_instead_of_raising(self, tmp_path):
        """Regression: a mismatched curve file used to crash campaign status."""
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        path = store.curve_path("nms")
        path.write_text(
            json.dumps(
                {
                    "label": "nms",
                    "metadata": {"campaign": "someone-else", "seed": 123},
                    "points": [],
                }
            )
        )
        rows = ResultStore.open(tmp_path / "c").status()
        corrupt = {row["label"]: row for row in rows}["nms"]
        assert corrupt["error"] is not None
        assert "different campaign spec" in corrupt["error"]
        assert corrupt["complete"] is False
        assert corrupt["points_done"] == 0
        # The healthy experiment is still reported normally.
        assert {row["label"]: row for row in rows}["min-sum"]["error"] is None

    def test_status_reports_unreadable_curve_file(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        store.curve_path("min-sum").write_text("{broken json")
        fresh = ResultStore.open(tmp_path / "c")
        corrupt = {row["label"]: row for row in fresh.status()}["min-sum"]
        assert "not a readable curve file" in corrupt["error"]
        assert not fresh.is_complete()

    def test_stray_curve_from_other_spec_rejected(self, tmp_path):
        """A curve measured under a different spec must not be adopted."""
        other = tiny_spec(seed=99)
        directory = tmp_path / "c"
        other_store = ResultStore.create(directory, other)
        other_store.curve("nms")  # stamp metadata
        other_store.record_point(
            "nms",
            SimulationPoint(
                ebn0_db=2.0, ber=0.1, fer=0.5, bit_errors=1, frame_errors=1,
                bits=10, frames=2,
            ),
        )
        (directory / "campaign.json").unlink()  # simulate manual recovery
        store = ResultStore.create(directory, tiny_spec(seed=7))
        with pytest.raises(StoreMismatchError, match="different campaign spec"):
            store.curve("nms")


class TestScheduler:
    def test_plan_interleaves_experiments_round_robin(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        jobs = CampaignScheduler(spec, store).plan()
        assert [(j.label, j.point_index) for j in jobs] == [
            ("nms", 0),
            ("min-sum", 0),
            ("nms", 1),
            ("min-sum", 1),
        ]

    def test_seed_derivation_is_pure(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        scheduler = CampaignScheduler(spec, store)
        first = [j.seed.entropy for j in scheduler.plan()]
        second = [j.seed.entropy for j in scheduler.plan()]
        assert first == second

    def test_serial_campaign_matches_standalone_sweeps(self, tmp_path, scaled_code):
        """A campaign experiment == an EbN0Sweep seeded with its child stream."""
        import numpy as np

        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        curves = CampaignScheduler(spec, store, workers=None).run()
        children = np.random.SeedSequence(spec.seed).spawn(2)
        for index, (label, kind) in enumerate([("nms", "nms"), ("min-sum", "min-sum")]):
            sweep = EbN0Sweep(
                scaled_code,
                lambda k=kind: DecoderSpec(k, 8).build(scaled_code),
                config=TINY_CONFIG,
                rng=children[index],
            )
            assert curves[label].points == sweep.run(spec.ebn0).points

    def test_pooled_campaign_matches_serial_for_any_worker_count(self, tmp_path):
        spec = tiny_spec()
        reference = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "serial", spec), workers=None
        ).run()
        for workers in (1, 3):
            curves = CampaignScheduler(
                spec,
                ResultStore.create(tmp_path / f"w{workers}", spec),
                workers=workers,
            ).run()
            for label, curve in reference.items():
                assert curves[label].points == curve.points

    def test_pooled_campaign_works_under_spawn_start_method(self, tmp_path):
        """Campaign entries are picklable: the pool starts without fork."""
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable")
        spec = tiny_spec(ebn0=(2.0,))
        reference = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "serial", spec), workers=None
        ).run()
        curves = CampaignScheduler(
            spec,
            ResultStore.create(tmp_path / "spawned", spec),
            workers=2,
            mp_context="spawn",
        ).run()
        for label, curve in reference.items():
            assert curves[label].points == curve.points

    def test_resume_after_partial_store_is_bit_identical(self, tmp_path):
        spec = tiny_spec()
        reference = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "ref", spec), workers=None
        ).run()
        # Pre-populate a fresh store with an arbitrary subset of points, as a
        # killed campaign would leave behind.
        partial = ResultStore.create(tmp_path / "partial", spec)
        partial.record_point("nms", reference["nms"].points[1])
        partial.record_point("min-sum", reference["min-sum"].points[0])
        scheduler = CampaignScheduler(spec, partial, workers=2)
        assert len(scheduler.pending()) == 2
        resumed = scheduler.run()
        for label, curve in reference.items():
            assert resumed[label].points == curve.points

    def test_interrupted_serial_run_resumes_to_identical_counts(self, tmp_path):
        spec = tiny_spec()
        reference = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "ref", spec), workers=None
        ).run()

        class Stop(Exception):
            pass

        def explode_after_first(label, point):
            raise Stop

        store = ResultStore.create(tmp_path / "int", spec)
        with pytest.raises(Stop):
            CampaignScheduler(spec, store, workers=None).run(
                progress=explode_after_first
            )
        # The first point survived the crash on disk...
        survivor = ResultStore.open(tmp_path / "int")
        assert sum(r["points_done"] for r in survivor.status()) == 1
        # ...and resuming completes to the uninterrupted counts.
        resumed = CampaignScheduler(spec, survivor, workers=None).run()
        for label, curve in reference.items():
            assert resumed[label].points == curve.points

    def test_progress_callback_sees_every_point(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        seen = []
        CampaignScheduler(spec, store, workers=2).run(
            progress=lambda label, point: seen.append((label, point.ebn0_db))
        )
        assert sorted(seen) == [
            ("min-sum", 2.0),
            ("min-sum", 4.0),
            ("nms", 2.0),
            ("nms", 4.0),
        ]

    def test_completed_campaign_runs_nothing(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        CampaignScheduler(spec, store, workers=None).run()
        scheduler = CampaignScheduler(spec, store, workers=None)
        assert scheduler.pending() == []
        assert store.is_complete()


class TestCampaignCLI:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli",
                    "seed": 3,
                    "ebn0": [2.0, 4.0],
                    "config": {
                        "max_frames": 30,
                        "target_frame_errors": 6,
                        "batch_frames": 10,
                        "all_zero_codeword": True,
                    },
                    "grid": {
                        "codes": [{"family": "scaled", "circulant": 31}],
                        "decoders": [
                            {"kind": "nms", "iterations": 8},
                            {"kind": "min-sum", "iterations": 8},
                        ],
                    },
                }
            )
        )
        return path

    def test_run_status_resume(self, tmp_path, spec_file, capsys):
        out_dir = tmp_path / "out"
        assert main(["campaign", "run", str(spec_file), "--dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 to run" in out
        assert "results stored in" in out
        assert (out_dir / "campaign.json").exists()
        assert (out_dir / "nms-it8.curve.json").exists()
        curve = SimulationCurve.load(out_dir / "nms-it8.curve.json")
        assert curve.metadata["experiment"] == "nms-it8"
        assert len(curve.points) == 2

        assert main(["campaign", "status", str(out_dir)]) == 0
        assert "done" in capsys.readouterr().out

        # Everything done: resume has nothing to run but succeeds.
        assert main(["campaign", "resume", str(out_dir)]) == 0
        assert "0 to run" in capsys.readouterr().out

    def test_status_of_partial_store_exits_nonzero(self, tmp_path, spec_file, capsys):
        out_dir = tmp_path / "out"
        spec = CampaignSpec.load(spec_file)
        ResultStore.create(out_dir, spec)
        assert main(["campaign", "status", str(out_dir)]) == 1
        assert "partial" in capsys.readouterr().out

    def test_status_names_the_corrupt_experiment(self, tmp_path, spec_file, capsys):
        """Regression: status used to raise StoreMismatchError on bad files."""
        out_dir = tmp_path / "out"
        store = ResultStore.create(out_dir, CampaignSpec.load(spec_file))
        path = store.curve_path("nms-it8")
        path.write_text(
            json.dumps(
                {
                    "label": "nms-it8",
                    "metadata": {"campaign": "other", "seed": 9},
                    "points": [],
                }
            )
        )
        assert main(["campaign", "status", str(out_dir)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert "nms-it8" in out
        assert "different campaign spec" in out

    def test_run_with_workers_matches_serial(self, tmp_path, spec_file, capsys):
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        assert main(["campaign", "run", str(spec_file), "--dir", str(serial_dir)]) == 0
        assert main([
            "campaign", "run", str(spec_file), "--dir", str(pooled_dir),
            "--workers", "2",
        ]) == 0
        capsys.readouterr()
        for path in serial_dir.glob("*.curve.json"):
            serial = json.loads(path.read_text())
            pooled = json.loads((pooled_dir / path.name).read_text())
            assert serial["points"] == pooled["points"]

    def test_mismatched_rerun_needs_fresh(self, tmp_path, spec_file, capsys):
        out_dir = tmp_path / "out"
        assert main(["campaign", "run", str(spec_file), "--dir", str(out_dir)]) == 0
        changed = json.loads(spec_file.read_text())
        changed["seed"] = 99
        spec_file.write_text(json.dumps(changed))
        capsys.readouterr()
        # Usage errors exit 2 (distinct from status's 1 = incomplete).
        assert main(["campaign", "run", str(spec_file), "--dir", str(out_dir)]) == 2
        assert "different spec" in capsys.readouterr().err
        assert main([
            "campaign", "run", str(spec_file), "--dir", str(out_dir), "--fresh",
        ]) == 0

    def test_bad_directory_and_bad_spec_exit_2(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path / "nope")]) == 2
        assert "cannot open" in capsys.readouterr().err
        assert main(["campaign", "resume", str(tmp_path / "nope")]) == 2
        capsys.readouterr()
        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text("{not json")
        assert main(["campaign", "run", str(bad_spec)]) == 2
        assert "cannot load campaign spec" in capsys.readouterr().err


class TestChannelSpec:
    def test_default_is_awgn_and_omitted_from_dicts(self):
        spec = ChannelSpec()
        assert spec.kind == "awgn"
        assert spec.is_default
        assert spec.as_dict() == {"kind": "awgn"}
        experiment = ExperimentSpec(
            "a", CodeSpec(family="scaled", circulant=31), DecoderSpec("nms")
        )
        # The default channel does not appear in the JSON form, so specs
        # written before the channel axis existed stay byte-comparable.
        assert "channel" not in experiment.as_dict()

    def test_round_trip_with_params_and_modulator(self):
        spec = ChannelSpec(
            kind="rayleigh",
            params={"block_length": 16},
            modulator="bpsk",
            modulator_params={"amplitude": 2.0},
        )
        restored = ChannelSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert restored == spec
        assert restored.as_dict() == {
            "kind": "rayleigh",
            "params": {"block_length": 16},
            "modulator_params": {"amplitude": 2.0},
        }

    def test_keys_include_non_default_parts(self):
        assert ChannelSpec().key == "awgn"
        assert ChannelSpec(kind="bsc").key == "bsc"
        assert (
            ChannelSpec(kind="rayleigh", params={"block_length": 8}).key
            == "rayleigh-block-length8"
        )
        assert "amplitude2.0" in ChannelSpec(
            kind="awgn", modulator_params={"amplitude": 2.0}
        ).key

    def test_build_produces_working_pipeline(self):
        import numpy as np

        pipeline = ChannelSpec(kind="bsc", params={"crossover": 0.1}).build()
        llrs = pipeline.llrs(
            np.zeros((2, 8), dtype=np.uint8), 1.0, np.random.default_rng(0)
        )
        assert llrs.shape == (2, 8)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown ChannelSpec keys"):
            ChannelSpec.from_dict({"kind": "awgn", "chanel_params": {}})

    def test_unknown_param_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="valid parameters"):
            ChannelSpec(kind="rayleigh", params={"blocklength": 8})


class TestDynamicErrorMessages:
    """Unknown-name errors list the registry's current names, not stale tuples."""

    def test_code_family_error_lists_registered_families(self):
        with pytest.raises(ValueError, match="family") as excinfo:
            CodeSpec(family="mystery")
        for name in component_names("code"):
            assert name in str(excinfo.value)

    def test_decoder_kind_error_lists_registered_kinds(self):
        with pytest.raises(ValueError, match="kind") as excinfo:
            DecoderSpec(kind="turbo")
        for name in component_names("decoder"):
            assert name in str(excinfo.value)

    def test_channel_kind_error_lists_registered_kinds(self):
        with pytest.raises(ValueError, match="kind") as excinfo:
            ChannelSpec(kind="carrier-pigeon")
        for name in component_names("channel"):
            assert name in str(excinfo.value)

    def test_errors_track_registry_contents(self):
        """A freshly registered name appears in the very next error message."""
        from repro.registry import temporary_component

        with temporary_component("channel", "test-ephemeral", lambda: None):
            with pytest.raises(ValueError) as excinfo:
                ChannelSpec(kind="nope")
            assert "test-ephemeral" in str(excinfo.value)
        with pytest.raises(ValueError) as excinfo:
            ChannelSpec(kind="nope")
        assert "test-ephemeral" not in str(excinfo.value)

    def test_config_from_dict_rejects_unknown_keys_with_pinned_message(self):
        """The docstring promises a raise (it protects resume) — pin it."""
        with pytest.raises(
            ValueError, match=r"unknown SimulationConfig keys: \['max_framez'\]"
        ):
            config_from_dict({"max_framez": 10})
        assert "unknown keys raise" in (config_from_dict.__doc__ or "").lower()


class TestChannelAxisCampaigns:
    def three_channel_spec(self, ebn0=(2.0, 4.0)) -> CampaignSpec:
        return CampaignSpec.from_dict({
            "name": "channels",
            "seed": 13,
            "ebn0": list(ebn0),
            "config": {
                "max_frames": 20, "target_frame_errors": 4,
                "batch_frames": 10, "all_zero_codeword": True,
            },
            "grid": {
                "codes": [{"family": "scaled", "circulant": 31}],
                "decoders": [{"kind": "nms", "iterations": 8}],
                "channels": [
                    {"kind": "awgn"},
                    {"kind": "bsc"},
                    {"kind": "rayleigh", "params": {"block_length": 31}},
                ],
            },
        })

    def test_grid_expands_channel_axis_with_keys_in_labels(self):
        spec = self.three_channel_spec()
        assert [e.label for e in spec.experiments] == [
            "nms-it8-awgn", "nms-it8-bsc", "nms-it8-rayleigh-block-length31",
        ]
        assert [e.channel.kind for e in spec.experiments] == [
            "awgn", "bsc", "rayleigh",
        ]

    def test_channel_params_can_be_grid_axes(self):
        experiments = expand_grid({
            "codes": [{"family": "scaled", "circulant": 31}],
            "decoders": [{"kind": "nms", "iterations": 8}],
            "channels": [{"kind": "rayleigh", "params": {"block_length": [8, 31]}}],
        })
        assert [e.channel.params["block_length"] for e in experiments] == [8, 31]
        assert len({e.label for e in experiments}) == 2

    def test_modulator_params_can_be_grid_axes_too(self):
        """A list-valued modulator parameter expands instead of failing at
        build time deep inside the scheduler."""
        experiments = expand_grid({
            "codes": [{"family": "scaled", "circulant": 31}],
            "decoders": [{"kind": "nms", "iterations": 8}],
            "channels": [
                {"kind": "awgn", "modulator_params": {"amplitude": [1.0, 2.0]}}
            ],
        })
        assert [e.channel.modulator_params["amplitude"] for e in experiments] == [
            1.0, 2.0,
        ]
        for experiment in experiments:
            assert experiment.channel.build().amplitude in (1.0, 2.0)
        assert len({e.label for e in experiments}) == 2

    def test_serial_matches_pooled_on_every_channel(self, tmp_path):
        spec = self.three_channel_spec(ebn0=(3.0,))
        serial = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "serial", spec), workers=None
        ).run()
        pooled = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "pooled", spec), workers=3
        ).run()
        for label, curve in serial.items():
            assert pooled[label].points == curve.points

    def test_run_resume_and_channel_addressed_reporting(self, tmp_path):
        spec = self.three_channel_spec()
        reference = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "ref", spec), workers=None
        ).run()
        # Interrupt: pre-seed a store with a partial subset, then resume.
        partial = ResultStore.create(tmp_path / "partial", spec)
        partial.record_point("nms-it8-bsc", reference["nms-it8-bsc"].points[1])
        resumed = CampaignScheduler(spec, partial, workers=2).run()
        for label, curve in reference.items():
            assert resumed[label].points == curve.points
        # Curves are channel-addressed and filterable by channel metadata.
        from repro.analysis.campaign import CampaignReport, CurveSet

        curves = CurveSet.from_store(ResultStore.open(tmp_path / "partial"))
        assert curves.filter(channel__kind="bsc").labels == ["nms-it8-bsc"]
        assert set(curves.group_by("channel.kind")) == {
            ("awgn",), ("bsc",), ("rayleigh",),
        }
        report = CampaignReport.from_store(
            tmp_path / "partial", target_ber=1e-1, include_rates=False
        )
        by_label = {e.label: e for e in report.experiments}
        assert by_label["nms-it8-bsc"].channel_key == "bsc"
        text = report.to_text()
        assert "channel bsc" in text  # per-(code, channel) comparison tables
        assert "Channel" in text      # summary column


class TestBatchedGoldenCounts:
    """Golden-count fixture for the batched hot path.

    The counts below were recorded with the *serial* ``nms`` kind; the
    campaign here decodes through ``nms-batched`` (whole shards per
    ``decode_batch`` call, compacted early termination) and must reproduce
    them byte for byte — serial, pooled, and across a kill/resume cycle.
    """

    GOLDEN_BATCHED = {
        "nms": [
            {"ebn0_db": 2.0, "ber": 0.053629032258064514, "fer": 1.0,
             "bit_errors": 266, "frame_errors": 10, "bits": 4960, "frames": 10,
             "average_iterations": 8.0, "info_ber": 0.05321100917431193,
             "info_bit_errors": 232, "info_bits": 4360},
            {"ebn0_db": 5.0, "ber": 0.0, "fer": 0.0, "bit_errors": 0,
             "frame_errors": 0, "bits": 14880, "frames": 30,
             "average_iterations": 1.6666666666666667, "info_ber": 0.0,
             "info_bit_errors": 0, "info_bits": 13080},
        ],
    }

    def batched_spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="batched-golden",
            seed=4321,
            ebn0=(2.0, 5.0),
            config=SimulationConfig(
                max_frames=30, target_frame_errors=5, batch_frames=10,
                all_zero_codeword=False,
            ),
            experiments=[
                ExperimentSpec(
                    label="nms",
                    code=CodeSpec(family="scaled", circulant=31),
                    decoder=DecoderSpec("nms-batched", 8),
                ),
            ],
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_batched_campaign_reproduces_golden_counts(self, tmp_path, workers):
        spec = self.batched_spec()
        curves = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "c", spec), workers=workers
        ).run()
        got = {
            label: [p.as_dict() for p in curve.points]
            for label, curve in curves.items()
        }
        assert got == self.GOLDEN_BATCHED

    def test_killed_pooled_campaign_resumes_to_golden_counts(self, tmp_path):
        """A partial store (as a killed pooled run leaves behind) resumed
        with a different worker count still lands exactly on the fixture."""
        spec = self.batched_spec()
        reference = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "ref", spec), workers=2
        ).run()
        partial = ResultStore.create(tmp_path / "partial", spec)
        partial.record_point("nms", reference["nms"].points[0])
        scheduler = CampaignScheduler(spec, partial, workers=None)
        assert len(scheduler.pending()) == 1
        resumed = scheduler.run()
        got = {
            label: [p.as_dict() for p in curve.points]
            for label, curve in resumed.items()
        }
        assert got == self.GOLDEN_BATCHED


def _point(ebn0, ber, fer, bit_errors, frame_errors, frames, iterations,
           info_ber, info_bit_errors):
    """One stored curve point of the scaled twin (n=496, k=436)."""
    return {"ebn0_db": ebn0, "ber": ber, "fer": fer, "bit_errors": bit_errors,
            "frame_errors": frame_errors, "bits": 496 * frames, "frames": frames,
            "average_iterations": iterations, "info_ber": info_ber,
            "info_bit_errors": info_bit_errors, "info_bits": 436 * frames}


class TestScheduleGoldenCounts:
    """Golden counts for the layered schedule and the hard-decision decoders.

    Recorded before the layered decoder moved onto per-layer Tanner
    sub-graphs (and the hard-decision decoders onto the shared decoder
    set-up).  ``layered`` and ``layered-batched`` both run the new layer
    kernels, so comparing the two cannot catch drift; these fixed counts
    can.  ``layered-3`` splits the 62 checks unevenly (20/21/21).
    """

    GOLDEN = {
        "layered": [
            _point(2.0, 0.053629032258064514, 1.0, 266, 10, 10, 8.0,
                   0.05298165137614679, 231),
            _point(6.5, 0.0, 0.0, 0, 0, 40, 0.7, 0.0, 0),
        ],
        "layered-3": [
            _point(2.0, 0.05060483870967742, 1.0, 251, 10, 10, 8.0,
                   0.04954128440366973, 216),
            _point(6.5, 0.0, 0.0, 0, 0, 40, 0.75, 0.0, 0),
        ],
        "gallager-b": [
            _point(2.0, 0.501008064516129, 1.0, 2485, 10, 10, 8.0,
                   0.49954128440366974, 2178),
            _point(6.5, 0.025403225806451612, 0.55, 252, 11, 20, 4.75,
                   0.02522935779816514, 220),
        ],
        "wbf": [
            _point(2.0, 0.06592741935483871, 1.0, 327, 10, 10, 8.0,
                   0.06536697247706422, 285),
            _point(6.5, 0.0012096774193548388, 0.3, 12, 6, 20, 1.5,
                   0.0010321100917431193, 9),
        ],
    }

    def golden_spec(self, layered_kind: str) -> CampaignSpec:
        code = CodeSpec(family="scaled", circulant=31)
        return CampaignSpec(
            name="golden-schedules",
            seed=1234,
            ebn0=(2.0, 6.5),
            config=SimulationConfig(
                max_frames=40, target_frame_errors=6, batch_frames=10,
                all_zero_codeword=False,
            ),
            experiments=[
                ExperimentSpec("layered", code, DecoderSpec(layered_kind, 8)),
                ExperimentSpec(
                    "layered-3", code,
                    DecoderSpec(layered_kind, 8, params={"num_layers": 3}),
                ),
                ExperimentSpec("gallager-b", code, DecoderSpec("gallager-b", 8)),
                ExperimentSpec("wbf", code, DecoderSpec("wbf", 8)),
            ],
        )

    @pytest.mark.parametrize("layered_kind", ["layered", "layered-batched"])
    def test_counts_byte_identical(self, tmp_path, layered_kind):
        spec = self.golden_spec(layered_kind)
        curves = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "c", spec), workers=None
        ).run()
        got = {
            label: [p.as_dict() for p in curve.points]
            for label, curve in curves.items()
        }
        assert got == self.GOLDEN


class TestPreRedesignCompatibility:
    """The registry/channel redesign must not invalidate anything historical."""

    #: Counts recorded by the pre-registry engine (hardcoded BPSK + AWGN in
    #: MonteCarloSimulator._transmit) for the spec below.  The redesigned
    #: pipeline must reproduce them byte for byte.  The only values ever
    #: re-recorded since: ``average_iterations``, when the iteration-count
    #: convention changed to count *executed* iterations (the channel
    #: syndrome is now checked at iteration 0, so a frame whose hard
    #: decisions already satisfy every check records 0 iterations instead
    #: of 1).  Every error/bit/frame count is untouched by that change.
    GOLDEN = {
        "nms": [
            {"ebn0_db": 2.0, "ber": 0.05161290322580645, "fer": 1.0,
             "bit_errors": 256, "frame_errors": 10, "bits": 4960, "frames": 10,
             "average_iterations": 8.0, "info_ber": 0.05022935779816514,
             "info_bit_errors": 219, "info_bits": 4360},
            {"ebn0_db": 6.5, "ber": 0.0, "fer": 0.0, "bit_errors": 0,
             "frame_errors": 0, "bits": 19840, "frames": 40,
             "average_iterations": 0.7, "info_ber": 0.0,
             "info_bit_errors": 0, "info_bits": 17440},
        ],
        "quantized": [
            {"ebn0_db": 2.0, "ber": 0.04858870967741936, "fer": 1.0,
             "bit_errors": 241, "frame_errors": 10, "bits": 4960, "frames": 10,
             "average_iterations": 8.0, "info_ber": 0.04724770642201835,
             "info_bit_errors": 206, "info_bits": 4360},
            {"ebn0_db": 6.5, "ber": 5.040322580645161e-05, "fer": 0.025,
             "bit_errors": 1, "frame_errors": 1, "bits": 19840, "frames": 40,
             "average_iterations": 0.925, "info_ber": 5.733944954128441e-05,
             "info_bit_errors": 1, "info_bits": 17440},
        ],
    }

    def golden_spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="golden",
            seed=1234,
            ebn0=(2.0, 6.5),
            config=SimulationConfig(
                max_frames=40, target_frame_errors=6, batch_frames=10,
                all_zero_codeword=False,
            ),
            experiments=[
                ExperimentSpec(
                    label="nms",
                    code=CodeSpec(family="scaled", circulant=31),
                    decoder=DecoderSpec("nms", 8, params={"alpha": 1.25}),
                ),
                ExperimentSpec(
                    label="quantized",
                    code=CodeSpec(family="scaled", circulant=31),
                    decoder=DecoderSpec(
                        "quantized", 8,
                        params={"alpha": 1.25, "message_format": [6, 2]},
                    ),
                ),
            ],
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_awgn_counts_byte_identical_to_pre_redesign_engine(
        self, tmp_path, workers
    ):
        spec = self.golden_spec()
        curves = CampaignScheduler(
            spec, ResultStore.create(tmp_path / "c", spec), workers=workers
        ).run()
        got = {
            label: [p.as_dict() for p in curve.points]
            for label, curve in curves.items()
        }
        assert got == self.GOLDEN

    def test_batched_decoder_reproduces_serial_campaign_counts(self, tmp_path):
        """Swapping ``nms`` for ``nms-batched`` in a spec is *only* a speed
        knob: the stored curve points are byte for byte the same."""
        spec = self.golden_spec()
        batched_spec = CampaignSpec(
            name=spec.name, seed=spec.seed, ebn0=spec.ebn0, config=spec.config,
            experiments=[
                ExperimentSpec(
                    label=e.label, code=e.code,
                    decoder=DecoderSpec(
                        "nms-batched" if e.decoder.kind == "nms" else e.decoder.kind,
                        e.decoder.iterations, params=e.decoder.params,
                    ),
                )
                for e in spec.experiments
            ],
        )
        curves = CampaignScheduler(
            batched_spec, ResultStore.create(tmp_path / "b", batched_spec),
            workers=None,
        ).run()
        got = {
            label: [p.as_dict() for p in curve.points]
            for label, curve in curves.items()
        }
        assert got == self.GOLDEN

    def test_pre_channel_axis_spec_json_loads_unchanged(self):
        """A spec dict written before this PR (no channel keys) still loads."""
        legacy = {
            "name": "legacy",
            "seed": 7,
            "ebn0": [2.0, 4.0],
            "experiments": [
                {
                    "label": "nms",
                    "code": {"family": "scaled", "circulant": 31},
                    "decoder": {"kind": "nms", "iterations": 8},
                }
            ],
        }
        spec = CampaignSpec.from_dict(legacy)
        assert spec.experiments[0].channel == ChannelSpec()
        # And its dict form is unchanged by the round trip (no channel key).
        assert spec.as_dict()["experiments"][0] == legacy["experiments"][0]

    def test_legacy_curve_file_without_channel_metadata_is_adopted(self, tmp_path):
        """Stores written before the channel axis resume without --fresh."""
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        point = next(iter(
            CampaignScheduler(
                spec, ResultStore.create(tmp_path / "ref", spec), workers=None
            ).run().values()
        )).points[0]
        store.record_point("nms", point)
        # Strip the channel field, as a pre-redesign writer would have.
        path = store.curve_path("nms")
        data = json.loads(path.read_text())
        assert data["metadata"].pop("channel") == {"kind": "awgn"}
        path.write_text(json.dumps(data))
        reopened = ResultStore.open(tmp_path / "c")
        assert reopened.curve_problem("nms") is None
        assert reopened.completed_ebn0("nms") == {point.ebn0_db}
        # The stamped metadata now carries the default channel again.
        assert reopened.curve("nms").metadata["channel"] == {"kind": "awgn"}

    def test_legacy_curve_is_not_adopted_by_non_default_channel(self, tmp_path):
        """A channel-less curve is AWGN — a BSC experiment must reject it."""
        code = CodeSpec(family="scaled", circulant=31)
        spec = CampaignSpec(
            name="test-campaign", seed=7, ebn0=(2.0, 4.0), config=TINY_CONFIG,
            experiments=[
                ExperimentSpec(
                    "nms", code, DecoderSpec("nms", 8),
                    channel=ChannelSpec(kind="bsc"),
                ),
                ExperimentSpec("min-sum", code, DecoderSpec("min-sum", 8)),
            ],
        )
        store = ResultStore.create(tmp_path / "c", spec)
        curve = store.curve("nms")
        from repro.sim.results import SimulationPoint

        store.record_point(
            "nms",
            SimulationPoint(ebn0_db=2.0, ber=0.1, fer=0.5, bit_errors=1,
                            frame_errors=1, bits=10, frames=2),
        )
        path = store.curve_path("nms")
        data = json.loads(path.read_text())
        del data["metadata"]["channel"]
        path.write_text(json.dumps(data))
        reopened = ResultStore.open(tmp_path / "c")
        problem = reopened.curve_problem("nms")
        assert problem is not None and "different campaign spec" in problem

    def test_stray_dedicated_field_is_ignored_like_pre_registry_builders(self):
        """Pre-PR specs could carry e.g. a rate on a 'scaled' code; the old
        builders dropped it silently, so stored manifests must keep loading."""
        spec = CodeSpec.from_dict({"family": "scaled", "circulant": 31, "rate": "1/2"})
        assert spec.build().block_length == 496  # rate ignored, as before
        assert spec.as_dict()["rate"] == "1/2"   # ...but still persisted
        # Free-form params (new in this redesign) stay strict.
        with pytest.raises(ValueError, match="valid parameters"):
            CodeSpec(family="scaled", circulant=31, params={"ratee": "1/2"})
