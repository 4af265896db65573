"""The session facade: Simulation, specs, registries, observers.

The central contract: every path through :class:`repro.session.Simulation`
— fluent, declarative, or file-backed — produces *bit-identical*
statistics to the hand-wired ``generate_workload_trace`` +
``ReSimEngine(...).run()`` pipeline it replaced.
"""

import json

import pytest

from repro.bpred.unit import PREDICTORS, PredictorConfig
from repro.cache.replacement import REPLACEMENT_POLICIES, LruPolicy
from repro.core.config import PAPER_4WIDE_PERFECT, ProcessorConfig
from repro.core.engine import EngineObserver, ReSimEngine
from repro.fpga.device import DEVICES, VIRTEX4_LX40
from repro.serialize import config_from_dict, config_to_dict, stats_to_dict
from repro.session import (
    CONFIGS,
    SessionError,
    Simulation,
    WORKLOADS,
)
from repro.sweep import SweepRunner, SweepSpec
from repro.utils.registry import Registry, RegistryError
from repro.workloads.tracegen import generate_workload_trace

BUDGET = 2_000


def hand_wired(workload="gzip", config=PAPER_4WIDE_PERFECT,
               budget=BUDGET, seed=7):
    generation, start_pc = generate_workload_trace(
        workload, config, budget=budget, seed=seed)
    return ReSimEngine(config, generation.records, start_pc=start_pc).run()


class TestFacadeEquivalence:
    def test_workload_run_bit_identical_to_hand_wiring(self):
        direct = hand_wired()
        session = Simulation.for_workload("gzip", budget=BUDGET).run()
        assert stats_to_dict(session.stats) == stats_to_dict(direct.stats)

    def test_kernel_run_bit_identical(self):
        direct = hand_wired("vecsum")
        session = Simulation.for_workload("vecsum", budget=BUDGET).run()
        assert stats_to_dict(session.stats) == stats_to_dict(direct.stats)

    def test_trace_file_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "t.rtrc"
        sim = Simulation.for_workload("vecsum", budget=BUDGET)
        records, written = sim.save_trace(path)
        assert records > 0 and written > 0
        replayed = Simulation.for_trace_file(path).run()
        assert (stats_to_dict(replayed.stats)
                == stats_to_dict(sim.run().stats))

    def test_records_source(self):
        generation, start_pc = generate_workload_trace(
            "gzip", PAPER_4WIDE_PERFECT, budget=BUDGET, seed=7)
        session = Simulation.for_records(
            generation.records, start_pc=start_pc).run()
        assert stats_to_dict(session.stats) == stats_to_dict(
            hand_wired().stats)

    def test_device_projection_matches_throughput_model(self):
        from repro.perf.throughput import ThroughputModel
        session = (Simulation.for_workload("gzip", budget=BUDGET)
                   .with_devices("xc4vlx40").run())
        expected = ThroughputModel(VIRTEX4_LX40).report(session.result)
        assert session.mips("xc4vlx40") == expected.mips
        with pytest.raises(KeyError, match="no projection"):
            session.mips("xc5vlx50t")

    def test_fluent_builders_do_not_mutate_the_base(self):
        base = Simulation.for_workload("gzip", budget=BUDGET)
        variant = base.with_seed(11).with_budget(500)
        assert base.seed == 7 and base.budget == BUDGET
        assert variant.seed == 11 and variant.budget == 500

    def test_prepare_is_cached(self):
        sim = Simulation.for_workload("gzip", budget=BUDGET)
        assert sim.prepare() is sim.prepare()

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError, match="unknown workload"):
            Simulation.for_workload("doom", budget=100).run()


class TestSpecs:
    def test_spec_round_trip_describes_the_same_run(self):
        sim = (Simulation.for_workload("gzip", budget=BUDGET)
               .with_devices("xc4vlx40").with_warmup(100).with_roi(500))
        spec = sim.to_spec()
        # The spec is plain JSON.
        reloaded = json.loads(json.dumps(spec))
        r1 = Simulation.from_spec(reloaded).run()
        r2 = sim.run()
        assert stats_to_dict(r1.stats) == stats_to_dict(r2.stats)
        assert r1.mips("xc4vlx40") == r2.mips("xc4vlx40")

    def test_from_spec_reproduces_simulate_bit_identically(self):
        direct = hand_wired()
        session = Simulation.from_spec(
            {"workload": "gzip", "budget": BUDGET}).run()
        assert stats_to_dict(session.stats) == stats_to_dict(direct.stats)

    def test_from_spec_reproduces_sweep_point_bit_identically(
            self, tmp_path):
        spec = SweepSpec(axes={"rob_entries": (8, 16)})
        result = SweepRunner(spec, "gzip", results_dir=tmp_path / "out",
                             budget=BUDGET).run()
        trace_files = list((tmp_path / "out").glob("trace-*.rtrc"))
        assert len(trace_files) == 1
        for outcome in result:
            session = Simulation.from_spec({
                "trace_file": str(trace_files[0]),
                "config": config_to_dict(outcome.config),
            }).run()
            assert (stats_to_dict(session.stats)
                    == stats_to_dict(outcome.stats))

    def test_from_spec_named_config_and_devices(self):
        session = Simulation.from_spec({
            "workload": "vecsum",
            "config": "2wide-cache",
            "devices": ["xc4vlx40", "xc5vlx50t"],
        })
        assert session.config == CONFIGS.get("2wide-cache")
        assert [d.name for d in session.devices] == ["xc4vlx40",
                                                     "xc5vlx50t"]

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(SessionError, match="unknown spec key"):
            Simulation.from_spec({"workload": "gzip", "budge": 100})

    def test_from_spec_rejects_zero_or_two_sources(self):
        with pytest.raises(SessionError, match="exactly one source"):
            Simulation.from_spec({"budget": 100})
        with pytest.raises(SessionError, match="exactly one source"):
            Simulation.from_spec({"workload": "gzip",
                                  "trace_file": "t.rtrc"})

    def test_from_spec_rejects_wrong_schema(self):
        with pytest.raises(SessionError, match="schema"):
            Simulation.from_spec({"workload": "gzip", "schema": 99})

    def test_from_spec_rejects_bad_config_value(self):
        with pytest.raises(RegistryError, match="unknown config"):
            Simulation.from_spec({"workload": "gzip", "config": "8wide"})
        with pytest.raises(SessionError, match="config"):
            Simulation.from_spec({"workload": "gzip", "config": 17})

    def test_from_spec_rejects_incomplete_config_dict(self):
        # Regression: a partial config dict escaped as a raw KeyError.
        with pytest.raises(SessionError, match="bad config in spec"):
            Simulation.from_spec({"workload": "gzip",
                                  "config": {"width": 4}})

    def test_from_spec_coerces_and_validates_numeric_fields(self):
        # Regression: a string roi_instructions used to crash mid-run.
        session = Simulation.from_spec({
            "workload": "gzip", "budget": 500,
            "roi_instructions": "300", "max_cycles": "100000",
        })
        assert session._roi == 300
        with pytest.raises(SessionError, match="bad value in spec"):
            Simulation.from_spec({"workload": "gzip",
                                  "roi_instructions": "lots"})

    def test_to_spec_refuses_unserializable_runs(self):
        generation, _ = generate_workload_trace(
            "gzip", PAPER_4WIDE_PERFECT, budget=500, seed=7)
        with pytest.raises(SessionError, match="no serializable"):
            Simulation.for_records(generation.records).to_spec()
        with pytest.raises(SessionError, match="does not serialize"):
            (Simulation.for_workload("gzip")
             .with_stop_when(lambda e: False).to_spec())

    def test_to_spec_uses_registered_config_name(self):
        spec = Simulation.for_workload("gzip").to_spec()
        assert spec["config"] == "4wide-perfect"
        custom = Simulation.for_workload(
            "gzip", ProcessorConfig(rob_entries=32)).to_spec()
        assert isinstance(custom["config"], dict)
        assert custom["config"]["rob_entries"] == 32

    def test_session_result_to_json(self, tmp_path):
        session = (Simulation.for_workload("vecsum")
                   .with_devices("xc4vlx40").run())
        path = tmp_path / "r.json"
        session.to_json(path)
        document = json.loads(path.read_text())
        assert document["spec"]["workload"] == "vecsum"
        assert document["mips"]["xc4vlx40"] == session.mips("xc4vlx40")
        assert config_from_dict(document["config"]) == session.config


class TestRegistries:
    def test_component_registries_are_populated(self):
        assert set(CONFIGS) == {"4wide-perfect", "2wide-cache"}
        assert "xc4vlx40" in DEVICES
        assert "gzip" in WORKLOADS and "vecsum" in WORKLOADS
        assert "twolevel" in PREDICTORS
        assert "lru" in REPLACEMENT_POLICIES

    def test_aliases_resolve_but_stay_hidden(self):
        assert REPLACEMENT_POLICIES.get("l") is LruPolicy
        assert "l" not in list(REPLACEMENT_POLICIES)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(RegistryError, match="choose from"):
            DEVICES.get("xc9999")

    def test_registry_error_is_both_key_and_value_error(self):
        with pytest.raises(KeyError):
            DEVICES.get("nope")
        with pytest.raises(ValueError):
            DEVICES.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, overwrite=True)
        assert registry.get("a") == 2

    def test_decorator_registration(self):
        registry = Registry("builder")

        @registry.register("f")
        def build():
            return 42

        assert registry.get("f") is build

    def test_registered_config_reaches_the_cli_name_surface(self):
        name = "test-tiny"
        CONFIGS.register(name, ProcessorConfig(rob_entries=8,
                                               lsq_entries=4))
        try:
            session = Simulation.from_spec(
                {"workload": "vecsum", "config": name}).run()
            assert session.config.rob_entries == 8
        finally:
            CONFIGS._components.pop(name)

    def test_predictor_registry_builds_every_scheme(self):
        for scheme in PREDICTORS:
            built = PREDICTORS.get(scheme)(
                PredictorConfig(scheme=scheme))
            assert built is not None

    def test_dict_style_get_with_default_still_works(self):
        # Regression: DEVICES was a plain dict before the registry;
        # the two-argument dict.get form must keep working.
        sentinel = object()
        assert DEVICES.get("xc9999", sentinel) is sentinel
        assert DEVICES.get("xc9999", None) is None
        assert DEVICES.get("xc4vlx40", sentinel) is VIRTEX4_LX40

    def test_late_registered_predictor_is_a_valid_sweep_axis(self):
        # Regression: SweepSpec validated against an import-time
        # snapshot, rejecting schemes registered afterwards.
        from repro.bpred.perfect import PerfectPredictor

        PREDICTORS.register("test-oracle", lambda cfg: PerfectPredictor())
        try:
            spec = SweepSpec(axes={"predictor": ["test-oracle"]})
            points = list(spec.expand())
            assert points[0].config.predictor.scheme == "test-oracle"
        finally:
            PREDICTORS._components.pop("test-oracle")


class TestObservers:
    class Recorder(EngineObserver):
        def __init__(self):
            self.cycles = 0
            self.commits = 0
            self.recoveries = 0

        def on_cycle(self, engine):
            self.cycles += 1

        def on_commit(self, engine, op):
            self.commits += 1

        def on_recovery(self, engine, branch):
            self.recoveries += 1

    def test_observer_counts_match_statistics(self):
        recorder = self.Recorder()
        session = (Simulation.for_workload("gzip", budget=BUDGET)
                   .with_observer(recorder).run())
        assert recorder.cycles == session.major_cycles
        assert recorder.commits == int(
            session.stats.committed_instructions)
        assert recorder.recoveries == int(session.stats.mispredictions)

    def test_observers_do_not_change_timing(self):
        plain = Simulation.for_workload("gzip", budget=BUDGET).run()
        observed = (Simulation.for_workload("gzip", budget=BUDGET)
                    .with_observer(self.Recorder()).run())
        assert stats_to_dict(plain.stats) == stats_to_dict(observed.stats)

    def test_unoverridden_hooks_are_not_dispatched(self):
        engine = ReSimEngine(PAPER_4WIDE_PERFECT, [])
        engine.add_observer(EngineObserver())  # overrides nothing
        assert engine._cycle_hooks == ()
        assert engine._commit_hooks == ()
        assert engine._recovery_hooks == ()

    def test_remove_observer(self):
        recorder = self.Recorder()
        engine = ReSimEngine(PAPER_4WIDE_PERFECT, [])
        engine.add_observer(recorder)
        assert engine.observers == (recorder,)
        engine.remove_observer(recorder)
        assert engine.observers == ()
        assert engine._cycle_hooks == ()

    def test_commit_hook_never_sees_wrong_path_ops(self):
        seen = []

        class Check(EngineObserver):
            def on_commit(self, engine, op):
                seen.append(op)

        (Simulation.for_workload("gzip", budget=BUDGET)
         .with_observer(Check()).run())
        assert seen and not any(op.is_wrong_path for op in seen)


class TestRunWindowControls:
    def test_warmup_resets_statistics_but_keeps_state_warm(self):
        full = Simulation.for_workload("gzip", budget=BUDGET).run()
        warmed = (Simulation.for_workload("gzip", budget=BUDGET)
                  .with_warmup(500).run())
        committed = int(warmed.stats.committed_instructions)
        assert committed < int(full.stats.committed_instructions)
        assert warmed.major_cycles < full.major_cycles

    def test_roi_stops_after_n_committed_instructions(self):
        session = (Simulation.for_workload("gzip", budget=BUDGET)
                   .with_roi(300).run())
        committed = int(session.stats.committed_instructions)
        # The commit stage retires up to `width` per cycle, so the
        # stop lands within one commit group of the target.
        assert 300 <= committed < 300 + PAPER_4WIDE_PERFECT.width

    def test_stop_when_predicate(self):
        session = (Simulation.for_workload("gzip", budget=BUDGET)
                   .with_stop_when(lambda e: e.cycle >= 50).run())
        assert session.major_cycles == 50

    def test_window_controls_reject_bad_values(self):
        engine = ReSimEngine(PAPER_4WIDE_PERFECT, [])
        with pytest.raises(ValueError):
            engine.run(warmup_instructions=-1)
        with pytest.raises(ValueError):
            engine.run(roi_instructions=0)


class TestConfigValidation:
    """Regression: zero/negative FU counts and latencies were accepted."""

    @pytest.mark.parametrize("field", [
        "mul_count", "div_count", "alu_latency", "mul_latency",
        "div_latency", "memory_latency",
    ])
    def test_zero_and_negative_rejected(self, field):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=field):
                ProcessorConfig(**{field: bad})

    def test_positive_values_still_accepted(self):
        config = ProcessorConfig(mul_count=2, div_count=2,
                                 alu_latency=2, mul_latency=5,
                                 div_latency=20, memory_latency=30)
        assert config.mul_count == 2


class TestSharedSerialization:
    def test_config_round_trip(self):
        config = ProcessorConfig(rob_entries=32, mul_latency=5)
        assert config_from_dict(config_to_dict(config)) == config


class TestSegmentRanges:
    """Segment-range trace-file runs: the worker-side half of sharded
    distributed work units."""

    @pytest.fixture(scope="class")
    def segmented_trace(self, tmp_path_factory):
        from repro.workloads.tracegen import write_workload_trace
        path = tmp_path_factory.mktemp("seg") / "gzip.rtrc"
        written = write_workload_trace(
            "gzip", PAPER_4WIDE_PERFECT, path, budget=4_000, seed=7,
            segment_records=256)
        assert written.record_count > 512  # several segments
        return path

    def test_segment_range_restricts_the_stream(self, segmented_trace):
        full = Simulation.for_trace_file(segmented_trace)
        shard = Simulation.for_trace_file(segmented_trace,
                                          segments=(0, 2))
        assert shard.prepare().record_count == 512
        assert full.prepare().record_count > 512

    def test_full_range_matches_unsharded_run(self, segmented_trace):
        from repro.trace.fileio import read_segment_table
        count = len(read_segment_table(segmented_trace))
        full = Simulation.for_trace_file(segmented_trace).run()
        ranged = Simulation.for_trace_file(
            segmented_trace, segments=(0, count)).run()
        assert stats_to_dict(ranged.stats) == stats_to_dict(full.stats)

    def test_segments_spec_round_trip(self, segmented_trace):
        sim = Simulation.for_trace_file(segmented_trace,
                                        segments=(1, 3))
        spec = sim.to_spec()
        assert spec["segments"] == [1, 3]
        rebuilt = Simulation.from_spec(spec)
        assert rebuilt.prepare().record_count == \
            sim.prepare().record_count == 512

    def test_segments_require_streaming(self, segmented_trace):
        with pytest.raises(SessionError, match="streaming"):
            Simulation.for_trace_file(segmented_trace,
                                      streaming=False, segments=(0, 1))
        with pytest.raises(SessionError, match="streaming"):
            Simulation.from_spec({"trace_file": str(segmented_trace),
                                  "streaming": False,
                                  "segments": [0, 1]})

    def test_segments_rejected_for_workload_specs(self):
        with pytest.raises(SessionError, match="'segments'"):
            Simulation.from_spec({"workload": "gzip",
                                  "segments": [0, 1]})

    def test_malformed_ranges_rejected(self, segmented_trace):
        for bad in ((1,), (1, 2, 3), ("a", "b"), (-1, 2), (3, 1)):
            with pytest.raises(SessionError):
                Simulation.for_trace_file(segmented_trace,
                                          segments=bad)

    def test_empty_ranges_rejected(self, segmented_trace):
        # Regression: lo == hi used to slip through range coercion and
        # produce a silent zero-record run — a cacheable "result" of
        # nothing.  Empty is malformed on every entry path.
        for lo in (0, 1, 3):
            with pytest.raises(SessionError, match="lo < hi"):
                Simulation.for_trace_file(segmented_trace,
                                          segments=(lo, lo))
            with pytest.raises(SessionError, match="lo < hi"):
                Simulation.from_spec({
                    "trace_file": str(segmented_trace),
                    "segments": [lo, lo]})

    def test_empty_range_rejected_in_work_units(self, segmented_trace,
                                                tmp_path):
        from repro.exec import WorkUnit, execute_unit
        unit = WorkUnit.for_trace(
            "empty", segmented_trace, "4wide-perfect",
            tmp_path / "empty.json", segments=(2, 2))
        with pytest.raises(SessionError, match="lo < hi"):
            execute_unit(unit)
        assert not (tmp_path / "empty.json").exists()

    def test_describe_mentions_the_range(self, segmented_trace):
        sim = Simulation.for_trace_file(segmented_trace,
                                        segments=(0, 2))
        assert "segments 0..2" in sim.describe()
