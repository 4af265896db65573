"""Config-specialized engine generation: the differential contract.

The specialized tier is only allowed to exist because it is
**bit-identical** to the reference interpreter — same
``SimulationStatistics`` document, byte for byte, on every config,
workload, trace source, and training mode.  These tests enforce that
contract with the reference engine as oracle, then cover the
machinery around it: the codegen cache, the tier rule, spec
round-trips, work-unit / sweep / CLI / service wiring.
"""

import dataclasses
import json
import threading
from functools import lru_cache

import pytest

from repro.core import (
    PAPER_2WIDE_CACHE,
    PAPER_4WIDE_PERFECT,
    ProcessorConfig,
    ReSimEngine,
    SpecializationError,
    SpecializedEngine,
    WarmupWindowError,
)
from repro.bpred.unit import PredictorConfig
from repro.cache.cache import CacheConfig
from repro.core.observers import ProgressObserver
from repro.core.engine import EngineObserver
from repro.core.specialize import (
    DEFAULT_ENGINE,
    ENGINE_TIERS,
    choose_tier,
    clear_codegen_cache,
    codegen_cache_info,
    compile_engine,
    engine_cache_key,
)
from repro.exec import (
    LeaseHeartbeat,
    ProcessPoolBackend,
    SerialBackend,
    WorkUnit,
    execute_unit,
)
from repro.serialize import stats_to_dict
from repro.session import CONFIGS, SessionError, Simulation
from repro.trace.fileio import write_trace_file
from repro.trace.source import FileSource, InMemorySource
from repro.workloads import SyntheticWorkload, get_profile

WORKLOADS = ("bzip2", "gzip", "parser", "vortex", "vpr")
BUDGET = 1200


@lru_cache(maxsize=None)
def _records(workload: str, budget: int = BUDGET) -> tuple:
    generation = SyntheticWorkload(get_profile(workload),
                                   seed=7).generate(budget)
    return tuple(generation.records)


def _doc(stats) -> str:
    """The canonical byte form both tiers must agree on."""
    return json.dumps(stats_to_dict(stats), sort_keys=True)


# ---------------------------------------------------------------------------
# the differential suite: reference engine as oracle


class TestBitIdentity:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_every_config_and_workload(self, config_name, workload):
        config = CONFIGS.get(config_name)
        records = _records(workload)
        reference = ReSimEngine(config, list(records)).run()
        specialized = SpecializedEngine(config, list(records)).run()
        assert _doc(specialized.stats) == _doc(reference.stats)

    @pytest.mark.parametrize("config", (PAPER_4WIDE_PERFECT,
                                        PAPER_2WIDE_CACHE),
                             ids=("perfect", "cache"))
    def test_fetch_time_predictor_training(self, config):
        records = _records("gzip")
        reference = ReSimEngine(
            config, list(records),
            update_predictor_at_commit=False).run()
        specialized = SpecializedEngine(
            config, list(records),
            update_predictor_at_commit=False).run()
        assert _doc(specialized.stats) == _doc(reference.stats)

    def test_components_registered_over_inline_ones(self):
        """Inlining follows what a name resolves to: a scheme and a
        policy registered over inlined ones (after an engine for the
        same config was compiled) run what the reference tier runs."""
        from repro.bpred.unit import PREDICTORS, _build_nottaken
        from repro.cache.replacement import (
            REPLACEMENT_POLICIES, FifoPolicy, LruPolicy)

        config = dataclasses.replace(
            PAPER_2WIDE_CACHE, predictor=PAPER_4WIDE_PERFECT.predictor,
            dcache=CacheConfig(size_bytes=1024, block_bytes=32, assoc=4))
        assert config.predictor.scheme == "twolevel"
        assert config.dcache.replacement == "lru"
        records = list(_records("gzip"))
        SpecializedEngine(config, list(records)).run()
        twolevel = PREDICTORS.get("twolevel")
        try:
            PREDICTORS.register("twolevel", _build_nottaken, overwrite=True)
            REPLACEMENT_POLICIES.register("lru", FifoPolicy, overwrite=True)
            reference = ReSimEngine(config, list(records)).run()
            specialized = SpecializedEngine(config, list(records)).run()
        finally:
            PREDICTORS.register("twolevel", twolevel, overwrite=True)
            REPLACEMENT_POLICIES.register("lru", LruPolicy, overwrite=True)
        assert _doc(specialized.stats) == _doc(reference.stats)
        original = ReSimEngine(config, list(records)).run().stats
        assert original.prediction_divergence \
            != reference.stats.prediction_divergence
        assert original.dcache_misses != reference.stats.dcache_misses

    def test_streaming_and_sharded_file_sources(self, tmp_path):
        records = list(_records("gzip"))
        v1 = tmp_path / "trace.v1"
        v2 = tmp_path / "trace.v2"
        write_trace_file(v1, records, version=1)
        write_trace_file(v2, records, segment_records=256)
        sources = [
            lambda: FileSource(v1),
            lambda: FileSource(v2),
            lambda: FileSource(v2, segments=(1, 3)),
        ]
        for config in (PAPER_4WIDE_PERFECT, PAPER_2WIDE_CACHE):
            for make in sources:
                reference = ReSimEngine(config, make()).run()
                specialized = SpecializedEngine(config, make()).run()
                assert _doc(specialized.stats) == _doc(reference.stats)

    @pytest.mark.parametrize("window", (
        {"warmup_instructions": 1},
        {"warmup_instructions": 500},
        {"roi_instructions": 300},
        {"warmup_instructions": 400, "roi_instructions": 250},
    ), ids=("warmup1", "warmup", "roi", "warmup-roi"))
    def test_warmup_and_roi_windows(self, window, tmp_path):
        records = list(_records("gzip"))
        path = tmp_path / "trace.v2"
        write_trace_file(path, records, segment_records=256)
        sources = (lambda: list(records), lambda: FileSource(path))
        for config in (PAPER_4WIDE_PERFECT, PAPER_2WIDE_CACHE):
            for make in sources:
                reference = ReSimEngine(config, make()).run(**window)
                specialized = SpecializedEngine(
                    config, make()).run(**window)
                assert _doc(specialized.stats) == _doc(reference.stats)

    def test_session_runs_identical_across_tiers(self):
        base = Simulation.for_workload("gzip", PAPER_4WIDE_PERFECT,
                                       budget=BUDGET)
        specialized = base.run()
        reference = base.with_engine("reference").run()
        assert reference.engine_tier == "reference"
        assert specialized.engine_tier == "specialized"
        assert _doc(specialized.stats) == _doc(reference.stats)
        # The result documents agree everywhere except the spec's
        # provenance record of the non-default tier that ran it.
        ref_doc, spec_doc = reference.to_dict(), specialized.to_dict()
        assert ref_doc.pop("spec")["engine"] == "reference"
        assert "engine" not in spec_doc.pop("spec")
        assert spec_doc == ref_doc

    def test_sharded_sweep_merges_identically(self, tmp_path):
        from repro.sweep import SweepRunner, SweepSpec

        spec = SweepSpec(axes={"rob_entries": (8, 16)})
        outcomes = {}
        for engine in ("reference", "specialized"):
            runner = SweepRunner(
                spec, "gzip", results_dir=tmp_path / engine,
                budget=BUDGET, shards=2, engine=engine)
            outcomes[engine] = json.loads(runner.run().to_json())
        assert outcomes["specialized"] == outcomes["reference"]


# ---------------------------------------------------------------------------
# the specialized engine's own guard rails


class TestSpecializedEngineGuards:
    def test_single_run(self):
        engine = SpecializedEngine(PAPER_4WIDE_PERFECT,
                                   list(_records("gzip")))
        engine.run()
        with pytest.raises(SpecializationError):
            engine.run()

    def test_instrumentation_windows_rejected(self):
        """Warmup and ROI are compiled in; a stop_when predicate needs
        the engine between cycles and stays a reference feature."""
        engine = SpecializedEngine(PAPER_4WIDE_PERFECT,
                                   list(_records("gzip")))
        with pytest.raises(SpecializationError):
            engine.run(stop_when=lambda engine: False)
        with pytest.raises(ValueError, match="warmup_instructions"):
            engine.run(warmup_instructions=-1)
        with pytest.raises(ValueError, match="roi_instructions"):
            engine.run(roi_instructions=0)

    def test_wrong_path_free_guard_trips_on_tagged_records(self):
        records = list(_records("gzip"))
        assert any(r.tag for r in records), "gzip trace must speculate"
        engine = SpecializedEngine(PAPER_4WIDE_PERFECT, records,
                                   wrong_path_free=True)
        with pytest.raises(SpecializationError):
            engine.run()

    def test_generated_source_is_inspectable(self):
        engine = SpecializedEngine(PAPER_4WIDE_PERFECT,
                                   list(_records("gzip", 64)))
        source = engine.generated_source
        assert "def run_trace(" in source
        # Config constants are baked in as literals.
        assert str(PAPER_4WIDE_PERFECT.rob_entries) in source


    @pytest.mark.parametrize("prefix", [0, 5])
    @pytest.mark.parametrize("warmup", [0, 20])
    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_cycle_budget_error_matches_reference(self, tmp_path, kind,
                                                  warmup, prefix):
        """Both tiers report an exceeded cycle budget with the same
        consumed/total count — counted from the source's start, warmup
        included — and leave the cursor in the same place."""
        records = list(_records("gzip", 400))
        path = tmp_path / "gzip.rtrc"
        write_trace_file(path, records, segment_records=64)
        reports = []
        for tier in (ReSimEngine, SpecializedEngine):
            source = (InMemorySource(records) if kind == "memory"
                      else FileSource(path))
            for _ in range(prefix):
                source.next()
            engine = tier(PAPER_2WIDE_CACHE, source)
            with pytest.raises(RuntimeError,
                               match="simulation exceeded 50 cycles"
                               ) as error:
                engine.run(max_cycles=50, warmup_instructions=warmup)
            reports.append((str(error.value), engine.cursor_position,
                            source.consumed))
        assert reports[1] == reports[0]


# ---------------------------------------------------------------------------
# codegen cache


class TestCodegenCache:
    def setup_method(self):
        clear_codegen_cache()

    def teardown_method(self):
        clear_codegen_cache()

    def test_hit_on_same_config(self):
        first = compile_engine(PAPER_4WIDE_PERFECT)
        second = compile_engine(PAPER_4WIDE_PERFECT)
        assert first is second
        info = codegen_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["entries"] == 1

    def test_rekeyed_on_config_change(self):
        base = compile_engine(PAPER_4WIDE_PERFECT)
        grown = dataclasses.replace(PAPER_4WIDE_PERFECT,
                                    rob_entries=64)
        assert compile_engine(grown) is not base
        assert codegen_cache_info()["entries"] == 2

    def test_key_covers_every_variant_axis(self):
        keys = {
            engine_cache_key(PAPER_4WIDE_PERFECT,
                             update_at_commit=at_commit,
                             wrong_path=wrong_path)
            for at_commit in (True, False)
            for wrong_path in (True, False)
        }
        assert len(keys) == 4

    def test_one_fetch_path_for_files_and_memory(self, tmp_path):
        """In-memory records, a cursor started mid-block and a streamed
        file all run one compiled function, fed block by block."""
        records = list(_records("gzip", 400))
        path = tmp_path / "gzip.rtrc"
        write_trace_file(path, records, segment_records=64)
        started = InMemorySource(records)
        started.next()
        engines = [SpecializedEngine(PAPER_4WIDE_PERFECT, trace)
                   for trace in (records, started, FileSource(path))]
        assert codegen_cache_info()["entries"] == 1
        source = engines[0].generated_source
        assert "src_block()" in source
        assert "src_peek" not in source and "src_next" not in source

    def test_one_function_for_every_window(self):
        """Window bounds are run-time arguments: runs with and without
        warmup/ROI windows share one compiled function."""
        records = list(_records("gzip", 400))
        for warmup, roi in ((0, None), (10, None), (200, None), (0, 50),
                            (5, 7)):
            SpecializedEngine(PAPER_4WIDE_PERFECT, records).run(
                warmup_instructions=warmup, roi_instructions=roi)
        assert codegen_cache_info()["entries"] == 1

    def test_thread_safe_compilation(self):
        results = []

        def compile_one():
            results.append(compile_engine(PAPER_2WIDE_CACHE))

        threads = [threading.Thread(target=compile_one)
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, results))) == 1
        assert codegen_cache_info()["entries"] == 1

    def test_process_pool_execution(self, tmp_path):
        """Units carrying the specialized tier pickle cleanly and
        compile independently in each pool worker."""
        trace = tmp_path / "gzip.trace"
        write_trace_file(trace, list(_records("gzip")))
        units = {}
        for engine in ("reference", "specialized"):
            units[engine] = [
                WorkUnit.for_trace(
                    f"{engine}-{index}", trace, name,
                    tmp_path / f"{engine}-{index}.json", engine=engine)
                for index, name in enumerate(sorted(CONFIGS))
            ]
        serial = SerialBackend().run_units(units["reference"])
        pooled = ProcessPoolBackend(2).run_units(units["specialized"])
        for index in range(len(CONFIGS)):
            assert pooled[f"specialized-{index}"]["stats"] == \
                serial[f"reference-{index}"]["stats"]


# ---------------------------------------------------------------------------
# the tier rule


def _simulation(config=PAPER_4WIDE_PERFECT) -> Simulation:
    return Simulation.for_records(list(_records("gzip", 64)), config)


class _CommitCounter(EngineObserver):
    """A hook the generated engine cannot serve (per-commit)."""

    def __init__(self):
        self.commits = 0

    def on_commit(self, engine, op):
        self.commits += 1


def _fields(config) -> dict:
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)}


class TestTierSelection:
    def test_registry_names(self):
        assert ENGINE_TIERS == ("reference", "specialized")

    def test_plain_request_specializes(self):
        assert choose_tier("specialized",
                           PAPER_4WIDE_PERFECT) == "specialized"
        assert choose_tier("reference",
                           PAPER_4WIDE_PERFECT) == "reference"
        assert isinstance(_simulation().build_engine(), SpecializedEngine)

    def test_observers_force_reference(self):
        assert choose_tier("specialized", PAPER_4WIDE_PERFECT,
                           observers=(_CommitCounter(),)) == "reference"
        observed = _simulation().with_observer(_CommitCounter())
        assert isinstance(observed.build_engine(), ReSimEngine)

    def test_progress_observer_keeps_specialized(self):
        assert choose_tier("specialized", PAPER_4WIDE_PERFECT,
                           observers=(ProgressObserver(100),)) \
            == "specialized"
        observed = _simulation().with_observer(ProgressObserver(100))
        assert isinstance(observed.build_engine(), SpecializedEngine)

    def test_hookless_observer_keeps_specialized(self, tmp_path):
        heartbeat = LeaseHeartbeat(tmp_path / "lease.json",
                                   interval_seconds=1.0)
        assert choose_tier("specialized", PAPER_4WIDE_PERFECT,
                           observers=(heartbeat,)) == "specialized"
        attached = _simulation().with_observer(heartbeat)
        assert isinstance(attached.build_engine(), SpecializedEngine)

    @pytest.mark.parametrize("overrides", (
        {"stop_when": lambda engine: False},
        {"stepwise": True},
    ), ids=("stop_when", "stepwise"))
    def test_instrumentation_windows_force_reference(self, overrides):
        assert choose_tier("specialized", PAPER_4WIDE_PERFECT,
                           **overrides) == "reference"

    @pytest.mark.parametrize("window", (
        {"warmup_instructions": 50},
        {"roi_instructions": 100},
    ), ids=("warmup", "roi"))
    def test_commit_windows_specialize(self, window):
        simulation = _simulation()
        if "warmup_instructions" in window:
            simulation = simulation.with_warmup(
                window["warmup_instructions"])
        else:
            simulation = simulation.with_roi(window["roi_instructions"])
        assert isinstance(simulation.build_engine(), SpecializedEngine)

    def test_subclassed_config_forces_reference(self):
        class TweakedConfig(ProcessorConfig):
            pass

        class TweakedCache(CacheConfig):
            pass

        class TweakedPredictor(PredictorConfig):
            pass

        tweaked = TweakedConfig(**_fields(PAPER_4WIDE_PERFECT))
        assert choose_tier("specialized", tweaked) == "reference"
        assert isinstance(_simulation(tweaked).build_engine(), ReSimEngine)
        for cache in ("icache", "dcache"):
            config = dataclasses.replace(PAPER_2WIDE_CACHE, **{
                cache: TweakedCache(**_fields(
                    getattr(PAPER_2WIDE_CACHE, cache)))})
            assert choose_tier("specialized", config) == "reference"
        config = dataclasses.replace(PAPER_4WIDE_PERFECT, predictor=(
            TweakedPredictor(**_fields(PAPER_4WIDE_PERFECT.predictor))))
        assert choose_tier("specialized", config) == "reference"

    def test_session_fallback_is_observable(self):
        base = Simulation.for_workload("gzip", PAPER_4WIDE_PERFECT,
                                       budget=200)
        specialized = base.with_engine("specialized")
        assert specialized.run().engine_tier == "specialized"
        observed = specialized.with_observer(_CommitCounter())
        assert observed.run().engine_tier == "reference"
        windowed = specialized.with_warmup(50)
        assert windowed.run().engine_tier == "specialized"
        assert specialized.with_roi(50).run().engine_tier == "specialized"


class TestWarmupWindow:
    """A warmup window the trace cannot fill must fail loudly on both
    tiers, never yield an all-zero statistics document."""

    @pytest.mark.parametrize("engine", ENGINE_TIERS)
    def test_warmup_that_drains_the_trace_raises(self, engine):
        simulation = Simulation.for_workload(
            "gzip", PAPER_4WIDE_PERFECT,
            budget=200).with_engine(engine).with_warmup(10**6)
        with pytest.raises(WarmupWindowError, match="1000000-instruction"):
            simulation.run()

    @pytest.mark.parametrize("engine", ENGINE_TIERS)
    def test_warmup_ending_at_the_last_commit_raises(self, engine):
        records = list(_records("gzip", 400))
        committed = sum(1 for record in records if not record.tag)
        simulation = Simulation.for_records(
            records, PAPER_4WIDE_PERFECT).with_engine(engine)
        with pytest.raises(WarmupWindowError):
            simulation.with_warmup(committed).run()
        stats = simulation.with_warmup(committed - 20).run().stats
        assert 0 < int(stats.committed_instructions) <= 20


# ---------------------------------------------------------------------------
# spec round-trips and cache-key stability


class TestSpecWiring:
    def test_engine_round_trips_through_spec(self):
        simulation = Simulation.for_workload(
            "gzip", PAPER_4WIDE_PERFECT,
            budget=200).with_engine("reference")
        spec = simulation.to_spec()
        assert spec["engine"] == "reference"
        assert Simulation.from_spec(spec).engine == "reference"

    def test_reference_tier_omitted_from_spec(self):
        """Only the default tier is omitted; ``reference`` is not it."""
        simulation = Simulation.for_workload("gzip",
                                             PAPER_4WIDE_PERFECT,
                                             budget=200)
        assert simulation.engine == DEFAULT_ENGINE == "specialized"
        assert "engine" not in simulation.to_spec()
        assert "engine" not in simulation.with_engine(
            "specialized").to_spec()

    def test_unknown_engine_rejected(self):
        simulation = Simulation.for_workload("gzip",
                                             PAPER_4WIDE_PERFECT,
                                             budget=200)
        with pytest.raises(SessionError):
            simulation.with_engine("turbo")
        spec = simulation.to_spec()
        spec["engine"] = "turbo"
        with pytest.raises(SessionError):
            Simulation.from_spec(spec)

    def test_spec_key_shared_across_tiers(self):
        """Tiers are bit-identical, so the campaign cache must hand a
        specialized submission the result a reference run produced."""
        base = Simulation.for_workload("gzip", PAPER_4WIDE_PERFECT,
                                       budget=200)
        specialized = base.with_engine("specialized")
        assert specialized.spec_key() == base.spec_key()
        assert "engine" not in specialized.canonical_spec()

    def test_work_unit_carries_engine(self, tmp_path):
        unit = WorkUnit.for_trace("u1", tmp_path / "t.trace",
                                  "4wide-perfect",
                                  tmp_path / "u1.json",
                                  engine="reference")
        assert unit.spec["engine"] == "reference"
        default = WorkUnit.for_trace("u2", tmp_path / "t.trace",
                                     "4wide-perfect",
                                     tmp_path / "u2.json",
                                     engine="specialized")
        assert "engine" not in default.spec

    def test_execute_unit_honors_engine(self, tmp_path):
        trace = tmp_path / "gzip.trace"
        write_trace_file(trace, list(_records("gzip")))
        reference = execute_unit(WorkUnit.for_trace(
            "ref", trace, "4wide-perfect", tmp_path / "ref.json",
            engine="reference"))
        specialized = execute_unit(WorkUnit.for_trace(
            "spec", trace, "4wide-perfect", tmp_path / "spec.json"))
        assert specialized["stats"] == reference["stats"]

    def test_sweep_runner_rejects_unknown_engine(self, tmp_path):
        from repro.sweep import SweepError, SweepRunner, SweepSpec

        with pytest.raises(SweepError):
            SweepRunner(SweepSpec(axes={"rob_entries": (8,)}), "gzip",
                        results_dir=tmp_path, engine="turbo")


# ---------------------------------------------------------------------------
# CLI and service wiring


class TestEndToEnd:
    def test_cli_simulate_engine_flag(self, capsys):
        from repro.cli import main

        argv = ["simulate", "gzip", "--budget", "400"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--engine", "reference"]) == 0
        assert capsys.readouterr().out == default

    def test_cli_rejects_unknown_engine(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "--budget", "400",
                  "--engine", "turbo"])

    def test_service_validates_and_carries_engine(self, tmp_path):
        from repro.serve.app import CampaignService

        service = CampaignService(tmp_path, autostart=False)
        try:
            bulk = {"kind": "sweep",
                    "axes": {"rob_entries": [8]},
                    "budget": 200, "engine": "reference"}
            normalized = service.validate_request(bulk)
            assert normalized["engine"] == "reference"
            assert "engine" not in service.validate_request(
                {**bulk, "engine": "specialized"})
            with pytest.raises(ValueError):
                service.validate_request({**bulk, "engine": "turbo"})

            spec = Simulation.for_workload(
                "gzip", PAPER_4WIDE_PERFECT,
                budget=200).with_engine("reference").to_spec()
            simulate = service.validate_request(
                {"kind": "simulate", "spec": spec})
            assert simulate["engine"] == "reference"
            # The canonical spec (the cache identity) drops the tier.
            assert "engine" not in simulate["spec"]
        finally:
            service.close()
