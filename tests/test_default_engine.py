"""The specialized tier is the default; reference stays the oracle.

Flipping the default must not move a single byte anyone can observe:
statistics, canonical specs and cache keys are the same whether a spec
names no tier, ``reference`` or ``specialized``; results directories
written with either tier resume on the other without recomputing a
unit; and ``ProgressObserver`` — the one observer the generated engine
serves, from its record tick — prints the same lines on both tiers.
"""

import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import PAPER_2WIDE_CACHE, PAPER_4WIDE_PERFECT
from repro.core.engine import EngineObserver
from repro.core.observers import ProgressObserver
from repro.core.specialize import (
    DEFAULT_ENGINE,
    SpecializationError,
    SpecializedEngine,
)
from repro.exec import (
    DirectoryQueueBackend,
    ExecError,
    SerialBackend,
    WorkUnit,
    merge_slice_documents,
    result_matches_unit,
)
from repro.serialize import config_to_dict, stats_to_dict
from repro.serve.canon import cache_key
from repro.session import Simulation
from repro.sweep import SweepRunner, SweepSpec
from repro.trace.fileio import write_trace_file
from repro.workloads import SyntheticWorkload, get_profile

#: Keys computed by the release that still defaulted to ``reference``
#: for ``_SPEC``: a tier flip that leaked into the identity would move
#: them (and orphan every cached result).
PINNED_CACHE_KEY = "205f884cbf633cc8b7ef34fe41988d683041b343"
PINNED_SPEC_KEY = "b382868384c1f4c9078f1a1e2cd0a0defa3aa97d"

_SPEC = {"schema": 1, "workload": "gzip", "config": "4wide-perfect",
         "budget": 400, "seed": 7}

ENGINE_KEYS = (None, "reference", "specialized")


def _spec(engine):
    return dict(_SPEC) if engine is None else {**_SPEC, "engine": engine}


def _doc(stats) -> str:
    return json.dumps(stats_to_dict(stats), sort_keys=True)


class TestIdentity:
    def test_default_is_specialized(self):
        assert DEFAULT_ENGINE == "specialized"
        simulation = Simulation.from_spec(_SPEC)
        assert simulation.engine == DEFAULT_ENGINE
        assert simulation.run().engine_tier == "specialized"

    @pytest.mark.parametrize("engine", ENGINE_KEYS,
                             ids=("omitted", "reference", "specialized"))
    def test_engine_key_never_moves_an_observable(self, engine):
        simulation = Simulation.from_spec(_spec(engine))
        assert simulation.engine == (engine or DEFAULT_ENGINE)
        baseline = Simulation.from_spec(_SPEC)
        assert _doc(simulation.run().stats) == _doc(baseline.run().stats)
        assert simulation.canonical_spec() == baseline.canonical_spec()
        assert simulation.spec_key() == PINNED_SPEC_KEY
        assert cache_key(_spec(engine)) == PINNED_CACHE_KEY

    def test_only_reference_is_spelled_in_specs(self):
        assert "engine" not in Simulation.from_spec(
            _spec("specialized")).to_spec()
        assert Simulation.from_spec(
            _spec("reference")).to_spec()["engine"] == "reference"


# ---------------------------------------------------------------------------
# results directories resume across tiers


class _CountingBackend(SerialBackend):
    """Serial execution that records which units it had to run."""

    def __init__(self):
        super().__init__()
        self.executed = []

    def run_units(self, units=(), *, on_result=None):
        self.executed.extend(unit.unit_id for unit in units)
        return super().run_units(units, on_result=on_result)


_SAMPLING = {
    "monolithic": {},
    "shards": {"shards": 2, "segment_records": 512},
    "regions": {"sampling": "regions", "regions": 2,
                "segment_records": 256},
}


def _sweep(results_dir: Path, engine: str, mode: str):
    """Run the sweep; return its per-point statistics and the units
    the backend had to execute."""
    backend = _CountingBackend()
    runner = SweepRunner(
        SweepSpec(axes={"rob_entries": (8, 16)}), "gzip",
        results_dir=results_dir, budget=1500, backend=backend,
        engine=engine, **_SAMPLING[mode])
    outcomes = runner.run().outcomes
    return ([stats_to_dict(outcome.stats) for outcome in outcomes],
            backend.executed)


def _unit_documents(results_dir: Path) -> list[Path]:
    return sorted(path for path in results_dir.glob("*.json")
                  if "spec" in json.loads(path.read_text()))


def _slice_documents(results_dir: Path) -> list[Path]:
    return [path for path in _unit_documents(results_dir)
            if len(path.name.split(".")) == 3]


class TestCrossTierResume:
    def test_result_identity_ignores_the_tier(self, tmp_path):
        units = [WorkUnit.for_trace("u", tmp_path / "t.rtrc",
                                    "4wide-perfect", tmp_path / "u.json",
                                    engine=engine)
                 for engine in ("reference", "specialized")]
        for written in units:
            payload = {"unit_id": "u", "spec": dict(written.spec)}
            for wanted in units:
                assert result_matches_unit(payload, wanted)
        other = WorkUnit.for_trace("u", tmp_path / "t.rtrc",
                                   "2wide-cache", tmp_path / "u.json")
        assert not result_matches_unit(
            {"unit_id": "u", "spec": dict(units[0].spec)}, other)

    @pytest.mark.parametrize("first, second", (
        ("reference", "specialized"), ("specialized", "reference")))
    def test_queue_results_are_reused_across_tiers(self, tmp_path,
                                                   records, first,
                                                   second):
        """A queue drain finds the other tier's results already in
        place; with no worker to run anything it must not need one."""
        trace = tmp_path / "gzip.rtrc"
        write_trace_file(trace, records, segment_records=256)

        def units(engine):
            return [WorkUnit.for_trace(
                f"rob{rob}", trace, config_to_dict(replace(
                    PAPER_4WIDE_PERFECT, rob_entries=rob)),
                tmp_path / f"rob{rob}.json", engine=engine)
                for rob in (8, 16)]

        written = SerialBackend().run_units(units(first))
        stamps = {path: path.stat().st_mtime_ns
                  for path in tmp_path.glob("rob*.json")}
        reused = DirectoryQueueBackend(
            tmp_path / "queue", workers=0, poll_seconds=0.02,
            timeout=2).run_units(units(second))
        assert {key: doc["stats"] for key, doc in reused.items()} == \
            {key: doc["stats"] for key, doc in written.items()}
        assert {path: path.stat().st_mtime_ns
                for path in tmp_path.glob("rob*.json")} == stamps

    @pytest.mark.parametrize("first, second", (
        ("reference", "specialized"), ("specialized", "reference")))
    def test_slices_are_reused_across_tiers(self, tmp_path, first,
                                            second):
        """A sharded point killed between its slices and its merge
        resumes from the slices whichever tier wrote them."""
        outcome, executed = _sweep(tmp_path, first, "shards")
        assert len(executed) == 4
        slices = _slice_documents(tmp_path)
        assert len(slices) == 4
        written = {path: path.read_bytes() for path in slices}
        stamps = {path: path.stat().st_mtime_ns for path in slices}
        for path in _unit_documents(tmp_path):
            if path not in written:
                path.unlink()  # the merged point documents
        resumed, executed = _sweep(tmp_path, second, "shards")
        assert executed == []
        assert {path: path.stat().st_mtime_ns for path in slices} \
            == stamps
        assert {path: path.read_bytes() for path in slices} == written
        assert resumed == outcome

    @pytest.mark.parametrize("mode", sorted(_SAMPLING))
    @pytest.mark.parametrize("drop_merged", (False, True),
                             ids=("complete", "killed-before-merge"))
    def test_specialized_engine_directories_resume(self, tmp_path, mode,
                                                   drop_merged):
        """Directories written by ``--engine specialized`` before it
        became the default carry ``"engine": "specialized"`` in every
        unit spec; they resume with zero recomputed units."""
        outcome, _ = _sweep(tmp_path, "specialized", mode)
        documents = _unit_documents(tmp_path)
        assert documents
        for path in documents:
            document = json.loads(path.read_text())
            assert "engine" not in document["spec"]
            document["spec"]["engine"] = "specialized"
            path.write_text(json.dumps(document, sort_keys=True))
        if drop_merged:
            for path in documents:
                if mode != "monolithic" and \
                        path not in _slice_documents(tmp_path):
                    path.unlink()
        resumed, executed = _sweep(tmp_path, DEFAULT_ENGINE, mode)
        assert executed == []
        assert resumed == outcome

    @pytest.mark.parametrize("mode", ("shards", "regions"))
    @pytest.mark.parametrize("written", ("reference", "parent-specialized"))
    def test_partly_sliced_points_resume_on_the_default(self, tmp_path,
                                                        mode, written):
        """A point killed after only some of its slices finished:
        the kept slices carry the tier they ran on (``reference``, or
        a parent-format ``"engine": "specialized"``), the recomputed
        ones carry none, and the point still merges."""
        first = "reference" if written == "reference" else "specialized"
        outcome, _ = _sweep(tmp_path, first, mode)
        slices = _slice_documents(tmp_path)
        for path in _unit_documents(tmp_path):
            if path not in slices:
                path.unlink()  # the merged point documents
        if written == "parent-specialized":
            for path in slices:
                document = json.loads(path.read_text())
                document["spec"]["engine"] = "specialized"
                path.write_text(json.dumps(document, sort_keys=True))
        lost = [path for path in slices if ".s0of" in path.name
                or ".r0of" in path.name]
        assert len(lost) == 2
        for path in lost:
            path.unlink()
        resumed, executed = _sweep(tmp_path, DEFAULT_ENGINE, mode)
        assert sorted(executed) == sorted(path.name[:-len(".json")]
                                          for path in lost)
        assert resumed == outcome

    @pytest.mark.parametrize("mode", ("shards", "regions"))
    def test_stats_merge_accepts_mixed_tiers(self, tmp_path, mode):
        """``resim stats merge`` over slices from both tiers merges
        them as one run; a real run difference still refuses."""
        _sweep(tmp_path, "reference", mode)
        merged = {path.name.split(".")[0]: json.loads(path.read_text())
                  for path in _unit_documents(tmp_path)
                  if path not in _slice_documents(tmp_path)}
        for point, expected in merged.items():
            parts = [json.loads(path.read_text())
                     for path in _slice_documents(tmp_path)
                     if path.name.startswith(point + ".")]
            assert parts[0]["spec"]["engine"] == "reference"
            del parts[1]["spec"]["engine"]
            document = merge_slice_documents(parts)
            assert document["stats"] == expected["stats"]
            assert "engine" not in document["spec"]
            parts[1]["spec"]["trace_file"] += ".other"
            with pytest.raises(ExecError, match="different runs"):
                merge_slice_documents(parts)


# ---------------------------------------------------------------------------
# progress reporting stays on the fast tier


class _CommitCounter(EngineObserver):
    def __init__(self):
        self.commits = 0

    def on_commit(self, engine, op):
        self.commits += 1


@pytest.fixture(scope="module")
def records():
    generation = SyntheticWorkload(get_profile("gzip"),
                                   seed=7).generate(3000)
    return list(generation.records)


@pytest.fixture(scope="module")
def trace_v2(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("progress") / "gzip.rtrc"
    write_trace_file(path, records, segment_records=256)
    return path


def _progress_run(simulation: Simulation, engine: str, *every: int):
    streams = [io.StringIO() for _ in every]
    observers = [ProgressObserver(k, stream=stream, min_seconds=0)
                 for k, stream in zip(every, streams)]
    session = simulation.with_engine(engine).with_observer(
        *observers).run()
    return ([stream.getvalue() for stream in streams],
            _doc(session.stats), session.engine_tier)


class TestProgressParity:
    @pytest.mark.parametrize("source", ("in-memory", "streaming-v2"))
    @pytest.mark.parametrize("window", (
        {}, {"warmup": 700}, {"warmup": 400, "roi": 900}),
        ids=("full", "warmup", "warmup-roi"))
    @pytest.mark.parametrize("config", (PAPER_4WIDE_PERFECT,
                                        PAPER_2WIDE_CACHE),
                             ids=("perfect", "cache"))
    def test_same_lines_on_both_tiers(self, records, trace_v2, source,
                                      window, config):
        if source == "in-memory":
            simulation = Simulation.for_records(records, config)
        else:
            simulation = Simulation.for_trace_file(trace_v2,
                                                   config=config)
        if "warmup" in window:
            simulation = simulation.with_warmup(window["warmup"])
        if "roi" in window:
            simulation = simulation.with_roi(window["roi"])
        fast = _progress_run(simulation, DEFAULT_ENGINE, 250, 777)
        oracle = _progress_run(simulation, "reference", 250, 777)
        assert fast[2] == "specialized"
        assert oracle[2] == "reference"
        assert fast[:2] == oracle[:2]
        assert fast[0][0].count("\n") >= 2

    def test_default_tier_serves_progress(self, records):
        buffer = io.StringIO()
        session = Simulation.for_records(records).with_observer(
            ProgressObserver(500, stream=buffer)).run()
        assert session.engine_tier == "specialized"
        assert buffer.getvalue().count("[progress] ") == 6

    def test_commit_observer_still_runs_reference(self, records):
        counter = _CommitCounter()
        buffer = io.StringIO()
        session = Simulation.for_records(records).with_observer(
            ProgressObserver(500, stream=buffer), counter).run()
        assert session.engine_tier == "reference"
        assert counter.commits == int(session.stats.committed_instructions)
        assert buffer.getvalue().count("[progress] ") == 6

    def test_progress_subclass_runs_reference(self, records):
        """Only the stock observer is served from the tick: a subclass
        may read engine state the generated engine does not keep."""

        seen = []

        class Reporter(ProgressObserver):
            def emit(self, engine):
                seen.append(len(engine.observers))

        reporter = Reporter(500, min_seconds=0)
        session = Simulation.for_records(records).with_observer(
            reporter).run()
        assert session.engine_tier == "reference"
        assert seen == [1] * 6
        with pytest.raises(SpecializationError, match="reference tier"):
            SpecializedEngine(PAPER_4WIDE_PERFECT, records,
                              observers=(reporter,))

    def test_specialized_engine_refuses_other_hooks(self, records):
        with pytest.raises(SpecializationError, match="reference tier"):
            SpecializedEngine(PAPER_4WIDE_PERFECT, records,
                              observers=(_CommitCounter(),))

    def test_live_view_matches_final_state(self, records):
        """After the run the engine reads as the reference would."""
        engine = SpecializedEngine(PAPER_4WIDE_PERFECT, records)
        result = engine.run()
        assert engine.cursor_position == len(records)
        assert engine.cycle == int(result.stats.major_cycles)

    def test_cli_progress_pair(self, trace_v2, capsys):
        from repro.cli import main

        argv = ["simulate", "--trace-file", str(trace_v2), "--progress",
                "--progress-records", "500"]
        assert main(argv) == 0
        default = capsys.readouterr()
        assert main(argv + ["--engine", "reference"]) == 0
        oracle = capsys.readouterr()
        assert default.out == oracle.out
        assert default.err == oracle.err
        assert default.err.count("[progress]") >= 5
