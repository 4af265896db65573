"""Tests for the design-space sweep subsystem: spec expansion,
serialization round trips, serial/parallel parity, and
checkpoint/resume durability."""

import json
from dataclasses import replace

import pytest

from repro.bpred.unit import PredictorConfig
from repro.core.config import PAPER_4WIDE_PERFECT, ProcessorConfig
from repro.core.engine import ReSimEngine
from repro.serialize import (
    config_from_dict,
    config_key,
    config_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.sweep import SweepError, SweepRunner, SweepSpec, default_backend
from repro.sweep.runner import predictor_key, trace_filename
from repro.trace.fileio import read_trace_file
from repro.workloads import SyntheticWorkload, get_profile

BUDGET = 1200


class TestSweepSpec:
    def test_cross_product_expansion(self):
        spec = SweepSpec(axes={"rob_entries": (8, 16, 32),
                               "lsq_entries": (4, 8)})
        expansion = spec.expand()
        assert len(expansion) == 6
        assert spec.grid_size == 6
        assert expansion.points[0].params == (("rob_entries", 8),
                                              ("lsq_entries", 4))

    def test_unknown_axis_rejected(self):
        with pytest.raises(SweepError, match="unknown sweep axis"):
            SweepSpec(axes={"rob_size": (8, 16)})

    def test_empty_axes_rejected(self):
        with pytest.raises(SweepError, match="at least one axis"):
            SweepSpec(axes={})
        with pytest.raises(SweepError, match="no values"):
            SweepSpec(axes={"rob_entries": ()})

    def test_scalar_values_rejected(self):
        with pytest.raises(SweepError, match="sequence of values"):
            SweepSpec(axes={"predictor": "twolevel"})

    def test_invalid_combinations_skipped(self):
        # rob_entries < width violates ProcessorConfig's invariant.
        spec = SweepSpec(axes={"width": (2, 8), "rob_entries": (4, 16)})
        expansion = spec.expand()
        assert expansion.skipped_invalid == 1
        assert len(expansion) == 3

    def test_all_invalid_raises(self):
        spec = SweepSpec(axes={"width": (8,), "rob_entries": (2, 4)})
        with pytest.raises(SweepError, match="no valid design points"):
            spec.expand()

    def test_mistyped_axis_value_raises_sweep_error(self):
        spec = SweepSpec(axes={"rob_entries": ("8", 16)})
        with pytest.raises(SweepError, match="bad axis value"):
            spec.expand()

    def test_one_shot_iterables_survive_validation(self):
        """Validation must not exhaust generator-valued axes."""
        spec = SweepSpec(axes={"rob_entries": iter((8, 16, 32))})
        assert spec.grid_size == 3
        assert len(spec.expand()) == 3

    def test_duplicates_collapsed(self):
        spec = SweepSpec(axes={"rob_entries": (16, 16, 32)})
        expansion = spec.expand()
        assert len(expansion) == 2
        assert expansion.skipped_duplicates == 1

    def test_predictor_axis_coercions(self):
        spec = SweepSpec(axes={"predictor": (
            "bimodal",
            {"scheme": "gshare", "l2_size": 8192},
            PredictorConfig(scheme="twolevel"),
        )})
        configs = [p.config.predictor for p in spec.expand()]
        assert [c.scheme for c in configs] == ["bimodal", "gshare",
                                               "twolevel"]
        assert configs[1].l2_size == 8192

    def test_unknown_predictor_scheme_fails_at_expansion(self):
        spec = SweepSpec(axes={"predictor": ("twolevel", "bogus")})
        with pytest.raises(SweepError, match="unknown predictor scheme"):
            spec.expand()

    def test_bad_predictor_kwargs_fail_at_expansion(self):
        spec = SweepSpec(axes={"predictor": ({"shceme": "gshare"},)})
        with pytest.raises(SweepError, match="bad predictor axis"):
            spec.expand()

    def test_bad_cache_geometry_fails_at_expansion(self):
        spec = SweepSpec(axes={"dcache": ({"size_bytes": 1000},)})
        with pytest.raises(SweepError, match="bad dcache axis"):
            spec.expand()

    def test_cache_axis_coercion(self):
        spec = SweepSpec(
            base=replace(PAPER_4WIDE_PERFECT, perfect_memory=False),
            axes={"dcache": ({"size_bytes": 16 * 1024},
                             {"size_bytes": 64 * 1024})},
        )
        sizes = [p.config.dcache.size_bytes for p in spec.expand()]
        assert sizes == [16 * 1024, 64 * 1024]

    def test_point_labels_and_keys_stable(self):
        spec = SweepSpec(axes={"rob_entries": (8,),
                               "predictor": ("bimodal",)})
        point = spec.expand().points[0]
        assert point.label == "rob_entries=8 predictor=bimodal"
        assert point.key == config_key(point.config)
        assert len(point.key) == 16


class TestSerialization:
    def test_config_roundtrip(self):
        config = ProcessorConfig(
            width=2, rob_entries=24, perfect_memory=False,
            predictor=PredictorConfig(scheme="gshare", l2_size=8192),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_config_dict_is_json_safe(self):
        blob = json.dumps(config_to_dict(PAPER_4WIDE_PERFECT))
        assert config_from_dict(json.loads(blob)) == PAPER_4WIDE_PERFECT

    def test_config_key_stable_and_distinct(self):
        a = config_key(PAPER_4WIDE_PERFECT)
        assert a == config_key(ProcessorConfig())
        assert a != config_key(ProcessorConfig(rob_entries=32))

    def test_stats_roundtrip_preserves_everything(self):
        trace = SyntheticWorkload(get_profile("gzip"),
                                  seed=7).generate(BUDGET)
        stats = ReSimEngine(PAPER_4WIDE_PERFECT,
                            trace.records).run().stats
        restored = stats_from_dict(
            json.loads(json.dumps(stats_to_dict(stats))))
        assert stats_to_dict(restored) == stats_to_dict(stats)
        assert restored.ipc == stats.ipc
        assert restored.rob_occupancy.average == \
            stats.rob_occupancy.average


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(axes={"rob_entries": (8, 16),
                           "lsq_entries": (4, 8)})


class TestSweepRunner:
    def test_matches_serial_engine_path(self, small_spec, tmp_path):
        """Sweep statistics are bit-identical to a direct engine run
        on the same persisted trace."""
        result = SweepRunner(small_spec, "gzip",
                             results_dir=tmp_path / "sweep",
                             budget=BUDGET).run()
        assert len(result) == 4
        __, records = read_trace_file(
            tmp_path / "sweep"
            / trace_filename(PAPER_4WIDE_PERFECT.predictor))
        for outcome in result:
            direct = ReSimEngine(outcome.config, records).run()
            assert stats_to_dict(direct.stats) == \
                stats_to_dict(outcome.stats)

    def test_parallel_identical_to_serial(self, small_spec, tmp_path):
        serial = SweepRunner(small_spec, "gzip",
                             results_dir=tmp_path / "serial",
                             budget=BUDGET).run()
        parallel = SweepRunner(small_spec, "gzip",
                               results_dir=tmp_path / "parallel",
                               budget=BUDGET,
                               backend=default_backend(4)).run()
        assert [o.key for o in serial] == [o.key for o in parallel]
        for a, b in zip(serial, parallel, strict=True):
            assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    def test_kernel_workload_carries_entry_pc(self, tmp_path):
        spec = SweepSpec(axes={"rob_entries": (8, 16)})
        result = SweepRunner(spec, "vecsum",
                             results_dir=tmp_path / "kernel",
                             backend=default_backend(2)).run()
        assert all(int(o.stats.committed_instructions) > 0
                   for o in result)
        header, __ = read_trace_file(
            tmp_path / "kernel"
            / trace_filename(PAPER_4WIDE_PERFECT.predictor))
        assert header.metadata["start_pc"] is not None

    def test_mismatched_results_dir_refused(self, small_spec,
                                            tmp_path):
        directory = tmp_path / "sweep"
        SweepRunner(small_spec, "gzip", results_dir=directory,
                    budget=BUDGET).run()
        with pytest.raises(SweepError, match="different sweep"):
            SweepRunner(small_spec, "bzip2", results_dir=directory,
                        budget=BUDGET).run()

    def test_mismatched_base_config_refused(self, small_spec,
                                            tmp_path):
        """Shared traces depend on the base config's generation ROB/
        IFQ; reusing a results dir with a different base must not
        silently reuse the wrong trace.  (A different base *predictor*
        is fine — it simply selects/creates its own trace file.)"""
        directory = tmp_path / "sweep"
        SweepRunner(small_spec, "gzip", results_dir=directory,
                    budget=BUDGET).run()
        other = SweepSpec(
            base=replace(PAPER_4WIDE_PERFECT, ifq_entries=8),
            axes=small_spec.axes,
        )
        with pytest.raises(SweepError, match="different sweep"):
            SweepRunner(other, "gzip", results_dir=directory,
                        budget=BUDGET).run()

    def test_predictor_axis_gets_its_own_traces(self, tmp_path):
        """Mispredictions are trace-authoritative, so a shared trace
        would score every predictor identically; the runner must
        regenerate per scheme and actually discriminate them."""
        spec = SweepSpec(axes={"predictor": ("twolevel", "nottaken")})
        directory = tmp_path / "pred"
        result = SweepRunner(spec, "parser", results_dir=directory,
                             budget=4000).run()
        by_scheme = {o.config.predictor.scheme: o for o in result}
        assert len(list(directory.glob("trace-*.rtrc"))) == 2
        for scheme, outcome in by_scheme.items():
            path = directory / trace_filename(outcome.config.predictor)
            header = read_trace_file(path)[0]
            assert header.predictor_config.scheme == scheme
        # 'nottaken' must be measurably worse than the paper's
        # two-level predictor on the branchy parser workload.
        assert by_scheme["nottaken"].misprediction_rate > \
            by_scheme["twolevel"].misprediction_rate
        assert by_scheme["nottaken"].ipc < by_scheme["twolevel"].ipc

    def test_kernel_sweep_resumes_across_budgets_and_seeds(
            self, tmp_path):
        """Kernels run to completion deterministically, so a
        different --budget or --seed must not refuse to resume a
        kernel sweep."""
        spec = SweepSpec(axes={"rob_entries": (8, 16)})
        directory = tmp_path / "kernel"
        SweepRunner(spec, "vecsum", results_dir=directory,
                    budget=2000, seed=7).run()
        resumed = SweepRunner(spec, "vecsum", results_dir=directory,
                              budget=50_000, seed=9).run()
        assert resumed.resumed_count == 2

    def test_deleted_manifest_cannot_revive_stale_checkpoints(
            self, small_spec, tmp_path):
        """Checkpoints embed the sweep provenance: deleting
        sweep.json and rerunning with different parameters must
        re-simulate, not revive results computed under the old ones."""
        directory = tmp_path / "sweep"
        SweepRunner(small_spec, "gzip", results_dir=directory,
                    budget=BUDGET).run()
        (directory / "sweep.json").unlink()
        for trace in directory.glob("trace-*.rtrc"):
            trace.unlink()  # stale trace too (budget changes it)
        second = SweepRunner(small_spec, "gzip", results_dir=directory,
                             budget=BUDGET * 2).run()
        assert second.resumed_count == 0
        committed = [int(o.stats.committed_instructions)
                     for o in second]
        assert all(c > BUDGET for c in committed)

    def test_unknown_workload_rejected(self, small_spec, tmp_path):
        with pytest.raises(SweepError, match="unknown workload"):
            SweepRunner(small_spec, "nonesuch", results_dir=tmp_path)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SweepError, match="workers"):
            default_backend(0)


class TestCheckpointResume:
    def test_rerun_resumes_everything(self, small_spec, tmp_path):
        directory = tmp_path / "sweep"
        first = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET).run()
        assert first.resumed_count == 0
        second = SweepRunner(small_spec, "gzip", results_dir=directory,
                             budget=BUDGET).run()
        assert second.resumed_count == len(second) == 4
        for a, b in zip(first, second, strict=True):
            assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    def test_partial_checkpoints_resume_partially(self, small_spec,
                                                  tmp_path):
        """A killed sweep = some checkpoints present; only the missing
        design points are re-simulated."""
        directory = tmp_path / "sweep"
        first = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET).run()
        victim = first.outcomes[2]
        (directory / f"{victim.key}.json").unlink()
        second = SweepRunner(small_spec, "gzip", results_dir=directory,
                             budget=BUDGET).run()
        assert second.resumed_count == 3
        recomputed = [o for o in second if not o.from_checkpoint]
        assert [o.key for o in recomputed] == [victim.key]
        assert stats_to_dict(recomputed[0].stats) == \
            stats_to_dict(victim.stats)

    def test_corrupt_checkpoint_recomputed(self, small_spec, tmp_path):
        directory = tmp_path / "sweep"
        first = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET).run()
        victim = first.outcomes[0]
        (directory / f"{victim.key}.json").write_text("{not json")
        second = SweepRunner(small_spec, "gzip", results_dir=directory,
                             budget=BUDGET).run()
        assert second.resumed_count == 3
        assert stats_to_dict(second.outcomes[0].stats) == \
            stats_to_dict(victim.stats)

    def test_corrupt_trace_payload_surfaces_as_sweep_error(
            self, small_spec, tmp_path):
        """Payload corruption found by a worker mid-resume must carry
        the delete-the-directory guidance, not a raw TraceFileError."""
        directory = tmp_path / "sweep"
        first = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET).run()
        trace_path = directory / trace_filename(
            PAPER_4WIDE_PERFECT.predictor)
        data = trace_path.read_bytes()
        trace_path.write_bytes(data[: len(data) - len(data) // 4])
        (directory / f"{first.outcomes[0].key}.json").unlink()
        for workers in (1, 2):
            with pytest.raises(SweepError, match="delete the results"):
                SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET,
                            backend=default_backend(workers)).run()

    def test_stale_config_checkpoint_recomputed(self, small_spec,
                                                tmp_path):
        """A checkpoint whose embedded config disagrees with the
        design point (e.g. hash collision or hand-edited file) is
        discarded, not trusted."""
        directory = tmp_path / "sweep"
        first = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET).run()
        victim = first.outcomes[1]
        path = directory / f"{victim.key}.json"
        payload = json.loads(path.read_text())
        payload["config"]["rob_entries"] = 999
        path.write_text(json.dumps(payload))
        second = SweepRunner(small_spec, "gzip", results_dir=directory,
                             budget=BUDGET).run()
        assert second.resumed_count == 3
        assert stats_to_dict(second.outcomes[1].stats) == \
            stats_to_dict(victim.stats)


class TestSweepResult:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        spec = SweepSpec(axes={"rob_entries": (8, 16, 32),
                               "width": (2, 4)})
        return SweepRunner(spec, "gzip",
                           results_dir=tmp_path_factory.mktemp("sweep"),
                           budget=BUDGET).run()

    def test_sorted_by_ipc(self, result):
        ipcs = [o.ipc for o in result.sorted_by("ipc")]
        assert ipcs == sorted(ipcs, reverse=True)

    def test_lower_is_better_keys_sort_best_first(self, result):
        """'cycles' and 'mispredictions' are smaller-is-better: the
        best design point leads."""
        cycles = [o.major_cycles for o in result.sorted_by("cycles")]
        assert cycles == sorted(cycles)
        assert result.best("cycles").major_cycles == \
            min(o.major_cycles for o in result)
        assert result.top(1, "mispredictions").outcomes[0] \
            .misprediction_rate == \
            min(o.misprediction_rate for o in result)

    def test_reverse_override(self, result):
        cycles = [o.major_cycles
                  for o in result.sorted_by("cycles", reverse=True)]
        assert cycles == sorted(cycles, reverse=True)

    def test_best_and_top(self, result):
        best = result.best()
        assert best.ipc == max(o.ipc for o in result)
        assert len(result.top(3)) == 3
        assert result.top(3).outcomes[0].key == best.key

    def test_filter_by_axis_value(self, result):
        wide = result.filter(width=4)
        assert len(wide) == 3
        assert all(o.param("width") == 4 for o in wide)

    def test_filter_by_predicate(self, result):
        fast = result.filter(lambda o: o.ipc > 1.0)
        assert all(o.ipc > 1.0 for o in fast)

    def test_unknown_sort_key(self, result):
        with pytest.raises(KeyError, match="unknown sort key"):
            result.sorted_by("bogus")

    def test_table_renders_axes_and_metrics(self, result):
        from repro.fpga.device import VIRTEX4_LX40
        table = result.table(devices=(VIRTEX4_LX40,))
        assert "rob_entries" in table
        assert "xc4vlx40 MIPS" in table
        assert len(table.splitlines()) == len(result) + 2

    def test_sweep_table_hook(self, result):
        from repro.perf.tables import sweep_table
        rendered = sweep_table(result, limit=2)
        assert "gzip" in rendered
        assert "design points" in rendered
        with pytest.raises(KeyError, match="unknown device"):
            sweep_table(result, device_name="xc9nope")

    def test_comparison_entries_join_table2(self, result):
        from repro.fpga.device import VIRTEX4_LX40
        from repro.perf.comparison import comparison_table, render_table
        entries = result.top(2).comparison_entries(VIRTEX4_LX40)
        assert all(e.category == "resim" for e in entries)
        rendered = render_table(
            comparison_table({}) + entries)
        assert "ReSim [" in rendered
        assert "PTLsim" in rendered

    def test_json_export_roundtrips(self, result, tmp_path):
        path = tmp_path / "out.json"
        result.to_json(path)
        document = json.loads(path.read_text())
        assert document["workload"] == "gzip"
        assert len(document["outcomes"]) == len(result)
        first = document["outcomes"][0]
        assert config_from_dict(first["config"]) == \
            result.outcomes[0].config
        assert stats_to_dict(stats_from_dict(first["stats"])) == \
            stats_to_dict(result.outcomes[0].stats)

    def test_csv_export(self, result, tmp_path):
        import csv
        from repro.fpga.device import VIRTEX4_LX40
        path = tmp_path / "out.csv"
        result.to_csv(path, devices=(VIRTEX4_LX40,))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result)
        assert float(rows[0]["ipc"]) == pytest.approx(
            result.outcomes[0].ipc, abs=1e-5)
        assert "mips_xc4vlx40" in rows[0]


class TestExecutionBackends:
    def test_three_backends_bit_identical(self, small_spec, tmp_path):
        """Acceptance: for the same grid, serial, process-pool, and
        directory-queue (2 concurrent workers) backends produce
        bit-identical SweepResult statistics, and a rerun on each
        backend resumes every point from its checkpoint."""
        from repro.exec import (
            DirectoryQueueBackend,
            ProcessPoolBackend,
            SerialBackend,
        )
        backends = {
            "serial": SerialBackend,
            "pool": lambda: ProcessPoolBackend(2),
            "queued": lambda: DirectoryQueueBackend(
                tmp_path / "queued" / "queue", workers=2,
                poll_seconds=0.02, timeout=120),
        }

        def run(name):
            return SweepRunner(small_spec, "gzip",
                               results_dir=tmp_path / name, budget=BUDGET,
                               backend=backends[name]()).run()

        serial, pool, queue = (run(name) for name in backends)
        assert [o.key for o in serial] == [o.key for o in pool] \
            == [o.key for o in queue]
        for a, b, c in zip(serial, pool, queue, strict=True):
            assert stats_to_dict(a.stats) == stats_to_dict(b.stats) \
                == stats_to_dict(c.stats)
        for name, first in zip(backends, (serial, pool, queue),
                               strict=True):
            rerun = run(name)
            assert rerun.resumed_count == len(rerun) == 4, name
            for a, b in zip(first, rerun, strict=True):
                assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    def test_default_backend_is_serial(self, small_spec, tmp_path):
        """Without a backend the runner evaluates in-process."""
        runner = SweepRunner(small_spec, "gzip",
                             results_dir=tmp_path / "s", budget=BUDGET)
        assert runner.backend.name == "serial"
        assert len(runner.run()) == 4

    def test_queue_checkpoints_resume_under_serial(self, small_spec,
                                                   tmp_path):
        """Checkpoints are backend-agnostic: points computed by queue
        workers resume under the serial backend and vice versa."""
        from repro.exec import DirectoryQueueBackend
        directory = tmp_path / "sweep"
        first = SweepRunner(
            small_spec, "gzip", results_dir=directory, budget=BUDGET,
            backend=DirectoryQueueBackend(
                directory / "queue", workers=2, poll_seconds=0.02,
                timeout=120)).run()
        second = SweepRunner(small_spec, "gzip", results_dir=directory,
                             budget=BUDGET).run()
        assert second.resumed_count == len(second) == 4
        for a, b in zip(first, second, strict=True):
            assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    def test_queue_does_not_revive_stale_checkpoints(self, small_spec,
                                                     tmp_path):
        """The queue-backend twin of
        test_deleted_manifest_cannot_revive_stale_checkpoints: when
        the sweep layer decides a checkpoint is stale (provenance
        mismatch), the queue must recompute it, not quietly reuse
        the result file sitting at the same path."""
        from repro.exec import DirectoryQueueBackend

        def backend(directory):
            return DirectoryQueueBackend(
                directory / "queue", workers=1, poll_seconds=0.02,
                timeout=120)

        directory = tmp_path / "sweep"
        SweepRunner(small_spec, "gzip", results_dir=directory,
                    budget=BUDGET, backend=backend(directory)).run()
        (directory / "sweep.json").unlink()
        for trace in directory.glob("trace-*.rtrc"):
            trace.unlink()  # stale trace too (budget changes it)
        second = SweepRunner(small_spec, "gzip", results_dir=directory,
                             budget=BUDGET * 2,
                             backend=backend(directory)).run()
        assert second.resumed_count == 0
        assert all(int(o.stats.committed_instructions) > BUDGET
                   for o in second)

    def test_pre_backend_checkpoints_are_recomputed(self, small_spec,
                                                    tmp_path):
        """Checkpoints without the unit_id/spec keys work units embed
        (written before points ran as units) fail the one reuse rule,
        so they are recomputed, to the same statistics."""
        directory = tmp_path / "sweep"
        first = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET).run()
        for path in directory.glob("*.json"):
            if path.name == "sweep.json":
                continue
            payload = json.loads(path.read_text())
            payload.pop("unit_id", None)
            payload.pop("spec", None)
            path.write_text(json.dumps(payload, sort_keys=True))
        second = SweepRunner(small_spec, "gzip", results_dir=directory,
                             budget=BUDGET).run()
        assert second.resumed_count == 0
        assert [stats_to_dict(o.stats) for o in second.outcomes] == \
            [stats_to_dict(o.stats) for o in first.outcomes]


class TestProgressReporting:
    def test_points_and_summary_lines(self, small_spec, tmp_path):
        import io
        from repro.sweep import ProgressPrinter
        stream = io.StringIO()
        SweepRunner(small_spec, "gzip", results_dir=tmp_path / "sweep",
                    budget=BUDGET,
                    progress=ProgressPrinter(stream=stream)).run()
        text = stream.getvalue()
        assert "[sweep] 4 design point(s) to evaluate" in text
        assert "[sweep] 4/4 points done, 0 failed, 0 remaining" in text
        assert "complete: 4 point(s) — 4 simulated, " \
               "0 from checkpoints, 0 failed" in text

    def test_resumed_points_are_distinguished(self, small_spec,
                                              tmp_path):
        import io
        from repro.sweep import ProgressPrinter
        directory = tmp_path / "sweep"
        SweepRunner(small_spec, "gzip", results_dir=directory,
                    budget=BUDGET).run()
        stream = io.StringIO()
        SweepRunner(small_spec, "gzip", results_dir=directory,
                    budget=BUDGET,
                    progress=ProgressPrinter(stream=stream)).run()
        text = stream.getvalue()
        assert "(4 from checkpoints)" in text
        assert "0 simulated, 4 from checkpoints" in text

    def test_printer_counts(self, small_spec, tmp_path):
        import io
        from repro.sweep import ProgressPrinter
        printer = ProgressPrinter(stream=io.StringIO())
        SweepRunner(small_spec, "gzip", results_dir=tmp_path / "sweep",
                    budget=BUDGET, progress=printer).run()
        assert printer.done == 4
        assert printer.resumed == printer.failed == 0


class TestSweepCli:
    def test_cli_sweep_runs_and_resumes(self, tmp_path, capsys):
        from repro.cli import main
        argv = ["sweep", "gzip", "--rob", "8,16", "--width", "2,4",
                "--budget", str(BUDGET), "--workers", "2",
                "--results-dir", str(tmp_path / "out"),
                "--csv", str(tmp_path / "out.csv")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 design points" in first
        assert "IPC" in first
        assert (tmp_path / "out.csv").exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "4 resumed from checkpoints" in second

    def test_cli_sweep_requires_an_axis(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="nothing to sweep"):
            main(["sweep", "gzip",
                  "--results-dir", str(tmp_path / "out")])

    def test_cli_bad_sort_and_device_fail_before_simulating(
            self, tmp_path):
        """Presentation-option typos must not cost a full sweep."""
        from repro.cli import main
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="unknown sort key"):
            main(["sweep", "gzip", "--rob", "8,16", "--sort", "ipcc",
                  "--results-dir", str(out)])
        assert not out.exists()
        with pytest.raises(SystemExit, match="unknown device"):
            main(["sweep", "gzip", "--rob", "8,16",
                  "--device", "xc9999", "--results-dir", str(out)])
        assert not out.exists()
        with pytest.raises(SystemExit, match="does not exist"):
            main(["sweep", "gzip", "--rob", "8,16",
                  "--csv", str(tmp_path / "missing" / "x.csv"),
                  "--results-dir", str(out)])
        assert not out.exists()
        with pytest.raises(SystemExit, match="unknown predictor"):
            main(["sweep", "gzip", "--predictor", "twolevel,bogus",
                  "--results-dir", str(out)])

    def test_cli_non_positive_budget_is_one_line(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=r"^budget must be >= 1, got 0$"):
            main(["sweep", "gzip", "--rob", "16", "--budget", "0",
                  "--results-dir", str(out)])
        assert not out.exists()

    def test_cli_duplicate_axis_rejected(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="specified twice"):
            main(["sweep", "gzip", "--rob", "8,16",
                  "--axis", "rob_entries=64",
                  "--results-dir", str(tmp_path / "out")])
        with pytest.raises(SystemExit, match="specified twice"):
            main(["sweep", "gzip", "--axis", "mul_latency=3",
                  "--axis", "mul_latency=5",
                  "--results-dir", str(tmp_path / "out")])

    def test_cli_generic_axis_and_predictor(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["sweep", "parser", "--predictor",
                     "bimodal,twolevel", "--axis",
                     "mul_latency=3,5", "--budget", str(BUDGET),
                     "--results-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "4 design points" in out


# -- sharded design points --------------------------------------------

#: Documented bound on the monolithic-vs-sharded relative IPC delta
#: for the conformance workloads below.  Shards start cold (drained
#: pipeline, cold predictor/cache state, fetch PC realigned at the
#: first committed taken branch), so cycle-derived metrics are
#: approximate by design; at these budgets the observed deltas are a
#: few percent.  See README "Sharded design points".
SHARD_IPC_TOLERANCE = 0.08


def assert_ipc_within(monolithic, sharded,
                      tolerance=SHARD_IPC_TOLERANCE) -> None:
    """Bound the sharded-vs-monolithic IPC delta, loudly."""
    delta = abs(sharded.ipc - monolithic.ipc) / monolithic.ipc
    assert delta <= tolerance, (
        f"sharded IPC {sharded.ipc:.4f} deviates from monolithic "
        f"IPC {monolithic.ipc:.4f} by {delta:.2%} "
        f"(tolerance {tolerance:.0%})"
    )


class TestShardedSweep:
    """Differential conformance: a sharded sweep against the serial
    monolithic reference (ISSUE 5 satellite + acceptance)."""

    @pytest.fixture(scope="class")
    def reference(self, small_spec, tmp_path_factory):
        directory = tmp_path_factory.mktemp("mono")
        return SweepRunner(small_spec, "gzip", results_dir=directory,
                           budget=BUDGET, segment_records=64).run()

    def test_exact_sum_counters_equal_monolithic(
            self, small_spec, reference, tmp_path):
        from repro.exec import EXACT_SUM_COUNTERS
        sharded = SweepRunner(small_spec, "gzip",
                              results_dir=tmp_path / "sharded",
                              budget=BUDGET, segment_records=64,
                              shards=3).run()
        assert [o.key for o in sharded] == [o.key for o in reference]
        for mono, shard in zip(reference, sharded, strict=True):
            mono_stats = stats_to_dict(mono.stats)
            shard_stats = stats_to_dict(shard.stats)
            for counter in EXACT_SUM_COUNTERS:
                assert shard_stats[counter] == mono_stats[counter], (
                    f"{counter}: sharded {shard_stats[counter]} != "
                    f"monolithic {mono_stats[counter]} at {mono.label}"
                )
            assert shard.stats.sharded
            assert len(shard.stats.shards) == 3
            assert_ipc_within(mono, shard)

    def test_tolerance_violation_reports_observed_delta(self):
        """The bound must fail loudly, naming the delta it saw."""
        from repro.core.stats import SimulationStatistics

        def fake(cycles, instructions):
            stats = SimulationStatistics()
            stats.major_cycles.increment(cycles)
            stats.committed_instructions.increment(instructions)
            return stats

        with pytest.raises(AssertionError, match=r"deviates.*by 50"):
            assert_ipc_within(fake(100, 200), fake(100, 100))

    def test_queue_backend_four_workers_four_shards(
            self, tmp_path, reference, small_spec):
        """Acceptance: a 1-point, 4-shard sweep through the directory
        queue with 4 workers merges to the monolithic run's exact-sum
        counters, with shard provenance that round-trips."""
        from repro.exec import DirectoryQueueBackend, EXACT_SUM_COUNTERS
        spec = SweepSpec(axes={"rob_entries": (16,)})
        backend = DirectoryQueueBackend(
            tmp_path / "queue", workers=4, poll_seconds=0.02,
            timeout=180)
        sharded = SweepRunner(spec, "gzip",
                              results_dir=tmp_path / "sharded",
                              budget=BUDGET, segment_records=64,
                              backend=backend, shards=4).run()
        assert len(sharded) == 1
        outcome = sharded.outcomes[0]
        mono = next(o for o in reference
                    if o.param("rob_entries") == 16)
        mono_stats = stats_to_dict(mono.stats)
        shard_stats = stats_to_dict(outcome.stats)
        for counter in EXACT_SUM_COUNTERS:
            assert shard_stats[counter] == mono_stats[counter], (
                f"{counter}: sharded {shard_stats[counter]} != "
                f"monolithic {mono_stats[counter]}"
            )
        # Shard provenance survives the serialize round trip.
        assert len(outcome.stats.shards) == 4
        restored = stats_from_dict(
            json.loads(json.dumps(stats_to_dict(outcome.stats))))
        assert stats_to_dict(restored) == stats_to_dict(outcome.stats)
        assert restored.sharded

    def test_sharded_checkpoints_resume(self, small_spec, tmp_path):
        directory = tmp_path / "resume"
        first = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET, segment_records=64, shards=2).run()
        again = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET, segment_records=64, shards=2).run()
        assert again.resumed_count == len(again)
        for a, b in zip(first, again, strict=True):
            assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    def test_partial_shard_results_resume(self, small_spec, tmp_path):
        """Per-shard result files are checkpoints too: delete the
        merged documents and the rerun re-merges without
        re-simulating a single shard."""
        from pathlib import Path
        directory = tmp_path / "partial"
        first = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET, segment_records=64, shards=2).run()
        shard_files = sorted(directory.glob("*.s*of2.json"))
        assert len(shard_files) == 2 * len(first)
        stamps = {path: path.stat().st_mtime_ns
                  for path in shard_files}
        for outcome in first:
            Path(directory, f"{outcome.key}.json").unlink()
        again = SweepRunner(small_spec, "gzip", results_dir=directory,
                            budget=BUDGET, segment_records=64, shards=2).run()
        assert again.resumed_count == len(again)
        for path, stamp in stamps.items():
            assert path.stat().st_mtime_ns == stamp, \
                f"shard result {path.name} was recomputed"
        for a, b in zip(first, again, strict=True):
            assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    def test_single_segment_trace_degrades_to_monolithic(
            self, tmp_path):
        """A trace shorter than one segment cannot split: the sweep
        must fall back to the bit-identical monolithic unit rather
        than fail or mislabel the result as sharded."""
        spec = SweepSpec(axes={"rob_entries": (8,)})
        mono = SweepRunner(spec, "gzip", results_dir=tmp_path / "mono",
                           budget=BUDGET).run()
        sharded = SweepRunner(spec, "gzip",
                              results_dir=tmp_path / "sharded",
                              budget=BUDGET, shards=4).run()  # 1 segment
        assert stats_to_dict(sharded.outcomes[0].stats) == \
            stats_to_dict(mono.outcomes[0].stats)
        assert not sharded.outcomes[0].stats.sharded

    def test_single_segment_trace_still_samples(self, tmp_path):
        """Region sampling never falls back to the monolithic unit: a
        one-segment trace runs as one ``.r0of1`` region and its
        checkpoint stays marked as an estimate."""
        spec = SweepSpec(axes={"rob_entries": (8,)})
        directory = tmp_path / "sampled"
        sampled = SweepRunner(spec, "gzip", results_dir=directory,
                              budget=BUDGET, sampling="regions").run()
        key = sampled.outcomes[0].key
        assert (directory / f"{key}.r0of1.json").exists()
        checkpoint = json.loads((directory / f"{key}.json").read_text())
        assert checkpoint["sampled"] == {"regions": 1, "segments": 1}
        assert "sharded" not in checkpoint

    def test_bad_shard_count_rejected(self, small_spec, tmp_path):
        with pytest.raises(SweepError, match="shards must be >= 1"):
            SweepRunner(small_spec, "gzip",
                        results_dir=tmp_path / "x", shards=0)
        with pytest.raises(SweepError,
                           match="segment_records must be >= 1"):
            SweepRunner(small_spec, "gzip",
                        results_dir=tmp_path / "x", segment_records=0)

    def test_search_accepts_shards(self, tmp_path):
        from repro.sweep import GridSearch
        spec = SweepSpec(axes={"rob_entries": (8, 16)})
        search = SweepRunner(spec, "gzip",
                             results_dir=tmp_path / "search",
                             budget=BUDGET, shards=2,
                             segment_records=64).search(GridSearch(spec))
        assert len(search) == 2
        assert all(o.stats.sharded for o in search.outcomes)
