"""CLI smoke tests: every subcommand through ``main(argv)``.

Each subcommand must exit 0 on a healthy invocation (tiny budgets,
tmp-dir outputs), and ``simulate`` must print exactly the numbers a
direct :class:`repro.session.Simulation` run produces — the CLI is a
thin shell over the facade, and this pins it there.
"""

import json

import pytest

from repro.cli import main
from repro.session import CONFIGS, Simulation

BUDGET = "1500"


class TestTrace:
    def test_synthetic_workload(self, tmp_path, capsys):
        out = tmp_path / "gzip.rtrc"
        assert main(["trace", "gzip", str(out),
                     "--budget", BUDGET]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_kernel_records_start_pc(self, tmp_path):
        out = tmp_path / "vecsum.rtrc"
        assert main(["trace", "vecsum", str(out),
                     "--budget", BUDGET]) == 0
        from repro.trace.fileio import read_trace_header
        header = read_trace_header(out)
        assert "start_pc" in header.metadata

    def test_unknown_workload_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["trace", "doom", str(tmp_path / "x.rtrc"),
                  "--budget", BUDGET])


class TestSimulate:
    def test_workload_output_matches_direct_simulation(self, capsys):
        assert main(["simulate", "gzip", "--budget", BUDGET]) == 0
        cli_output = capsys.readouterr().out

        session = (Simulation.for_workload(
            "gzip", CONFIGS.get("4wide-perfect"),
            budget=int(BUDGET), seed=7)
            .with_devices("xc4vlx40", "xc5vlx50t").run())
        assert session.stats.report() in cli_output
        assert f"{session.mips('xc4vlx40'):7.2f} MIPS" in cli_output
        assert f"{session.mips('xc5vlx50t'):7.2f} MIPS" in cli_output

    def test_trace_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "vecsum.rtrc"
        assert main(["trace", "vecsum", str(out),
                     "--budget", BUDGET]) == 0
        capsys.readouterr()
        assert main(["simulate", "--trace-file", str(out)]) == 0
        direct = Simulation.for_trace_file(out).run()
        assert direct.stats.report() in capsys.readouterr().out

    def test_predictor_mismatch_warns(self, tmp_path, capsys):
        out = tmp_path / "t.rtrc"
        assert main(["trace", "vecsum", str(out),
                     "--budget", BUDGET]) == 0
        assert main(["simulate", "--trace-file", str(out),
                     "--config", "2wide-cache"]) == 0
        assert "different" in capsys.readouterr().err

    def test_corrupt_trace_file_exits(self, tmp_path):
        bad = tmp_path / "bad.rtrc"
        bad.write_bytes(b"not a trace file")
        with pytest.raises(SystemExit, match="bad.rtrc"):
            main(["simulate", "--trace-file", str(bad)])

    def test_unknown_config_exits(self):
        with pytest.raises(SystemExit, match="unknown config"):
            main(["simulate", "gzip", "--config", "9wide"])


class TestTables:
    def test_table4_renders(self, capsys):
        assert main(["tables", "table4", "--budget", "1000"]) == 0
        assert "Area" in capsys.readouterr().out

    def test_unknown_table_exits(self):
        with pytest.raises(SystemExit, match="unknown table"):
            main(["tables", "table9"])


class TestArea:
    def test_area_breakdown(self, capsys):
        assert main(["area"]) == 0
        assert "slices" in capsys.readouterr().out.lower()

    def test_with_caches(self, capsys):
        assert main(["area", "--with-caches"]) == 0
        capsys.readouterr()


class TestVhdl:
    def test_emits_sources(self, tmp_path, capsys):
        rtl = tmp_path / "rtl"
        assert main(["vhdl", str(rtl)]) == 0
        written = list(rtl.glob("*.vhd"))
        assert written
        assert "wrote" in capsys.readouterr().out


class TestMulticore:
    def test_runs_on_large_device(self, capsys):
        assert main(["multicore", "gzip", "--budget", BUDGET,
                     "--device", "xc4vlx100"]) == 0
        out = capsys.readouterr().out
        assert "instance(s)" in out
        assert "aggregate MIPS" in out

    def test_unknown_device_exits(self):
        with pytest.raises(SystemExit, match="unknown device"):
            main(["multicore", "gzip", "--device", "xc1"])


class TestSweep:
    def test_sweep_and_resume(self, tmp_path, capsys):
        results = tmp_path / "results"
        argv = ["sweep", "gzip", "--rob", "8,16",
                "--budget", BUDGET, "--results-dir", str(results),
                "--json", str(tmp_path / "sweep.json")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 design points" in first
        document = json.loads((tmp_path / "sweep.json").read_text())
        assert len(document["outcomes"]) == 2

        # Rerun: everything satisfied from checkpoints.
        assert main(argv) == 0
        assert "2 resumed from checkpoints" in capsys.readouterr().out


class TestSweepBackends:
    def test_backend_serial_named_in_notes(self, tmp_path, capsys):
        assert main(["sweep", "gzip", "--rob", "8,16",
                     "--budget", BUDGET, "--backend", "serial",
                     "--results-dir", str(tmp_path / "out")]) == 0
        assert "backend serial" in capsys.readouterr().out

    def test_backend_queue_with_local_workers(self, tmp_path, capsys):
        assert main(["sweep", "gzip", "--rob", "8,16",
                     "--budget", BUDGET, "--backend", "queue",
                     "--workers", "2", "--queue-timeout", "120",
                     "--results-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "2 design points" in out
        assert "backend queue" in out
        assert (tmp_path / "out" / "queue" / "done").is_dir()

    def test_unknown_backend_fails_before_simulating(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="unknown execution"):
            main(["sweep", "gzip", "--rob", "8,16",
                  "--backend", "bogus", "--results-dir", str(out)])
        assert not out.exists()

    def test_progress_lines_on_stderr(self, tmp_path, capsys):
        assert main(["sweep", "gzip", "--rob", "8,16",
                     "--budget", BUDGET, "--progress",
                     "--results-dir", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert "[sweep] 2 design point(s) to evaluate" in err
        assert "[sweep] complete:" in err


class TestSearch:
    def test_hillclimb_search(self, tmp_path, capsys):
        assert main(["search", "gzip", "--rob", "8,16,32",
                     "--budget", BUDGET, "--strategy", "hillclimb",
                     "--results-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "hillclimb search evaluated" in out
        assert "best ipc=" in out

    def test_random_search_with_seed(self, tmp_path, capsys):
        argv = ["search", "gzip", "--rob", "8,16,32,64",
                "--lsq", "4,8", "--budget", BUDGET,
                "--strategy", "random", "--samples", "3",
                "--search-seed", "5",
                "--results-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "random search evaluated 3 point(s)" in first
        # Same seed, same directory: identical points, all resumed.
        assert main(argv) == 0
        assert "resumed from checkpoints" in capsys.readouterr().out

    def test_unknown_strategy_and_metric_fail_early(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="unknown search strategy"):
            main(["search", "gzip", "--rob", "8,16",
                  "--strategy", "annealing",
                  "--results-dir", str(out)])
        with pytest.raises(SystemExit, match="unknown metric"):
            main(["search", "gzip", "--rob", "8,16",
                  "--metric", "goodness", "--results-dir", str(out)])
        assert not out.exists()

    def test_search_requires_an_axis(self, tmp_path):
        with pytest.raises(SystemExit, match="nothing to search"):
            main(["search", "gzip",
                  "--results-dir", str(tmp_path / "out")])


class TestWorker:
    def test_worker_drains_empty_queue(self, tmp_path, capsys):
        assert main(["worker", str(tmp_path / "queue"),
                     "--exit-when-drained"]) == 0
        assert "processed 0 unit(s)" in capsys.readouterr().out

    def test_worker_completes_coordinator_units(self, tmp_path,
                                                capsys):
        """Two-terminal walkthrough, scripted: enqueue units by hand
        (the coordinator side), then drain them with `resim worker`
        (the second terminal)."""
        from repro.core.config import PAPER_4WIDE_PERFECT
        from repro.exec import WorkUnit, enqueue, queue_paths
        from repro.serialize import config_to_dict
        from repro.workloads.tracegen import write_workload_trace

        trace = tmp_path / "gzip.rtrc"
        write_workload_trace("gzip", PAPER_4WIDE_PERFECT, trace,
                             budget=int(BUDGET), seed=7)
        paths = queue_paths(tmp_path / "queue")
        enqueue(paths, WorkUnit.for_trace(
            "point0", trace, config_to_dict(PAPER_4WIDE_PERFECT),
            tmp_path / "point0.json"))
        assert main(["worker", str(tmp_path / "queue"),
                     "--exit-when-drained", "--quiet"]) == 0
        assert "processed 1 unit(s)" in capsys.readouterr().out
        assert (tmp_path / "point0.json").exists()

    def test_worker_validates_options(self, tmp_path):
        with pytest.raises(SystemExit, match="poll-seconds"):
            main(["worker", str(tmp_path), "--poll-seconds", "0"])
        with pytest.raises(SystemExit, match="lease-seconds"):
            main(["worker", str(tmp_path), "--lease-seconds", "-1"])


class TestShardedCli:
    def test_sweep_with_shards_matches_serial(self, tmp_path, capsys):
        """`--shards 2` through the CLI: exact-sum counters equal the
        serial monolithic sweep's, and the note names the shards."""
        from repro.exec import EXACT_SUM_COUNTERS
        mono = tmp_path / "mono.json"
        shard = tmp_path / "shard.json"
        common = ["sweep", "gzip", "--rob", "16", "--budget", BUDGET,
                  "--segment-records", "64"]
        assert main([*common, "--results-dir",
                     str(tmp_path / "mono"), "--json", str(mono)]) == 0
        capsys.readouterr()
        assert main([*common, "--shards", "2", "--results-dir",
                     str(tmp_path / "shard"), "--json",
                     str(shard)]) == 0
        assert "2 shards per point" in capsys.readouterr().out
        mono_doc = json.loads(mono.read_text())["outcomes"][0]
        shard_doc = json.loads(shard.read_text())["outcomes"][0]
        for counter in EXACT_SUM_COUNTERS:
            assert shard_doc["stats"][counter] == \
                mono_doc["stats"][counter], counter
        assert len(shard_doc["stats"]["shards"]) == 2

    def test_stats_merge_subcommand(self, tmp_path, capsys):
        """`resim stats merge` exposes the reducer standalone."""
        assert main(["sweep", "gzip", "--rob", "16", "--budget",
                     BUDGET, "--segment-records", "64", "--shards",
                     "2", "--results-dir", str(tmp_path / "sw")]) == 0
        capsys.readouterr()
        shard_files = sorted(
            str(path) for path in (tmp_path / "sw").glob("*.s*of2.json"))
        assert len(shard_files) == 2
        merged_path = tmp_path / "merged.json"
        assert main(["stats", "merge", *shard_files,
                     "--output", str(merged_path)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 result document(s)" in out
        assert "merged from shards      : 2" in out
        merged = json.loads(merged_path.read_text())
        # The standalone merge agrees with the sweep's own reducer.
        checkpoint = next(
            path for path in (tmp_path / "sw").glob("*.json")
            if ".s" not in path.name and path.name != "sweep.json")
        assert merged["stats"] == \
            json.loads(checkpoint.read_text())["stats"]

    def test_stats_merge_rejects_mixed_points(self, tmp_path, capsys):
        assert main(["sweep", "gzip", "--rob", "8,16", "--budget",
                     BUDGET, "--results-dir",
                     str(tmp_path / "sw")]) == 0
        capsys.readouterr()
        points = sorted(
            str(path) for path in (tmp_path / "sw").glob("*.json")
            if path.name != "sweep.json")
        assert len(points) == 2
        with pytest.raises(SystemExit,
                           match="different design points"):
            main(["stats", "merge", *points])

    def test_stats_merge_region_documents_is_the_weighted_estimate(
            self, tmp_path, capsys):
        """`resim stats merge` over per-region documents is the weighted
        estimate the sweep's reducer computes, marked `sampled`, never
        an unweighted "exact" merge; shard and region documents never
        mix."""
        from repro.core.config import PAPER_4WIDE_PERFECT
        from repro.exec import (SliceReducer, WorkUnit, execute_unit,
                                plan_regions, plan_shards, slice_units)
        from repro.trace import ensure_profile
        from repro.workloads.tracegen import write_workload_trace
        trace = tmp_path / "vpr.rtrc"
        write_workload_trace("vpr", PAPER_4WIDE_PERFECT, trace,
                             budget=12_000, seed=11, segment_records=128)
        base = WorkUnit.for_trace("point", trace, "4wide-perfect",
                                  tmp_path / "point.json")
        plan = plan_regions(trace, ensure_profile(trace), regions=8)
        reducer = SliceReducer(base, plan)
        region_files = []
        for unit in slice_units(base, plan):
            reducer.add(execute_unit(unit))
            region_files.append(unit.result_path)
        merged_path = tmp_path / "merged.json"
        assert main(["stats", "merge", *region_files,
                     "--output", str(merged_path)]) == 0
        out = capsys.readouterr().out
        assert f"({plan.count} region(s))" in out
        assert "merged from regions" in out
        merged = json.loads(merged_path.read_text())
        expected = reducer.merged()
        assert merged["stats"] == expected["stats"]
        assert merged["sampled"] == expected["sampled"]
        assert "sharded" not in merged
        shard = slice_units(base, plan_shards(trace, 2))[0]
        execute_unit(shard)
        with pytest.raises(SystemExit, match="never mix"):
            main(["stats", "merge", region_files[0], shard.result_path])

    def test_stats_merge_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["stats", "merge", str(bad)])
        with pytest.raises(SystemExit, match="No such file|o such"):
            main(["stats", "merge", str(tmp_path / "missing.json")])


class TestSpecHash:
    def test_flags_and_file_agree(self, tmp_path, capsys):
        assert main(["spec", "hash", "--workload", "gzip",
                     "--budget", BUDGET]) == 0
        from_flags = capsys.readouterr().out.strip()
        assert len(from_flags) == 40
        spec = Simulation.for_workload(
            "gzip", CONFIGS.get("4wide-perfect"),
            budget=int(BUDGET), seed=7).to_spec()
        saved = tmp_path / "spec.json"
        saved.write_text(json.dumps(spec))
        assert main(["spec", "hash", "--file", str(saved)]) == 0
        assert capsys.readouterr().out.strip() == from_flags

    def test_key_order_does_not_matter(self, tmp_path, capsys):
        spec = Simulation.for_workload(
            "gzip", CONFIGS.get("4wide-perfect"),
            budget=int(BUDGET), seed=7).to_spec()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(spec))
        b.write_text(json.dumps(dict(reversed(list(spec.items())))))
        assert main(["spec", "hash", "--file", str(a)]) == 0
        hash_a = capsys.readouterr().out.strip()
        assert main(["spec", "hash", "--file", str(b)]) == 0
        assert capsys.readouterr().out.strip() == hash_a

    def test_length_and_validation(self, capsys):
        assert main(["spec", "hash", "--workload", "gzip",
                     "--budget", BUDGET, "--length", "64"]) == 0
        assert len(capsys.readouterr().out.strip()) == 64
        with pytest.raises(SystemExit, match="--length"):
            main(["spec", "hash", "--length", "2"])
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["spec", "hash", "--file", "/dev/null"])


class TestTraceInfoJson:
    def test_json_format_carries_cache_digest(self, tmp_path, capsys):
        out = tmp_path / "gzip.rtrc"
        assert main(["trace", "gzip", str(out),
                     "--budget", BUDGET]) == 0
        capsys.readouterr()
        assert main(["trace", "info", str(out),
                     "--format", "json"]) == 0
        raw = capsys.readouterr().out
        document = json.loads(raw)
        from repro.serve import trace_digest
        assert document["content_digest"] == trace_digest(out)
        assert document["records"] > 0
        assert document["format_version"] == 2
        assert document["segments"]
        # Canonical form: sorted keys, so output is diffable.
        assert raw.strip() \
            == json.dumps(document, indent=2, sort_keys=True)

    def test_text_format_also_names_digest(self, tmp_path, capsys):
        out = tmp_path / "v.rtrc"
        assert main(["trace", "vecsum", str(out),
                     "--budget", BUDGET]) == 0
        capsys.readouterr()
        assert main(["trace", "info", str(out)]) == 0
        assert "content digest       : sha256:" \
            in capsys.readouterr().out
