"""Command-line interface: the ReSim toolflow without writing Python.

Subcommands mirror how the paper's system is used:

* ``trace``    — generate a tagged trace (synthetic benchmark or
  assembled kernel), streaming it straight into a segmented trace
  file; ``trace info FILE`` inspects a stored trace (header, format
  version, metadata, segment table) without decoding its payload;
* ``simulate`` — run a trace file (streamed by default; see
  ``--in-memory``, ``--progress``) or generate one on the fly through
  the timing engine and print statistics + FPGA-projected MIPS;
* ``tables``   — regenerate the paper's Tables 1-4;
* ``area``     — print the Table 4 area breakdown for a configuration;
* ``vhdl``     — emit the parametric branch-predictor VHDL;
* ``multicore``— the Section VI study: instances per device and
  aggregate throughput under the shared trace channel;
* ``sweep``    — the paper's bulk mode: simulate one shared trace
  across a whole parameter grid, with per-point checkpointing so
  interrupted sweeps resume; ``--backend serial|pool|queue`` picks
  how points execute (in-process, local process pool, or a shared-
  filesystem queue drained by workers on any number of hosts), and
  ``--shards N`` splits every design point into N segment-range
  shard runs merged back into one result;
* ``search``   — adaptive design-space search (grid / seeded random /
  hill-climb) that simulates points one batch at a time through the
  same backends, checkpoints, and sharding;
* ``worker``   — a queue worker: claims work units from a shared
  queue directory (``sweep``/``search`` with ``--backend queue``)
  and simulates them until the queue drains or it is stopped;
* ``stats``    — statistics utilities: ``stats merge A.json B.json``
  reduces per-shard or per-region result documents into one merged
  document;
* ``serve``    — the campaign service: a long-lived process accepting
  simulate/sweep/search submissions over HTTP/JSON, scheduling them
  onto the execution backends, streaming progress events, and
  memoizing every completed work unit in a content-addressed result
  cache (``serve ROOT --port N``);
* ``client``   — drive a running service: ``client submit REQ.json``,
  ``client batch REQS.json --wait``, ``client watch/fetch/status/``
  ``cancel JOB``, ``client health/cache/jobs``;
* ``spec``     — spec utilities: ``spec hash`` prints the canonical
  content key (spec + trace digest + engine version) the campaign
  cache addresses results by.

Entry point: ``python -m repro.cli <subcommand>`` or the installed
``resim`` script.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.core.minorpipe import select_pipeline
from repro.core.observers import ProgressObserver
from repro.fpga.area import AreaEstimator
from repro.fpga.device import DEVICES, VIRTEX4_LX40, VIRTEX5_LX50T
from repro.fpga.vhdlgen import generate_branch_predictor_vhdl
from repro.multicore.simulator import MultiCoreSimulator, TraceChannel
from repro.core.specialize import ENGINES
from repro.session import CONFIGS, SessionError, Simulation
from repro.trace.fileio import (
    DEFAULT_SEGMENT_RECORDS,
    TraceFileError,
    read_segment_table,
    read_trace_header,
)
from repro.utils.registry import RegistryError
from repro.workloads.profiles import SPECINT_PROFILES
from repro.workloads.tracegen import (
    UnknownWorkloadError,
    write_workload_trace,
)


def _config(name: str):
    try:
        return CONFIGS.get(name)
    except RegistryError as error:
        raise SystemExit(str(error)) from error


def _device(name: str):
    try:
        return DEVICES.get(name)
    except RegistryError as error:
        raise SystemExit(str(error)) from error


def _apply_engine(simulation: Simulation, engine: str) -> Simulation:
    """Select the engine tier before observers attach / prepare()
    runs (``with_*`` clones invalidate the prepared-trace cache)."""
    if engine == "reference":
        return simulation
    try:
        return simulation.with_engine(engine)
    except SessionError as error:
        raise SystemExit(str(error)) from error


def _workload_simulation(args, config) -> Simulation:
    """Shared workload selection for `trace` and `simulate`."""
    return Simulation.for_workload(
        args.workload, config, budget=args.budget, seed=args.seed)


def cmd_trace(args) -> int:
    if args.workload == "info":
        return cmd_trace_info(args)
    if args.workload == "analyze":
        return cmd_trace_analyze(args)
    config = _config(args.config)
    try:
        written = write_workload_trace(
            args.workload, config, args.output,
            budget=args.budget, seed=args.seed,
            segment_records=args.segment_records,
        )
    except UnknownWorkloadError as error:
        raise SystemExit(str(error)) from error
    except TraceFileError as error:
        raise SystemExit(f"{args.output}: {error}") from error
    print(f"wrote {written.record_count} records "
          f"({written.bytes_written} bytes) to {args.output}")
    return 0


def _describe_predictor(blob) -> str:
    if not isinstance(blob, dict):
        return "(not recorded)"
    scheme = blob.get("scheme", "?")
    details = ", ".join(f"{key}={value}" for key, value in sorted(blob.items())
                        if key != "scheme" and value is not None)
    return f"{scheme} ({details})" if details else scheme


def cmd_trace_info(args) -> int:
    """`resim trace info <file>`: inspect a stored trace."""
    from repro.serve.canon import trace_digest  # deferred: hashes the file

    path = Path(args.output)
    try:
        header = read_trace_header(path)
        segments = read_segment_table(path)
    except OSError as error:
        raise SystemExit(f"{path}: {error.strerror or error}") from error
    except TraceFileError as error:
        raise SystemExit(f"{path}: {error}") from error
    size = path.stat().st_size
    digest = trace_digest(path)
    if args.format == "json":
        import json as _json
        document = {
            "path": str(path),
            "file_size_bytes": size,
            "format_version": header.version,
            "records": header.record_count,
            "committed_low32": header.committed_low32,
            "payload_bits": header.bit_length,
            "bits_per_instruction": header.bits_per_instruction,
            "content_digest": digest,
            "metadata": dict(header.metadata),
            "segment_count": (None if header.version == 1
                              else header.segment_count),
            "segment_records": (None if header.version == 1
                                else header.segment_records),
            "segments": [
                {"index": segment.index,
                 "records": segment.record_count,
                 "bits": segment.bit_length,
                 "payload_offset": segment.payload_offset}
                for segment in segments
            ],
        }
        print(_json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"{path}")
    print(f"  format version       : {header.version}"
          + ("" if header.version != 1 else " (monolithic payload)"))
    print(f"  file size            : {size} bytes")
    print(f"  records              : {header.record_count}")
    print(f"  committed (low 32)   : {header.committed_low32}")
    print(f"  payload bits         : {header.bit_length}")
    print(f"  bits per instruction : {header.bits_per_instruction:.2f}")
    print(f"  content digest       : {digest}")
    metadata = dict(header.metadata)
    predictor = metadata.pop("predictor", None)
    print(f"  generation predictor : {_describe_predictor(predictor)}")
    for key in sorted(metadata):
        if metadata[key] is not None:
            print(f"  {key:21s}: {metadata[key]}")
    if header.version == 1:
        print(f"  segments             : (none; v1 payload spans "
              f"{segments[0].byte_length} bytes)")
        return 0
    print(f"  segments             : {header.segment_count} "
          f"(nominal {header.segment_records} records each)")
    rows = segments if len(segments) <= 8 else segments[:8]
    for segment in rows:
        print(f"    [{segment.index:4d}] {segment.record_count:8d} "
              f"records, {segment.bit_length:10d} bits at offset "
              f"{segment.payload_offset}")
    if len(segments) > len(rows):
        print(f"    ... {len(segments) - len(rows)} more segment(s)")
    return 0


def cmd_trace_analyze(args) -> int:
    """``resim trace analyze <file>``: profile a stored trace into its
    ``.rprof`` sidecar (reused when digest-fresh) and summarize it."""
    from repro.trace.analyze import ensure_profile, profile_path

    path = Path(args.output)
    try:
        profile = ensure_profile(path, force=args.force)
    except OSError as error:
        raise SystemExit(f"{path}: {error.strerror or error}") from error
    except (TraceFileError, ValueError) as error:
        raise SystemExit(f"{path}: {error}") from error
    if args.format == "json":
        import json as _json
        print(_json.dumps(profile.to_dict(), indent=2, sort_keys=True))
        return 0
    print(profile.summary())
    print(f"  profile sidecar      : {profile_path(path)}")
    return 0


def _simulate_regions(args, config) -> int:
    """``resim simulate --trace-file F --sample-regions N``: profile,
    plan, run the representative regions, report the weighted
    estimate."""
    import tempfile
    from repro.exec import (
        ExecError,
        SliceReducer,
        WorkUnit,
        execute_unit,
        plan_regions,
        slice_units,
    )
    from repro.serialize import config_to_dict, stats_from_dict
    from repro.trace.analyze import ensure_profile

    if not args.trace_file:
        raise SystemExit("--sample-regions needs --trace-file: region "
                         "sampling plans over a stored segmented "
                         "trace's profile")
    options = _sampling_options(args)
    trace = Path(args.trace_file)
    try:
        plan = plan_regions(trace, ensure_profile(trace),
                            regions=options["regions"],
                            seed=options["region_seed"],
                            warmup_segments=options["region_warmup"])
        print(plan.describe(), file=sys.stderr)
        with tempfile.TemporaryDirectory(prefix="resim-regions-") as work:
            base = WorkUnit.for_trace(
                "point", trace.resolve(), config_to_dict(config),
                Path(work) / "point.json", engine=args.engine)
            reducer = SliceReducer(base, plan)
            for unit in slice_units(base, plan):
                reducer.add(execute_unit(unit))
            merged = reducer.merged()
    except OSError as error:
        raise SystemExit(
            f"{trace}: {error.strerror or error}") from error
    except (TraceFileError, ExecError, ValueError) as error:
        raise SystemExit(f"{trace}: {error}") from error
    stats = stats_from_dict(merged["stats"])
    print(stats.report())
    print(f"\nregion-sampled ESTIMATE: {plan.count} region(s) stood "
          f"for {plan.total_segments} segment(s); "
          f"{100.0 * plan.coverage:.1f}% of trace records executed "
          f"(rerun without --sample-regions for exact statistics)")
    return 0


def cmd_simulate(args) -> int:
    config = _config(args.config)
    if args.progress_records < 1:
        raise SystemExit(
            f"--progress-records must be positive, "
            f"got {args.progress_records}")
    if args.sample_regions is not None:
        return _simulate_regions(args, config)
    if args.trace_file:
        simulation = Simulation.for_trace_file(
            args.trace_file, config=config,
            streaming=not args.in_memory,
        ).with_devices(VIRTEX4_LX40, VIRTEX5_LX50T)
        simulation = _apply_engine(simulation, args.engine)
        if args.progress:
            # Attach before prepare(): every with_* clone invalidates
            # the prepared-trace cache, and preparing twice would
            # decode an --in-memory trace file twice.
            simulation = simulation.with_observer(
                ProgressObserver(args.progress_records))
        try:
            prepared = simulation.prepare()
        except TraceFileError as error:
            raise SystemExit(f"{args.trace_file}: {error}") from error
        except OSError as error:
            raise SystemExit(
                f"{args.trace_file}: {error.strerror or error}") from error
        if prepared.predictor_mismatch:
            print("warning: trace was generated with a different "
                  "predictor configuration; Tag bits may not match "
                  "this engine's predictions", file=sys.stderr)
    else:
        simulation = _workload_simulation(args, config).with_devices(
            VIRTEX4_LX40, VIRTEX5_LX50T)
        simulation = _apply_engine(simulation, args.engine)
        if args.progress:
            simulation = simulation.with_observer(
                ProgressObserver(args.progress_records))
    try:
        session = simulation.run()
    except UnknownWorkloadError as error:
        raise SystemExit(str(error)) from error
    except TraceFileError as error:
        # Streamed payload corruption surfaces during the run, not at
        # prepare time (only one segment is ever decoded ahead).
        raise SystemExit(f"{args.trace_file}: {error}") from error
    print(session.stats.report())
    pipeline = select_pipeline(config.width, config.memory_ports)
    print(f"\ninternal pipeline: {pipeline.name} "
          f"(major = {pipeline.minor_cycles_per_major} minor cycles)")
    for device in (VIRTEX4_LX40, VIRTEX5_LX50T):
        print(f"  {device.name:12s} {session.mips(device.name):7.2f} MIPS")
    return 0


def cmd_tables(args) -> int:
    from repro.perf.tables import render_all  # heavy import, lazy
    try:
        render_all(args.tables or None, args.budget)
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from error
    return 0


def cmd_area(args) -> int:
    config = _config(args.config)
    if args.with_caches:
        config = replace(config, perfect_memory=False)
    report = AreaEstimator(config, device_name=args.device).estimate()
    print(report.render())
    return 0


def cmd_vhdl(args) -> int:
    config = _config(args.config)
    sources = generate_branch_predictor_vhdl(config.predictor)
    output = Path(args.output_dir)
    output.mkdir(parents=True, exist_ok=True)
    for entity, source in sources.items():
        path = output / f"{entity}.vhd"
        path.write_text(source)
        print(f"wrote {path}")
    return 0


def cmd_multicore(args) -> int:
    config = _config(args.config)
    device = _device(args.device)
    simulator = MultiCoreSimulator(
        config, device, TraceChannel(args.channel_gbps)
    )
    print(f"{device.name}: up to {simulator.max_instances} instance(s)")
    benchmarks = args.benchmarks or list(SPECINT_PROFILES)
    count = min(len(benchmarks), max(1, simulator.max_instances))
    try:
        result = simulator.run(benchmarks[:count], budget=args.budget,
                               seed=args.seed)
    except UnknownWorkloadError as error:
        raise SystemExit(str(error)) from error
    except (TraceFileError, OSError) as error:
        # A core given a .rtrc path: missing or corrupt trace files
        # must not escape as tracebacks.
        raise SystemExit(str(error)) from error
    print(result.summary())
    return 0


def _int_list(raw: str, option: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise SystemExit(
            f"{option} expects a comma-separated integer list, got {raw!r}"
        ) from None


def _collect_axes(args) -> dict[str, list]:
    """Shared axis-flag parsing for ``sweep`` and ``search``."""
    axes: dict[str, list] = {}
    for name, option, raw in (
        ("rob_entries", "--rob", args.rob),
        ("lsq_entries", "--lsq", args.lsq),
        ("ifq_entries", "--ifq", args.ifq),
        ("width", "--width", args.width),
        ("alu_count", "--alus", args.alus),
    ):
        if raw:
            axes[name] = _int_list(raw, option)
    if args.predictor:
        axes["predictor"] = [part for part in args.predictor.split(",")
                             if part]
    for raw in args.axis or []:
        name, sep, values = raw.partition("=")
        if not sep or not values:
            raise SystemExit(
                f"--axis expects NAME=V1,V2,..., got {raw!r}")
        if name in axes:
            raise SystemExit(
                f"axis {name!r} specified twice; merge its values "
                f"into one option"
            )
        axes[name] = _int_list(values, f"--axis {name}")
    if not axes:
        raise SystemExit(
            f"nothing to {args.command}; pass at least one axis "
            f"(--rob/--lsq/--ifq/--width/--alus/--predictor/--axis)"
        )
    return axes


def _make_backend(args, results_dir: Path):
    """Resolve ``--backend`` (None = the runner's workers default).

    ``--workers`` means "pool size" for the process pool and "local
    worker processes to spawn" for the queue (0 = rely entirely on
    externally started ``resim worker`` processes).
    """
    from repro.exec import (
        BACKENDS,
        DirectoryQueueBackend,
        ExecError,
        ProcessPoolBackend,
        SerialBackend,
    )

    if args.backend == "auto":
        if args.workers < 1:
            raise SystemExit(
                f"--workers must be >= 1 (got {args.workers}); use "
                f"--backend queue --workers 0 to rely on external "
                f"workers"
            )
        return None
    try:
        backend_cls = BACKENDS.get(args.backend)
    except RegistryError as error:
        raise SystemExit(str(error)) from error
    try:
        if backend_cls is SerialBackend:
            return SerialBackend()
        if backend_cls is ProcessPoolBackend:
            return ProcessPoolBackend(args.workers)
        if backend_cls is DirectoryQueueBackend:
            queue_dir = (Path(args.queue_dir) if args.queue_dir
                         else results_dir / "queue")
            return DirectoryQueueBackend(
                queue_dir, workers=args.workers,
                lease_seconds=args.queue_lease,
                timeout=args.queue_timeout,
            )
        return backend_cls()  # extension-registered backend
    except ExecError as error:
        raise SystemExit(str(error)) from error


def _bulk_progress(args):
    if not args.progress:
        return None
    from repro.sweep import ProgressPrinter
    return ProgressPrinter()


def _validate_bulk_options(args) -> Path:
    """Fail on bad presentation/export options *before* simulations
    run, not after minutes of them; returns the resolved results
    dir."""
    from repro.sweep.result import SORT_KEYS
    if hasattr(args, "metric"):  # search names it --metric
        kind, sort_key = "metric", args.metric
    else:  # sweep names it --sort
        kind, sort_key = "sort key", args.sort
    if sort_key not in SORT_KEYS:
        raise SystemExit(
            f"unknown {kind} {sort_key!r}; choose from "
            f"{', '.join(SORT_KEYS)}"
        )
    if args.top is not None and args.top < 1:
        raise SystemExit(f"--top must be positive, got {args.top}")
    results_dir = Path(args.results_dir).resolve()
    for option, export in (("--csv", args.csv), ("--json", args.json)):
        if export:
            parent = Path(export).resolve().parent
            inside_results = (parent == results_dir
                              or results_dir in parent.parents)
            if not parent.is_dir() and not inside_results:
                raise SystemExit(
                    f"{option} {export!r}: directory {parent} does "
                    f"not exist"
                )
    return results_dir


def _export_bulk_result(args, result, device) -> None:
    if args.csv:
        Path(args.csv).resolve().parent.mkdir(parents=True,
                                              exist_ok=True)
        result.to_csv(args.csv, devices=(device,))
        print(f"wrote {args.csv}")
    if args.json:
        Path(args.json).resolve().parent.mkdir(parents=True,
                                               exist_ok=True)
        result.to_json(args.json)
        print(f"wrote {args.json}")


def _sampling_options(args) -> dict:
    """Validated runner kwargs for the shared --sample-regions /
    --region-seed / --region-warmup options (empty for full replay)."""
    if args.sample_regions is None:
        return {}
    if args.sample_regions < 1:
        raise SystemExit(f"--sample-regions must be positive, "
                         f"got {args.sample_regions}")
    if args.region_warmup < 0:
        raise SystemExit(f"--region-warmup must be >= 0, "
                         f"got {args.region_warmup}")
    return {
        "sampling": "regions",
        "regions": args.sample_regions,
        "region_seed": args.region_seed,
        "region_warmup": args.region_warmup,
    }


def _runner_options(args, backend) -> dict:
    """SweepRunner/SearchRunner kwargs shared by ``sweep`` and
    ``search``."""
    return {"results_dir": args.results_dir, "budget": args.budget,
            "seed": args.seed, "workers": args.workers,
            "backend": backend, "progress": _bulk_progress(args),
            "shards": args.shards, "segment_records": args.segment_records,
            "engine": args.engine, **_sampling_options(args)}


def cmd_sweep(args) -> int:
    from repro.perf.tables import sweep_table  # heavy import, lazy
    from repro.exec import ExecError
    from repro.sweep import SweepError, SweepRunner, SweepSpec

    base = _config(args.config)
    axes = _collect_axes(args)
    device = _device(args.device)
    results_dir = _validate_bulk_options(args)
    backend = _make_backend(args, results_dir)

    try:
        spec = SweepSpec(axes=axes, base=base)
        runner = SweepRunner(spec, args.workload,
                             **_runner_options(args, backend))
        result = runner.run()
    except (SweepError, ExecError) as error:
        raise SystemExit(str(error)) from error

    print(sweep_table(result, device_name=args.device,
                      sort_key=args.sort, limit=args.top))
    notes = [f"{len(result)} design points"]
    if backend is not None:
        notes.append(f"backend {backend.name}")
    if args.shards > 1:
        notes.append(f"{args.shards} shards per point")
    if args.sample_regions is not None:
        notes.append(f"region-sampled estimates "
                     f"({args.sample_regions} regions requested)")
    if result.resumed_count:
        notes.append(f"{result.resumed_count} resumed from checkpoints")
    if result.skipped_invalid:
        notes.append(f"{result.skipped_invalid} invalid combos skipped")
    if result.skipped_duplicates:
        notes.append(f"{result.skipped_duplicates} duplicates collapsed")
    print(f"\n[{'; '.join(notes)}; results in {args.results_dir}]")
    _export_bulk_result(args, result, device)
    return 0


def cmd_search(args) -> int:
    from repro.perf.tables import sweep_table  # heavy import, lazy
    from repro.exec import ExecError
    from repro.sweep import (
        SearchRunner,
        SweepError,
        SweepSpec,
        make_strategy,
    )

    base = _config(args.config)
    axes = _collect_axes(args)
    device = _device(args.device)
    results_dir = _validate_bulk_options(args)
    backend = _make_backend(args, results_dir)
    if args.samples < 1:
        raise SystemExit(f"--samples must be positive, "
                         f"got {args.samples}")
    if args.max_steps < 0:
        raise SystemExit(f"--max-steps must be >= 0, "
                         f"got {args.max_steps}")
    try:
        strategy = make_strategy(
            args.strategy, SweepSpec(axes=axes, base=base),
            metric=args.metric, samples=args.samples,
            seed=args.search_seed, max_steps=args.max_steps)
        runner = SearchRunner(strategy, args.workload,
                              **_runner_options(args, backend))
        search = runner.run()
    except (SweepError, ExecError, RegistryError) as error:
        raise SystemExit(str(error)) from error

    print(sweep_table(search.result, device_name=args.device,
                      sort_key=args.metric, limit=args.top))
    print(f"\n{search.summary()}")
    if search.result.resumed_count:
        print(f"[{search.result.resumed_count} point(s) resumed from "
              f"checkpoints; results in {args.results_dir}]")
    _export_bulk_result(args, search.result, device)
    return 0


def cmd_worker(args) -> int:
    from repro.exec.worker import run_from_args
    return run_from_args(args)


def cmd_stats(args) -> int:
    """``resim stats merge A.json B.json ...`` — the slice reducer,
    standalone: merge per-shard (exact) or per-region (weighted
    estimate) result documents into one statistics document."""
    import json as _json
    from repro.exec import ExecError, merge_slice_documents
    from repro.exec.slice import kind_of
    from repro.serialize import stats_from_dict

    documents = []
    for name in args.files:
        path = Path(name)
        try:
            payload = _json.loads(path.read_text())
        except OSError as error:
            raise SystemExit(f"{path}: {error.strerror or error}") from error
        except _json.JSONDecodeError as error:
            raise SystemExit(f"{path}: not valid JSON ({error})") from error
        documents.append(payload)
    try:
        merged = merge_slice_documents(documents)
    except ExecError as error:
        raise SystemExit(str(error)) from error
    stats = stats_from_dict(merged["stats"])
    print(f"merged {len(documents)} result document(s) "
          f"({len(merged['stats']['shards'] or ())} "
          f"{kind_of(merged).tag}(s))")
    print(stats.report())
    if args.output:
        text = _json.dumps(merged, indent=2, sort_keys=True)
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    return 0


def _read_json_document(target):
    """Load a JSON document from a file path, or stdin for ``-``."""
    import json as _json
    if target in (None, "-"):
        raw = sys.stdin.read()
        label = "<stdin>"
    else:
        try:
            raw = Path(target).read_text()
        except OSError as error:
            raise SystemExit(
                f"{target}: {error.strerror or error}") from error
        label = target
    try:
        return _json.loads(raw)
    except _json.JSONDecodeError as error:
        raise SystemExit(f"{label}: not valid JSON ({error})") from error


def cmd_serve(args) -> int:
    """``resim serve``: run the campaign service until interrupted."""
    from repro.serve import (
        CampaignServer,
        CampaignService,
        ServiceError,
    )

    if args.concurrency < 1:
        raise SystemExit(f"--concurrency must be >= 1, "
                         f"got {args.concurrency}")
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    try:
        service = CampaignService(
            args.root, concurrency=args.concurrency,
            workers=args.workers)
        server = CampaignServer(service, host=args.host,
                                port=args.port)
    except (ServiceError, OSError) as error:
        raise SystemExit(str(error)) from error

    def ready(host: str, port: int) -> None:
        print(f"campaign service listening on http://{host}:{port} "
              f"(root {Path(args.root).resolve()})", flush=True)

    try:
        server.run(ready=ready)
    except OSError as error:
        raise SystemExit(
            f"cannot serve on {args.host}:{args.port}: "
            f"{error}") from error
    return 0


def cmd_client(args) -> int:
    """``resim client``: drive a running campaign service."""
    import json as _json
    from repro.serve import ClientError, ServiceClient

    client = ServiceClient(args.host, args.port,
                           timeout=args.timeout)

    def show(document) -> None:
        print(_json.dumps(document, indent=2, sort_keys=True))

    def watch(job_id: str) -> dict:
        # Events go to stderr so stdout stays one parseable JSON
        # document (the batch/submit answer or final status).
        def on_event(event: dict) -> None:
            print(_json.dumps(event, sort_keys=True),
                  file=sys.stderr, flush=True)
        return client.wait(job_id, on_event=on_event)

    try:
        if args.action == "health":
            show(client.health())
        elif args.action == "cache":
            show(client.cache_stats())
        elif args.action == "jobs":
            show({"jobs": client.jobs()})
        elif args.action == "submit":
            answer = client.submit(_read_json_document(args.target))
            if args.wait:
                watch(answer["job_id"])
                show(client.result(answer["job_id"]))
            else:
                show(answer)
        elif args.action == "batch":
            documents = _read_json_document(args.target)
            if not isinstance(documents, list):
                raise SystemExit(
                    "batch expects a JSON array of request documents")
            answers = client.batch_submit(documents)
            if args.wait:
                for answer in answers:
                    watch(answer["job_id"])
                show({"results": [client.result(answer["job_id"])
                                  for answer in answers]})
            else:
                show({"submitted": answers})
        else:  # watch / fetch / status / cancel need a job id
            if not args.target:
                raise SystemExit(f"resim client {args.action} needs "
                                 f"a job id")
            if args.action == "watch":
                show(watch(args.target))
            elif args.action == "fetch":
                show(client.result(args.target))
            elif args.action == "status":
                show(client.status(args.target))
            else:
                show(client.cancel(args.target))
    except ClientError as error:
        raise SystemExit(str(error)) from error
    return 0


def cmd_spec(args) -> int:
    """``resim spec hash``: print a simulation spec's canonical
    content key — the same canonicalization + hash the campaign
    cache builds its keys from, so two invocations agree iff the
    service would treat the specs as the same computation."""
    from repro.session import SessionError

    if args.length < 4 or args.length > 64:
        raise SystemExit(f"--length must be in 4..64, "
                         f"got {args.length}")
    try:
        if args.file:
            simulation = Simulation.from_spec(
                _read_json_document(args.file))
        elif args.trace_file:
            simulation = Simulation.for_trace_file(
                args.trace_file, config=_config(args.config))
        else:
            simulation = _workload_simulation(args,
                                              _config(args.config))
        print(simulation.spec_key(length=args.length))
    except SessionError as error:
        raise SystemExit(str(error)) from error
    return 0


def cmd_lint(args) -> int:
    """`resim lint`: run the project's AST invariant linter.

    The linter lives in ``tools/lint`` (repo tooling, stdlib-only,
    outside the installable package) so the same code path serves
    ``python -m tools.lint`` and this subcommand.  It is importable
    from a source checkout; an installed-only environment has no
    ``src/`` to lint anyway.
    """
    try:
        from tools.lint.cli import run
    except ImportError:
        # Running from the source tree without the repo root on
        # sys.path: src/repro/cli.py -> parents[2] is the checkout.
        root = Path(__file__).resolve().parents[2]
        if not (root / "tools" / "lint").is_dir():
            raise SystemExit(
                "resim lint needs a source checkout (tools/lint not "
                "found); run it from the repository, or use "
                "python -m tools.lint there") from None
        sys.path.insert(0, str(root))
        from tools.lint.cli import run
    argv = list(args.paths)
    if args.format != "text":
        argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.list_rules:
        argv += ["--list-rules"]
    return run(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resim", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default="4wide-perfect",
                       help=f"processor config ({', '.join(CONFIGS)})")
        p.add_argument("--budget", type=int, default=20_000)
        p.add_argument("--seed", type=int, default=7)

    def add_sampling(p, estimate, note=""):
        """--sample-regions and its plan parameters (simulate and the
        bulk commands)."""
        p.add_argument("--sample-regions", type=int, default=None,
                       metavar="N",
                       help=f"{estimate} from N weighted representative "
                            f"regions instead of replaying every record "
                            f"(an approximation; see README "
                            f"'Region-sampled simulation'{note})")
        p.add_argument("--region-seed", type=int, default=0,
                       help="k-means seed for --sample-regions; fixed "
                            "seed = identical plan")
        p.add_argument("--region-warmup", type=int, default=1,
                       metavar="SEGMENTS",
                       help="warmup segments replayed (uncounted) "
                            "before each representative region")

    trace = sub.add_parser(
        "trace",
        help="generate a trace file, or inspect one (trace info FILE)")
    add_common(trace)
    trace.add_argument(
        "workload",
        help="benchmark profile or kernel name, or the literal 'info' "
             "/ 'analyze' to inspect / profile an existing trace file")
    trace.add_argument(
        "output",
        help="output trace file path (with 'info'/'analyze': the file "
             "to inspect)")
    trace.add_argument("--segment-records", type=int,
                       default=DEFAULT_SEGMENT_RECORDS,
                       help="records per v2 segment (decode granularity "
                            "of streaming readers)")
    trace.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="with 'info'/'analyze': output format "
                            "(json includes the trace content digest "
                            "the campaign cache keys on)")
    trace.add_argument("--force", action="store_true",
                       help="with 'analyze': re-profile even when a "
                            "digest-fresh .rprof sidecar exists")
    trace.set_defaults(func=cmd_trace)

    simulate = sub.add_parser("simulate", help="run the timing engine")
    add_common(simulate)
    simulate.add_argument("workload", nargs="?", default="gzip")
    simulate.add_argument("--trace-file", default=None,
                          help="simulate a stored trace instead")
    simulate.add_argument("--in-memory", action="store_true",
                          help="decode the whole trace file up front "
                               "instead of streaming it")
    simulate.add_argument("--progress", action="store_true",
                          help="print periodic progress lines to stderr")
    simulate.add_argument("--progress-records", type=int,
                          default=100_000,
                          help="records between progress lines")
    simulate.add_argument("--engine", default="reference",
                          help=f"engine tier ({', '.join(ENGINES)}); "
                               f"tiers are bit-identical, 'specialized' "
                               f"compiles the config into a fast path")
    add_sampling(simulate, "with --trace-file: estimate the run")
    simulate.set_defaults(func=cmd_simulate)

    tables = sub.add_parser("tables", help="regenerate paper tables")
    tables.add_argument("tables", nargs="*", metavar="TABLE")
    tables.add_argument("--budget", type=int, default=30_000)
    tables.set_defaults(func=cmd_tables)

    area = sub.add_parser("area", help="Table 4 area breakdown")
    area.add_argument("--config", default="4wide-perfect")
    area.add_argument("--device", default="xc4vlx40")
    area.add_argument("--with-caches", action="store_true",
                      help="include cache tag structures")
    area.set_defaults(func=cmd_area)

    vhdl = sub.add_parser("vhdl", help="emit branch-predictor VHDL")
    vhdl.add_argument("--config", default="4wide-perfect")
    vhdl.add_argument("output_dir")
    vhdl.set_defaults(func=cmd_vhdl)

    multicore = sub.add_parser("multicore",
                               help="Section VI multi-core study")
    add_common(multicore)
    multicore.add_argument("--device", default="xc4vlx100")
    multicore.add_argument("--channel-gbps", type=float, default=6.4)
    multicore.add_argument("benchmarks", nargs="*", metavar="BENCH")
    multicore.set_defaults(func=cmd_multicore)

    def add_axes(p, verb):
        p.add_argument("--rob", help="ROB sizes, e.g. 8,16,32")
        p.add_argument("--lsq", help="LSQ sizes")
        p.add_argument("--ifq", help="IFQ sizes")
        p.add_argument("--width", help="superscalar widths")
        p.add_argument("--alus", help="ALU counts")
        p.add_argument("--predictor",
                       help="predictor schemes, e.g. twolevel,bimodal")
        p.add_argument("--axis", action="append",
                       metavar="NAME=V1,V2",
                       help=f"{verb} any integer ProcessorConfig field")

    def add_bulk(p, default_dir):
        """Options shared by the two bulk commands (sweep/search):
        where results live, how points execute, how they render."""
        p.add_argument("--results-dir", default=default_dir,
                       help="trace + checkpoint directory (reuse to "
                            "resume an interrupted run)")
        p.add_argument("--workers", type=int, default=1,
                       help="pool size (--backend auto/pool) or local "
                            "worker processes to spawn "
                            "(--backend queue; 0 = external workers "
                            "only)")
        p.add_argument("--backend", default="auto",
                       help="execution backend: auto (serial for "
                            "--workers 1, else pool), serial, pool, "
                            "or queue (shared-filesystem multi-host; "
                            "see 'resim worker')")
        p.add_argument("--queue-dir", default=None,
                       help="queue directory for --backend queue "
                            "(default: RESULTS_DIR/queue; every host "
                            "must see it at the same path)")
        p.add_argument("--queue-lease", type=float, default=60.0,
                       help="seconds of silence before a claimed "
                            "unit is presumed orphaned and retried")
        p.add_argument("--queue-timeout", type=float, default=None,
                       help="abort if no unit completes for this "
                            "many seconds (default: wait forever)")
        p.add_argument("--shards", type=int, default=1,
                       help="split every design point into N "
                            "segment-range shard units, merged back "
                            "into one result (exact-sum counters "
                            "identical, cycle metrics approximate; "
                            "see README 'Sharded design points')")
        p.add_argument("--segment-records", type=int,
                       default=DEFAULT_SEGMENT_RECORDS,
                       help="records per v2 trace segment when the "
                            "sweep generates its trace (the shard "
                            "planner's boundary granularity)")
        add_sampling(p, "estimate every design point",
                     "; mutually exclusive with --shards")
        p.add_argument("--engine", default="reference",
                       help=f"engine tier executing every point "
                            f"({', '.join(ENGINES)}); tiers are "
                            f"bit-identical, so checkpoints and cache "
                            f"keys are shared across them")
        p.add_argument("--progress", action="store_true",
                       help="report per-point completion to stderr")
        p.add_argument("--device", default="xc4vlx40",
                       help="device for projected MIPS column")
        p.add_argument("--top", type=int, default=None,
                       help="show only the best N points")
        p.add_argument("--csv", default=None, help="CSV export path")
        p.add_argument("--json", default=None, help="JSON export path")

    sweep = sub.add_parser(
        "sweep", help="bulk design-space sweep over one shared trace")
    add_common(sweep)
    sweep.add_argument("workload", nargs="?", default="gzip",
                       help="benchmark profile or kernel name")
    add_axes(sweep, "sweep")
    add_bulk(sweep, "sweep-results")
    sweep.add_argument("--sort", default="ipc",
                       help="table sort key (ipc, cycles, mispredictions)")
    sweep.set_defaults(func=cmd_sweep)

    search = sub.add_parser(
        "search",
        help="adaptive design-space search (grid/random/hillclimb)")
    add_common(search)
    search.add_argument("workload", nargs="?", default="gzip",
                        help="benchmark profile or kernel name")
    add_axes(search, "search")
    add_bulk(search, "search-results")
    search.add_argument("--strategy", default="hillclimb",
                        help="search strategy (grid, random, "
                             "hillclimb)")
    search.add_argument("--metric", default="ipc",
                        help="objective to optimize (ipc, cycles, "
                             "mispredictions)")
    search.add_argument("--samples", type=int, default=16,
                        help="points to sample (--strategy random)")
    search.add_argument("--search-seed", type=int, default=1,
                        help="sampling seed (--strategy random); "
                             "fixed seed = identical search")
    search.add_argument("--max-steps", type=int, default=64,
                        help="move budget (--strategy hillclimb)")
    search.set_defaults(func=cmd_search)

    from repro.exec.worker import add_worker_arguments
    worker = sub.add_parser(
        "worker",
        help="process work units from a shared queue directory")
    add_worker_arguments(worker)
    worker.set_defaults(func=cmd_worker)

    stats = sub.add_parser(
        "stats",
        help="statistics utilities: merge slice result documents")
    stats.add_argument("action", choices=("merge",),
                       help="operation (currently only 'merge')")
    stats.add_argument("files", nargs="+", metavar="RESULT_JSON",
                       help="per-shard or per-region result documents")
    stats.add_argument("--output", "-o", default=None,
                       help="write the merged document here")
    stats.set_defaults(func=cmd_stats)

    # Defaults below mirror repro.serve.app.DEFAULT_HOST/DEFAULT_PORT;
    # literals keep parser construction free of the serve import.
    serve = sub.add_parser(
        "serve",
        help="run the campaign service: async submission API + "
             "content-addressed result cache")
    serve.add_argument("root", nargs="?", default="campaign-root",
                       help="service state directory (cache, job "
                            "journal, results; reuse to resume "
                            "journaled jobs after a crash)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8437,
                       help="listen port (0 = pick a free port)")
    serve.add_argument("--concurrency", type=int, default=2,
                       help="jobs running at once")
    serve.add_argument("--workers", type=int, default=1,
                       help="process-pool size per job (1 = serial)")
    serve.set_defaults(func=cmd_serve)

    client = sub.add_parser(
        "client",
        help="talk to a running campaign service")
    client.add_argument(
        "action",
        choices=("submit", "batch", "watch", "fetch", "status",
                 "cancel", "health", "cache", "jobs"),
        help="submit/batch take a request JSON file; "
             "watch/fetch/status/cancel take a job id")
    client.add_argument(
        "target", nargs="?", default=None,
        help="request document path ('-' = stdin) for submit, a "
             "JSON array of documents for batch, or a job id")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8437)
    client.add_argument("--timeout", type=float, default=600.0,
                        help="per-request socket timeout in seconds")
    client.add_argument("--wait", action="store_true",
                        help="after submit/batch: stream progress "
                             "events until done, then print the "
                             "result envelope")
    client.set_defaults(func=cmd_client)

    spec = sub.add_parser(
        "spec",
        help="spec utilities: 'spec hash' prints the canonical "
             "content key the campaign cache uses")
    spec.add_argument("action", choices=("hash",),
                      help="operation (currently only 'hash')")
    spec.add_argument("--file", default=None, metavar="SPEC_JSON",
                      help="hash a saved spec document "
                           "('-' = stdin)")
    spec.add_argument("--trace-file", default=None,
                      help="hash a trace-file simulation spec")
    spec.add_argument("--workload", default="gzip",
                      help="hash a workload simulation spec "
                           "(ignored with --file/--trace-file)")
    spec.add_argument("--config", default="4wide-perfect",
                      help=f"processor config ({', '.join(CONFIGS)})")
    spec.add_argument("--budget", type=int, default=20_000)
    spec.add_argument("--seed", type=int, default=7)
    spec.add_argument("--length", type=int, default=40,
                      help="hex digits to print (4..64; the campaign "
                           "cache uses 40)")
    spec.set_defaults(func=cmd_spec)

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant linter (determinism, "
             "serialization, exact-sum contracts) over src/")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint "
                           "(default: the checkout's src/)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", help="output format")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids to run")
    lint.add_argument("--list-rules", action="store_true",
                      help="list rules with rationale and exit")
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
