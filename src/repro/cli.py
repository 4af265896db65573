"""Command-line interface: the ReSim toolflow without writing Python.

Subcommands mirror how the paper's system is used:

* ``trace``    — generate a tagged trace (synthetic benchmark or
  assembled kernel), streaming it straight into a segmented trace
  file; ``trace info FILE`` inspects a stored trace (header, format
  version, metadata, segment table) without decoding its payload;
* ``simulate`` — run one design point over a trace file (streamed a
  segment at a time; see ``--progress``) or a generated workload and
  print statistics + FPGA-projected MIPS, or a region-sampled estimate
  (``--sample-regions``);
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
  hill-climb) through the same backends, checkpoints, and sharding;
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

``simulate``, ``sweep`` and ``search`` turn their argv into the request
document ``client submit`` would send and run it as ``serve`` does
(:mod:`repro.exec.point`, :mod:`repro.sweep.campaign`).  Entry point:
``python -m repro.cli <subcommand>`` or the installed ``resim`` script.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Only what building the parser needs, and the two devices `simulate`
# projects onto (the benchmark harness reads them from here): each
# command imports the rest itself, so no command loads the simulator
# parts it never runs.
from repro.exec.lease import DEFAULT_LEASE_SECONDS
from repro.fpga.device import VIRTEX4_LX40, VIRTEX5_LX50T
from repro.sweep.fields import CAMPAIGN_FIELDS, FIELDS, SAMPLING_FIELDS
from repro.sweep.result import SORT_KEYS, sort_key


def _config(name: str):
    from repro.session.simulation import CONFIGS
    from repro.utils.registry import RegistryError
    try:
        return CONFIGS.get(name)
    except RegistryError as error:
        raise SystemExit(str(error)) from error


def _device(name: str):
    from repro.fpga.device import DEVICES
    from repro.utils.registry import RegistryError
    try:
        return DEVICES.get(name)
    except RegistryError as error:
        raise SystemExit(str(error)) from error


def _simulation(args):
    """The run ``simulate`` and ``spec hash`` name: ``--trace-file``,
    else the workload."""
    from repro.session.simulation import Simulation
    config = _config(args.config)
    if args.trace_file:
        return Simulation.for_trace_file(args.trace_file, config=config)
    return Simulation.for_workload(
        args.workload, config, budget=args.budget, seed=args.seed)


def cmd_trace(args) -> int:
    if args.workload == "info":
        return cmd_trace_info(args)
    if args.workload == "analyze":
        return cmd_trace_analyze(args)
    from repro.trace.fileio import TraceFileError
    from repro.workloads.tracegen import (
        UnknownWorkloadError,
        write_workload_trace,
    )

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
    from repro.serve.canon import trace_digest
    from repro.trace.fileio import (
        TraceFileError,
        read_segment_table,
        read_trace_header,
    )

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
    from repro.trace.fileio import TraceFileError

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


def _simulate_request(args) -> dict:
    """The request document ``resim client submit`` would send for this
    ``simulate`` invocation: the run spec and the sampling fields."""
    return {"kind": "simulate",
            "spec": _simulation(args).with_engine(args.engine).to_spec(),
            **_flag_fields(args, _SAMPLING_NAMES)}


def cmd_simulate(args) -> int:
    """``resim simulate``: build the simulate request a client would
    submit, run its point in-process and print its statistics (the
    estimate note of a sampled run, or the device projections)."""
    import tempfile
    from repro.core.engine import SimulationResult
    from repro.core.minorpipe import select_pipeline
    from repro.core.observers import ProgressObserver
    from repro.exec.backends import SerialBackend
    from repro.exec.point import (
        normalize_simulate, run_point, simulate_point)
    from repro.perf.throughput import ThroughputModel
    from repro.serialize import stats_from_dict
    from repro.session.simulation import Simulation

    config = _config(args.config)
    if args.progress_records < 1:
        raise SystemExit(
            f"--progress-records must be positive, "
            f"got {args.progress_records}")
    try:
        normalized = normalize_simulate(_simulate_request(args))
    except ValueError as error:
        raise SystemExit(str(error)) from error
    # The observers stay in this process: no unit, spec or document
    # carries them.  No other point shares this run's trace segments.
    backend = SerialBackend(
        observers=(lambda: (ProgressObserver(args.progress_records),))
        if args.progress else None,
        share_segments=False)
    with tempfile.TemporaryDirectory(prefix="resim-simulate-") as work:
        try:
            base, plan = simulate_point(normalized,
                                        Path(work) / "point.json")
            if plan is not None:
                print(plan.describe(), file=sys.stderr)
            if args.trace_file and Simulation.from_spec(
                    base.spec).prepare().predictor_mismatch:
                print("warning: trace was generated with a different "
                      "predictor configuration; Tag bits may not match "
                      "this engine's predictions", file=sys.stderr)
            document = run_point(base, plan, backend)
        except (OSError, ValueError) as error:
            # An unknown workload, or a stored trace that fails to open
            # or (a TraceFileError) to stream.
            where = f"{args.trace_file}: " if args.trace_file else ""
            raise SystemExit(
                f"{where}{getattr(error, 'strerror', None) or error}"
            ) from error
    stats = stats_from_dict(document["stats"])
    print(stats.report())
    if plan is not None:
        print(f"\nregion-sampled ESTIMATE: {plan.count} region(s) stood "
              f"for {plan.total_segments} segment(s); "
              f"{100.0 * plan.coverage:.1f}% of trace records executed "
              f"(rerun without --sample-regions for exact statistics)")
        return 0
    pipeline = select_pipeline(config.width, config.memory_ports)
    print(f"\ninternal pipeline: {pipeline.name} "
          f"(major = {pipeline.minor_cycles_per_major} minor cycles)")
    result = SimulationResult(config, stats)
    for device in (VIRTEX4_LX40, VIRTEX5_LX50T):
        mips = ThroughputModel(device, pipeline).report(result).mips
        print(f"  {device.name:12s} {mips:7.2f} MIPS")
    return 0


def cmd_tables(args) -> int:
    from repro.perf.tables import render_all
    try:
        render_all(args.tables or None, args.budget)
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from error
    return 0


def cmd_area(args) -> int:
    from dataclasses import replace
    from repro.fpga.area import AreaEstimator

    config = _config(args.config)
    if args.with_caches:
        config = replace(config, perfect_memory=False)
    report = AreaEstimator(config, device_name=args.device).estimate()
    print(report.render())
    return 0


def cmd_vhdl(args) -> int:
    from repro.fpga.vhdlgen.bpgen import generate_branch_predictor_vhdl
    from repro.utils.atomic import atomic_path

    config = _config(args.config)
    sources = generate_branch_predictor_vhdl(config.predictor)
    output = Path(args.output_dir)
    output.mkdir(parents=True, exist_ok=True)
    for entity, source in sources.items():
        path = output / f"{entity}.vhd"
        with atomic_path(path) as tmp:
            tmp.write_text(source)
        print(f"wrote {path}")
    return 0


def cmd_multicore(args) -> int:
    from repro.multicore.simulator import MultiCoreSimulator, TraceChannel
    from repro.trace.fileio import TraceFileError
    from repro.workloads.profiles import SPECINT_PROFILES
    from repro.workloads.tracegen import UnknownWorkloadError

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
    """Resolve ``--backend`` (``auto``: serial for one worker, else a
    process pool).

    ``--workers`` means "pool size" for the process pool and "local
    worker processes to spawn" for the queue (0 = rely entirely on
    externally started ``resim worker`` processes).
    """
    from repro.exec.backends import ProcessPoolBackend
    from repro.exec.unit import ExecError
    from repro.sweep.runner import default_backend
    from repro.utils.registry import RegistryError
    # The queue module registers the "queue" backend: import it before
    # any lookup.
    from repro.exec.queue import BACKENDS, DirectoryQueueBackend

    if args.backend == "auto":
        if args.workers < 1:
            raise SystemExit(
                f"--workers must be >= 1 (got {args.workers}); use "
                f"--backend queue --workers 0 to rely on external "
                f"workers"
            )
        return default_backend(args.workers)
    try:
        backend_cls = BACKENDS.get(args.backend)
    except RegistryError as error:
        raise SystemExit(str(error)) from error
    try:
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
        return backend_cls()  # serial, or extension-registered
    except ExecError as error:
        raise SystemExit(str(error)) from error


def _validate_bulk_options(args) -> Path:
    """Fail on bad presentation/export options *before* simulations
    run, not after minutes of them; returns the resolved results
    dir."""
    if args.command == "sweep":
        sort_key(args.sort, SystemExit)
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


#: The region-sampling fields: ``resim simulate`` takes them as flags
#: too, and they mean there what they mean in a sweep's request.
_SAMPLING_NAMES = tuple(field.name for field in SAMPLING_FIELDS)


def _flag_fields(args, names) -> dict:
    """The campaign fields among ``names`` that this invocation's flags
    set (a sampling parameter only when given); ``--sample-regions``
    also sets ``sampling``."""
    fields = {name: getattr(args, name) for name in names
              if FIELDS[name].flag and getattr(args, name) is not None}
    if "regions" in fields:
        fields["sampling"] = "regions"
    return fields


def _campaign_request(args) -> dict:
    """The request document ``resim client submit`` would send for this
    ``sweep``/``search`` invocation: every option that changes what is
    computed, none that changes how it runs or renders."""
    return {"kind": args.command, "axes": _collect_axes(args),
            **_flag_fields(args, CAMPAIGN_FIELDS[args.command])}


def cmd_campaign(args) -> int:
    """``resim sweep`` and ``resim search``: normalize and run the
    campaign request, then print its table, notes and exports."""
    from repro.perf.tables import sweep_table
    from repro.exec.unit import ExecError
    from repro.sweep.campaign import normalize_campaign, run_campaign
    from repro.sweep.progress import ProgressPrinter
    from repro.sweep.search import SearchResult
    from repro.sweep.spec import SweepError

    request = _campaign_request(args)
    device = _device(args.device)
    results_dir = _validate_bulk_options(args)
    try:
        campaign = normalize_campaign(request)
        with _make_backend(args, results_dir) as backend:
            outcome = run_campaign(
                campaign, results_dir=args.results_dir, backend=backend,
                progress=ProgressPrinter() if args.progress else None)
    except (SweepError, ExecError) as error:
        raise SystemExit(str(error)) from error

    search = outcome if isinstance(outcome, SearchResult) else None
    result = outcome.result if search else outcome
    print(sweep_table(result, device_name=args.device,
                      sort_key=campaign["metric"] if search else args.sort,
                      limit=args.top))
    if search:
        print(f"\n{search.summary()}")
        if result.resumed_count:
            print(f"[{result.resumed_count} point(s) resumed from "
                  f"checkpoints; results in {args.results_dir}]")
    else:
        notes = [f"{len(result)} design points"]
        if args.backend != "auto":
            notes.append(f"backend {backend.name}")
        if campaign["shards"] > 1:
            notes.append(f"{campaign['shards']} shards per point")
        if "sampling" in campaign:
            regions = campaign["sampling"]["regions"]
            notes.append(f"region-sampled estimates "
                         f"({regions} regions requested)")
        if result.resumed_count:
            notes.append(f"{result.resumed_count} resumed from checkpoints")
        if result.skipped_invalid:
            notes.append(f"{result.skipped_invalid} invalid combos skipped")
        if result.skipped_duplicates:
            notes.append(f"{result.skipped_duplicates} duplicates collapsed")
        print(f"\n[{'; '.join(notes)}; results in {args.results_dir}]")
    _export_bulk_result(args, result, device)
    return 0


def cmd_worker(args) -> int:
    from repro.exec.worker import run_from_args
    return run_from_args(args)


def cmd_stats(args) -> int:
    """``resim stats merge A.json B.json ...`` — the slice reducer,
    standalone: merge per-shard (exact) or per-region (weighted
    estimate) result documents into one statistics document."""
    import json as _json
    from repro.exec.slice import kind_of, merge_slice_documents
    from repro.exec.unit import ExecError
    from repro.serialize import stats_from_dict
    from repro.utils.atomic import atomic_path

    documents = [_read_json_document(name) for name in args.files]
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
        with atomic_path(args.output) as tmp:
            tmp.write_text(_json.dumps(merged, indent=2, sort_keys=True))
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
    from repro.serve.app import CampaignService, ServiceError
    from repro.serve.http import BackgroundServer

    if args.concurrency < 1:
        raise SystemExit(f"--concurrency must be >= 1, "
                         f"got {args.concurrency}")
    if not 0 <= args.port <= 65535:
        raise SystemExit(f"--port must be in 0-65535, got {args.port}")
    # Journaled jobs start only once the socket is bound: a busy port
    # must fail before any of them runs.
    try:
        service = CampaignService(
            args.root, concurrency=args.concurrency,
            workers=args.workers, autostart=False)
    except (ServiceError, OSError) as error:
        raise SystemExit(str(error)) from error
    try:
        server = BackgroundServer(service, host=args.host,
                                  port=args.port)
    except OSError as error:
        service.close()
        raise SystemExit(
            f"cannot serve on {args.host}:{args.port}: "
            f"{error}") from error
    service.start()
    print(f"campaign service listening on "
          f"http://{args.host}:{server.address[1]} "
          f"(root {Path(args.root).resolve()})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def cmd_client(args) -> int:
    """``resim client``: drive a running campaign service."""
    import json as _json
    from repro.serve.client import ClientError, ServiceClient

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
    """``resim spec hash``: print a simulation spec's campaign cache
    key (:func:`repro.serve.canon.cache_key`, over the trace's content
    digest for a trace-file spec) — the key a served simulate job of
    the same spec reports, so two invocations agree iff the service
    would treat the specs as the same computation."""
    from repro.serve.canon import (
        CanonError, cache_key, canonical_spec, trace_digest)
    from repro.session.simulation import SessionError

    if args.length < 4 or args.length > 64:
        raise SystemExit(f"--length must be in 4..64, "
                         f"got {args.length}")
    try:
        spec = _read_json_document(args.file) if args.file \
            else _simulation(args).to_spec()
        path = canonical_spec(spec)["trace_file"]
        digest = None if path is None else trace_digest(path)
        print(cache_key(spec, trace_digest=digest, length=args.length))
    except (CanonError, SessionError) as error:
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




class _CheckedField(argparse.Action):
    """Store a field flag's value once its row's check accepts it; a
    refused value exits 1 naming the field, as a refused request field
    does."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest,
                FIELDS[self.dest].check(values, SystemExit))


def _add_field_flags(parser, names) -> None:
    """Add the flag of each campaign field in ``names`` that has one,
    as its :data:`~repro.sweep.fields.FIELDS` row declares it (the
    run-spec fields' rows are the spec rows).  A region-sampling
    parameter defaults to ``None``: not given."""
    for name in names:
        field = FIELDS[name]
        if field.flag is None:
            continue
        default = None if field.record_key else field.default
        notes = [f"one of {', '.join(field.choices)}"] if field.choices \
            else []
        notes += [] if default is None else [f"default {default}"]
        text = f"{field.help} [{'; '.join(notes)}]" if notes else field.help
        if field.flag.startswith("--"):
            parser.add_argument(field.flag, dest=name, type=field.type,
                                default=default, metavar=field.metavar,
                                action=_CheckedField, help=text)
        else:
            parser.add_argument(name, nargs="?", default=default,
                                metavar=field.flag, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resim", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        """--config/--budget/--seed, as the campaign fields."""
        _add_field_flags(p, ("config", "budget", "seed"))

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
    _add_field_flags(trace, ("segment_records",))
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
    simulate.add_argument("--trace-file", default=None,
                          help="simulate a stored trace instead")
    simulate.add_argument("--progress", action="store_true",
                          help="print periodic progress lines to stderr")
    simulate.add_argument("--progress-records", type=int,
                          default=100_000,
                          help="records between progress lines")
    _add_field_flags(simulate, ("workload", "engine", *_SAMPLING_NAMES))
    simulate.set_defaults(func=cmd_simulate)

    tables = sub.add_parser("tables", help="regenerate paper tables")
    tables.add_argument("tables", nargs="*", metavar="TABLE")
    _add_field_flags(tables, ("budget",))
    tables.set_defaults(func=cmd_tables)

    area = sub.add_parser("area", help="Table 4 area breakdown")
    _add_field_flags(area, ("config",))
    area.add_argument("--device", default="xc4vlx40")
    area.add_argument("--with-caches", action="store_true",
                      help="include cache tag structures")
    area.set_defaults(func=cmd_area)

    vhdl = sub.add_parser("vhdl", help="emit branch-predictor VHDL")
    _add_field_flags(vhdl, ("config",))
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
        p.add_argument("--queue-lease", type=float,
                       default=DEFAULT_LEASE_SECONDS,
                       help="seconds of silence before a claimed "
                            "unit is presumed orphaned and retried")
        p.add_argument("--queue-timeout", type=float, default=None,
                       help="abort if no unit completes for this "
                            "many seconds (default: wait forever)")
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
    _add_field_flags(sweep, CAMPAIGN_FIELDS["sweep"])
    add_axes(sweep, "sweep")
    add_bulk(sweep, "sweep-results")
    sweep.add_argument("--sort", default="ipc",
                       help=f"table sort key ({', '.join(SORT_KEYS)})")
    sweep.set_defaults(func=cmd_campaign)

    search = sub.add_parser(
        "search",
        help="adaptive design-space search (grid/random/hillclimb)")
    _add_field_flags(search, CAMPAIGN_FIELDS["search"])
    add_axes(search, "search")
    add_bulk(search, "search-results")
    search.set_defaults(func=cmd_campaign)

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

    # Defaults below mirror repro.serve.http.DEFAULT_HOST/DEFAULT_PORT;
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
    spec.add_argument("--workload", default=FIELDS["workload"].default,
                      help="hash a workload simulation spec "
                           "(ignored with --file/--trace-file)")
    add_common(spec)
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
