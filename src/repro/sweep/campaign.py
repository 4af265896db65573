"""One campaign request: the validator and the runner behind both
``resim sweep``/``resim search`` and ``resim serve``.

A campaign simulates one workload's shared trace across a parameter
grid, exhaustively (``sweep``) or adaptively (``search``).  It is one
JSON request document, e.g. ``{"kind": "sweep", "workload": "gzip",
"axes": {"rob_entries": [8, 16]}}``.  The CLI turns its argv into
that document; ``resim client submit`` sends it to the service.  Both
then call :func:`normalize_campaign` (validate, fill in defaults) and
:func:`run_campaign` (execute through the caller's backend and
progress sink).  How points execute and how results render stay with
the caller and are never request fields.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path

from repro.core.specialize import DEFAULT_ENGINE
from repro.exec import DEFAULT_REGIONS, DEFAULT_WARMUP_SEGMENTS, ExecutionBackend
from repro.serialize import config_from_dict, config_to_dict
from repro.session import CONFIGS, SessionError, coerce_engine
from repro.sweep.progress import SweepProgress
from repro.sweep.result import SORT_KEYS, SweepResult
from repro.sweep.runner import SweepRunner, sampling_entry
from repro.sweep.search import SEARCH_DEFAULTS, SEARCHES, SearchResult, make_strategy
from repro.sweep.spec import SweepError, SweepSpec
from repro.trace.fileio import DEFAULT_SEGMENT_RECORDS
from repro.utils.registry import RegistryError
from repro.workloads.tracegen import UnknownWorkloadError, is_known_workload

#: Request kinds :func:`normalize_campaign` accepts.
CAMPAIGN_KINDS = ("sweep", "search")

#: The fields each kind accepts; anything else is rejected by name.
CAMPAIGN_FIELDS = {
    "sweep": ("kind", "workload", "config", "axes", "budget", "seed",
              "shards", "segment_records", "engine", "sampling",
              "regions", "region_seed", "region_warmup"),
}
CAMPAIGN_FIELDS["search"] = CAMPAIGN_FIELDS["sweep"] + (
    "strategy", "metric", "samples", "search_seed", "max_steps")


def _require_int(request: Mapping, key: str, default: int,
                 minimum: int | None = None) -> int:
    value = request.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SweepError(
            f"request field {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SweepError(f"{key} must be >= {minimum}, got {value}")
    return value


def _base_config(value: object):
    if isinstance(value, str):
        try:
            return CONFIGS.get(value)
        except RegistryError as error:
            raise SweepError(str(error)) from None
    if isinstance(value, Mapping):
        try:
            return config_from_dict(dict(value))
        except (KeyError, TypeError, ValueError) as error:
            raise SweepError(f"bad config in request: {error!r}") from None
    raise SweepError(
        f"request field 'config' must be a registered config name or "
        f"a config dict, got {value!r}")


def normalize_campaign(request: Mapping) -> dict:
    """The validated, default-filled form of a ``sweep``/``search``
    request document; raises :class:`SweepError` (a ``ValueError``)
    on any malformed field, unknown fields included.

    Axes keep the request's order, which is the order design points
    expand in.
    """
    kind = request.get("kind")
    if kind not in CAMPAIGN_KINDS:
        raise SweepError(
            f"campaign kind must be one of {', '.join(CAMPAIGN_KINDS)}, "
            f"got {kind!r}")
    unknown = sorted(set(request) - set(CAMPAIGN_FIELDS[kind]))
    if unknown:
        raise SweepError(
            f"unknown {kind} request field(s) "
            f"{', '.join(map(repr, unknown))}; accepted fields: "
            f"{', '.join(sorted(CAMPAIGN_FIELDS[kind]))}")
    axes = request.get("axes")
    if not isinstance(axes, Mapping) or not axes:
        raise SweepError(
            f"a {kind} request needs a non-empty 'axes' object "
            f"(config field name -> list of values)")
    for name, values in axes.items():
        if isinstance(values, (str, bytes)) \
                or not isinstance(values, (list, tuple)):
            raise SweepError(
                f"axis {name!r} must map to a list of values, "
                f"got {values!r}")
    axes_lists = {str(name): list(values) for name, values in axes.items()}
    base = _base_config(request.get("config", "4wide-perfect"))
    SweepSpec(axes=axes_lists, base=base).expand()
    workload = request.get("workload", "gzip")
    if not isinstance(workload, str) or not is_known_workload(workload):
        raise SweepError(str(UnknownWorkloadError(workload)))
    normalized = {
        "kind": kind,
        "workload": workload,
        "config": config_to_dict(base),
        "axes": axes_lists,
        "budget": _require_int(request, "budget", 30_000, 1),
        "seed": _require_int(request, "seed", 7),
        "shards": _require_int(request, "shards", 1, 1),
    }
    # Defaults added after the first request shape are normalized by
    # omission, so older documents keep their request keys.
    segment_records = _require_int(
        request, "segment_records", DEFAULT_SEGMENT_RECORDS, 1)
    if segment_records != DEFAULT_SEGMENT_RECORDS:
        normalized["segment_records"] = segment_records
    try:
        engine = coerce_engine(request.get("engine", DEFAULT_ENGINE))
    except SessionError as error:
        raise SweepError(str(error)) from None
    if engine != DEFAULT_ENGINE:
        normalized["engine"] = engine
    # Region sampling changes what is computed (estimates, not exact
    # statistics), so its parameters are part of the document: a
    # sampled and an exact campaign never coalesce into one job.
    sampling = request.get("sampling", "full")
    if sampling != "full":
        normalized["sampling"] = sampling_entry(
            sampling, shards=normalized["shards"],
            regions=_require_int(request, "regions", DEFAULT_REGIONS),
            seed=_require_int(request, "region_seed", 0),
            warmup_segments=_require_int(
                request, "region_warmup", DEFAULT_WARMUP_SEGMENTS))
    if kind == "search":
        strategy = request.get("strategy", SEARCH_DEFAULTS["strategy"])
        try:
            SEARCHES.get(strategy)
        except RegistryError as error:
            raise SweepError(str(error)) from None
        metric = request.get("metric", SEARCH_DEFAULTS["metric"])
        if metric not in SORT_KEYS:
            raise SweepError(
                f"unknown metric {metric!r}; choose from "
                f"{', '.join(SORT_KEYS)}")
        normalized.update({
            "strategy": strategy,
            "metric": metric,
            "samples": _require_int(
                request, "samples", SEARCH_DEFAULTS["samples"], 1),
            "search_seed": _require_int(
                request, "search_seed", SEARCH_DEFAULTS["search_seed"]),
            "max_steps": _require_int(
                request, "max_steps", SEARCH_DEFAULTS["max_steps"], 0),
        })
    return normalized


def run_campaign(normalized: Mapping, *, results_dir: str | Path,
                 backend: ExecutionBackend,
                 progress: SweepProgress | None = None
                 ) -> SweepResult | SearchResult:
    """Run one :func:`normalize_campaign` document: a
    :class:`SweepResult` for a sweep, a :class:`SearchResult` for a
    search."""
    spec = SweepSpec(axes=dict(normalized["axes"]),
                     base=config_from_dict(normalized["config"]))
    sampling = normalized.get("sampling")
    options = {
        "results_dir": results_dir, "budget": normalized["budget"],
        "seed": normalized["seed"], "backend": backend,
        "progress": progress, "shards": normalized["shards"],
        "segment_records": normalized.get(
            "segment_records", DEFAULT_SEGMENT_RECORDS),
        "engine": normalized.get("engine", DEFAULT_ENGINE),
        **({} if not sampling else {
            "sampling": sampling["mode"],
            "regions": sampling["regions"],
            "region_seed": sampling["seed"],
            "region_warmup": sampling["warmup_segments"]}),
    }
    runner = SweepRunner(spec, normalized["workload"], **options)
    if normalized["kind"] == "sweep":
        return runner.run()
    return runner.search(make_strategy(
        normalized["strategy"], spec, metric=normalized["metric"],
        samples=normalized["samples"], seed=normalized["search_seed"],
        max_steps=normalized["max_steps"]))
