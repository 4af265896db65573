"""One campaign request: the validator and the runner behind both
``resim sweep``/``resim search`` and ``resim serve``.

A campaign simulates one workload's shared trace across a parameter
grid, exhaustively (``sweep``) or adaptively (``search``).  It is one
JSON request document, e.g. ``{"kind": "sweep", "workload": "gzip",
"axes": {"rob_entries": [8, 16]}}``.  Its fields are declared once, in
the :class:`~repro.sweep.fields.CampaignField` table
:data:`~repro.sweep.fields.FIELDS`; the validator, the CLI flags and
the runner call are read from it.  The CLI turns its argv into that
document; ``resim client submit`` sends it to the service.  Both then
call :func:`normalize_campaign` (validate, fill in defaults) and
:func:`run_campaign` (execute through the caller's backend and
progress sink).  How points execute and how results render stay with
the caller and are never request fields.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path

from repro.exec.backends import ExecutionBackend
from repro.serialize import config_from_dict, config_to_dict
from repro.session.simulation import CONFIGS
from repro.sweep.fields import (
    CAMPAIGN_FIELDS,
    FIELDS,
    SAMPLING_FIELDS,
    normalize_sampling,
)
from repro.sweep.progress import SweepProgress
from repro.sweep.result import SweepResult
from repro.sweep.runner import SweepRunner
from repro.sweep.search import SEARCHES, SearchResult, make_strategy
from repro.sweep.spec import SweepError, SweepSpec
from repro.utils.registry import RegistryError
from repro.workloads.tracegen import UnknownWorkloadError, is_known_workload

#: Fields with their own normalization below: they need a registry or
#: a structure, or (``kind``) are checked first.
_SPECIAL = ("kind", "workload", "config", "axes", "sampling", "strategy")


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


def _axes(kind: str, axes: object) -> dict[str, list]:
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
    return dict(sorted((str(name), list(values))
                       for name, values in axes.items()))


def normalize_campaign(request: Mapping) -> dict:
    """The validated, default-filled form of a ``sweep``/``search``
    request document; raises :class:`SweepError` (a ``ValueError``)
    on any malformed field, unknown fields included.

    Axes run in name order, whatever order the request gives them in.
    """
    kind = FIELDS["kind"].check(request.get("kind"))
    unknown = sorted(set(request) - set(CAMPAIGN_FIELDS[kind]))
    if unknown:
        raise SweepError(
            f"unknown {kind} request field(s) "
            f"{', '.join(map(repr, unknown))}; accepted fields: "
            f"{', '.join(sorted(CAMPAIGN_FIELDS[kind]))}")
    axes = _axes(kind, request.get("axes"))
    base = _base_config(request.get("config", FIELDS["config"].default))
    SweepSpec(axes=axes, base=base).expand()
    workload = request.get("workload", FIELDS["workload"].default)
    if not isinstance(workload, str) or not is_known_workload(workload):
        raise SweepError(str(UnknownWorkloadError(workload)))
    normalized = {"kind": kind, "workload": workload,
                  "config": config_to_dict(base), "axes": axes}
    for name in CAMPAIGN_FIELDS[kind]:
        field = FIELDS[name]
        if name in _SPECIAL or field.record_key:
            continue
        value = field.check(request.get(name, field.default))
        if not (field.omit_default and value == field.default):
            normalized[name] = value
    # Region sampling changes what is computed (estimates, not exact
    # statistics), so a sampled and an exact campaign never coalesce.
    sampling = normalize_sampling(request, shards=normalized["shards"])
    if sampling is not None:
        normalized["sampling"] = sampling
    if kind == "search":
        strategy = request.get("strategy", FIELDS["strategy"].default)
        try:
            SEARCHES.get(strategy)
        except RegistryError as error:
            raise SweepError(str(error)) from None
        normalized["strategy"] = strategy
    return normalized


def run_campaign(normalized: Mapping, *, results_dir: str | Path,
                 backend: ExecutionBackend,
                 progress: SweepProgress | None = None
                 ) -> SweepResult | SearchResult:
    """Run one :func:`normalize_campaign` document: a
    :class:`SweepResult` for a sweep, a :class:`SearchResult` for a
    search.  Every normalized field reaches the runner or the strategy
    by name; omitted ones take the same defaults there."""
    spec = SweepSpec(axes=dict(normalized["axes"]),
                     base=config_from_dict(normalized["config"]))
    options = {name: normalized[name] for name in CAMPAIGN_FIELDS["sweep"]
               if name in normalized and name not in _SPECIAL}
    sampling = normalized.get("sampling")
    if sampling:
        options.update(sampling=sampling["mode"], **{
            field.name: sampling[field.record_key]
            for field in SAMPLING_FIELDS})
    runner = SweepRunner(spec, normalized["workload"],
                         results_dir=results_dir, backend=backend,
                         progress=progress, **options)
    if normalized["kind"] == "sweep":
        return runner.run()
    return runner.search(make_strategy(spec, **{
        name: normalized[name] for name in CAMPAIGN_FIELDS["search"]
        if FIELDS[name].kinds == ("search",)}))
