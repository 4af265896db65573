"""The campaign field table: every field of a ``sweep``/``search``
request, declared once.

The request validator (:func:`~repro.sweep.campaign.normalize_campaign`),
the CLI flags, the :class:`~repro.sweep.runner.SweepRunner` and
search-strategy keyword defaults, and the README's request-field table
(checked by a test) all read these rows.  The fields a request shares
with a run spec (``workload``, ``config``, ``budget``, ``seed``,
``engine``) take their type, default, minimum and choices from the
spec rows, :data:`~repro.session.simulation.SPEC_FIELDS`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace

from repro.exec.regions import DEFAULT_REGIONS, DEFAULT_WARMUP_SEGMENTS
from repro.session.simulation import CONFIGS, SPEC_FIELDS
from repro.sweep.result import SORT_KEYS
from repro.sweep.spec import SweepError
from repro.trace.fileio import DEFAULT_SEGMENT_RECORDS
from repro.utils.fields import Field

#: Request kinds a campaign document may have.
CAMPAIGN_KINDS = ("sweep", "search")


def _spec_field(name: str, **changes) -> Field:
    """The campaign row of a run-spec key: the spec row, with the
    campaign's flag and help."""
    return replace(SPEC_FIELDS[name], **changes)


#: Every campaign field, in request-document order.
FIELDS = {field.name: field for field in (
    Field("kind", str, None, choices=CAMPAIGN_KINDS),
    # A spec names exactly one source; a campaign defaults to gzip.
    _spec_field("workload", default="gzip", flag="WORKLOAD",
                help="benchmark profile or kernel name"),
    _spec_field("config", flag="--config",
                help=f"processor config ({', '.join(CONFIGS)})"),
    Field("axes", dict, None),
    _spec_field("budget", flag="--budget",
                help="instructions per synthetic workload trace"),
    _spec_field("seed", flag="--seed",
                help="synthetic workload generator seed"),
    Field("shards", int, 1, flag="--shards", minimum=1,
          help="split every design point into N segment-range "
               "shards merged into one result (exact-sum "
               "counters identical, cycle metrics approximate)"),
    Field("segment_records", int, DEFAULT_SEGMENT_RECORDS,
          flag="--segment-records", minimum=1, omit_default=True,
          help="records per v2 segment of a generated trace "
               "(the decode and shard granularity)"),
    _spec_field("engine", flag="--engine",
                help="engine tier; the tiers are bit-identical, so "
                     "results and cache keys are shared across them"),
    Field("sampling", str, "full", choices=("full", "regions"),
          omit_default=True),
    Field("regions", int, DEFAULT_REGIONS, flag="--sample-regions",
          minimum=1, record_key="regions", metavar="N",
          help="estimate from N weighted representative regions "
               "instead of replaying every record (an "
               "approximation; not with --shards)"),
    Field("region_seed", int, 0, flag="--region-seed",
          record_key="seed",
          help="k-means seed for --sample-regions; fixed seed = "
               "identical plan"),
    Field("region_warmup", int, DEFAULT_WARMUP_SEGMENTS,
          flag="--region-warmup", minimum=0,
          record_key="warmup_segments", metavar="SEGMENTS",
          help="warmup segments replayed (uncounted) before each "
               "representative region"),
    Field("strategy", str, "hillclimb", flag="--strategy",
          kinds=("search",),
          help="search strategy (grid, random, hillclimb)"),
    Field("metric", str, "ipc", flag="--metric",
          choices=tuple(SORT_KEYS), kinds=("search",),
          help="objective to optimize"),
    Field("samples", int, 16, flag="--samples", minimum=1,
          kinds=("search",),
          help="points to sample (--strategy random)"),
    Field("search_seed", int, 1, flag="--search-seed",
          kinds=("search",),
          help="sampling seed (--strategy random); fixed seed = "
               "identical search"),
    Field("max_steps", int, 64, flag="--max-steps", minimum=0,
          kinds=("search",),
          help="move budget (--strategy hillclimb)"),
)}

#: The region-sampling parameters (the nested ``sampling`` record).
SAMPLING_FIELDS = tuple(field for field in FIELDS.values()
                        if field.record_key)

#: The fields each kind accepts; anything else is rejected by name.
CAMPAIGN_FIELDS = {kind: tuple(name for name, field in FIELDS.items()
                               if kind in (field.kinds or CAMPAIGN_KINDS))
                   for kind in CAMPAIGN_KINDS}


def sampling_entry(sampling: str, *, shards: int = 1,
                   **parameters: int) -> dict | None:
    """The validated record of a sampling mode, or ``None`` for full
    replay.  ``parameters`` are the region-sampling fields
    (:data:`SAMPLING_FIELDS`) by name; missing ones take their
    defaults.

    Sweep manifests and the campaign service's normalized requests
    both carry it, so a sampled and an exact run never share a results
    directory or coalesce into one job.  Full replay is recorded by
    omission: pre-sampling manifests and requests keep their shape, so
    old results directories stay resumable.
    """
    if sampling == "full":
        return None
    if sampling != "regions":
        raise SweepError(
            f"sampling must be 'full' or 'regions', got {sampling!r}")
    if shards > 1:
        raise SweepError(
            "shards and region sampling are mutually exclusive: "
            "sharding exists for exact merges, sampling estimates")
    return {"mode": "regions", **{
        field.record_key: field.check(
            parameters.get(field.name, field.default), SweepError)
        for field in SAMPLING_FIELDS}}


def normalize_sampling(fields: Mapping, *, shards: int = 1) -> dict | None:
    """The nested ``sampling`` record of a request's (or ``resim
    simulate``'s) sampling fields, or ``None`` for full replay.  A
    sampling parameter without ``"sampling": "regions"`` would do
    nothing, so it is an error.
    """
    sampling = fields.get("sampling", FIELDS["sampling"].default)
    given = {field.name: fields[field.name] for field in SAMPLING_FIELDS
             if field.name in fields}
    if sampling == "full" and given:
        field = FIELDS[next(iter(given))]
        raise SweepError(
            f"request field {field.name!r} ({field.flag}) applies only "
            f"with \"sampling\": \"regions\" ({FIELDS['regions'].flag})")
    return sampling_entry(sampling, shards=shards, **given)
