"""The campaign field table: every field of a ``sweep``/``search``
request, declared once.

The request validator (:func:`~repro.sweep.campaign.normalize_campaign`),
the CLI flags, the :class:`~repro.sweep.runner.SweepRunner` and
search-strategy keyword defaults, and the README's request-field table
(checked by a test) all read these rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.core.specialize import DEFAULT_ENGINE, ENGINE_TIERS
from repro.exec.regions import DEFAULT_REGIONS, DEFAULT_WARMUP_SEGMENTS
from repro.session.simulation import CONFIGS
from repro.sweep.result import SORT_KEYS
from repro.sweep.spec import SweepError
from repro.trace.fileio import DEFAULT_SEGMENT_RECORDS

#: Request kinds a campaign document may have.
CAMPAIGN_KINDS = ("sweep", "search")


@dataclass(frozen=True)
class CampaignField:
    """One request field: its name, type, default (``None``:
    required), minimum, the kinds it applies to, and its ``resim
    sweep``/``search`` flag (a name without dashes is a positional's
    metavar) and help.

    ``record_key`` places a region-sampling parameter in the nested
    ``sampling`` record; it is accepted only with ``"sampling":
    "regions"`` and its flag defaults to ``None`` (not given).
    ``omit_default`` fields came after the first request shape: left
    out at their default, older documents keep their request keys.
    """

    name: str
    type: type
    default: Any
    help: str = ""
    flag: str | None = None
    minimum: int | None = None
    choices: tuple[str, ...] = ()
    kinds: tuple[str, ...] = CAMPAIGN_KINDS
    omit_default: bool = False
    record_key: str | None = None
    metavar: str | None = None

    def check(self, value: Any, error: type[Exception] = SweepError) -> Any:
        """``value`` if this field accepts it; else raise ``error``
        naming the field."""
        if self.type is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise error(
                    f"{self.name} must be an integer, got {value!r}")
            if self.minimum is not None and value < self.minimum:
                raise error(
                    f"{self.name} must be >= {self.minimum}, got {value}")
        elif self.choices and value not in self.choices:
            raise error(f"unknown {self.name} {value!r}; choose from "
                        f"{', '.join(self.choices)}")
        return value


#: Every campaign field, in request-document order.
FIELDS = {field.name: field for field in (
    CampaignField("kind", str, None, choices=CAMPAIGN_KINDS),
    CampaignField("workload", str, "gzip", flag="WORKLOAD",
                  help="benchmark profile or kernel name"),
    CampaignField("config", str, "4wide-perfect", flag="--config",
                  help=f"processor config ({', '.join(CONFIGS)})"),
    CampaignField("axes", dict, None),
    CampaignField("budget", int, 30_000, flag="--budget", minimum=1,
                  help="instructions per synthetic workload trace"),
    CampaignField("seed", int, 7, flag="--seed",
                  help="synthetic workload generator seed"),
    CampaignField("shards", int, 1, flag="--shards", minimum=1,
                  help="split every design point into N segment-range "
                       "shards merged into one result (exact-sum "
                       "counters identical, cycle metrics approximate)"),
    CampaignField("segment_records", int, DEFAULT_SEGMENT_RECORDS,
                  flag="--segment-records", minimum=1, omit_default=True,
                  help="records per v2 segment of a generated trace "
                       "(the decode and shard granularity)"),
    CampaignField("engine", str, DEFAULT_ENGINE, flag="--engine",
                  choices=ENGINE_TIERS, omit_default=True,
                  help="engine tier; the tiers are bit-identical, so "
                       "results and cache keys are shared across them"),
    CampaignField("sampling", str, "full", choices=("full", "regions"),
                  omit_default=True),
    CampaignField("regions", int, DEFAULT_REGIONS, flag="--sample-regions",
                  minimum=1, record_key="regions", metavar="N",
                  help="estimate from N weighted representative regions "
                       "instead of replaying every record (an "
                       "approximation; not with --shards)"),
    CampaignField("region_seed", int, 0, flag="--region-seed",
                  record_key="seed",
                  help="k-means seed for --sample-regions; fixed seed = "
                       "identical plan"),
    CampaignField("region_warmup", int, DEFAULT_WARMUP_SEGMENTS,
                  flag="--region-warmup", minimum=0,
                  record_key="warmup_segments", metavar="SEGMENTS",
                  help="warmup segments replayed (uncounted) before each "
                       "representative region"),
    CampaignField("strategy", str, "hillclimb", flag="--strategy",
                  kinds=("search",),
                  help="search strategy (grid, random, hillclimb)"),
    CampaignField("metric", str, "ipc", flag="--metric",
                  choices=tuple(SORT_KEYS), kinds=("search",),
                  help="objective to optimize"),
    CampaignField("samples", int, 16, flag="--samples", minimum=1,
                  kinds=("search",),
                  help="points to sample (--strategy random)"),
    CampaignField("search_seed", int, 1, flag="--search-seed",
                  kinds=("search",),
                  help="sampling seed (--strategy random); fixed seed = "
                       "identical search"),
    CampaignField("max_steps", int, 64, flag="--max-steps", minimum=0,
                  kinds=("search",),
                  help="move budget (--strategy hillclimb)"),
)}

#: The region-sampling parameters (the nested ``sampling`` record).
SAMPLING_FIELDS = tuple(field for field in FIELDS.values()
                        if field.record_key)

#: The fields each kind accepts; anything else is rejected by name.
CAMPAIGN_FIELDS = {kind: tuple(name for name, field in FIELDS.items()
                               if kind in field.kinds)
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
        field.record_key: field.check(parameters.get(field.name,
                                                     field.default))
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
