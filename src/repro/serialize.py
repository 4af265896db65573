"""JSON-safe serialization of configs and statistics.

One run of the simulator is described by a
:class:`~repro.core.config.ProcessorConfig` and measured by a
:class:`~repro.core.stats.SimulationStatistics`; several subsystems
need both in a lossless, human-inspectable dict form:

* the sweep subsystem moves configs across process boundaries and
  persists statistics into checkpoint files
  (:mod:`repro.sweep.runner`);
* the session facade serializes run specs and results
  (:mod:`repro.session`);
* both name checkpoint/trace files with :func:`config_key` /
  :func:`canonical_digest`, so two runs of the same experiment (even
  on different machines) agree on which file belongs to which design
  point.

Everything here round-trips exactly:

>>> from repro.core.config import PAPER_4WIDE_PERFECT
>>> round_tripped = config_from_dict(config_to_dict(PAPER_4WIDE_PERFECT))
>>> round_tripped == PAPER_4WIDE_PERFECT
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from repro.bpred.unit import PredictorConfig
from repro.cache.cache import CacheConfig
from repro.core.config import ProcessorConfig
from repro.core.stats import Counter64, OccupancySampler, SimulationStatistics


def plain_fields(value: object) -> dict:
    """``dataclasses.asdict`` of a config without its deep copy: the
    same keys in the same order, nested dataclasses flattened in turn
    and every other field value (configs hold immutable scalars) kept
    as it is."""
    flat = {}
    for field in fields(value):
        item = getattr(value, field.name)
        flat[field.name] = (plain_fields(item)
                            if hasattr(item, "__dataclass_fields__") else item)
    return flat


def config_to_dict(config: ProcessorConfig) -> dict:
    """Flatten a processor config (and its nested predictor/cache
    configs) into JSON-serializable primitives."""
    return plain_fields(config)


def config_from_dict(data: dict) -> ProcessorConfig:
    """Inverse of :func:`config_to_dict`."""
    data = dict(data)
    data["predictor"] = PredictorConfig(**data["predictor"])
    data["icache"] = CacheConfig(**data["icache"])
    data["dcache"] = CacheConfig(**data["dcache"])
    return ProcessorConfig(**data)


def canonical_json(data: dict) -> str:
    """The canonical JSON form of a document: sorted keys, no
    insertion-order leakage.  Every byte-compared or hashed document
    in the repo (digests, cache keys, queue descriptors) goes through
    this one serialization so two hosts always agree on the bytes."""
    return json.dumps(data, sort_keys=True)


def canonical_digest(data: dict, length: int = 16) -> str:
    """Truncated SHA-256 over a dict's canonical JSON form: stable
    across processes and interpreter restarts (unlike ``hash()``),
    and short enough to be a filename stem.  Every identifier derived
    from a config shares this one canonicalization."""
    canonical = canonical_json(data)
    return hashlib.sha256(canonical.encode()).hexdigest()[:length]


def config_key(config: ProcessorConfig) -> str:
    """Short stable identifier of one design point."""
    return canonical_digest(config_to_dict(config))


def stats_to_dict(stats: SimulationStatistics) -> dict:
    """Flatten simulation statistics into JSON primitives.

    Merged (sharded) statistics round-trip too: the
    :attr:`~repro.core.stats.SimulationStatistics.shards` provenance
    field is already a JSON-safe list of dicts (or ``None``) and is
    carried verbatim.
    """
    out: dict = {}
    for spec in fields(stats):
        value = getattr(stats, spec.name)
        if isinstance(value, Counter64):
            out[spec.name] = int(value)
        elif isinstance(value, OccupancySampler):
            out[spec.name] = {"total": value.total,
                              "samples": value.samples,
                              "peak": value.peak}
        else:
            # Plain JSON-safe field (the shards provenance list).
            out[spec.name] = value
    return out


def stats_from_dict(data: dict) -> SimulationStatistics:
    """Inverse of :func:`stats_to_dict`.

    Unknown keys are ignored so a checkpoint written by a newer
    version (extra counters) still loads; missing keys keep their
    zero defaults.
    """
    stats = SimulationStatistics()
    for spec in fields(stats):
        if spec.name not in data:
            continue
        value = data[spec.name]
        current = getattr(stats, spec.name)
        if isinstance(current, Counter64):
            setattr(stats, spec.name, Counter64(int(value)))
        elif isinstance(current, OccupancySampler):
            setattr(stats, spec.name, OccupancySampler(**value))
        else:
            # Plain JSON-safe field (the shards provenance list).
            setattr(stats, spec.name, value)
    return stats
