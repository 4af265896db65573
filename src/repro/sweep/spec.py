"""Design-space sweep specification.

A :class:`SweepSpec` is a base :class:`ProcessorConfig` plus a mapping
of *axes* — config field names to the list of values to try.  It
expands the cross product into concrete design points, with the three
chores every hand-rolled sweep loop gets wrong eventually:

* **validation** — unknown axis names and empty/scalar value lists are
  rejected up front (:class:`SweepError`), instead of exploding deep
  inside ``dataclasses.replace``;
* **constraint filtering** — combinations that violate the processor's
  own invariants (e.g. a reorder buffer smaller than the machine
  width) are skipped and counted, not fatal;
* **deduplication** — combinations that produce an identical
  :class:`ProcessorConfig` (a value repeated by a script bug, or axes
  whose overrides coincide) collapse to one design point, so no
  configuration is simulated twice.  Equality is config-level: two
  *distinct* configs whose difference happens not to affect the
  simulated machine (e.g. bimodal predictors differing only in
  ``l2_size``) are still separate points.

Convenience coercions keep specs terse: the ``predictor`` axis accepts
scheme-name strings or kwargs dicts next to full
:class:`PredictorConfig` objects, and the ``icache``/``dcache`` axes
accept kwargs dicts next to :class:`CacheConfig` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import product
from collections.abc import Iterable, Mapping, Sequence

from repro.bpred.unit import PREDICTORS, PredictorConfig
from repro.cache.cache import CacheConfig
from repro.core.config import PAPER_4WIDE_PERFECT, ProcessorConfig
from repro.serialize import canonical_digest, config_to_dict

_CONFIG_FIELDS = frozenset(spec.name for spec in fields(ProcessorConfig))


class SweepError(ValueError):
    """Raised on malformed sweep specifications."""


@dataclass(frozen=True)
class SweepPoint:
    """One expanded design point.

    ``params`` records the axis values that produced the point (in
    axis declaration order) so result tables can show the swept
    coordinates instead of a full config dump.
    """

    config: ProcessorConfig
    params: tuple[tuple[str, object], ...]

    @cached_property
    def config_dict(self) -> dict:
        """The config as :func:`repro.serialize.config_to_dict` gives
        it, flattened once per point: the key hashes it and the
        point's work unit carries it.  Treat it as read-only."""
        return config_to_dict(self.config)

    @cached_property
    def key(self) -> str:
        """Stable checkpoint/filename identifier (the
        :func:`repro.serialize.config_key` of the config), hashed once
        per point."""
        return canonical_digest(self.config_dict)

    @property
    def label(self) -> str:
        """Compact human-readable coordinates, e.g.
        ``rob=32 width=4 predictor=gshare``."""
        return format_params(self.params)


def format_params(params: tuple[tuple[str, object], ...]) -> str:
    """One-line rendering of swept coordinates (shared by
    :class:`SweepPoint` and :class:`~repro.sweep.result.SweepOutcome`)."""
    return " ".join(f"{name}={value_label(value)}"
                    for name, value in params)


def value_label(value: object) -> str:
    if isinstance(value, PredictorConfig):
        return value.scheme
    if isinstance(value, CacheConfig):
        return f"{value.size_bytes // 1024}KB/{value.assoc}w"
    return str(value)


def _coerce(name: str, value: object) -> object:
    """Per-axis convenience coercions (see module docstring).

    Invalid values — an unknown predictor scheme, malformed cache
    geometry, a kwargs typo — surface as :class:`SweepError` here, at
    expansion time, not as a raw ``ValueError``/``TypeError`` minutes
    into a simulation.
    """
    if name == "predictor":
        if isinstance(value, str):
            value = PredictorConfig(scheme=value)
        elif isinstance(value, Mapping):
            try:
                value = PredictorConfig(**value)
            except TypeError as error:
                raise SweepError(
                    f"bad predictor axis value: {error}") from None
        elif not isinstance(value, PredictorConfig):
            raise SweepError(
                f"predictor axis values must be scheme strings, kwargs "
                f"dicts, or PredictorConfig, got {value!r}"
            )
        if value.scheme not in PREDICTORS:
            # Registry membership, not the import-time tuple snapshot:
            # schemes registered after import are valid axis values.
            raise SweepError(
                f"unknown predictor scheme {value.scheme!r}; choose "
                f"from {', '.join(PREDICTORS)}"
            )
        return value
    if name in ("icache", "dcache"):
        if isinstance(value, Mapping):
            try:
                return CacheConfig(
                    name="il1" if name == "icache" else "dl1", **value)
            except (TypeError, ValueError) as error:
                raise SweepError(
                    f"bad {name} axis value: {error}") from None
        if not isinstance(value, CacheConfig):
            raise SweepError(
                f"{name} axis values must be kwargs dicts or "
                f"CacheConfig, got {value!r}"
            )
        return value
    return value


@dataclass(frozen=True)
class Expansion:
    """Outcome of expanding a spec: the points plus what was dropped."""

    points: tuple[SweepPoint, ...]
    skipped_invalid: int
    skipped_duplicates: int

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid over :class:`ProcessorConfig`.

    >>> spec = SweepSpec(axes={"rob_entries": (8, 16),
    ...                        "predictor": ("twolevel", "bimodal")})
    >>> [p.label for p in spec.expand()][:2]
    ['rob_entries=8 predictor=twolevel', 'rob_entries=8 predictor=bimodal']
    """

    axes: Mapping[str, Sequence[object]]
    base: ProcessorConfig = PAPER_4WIDE_PERFECT

    def __post_init__(self) -> None:
        if not self.axes:
            raise SweepError("a sweep needs at least one axis")
        # Materialize every axis exactly once: validation must not
        # consume one-shot iterables (generators) that expand() would
        # then find exhausted.
        normalized: dict[str, tuple[object, ...]] = {}
        for name, values in self.axes.items():
            if name not in _CONFIG_FIELDS:
                valid = ", ".join(sorted(_CONFIG_FIELDS))
                raise SweepError(
                    f"unknown sweep axis {name!r}; valid axes: {valid}"
                )
            if isinstance(values, (str, bytes)) or not isinstance(
                    values, Iterable):
                raise SweepError(
                    f"axis {name!r} needs a sequence of values, got "
                    f"{values!r}"
                )
            materialized = tuple(values)
            if not materialized:
                raise SweepError(f"axis {name!r} has no values")
            normalized[name] = materialized
        object.__setattr__(self, "axes", normalized)

    @property
    def grid_size(self) -> int:
        """Size of the raw cross product (before filtering/dedup)."""
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def coerced_axes(self) -> dict[str, tuple[object, ...]]:
        """Axis values with the per-axis convenience coercions applied
        (scheme strings to :class:`PredictorConfig` and so on) — the
        form adaptive search strategies index into."""
        return {name: tuple(_coerce(name, value) for value in values)
                for name, values in self.axes.items()}

    def make_point(self, values: Mapping[str, object]) -> SweepPoint:
        """One design point from explicit per-axis values.

        The point-by-point counterpart of :meth:`expand`, used by the
        search strategies (:mod:`repro.sweep.search`): ``values`` must
        cover every axis of the spec; coercions and validation match
        expansion exactly, so a point made here is indistinguishable
        from the same coordinates found in the full grid.  Raises
        :class:`SweepError` for missing axes, mistyped values, and
        combinations the processor's invariants reject.
        """
        missing = set(self.axes) - set(values)
        if missing:
            raise SweepError(
                f"make_point needs a value for every axis; missing "
                f"{', '.join(sorted(missing))}"
            )
        extra = set(values) - set(self.axes)
        if extra:
            raise SweepError(
                f"make_point got values for axes not in this spec: "
                f"{', '.join(sorted(extra))}"
            )
        overrides = {name: _coerce(name, values[name])
                     for name in self.axes}
        try:
            config = replace(self.base, **overrides)
        except ValueError as error:
            raise SweepError(
                f"design point {overrides!r} violates processor "
                f"constraints: {error}"
            ) from None
        except TypeError as error:
            raise SweepError(
                f"bad axis value in {overrides!r}: {error}"
            ) from None
        return SweepPoint(
            config=config,
            params=tuple((name, overrides[name]) for name in self.axes))

    def expand(self) -> Expansion:
        """Expand the grid into validated, deduplicated design points.

        Points appear in cross-product order (last axis varies
        fastest), which keeps result tables grouped the way the spec
        reads.
        """
        names = list(self.axes)
        value_lists = [
            [_coerce(name, value) for value in self.axes[name]]
            for name in names
        ]
        points: list[SweepPoint] = []
        seen: set[ProcessorConfig] = set()
        skipped_invalid = 0
        skipped_duplicates = 0
        for combo in product(*value_lists):
            overrides = dict(zip(names, combo, strict=True))
            try:
                config = replace(self.base, **overrides)
            except ValueError:
                skipped_invalid += 1
                continue
            except TypeError as error:
                # A mistyped value (e.g. "8" for rob_entries) is a
                # spec bug, not a constraint violation — fail loudly.
                raise SweepError(
                    f"bad axis value in {overrides!r}: {error}"
                ) from None
            if config in seen:
                skipped_duplicates += 1
                continue
            seen.add(config)
            points.append(SweepPoint(config=config,
                                     params=tuple(zip(names, combo, strict=True))))
        if not points:
            raise SweepError(
                "sweep expansion produced no valid design points "
                f"({skipped_invalid} violated processor constraints)"
            )
        return Expansion(points=tuple(points),
                         skipped_invalid=skipped_invalid,
                         skipped_duplicates=skipped_duplicates)
