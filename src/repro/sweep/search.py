"""Adaptive design-space search: evaluate points, not whole grids.

A grid sweep simulates every combination; past a handful of axes that
is exponentially wasteful when the question is "which configuration is
*best*?".  This module adds the strategy layer the ROADMAP promised on
top of the sweep subsystem: a :class:`SearchStrategy` proposes batches
of design points, :meth:`SweepRunner.search
<repro.sweep.runner.SweepRunner.search>` evaluates each batch through
the **same** machinery as a grid sweep — shared per-predictor traces,
per-point checkpoints, any :class:`~repro.exec.ExecutionBackend` — and
feeds the scores back until the strategy stops proposing.

Three strategies ship, all registered in :data:`SEARCHES`:

* :class:`GridSearch` — exhaustive; a sweep expressed as a search
  (the degenerate strategy that proposes the whole grid once);
* :class:`RandomSearch` — N points sampled uniformly from the grid
  with an explicit seed (the repo's own
  :class:`~repro.utils.rng.XorShiftRNG`, so runs are bit-for-bit
  reproducible across platforms and Python versions);
* :class:`HillClimb` — greedy local search: start somewhere, evaluate
  the axis-neighbors (adjacent values in each axis's declared order),
  move to the best strict improvement, stop at a local optimum.

Strategies are deterministic by construction — proposal order is
fixed, ties break on first-proposed — so a search is exactly as
reproducible (and as resumable, via checkpoints) as a grid sweep.

Because evaluation goes through :meth:`SweepRunner.evaluate`, a
search run interoperates with everything sweeps have: results
directories can be shared between a search and a later full sweep
(points already searched resume from their checkpoints), and the
returned :class:`SearchResult` wraps an ordinary
:class:`~repro.sweep.result.SweepResult` for tables and exports.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.sweep.fields import FIELDS
from repro.sweep.result import SweepOutcome, SweepResult, sort_key
from repro.sweep.spec import SweepError, SweepPoint, SweepSpec
from repro.utils.registry import Registry
from repro.utils.rng import XorShiftRNG

#: Named search strategies (``grid``, ``random``, ``hillclimb``);
#: ``resim search --strategy`` resolves here, so new strategies
#: registered by extensions become valid flags with no CLI change.
SEARCHES: Registry[type] = Registry("search strategy")

#: Safety net: no strategy may run more proposal rounds than this
#: (a buggy strategy that never stops must not sweep forever).
MAX_ROUNDS = 1000


class SearchError(SweepError):
    """Raised on malformed search strategies or parameters."""


class SearchStrategy(ABC):
    """Proposes design points; learns from their outcomes.

    The contract :meth:`SweepRunner.search
    <repro.sweep.runner.SweepRunner.search>` drives: :meth:`propose` returns
    the next batch to evaluate (empty tuple = converged/done), then
    :meth:`observe` receives the batch's outcomes before the next
    :meth:`propose`.  A strategy never re-proposes a point it has
    already observed, and proposal order must be deterministic.
    """

    #: Registry key / display name; subclasses override.
    name = "?"

    def __init__(self, spec: SweepSpec, *,
                 metric: str = FIELDS["metric"].default) -> None:
        self.spec = spec
        self.metric = metric
        self._score, self._larger_is_better = sort_key(metric, SearchError)

    def better(self, candidate: SweepOutcome,
               incumbent: SweepOutcome | None) -> bool:
        """Strictly better under this strategy's metric."""
        if incumbent is None:
            return True
        if self._larger_is_better:
            return self._score(candidate) > self._score(incumbent)
        return self._score(candidate) < self._score(incumbent)

    def best_of(self, outcomes: Sequence[SweepOutcome]
                ) -> SweepOutcome | None:
        """Best outcome under the metric (first wins ties)."""
        best: SweepOutcome | None = None
        for outcome in outcomes:
            if self.better(outcome, best):
                best = outcome
        return best

    @abstractmethod
    def propose(self) -> tuple[SweepPoint, ...]:
        """The next batch of unevaluated points (empty = done)."""

    def observe(self, outcomes: Sequence[SweepOutcome]) -> None:
        """Feed back the outcomes of the last proposed batch."""

    def describe(self) -> str:
        return f"{type(self).__name__}(metric={self.metric!r})"

    __repr__ = describe


@SEARCHES.register("grid")
class GridSearch(SearchStrategy):
    """Exhaustive search: the whole validated grid, proposed once.

    Exists so the search CLI/API degrades gracefully to a sweep (and
    as the reference the adaptive strategies are judged against: any
    strategy's best should approach GridSearch's at a fraction of the
    evaluations).
    """

    name = "grid"

    def __init__(self, spec: SweepSpec, *,
                 metric: str = FIELDS["metric"].default) -> None:
        super().__init__(spec, metric=metric)
        self._proposed = False

    def propose(self) -> tuple[SweepPoint, ...]:
        if self._proposed:
            return ()
        self._proposed = True
        return self.spec.expand().points


@SEARCHES.register("random")
class RandomSearch(SearchStrategy):
    """Uniform random sampling of the grid, explicitly seeded.

    Samples ``samples`` *distinct, valid* design points (invalid
    combinations and config-level duplicates are resampled, exactly
    mirroring grid expansion's filtering).  Seeding uses the repo's
    own xorshift generator, so the proposed set is identical across
    platforms and interpreter versions — "random" never means
    "unreproducible" here.  When the grid is no larger than
    ``samples`` the whole grid is proposed (sampling would only
    permute it).
    """

    name = "random"

    #: Resampling budget per requested sample; on grids dominated by
    #: invalid/duplicate combinations the strategy settles for fewer
    #: points rather than looping forever.
    ATTEMPTS_PER_SAMPLE = 64

    def __init__(self, spec: SweepSpec, *,
                 samples: int = FIELDS["samples"].default,
                 seed: int = FIELDS["search_seed"].default,
                 metric: str = FIELDS["metric"].default) -> None:
        super().__init__(spec, metric=metric)
        self.samples = FIELDS["samples"].check(samples, SearchError)
        self.seed = seed
        self._proposed = False

    def propose(self) -> tuple[SweepPoint, ...]:
        if self._proposed:
            return ()
        self._proposed = True
        if self.spec.grid_size <= self.samples:
            return self.spec.expand().points
        rng = XorShiftRNG(self.seed)
        axes = self.spec.coerced_axes()
        names = list(axes)
        points: list[SweepPoint] = []
        seen: set[str] = set()
        attempts = self.samples * self.ATTEMPTS_PER_SAMPLE
        while len(points) < self.samples and attempts > 0:
            attempts -= 1
            values = {name: axes[name][rng.randint(
                0, len(axes[name]) - 1)] for name in names}
            try:
                point = self.spec.make_point(values)
            except SweepError:
                continue  # violates processor constraints; resample
            if point.key in seen:
                continue
            seen.add(point.key)
            points.append(point)
        return tuple(points)


@SEARCHES.register("hillclimb")
class HillClimb(SearchStrategy):
    """Greedy local search over the axis lattice.

    The neighborhood of a point is "one step along one axis": for
    each axis, the previous and next value in its declared order.
    Each round proposes the not-yet-scored frontier (current point
    plus neighbors); once all are scored, the climber moves to the
    best *strictly* improving neighbor (ties break on proposal order:
    axes in declaration order, previous before next) and repeats,
    stopping at a local optimum or after ``max_steps`` moves.

    ``start`` optionally places the climber (axis name → value, which
    must appear in that axis's values); by default it starts at every
    axis's first declared value.  Order each axis from cheap to
    expensive and the climb reads as "grow the machine while it keeps
    paying off".
    """

    name = "hillclimb"

    def __init__(self, spec: SweepSpec, *,
                 metric: str = FIELDS["metric"].default,
                 max_steps: int = FIELDS["max_steps"].default,
                 start: Mapping[str, object] | None = None) -> None:
        super().__init__(spec, metric=metric)
        self.max_steps = FIELDS["max_steps"].check(max_steps, SearchError)
        self._axes = spec.coerced_axes()
        self._names = list(self._axes)
        self._position = {name: 0 for name in self._names}
        self._explicit_start = bool(start)
        if start:
            unknown = set(start) - set(self._names)
            if unknown:
                raise SearchError(
                    f"start names unknown axes: "
                    f"{', '.join(sorted(unknown))}"
                )
            for name, value in start.items():
                values = self._axes[name]
                try:
                    self._position[name] = values.index(value)
                except ValueError:
                    raise SearchError(
                        f"start value {value!r} is not among axis "
                        f"{name!r} values {values!r}"
                    ) from None
        self._scores: dict[str, SweepOutcome] = {}
        self._steps = 0
        self._done = False
        #: Positions visited, as point labels (for result metadata).
        self.trajectory: list[str] = []

    def _point_at(self, position: Mapping[str, int]
                  ) -> SweepPoint | None:
        values = {name: self._axes[name][position[name]]
                  for name in self._names}
        try:
            return self.spec.make_point(values)
        except SweepError:
            return None  # invalid lattice site; not a neighbor

    def _neighbor_sites(self) -> list[tuple[dict, SweepPoint]]:
        """Valid lattice neighbors of the current position, as
        (position, point) pairs in deterministic order (axes in
        declaration order, previous value before next) — the single
        definition of the neighborhood, shared by frontier proposal
        and move selection."""
        sites: list[tuple[dict, SweepPoint]] = []
        for name in self._names:
            for delta in (-1, +1):
                index = self._position[name] + delta
                if not 0 <= index < len(self._axes[name]):
                    continue
                position = {**self._position, name: index}
                point = self._point_at(position)
                if point is not None:
                    sites.append((position, point))
        return sites

    def _first_valid_position(self) -> dict:
        """The first lattice site (cross-product index order) whose
        config the processor accepts — the fallback start when the
        all-first-values corner violates a constraint."""
        from itertools import product as _product
        for indices in _product(*(range(len(self._axes[name]))
                                  for name in self._names)):
            position = dict(zip(self._names, indices, strict=True))
            if self._point_at(position) is not None:
                return position
        raise SearchError(
            "hill-climb found no valid design point in the grid")

    def propose(self) -> tuple[SweepPoint, ...]:
        while not self._done:
            current = self._point_at(self._position)
            if current is None:
                if self._explicit_start:
                    raise SearchError(
                        "hill-climb start point violates processor "
                        "constraints; pick a valid start"
                    )
                # Default corner invalid (e.g. smallest ROB under a
                # wide base machine): slide to the first valid site
                # instead of dead-ending.
                self._position = self._first_valid_position()
                current = self._point_at(self._position)
            if not self.trajectory:
                self.trajectory.append(current.label)
            # Neighbors only matter while moves remain in the budget;
            # a climber that cannot leave its position must not spend
            # simulations scoring places it can never go.
            sites = self._neighbor_sites() \
                if self._steps < self.max_steps else []
            frontier = [current] + [point for _, point in sites]
            needed, seen_keys = [], set()
            for point in frontier:
                if point.key in self._scores or point.key in seen_keys:
                    continue
                seen_keys.add(point.key)
                needed.append(point)
            if needed:
                return tuple(needed)
            # Whole frontier scored: move or stop.
            if self._steps >= self.max_steps:
                self._done = True
                break
            best, best_position = None, None
            for position, point in sites:
                outcome = self._scores[point.key]
                if self.better(outcome, best):
                    best, best_position = outcome, position
            incumbent = self._scores[current.key]
            if best is None or not self.better(best, incumbent):
                self._done = True  # local optimum
                break
            self._position = best_position
            self._steps += 1
            self.trajectory.append(
                self._point_at(self._position).label)
        return ()

    def observe(self, outcomes: Sequence[SweepOutcome]) -> None:
        for outcome in outcomes:
            self._scores[outcome.key] = outcome

    @property
    def steps(self) -> int:
        """Moves accepted so far."""
        return self._steps


def make_strategy(spec: SweepSpec, *, strategy: str, metric: str,
                  samples: int, search_seed: int,
                  max_steps: int) -> SearchStrategy:
    """Build the strategy registered as ``strategy`` over ``spec`` from
    the search fields of a campaign request (see
    :data:`repro.sweep.fields.FIELDS`), passing each built-in the
    knobs it takes."""
    strategy_cls = SEARCHES.get(strategy)
    if strategy_cls is RandomSearch:
        return RandomSearch(spec, samples=samples, seed=search_seed,
                            metric=metric)
    if strategy_cls is HillClimb:
        return HillClimb(spec, metric=metric, max_steps=max_steps)
    return strategy_cls(spec, metric=metric)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one adaptive search.

    ``result`` is a plain :class:`~repro.sweep.result.SweepResult`
    over every point evaluated (in evaluation order) — all the
    sorting/table/export machinery applies.  ``best`` is the winner
    under the strategy's metric.
    """

    result: SweepResult
    best: SweepOutcome
    strategy: str
    metric: str
    rounds: int

    @property
    def outcomes(self) -> tuple[SweepOutcome, ...]:
        return self.result.outcomes

    def __len__(self) -> int:
        return len(self.result)

    def __iter__(self):
        return iter(self.result)

    def table(self, **kwargs) -> str:
        return self.result.table(**kwargs)

    def summary(self) -> str:
        """One line: what won, at what score, for how many sims."""
        score = sort_key(self.metric)[0](self.best)
        return (f"{self.strategy} search evaluated {len(self)} "
                f"point(s) in {self.rounds} round(s); best "
                f"{self.metric}={score:.4f} at {self.best.label}")

