"""One design point, however it is asked for: plan, split, reuse, merge.

A point is one run spec over one trace.  It runs as one work unit or,
under a slice plan, as one unit per slice merged back into the point's
document (:mod:`repro.exec.slice`).  Sweeps batch :func:`point_units`
over many points (:class:`~repro.sweep.runner.SweepRunner`);
``resim simulate`` and a served simulate are one request document,
checked by :func:`normalize_simulate` and run by :func:`simulate_point`
+ :func:`run_point`, in-process for the CLI and through the caching
backend for the service.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path

from repro.core.specialize import DEFAULT_ENGINE
from repro.exec.backends import ExecutionBackend
from repro.exec.regions import plan_regions
from repro.exec.shard import plan_shards
from repro.exec.slice import REGION, SlicePlan, SliceReducer, slice_units
from repro.exec.unit import ExecError, WorkUnit, reusable_result
from repro.session.simulation import Simulation
from repro.sweep.fields import FIELDS, SAMPLING_FIELDS, normalize_sampling
from repro.trace.analyze import ensure_profile

#: The fields of a simulate request: the run spec, and the sampling
#: fields ``resim simulate`` takes as flags.
SIMULATE_FIELDS = ("kind", "spec", "sampling",
                   *(field.name for field in SAMPLING_FIELDS))


def choose_plan(trace_path: str | Path, *, shards: int = 1,
                sampling: Mapping | None = None) -> SlicePlan | None:
    """The one plan rule: the region plan of a normalized ``sampling``
    record (over the trace's profile), else the shard plan of
    ``shards > 1``, else ``None`` — one unit.  An exact one-slice plan
    is ``None`` too, so it runs bit-identically to the unsplit point;
    a sampled plan stays an estimate even with one region."""
    if sampling is not None:
        plan = plan_regions(trace_path, ensure_profile(trace_path),
                            regions=sampling["regions"],
                            seed=sampling["seed"],
                            warmup_segments=sampling["warmup_segments"])
    elif shards > 1:
        plan = plan_shards(trace_path, shards)
    else:
        return None
    return None if plan.exact and plan.count == 1 else plan


def point_units(base: WorkUnit, plan: SlicePlan | None,
                ) -> tuple[list[WorkUnit], SliceReducer | None]:
    """The units a point still has to run, and the reducer merging its
    slices (``None`` without a plan: ``base`` is then the one unit).
    A slice an earlier run computed is reused: the reducer holds it."""
    if plan is None:
        return [base], None
    reducer = SliceReducer(base, plan)
    pending = []
    for unit in slice_units(base, plan):
        existing = reusable_result(unit)
        if existing is None:
            pending.append(unit)
        else:
            reducer.add(existing)
    return pending, reducer


def run_point(base: WorkUnit, plan: SlicePlan | None,
              backend: ExecutionBackend) -> dict:
    """Run one point through ``backend`` to its document (the merged
    one under a plan), written at ``base``'s result path."""
    pending, reducer = point_units(base, plan)
    results = backend.run_units(pending)
    if reducer is None:
        return results[base.unit_id]
    for unit in pending:
        reducer.add(results[unit.unit_id])
    return reducer.write()


def normalize_simulate(request: Mapping) -> dict:
    """The validated form of a simulate request (a ``ValueError`` names
    what is wrong): the canonical spec, the engine tier beside it when
    not the default (tiers are bit-identical, so it keys no cache), and
    a campaign's sampling record, which needs a trace-file spec that
    leaves the segments and warmup to the plan."""
    unknown = sorted(set(request) - set(SIMULATE_FIELDS))
    if unknown:
        raise ExecError(
            f"unknown simulate request field(s) "
            f"{', '.join(map(repr, unknown))}; accepted fields: "
            f"{', '.join(sorted(SIMULATE_FIELDS))}")
    spec = request.get("spec")
    if not isinstance(spec, Mapping):
        raise ExecError("a simulate request needs a 'spec' object "
                        "(a Simulation.from_spec document)")
    normalized = {"kind": "simulate",
                  "spec": Simulation.from_spec(spec).canonical_spec()}
    engine = spec.get("engine", DEFAULT_ENGINE)
    if engine != DEFAULT_ENGINE:
        normalized["engine"] = engine
    sampling = normalize_sampling(request)
    if sampling is not None:
        if normalized["spec"]["trace_file"] is None:
            raise ExecError(
                f"{FIELDS['regions'].flag} needs --trace-file: region "
                f"sampling plans over a stored segmented trace's profile")
        if any(normalized["spec"][key] for key in REGION.slice_keys):
            raise ExecError(f"a sampled simulate sets its regions' "
                            f"{' and '.join(REGION.slice_keys)} itself")
        normalized["sampling"] = sampling
    return normalized


def simulate_point(normalized: Mapping, result_path: str | Path, *,
                   unit_id: str = "point",
                   ) -> tuple[WorkUnit, SlicePlan | None]:
    """The base unit and plan of a :func:`normalize_simulate` request."""
    spec = Simulation.from_spec({
        **normalized["spec"],
        "engine": normalized.get("engine", DEFAULT_ENGINE)}).to_spec()
    sampling = normalized.get("sampling")
    return (WorkUnit(unit_id=unit_id, spec=spec,
                     result_path=str(result_path)),
            None if sampling is None
            else choose_plan(spec["trace_file"], sampling=sampling))
