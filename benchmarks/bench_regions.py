"""Bench: what region sampling actually buys.

The point of :mod:`repro.exec.regions` is trading exactness for
records *not executed*.  This bench measures that trade on one stored
trace:

* the one-off analysis cost (``analyze_trace`` streaming pass, and
  the ``.rprof`` sidecar hit that amortizes it);
* full replay vs. region-sampled replay wall clock, with the
  records-executed ratio printed next to the speedup — the two should
  track each other, since the engine's cost is per-record;
* the estimate's IPC error, asserted within the documented bound
  (perfect-memory config; the cache configs' cold-structure bias is a
  README caveat, not a bench target).
"""

import pytest

from repro.core import PAPER_4WIDE_PERFECT
from repro.exec import SliceReducer, WorkUnit, execute_unit, \
    plan_regions, slice_units
from repro.exec.regions import IPC_ERROR_BOUND
from repro.serialize import stats_from_dict
from repro.trace import analyze_trace, ensure_profile
from repro.workloads.tracegen import write_workload_trace

SEGMENT_RECORDS = 128


@pytest.fixture(scope="module")
def region_trace(tmp_path_factory, budget):
    path = tmp_path_factory.mktemp("bench-regions") / "vpr.rtrc"
    write_workload_trace("vpr", PAPER_4WIDE_PERFECT, path,
                         budget=budget, seed=11,
                         segment_records=SEGMENT_RECORDS)
    return path


def _unit(trace, directory, name="point"):
    return WorkUnit.for_trace(name, trace, "4wide-perfect",
                              directory / f"{name}.json")


def test_trace_analysis_cost(benchmark, region_trace):
    """The streaming profile pass — paid once per trace, then served
    from the ``.rprof`` sidecar."""
    profile = benchmark(analyze_trace, region_trace)
    print(f"\nprofiled {len(profile.segments)} segment(s), "
          f"{profile.total_records} record(s)")
    assert profile.total_records > 0


def test_sampled_vs_full_replay(benchmark, region_trace, tmp_path):
    """The headline trade: wall-clock speedup vs. records skipped."""
    profile = ensure_profile(region_trace)
    plan = plan_regions(region_trace, profile, regions=8, seed=0)

    full = execute_unit(_unit(region_trace, tmp_path, "full"))
    exact = stats_from_dict(full["stats"])

    def sampled_run():
        base = _unit(region_trace, tmp_path, "sampled")
        reducer = SliceReducer(base, plan)
        for unit in slice_units(base, plan):
            reducer.add(execute_unit(unit))
        return reducer.merged()

    merged = benchmark(sampled_run)
    estimate = stats_from_dict(merged["stats"])
    error = abs(estimate.ipc - exact.ipc) / exact.ipc
    print(f"\nregions: {plan.count}, coverage "
          f"{100 * plan.coverage:.1f}% of {plan.total_records} "
          f"record(s)")
    print(f"IPC exact {exact.ipc:.4f} vs sampled {estimate.ipc:.4f} "
          f"({100 * error:.2f}% error, bound "
          f"{100 * IPC_ERROR_BOUND:.0f}%)")
    assert plan.coverage < 1.0
    assert error <= IPC_ERROR_BOUND
