"""Region-sampled simulation conformance suite.

Pins the three promises of :mod:`repro.exec.regions`:

* **planning is deterministic** — a fixed ``(profile, regions, seed,
  warmup)`` tuple always yields the same plan, and the plan's weights
  partition the trace's segments exactly;
* **a sampled run is cheap and close** — on a >=64-segment trace the
  default plan executes at most 35% of the records, and its weighted
  IPC estimate lands within :data:`IPC_ERROR_BOUND` of the full
  replay (on a perfect-memory config; cache configs carry a
  documented cold-structure bias, see the README);
* **estimates never impersonate exact results** — merged documents
  carry a ``sampled`` marker, and a region unit's campaign cache key
  can never collide with the full run's key.
"""

from __future__ import annotations

import pytest

from repro.core.config import PAPER_4WIDE_PERFECT
from repro.serialize import stats_from_dict
from repro.exec import (
    ExecError,
    SlicePlan,
    SliceReducer,
    WorkUnit,
    execute_unit,
    merge_slice_documents,
    plan_regions,
    slice_units,
)
from repro.exec.regions import IPC_ERROR_BOUND
from repro.exec.slice import REGION

region_unit_id = REGION.unit_id
from repro.serve.canon import cache_key
from repro.trace import ensure_profile, trace_content_digest
from repro.workloads.tracegen import write_workload_trace

BUDGET = 12_000
SEGMENT_RECORDS = 128
CONFIG = "4wide-perfect"


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("regions") / "vpr.rtrc"
    write_workload_trace("vpr", PAPER_4WIDE_PERFECT, path,
                         budget=BUDGET, seed=11,
                         segment_records=SEGMENT_RECORDS)
    return path


@pytest.fixture(scope="module")
def profile(trace):
    return ensure_profile(trace)


@pytest.fixture(scope="module")
def plan(trace, profile):
    return plan_regions(trace, profile, regions=8, seed=0)


def _unit(trace, directory, name="point"):
    return WorkUnit.for_trace(name, trace, CONFIG,
                              directory / f"{name}.json")


@pytest.fixture(scope="module")
def full_result(trace, tmp_path_factory):
    work = tmp_path_factory.mktemp("full")
    return execute_unit(_unit(trace, work))


@pytest.fixture(scope="module")
def sampled_result(trace, plan, tmp_path_factory):
    work = tmp_path_factory.mktemp("sampled")
    reducer = SliceReducer(_unit(trace, work), plan)
    for unit in slice_units(_unit(trace, work), plan):
        reducer.add(execute_unit(unit))
    return reducer.merged()


class TestPlanning:
    def test_plan_is_deterministic(self, trace, profile, plan):
        assert plan_regions(trace, profile, regions=8, seed=0) == plan

    def test_seed_is_part_of_the_function(self, trace, profile, plan):
        reseeded = plan_regions(trace, profile, regions=8, seed=1)
        assert reseeded.seed == 1
        assert sum(r.weight for r in reseeded.slices) == \
            reseeded.total_segments

    def test_weights_partition_the_segments(self, plan):
        assert sum(r.weight for r in plan.slices) == \
            plan.total_segments
        for region in plan.slices:
            assert region.warm_lo <= region.lo < region.hi

    def test_plan_records_the_trace_identity(self, trace, plan):
        assert plan.trace_digest == trace_content_digest(trace)

    def test_invalid_parameters_rejected(self, trace, profile):
        with pytest.raises(ExecError, match="regions"):
            plan_regions(trace, profile, regions=0)
        with pytest.raises(ExecError, match="warmup"):
            plan_regions(trace, profile, warmup_segments=-1)

    def test_weights_must_partition(self, plan):
        regions = plan.slices
        broken = regions[0].__class__(
            **{**regions[0].__dict__, "weight": regions[0].weight + 1})
        with pytest.raises(ExecError, match="sum"):
            SlicePlan(trace_path=plan.trace_path,
                      trace_digest=plan.trace_digest, seed=plan.seed,
                      total_segments=plan.total_segments,
                      total_records=plan.total_records,
                      slices=(broken, *regions[1:]))


class TestRegionUnits:
    def test_units_carry_slice_warmup_and_weight(self, trace, plan,
                                                 tmp_path):
        base = _unit(trace, tmp_path)
        units = slice_units(base, plan)
        assert len(units) == plan.count
        for unit, region in zip(units, plan.slices, strict=True):
            assert unit.unit_id == region_unit_id(
                base.unit_id, region.index, plan.count)
            assert unit.spec["segments"] == [region.warm_lo, region.hi]
            if region.warmup_instructions:
                assert unit.spec["warmup_instructions"] == \
                    region.warmup_instructions
            assert unit.tags["region"]["weight"] == region.weight

    def test_restricted_base_refused(self, trace, plan, tmp_path):
        sliced = WorkUnit.for_trace("point", trace, CONFIG,
                                    tmp_path / "point.json",
                                    segments=(0, 2))
        with pytest.raises(ExecError, match="segments"):
            slice_units(sliced, plan)


class TestConformance:
    def test_trace_is_big_enough_to_mean_something(self, plan):
        assert plan.total_segments >= 64

    def test_sampled_run_executes_at_most_35_percent(self, plan):
        assert plan.coverage <= 0.35, plan.describe()

    def test_ipc_error_within_documented_bound(self, full_result,
                                               sampled_result):
        exact = stats_from_dict(full_result["stats"]).ipc
        estimate = stats_from_dict(sampled_result["stats"]).ipc
        assert exact > 0
        error = abs(estimate - exact) / exact
        assert error <= IPC_ERROR_BOUND, (
            f"sampled IPC {estimate:.4f} vs exact {exact:.4f}: "
            f"{100 * error:.2f}% > {100 * IPC_ERROR_BOUND:.0f}%")

    def test_sampled_document_is_marked_as_estimate(self,
                                                    sampled_result,
                                                    plan):
        assert sampled_result["sampled"] == {
            "regions": plan.count,
            "segments": plan.total_segments,
        }

    def test_sampled_merge_is_deterministic(self, trace, plan,
                                            sampled_result, tmp_path):
        reducer = SliceReducer(_unit(trace, tmp_path), plan)
        for unit in slice_units(_unit(trace, tmp_path), plan):
            reducer.add(execute_unit(unit))
        again = reducer.merged()
        assert again["stats"] == sampled_result["stats"]
        assert again["sampled"] == sampled_result["sampled"]


class TestCacheKeying:
    def test_region_keys_never_collide_with_the_full_run(self, trace,
                                                         plan,
                                                         tmp_path):
        digest = trace_content_digest(trace)
        base = _unit(trace, tmp_path)
        full_key = cache_key(base.spec, trace_digest=digest)
        region_keys = {
            cache_key(unit.spec, trace_digest=digest)
            for unit in slice_units(base, plan)
        }
        assert full_key not in region_keys
        assert len(region_keys) == plan.count  # pairwise distinct too


class TestMergeValidation:
    def test_incomplete_reducer_refuses_to_merge(self, trace, plan,
                                                 tmp_path):
        reducer = SliceReducer(_unit(trace, tmp_path), plan)
        assert not reducer.complete
        with pytest.raises(ExecError):
            reducer.merged()

    def test_weightless_document_refused(self, trace, plan, tmp_path):
        unit = slice_units(_unit(trace, tmp_path), plan)[0]
        payload = execute_unit(unit)
        stripped = {key: value for key, value in payload.items()
                    if key != "region"}
        with pytest.raises(ExecError, match="weight"):
            merge_slice_documents([stripped])

    def test_mixed_configurations_refused(self, trace, plan,
                                          tmp_path):
        base = _unit(trace, tmp_path)
        units = slice_units(base, plan)
        first = execute_unit(units[0])
        other_unit = WorkUnit(
            unit_id=units[1].unit_id,
            spec={**units[1].spec, "config": "2wide-cache"},
            result_path=str(tmp_path / "other.json"),
            tags=units[1].tags)
        second = execute_unit(other_unit)
        with pytest.raises(ExecError, match="configuration"):
            merge_slice_documents([first, second])

    def test_empty_merge_refused(self):
        with pytest.raises(ExecError, match="nothing"):
            merge_slice_documents([])
