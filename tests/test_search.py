"""Tests for the adaptive search layer (:mod:`repro.sweep.search`):
strategy proposal determinism, hill-climb movement, equivalence with
grid sweeps, checkpoint resume, and metric directions."""

from dataclasses import replace

import pytest

from repro.sweep import (
    GridSearch,
    HillClimb,
    ProgressPrinter,
    RandomSearch,
    SearchError,
    SweepError,
    SweepRunner,
    SweepSpec,
    stats_to_dict,
)

BUDGET = 1200


@pytest.fixture(scope="module")
def rob_spec():
    return SweepSpec(axes={"rob_entries": (8, 16, 32, 64)})


@pytest.fixture(scope="module")
def grid_spec():
    return SweepSpec(axes={"rob_entries": (8, 16, 32, 64),
                           "lsq_entries": (4, 8, 16),
                           "width": (2, 4)})


class TestStrategyProtocol:
    def test_unknown_metric_rejected(self, rob_spec):
        with pytest.raises(SearchError, match="unknown search metric"):
            GridSearch(rob_spec, metric="goodness")

    def test_registry_lists_strategies(self):
        from repro.sweep import SEARCHES
        assert set(SEARCHES) >= {"grid", "random", "hillclimb"}

    def test_grid_proposes_whole_grid_once(self, grid_spec):
        strategy = GridSearch(grid_spec)
        first = strategy.propose()
        assert len(first) == len(grid_spec.expand())
        assert strategy.propose() == ()

    def test_random_needs_positive_samples(self, rob_spec):
        with pytest.raises(SearchError, match="samples"):
            RandomSearch(rob_spec, samples=0)

    def test_hillclimb_rejects_bad_start(self, rob_spec):
        with pytest.raises(SearchError, match="not among axis"):
            HillClimb(rob_spec, start={"rob_entries": 24})
        with pytest.raises(SearchError, match="unknown axes"):
            HillClimb(rob_spec, start={"rob_size": 8})

    def test_hillclimb_default_start_slides_past_invalid_corner(self):
        # rob=2 violates the base machine's width=4 invariant; the
        # default start must slide to the first valid site instead of
        # dead-ending (an explicit invalid start still raises).
        spec = SweepSpec(axes={"rob_entries": (2, 8, 16)})
        first = HillClimb(spec).propose()
        assert first[0].config.rob_entries == 8
        explicit = HillClimb(spec, start={"rob_entries": 2})
        with pytest.raises(SearchError, match="pick a valid start"):
            explicit.propose()


class TestRandomSearchSampling:
    def test_proposals_deterministic_under_seed(self, grid_spec):
        a = RandomSearch(grid_spec, samples=6, seed=11).propose()
        b = RandomSearch(grid_spec, samples=6, seed=11).propose()
        assert [p.key for p in a] == [p.key for p in b]
        assert len(a) == 6

    def test_different_seeds_differ(self, grid_spec):
        a = RandomSearch(grid_spec, samples=6, seed=11).propose()
        b = RandomSearch(grid_spec, samples=6, seed=12).propose()
        assert [p.key for p in a] != [p.key for p in b]

    def test_samples_are_distinct_and_valid(self, grid_spec):
        points = RandomSearch(grid_spec, samples=10,
                              seed=3).propose()
        keys = [p.key for p in points]
        assert len(set(keys)) == len(keys)
        for point in points:
            assert point.config.rob_entries >= point.config.width

    def test_small_grid_degrades_to_exhaustive(self, rob_spec):
        points = RandomSearch(rob_spec, samples=16, seed=1).propose()
        assert len(points) == 4  # whole grid, not 16 resamples

    def test_invalid_combinations_resampled(self):
        # width=8 forbids rob_entries=4; samples must dodge it.
        spec = SweepSpec(axes={"width": (2, 8) * 4,
                               "rob_entries": (4, 16) * 4})
        points = RandomSearch(spec, samples=3, seed=5).propose()
        assert points  # found valid ones
        for point in points:
            assert (point.config.width, point.config.rob_entries) \
                != (8, 4)


class TestMakePoint:
    def test_matches_expansion_points(self, grid_spec):
        expanded = {p.key: p for p in grid_spec.expand()}
        made = grid_spec.make_point({"rob_entries": 16,
                                     "lsq_entries": 8, "width": 4})
        assert made.key in expanded
        assert expanded[made.key].params == made.params

    def test_missing_and_extra_axes_rejected(self, grid_spec):
        with pytest.raises(Exception, match="missing"):
            grid_spec.make_point({"rob_entries": 16})
        with pytest.raises(Exception, match="not in this spec"):
            grid_spec.make_point({"rob_entries": 16, "lsq_entries": 8,
                                  "width": 4, "alu_count": 2})

    def test_constraint_violation_rejected(self, grid_spec):
        with pytest.raises(Exception, match="constraint"):
            grid_spec.make_point({"rob_entries": 4, "lsq_entries": 4,
                                  "width": 8})


class TestSearchRuns:
    def test_grid_search_equals_sweep(self, rob_spec, tmp_path):
        sweep = SweepRunner(rob_spec, "gzip",
                            results_dir=tmp_path / "sweep",
                            budget=BUDGET).run()
        search = SweepRunner(rob_spec, "gzip",
                             results_dir=tmp_path / "search",
                             budget=BUDGET).search(GridSearch(rob_spec))
        assert len(search) == len(sweep)
        sweep_stats = {o.key: stats_to_dict(o.stats) for o in sweep}
        for outcome in search:
            assert stats_to_dict(outcome.stats) == \
                sweep_stats[outcome.key]
        assert stats_to_dict(search.best.stats) == \
            stats_to_dict(sweep.best("ipc").stats)

    def test_hillclimb_finds_single_axis_optimum(self, rob_spec,
                                                 tmp_path):
        search = SweepRunner(rob_spec, "gzip",
                             results_dir=tmp_path / "climb",
                             budget=BUDGET).search(HillClimb(rob_spec))
        grid = SweepRunner(rob_spec, "gzip", results_dir=tmp_path / "grid",
                           budget=BUDGET).run()
        assert search.best.ipc == pytest.approx(
            grid.best("ipc").ipc)
        assert search.strategy == "hillclimb"
        trajectory = search.result.metadata["search"]["trajectory"]
        assert trajectory[0] == "rob_entries=8"
        assert len(trajectory) >= 2  # it actually moved uphill

    def test_hillclimb_deterministic(self, rob_spec, tmp_path):
        a = SweepRunner(rob_spec, "gzip", results_dir=tmp_path / "a",
                        budget=BUDGET).search(HillClimb(rob_spec))
        b = SweepRunner(rob_spec, "gzip", results_dir=tmp_path / "b",
                        budget=BUDGET).search(HillClimb(rob_spec))
        assert [o.key for o in a] == [o.key for o in b]
        assert a.best.key == b.best.key

    def test_hillclimb_max_steps_zero_scores_start_only(
            self, rob_spec, tmp_path):
        """With no moves allowed, neighbors must not be simulated —
        they could never be used."""
        search = SweepRunner(rob_spec, "gzip",
                             results_dir=tmp_path / "frozen",
                             budget=BUDGET).search(
            HillClimb(rob_spec, max_steps=0))
        assert len(search) == 1
        assert search.rounds == 1
        assert search.best.param("rob_entries") == 8  # the start

    def test_random_search_deterministic_end_to_end(self, grid_spec,
                                                    tmp_path):
        a = SweepRunner(grid_spec, "gzip", results_dir=tmp_path / "a",
                        budget=BUDGET).search(
            RandomSearch(grid_spec, samples=5, seed=9))
        b = SweepRunner(grid_spec, "gzip", results_dir=tmp_path / "b",
                        budget=BUDGET).search(
            RandomSearch(grid_spec, samples=5, seed=9))
        assert [o.key for o in a] == [o.key for o in b]
        for x, y in zip(a, b, strict=True):
            assert stats_to_dict(x.stats) == stats_to_dict(y.stats)

    def test_search_resumes_from_checkpoints(self, rob_spec,
                                             tmp_path):
        directory = tmp_path / "resume"
        first = SweepRunner(rob_spec, "gzip", results_dir=directory,
                            budget=BUDGET).search(HillClimb(rob_spec))
        assert all(not o.from_checkpoint for o in first)
        second = SweepRunner(rob_spec, "gzip", results_dir=directory,
                             budget=BUDGET).search(HillClimb(rob_spec))
        assert all(o.from_checkpoint for o in second)
        assert [o.key for o in first] == [o.key for o in second]

    def test_search_and_sweep_share_results_dir(self, rob_spec,
                                                tmp_path):
        """Checkpoints are interchangeable: a sweep after a search
        re-simulates only the points the search never visited."""
        directory = tmp_path / "shared"
        search = SweepRunner(rob_spec, "gzip", results_dir=directory,
                             budget=BUDGET).search(HillClimb(rob_spec))
        sweep = SweepRunner(rob_spec, "gzip", results_dir=directory,
                            budget=BUDGET).run()
        assert sweep.resumed_count == len(search)

    def test_cycles_metric_minimizes(self, rob_spec, tmp_path):
        search = SweepRunner(
            rob_spec, "gzip", results_dir=tmp_path / "cyc",
            budget=BUDGET).search(HillClimb(rob_spec, metric="cycles"))
        assert search.best.major_cycles == \
            min(o.major_cycles for o in search)

    def test_summary_names_strategy_and_best(self, rob_spec,
                                             tmp_path):
        search = SweepRunner(
            rob_spec, "gzip", results_dir=tmp_path / "sum",
            budget=BUDGET).search(RandomSearch(rob_spec, samples=2, seed=4))
        summary = search.summary()
        assert "random search" in summary
        assert "best ipc=" in summary
        assert search.best.label in summary

    def test_progress_events_flow_through(self, rob_spec, tmp_path,
                                          capsys):
        import io
        stream = io.StringIO()
        SweepRunner(rob_spec, "gzip", results_dir=tmp_path / "prog",
                    budget=BUDGET,
                    progress=ProgressPrinter(stream=stream)).search(
            HillClimb(rob_spec))
        text = stream.getvalue()
        assert "[search] round 1:" in text
        assert "points done" in text
        assert "complete:" in text

    def test_search_refuses_another_base_config(self, rob_spec,
                                                tmp_path):
        """The manifest and trace summary are keyed on the runner's
        base config, so a strategy over another base is refused before
        anything is written."""
        other = SweepSpec(axes=rob_spec.axes,
                          base=replace(rob_spec.base, ifq_entries=8))
        runner = SweepRunner(rob_spec, "gzip", results_dir=tmp_path / "r",
                             budget=BUDGET)
        with pytest.raises(SweepError, match="another base config"):
            runner.search(HillClimb(other))
        assert not (tmp_path / "r").exists()
