"""Bench: sweep throughput on one grid.

The pytest benchmarks (run via ``pytest benchmarks/``) measure the
historical question — process-pool fan-out vs. the serial loop on one
16-point grid — plus trace-generation amortization.  Backend parity
and checkpoint resume on every backend are tier-1 tests
(``tests/test_sweep.py``).

Checkpoints are disabled as a variable in the fresh-run measurements
by giving every run its own results directory.
"""

import os
import time

import pytest

from repro.sweep import SweepSpec, SweepRunner, default_backend, stats_to_dict

BUDGET = 6000
WORKERS = 4


@pytest.fixture(scope="module")
def spec():
    return SweepSpec(axes={
        "rob_entries": (8, 16, 32, 64),
        "lsq_entries": (4, 8),
        "width": (2, 4),
    })


def _run(spec, directory, workers):
    runner = SweepRunner(spec, "gzip", results_dir=directory,
                         budget=BUDGET, backend=default_backend(workers))
    start = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - start


def test_sweep_parallel_speedup(spec, tmp_path):
    """16 configs, one shared trace: pool vs. serial wall clock."""
    serial_result, serial_s = _run(spec, tmp_path / "serial", 1)
    parallel_result, parallel_s = _run(spec, tmp_path / "parallel",
                                       WORKERS)

    assert len(serial_result) == len(parallel_result) == 16
    for a, b in zip(serial_result, parallel_result, strict=True):
        assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    speedup = serial_s / parallel_s
    cores = os.cpu_count() or 1
    print(f"\nsweep of {len(serial_result)} configs, budget {BUDGET}: "
          f"serial {serial_s:.2f}s, {WORKERS} workers {parallel_s:.2f}s "
          f"-> {speedup:.2f}x on {cores} core(s)")
    # Hard-assert only a loose floor: a loaded/oversubscribed host can
    # legitimately land under the ~linear ideal, and a wall-clock
    # flake here would read as a nonexistent regression.  The printed
    # measurement is the benchmark's real output (>= 2x on an idle
    # 4-core box).
    if cores >= WORKERS:
        assert speedup >= 1.3, (
            f"expected parallel speedup at {WORKERS} workers on "
            f"{cores} cores, measured {speedup:.2f}x"
        )


def test_sweep_amortizes_trace_generation(spec, tmp_path, benchmark):
    """Trace generation happens once per sweep, not once per config:
    after `prepare_trace`, each additional design point costs only a
    simulation."""
    runner = SweepRunner(spec, "gzip", results_dir=tmp_path / "amort",
                         budget=BUDGET)
    predictor = spec.base.predictor
    trace = runner.prepare_trace(predictor)
    assert trace.path.exists()

    generated = benchmark(runner.prepare_trace, predictor)
    # Subsequent calls reuse the persisted file (same path, same PC).
    assert generated.path == trace.path
    assert generated.start_pc == trace.start_pc
