"""Smoke tests: every bundled example must run end to end.

Examples are the public face of the library; these tests run each one
as a subprocess (tiny budgets) and check for the landmarks a user
should see.  Failures here usually mean an API drift that unit tests
missed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=300,
    )
    if result.returncode != 0:
        pytest.fail(f"{name} {' '.join(args)} exited with "
                    f"{result.returncode}\n--- stdout ---\n{result.stdout}"
                    f"\n--- stderr ---\n{result.stderr}", pytrace=False)
    return result.stdout


def test_quickstart():
    output = run_example("quickstart.py")
    assert "=== functional run ===" in output
    assert "2870" in output          # sum of squares 1..20
    assert "MIPS simulation throughput" in output


def test_pipeline_diagrams():
    output = run_example("pipeline_diagrams.py")
    assert "Figure 2" in output
    assert "Figure 4" in output
    assert "optimized vs simple speedup" in output
    assert "1.57" in output          # (2N+3)/(N+3) at N=4


def test_reproduce_tables_small_budget():
    output = run_example("reproduce_tables.py", "table4",
                         "--budget", "1000")
    assert "Area breakdown" in output
    assert "paper totals" in output


def test_reproduce_tables_selects_subset():
    output = run_example("reproduce_tables.py", "table2",
                         "--budget", "2000")
    assert "PTLsim" in output
    assert "ReSim" in output


def test_design_space():
    output = run_example("design_space.py", "--budget", "1500")
    assert "predictor sweep" in output
    assert "reorder-buffer sweep" in output
    assert "width sweep" in output


def test_design_space_writes_vhdl(tmp_path):
    run_example("design_space.py", "--budget", "1000",
                "--vhdl-dir", str(tmp_path))
    assert (tmp_path / "branch_predictor_unit.vhd").exists()


def test_kernel_trace_study():
    output = run_example("kernel_trace_study.py")
    assert "vecsum" in output
    assert "2016" in output          # golden vecsum output
    assert "fibonacci" in output


def test_sweep_quickstart(tmp_path):
    results_dir = tmp_path / "sweep"
    output = run_example("sweep_quickstart.py", "--budget", "1500",
                         "--workers", "2",
                         "--results-dir", str(results_dir))
    assert "sweeping 16 design points" in output
    assert "vs. published simulators" in output
    assert (results_dir / "sweep.csv").exists()
    # Second run resumes entirely from checkpoints.
    output = run_example("sweep_quickstart.py", "--budget", "1500",
                         "--workers", "2",
                         "--results-dir", str(results_dir))
    assert "resumed 16/16 points" in output


def test_multicore_scaling():
    output = run_example("multicore_scaling.py", "--budget", "2000")
    assert "Gigabit Ethernet" in output
    assert "saturated" in output
    assert "HyperTransport" in output


def test_cli_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "simulate", "gzip",
         "--budget", "1500"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "MIPS" in result.stdout


def test_adaptive_search():
    output = run_example("adaptive_search.py", "--budget", "1500")
    assert "== hill-climb ==" in output
    assert "trajectory:" in output
    assert "== full grid (ground truth) ==" in output
    assert "from optimal" in output


def test_sharded_sweep():
    output = run_example("sharded_sweep.py", "--budget", "1500",
                         "--shards", "2", "--workers", "2")
    assert "== monolithic reference" in output
    assert "2 points x 2 shards" in output
    assert "exact-sum counters verified" in output
    assert "identical" in output
