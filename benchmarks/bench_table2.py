"""Bench: regenerate Table 2 — architectural simulator performance.

Published rows (PTLsim 0.27, sim-outorder 0.30, GEMS 0.07, FAST
1.2/2.79, A-Ports 4.7 MIPS) plus the two measured ReSim rows, and the
derived speedup claims (6.57x over FAST, ~5x over A-Ports).

Additionally measures what the paper could not: the *host* throughput
of this Python reproduction's own software baseline (the sim-outorder
analogue), timed by pytest-benchmark.
"""

import pytest

from repro.baseline import OutOrderBaseline
from repro.core import PAPER_4WIDE_PERFECT
from repro.perf.comparison import (
    comparison_table,
    render_table,
    speedup_over,
)
from repro.perf.harness import average_mips
from repro.workloads import SyntheticWorkload, get_profile


def test_table2_comparison(benchmark, suite_2wide, suite_4wide,
                           shape_checks):
    resim_rows = {
        "ReSim (PISA, 2-wide, perfect BP, Virtex5)":
            average_mips(suite_2wide, "xc5vlx50t"),
        "ReSim (PISA, 4-wide, 2-lev BP, Virtex5)":
            average_mips(suite_4wide, "xc5vlx50t"),
    }
    print("\n" + render_table(comparison_table(resim_rows)))

    v4_2wide = average_mips(suite_2wide, "xc4vlx40")
    fast_speedup = speedup_over(v4_2wide, "FAST (perfect BP)")
    aports_speedup = speedup_over(
        average_mips(suite_4wide, "xc5vlx50t"), "A-Ports"
    )
    print(f"\nReSim/FAST  speedup: {fast_speedup:5.2f}x (paper: 6.57x)")
    print(f"ReSim/A-Ports speedup: {aports_speedup:5.2f}x (paper: ~5x)")

    # Host-side throughput of the Python software baseline, for local
    # context next to the published 0.30 MIPS sim-outorder number.
    generation = SyntheticWorkload(get_profile("gzip"),
                                   seed=7).generate(10_000)

    def run_baseline():
        return OutOrderBaseline(PAPER_4WIDE_PERFECT).run(generation.records)

    result = benchmark(run_baseline)
    if benchmark.stats is not None:  # None under --benchmark-disable
        host_mips = result.instructions / benchmark.stats.stats.mean / 1e6
        print(f"Python baseline host speed: {host_mips:.3f} MIPS "
              f"(published sim-outorder on 2.4 GHz Xeon: 0.30 MIPS)")

    if shape_checks:
        assert fast_speedup > 5.0
        assert aports_speedup > 4.0
    for label, mips in resim_rows.items():
        assert mips > 10.0, label
