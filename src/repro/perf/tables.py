"""Paper-table rendering (Tables 1-4), shared by the example script
and the ``resim tables`` CLI subcommand.

Each function regenerates one table of the paper's evaluation section
at a given instruction budget and prints it next to the paper's
reported values.  The measurement code paths are the same ones the
benchmark harness asserts against; this module only formats.
"""

from __future__ import annotations

from dataclasses import replace

from repro import PAPER_2WIDE_CACHE, PAPER_4WIDE_PERFECT, VIRTEX4_LX40
from repro.fpga.area import AreaEstimator
from repro.perf.comparison import (
    FAST_AREA_BRAMS,
    FAST_AREA_SLICES,
    comparison_table,
    render_table,
    speedup_over,
)
from repro.perf.harness import DEFAULT_BUDGET, average_mips, evaluate_suite

BENCHMARKS = ("gzip", "bzip2", "parser", "vortex", "vpr")

PAPER_TABLE1_LEFT = {"gzip": (23.26, 29.07), "bzip2": (27.55, 34.44),
                     "parser": (19.94, 24.92), "vortex": (23.57, 29.46),
                     "vpr": (20.38, 25.48), "Average": (22.94, 28.67)}
PAPER_TABLE1_RIGHT = {"gzip": (20.44, 25.55), "bzip2": (18.53, 23.16),
                      "parser": (16.70, 20.88), "vortex": (16.83, 21.04),
                      "vpr": (19.16, 23.95), "Average": (18.33, 22.92)}
PAPER_TABLE3 = {"gzip": (41.74, 26.37, 137.56),
                "bzip2": (41.16, 29.43, 151.39),
                "parser": (43.66, 22.83, 124.58),
                "vortex": (47.14, 24.47, 144.20),
                "vpr": (43.52, 24.44, 132.94),
                "Average": (43.44, 25.51, 138.13)}


def table1(budget: int) -> None:
    print("== Table 1: ReSim simulation performance (MIPS) ==\n")
    for label, config, paper in (
        ("4-issue, perfect memory, 2-level BP (left)",
         PAPER_4WIDE_PERFECT, PAPER_TABLE1_LEFT),
        ("2-issue, 32KB L1, perfect BP (right)",
         PAPER_2WIDE_CACHE, PAPER_TABLE1_RIGHT),
    ):
        rows = evaluate_suite(config, budget=budget)
        print(f"--- {label} ---")
        print(f"{'SPEC':8s} {'V4 meas':>8s} {'V4 paper':>9s} "
              f"{'V5 meas':>8s} {'V5 paper':>9s}")
        for row in rows:
            paper_v4, paper_v5 = paper[row.benchmark]
            print(f"{row.benchmark:8s} {row.mips('xc4vlx40'):8.2f} "
                  f"{paper_v4:9.2f} {row.mips('xc5vlx50t'):8.2f} "
                  f"{paper_v5:9.2f}")
        v4 = average_mips(rows, "xc4vlx40")
        v5 = average_mips(rows, "xc5vlx50t")
        paper_v4, paper_v5 = paper["Average"]
        print(f"{'Average':8s} {v4:8.2f} {paper_v4:9.2f} "
              f"{v5:8.2f} {paper_v5:9.2f}\n")


def table2(budget: int) -> None:
    print("== Table 2: architectural simulator performance ==\n")
    rows_2w = evaluate_suite(PAPER_2WIDE_CACHE, budget=budget)
    rows_4w = evaluate_suite(PAPER_4WIDE_PERFECT, budget=budget)
    resim = {
        "ReSim (2-wide, perfect BP, Virtex5)":
            average_mips(rows_2w, "xc5vlx50t"),
        "ReSim (4-wide, 2-lev BP, Virtex5)":
            average_mips(rows_4w, "xc5vlx50t"),
    }
    print(render_table(comparison_table(resim)))
    v4_2w = average_mips(rows_2w, "xc4vlx40")
    print(f"\nReSim (2-wide, V4) vs FAST (perfect BP): "
          f"{speedup_over(v4_2w, 'FAST (perfect BP)'):.2f}x "
          f"(paper: 6.57x)")
    v5_4w = average_mips(rows_4w, "xc5vlx50t")
    print(f"ReSim (4-wide, V5) vs A-Ports:           "
          f"{speedup_over(v5_4w, 'A-Ports'):.2f}x (paper: ~5x)")


def table3(budget: int) -> None:
    print("== Table 3: ReSim throughput statistics "
          "(V4, perfect memory) ==\n")
    rows = evaluate_suite(PAPER_4WIDE_PERFECT, budget=budget)
    print(f"{'SPEC':8s} {'bits/i':>7s} {'(paper)':>8s} "
          f"{'MIPS+wp':>8s} {'(paper)':>8s} {'MB/s':>8s} {'(paper)':>8s}")
    sums = [0.0, 0.0, 0.0]
    for row in rows:
        bits = row.bits_per_instruction
        mips = row.mips_with_wrong_path("xc4vlx40")
        bandwidth = row.bandwidth_mbytes("xc4vlx40")
        paper_bits, paper_mips, paper_bw = PAPER_TABLE3[row.benchmark]
        sums[0] += bits
        sums[1] += mips
        sums[2] += bandwidth
        print(f"{row.benchmark:8s} {bits:7.2f} {paper_bits:8.2f} "
              f"{mips:8.2f} {paper_mips:8.2f} "
              f"{bandwidth:8.2f} {paper_bw:8.2f}")
    count = len(rows)
    paper_bits, paper_mips, paper_bw = PAPER_TABLE3["Average"]
    print(f"{'Average':8s} {sums[0]/count:7.2f} {paper_bits:8.2f} "
          f"{sums[1]/count:8.2f} {paper_mips:8.2f} "
          f"{sums[2]/count:8.2f} {paper_bw:8.2f}")
    gbps = sums[1] / count * sums[0] / count / 1000.0
    print(f"\naverage trace demand: {gbps:.2f} Gb/s "
          f"(paper: ~1.1 Gb/s, beyond plain GigE)")


def table4(budget: int) -> None:
    print("== Table 4: area cost on xc4vlx40 ==\n")
    config = replace(PAPER_4WIDE_PERFECT, perfect_memory=False)
    report = AreaEstimator(config).estimate()
    print(report.render())
    print(f"\npaper totals : 12273 slices / 17175 LUTs / 7 BRAMs")
    print(f"FAST (4-wide, V4): {FAST_AREA_SLICES} slices / "
          f"{FAST_AREA_BRAMS} BRAMs "
          f"-> {FAST_AREA_SLICES / report.total_slices:.1f}x slices, "
          f"{FAST_AREA_BRAMS / report.total_brams:.0f}x BRAMs "
          f"(paper: 2.4x, 24x)")



def sweep_table(result, device_name: str = "xc4vlx40",
                sort_key: str = "ipc", limit: int | None = None) -> str:
    """Render a :class:`~repro.sweep.result.SweepResult` the way the
    paper tables are rendered: swept coordinates + IPC next to the
    FPGA-projected MIPS on one device, best design point first.

    This is the sweep subsystem's hook into the table machinery — the
    same rows can also join Table 2 via
    ``comparison_table`` + ``SweepResult.comparison_entries``.
    """
    from repro.fpga.device import DEVICES  # lazy: avoid import cycles
    try:
        device = DEVICES[device_name]
    except KeyError:
        raise KeyError(
            f"unknown device {device_name!r}; choose from "
            f"{', '.join(DEVICES)}"
        ) from None
    ordered = result.sorted_by(sort_key)
    if limit is not None:
        ordered = ordered.top(limit, sort_key)
    header = (f"== sweep: {result.workload}, budget {result.budget}, "
              f"seed {result.seed} ({len(result)} design points) ==\n")
    return header + ordered.table(devices=(device,))


def render_all(tables: list[str] | None = None,
               budget: int = DEFAULT_BUDGET) -> None:
    """Render the selected tables (all four by default)."""
    runners = {"table1": table1, "table2": table2,
               "table3": table3, "table4": table4}
    for name in tables or list(runners):
        if name not in runners:
            raise KeyError(
                f"unknown table {name!r}; choose from {', '.join(runners)}"
            )
        runners[name](budget)
        print()
