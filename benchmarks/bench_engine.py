"""Bench: host-side throughput of the reproduction's components.

Measures records simulated per host second for the engine (reference
and specialized tiers), generator and functional simulator — what a
user of this library cares about when sizing their own experiments.
Run via ``pytest benchmarks/``; ``resimbench/`` holds the committed
per-layer figures, and the tier-1 suite holds the tier parity checks.
"""

from repro.core import (
    EngineObserver,
    PAPER_4WIDE_PERFECT,
    ReSimEngine,
    SpecializedEngine,
)
from repro.functional import SimBpred
from repro.workloads import SyntheticWorkload, get_profile, kernel_program


def _print_rate(benchmark, label, records, detail=""):
    """Print records per host second when the run was timed
    (``--benchmark-disable`` runs each function once, untimed)."""
    if benchmark.stats is None:
        return
    rate = records / benchmark.stats.stats.mean
    print(f"\n{label}: {rate / 1e3:.1f}k records/s host throughput"
          f"{detail}")


def test_engine_host_throughput(benchmark):
    """Engine-only: records per host second on a prepared trace.

    This is the zero-observer hot loop — the instrumentation API's
    guarded dispatch must keep it within noise (±2%) of the
    pre-observer engine; compare against
    ``test_engine_observer_overhead`` to see what attached hooks cost.
    """
    generation = SyntheticWorkload(get_profile("gzip"),
                                   seed=7).generate(10_000)

    def simulate():
        return ReSimEngine(PAPER_4WIDE_PERFECT,
                           generation.records).run().major_cycles

    cycles = benchmark(simulate)
    _print_rate(benchmark, "engine", len(generation.records),
                f" ({cycles} simulated cycles)")
    assert cycles > 0


def test_specialized_engine_host_throughput(benchmark):
    """The compiled fast path on the same trace: the config constants
    are literals, the stat counters are local ints, and statically
    dead branches (observers, perfect memory) are compiled out.  The
    first iteration pays codegen; the in-process cache amortizes it
    away for the measured steady state."""
    generation = SyntheticWorkload(get_profile("gzip"),
                                   seed=7).generate(10_000)
    reference = ReSimEngine(PAPER_4WIDE_PERFECT,
                            list(generation.records)).run()

    def simulate():
        return SpecializedEngine(PAPER_4WIDE_PERFECT,
                                 list(generation.records)).run()

    result = benchmark(simulate)
    # Bit-identity is the contract that makes the speedup meaningful.
    assert result.stats.major_cycles.value == \
        reference.stats.major_cycles.value
    assert result.stats.committed_instructions.value == \
        reference.stats.committed_instructions.value
    _print_rate(benchmark, "specialized engine", len(generation.records),
                f" ({result.major_cycles} simulated cycles)")


def test_engine_observer_overhead(benchmark):
    """Same trace with every hook attached: the instrumented ceiling."""
    generation = SyntheticWorkload(get_profile("gzip"),
                                   seed=7).generate(10_000)

    class Count(EngineObserver):
        def __init__(self):
            self.cycles = self.commits = self.recoveries = 0

        def on_cycle(self, engine):
            self.cycles += 1

        def on_commit(self, engine, op):
            self.commits += 1

        def on_recovery(self, engine, branch):
            self.recoveries += 1

    def simulate():
        engine = ReSimEngine(PAPER_4WIDE_PERFECT, generation.records)
        observer = Count()
        engine.add_observer(observer)
        engine.run()
        return observer

    observer = benchmark(simulate)
    _print_rate(benchmark, "engine+observers", len(generation.records),
                f" ({observer.cycles} cycles, "
                f"{observer.commits} commits observed)")
    assert observer.cycles > 0
    assert observer.commits > 0


def test_generator_host_throughput(benchmark):
    """Synthetic trace generation: instructions per host second."""
    def generate():
        workload = SyntheticWorkload(get_profile("bzip2"), seed=7)
        return workload.generate(10_000).total_records

    records = benchmark(generate)
    _print_rate(benchmark, "generator", records)
    assert records >= 10_000


def test_functional_tracer_host_throughput(benchmark):
    """sim-bpred over a real kernel: instructions per host second."""
    program = kernel_program("matmul")

    def trace():
        return SimBpred().generate(program).total_records

    records = benchmark(trace)
    _print_rate(benchmark, "sim-bpred", records)
    assert records > 9000
