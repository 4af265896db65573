"""Tests for the synthetic SPECINT workloads and bundled kernels."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import reference_sampler
from repro.bpred.emit import compile_predictor
from repro.bpred.unit import PERFECT_PREDICTOR, PredictorConfig
from repro.isa.opcodes import BranchKind
from repro.trace.record import RecordKind
from repro.trace.wrongpath import count_blocks, validate_block
from repro.workloads import (
    KERNELS,
    SPECINT_PROFILES,
    SyntheticWorkload,
    get_profile,
    kernel_program,
    kernel_source,
)
from repro.workloads.profiles import BenchmarkProfile


class TestProfiles:
    def test_all_five_benchmarks_present(self):
        assert set(SPECINT_PROFILES) == {"gzip", "bzip2", "parser",
                                         "vortex", "vpr"}

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError, match="known:"):
            get_profile("mcf")

    def test_mix_fractions_valid(self):
        for profile in SPECINT_PROFILES.values():
            assert 0.0 < profile.alu_fraction < 1.0
            assert profile.mean_block_length >= 1.0

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            BenchmarkProfile(name="bad", description="",
                             branch_fraction=0.6, load_fraction=0.5)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            BenchmarkProfile(name="bad", description="",
                             loop_weight=0, cond_weight=0,
                             call_weight=0, jump_weight=0)

    def test_characterization_relationships(self):
        """The per-benchmark structure encodes the paper's narrative."""
        profiles = SPECINT_PROFILES
        # bzip2: biggest data working set (most cache-sensitive).
        assert profiles["bzip2"].working_set_bytes == max(
            p.working_set_bytes for p in profiles.values()
        )
        # parser: branchiest.
        assert profiles["parser"].branch_fraction == max(
            p.branch_fraction for p in profiles.values()
        )
        # vortex: most functions (largest code footprint, call-heavy).
        assert profiles["vortex"].function_count == max(
            p.function_count for p in profiles.values()
        )
        assert profiles["vortex"].call_weight == max(
            p.call_weight for p in profiles.values()
        )


class TestSyntheticGenerator:
    def test_determinism(self):
        a = SyntheticWorkload(get_profile("gzip"), seed=42).generate(5000)
        b = SyntheticWorkload(get_profile("gzip"), seed=42).generate(5000)
        assert a.records == b.records

    def test_seed_changes_trace(self):
        a = SyntheticWorkload(get_profile("gzip"), seed=1).generate(5000)
        b = SyntheticWorkload(get_profile("gzip"), seed=2).generate(5000)
        assert a.records != b.records

    def test_budget_respected(self):
        generation = SyntheticWorkload(get_profile("vpr"),
                                       seed=3).generate(4000)
        assert generation.committed_instructions >= 4000
        # Overshoot bounded by one basic block + terminator.
        assert generation.committed_instructions < 4200

    def test_record_accounting(self):
        generation = SyntheticWorkload(get_profile("parser"),
                                       seed=3).generate(5000)
        assert generation.total_records == (
            generation.committed_instructions
            + generation.wrong_path_instructions
        )
        assert count_blocks(generation.records) == generation.mispredictions

    def test_mix_tracks_profile(self):
        profile = get_profile("gzip")
        generation = SyntheticWorkload(profile, seed=5).generate(30_000)
        stats = generation.statistics()
        branch_frac = stats.kind_fraction(RecordKind.BRANCH)
        mem_frac = stats.kind_fraction(RecordKind.MEMORY)
        assert abs(branch_frac - profile.branch_fraction) < 0.05
        expected_mem = profile.load_fraction + profile.store_fraction
        assert abs(mem_frac - expected_mem) < 0.06

    def test_wrong_path_blocks_valid(self):
        workload = SyntheticWorkload(get_profile("parser"), seed=5,
                                     rob_entries=16, ifq_entries=4)
        generation = workload.generate(10_000)
        block: list = []
        for record in generation.records:
            if record.tag:
                block.append(record)
            elif block:
                validate_block(block, max_size=20)
                block = []

    def test_perfect_predictor_no_wrong_path(self):
        workload = SyntheticWorkload(get_profile("parser"), seed=5,
                                     predictor_config=PERFECT_PREDICTOR)
        generation = workload.generate(10_000)
        assert generation.mispredictions == 0
        assert generation.wrong_path_instructions == 0

    def test_addresses_inside_working_set(self):
        profile = get_profile("gzip")
        generation = SyntheticWorkload(profile, seed=6).generate(10_000)
        from repro.isa.program import DATA_BASE
        for record in generation.records:
            if record.kind is RecordKind.MEMORY:
                offset = record.address - DATA_BASE
                assert 0 <= offset < profile.working_set_bytes

    def test_code_footprint_scales_with_functions(self):
        small = SyntheticWorkload(get_profile("gzip"), seed=7)
        large = SyntheticWorkload(get_profile("vortex"), seed=7)
        assert large.code_footprint_bytes > small.code_footprint_bytes
        assert large.static_branch_sites > small.static_branch_sites

    def test_describe(self):
        workload = SyntheticWorkload(get_profile("bzip2"), seed=7)
        assert "bzip2" in workload.describe()

    def test_invalid_budget(self):
        workload = SyntheticWorkload(get_profile("gzip"), seed=7)
        with pytest.raises(ValueError):
            workload.generate(0)

    def test_branch_target_is_reachable_block(self):
        """Every taken target of an untagged branch maps to a known
        block start (the engine reconstructs PCs from these)."""
        workload = SyntheticWorkload(get_profile("vpr"), seed=8)
        generation = workload.generate(5000)
        starts = set(workload._block_by_pc)
        from repro.trace.record import BranchRecord
        for record in generation.records:
            if isinstance(record, BranchRecord) and not record.tag \
                    and record.taken:
                assert record.target in starts


#: Profiles whose draws the SPECINT ones never take: chances of 0 and 1
#: and a dependency mean of 1 (which draw nothing), no streams, and
#: zero-weight entries in the instruction mix.
EDGE_PROFILES = (
    dataclasses.replace(get_profile("gzip"), name="edge-sure",
                        stream_fraction=1.0, hot_fraction=0.0,
                        dep_distance_mean=1.0, mul_fraction=0.0,
                        div_fraction=0.0),
    dataclasses.replace(get_profile("vpr"), name="edge-never",
                        stream_fraction=0.0, hot_fraction=1.0,
                        stream_count=0, store_fraction=0.0),
    dataclasses.replace(get_profile("parser"), name="edge-no-streams",
                        stream_count=0, dep_distance_mean=40.0),
)

#: (rows, wrong path, branch source) per sampler call.
SAMPLER_CALLS = st.lists(
    st.tuples(st.integers(0, 40), st.booleans(), st.booleans()),
    min_size=1, max_size=12)


def _sampler_state(workload: SyntheticWorkload) -> tuple:
    return (workload._rng_mix._state, workload._rng_deps._state,
            workload._rng_mem._state, workload._rng_wrongpath._state,
            list(workload._recent_dests), list(workload._stream_offsets))


@settings(max_examples=80, deadline=None)
@given(profile=st.sampled_from(
           [*SPECINT_PROFILES.values(), *EDGE_PROFILES]),
       seed=st.integers(0, 2**32), calls=SAMPLER_CALLS)
def test_fused_sampler_matches_reference(profile, seed, calls):
    """The fused body sampler draws the rows, branch sources and final
    RNG, recent-destination and stream states of the per-row oracle
    (``tests/reference_sampler.py``), in committed mode (three streams,
    memory streams advancing, destinations pushed) and wrong-path mode
    (one stream, rows tagged, nothing else advancing)."""
    fused = SyntheticWorkload(profile, seed=seed)
    reference = SyntheticWorkload(profile, seed=seed)
    for count, wrong_path, branch in calls:
        before = _sampler_state(fused)
        rows: list = []
        expected: list = []
        source = fused._sample_body(count, rows, wrong_path, branch)
        assert source == reference_sampler.sample_body(
            reference, count, expected, wrong_path, branch)
        assert rows == expected
        assert _sampler_state(fused) == _sampler_state(reference)
        assert all(row[1] is wrong_path for row in rows)
        if wrong_path:
            after = _sampler_state(fused)
            assert after[:3] == before[:3] and after[4:] == before[4:]


def _subclassed(config: PredictorConfig) -> PredictorConfig:
    """The same predictor as a PredictorConfig subclass, which the
    generator (like the engine) runs on the object model."""
    class ObjectModelConfig(PredictorConfig):
        pass
    return ObjectModelConfig(**dataclasses.asdict(config))


_POWERS = st.sampled_from([1, 2, 4, 8, 16])


@st.composite
def predictor_configs(draw) -> PredictorConfig:
    btb_entries = draw(st.sampled_from([4, 16, 64, 512]))
    return PredictorConfig(
        scheme=draw(st.sampled_from(["twolevel", "gshare", "perfect"])),
        l1_size=draw(_POWERS),
        history_length=draw(st.integers(1, 12)),
        l2_size=draw(st.sampled_from([16, 256, 4096])),
        btb_entries=btb_entries,
        btb_assoc=draw(st.sampled_from(
            [a for a in (1, 2, 4, 8) if a <= btb_entries])),
        ras_depth=draw(st.integers(1, 16)),
    )


@settings(max_examples=40, deadline=None)
@given(config=predictor_configs(),
       workload=st.sampled_from(sorted(SPECINT_PROFILES)),
       seed=st.integers(0, 2**32), budget=st.integers(1, 1500))
def test_compiled_predictor_matches_object_model(config, workload, seed,
                                                 budget):
    """Generation through the compiled predictor writes the rows and
    counts generation through BranchPredictorUnit writes."""
    assert compile_predictor(config) is not None
    assert compile_predictor(_subclassed(config)) is None
    compiled, modelled = (
        SyntheticWorkload(get_profile(workload), seed=seed,
                          predictor_config=predictor).generate(
                              budget, sink=[])
        for predictor in (config, _subclassed(config)))
    assert compiled.records == modelled.records
    for counter in ("mispredictions", "misfetches",
                    "wrong_path_instructions", "branches",
                    "committed_instructions"):
        assert getattr(compiled, counter) == getattr(modelled, counter)


def test_compiled_predictor_is_memoized_per_form():
    """One compiled factory per generated form, fresh tables per call."""
    factory = compile_predictor(PredictorConfig(scheme="gshare"))
    assert compile_predictor(PredictorConfig(scheme="gshare")) is factory
    assert compile_predictor(PredictorConfig(scheme="bimodal")) is None
    first, second = factory(), factory()
    # A taken call trains the first predictor's BTB, not the second's.
    assert first(0x400000, BranchKind.CALL, True, 0x400100)[1]
    assert not first(0x400000, BranchKind.CALL, True, 0x400100)[1]
    assert second(0x400000, BranchKind.CALL, True, 0x400100)[1]


class TestKernels:
    def test_kernel_inventory(self):
        assert len(KERNELS) == 7

    def test_kernel_source_lookup(self):
        assert "main:" in kernel_source("vecsum")
        with pytest.raises(KeyError):
            kernel_source("doom")

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernels_assemble(self, name):
        program = kernel_program(name)
        assert len(program) > 5
        assert program.entry == program.symbols["main"]
