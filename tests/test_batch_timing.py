"""Differential suite: the compiled timing kernel vs the Python fallback.

:class:`repro.timing.batch.BatchCoreModel` times one columnar trace
against a stack of configurations in a single pass (shared pre-passes +
a compiled constraint-loop kernel); the scalar
:class:`~repro.timing.core.CoreModel` is the per-point Python fallback
a host without a C compiler takes.  The guarantee pinned here: both
produce value-identical :class:`~repro.timing.core.SimResult`\\ s for
every point of every stack -- including the golden-contract
first-occurrence ordering of the per-category tallies -- on real kernel
traces, random configuration stacks and random record traces, and every
divergence path falls back to the scalar model rather than
approximating.  ``tests/test_timing_manifest.py`` pins both paths to
frozen digests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.appmodel import make_scalar_trace
from repro.isa.opcodes import Category, FUClass, Latency
from repro.isa.trace import Trace
from repro.kernels.base import execute
from repro.kernels.registry import KERNELS
from repro.machines import ISAS, WAYS, get_machine
from repro.timing import simulate_trace, simulate_trace_stack
from repro.timing.batch import BatchCoreModel, BatchTimingDivergence, load_kernel
from timing_cases import (
    CORE_ABLATIONS,
    MEM_ABLATIONS,
    RANDOM_MACHINES,
    ablated_pair,
    paper_stack,
    random_trace,
    spill_chain_trace,
)

_TRACES = {}


def trace_of(kernel, version, seed=0):
    key = (kernel, version, seed)
    if key not in _TRACES:
        _TRACES[key] = execute(KERNELS[kernel], version, seed).trace.columns()
    return _TRACES[key]


def assert_results_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (g.config_name, w.config_name)
        # Dict equality ignores ordering, but the golden JSON artefacts
        # do not: tally keys must appear in first-occurrence order.
        assert list(g.cat_instructions) == list(w.cat_instructions)
        assert list(g.cat_cycles) == list(w.cat_cycles)


def scalar_results(cols, specs, warm=True):
    return [simulate_trace(cols, c, m, warm=warm) for c, m in specs]


def spy_batch_runs(monkeypatch):
    """Record the stack size of every batch run."""
    calls = []
    real = BatchCoreModel.run

    def spy(self, trace, warm=True):
        calls.append(len(self.specs))
        return real(self, trace, warm=warm)

    monkeypatch.setattr(BatchCoreModel, "run", spy)
    return calls


# ---------------------------------------------------------------------------
# Differential: batch vs scalar per-point timing
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_paper_stack_matches_scalar(self, kernel):
        """Each kernel's mmx64 trace, timed across all 12 paper configs."""
        cols = trace_of(kernel, "mmx64")
        specs = paper_stack()
        batch = BatchCoreModel(specs).run(cols)
        assert_results_identical(batch, scalar_results(cols, specs))

    def test_vector_trace_matches_scalar(self):
        """A 2-D (strided vector memory) trace exercises the vector
        occupancy formulas on both matrix and non-matrix stacks."""
        cols = trace_of("ycc", "vmmx128")
        specs = paper_stack()
        batch = BatchCoreModel(specs).run(cols)
        assert_results_identical(batch, scalar_results(cols, specs))

    def test_cold_caches_match_scalar(self):
        cols = trace_of("addblock", "vmmx64")
        specs = paper_stack()
        batch = BatchCoreModel(specs).run(cols, warm=False)
        assert_results_identical(batch, scalar_results(cols, specs, warm=False))

    @settings(max_examples=15, deadline=None)
    @given(
        kernel=st.sampled_from(["addblock", "comp", "motion1"]),
        version=st.sampled_from(["mmx64", "vmmx128"]),
        picks=st.lists(
            st.tuples(
                st.sampled_from(ISAS),
                st.sampled_from(WAYS),
                st.sampled_from(CORE_ABLATIONS),
                st.sampled_from(MEM_ABLATIONS),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    def test_random_ablation_stacks_match_scalar(self, kernel, version, picks):
        """Random machine/way/ablation stacks -- including stacks mixing
        cache geometries, which must split into exact sub-stacks."""
        specs = [ablated_pair(*pick) for pick in picks]
        cols = trace_of(kernel, version)
        batch = BatchCoreModel(specs).run(cols)
        assert_results_identical(batch, scalar_results(cols, specs))

    def test_stack_driver_uses_batch_once(self, monkeypatch):
        """simulate_trace_stack routes a multi-point stack through one
        BatchCoreModel pass when batching is enabled."""
        calls = spy_batch_runs(monkeypatch)
        cols = trace_of("addblock", "mmx64")
        specs = paper_stack()
        got = simulate_trace_stack(cols, specs)
        assert calls == [len(specs)]
        assert_results_identical(got, scalar_results(cols, specs))

    def test_single_point_stack_uses_batch_path(self, monkeypatch):
        """A stack of one runs on the compiled kernel too: every timing
        has one fast path, and the scalar model is only the fallback."""
        calls = spy_batch_runs(monkeypatch)
        cols = trace_of("addblock", "mmx64")
        specs = paper_stack()[:1]
        got = simulate_trace_stack(cols, specs)
        assert calls == [1]
        assert_results_identical(got, scalar_results(cols, specs))

    @pytest.mark.parametrize("smem,sctrl", [(10, 60), (20, 40), (50, 50)])
    @pytest.mark.parametrize("points", [1, 2])
    def test_negative_ssa_ids_match_scalar(self, smem, sctrl, points):
        """Branch-heavy synthetic scalar mixes drive SSA ids below zero;
        the kernel's flat scoreboard must time them exactly instead of
        indexing out of bounds."""
        cols = make_scalar_trace(smem / 100, sctrl / 100)
        assert min(cols.src_ids.min(), cols.dst_ids.min()) < 0
        specs = [
            (get_machine("mmx64", way).core, get_machine("mmx64", way).mem)
            for way in (2, 4)[:points]
        ]
        assert_results_identical(
            BatchCoreModel(specs).run(cols), scalar_results(cols, specs)
        )

    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_record_traces_match_scalar(self, rng):
        """Adversarial random traces mixing every instruction kind (ALU,
        SIMD with matrix rows, scalar and strided vector memory,
        branches) on 1-D and 2-D machines of several widths."""
        trace = random_trace(rng)
        specs = [
            (get_machine(name, way).core, get_machine(name, way).mem)
            for name, way in RANDOM_MACHINES
        ]
        assert_results_identical(
            BatchCoreModel(specs).run(trace), scalar_results(trace, specs)
        )


class TestCounterSpill:
    def test_high_latency_chain_exceeding_dense_window(self):
        """Dependent cold misses push issue cycles far past the dense
        per-cycle counter window; both the Python spill dictionaries and
        the kernel's widened window must stay cycle-exact."""
        trace = spill_chain_trace()
        specs = [(get_machine("mmx64", 2).core, get_machine("mmx64", 2).mem)]
        (got,) = BatchCoreModel(specs).run(trace, warm=False)
        assert_results_identical([got], scalar_results(trace, specs, warm=False))
        assert got.cycles > 40 * 400  # the chain really serialised


# ---------------------------------------------------------------------------
# Divergence paths: every refusal falls back, never approximates
# ---------------------------------------------------------------------------


class TestDivergenceFallback:
    def test_unloadable_kernel_falls_back(self, monkeypatch):
        """A host without a usable C compiler still times correctly."""
        import repro.timing.batch as batch

        monkeypatch.setattr(batch, "load_kernel", lambda: None)
        cols = trace_of("comp", "mmx64")
        specs = paper_stack()[:3]
        with pytest.raises(BatchTimingDivergence):
            BatchCoreModel(specs).run(cols)
        assert_results_identical(
            simulate_trace_stack(cols, specs), scalar_results(cols, specs)
        )

    def test_sparse_ssa_ids_diverge(self):
        """Hand-built traces with huge sparse register ids refuse the
        flat scoreboard instead of allocating it."""
        t = Trace("sparse")
        t.emit(
            "add", Category.SARITH, FUClass.INT, Latency.INT_ALU,
            (10_000_000,), (),
        )
        t.emit(
            "add", Category.SARITH, FUClass.INT, Latency.INT_ALU,
            (10_000_001,), (10_000_000,),
        )
        cols = t.columns()
        specs = paper_stack()[:2]
        with pytest.raises(BatchTimingDivergence):
            BatchCoreModel(specs).run(cols)
        assert_results_identical(
            simulate_trace_stack(cols, specs), scalar_results(cols, specs)
        )


# ---------------------------------------------------------------------------
# Kernel build plumbing
# ---------------------------------------------------------------------------


class TestKernelCache:
    def test_cache_env_overrides_build_directory(self, tmp_path, monkeypatch):
        import repro.timing.batch as batch

        monkeypatch.setenv(batch.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(batch, "_lib", None)
        monkeypatch.setattr(batch, "_lib_error", None)
        lib = batch.load_kernel()
        assert lib is not None
        built = list(tmp_path.glob("kernel-*.so"))
        assert len(built) == 1
        # Reloading serves the cached artifact (same digest, no rebuild).
        monkeypatch.setattr(batch, "_lib", None)
        assert batch.load_kernel() is not None
        assert list(tmp_path.glob("kernel-*.so")) == built

    def test_failure_is_remembered_per_process(self, monkeypatch):
        import repro.timing.batch as batch

        calls = []

        def explode():
            calls.append(1)
            raise RuntimeError("no compiler")

        monkeypatch.setattr(batch, "_lib", None)
        monkeypatch.setattr(batch, "_lib_error", None)
        monkeypatch.setattr(batch, "_compile_and_load", explode)
        assert batch.load_kernel() is None
        assert batch.load_kernel() is None
        assert calls == [1]

    def test_kernel_loads_on_this_host(self):
        assert load_kernel() is not None
