"""Differential suite for the batch-vectorised timing engine.

:class:`repro.timing.batch.BatchCoreModel` times one columnar trace
against a stack of configurations in a single pass (shared pre-passes +
a compiled constraint-loop kernel); the scalar
:class:`~repro.timing.core.CoreModel` stays as the authoritative
per-point model, and ``REPRO_TIMING_REFERENCE=1`` still forces the
record-at-a-time reference underneath everything.  The core guarantee
pinned here mirrors the emulation-side suite
(``tests/test_batch_emulation.py``): the batch path produces
value-identical :class:`~repro.timing.core.SimResult`\\ s for every
point of every stack -- including the golden-contract first-occurrence
ordering of the per-category tallies -- and every divergence path falls
back to the scalar model rather than approximating.
"""

import dataclasses
import os
from unittest import mock

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
from repro.timing.batch import (
    KERNEL_ENV,
    BatchCoreModel,
    BatchTimingDivergence,
    batch_enabled,
    load_kernel,
)
from repro.timing.core import REFERENCE_ENV

_TRACES = {}


def trace_of(kernel, version, seed=0):
    key = (kernel, version, seed)
    if key not in _TRACES:
        _TRACES[key] = execute(KERNELS[kernel], version, seed).trace.columns()
    return _TRACES[key]


def paper_stack():
    """All twelve paper configurations, each with its own hierarchy."""
    return [
        (get_machine(isa, way).core, get_machine(isa, way).mem)
        for isa in ISAS
        for way in WAYS
    ]


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


def run_batch(specs, cols, warm=True):
    """Run the batch model with the env gates cleared.

    The differential tests must exercise the *batch* path even when the
    whole suite is re-run under ``REPRO_TIMING_REFERENCE=1`` (the CI
    reference-mode job); the scalar side is left under the ambient
    environment -- the reference and columnar models are value-identical,
    so the equality assertions hold in both modes.  A context manager
    rather than a monkeypatch fixture so the Hypothesis test stays free
    of function-scoped fixtures.
    """
    with mock.patch.dict(os.environ):
        os.environ.pop(REFERENCE_ENV, None)
        os.environ.pop(KERNEL_ENV, None)
        return BatchCoreModel(specs).run(cols, warm=warm)


def spy_batch_runs(monkeypatch):
    """Clear the env gates and record the stack size of every batch run."""
    calls = []
    real = BatchCoreModel.run

    def spy(self, trace, warm=True):
        calls.append(len(self.specs))
        return real(self, trace, warm=warm)

    monkeypatch.setattr(BatchCoreModel, "run", spy)
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    monkeypatch.delenv(KERNEL_ENV, raising=False)
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
        batch = run_batch(specs, cols)
        assert_results_identical(batch, scalar_results(cols, specs))

    def test_vector_trace_matches_scalar(self):
        """A 2-D (strided vector memory) trace exercises the vector
        occupancy formulas on both matrix and non-matrix stacks."""
        cols = trace_of("ycc", "vmmx128")
        specs = paper_stack()
        batch = run_batch(specs, cols)
        assert_results_identical(batch, scalar_results(cols, specs))

    def test_cold_caches_match_scalar(self):
        cols = trace_of("addblock", "vmmx64")
        specs = paper_stack()
        batch = run_batch(specs, cols, warm=False)
        assert_results_identical(batch, scalar_results(cols, specs, warm=False))

    @settings(max_examples=15, deadline=None)
    @given(
        kernel=st.sampled_from(["addblock", "comp", "motion1"]),
        version=st.sampled_from(["mmx64", "vmmx128"]),
        picks=st.lists(
            st.tuples(
                st.sampled_from(ISAS),
                st.sampled_from(WAYS),
                st.sampled_from(
                    [
                        None,
                        {"rob_size": 12},
                        {"fetch_width": 1},
                        {"simd_issue": 1},
                        {"branch_penalty": 2},
                        {"mem_ports": 1},
                    ]
                ),
                st.sampled_from([None, "l1_latency", "l2_ports", "main", "strided"]),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    def test_random_ablation_stacks_match_scalar(self, kernel, version, picks):
        """Random machine/way/ablation stacks -- including stacks mixing
        cache geometries, which must split into exact sub-stacks."""
        specs = []
        for isa, way, core_abl, mem_abl in picks:
            spec = get_machine(isa, way)
            core, mem = spec.core, spec.mem
            if core_abl:
                core = dataclasses.replace(core, **core_abl)
            if mem_abl == "l1_latency":
                mem = dataclasses.replace(
                    mem, l1=dataclasses.replace(mem.l1, latency=1)
                )
            elif mem_abl == "l2_ports":
                mem = dataclasses.replace(
                    mem, l2=dataclasses.replace(mem.l2, ports=1, port_bytes=8)
                )
            elif mem_abl == "main":
                mem = dataclasses.replace(mem, main_latency=120)
            elif mem_abl == "strided":
                mem = dataclasses.replace(mem, strided_rows_per_cycle=2.0)
            specs.append((core, mem))
        cols = trace_of(kernel, version)
        batch = run_batch(specs, cols)
        assert_results_identical(batch, scalar_results(cols, specs))

    def test_stack_driver_uses_batch_once(self, monkeypatch):
        """simulate_trace_stack routes a multi-point stack through one
        BatchCoreModel pass when batching is enabled."""
        calls = spy_batch_runs(monkeypatch)
        cols = trace_of("addblock", "mmx64")
        specs = paper_stack()
        assert batch_enabled()
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
        assert_results_identical(run_batch(specs, cols), scalar_results(cols, specs))


# ---------------------------------------------------------------------------
# Divergence paths: every refusal falls back, never approximates
# ---------------------------------------------------------------------------


class TestDivergenceFallback:
    def test_no_kernel_env_raises_and_driver_falls_back(self, monkeypatch):
        cols = trace_of("comp", "mmx64")
        specs = paper_stack()[:3]
        want = scalar_results(cols, specs)

        monkeypatch.setenv(KERNEL_ENV, "1")
        assert not batch_enabled()
        with pytest.raises(BatchTimingDivergence):
            BatchCoreModel(specs).run(cols)
        assert_results_identical(simulate_trace_stack(cols, specs), want)

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


class TestReferenceGate:
    def test_reference_env_refuses_batch_and_matches(self, monkeypatch):
        """REPRO_TIMING_REFERENCE=1 forces every simulation through the
        record-at-a-time reference; the batch refuses outright and the
        stack driver's fallback results equal the default path (the
        reference and columnar models are value-identical)."""
        cols = trace_of("addblock", "mmx64")
        specs = paper_stack()[:4]
        default = simulate_trace_stack(cols, specs)

        monkeypatch.setenv(REFERENCE_ENV, "1")
        assert not batch_enabled()
        with pytest.raises(BatchTimingDivergence):
            BatchCoreModel(specs).run(cols)
        gated = simulate_trace_stack(cols, specs)
        assert_results_identical(gated, default)


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
