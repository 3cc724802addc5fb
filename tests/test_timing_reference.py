"""Differential tests: the compiled timing kernel vs the reference model.

The Python :class:`~repro.timing.core.CoreModel` is the reference timing
model (and the fallback a host without a C compiler takes).  The
compiled constraint-loop kernel behind
:class:`~repro.timing.batch.BatchCoreModel` must produce *identical*
``SimResult`` objects -- cycles, per-category attribution, branch and
cache statistics -- one machine at a time, on any trace.  Hypothesis
generates adversarial random traces mixing every instruction kind; a
second set of cases runs real emulated kernel traces through both paths.

``tests/test_batch_timing.py`` checks the same guarantee across whole
configuration stacks; ``tests/test_timing_manifest.py`` pins both paths
to frozen digests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import get_machine
from repro.timing.batch import BatchCoreModel
from repro.timing.core import CoreModel
from timing_cases import random_trace


def both_results(trace, isa, way):
    """``(kernel, reference)`` results of ``trace`` on one warm machine."""
    spec = get_machine(isa, way)
    (columnar,) = BatchCoreModel([(spec.core, spec.mem)]).run(trace)
    model = CoreModel(spec.core, spec.mem)
    model.hier.warm(trace)
    reference = model.run(trace)
    # Dict equality ignores ordering, but the golden JSON artefacts do
    # not: tally keys must appear in first-occurrence order.
    assert list(columnar.cat_instructions) == list(reference.cat_instructions)
    assert list(columnar.cat_cycles) == list(reference.cat_cycles)
    return columnar, reference


class TestDifferential:
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_columnar_equals_reference_mmx(self, rng):
        columnar, reference = both_results(random_trace(rng), "mmx64", 2)
        assert columnar == reference

    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_columnar_equals_reference_vmmx_wide(self, rng):
        columnar, reference = both_results(random_trace(rng), "vmmx128", 8)
        assert columnar == reference

    @given(rng=st.randoms(use_true_random=False), way=st.sampled_from([2, 4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_columnar_equals_reference_vmmx_all_ways(self, rng, way):
        columnar, reference = both_results(random_trace(rng), "vmmx64", way)
        assert columnar == reference

    @pytest.mark.parametrize(
        "kernel,isa,way",
        [
            ("addblock", "mmx64", 2),
            ("addblock", "vmmx128", 8),
            ("comp", "vmmx64", 4),
            ("ycc", "mmx128", 2),
        ],
    )
    def test_real_kernel_traces_identical(self, kernel, isa, way):
        from repro.kernels.base import execute
        from repro.kernels.registry import KERNELS

        trace = execute(KERNELS[kernel], isa, seed=0).trace
        columnar, reference = both_results(trace, isa, way)
        assert columnar == reference
