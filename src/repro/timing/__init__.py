"""Trace-driven timing model of the simulated processors.

Machine descriptions live in the :mod:`repro.machines` registry
(``get_machine(name, way)`` resolves any registered family and width);
this package times :class:`~repro.isa.trace.ColumnarTrace` streams on
them with one constraint-based model.  Every timing goes through
:func:`simulate_trace_stack`, which runs a whole stack of
configurations per pass on the compiled kernel
(:class:`~repro.timing.batch.BatchCoreModel`).  Where no kernel can be
built, or a trace's SSA ids are too sparse for it, each point falls
back to the Python :class:`CoreModel`; there is no switch to force
either path.  ``tests/timing_manifest.json`` pins both paths to the
same frozen results and is regenerated with ``--regen-goldens``.
"""

from repro.machines import MachineSpec, SimdGeometry, get_machine
from repro.machines.spec import CoreConfig, MemHierConfig
from repro.timing.batch import BatchCoreModel, BatchTimingDivergence
from repro.timing.caches import BimodalPredictor, Cache, MemoryHierarchy
from repro.timing.core import CoreModel, SimResult
from repro.timing.simulator import (
    simulate_kernel,
    simulate_trace,
    simulate_trace_stack,
)

__all__ = [
    "BatchCoreModel", "BatchTimingDivergence", "BimodalPredictor", "Cache",
    "CoreConfig", "CoreModel", "MachineSpec", "MemHierConfig",
    "MemoryHierarchy", "SimdGeometry", "SimResult", "get_machine",
    "simulate_kernel", "simulate_trace", "simulate_trace_stack",
]
