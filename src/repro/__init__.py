"""repro -- reproduction of "On the Scalability of 1- and 2-Dimensional
SIMD Extensions for Multimedia Applications" (ISPASS 2005).

The package models four multimedia ISA extensions (MMX64, MMX128 and the
matrix-oriented VMMX64, VMMX128) on top of an out-of-order superscalar
timing model, re-implements the paper's Mediabench kernels and
applications against those extensions, and regenerates every table and
figure of the paper's evaluation.

Quickstart::

    from repro import get_machine, run_kernel

    result = run_kernel("motion1", isa="vmmx128", way=2)
    print(result.cycles, result.trace.summary())
    print(get_machine("vmmx128", 2).core)

See ``examples/quickstart.py``, README.md and ``docs/architecture.md``
for the full tour.
"""

from repro.emu import ISA_NAMES, VERSION_NAMES, Memory, make_machine
from repro.isa import Category, ColumnarTrace, FUClass, Trace, TraceRecord

__version__ = "1.0.0"

__all__ = [
    "Category", "ColumnarTrace", "FUClass", "ISA_NAMES", "Memory", "Trace",
    "TraceRecord", "VERSION_NAMES", "make_machine", "__version__",
]


def __getattr__(name):
    # The kernel runner and the machine registry resolve on first use;
    # the emulation and trace names above are imported eagerly.
    if name == "run_kernel":
        from repro.kernels.runner import run_kernel

        return run_kernel
    if name in ("MachineSpec", "SimdGeometry", "get_machine",
                "register_machine", "registered_machines"):
        import repro.machines as machines

        return getattr(machines, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
