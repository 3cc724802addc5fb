"""Trace and configuration-stack generators shared by the timing tests.

``tests/test_batch_timing.py`` draws from these with Hypothesis to
compare the compiled kernel against the Python fallback;
``tests/test_timing_manifest.py`` draws from them with fixed
``random.Random`` seeds to build the cases its frozen digests pin.  Both
take a ``random.Random``-like source, so one generator serves both (the
Hypothesis tests pass ``st.randoms()``).
"""

import dataclasses

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import Trace, TraceRecord
from repro.machines import ISAS, WAYS, get_machine

#: Core-resource ablations a random stack may apply to one point.
CORE_ABLATIONS = (
    None,
    {"rob_size": 12},
    {"fetch_width": 1},
    {"simd_issue": 1},
    {"branch_penalty": 2},
    {"mem_ports": 1},
)

#: Memory-hierarchy ablations (see :func:`ablated_pair`).
MEM_ABLATIONS = (None, "l1_latency", "l2_ports", "main", "strided")

#: Machines random record traces are timed on: 1-D and 2-D, several widths.
RANDOM_MACHINES = (
    ("mmx64", 2), ("vmmx128", 8), ("vmmx64", 2), ("vmmx64", 4), ("vmmx64", 8),
)


def paper_stack():
    """All twelve paper configurations, each with its own hierarchy."""
    return [
        (get_machine(isa, way).core, get_machine(isa, way).mem)
        for isa in ISAS
        for way in WAYS
    ]


def ablated_pair(isa, way, core_abl, mem_abl):
    """The ``(core, mem)`` pair of ``isa`` at ``way`` with ablations applied."""
    spec = get_machine(isa, way)
    core, mem = spec.core, spec.mem
    if core_abl:
        core = dataclasses.replace(core, **core_abl)
    if mem_abl == "l1_latency":
        mem = dataclasses.replace(mem, l1=dataclasses.replace(mem.l1, latency=1))
    elif mem_abl == "l2_ports":
        mem = dataclasses.replace(
            mem, l2=dataclasses.replace(mem.l2, ports=1, port_bytes=8)
        )
    elif mem_abl == "main":
        mem = dataclasses.replace(mem, main_latency=120)
    elif mem_abl == "strided":
        mem = dataclasses.replace(mem, strided_rows_per_cycle=2.0)
    return core, mem


def random_picks(rng):
    """2-6 random ``(isa, way, core ablation, mem ablation)`` stack points.

    Stacks mix cache geometries freely, so the batch path must split
    them into exact sub-stacks.
    """
    return [
        (
            rng.choice(ISAS),
            rng.choice(WAYS),
            rng.choice(CORE_ABLATIONS),
            rng.choice(MEM_ABLATIONS),
        )
        for _ in range(rng.randint(2, 6))
    ]


def random_trace(rng, max_len=110):
    """Traces mixing ALU, SIMD (incl. matrix rows), memory and branches."""
    trace = Trace()
    next_id = 1
    for _ in range(rng.randint(5, max_len)):
        kind = rng.randint(0, 4)
        srcs = ()
        if next_id > 2 and rng.random() < 0.5:
            srcs = (rng.randint(1, next_id - 1),)
        if kind == 0:
            record = TraceRecord(
                name="alu", category=Category.SARITH, fu=FUClass.INT,
                latency=rng.choice((1, 3)), dsts=(next_id,), srcs=srcs,
            )
        elif kind == 1:
            record = TraceRecord(
                name="vop", category=Category.VARITH, fu=FUClass.SIMD,
                latency=rng.choice((1, 3)), dsts=(next_id,), srcs=srcs,
                rows=rng.choice((1, 4, 8, 16)),
            )
        elif kind == 2:
            record = TraceRecord(
                name="ld", category=Category.SMEM, fu=FUClass.MEM,
                latency=0, dsts=(next_id,), srcs=srcs,
                addr=64 + 32 * rng.randint(0, 400), row_bytes=8,
            )
        elif kind == 3:
            record = TraceRecord(
                name="vld", category=Category.VMEM, fu=FUClass.MEM,
                latency=0, dsts=(next_id,), srcs=srcs,
                addr=4096 * rng.randint(0, 40), row_bytes=8,
                rows=rng.choice((1, 8, 16)), stride=rng.choice((8, 800)),
                is_store=rng.random() < 0.5,
            )
        else:
            record = TraceRecord(
                name="br", category=Category.SCTRL, fu=FUClass.INT,
                latency=1, srcs=srcs, is_branch=True,
                taken=rng.random() < 0.5, pc=rng.randint(1, 4),
            )
        trace.append(record)
        if record.dsts:
            next_id += 1
    return trace


def spill_chain_trace(length=40):
    """A chain of dependent cold misses, one per 32 KB.

    Timed without warming, each load waits for its predecessor's
    main-memory miss, pushing issue cycles far past the dense per-cycle
    counter window; the spill path must stay cycle-exact.
    """
    trace = Trace()
    for i in range(length):
        trace.append(
            TraceRecord(
                name="ld", category=Category.SMEM, fu=FUClass.MEM,
                latency=0, dsts=(i + 1,), srcs=(i,) if i else (),
                addr=(1 << 20) + (1 << 15) * i, row_bytes=8,
            )
        )
    return trace
