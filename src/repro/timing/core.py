"""Constraint-based out-of-order core timing model (the Jinks substitute).

Cycle-by-cycle simulation is impractical in Python at the paper's scale,
so this model applies, per dynamic instruction, every *binding constraint*
of the Table III machines in O(1) amortised time:

* in-order fetch of ``fetch_width`` per cycle, stalled by branch
  mispredictions (bimodal predictor + refill penalty) and by re-order
  buffer / physical-register occupancy;
* data dependences through exact SSA register identities;
* a total issue width plus per-class functional-unit pools: integer, FP,
  SIMD issue slots, and SIMD units that a matrix instruction occupies for
  ``ceil(rows / lanes)`` cycles (the vector-lane model of Fig. 2);
* memory ports: scalar and MMX accesses occupy L1 ports (8 bytes/cycle
  each); VMMX matrix accesses occupy the single L2 vector-cache port at
  full width for stride-one and one row per cycle otherwise;
* in-order commit of ``commit_width`` per cycle.

The model walks the *columnar* trace IR (:mod:`repro.isa.trace`): every
pure per-instruction derivation -- SIMD functional-unit occupancy
``ceil(rows/lanes)``, cache access latencies and port-byte occupancies,
branch-predictor outcomes, and the Fig. 6/7 category tallies -- is
computed in a NumPy / batched pre-pass over the columns, so the
sequential constraint loop only resolves the genuinely order-dependent
resources (dependences, issue slots, ports, ROB, commit) over plain
precomputed arrays.  The two passes are legal because cache and
predictor state evolve in *trace order*, independent of the issue
cycles the loop assigns.

Every timing normally runs that loop in the compiled kernel of
:mod:`repro.timing.batch`; :class:`CoreModel` is its Python fallback,
one configuration at a time.  ``tests/timing_manifest.json`` pins both
paths to the same frozen :class:`SimResult` digests.

Each committed instruction attributes the cycles since the previous
commit to its category, which yields the scalar/vector cycle breakdown of
the paper's Fig. 6 directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import CAT_CODE, CATEGORIES, FU_CODE, as_columns
from repro.machines.spec import CoreConfig, MemHierConfig
from repro.timing.caches import BimodalPredictor, MemoryHierarchy

_MEM_CODE = FU_CODE[FUClass.MEM]
_SIMD_CODE = FU_CODE[FUClass.SIMD]
_INT_CODE = FU_CODE[FUClass.INT]
_VMEM_CODE = CAT_CODE[Category.VMEM]


# ---------------------------------------------------------------------------
# Shared pre-pass: pure per-instruction derivations over the columns.
#
# Everything here is a function of the trace and the configuration alone
# -- independent of the issue cycles the constraint loop later assigns --
# so the scalar path and the batch path (:mod:`repro.timing.batch`)
# compute them through the same code.
# ---------------------------------------------------------------------------


def simd_occupancies(cols, config: CoreConfig) -> np.ndarray:
    """Per-instruction SIMD functional-unit occupancy, vectorised.

    ``ceil(rows / lanes)`` lane-limited cycles plus the vector start-up
    charge for multi-row instructions (the vector-lane model of Fig. 2).
    """
    rows64 = cols.rows.astype(np.int64)
    occ = np.maximum(1, -(-rows64 // config.lanes))
    return occ + np.where(rows64 > 1, config.vector_startup, 0)


def port_occupancies(cols, use_vec: np.ndarray, mem: MemHierConfig) -> np.ndarray:
    """Per-instruction memory-port occupancy in cycles, vectorised.

    Scalar and MMX accesses move ``l1.port_bytes`` per cycle through an
    L1 port.  Vector-cache accesses (``use_vec``) move ``l2.port_bytes``
    per cycle at unit stride; any other stride moves
    ``strided_rows_per_cycle`` 64-bit elements per cycle ("at 1 element
    per cycle for any other stride", §III-D), so a 128-bit row costs
    two.  Only the slots of memory instructions are meaningful.
    """
    row_bytes = cols.row_bytes.astype(np.int64)
    occ = np.maximum(1, -(-np.maximum(row_bytes, 1) // mem.l1.port_bytes))
    if not use_vec.any():
        return occ
    rows = cols.rows.astype(np.int64)
    unit = np.maximum(1, -(-(rows * row_bytes) // mem.l2.port_bytes))
    elements = rows * np.maximum(1, -(-row_bytes // 8))
    strided = np.maximum(
        1, (elements / mem.strided_rows_per_cycle).astype(np.int64)
    )
    unit_stride = cols.stride.astype(np.int64) == row_bytes
    return np.where(use_vec, np.where(unit_stride, unit, strided), occ)


def vector_access_mask(cols, vector_memory: bool) -> np.ndarray:
    """Boolean mask of accesses served by the L2 vector-cache port."""
    if vector_memory:
        return (cols.fu == _MEM_CODE) & (cols.category == _VMEM_CODE)
    return np.zeros(len(cols), dtype=bool)


def branch_outcome_mask(cols, bpred: BimodalPredictor) -> bytearray:
    """Per-instruction mispredict flags from one predictor walk.

    The bimodal predictor is a pure function of the trace's
    (site, taken) sequence -- configuration-independent -- so a stack of
    configurations timing the same trace shares one walk.
    """
    n_total = len(cols)
    mispredict = bytearray(n_total)
    taken_l = cols.taken.tolist()
    pc_l = cols.pc.tolist()
    for i in np.nonzero(cols.is_branch)[0].tolist():
        if not bpred.predict_and_update(pc_l[i], taken_l[i]):
            mispredict[i] = 1
    return mispredict


def category_tallies(cat: np.ndarray, commits: np.ndarray):
    """Fig. 6/7 per-category instruction and cycle tallies, vectorised.

    Keys appear in first-occurrence order -- the golden JSON artefacts
    compare byte-for-byte, so ordering is part of the contract.
    """
    diffs = np.diff(commits, prepend=0)
    n_cats = len(CATEGORIES)
    instr_counts = np.bincount(cat, minlength=n_cats)
    cycle_sums = np.bincount(cat, weights=diffs, minlength=n_cats)
    present, first_idx = np.unique(cat, return_index=True)
    ordered = present[np.argsort(first_idx)]
    cat_instrs = {
        CATEGORIES[int(code)].value: int(instr_counts[code]) for code in ordered
    }
    cat_cycles = {
        CATEGORIES[int(code)].value: int(cycle_sums[code]) for code in ordered
    }
    return cat_instrs, cat_cycles


@dataclass
class SimResult:
    """Timing-simulation outcome for one trace on one configuration."""

    config_name: str
    cycles: int
    instructions: int
    cat_instructions: Dict[str, int] = field(default_factory=dict)
    cat_cycles: Dict[str, int] = field(default_factory=dict)
    branch_lookups: int = 0
    branch_mispredicts: int = 0
    l1_accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def scalar_cycles(self) -> int:
        return sum(
            self.cat_cycles.get(cat, 0) for cat in ("smem", "sarith", "sctrl")
        )

    @property
    def vector_cycles(self) -> int:
        return sum(self.cat_cycles.get(cat, 0) for cat in ("vmem", "varith"))


class CoreModel:
    """Trace-driven timing model for one processor configuration."""

    def __init__(
        self, config: CoreConfig, mem_config: Optional[MemHierConfig] = None
    ) -> None:
        self.config = config
        self.mem_config = mem_config or self._default_mem_config(config)
        self.hier = MemoryHierarchy(self.mem_config)
        self.bpred = BimodalPredictor()
        #: Capability, not a name check: machines whose geometry declares
        #: the matrix flag route SIMD memory through the vector cache.
        self.vector_memory = config.vector_memory

    @staticmethod
    def _default_mem_config(config: CoreConfig) -> MemHierConfig:
        """The registry hierarchy of ``config``'s machine at its width.

        Registered machine names (including non-paper widths such as
        16-way) resolve through :func:`repro.machines.get_machine`;
        ad-hoc names fall back to the paper hierarchy of the width.
        """
        from repro.machines import get_machine, is_registered

        name = config.isa if is_registered(config.isa) else "mmx64"
        return get_machine(name, config.way).mem

    def run(self, trace) -> SimResult:
        """Time one dynamic trace (columnar IR or any record iterable)."""
        cols = as_columns(trace)
        cfg = self.config
        n_total = len(cols)
        fu = cols.fu

        # --- pure per-instruction derivations (batched) ----------------
        occ = simd_occupancies(cols, cfg)

        # Memory accesses: cache tag state evolves in trace order and is
        # independent of issue timing, so resolve every access up front.
        use_vec = vector_access_mask(cols, self.vector_memory)
        use_vec_l = use_vec.tolist()
        hier = self.hier
        mem_lat_l = hier.resolve_accesses(cols, use_vec)
        mem_occ_l = port_occupancies(cols, use_vec, self.mem_config).tolist()

        # Branch outcomes: the bimodal predictor is a pure function of
        # the (site, taken) sequence, also trace-ordered.
        bpred = self.bpred
        mispredict = branch_outcome_mask(cols, bpred)

        # --- sequential constraint loop over precomputed arrays --------
        fu_l = fu.tolist()
        lat_l = cols.latency.tolist()
        occ_l = occ.tolist()
        src_off_l = cols.src_off.tolist()
        src_ids_l = cols.src_ids.tolist()
        dst_off_l = cols.dst_off.tolist()
        dst_ids_l = cols.dst_ids.tolist()

        reg_ready: Dict[int, int] = {}
        # Per-cycle issue counters as flat lists indexed by cycle: the
        # loop touches them on every instruction, and list indexing
        # beats dict hashing.  Realistic traces finish within a few
        # cycles per instruction, so the dense window covers them; a
        # pathological trace (long chains of main-memory misses can
        # push issue cycles to ~500 per instruction) spills into dicts
        # beyond the window instead of allocating O(cycles) lists.
        cap = 4 * n_total + 2048
        issue_total = [0] * cap
        class_int = [0] * cap
        class_fp = [0] * cap
        class_simd = [0] * cap
        spill_issue: Dict[int, int] = {}
        spill_class: Dict[int, int] = {}  # keyed t * 4 + class code

        simd_units = [0] * cfg.simd_fu_groups
        l1_ports = [0] * cfg.mem_ports
        l2_ports = [0] * self.mem_config.l2.ports
        rob_size = cfg.rob_size
        commit_ring = [0] * rob_size
        simd_inflight = cfg.simd_inflight
        simd_ring = [0] * simd_inflight
        simd_writes = 0
        fetch_cycle = 1
        fetched = 0
        fetch_barrier = 0
        last_commit = 0
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        branch_penalty = cfg.branch_penalty
        int_fus = cfg.int_fus
        fp_fus = cfg.fp_fus
        simd_issue = cfg.simd_issue
        commits = [0] * n_total

        for i in range(n_total):
            # ----- fetch / dispatch --------------------------------------
            if fetch_cycle < fetch_barrier:
                fetch_cycle = fetch_barrier
                fetched = 0
            if fetched >= fetch_width:
                fetch_cycle += 1
                fetched = 0
                if fetch_cycle < fetch_barrier:
                    fetch_cycle = fetch_barrier
            # ROB occupancy: instruction i needs instr (i - rob_size) gone.
            if i >= rob_size:
                rob_free = commit_ring[i % rob_size] + 1
                if rob_free > fetch_cycle:
                    fetch_cycle = rob_free
                    fetched = 0
            # SIMD physical registers: writers in flight are bounded.
            fui = fu_l[i]
            d0 = dst_off_l[i]
            d1 = dst_off_l[i + 1]
            is_simd_writer = fui == _SIMD_CODE and d1 > d0
            if is_simd_writer and simd_writes >= simd_inflight:
                free_at = simd_ring[simd_writes % simd_inflight] + 1
                if free_at > fetch_cycle:
                    fetch_cycle = free_at
                    fetched = 0
            dispatch = fetch_cycle
            fetched += 1

            # ----- operand ready ------------------------------------------
            ready = dispatch
            s0 = src_off_l[i]
            s1 = src_off_l[i + 1]
            if s1 > s0:
                for src in src_ids_l[s0:s1]:
                    when = reg_ready.get(src)
                    if when is not None and when > ready:
                        ready = when

            # ----- issue: total width, class slots, unit occupancy --------
            t = ready
            if fui == _MEM_CODE:
                ports = l2_ports if use_vec_l[i] else l1_ports
                if len(ports) == 1:
                    # Single port: its next-free time is the only choice.
                    while True:
                        used = issue_total[t] if t < cap else spill_issue.get(t, 0)
                        if used >= fetch_width:
                            t += 1
                            continue
                        if ports[0] > t:
                            t = ports[0]
                            continue
                        break
                    port = 0
                else:
                    while True:
                        used = issue_total[t] if t < cap else spill_issue.get(t, 0)
                        if used >= fetch_width:
                            t += 1
                            continue
                        free_at = min(ports)
                        if free_at > t:
                            t = free_at
                            continue
                        port = ports.index(free_at)
                        break
                ports[port] = t + mem_occ_l[i]
                complete = t + mem_lat_l[i] + mem_occ_l[i] - 1
            elif fui == _SIMD_CODE:
                occupancy = occ_l[i]
                if len(simd_units) == 1:
                    while True:
                        used = issue_total[t] if t < cap else spill_issue.get(t, 0)
                        if used >= fetch_width:
                            t += 1
                            continue
                        slots = class_simd[t] if t < cap else spill_class.get(t * 4 + 2, 0)
                        if slots >= simd_issue:
                            t += 1
                            continue
                        if simd_units[0] > t:
                            t = simd_units[0]
                            continue
                        break
                    unit = 0
                else:
                    while True:
                        used = issue_total[t] if t < cap else spill_issue.get(t, 0)
                        if used >= fetch_width:
                            t += 1
                            continue
                        slots = class_simd[t] if t < cap else spill_class.get(t * 4 + 2, 0)
                        if slots >= simd_issue:
                            t += 1
                            continue
                        free_at = min(simd_units)
                        if free_at > t:
                            t = free_at
                            continue
                        unit = simd_units.index(free_at)
                        break
                if t < cap:
                    class_simd[t] += 1
                else:
                    spill_class[t * 4 + 2] = spill_class.get(t * 4 + 2, 0) + 1
                simd_units[unit] = t + occupancy
                complete = t + lat_l[i] + occupancy - 1
            else:
                if fui == _INT_CODE:
                    fu_cap = int_fus
                    fu_class = class_int
                    ckey = 0
                else:
                    fu_cap = fp_fus
                    fu_class = class_fp
                    ckey = 1
                while True:
                    used = issue_total[t] if t < cap else spill_issue.get(t, 0)
                    if used >= fetch_width:
                        t += 1
                        continue
                    slots = fu_class[t] if t < cap else spill_class.get(t * 4 + ckey, 0)
                    if slots >= fu_cap:
                        t += 1
                        continue
                    break
                if t < cap:
                    fu_class[t] += 1
                else:
                    spill_class[t * 4 + ckey] = spill_class.get(t * 4 + ckey, 0) + 1
                complete = t + lat_l[i]
            if t < cap:
                issue_total[t] += 1
            else:
                spill_issue[t] = spill_issue.get(t, 0) + 1

            # ----- branches (mispredict is only ever set on branches) -----
            if mispredict[i]:
                barrier = complete + branch_penalty
                if barrier > fetch_barrier:
                    fetch_barrier = barrier

            # ----- writeback ----------------------------------------------
            if d1 > d0:
                for dst in dst_ids_l[d0:d1]:
                    reg_ready[dst] = complete

            # ----- in-order commit ----------------------------------------
            commit = complete
            if commit < last_commit:
                commit = last_commit
            if i >= commit_width:
                floor = commit_ring[(i - commit_width) % rob_size] + 1
                if commit < floor:
                    commit = floor
            commit_ring[i % rob_size] = commit
            if is_simd_writer:
                simd_ring[simd_writes % simd_inflight] = commit
                simd_writes += 1
            commits[i] = commit
            last_commit = commit

        # --- Fig. 6/7 category tallies (vectorised) --------------------
        cat_instrs, cat_cycles = category_tallies(
            cols.category, np.asarray(commits, dtype=np.int64)
        )

        hier_stats = hier.stats()
        return SimResult(
            config_name=cfg.name,
            cycles=last_commit,
            instructions=n_total,
            cat_instructions=cat_instrs,
            cat_cycles=cat_cycles,
            branch_lookups=bpred.lookups,
            branch_mispredicts=bpred.mispredicts,
            l1_accesses=hier_stats["l1"].accesses,
            l1_misses=hier_stats["l1"].misses,
            l2_accesses=hier_stats["l2"].accesses,
            l2_misses=hier_stats["l2"].misses,
        )
