"""Ablation: vector lane count of the matrix datapath.

The paper presents the lane organisation (its Fig. 2) as the
mechanism that scales MOM without register-file complexity.  This sweep
varies the lanes of the 2-way VMMX128 machine and regenerates the kernel
speed-ups, showing where the lane count stops paying (the limit is the
vector length the kernels can reach, §II-B).
"""

from repro.experiments.report import render_table
from repro.sweep import SweepPoint, default_jobs, sweep

KERNELS_UNDER_TEST = ("idct", "motion1", "ycc", "h2v2", "ltppar")
LANES = (1, 2, 4, 8, 16)


def _point(kernel, lanes):
    return SweepPoint(
        kernel=kernel, version="vmmx128", way=2,
        core_overrides={"lanes": lanes},
    )


def test_ablation_lane_count(benchmark):
    def work():
        report = sweep(
            [_point(k, lanes) for k in KERNELS_UNDER_TEST for lanes in LANES],
            jobs=default_jobs(),
        )
        return {
            kernel: {
                lanes: report[_point(kernel, lanes)].result.cycles
                for lanes in LANES
            }
            for kernel in KERNELS_UNDER_TEST
        }

    data = benchmark.pedantic(work, iterations=1, rounds=1)
    rows = []
    for kernel in KERNELS_UNDER_TEST:
        base = data[kernel][1]
        rows.append([kernel] + [round(base / data[kernel][l], 2) for l in LANES])
    print()
    print(
        render_table(
            ("kernel",) + tuple(f"{l} lanes" for l in LANES),
            rows,
            title="Ablation: VMMX128 speed-up vs lane count (1 lane = 1.0)",
        )
    )
    for kernel in KERNELS_UNDER_TEST:
        assert data[kernel][4] <= data[kernel][1], "4 lanes must not be slower"
    # Diminishing returns: the 8->16 lane step gains less than 1->2.
    for kernel in ("idct", "ltppar"):
        gain_low = data[kernel][1] / data[kernel][2]
        gain_high = data[kernel][8] / data[kernel][16]
        assert gain_high <= gain_low + 0.05
