"""One benchmark process: set up, print ``READY``, measure, print ``RESULT``.

``run.py`` starts this once per setup probe (``--probe``: stop after
``READY``) and once for the measured run.  ``READY <scale>`` carries the
reference-speed factor over the setup.  Human-readable lines go to stdout
as ``metric <name> = <value> <unit> (n=<samples>) [raw ...]``; the last
line is ``RESULT <json>`` with the metric values and check counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from common import (  # common puts src/ on sys.path
    BUILD,
    SpeedSampler,
    Workload,
    engine_counts,
    fig4_error_pct,
    peak_rss_mb,
    say,
)
import checks

#: Consecutive seeds one seed-batch sweep covers.
BATCH_SEEDS = 4
#: Warm replays per timed block (one block per cold pass when traced).
WARM_REPS = 5


class ColdExperiments(Workload):
    """``python -m repro.experiments``: cold regenerations, warm replays."""

    def setup(self) -> None:
        super().setup()
        from repro.experiments import ARTIFACT_DATA

        self.names = (
            ["table1", "table2", "table3", "table4"] if self.args.tiny
            else list(ARTIFACT_DATA)
        )
        self.reference = None

    def regenerate(self):
        """All artefacts once, checked; returns ((start, end), outputs)."""
        from repro.experiments import artifact_json

        start = time.perf_counter()
        outputs = {name: artifact_json(name) for name in self.names}
        span = (start, time.perf_counter())
        bad = checks.golden_mismatches(outputs)
        self.check(not bad, f"artefacts differ from tests/goldens: {bad}")
        if self.reference is None:
            self.reference = outputs
        else:
            # fig4x/fig5x have no golden: every pass must repeat the first.
            self.check(outputs == self.reference, "artefacts changed between passes")
        return span, outputs

    def cold_pass(self):
        from repro.sweep import clear_memory_caches

        store = self.new_store_dir()
        clear_memory_caches()
        gc.collect()
        span, outputs = self.regenerate()
        return span, outputs, store

    def warm_block(self):
        """``WARM_REPS`` warm replays from one collected heap."""
        from repro.sweep import clear_memory_caches

        gc.collect()
        spans = []
        for _ in range(WARM_REPS):
            clear_memory_caches()
            spans.append(self.regenerate()[0])
        return spans

    @staticmethod
    def timed_instructions(store_dir: str) -> int:
        """Instructions of every point the pass timed, read from its store."""
        from repro.apps.appmodel import SCALAR_TRACE_LEN
        from repro.sweep.store import ResultStore

        store = ResultStore(store_dir)
        total = 0
        for key in store.iter_keys():
            record = store.peek(key)
            if record is None:
                continue
            if record["kind"] == "kernel-timing":
                total += record["payload"]["result"]["instructions"]
            elif record["kind"] == "scalar-ipc":
                total += SCALAR_TRACE_LEN
        return total

    def run(self):
        started = time.perf_counter()
        cold, outputs, store = self.cold_pass()
        instr = self.timed_instructions(store)
        fig4_err = (
            fig4_error_pct(json.loads(outputs["fig4"])) if "fig4" in outputs else 0.0
        )
        if not self.args.trace:
            # Two rounds of a cold regeneration and blocks of warm
            # replays, so cold_s is a median too; the last round's
            # blocks fill --seconds.
            colds = [[cold]]
            warms = [self.warm_block()]
            colds.append([self.cold_pass()[0]])
            while len(warms) < 2 or time.perf_counter() - started < self.args.seconds:
                warms.append(self.warm_block())
            window = (started, time.perf_counter())
            cold_s = self.scaled_median(colds, "cold_s", window)
            warm_s = self.scaled_median(warms, "warm_s", window)
            say("sim_instr_per_s", instr / cold_s, "1/s", len(colds))
            return {
                "cold_s": cold_s,
                "warm_s": warm_s,
                "sim_instr_per_s": instr / cold_s,
                "peak_rss_mb": peak_rss_mb(),
            }
        # Traced: the untraced cold pass above is the overhead baseline.
        tracer = self.start_tracing()
        emu0, sim0 = engine_counts()
        first = len(tracer.spans)
        traced, _, _ = self.cold_pass()
        self_sum = sum(span[3] for span in tracer.spans[first:])
        self.warm_block()
        emu1, sim1 = engine_counts()
        return self.per_layer({
            "engine.emulations": emu1 - emu0,
            "engine.simulations": sim1 - sim0,
            "experiments.fig4_paper_err_pct": fig4_err,
            "tracing.self_sum_s": self_sum,
            "tracing.unattributed_s": (traced[1] - traced[0]) - self_sum,
            **self.overhead(cold, traced),
        })


class SeedBatch(Workload):
    """A cold ``sweep`` of the full grid over four consecutive seeds."""

    def setup(self) -> None:
        super().setup()
        from repro.sweep import full_points

        seeds = range(self.args.seed, self.args.seed + (1 if self.args.tiny else BATCH_SEEDS))
        points = [p for s in seeds for p in full_points(s)]
        if self.args.tiny:
            points = [p for p in points if p.kernel == points[0].kernel]
        self.points = points
        self.recorded = checks.recorded_digests()
        self.first_digests = None

    def rep(self):
        """One cold sweep into a fresh store, then its warm replays.

        Returns the cold sweep's (start, end) span, the warm replays'
        spans, the instructions the cold sweep timed, and its report.
        """
        from repro.sweep import clear_memory_caches, sweep
        from repro.sweep.store import ResultStore, kernel_timing_to_dict

        store = ResultStore(self.new_store_dir())
        clear_memory_caches()
        # Each timed part starts from a collected heap, so the collections
        # inside it fall at the same points on every run.
        gc.collect()
        start = time.perf_counter()
        cold = sweep(self.points, jobs=1, store=store)
        cold_span = (start, time.perf_counter())
        gc.collect()
        warm_spans = []
        for _ in range(WARM_REPS):
            clear_memory_caches()
            start = time.perf_counter()
            warm = sweep(self.points, jobs=1, store=store)
            warm_spans.append((start, time.perf_counter()))

        records = [(p, kernel_timing_to_dict(cold[p])) for p in cold.points]
        digests = checks.seed_digests(records)
        self.check(cold.simulated == len(self.points), "cold sweep was not cold")
        self.check(warm.cached == len(self.points), "warm replay simulated")
        self.check(
            checks.seed_digests(
                (p, kernel_timing_to_dict(warm[p])) for p in warm.points
            ) == digests,
            "warm replay differs from the cold sweep",
        )
        if self.first_digests is None:
            self.first_digests = digests
            if not self.args.tiny:
                bad = checks.digest_mismatches(digests, self.recorded)
                self.check(not bad, f"timings differ from digests.json for seeds {bad}")
        else:
            self.check(digests == self.first_digests, "timings changed between sweeps")
        instr = sum(record["result"]["instructions"] for _, record in records)
        shutil.rmtree(store.root, ignore_errors=True)
        return cold_span, warm_spans, instr, cold

    def fig4_error(self, report) -> float:
        """Fig. 4 model error at the workload seed (from this sweep)."""
        from repro.kernels.registry import FIG4_KERNELS
        from repro.machines import ISAS

        cycles = {
            (p.kernel, p.version): report[p].result.cycles
            for p in report.points
            if p.seed == self.args.seed and p.way == 2
        }
        speedups = {
            kernel: {
                isa: cycles[(kernel, "mmx64")] / cycles[(kernel, isa)]
                for isa in ISAS
            }
            for kernel in FIG4_KERNELS
            if (kernel, "mmx64") in cycles
        }
        return fig4_error_pct(speedups) if len(speedups) == len(FIG4_KERNELS) else 0.0

    def run(self):
        started = time.perf_counter()
        if not self.args.trace:
            colds, warms, instr = [], [], 0
            while True:
                cold, warm, instr, _ = self.rep()
                colds.append([cold])
                warms.append(warm)
                if len(colds) >= 2 and time.perf_counter() - started >= self.args.seconds:
                    break
            window = (started, time.perf_counter())
            cold_s = self.scaled_median(colds, "cold_s", window)
            warm_s = self.scaled_median(warms, "warm_s", window)
            say("sim_instr_per_s", instr / cold_s, "1/s", len(colds))
            return {
                "cold_s": cold_s,
                "warm_s": warm_s,
                "sim_instr_per_s": instr / cold_s,
                "peak_rss_mb": peak_rss_mb(),
            }
        cold, _, _, _ = self.rep()
        tracer = self.start_tracing()
        emu0, sim0 = engine_counts()
        first = len(tracer.spans)
        traced, _, _, report = self.rep()
        emu1, sim1 = engine_counts()
        # Spans are appended as calls end: the traced cold sweep's own
        # span closes its part of the list.
        self_sum = 0.0
        for name, _start, _duration, self_s, _extra in tracer.spans[first:]:
            self_sum += self_s
            if name == "engine.sweep":
                break
        return self.per_layer({
            "engine.emulations": emu1 - emu0,
            "engine.simulations": sim1 - sim0,
            "experiments.fig4_paper_err_pct": self.fig4_error(report),
            "tracing.self_sum_s": self_sum,
            "tracing.unattributed_s": (traced[1] - traced[0]) - self_sum,
            **self.overhead(cold, traced),
        })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.workload != "serve-mix":
        # One vCPU for the work and the sampler thread: unpinned, the
        # sampler runs on the other vCPU whenever the work waits on I/O,
        # and measures that vCPU's neighbours instead.  (serve-mix keeps
        # both vCPUs: its server subprocess inherits the affinity.)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = SpeedSampler()
    sampling_from = time.perf_counter()

    started = time.perf_counter()
    import repro.experiments  # noqa: F401
    import repro.sweep  # noqa: F401
    if args.workload == "serve-mix":
        import repro.serve  # noqa: F401
    import_s = time.perf_counter() - started

    from serve_mix import ServeMix

    workloads = {
        "cold-experiments": ColdExperiments,
        "seed-batch": SeedBatch,
        "serve-mix": ServeMix,
    }
    BUILD.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    workload = workloads[args.workload](args, run_dir, import_s, speed)
    try:
        workload.setup()
        print(f"READY {speed.scale([(sampling_from, time.perf_counter())])}",
              flush=True)
        if args.probe:
            return 0
        metrics = workload.run()
        print("RESULT " + json.dumps({
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": metrics,
        }), flush=True)
        return 0
    finally:
        workload.close()
        speed.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
