"""Plumbing shared by the workloads: paths, reporting, the base class."""

from __future__ import annotations

import array
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402

#: Seconds one speed unit takes at the reference speed: roughly an
#: uncontended 2.0 GHz Sapphire Rapids vCPU.  Reported times are scaled
#: to this speed (see SpeedSampler).
REF_UNIT_S = 125e-6


def _speed_unit() -> int:
    """A fixed piece of interpreter work that allocates no containers.

    Container allocations would shift the measured process's garbage
    collections, and with them its peak memory.
    """
    acc = 0
    for i in range(1000):
        acc = (acc + i * 7) & 0xFFFF
        if acc & 1:
            acc ^= i
    return acc


class SpeedSampler:
    """Samples how fast this host runs Python while the work is measured.

    On a shared VM the host's other tenants slow a vCPU by up to ~1.8x,
    in bursts from under a second to minutes, so raw wall time moves with
    the neighbours rather than the code.  A daemon thread runs one fixed
    speed unit every ``period`` seconds (about 1% of the time) and
    records its duration.  :meth:`scale` turns measured intervals into
    ``REF_UNIT_S / mean unit time`` over them: multiply a time by it
    (divide a rate) to get the value at the reference speed.
    """

    def __init__(self, period: float = 0.02) -> None:
        self.period = period
        # Flat float arrays and a plain sleep: the sampler allocates no
        # objects the measured process's garbage collector would count.
        self.starts = array.array("d")
        self.durations = array.array("d")
        self._running = True
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        clock = time.perf_counter
        while self._running:
            time.sleep(self.period)
            started = clock()
            _speed_unit()
            self.durations.append(clock() - started)
            self.starts.append(started)

    def scale(self, spans, default: float = 1.0) -> float:
        """Reference-speed factor over the ``(start, end)`` spans.

        ``default`` when no sample fell inside them.
        """
        durations = [
            d for t, d in zip(self.starts, self.durations)
            if any(a <= t <= b for a, b in spans)
        ]
        if not durations:
            return default
        # A unit the OS preempted measures the scheduler, not the CPU.
        cut = 4 * statistics.median(durations)
        kept = [d for d in durations if d <= cut]
        return REF_UNIT_S / (sum(kept) / len(kept))

    def stop(self) -> None:
        self._running = False
        self._thread.join()


def say(name, value, unit, n=None, raw=None):
    tail = f" (n={n})" if n is not None else ""
    if raw is not None:
        tail += f" [raw {raw:.6g} {unit}]"
    print(f"metric {name} = {value:.6g} {unit}{tail}", flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fig4_error_pct(speedups) -> float:
    """Mean absolute error of the model's Fig. 4 speed-ups vs the paper's."""
    from repro.experiments.figures import FIG4_PAPER

    errors = [
        abs(speedups[kernel][isa] - paper) / paper
        for (kernel, isa), paper in FIG4_PAPER.items()
    ]
    return 100.0 * sum(errors) / len(errors)


def engine_counts():
    from repro.sweep import emulation_count, simulation_count

    return emulation_count(), simulation_count()


def kernel_available() -> float:
    from repro.timing.batch import load_kernel

    return 1.0 if load_kernel() is not None else 0.0


class Workload:
    """Shared plumbing: a run directory, owned stores, the tracer."""

    def __init__(self, args, run_dir: Path, import_s: float,
                 speed: SpeedSampler) -> None:
        self.args = args
        self.run_dir = run_dir
        self.import_s = import_s
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self._stores = 0

    def new_store_dir(self) -> str:
        self._stores += 1
        path = self.run_dir / f"store-{self._stores}"
        path.mkdir()
        # Nothing may fall back to the user's ~/.cache store.
        os.environ["REPRO_STORE"] = str(path)
        return str(path)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", flush=True)
        return ok

    def scaled(self, span) -> float:
        """One span's length at the reference speed sampled during it."""
        return (span[1] - span[0]) * self.speed.scale([span])

    def scaled_median(self, groups, name: str, window) -> float:
        """Median over ``groups`` of spans of their mean length, scaled.

        Each group is scaled by the speed sampled during its spans; one
        too short to hold a sample takes the speed over the whole
        ``window``.  Grouping short spans (warm replays) averages out
        sub-second host noise before the median.  Printed as ``name``.
        """
        whole = self.speed.scale([window])
        means = [sum(b - a for a, b in group) / len(group) for group in groups]
        value = statistics.median(
            mean * self.speed.scale(group, default=whole)
            for mean, group in zip(means, groups)
        )
        say(name, value, "s", len(groups), raw=statistics.median(means))
        return value

    def overhead(self, untraced, traced):
        """``tracing.overhead_s``: traced minus untraced cold span."""
        say("cold_s (untraced)", self.scaled(untraced), "s", 1,
            raw=untraced[1] - untraced[0])
        say("cold_s (traced)", self.scaled(traced), "s", 1,
            raw=traced[1] - traced[0])
        return {"tracing.overhead_s": self.scaled(traced) - self.scaled(untraced)}

    def start_tracing(self):
        self.tracer = layers.install(layers.Tracer())
        return self.tracer

    def per_layer(self, counters):
        counters.setdefault("import.s", self.import_s)
        counters.setdefault("timing.kernel_available", kernel_available())
        metrics = layers.layer_metrics(self.tracer, counters)
        spans_dir = BUILD / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        self.tracer.dump(str(spans_dir / f"{self.args.workload}.json"))
        return metrics

    def setup(self) -> None:
        from repro.timing.batch import load_kernel

        load_kernel()

    def close(self) -> None:
        pass
