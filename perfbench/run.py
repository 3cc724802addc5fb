"""The repo benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metrics and bounds are
declared in ``BENCHMARK.json``; ``perfbench/README.md`` describes them.
With ``--trace 0`` the last stdout line carries every end-to-end metric,
with ``--trace 1`` every per-layer metric, as one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Each measurement runs in a fresh ``worker.py`` process.  ``setup_s`` is
the median, over several fresh processes, of the time from process start
until the workload is ready to time.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

#: Switches that force a slower reference path or inject faults: a run
#: under any of them would not measure the code users run.
REFUSED_ENV = (
    "REPRO_EMU_REFERENCE", "REPRO_TIMING_REFERENCE",
    "REPRO_TIMING_NO_KERNEL", "REPRO_FAULT_SHARD",
)
#: Fresh-process setups per untraced run (``setup_s`` is their median).
SETUP_SAMPLES = 3
#: Wall-clock budget for everything one invocation starts.
TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    # Serial, in-process sweeps: the figures read REPRO_JOBS.
    env.pop("REPRO_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The compiled timing kernel is built once per checkout, before any
    # timed setup, so no run pays the compile and others not.
    env["REPRO_TIMING_KERNEL_CACHE"] = str(BUILD / "timing-kernel")
    # Workers point this at stores they own before any use; "off" makes
    # sure nothing ever falls back to the user's ~/.cache store.
    env["REPRO_STORE"] = "off"
    return env


def prewarm_kernel(env: dict) -> None:
    code = ("from repro.timing.batch import load_kernel; "
            "raise SystemExit(0 if load_kernel() is not None else 3)")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                          timeout=120)
    if done.returncode != 0:
        print("timing kernel unavailable: batch timing falls back to Python",
              flush=True)


class Child:
    """One ``worker.py`` process, its stdout read line by line."""

    def __init__(self, args, env: dict, probe: bool, deadline: float) -> None:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        cmd += ["--probe"] if probe else []
        self.deadline = deadline
        self.started = time.perf_counter()
        # Own session: a timeout kills the worker and its server together.
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                                     cwd=str(ROOT), start_new_session=True)
        self.lines: "queue.Queue" = queue.Queue()
        #: Metric names the worker already printed.
        self.printed = set()
        self.raw_setup = None
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def next_line(self):
        try:
            return self.lines.get(timeout=max(0.0, self.deadline - time.perf_counter()))
        except queue.Empty:
            self.kill()
            raise TimeoutError("benchmark run exceeded its time budget") from None

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def run(self):
        """(setup seconds, RESULT payload or None); relays other lines."""
        setup = result = None
        while True:
            line = self.next_line()
            if line is None:
                break
            if line.startswith("READY"):
                # Scaled to the reference speed the worker sampled.
                self.raw_setup = time.perf_counter() - self.started
                setup = self.raw_setup * float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                if line.startswith("metric "):
                    self.printed.add(line.split()[1])
                print(line, flush=True)
        code = self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        if code != 0 or setup is None:
            raise RuntimeError(f"worker exited with code {code}")
        return setup, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one kernel, one seed, a few dozen requests (self-test)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIMEOUT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set", flush=True)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    BUILD.mkdir(exist_ok=True)
    env = child_env()
    prewarm_kernel(env)
    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Child(args, env, probe=True, deadline=deadline)
            setups.append(probe.run()[0])
            raw_setups.append(probe.raw_setup)
    child = Child(args, env, probe=False, deadline=deadline)
    setup, result = child.run()
    setups.append(setup)
    raw_setups.append(child.raw_setup)
    if result is None:
        print("worker printed no result", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        print(f"metric setup_s = {values['setup_s']:.6g} s (n={len(setups)}) "
              f"[raw {statistics.median(raw_setups):.6g} s]")
        child.printed.add("setup_s")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"worker did not measure {missing}", file=sys.stderr)
        return 1
    for m in declared:
        if m["name"] not in child.printed:
            print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"metric failed_frac = {failed / max(attempted, 1):.6g} ratio "
          f"(n={attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
