"""Record the per-seed timing digests the seed-batch workload checks against.

    python3 perfbench/record_digests.py [--seeds N]

Sweeps the full grid for seeds ``0..N-1`` (four seeds per cold sweep, as
the workload does) into a throwaway store and writes one digest per seed
-- over every point's cycles, instructions and tallies -- to
``perfbench/digests.json``.  Re-record only after an intended model
change, together with the goldens.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile

from common import BUILD  # puts src/ on sys.path
import checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=64)
    args = parser.parse_args(argv)

    from repro.sweep import ResultStore, clear_memory_caches, full_points, sweep
    from repro.sweep.store import kernel_timing_to_dict

    BUILD.mkdir(exist_ok=True)
    digests = {}
    for first in range(0, args.seeds, 4):
        seeds = range(first, min(first + 4, args.seeds))
        points = [p for s in seeds for p in full_points(s)]
        root = tempfile.mkdtemp(prefix="digests-", dir=BUILD)
        try:
            clear_memory_caches()
            report = sweep(points, jobs=1, store=ResultStore(root))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        digests.update(checks.seed_digests(
            (p, kernel_timing_to_dict(report[p])) for p in report.points
        ))
        print(f"seeds {seeds.start}..{seeds.stop - 1} recorded", flush=True)
    ordered = {str(s): digests[str(s)] for s in range(args.seeds)}
    checks.DIGESTS.write_text(json.dumps({"seeds": ordered}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
