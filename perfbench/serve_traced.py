"""Run ``python -m repro serve`` with the benchmark's layer tracing installed.

    python3 perfbench/serve_traced.py --dump SPANS.json -- serve [serve args]

Installs the same wrappers as a traced in-process run, plus per-endpoint
server latency, serves until SIGTERM/SIGINT, then writes every span and
the process's own counters to ``--dump``.
"""

from __future__ import annotations

import sys
import time

from common import engine_counts, kernel_available  # puts src/ on sys.path
import layers


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--dump" or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    dump, serve_args = sys.argv[2], sys.argv[4:]
    started = time.perf_counter()
    import repro.__main__ as cli
    import repro.experiments  # noqa: F401 -- imported lazily by requests
    import_s = time.perf_counter() - started

    tracer = layers.install(layers.Tracer())
    layers.install_serve(tracer)
    code = cli.main(serve_args)
    emulations, simulations = engine_counts()
    tracer.dump(dump, {
        "import.s": import_s,
        "engine.emulations": emulations,
        "engine.simulations": simulations,
        "timing.kernel_available": kernel_available(),
    })
    return code


if __name__ == "__main__":
    raise SystemExit(main())
