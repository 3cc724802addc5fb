"""Outside-in per-layer tracing for the benchmark.

Nothing under ``src/`` is instrumented.  :func:`install` replaces the
public entry points of each layer -- module functions and a handful of
class methods -- with wrappers that record one span per call.  Module
functions are also replaced wherever another ``repro`` module imported
them by name, so ``from repro.timing.simulator import
simulate_trace_stack`` in the engine is traced too.

A span records its name, duration, self time (duration minus the time
covered by its direct child spans on the same thread) and a few counts
read from the call's arguments or result.  Spans stay in memory;
:func:`layer_metrics` folds them into the per-layer metrics named in
``BENCHMARK.json`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Serve endpoints whose server-side latency is reported.
SERVE_ENDPOINTS = ("point", "retime", "jobs", "artifact")

_RAISED = object()


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        #: Finished spans: (name, start, duration, self time, info).
        self.spans: List[Tuple[str, float, float, float, Any]] = []
        #: Server-side request latencies by endpoint (serve only).
        self.requests: Dict[str, List[float]] = {}
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        info: Optional[Callable[..., Any]] = None,
        skip_under: Tuple[str, ...] = (),
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``info(args, kwargs, result, children)`` returns the span's
        counts; ``result`` is ``_RAISED`` when the call raised, and
        ``children`` maps each direct child span name to
        ``[count, seconds]``.  A call made directly under a span named
        in ``skip_under`` is not recorded (its time is already that
        span's own).
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            if skip_under and stack and stack[-1][0] in skip_under:
                return fn(*args, **kwargs)
            frame = [name, 0.0, {}]
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    seen = parent[2].setdefault(name, [0, 0.0])
                    seen[0] += 1
                    seen[1] += duration
                extra = info(args, kwargs, result, frame[2]) if info else None
                tracer.spans.append(
                    (name, start, duration, duration - frame[1], extra)
                )

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str, **kw) -> None:
        """Wrap a module function everywhere ``repro`` imported it by name."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], **kw))

    def dump(self, path: str, counters: Optional[Dict[str, float]] = None) -> None:
        """Write every span, serve request latency and ``counters`` as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [list(span) for span in self.spans],
                    "requests": self.requests,
                    "counters": counters or {},
                },
                handle,
            )

    @classmethod
    def load(cls, path: str) -> Tuple["Tracer", Dict[str, float]]:
        """A tracer holding the spans of a :meth:`dump`, and its counters."""
        with open(path) as handle:
            data = json.load(handle)
        tracer = cls()
        tracer.spans = [tuple(span) for span in data["spans"]]
        tracer.requests = data["requests"]
        return tracer, data["counters"]


def _len_trace(args, kwargs, result, children):
    return 0 if result is _RAISED else len(result.trace)


def _batch_info(args, kwargs, result, children):
    seeds = kwargs["seeds"] if "seeds" in kwargs else args[2]
    fallback, fallback_s = children.get("emu.execute", (0, 0.0))
    instr = 0 if result is _RAISED else sum(len(run.trace) for run in result)
    return {"seeds": len(list(seeds)), "instr": instr,
            "fallback": fallback, "fallback_s": fallback_s}


def _stack_points(args, kwargs, result, children):
    specs = kwargs["specs"] if "specs" in kwargs else args[1]
    return len(specs)


def _batch_model_points(args, kwargs, result, children):
    # args[0] is the BatchCoreModel; a BatchTimingDivergence raised.
    return -1 if result is _RAISED else len(args[0].specs)


def _hit(args, kwargs, result, children):
    return result is not None and result is not _RAISED


def _returned(args, kwargs, result, children):
    return 0 if result is _RAISED else int(result)


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer entry point; returns ``tracer``."""
    import repro.apps.gsm
    import repro.apps.jpeg
    import repro.apps.mpeg2
    import repro.experiments  # noqa: F401 -- import every by-name user
    import repro.serve  # noqa: F401
    import repro.sweep  # noqa: F401
    from repro.isa.trace import TraceBuilder
    from repro.sweep.store import ResultStore
    from repro.timing.batch import BatchCoreModel
    from repro.timing.caches import MemoryHierarchy
    from repro.timing.core import CoreModel

    fn = tracer.patch_function
    fn("repro.kernels.base", "execute", "emu.execute", info=_len_trace)
    fn("repro.kernels.base", "execute_batch", "emu.batch", info=_batch_info)
    fn("repro.timing.simulator", "simulate_trace_stack", "timing.stack",
       info=_stack_points)
    fn("repro.timing.simulator", "simulate_kernel", "timing.simulate_kernel")
    for attr in ("sweep", "run_point", "compute_point", "compute_points",
                 "acquire_trace", "retime_stack", "lookup_point"):
        fn("repro.sweep.engine", attr, f"engine.{attr}")
    fn("repro.sweep.engine", "acquire_traces", "engine.acquire_traces",
       info=_returned)
    fn("repro.sweep.store", "trace_to_payload", "store.trace_encode")
    fn("repro.sweep.store", "trace_from_payload", "store.trace_decode")
    fn("repro.apps.runner", "run_app_profile", "apps.profile")
    fn("repro.apps.appmodel", "scalar_ipc", "apps.scalar_ipc")
    fn("repro.apps.appmodel", "make_scalar_trace", "apps.make_scalar_trace")
    fn("repro.apps.appmodel", "app_timing", "apps.app_timing")
    fn("repro.apps.appmodel", "app_instruction_counts", "apps.app_instruction_counts")
    for module, names in (
        ("repro.apps.jpeg.codec", ("encode_image", "decode_image")),
        ("repro.apps.mpeg2.codec", ("encode_video", "decode_video")),
        ("repro.apps.gsm.codec", ("encode_speech", "decode_speech")),
    ):
        for attr in names:
            fn(module, attr, "apps.codec")
    fn("repro.experiments.artifacts", "artifact_json", "experiments.compose")

    method = tracer.patch_method
    method(ResultStore, "load", "store.load", info=_hit)
    method(ResultStore, "peek", "store.peek", info=_hit,
           skip_under=("store.load", "store.stats"))
    method(ResultStore, "save", "store.save")
    method(ResultStore, "stats", "store.stats")
    method(TraceBuilder, "columns", "trace.columns")
    method(CoreModel, "run", "timing.scalar")
    method(BatchCoreModel, "run", "timing.batch", info=_batch_model_points)
    method(MemoryHierarchy, "warm", "timing.warm")
    return tracer


def install_serve(tracer: Tracer) -> None:
    """Record server-side latency per endpoint (``ServeApp.handle_request``)."""
    from repro.serve.app import ServeApp

    original = ServeApp.handle_request

    @functools.wraps(original)
    async def handle_request(self, method, target, body=b""):
        start = time.perf_counter()
        response = await original(self, method, target, body)
        endpoint = self._endpoint_name(method, target.partition("?")[0])
        tracer.requests.setdefault(endpoint, []).append(
            time.perf_counter() - start
        )
        return response

    ServeApp.handle_request = handle_request


#: Layer group of a span: the prefix before the first dot.
_GROUPS = ("emu", "trace", "timing", "apps", "engine", "store", "experiments")


def layer_metrics(tracer: Tracer, counters: Dict[str, float]) -> Dict[str, float]:
    """Fold the recorded spans into the per-layer metric values.

    ``counters`` carries what the caller measured around the traced
    phase: ``import.s``, ``engine.emulations``/``engine.simulations``
    deltas, the serve ``/metrics`` ratios, the tracing overhead and the
    model's fig4 error.  Ratios of layers that did no work read 0.
    """
    count: Dict[str, int] = {}
    total: Dict[str, float] = {}
    infos: Dict[str, list] = {}
    self_by_group = {group: 0.0 for group in _GROUPS}
    #: Time batch emulation spent on attempts that then fell back.
    wasted = 0.0
    for name, _start, duration, self_s, extra in tracer.spans:
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        if extra is not None:
            infos.setdefault(name, []).append(extra)
        self_by_group[name.split(".", 1)[0]] += self_s
        if name == "emu.batch" and extra["fallback"]:
            wasted += duration - extra["fallback_s"]

    def c(name: str) -> int:
        return count.get(name, 0)

    def s(name: str) -> float:
        return total.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    batches = infos.get("emu.batch", [])
    batch_s = s("emu.batch")
    batch_points = sum(p for p in infos.get("timing.batch", []) if p > 0)
    scalar_points = c("timing.scalar")
    loads = infos.get("store.load", [])
    peeks = infos.get("store.peek", [])
    out: Dict[str, float] = {
        "import.s": counters["import.s"],
        "emu.execute.calls": c("emu.execute"),
        "emu.execute.s": s("emu.execute"),
        "emu.execute.instr": sum(infos.get("emu.execute", [])),
        "emu.batch.calls": c("emu.batch"),
        "emu.batch.seeds": sum(b["seeds"] for b in batches),
        "emu.batch.s": batch_s,
        "emu.batch.fallback_seeds": sum(b["fallback"] for b in batches),
        "emu.batch.useful_frac": ratio(batch_s - wasted, batch_s),
        "trace.columns.calls": c("trace.columns"),
        "trace.columns.s": s("trace.columns"),
        "timing.stack.calls": c("timing.stack"),
        "timing.stack.points": sum(infos.get("timing.stack", [])),
        "timing.stack.s": s("timing.stack"),
        "timing.batch.points": batch_points,
        "timing.batch.divergences": sum(
            1 for p in infos.get("timing.batch", []) if p < 0
        ),
        "timing.batch.s": s("timing.batch"),
        "timing.scalar.points": scalar_points,
        "timing.scalar.s": s("timing.scalar"),
        "timing.warm.s": s("timing.warm"),
        "timing.batch_frac": ratio(batch_points, batch_points + scalar_points),
        "timing.kernel_available": counters["timing.kernel_available"],
        "apps.profile.codec_runs": c("apps.codec"),
        "apps.profile.s": s("apps.profile"),
        "apps.scalar_ipc.calls": c("apps.scalar_ipc"),
        "apps.scalar_ipc.computed": c("apps.make_scalar_trace"),
        "apps.scalar_ipc.s": s("apps.scalar_ipc"),
        "apps.make_scalar_trace.s": s("apps.make_scalar_trace"),
        "apps.app_timing.calls": c("apps.app_timing"),
        "apps.app_timing.s": s("apps.app_timing"),
        "engine.emulations": counters["engine.emulations"],
        "engine.simulations": counters["engine.simulations"],
        "engine.acquire_traces.filled": sum(infos.get("engine.acquire_traces", [])),
        "store.load.calls": c("store.load"),
        "store.load.hits": sum(1 for hit in loads if hit),
        "store.load.s": s("store.load"),
        "store.peek.calls": c("store.peek"),
        "store.peek.s": s("store.peek"),
        "store.save.calls": c("store.save"),
        "store.save.s": s("store.save"),
        "store.hit_frac": ratio(
            sum(1 for hit in loads + peeks if hit), len(loads) + len(peeks)
        ),
        "experiments.compose.self_s": self_by_group["experiments"],
        "experiments.fig4_paper_err_pct": counters["experiments.fig4_paper_err_pct"],
    }
    out["emu.execute.instr_per_s"] = ratio(out["emu.execute.instr"], out["emu.execute.s"])
    out["emu.batch.instr_per_s"] = ratio(
        sum(b["instr"] for b in batches), batch_s
    )
    for group in ("emu", "trace", "timing", "apps", "engine", "store"):
        out[f"{group}.self_s"] = self_by_group[group]
    for key in ("serve.payload_cache.hit_frac", "serve.trace_cache.hit_frac",
                "serve.coalesced", "serve.backfills"):
        out[key] = counters.get(key, 0.0)
    for endpoint in SERVE_ENDPOINTS:
        latencies = tracer.requests.get(endpoint)
        out[f"serve.server_p50_ms.{endpoint}"] = (
            1000.0 * statistics.median(latencies) if latencies else 0.0
        )
    out["tracing.self_sum_s"] = counters.get(
        "tracing.self_sum_s", sum(self_by_group.values())
    )
    for key in ("tracing.overhead_s", "tracing.unattributed_s"):
        out[key] = counters.get(key, 0.0)
    return out
