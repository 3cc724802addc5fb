"""The ``serve-mix`` workload: ``python -m repro serve`` under a request mix.

A closed loop from one process: one event-loop thread drives two
keep-alive connections, each sending its next request only when the
previous one completed.  The workload seed fixes the request sequence.
Requests come in shuffled blocks of a fixed mix, so every seed sends the
same kinds in the same proportions:

* ``hit`` -- ``GET /v1/point`` for one of the stored seed-0 points;
* ``retime`` -- ``POST /v1/retime`` with four seeded variants (way and a
  ``rob_size`` override) of a stored trace, never repeated, so each one
  really re-times;
* ``backfill`` -- a point at an unseen seed: ``202``, poll
  ``/v1/jobs/<id>``, then the re-issued query's ``200``, timed from the
  first send to that final ``200``;
* ``artifact`` -- ``GET /v1/artifact/fig4``.
"""

from __future__ import annotations

import asyncio
import json
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import checks
import layers
from common import HERE, ROOT, Workload, fig4_error_pct, say

#: One block of the request mix: (kind, requests per block).
BLOCK = (("hit", 85), ("retime", 10), ("backfill", 3), ("artifact", 2))
TINY_BLOCK = (("hit", 14), ("retime", 3), ("backfill", 2), ("artifact", 1))
CONNECTIONS = 2
VARIANTS = 4
RETIME_WAYS = (1, 2, 4, 8)
#: Delay between backfill job polls.
POLL_S = 0.005
#: Requests per phase of a traced run (fixed, so its counts repeat).
TRACED_REQUESTS = 1000
TINY_REQUESTS = 40
SERVER_TIMEOUT_S = 60.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Plan:
    """The seeded request sequence, generated a block at a time."""

    def __init__(self, seed: int, points, pairs, block) -> None:
        self.rng = random.Random(seed)
        self.points = points
        self.pairs = pairs
        self.block = block
        self.retimes = 0
        self.backfills = 0
        self.used_seeds = set()
        self.used_retimes = set()
        self.queue: deque = deque()

    def next(self):
        if not self.queue:
            kinds = [kind for kind, n in self.block for _ in range(n)]
            self.rng.shuffle(kinds)
            self.queue.extend(getattr(self, f"_{kind}")() for kind in kinds)
        return self.queue.popleft()

    def _hit(self):
        return ("hit", self.rng.randrange(len(self.points)))

    def _artifact(self):
        return ("artifact",)

    def _retime(self):
        from repro.sweep import SweepPoint, point_key

        # Kernels rotate in a fixed order so every seed re-times the
        # same trace mix; the seed draws the variants.
        kernel, version = self.pairs[self.retimes % len(self.pairs)]
        self.retimes += 1
        while True:
            variants = tuple(
                (self.rng.choice(RETIME_WAYS), self.rng.randrange(16, 257))
                for _ in range(VARIANTS)
            )
            if (kernel, version, variants) not in self.used_retimes:
                break
        self.used_retimes.add((kernel, version, variants))
        body = json.dumps({
            "kernel": kernel, "version": version, "seed": 0,
            "variants": [{"way": w, "core": {"rob_size": r}} for w, r in variants],
        }).encode()
        keys = [
            point_key(SweepPoint(kernel=kernel, version=version, way=w, seed=0,
                                 core_overrides={"rob_size": r}))
            for w, r in variants
        ]
        return ("retime", body, keys)

    def _backfill(self):
        from repro.machines import WAYS
        from repro.sweep import SweepPoint, point_key

        n = self.backfills
        self.backfills += 1
        kernel, version = self.pairs[n % len(self.pairs)]
        way = WAYS[(n // len(self.pairs)) % len(WAYS)]
        while True:
            seed = self.rng.randrange(1, 2 ** 31)
            if seed not in self.used_seeds:
                break
        self.used_seeds.add(seed)
        point = SweepPoint(kernel=kernel, version=version, way=way, seed=seed)
        target = (f"/v1/point?kernel={kernel}&version={version}"
                  f"&way={way}&seed={seed}")
        return ("backfill", target, point_key(point), point)


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, method: str, target: str, body: bytes = b""):
        head = (f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Server:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, store: str, run_dir: Path, dump: str = None) -> None:
        serve_args = ["serve", "--store", store, "--port", "0", "--quiet"]
        if dump is None:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        else:
            # The benchmark's own launcher: same server, traced layers.
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--dump", dump, "--"] + serve_args
        self.log = open(run_dir / f"server-{time.monotonic_ns()}.log", "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, text=True, cwd=str(ROOT),
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split()[2][len("http://"):]
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class ServeMix(Workload):
    """Closed-loop HTTP load on ``python -m repro serve``."""

    def setup(self) -> None:
        super().setup()
        from repro.sweep import full_points, point_key, sweep
        from repro.sweep.store import ResultStore, kernel_timing_to_dict

        points = full_points(0)
        if self.args.tiny:
            points = [p for p in points if p.kernel == points[0].kernel]
        self.store_dir = self.new_store_dir()
        report = sweep(points, jobs=1, store=ResultStore(self.store_dir))
        self.targets = [
            f"/v1/point?kernel={p.kernel}&version={p.version}&way={p.way}&seed=0"
            for p in points
        ]
        self.expected = [
            checks.expected_point_body(point_key(p), p, kernel_timing_to_dict(report[p]))
            for p in points
        ]
        self.pairs = sorted({(p.kernel, p.version) for p in points})
        self.artifact = "table3" if self.args.tiny else "fig4"
        self.golden = checks.golden_bytes(self.artifact)
        self.plan = Plan(self.args.seed, points, self.pairs,
                         TINY_BLOCK if self.args.tiny else BLOCK)
        self.server = Server(self.store_dir, self.run_dir)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None

    # -- one phase of load ---------------------------------------------

    async def _phase(self, deadline, budget):
        stats = {"hit": [], "retime": [], "backfill": [], "artifact": [],
                 "instr": 0, "compute_s": 0.0, "issued": 0}
        conns = [Connection(self.server.host, self.server.port)
                 for _ in range(CONNECTIONS)]
        for conn in conns:
            await conn.open()

        async def drive(conn):
            while True:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                if budget is not None and stats["issued"] >= budget:
                    return
                stats["issued"] += 1
                await self._perform(conn, self.plan.next(), stats)

        started = time.perf_counter()
        await asyncio.gather(*(drive(conn) for conn in conns))
        stats["span"] = (started, time.perf_counter())
        stats["elapsed"] = stats["span"][1] - started
        status, body = await conns[0].request("GET", "/metrics")
        stats["metrics"] = json.loads(body) if status == 200 else {}
        for conn in conns:
            await conn.close()
        return stats

    async def _perform(self, conn, item, stats) -> None:
        kind = item[0]
        started = time.perf_counter()
        if kind == "hit":
            status, body = await conn.request("GET", self.targets[item[1]])
            stats["hit"].append(time.perf_counter() - started)
            self.check(status == 200 and checks.point_body_ok(body, self.expected[item[1]]),
                       f"hit {self.targets[item[1]]}: status {status}")
        elif kind == "retime":
            status, body = await conn.request("POST", "/v1/retime", item[1])
            elapsed = time.perf_counter() - started
            ok, instr = checks.retime_ok(body, item[2]) if status == 200 else (False, 0)
            stats["retime"].append(elapsed)
            stats["instr"] += instr
            stats["compute_s"] += elapsed
            self.check(ok, f"retime: status {status}")
        elif kind == "backfill":
            _, target, key, point = item
            status, body = await conn.request("GET", target)
            deadline = started + SERVER_TIMEOUT_S
            while status == 202 and time.perf_counter() < deadline:
                await asyncio.sleep(POLL_S)
                poll_status, poll = await conn.request("GET", f"/v1/jobs/{key}")
                state = json.loads(poll).get("state") if poll_status == 200 else "failed"
                if state == "failed":
                    break
                if state == "done":
                    status, body = await conn.request("GET", target)
            elapsed = time.perf_counter() - started
            ok, instr = checks.backfill_ok(body, key, point) if status == 200 else (False, 0)
            stats["backfill"].append(elapsed)
            stats["instr"] += instr
            stats["compute_s"] += elapsed
            self.check(ok, f"backfill {target}: status {status}")
        else:
            status, body = await conn.request("GET", f"/v1/artifact/{self.artifact}")
            stats["artifact"].append(time.perf_counter() - started)
            self.check(status == 200 and body == self.golden,
                       f"artifact {self.artifact}: status {status}")
            if status == 200 and self.artifact == "fig4":
                stats["fig4_err"] = fig4_error_pct(json.loads(body))

    def phase(self, seconds=None, budget=None):
        deadline = time.perf_counter() + seconds if seconds is not None else None
        stats = asyncio.run(self._phase(deadline, budget))
        stats["peak_rss_mb"] = self.server.peak_rss_mb()
        return stats

    # -- the run ----------------------------------------------------------

    def cold_s(self, stats) -> float:
        """Backfill p50 at the reference speed sampled over the phase."""
        return statistics.median(stats["backfill"]) * self.speed.scale([stats["span"]])

    def end_to_end(self, stats):
        """The shared end-to-end names: cold = backfill, warm = hit."""
        scale = self.speed.scale([stats["span"]])
        rate = stats["instr"] / stats["compute_s"]
        metrics = {
            "cold_s": self.cold_s(stats),
            "warm_s": statistics.median(stats["hit"]) * scale,
            "sim_instr_per_s": rate / scale,
            "peak_rss_mb": stats["peak_rss_mb"],
        }
        say("cold_s", metrics["cold_s"], "s", len(stats["backfill"]),
            raw=statistics.median(stats["backfill"]))
        say("warm_s", metrics["warm_s"], "s", len(stats["hit"]),
            raw=statistics.median(stats["hit"]))
        say("sim_instr_per_s", metrics["sim_instr_per_s"], "1/s",
            len(stats["backfill"]) + len(stats["retime"]), raw=rate)
        return metrics

    def report(self, stats) -> None:
        done = sum(len(stats[k]) for k in ("hit", "retime", "backfill", "artifact"))
        say("serve_rps", done / stats["elapsed"], "1/s", done)
        say("hit_p50_ms", 1000 * percentile(stats["hit"], 50), "ms", len(stats["hit"]))
        say("hit_p99_ms", 1000 * percentile(stats["hit"], 99), "ms", len(stats["hit"]))
        say("retime_p50_ms", 1000 * percentile(stats["retime"], 50), "ms",
            len(stats["retime"]))
        say("retime_p90_ms", 1000 * percentile(stats["retime"], 90), "ms",
            len(stats["retime"]))
        say("backfill_p50_ms", 1000 * percentile(stats["backfill"], 50), "ms",
            len(stats["backfill"]))
        counters = stats["metrics"].get("requests_by_status", {})
        print(f"server requests_by_status {json.dumps(counters, sort_keys=True)}",
              flush=True)

    @staticmethod
    def serve_counters(stats):
        scrape = stats["metrics"]

        def hit_frac(cache):
            got = scrape.get("cache", {}).get(cache, {})
            lookups = got.get("hits", 0) + got.get("misses", 0)
            return got.get("hits", 0) / lookups if lookups else 0.0

        return {
            "serve.payload_cache.hit_frac": hit_frac("payload"),
            "serve.trace_cache.hit_frac": hit_frac("trace"),
            "serve.coalesced": scrape.get("coalesce", {}).get("coalesced", 0),
            "serve.backfills": scrape.get("counters", {}).get("backfills_enqueued", 0),
        }

    def run(self):
        if self.args.tiny:
            budget, seconds = TINY_REQUESTS, None
        elif self.args.trace:
            budget, seconds = TRACED_REQUESTS, None
        else:
            budget, seconds = None, self.args.seconds
        stats = self.phase(seconds, budget)
        self.report(stats)
        if not self.args.trace:
            return self.end_to_end(stats)
        # Traced: the same store behind the traced launcher; the phase
        # above is the overhead baseline.
        self.close()
        dump = str(self.run_dir / "server-spans.json")
        self.server = Server(self.store_dir, self.run_dir, dump=dump)
        traced = self.phase(seconds, budget)
        self.report(traced)
        self.close()
        self.tracer, counters = layers.Tracer.load(dump)
        counters.update(self.serve_counters(traced))
        counters["experiments.fig4_paper_err_pct"] = traced.get("fig4_err", 0.0)
        counters["tracing.overhead_s"] = self.cold_s(traced) - self.cold_s(stats)
        return self.per_layer(counters)
