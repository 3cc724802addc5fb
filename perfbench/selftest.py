"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at tiny scale (one kernel, one seed, a few dozen
   requests), untraced and traced, and asserts that every metric named
   in ``BENCHMARK.json`` is emitted with its unit and that all checks
   pass.
2. Feeds each output check real output and a corrupted copy, and
   asserts it accepts the first and rejects the second.
3. Asserts the benchmark refuses to run under a reference/fault switch,
   and fails without printing a result where there are no sources.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import BUILD, HERE, ROOT  # puts src/ on sys.path
import checks

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra, env=None, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py")] + list(extra)
    done = subprocess.run(cmd, cwd=str(cwd), env=env, capture_output=True,
                          text=True, timeout=175)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else "", done


def emitted_metrics() -> None:
    for workload in SPEC["workloads"]:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, last, done = bench("--workload", workload["name"], "--seed", "0",
                                     "--seconds", "1", "--trace", str(trace), "--tiny")
            assert code == 0, (workload["name"], trace, done.stdout, done.stderr)
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            bad = checks.missing_metrics(result["metrics"], declared)
            assert not bad, (workload["name"], trace, bad)
            print(f"ok: {workload['name']} --trace {trace}: "
                  f"{len(declared)} metrics, {result['attempted']} checks")


def corrupt(data: bytes) -> bytes:
    """Flip one digit (JSON stays well-formed)."""
    for i, ch in enumerate(data):
        if chr(ch).isdigit() and i > len(data) // 3:
            return data[:i] + (b"1" if ch != ord("1") else b"2") + data[i + 1:]
    raise AssertionError("no digit to corrupt")


def checks_reject_corruption() -> None:
    from repro.experiments import artifact_json
    from repro.serve import ServeApp
    from repro.sweep import (
        ResultStore, SweepPoint, clear_memory_caches, full_points, point_key, sweep,
    )
    from repro.sweep.store import kernel_timing_to_dict

    table = artifact_json("table3")
    assert checks.golden_mismatches({"table3": table}) == []
    bad = corrupt(table.encode()).decode()
    assert checks.golden_mismatches({"table3": bad}) == ["table3"]

    root = tempfile.mkdtemp(prefix="selftest-", dir=BUILD)
    try:
        os.environ["REPRO_STORE"] = root
        store = ResultStore(root)
        clear_memory_caches()
        report = sweep(full_points(0), jobs=1, store=store)
        records = [(p, kernel_timing_to_dict(report[p])) for p in report.points]
        digests = checks.seed_digests(records)
        assert checks.digest_mismatches(digests, checks.recorded_digests()) == []
        point, record = records[0]
        record = json.loads(json.dumps(record))
        record["result"]["cat_cycles"]["smem"] = record["result"]["cat_cycles"].get("smem", 0) + 1
        tampered = checks.seed_digests([(point, record)] + records[1:])
        assert checks.digest_mismatches(tampered, checks.recorded_digests()) == ["0"]

        async def serve():
            app = ServeApp(store=store)
            try:
                p = report.points[0]
                target = f"/v1/point?kernel={p.kernel}&version={p.version}&way={p.way}"
                got = await app.handle_request("GET", target)
                expected = checks.expected_point_body(
                    point_key(p), p, kernel_timing_to_dict(report[p]))
                assert got.status == 200 and checks.point_body_ok(got.body, expected)
                assert not checks.point_body_ok(corrupt(got.body), expected)

                variants = [(2, 64), (4, 128)]
                body = json.dumps({
                    "kernel": p.kernel, "version": p.version,
                    "variants": [{"way": w, "core": {"rob_size": r}} for w, r in variants],
                }).encode()
                keys = [point_key(SweepPoint(kernel=p.kernel, version=p.version, way=w,
                                             core_overrides={"rob_size": r}))
                        for w, r in variants]
                got = await app.handle_request("POST", "/v1/retime", body)
                assert got.status == 200 and checks.retime_ok(got.body, keys)[0]
                data = json.loads(got.body)
                assert not checks.retime_ok(
                    json.dumps(dict(data, dispatches=2)).encode(), keys)[0]
                assert not checks.retime_ok(
                    json.dumps(dict(data, results=data["results"][:1])).encode(), keys)[0]

                cold = SweepPoint(kernel=p.kernel, version=p.version, way=2, seed=99)
                target = (f"/v1/point?kernel={cold.kernel}&version={cold.version}"
                          f"&way=2&seed=99")
                first = await app.handle_request("GET", target)
                assert first.status == 202
                await app.api.backfills.drain(timeout=60)
                got = await app.handle_request("GET", target)
                assert got.status == 200
                assert checks.backfill_ok(got.body, point_key(cold), cold)[0]
                data = json.loads(got.body)
                data["point"]["seed"] = 98
                assert not checks.backfill_ok(
                    json.dumps(data).encode(), point_key(cold), cold)[0]

                got = await app.handle_request("GET", "/v1/artifact/table3")
                golden = checks.golden_bytes("table3")
                assert got.status == 200 and got.body == golden
                assert corrupt(got.body) != golden
            finally:
                await app.shutdown()

        asyncio.run(serve())
    finally:
        shutil.rmtree(root, ignore_errors=True)

    declared = SPEC["end_to_end"]
    good = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in declared}
    assert checks.missing_metrics(good, declared) == []
    dropped = dict(good)
    del dropped["cold_s"]
    assert checks.missing_metrics(dropped, declared) == ["cold_s"]
    wrong = dict(good, warm_s={"value": 1.5, "unit": "ms"})
    assert checks.missing_metrics(wrong, declared) == ["warm_s"]
    print("ok: every check accepts real output and rejects a corrupted copy")


def refusals() -> None:
    env = dict(os.environ, REPRO_TIMING_NO_KERNEL="1")
    code, last, _ = bench("--workload", "seed-batch", "--tiny", env=env)
    assert code != 0 and json.loads(last)["failed"] == 1
    bare = tempfile.mkdtemp(prefix="bare-", dir=BUILD)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "seed-batch",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=175)
        assert done.returncode != 0 and '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses reference/fault switches; fails without sources")


def main() -> int:
    BUILD.mkdir(exist_ok=True)
    emitted_metrics()
    checks_reject_corruption()
    refusals()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
