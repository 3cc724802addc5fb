"""Output checks shared by the workloads and the self-test.

Each check is a pure function of captured output, so ``selftest.py`` can
show that it accepts real output and rejects a corrupted copy.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Goldens pinned byte for byte by the repo's own tests.
GOLDENS = Path(__file__).resolve().parent.parent / "tests" / "goldens"

#: Recorded per-seed digests of the full seed grid (record_digests.py).
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def golden_bytes(name: str) -> Optional[bytes]:
    """The pinned golden of artefact ``name``, or None if it has none."""
    path = GOLDENS / f"{name}.json"
    return path.read_bytes() if path.is_file() else None


def golden_mismatches(outputs: Mapping[str, str]) -> List[str]:
    """Golden-pinned artefacts whose output is not byte-identical."""
    bad = []
    for name, text in outputs.items():
        golden = golden_bytes(name)
        if golden is not None and text.encode("utf-8") != golden:
            bad.append(name)
    return bad


def seed_digests(timings: Iterable[Tuple[Any, Dict[str, Any]]]) -> Dict[str, str]:
    """Per-seed SHA-256 over every ``(point, timing record)`` pair.

    The record is :func:`repro.sweep.store.kernel_timing_to_dict`:
    cycles, instructions, every category and cache/branch tally.
    """
    by_seed: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
    for point, record in timings:
        by_seed.setdefault(str(point.seed), []).append((point.label, record))
    return {
        seed: hashlib.sha256(
            json.dumps(sorted(rows, key=lambda r: r[0]), sort_keys=True).encode()
        ).hexdigest()
        for seed, rows in by_seed.items()
    }


def recorded_digests() -> Dict[str, str]:
    return json.loads(DIGESTS.read_text())["seeds"]


def digest_mismatches(
    actual: Mapping[str, str], expected: Mapping[str, str]
) -> List[str]:
    """Seeds whose digest differs from ``expected`` (seeds it lacks pass)."""
    return sorted(
        seed for seed, digest in actual.items()
        if seed in expected and expected[seed] != digest
    )


def point_body_ok(body: bytes, expected: bytes) -> bool:
    """A point response equals the body built from its store record."""
    if body == expected:
        return True
    try:
        return json.loads(body) == json.loads(expected)
    except ValueError:
        return False


def expected_point_body(key: str, point: Any, record: Dict[str, Any]) -> bytes:
    """The ``/v1/point`` body for a stored record (the server's layout)."""
    payload = {"key": key, "point": point.as_dict(), "timing": record}
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def retime_ok(body: bytes, keys: Sequence[str]) -> Tuple[bool, int]:
    """One dispatch, one result per variant, each under its point key.

    Returns ``(ok, simulated instructions)``.
    """
    try:
        data = json.loads(body)
        results = data["results"]
        ok = (
            data["dispatches"] == 1
            and len(results) == len(keys)
            and [r["key"] for r in results] == list(keys)
            and all(r["result"]["cycles"] > 0 for r in results)
        )
        return ok, int(data["instructions"]) * len(results)
    except (ValueError, KeyError, TypeError):
        return False, 0


def backfill_ok(body: bytes, key: str, point: Any) -> Tuple[bool, int]:
    """A backfilled point answers with its own key, point and a timing."""
    try:
        data = json.loads(body)
        result = data["timing"]["result"]
        ok = (
            data["key"] == key
            and data["point"] == point.as_dict()
            and result["cycles"] > 0
        )
        return ok, int(result["instructions"])
    except (ValueError, KeyError, TypeError):
        return False, 0


def missing_metrics(
    metrics: Mapping[str, Mapping[str, Any]], declared: Sequence[Mapping[str, Any]]
) -> List[str]:
    """Declared metrics absent, mis-united or non-numeric in ``metrics``."""
    bad = []
    for spec in declared:
        got = metrics.get(spec["name"])
        if (
            not isinstance(got, Mapping)
            or got.get("unit") != spec["unit"]
            or not isinstance(got.get("value"), (int, float))
            or isinstance(got.get("value"), bool)
        ):
            bad.append(spec["name"])
    extra = set(metrics) - {spec["name"] for spec in declared}
    return bad + sorted(extra)
