"""Frozen SimResult digests: the regression oracle of the timing model.

``tests/timing_manifest.json`` holds the sha256 of every field of every
:class:`~repro.timing.core.SimResult` (tally dicts in insertion order:
the golden artefacts depend on it) for a fixed set of cases:

* ``grid`` -- the full seed-0 grid, every kernel on the twelve paper
  machines;
* ``fig4x`` / ``fig4v`` -- the points of the extended Fig. 4 artefacts
  (the mmx256/vmmx256 machines, the runtime-VL and tile families);
* ``ablation`` -- seeded random machine/way/ablation stacks mixing cache
  geometries;
* ``scalar-mix`` -- the synthetic scalar traces that price the
  applications' scalar regions, at ways 2/4/8/16;
* ``random`` -- seeded random record traces on five machines;
* ``spill`` -- the cold counter-spill chain.

The digests were frozen while an independent record-at-a-time
implementation of the constraint loop still existed and agreed with
both the Python :class:`~repro.timing.core.CoreModel` and the compiled
kernel on every case, so they stand in for that reference.

Every case is checked on both timing paths: the compiled kernel (the
path every timing takes) and, with the kernel made unloadable, the
per-point Python fallback a host without a C compiler takes.

Regenerating the manifest (after an intentional model change)::

    PYTHONPATH=src python -m pytest tests/test_timing_manifest.py --regen-goldens
"""

import dataclasses
import hashlib
import json
import pathlib
import random

import pytest

from repro.apps.appmodel import make_scalar_trace
from repro.experiments.extended import fig4v_points, fig4x_points
from repro.kernels.base import execute
from repro.kernels.registry import KERNELS
from repro.machines import get_machine
from repro.sweep.engine import resolve_configs
from repro.sweep.points import full_points
from repro.timing import simulate_trace_stack
from timing_cases import (
    RANDOM_MACHINES,
    ablated_pair,
    random_picks,
    random_trace,
    spill_chain_trace,
)

MANIFEST = pathlib.Path(__file__).parent / "timing_manifest.json"

#: The scalar mixes (smem %, sctrl %) of the paper's applications, plus
#: a branch-heavy mix whose SSA ids go negative.
SCALAR_MIXES = ((31, 4), (29, 4), (31, 6), (28, 9), (40, 0), (10, 60))

_TRACES = {}


def kernel_trace(kernel, version, vl=None):
    key = (kernel, version, vl)
    if key not in _TRACES:
        _TRACES[key] = execute(KERNELS[kernel], version, seed=0, vl=vl).trace.columns()
    return _TRACES[key]


# ---------------------------------------------------------------------------
# Cases: each is a list of stacks ``(trace, [(label, core, mem), ...], warm)``
# ---------------------------------------------------------------------------


def point_stacks(points):
    """Sweep points grouped into one stack per trace, as the engine does."""
    stacks = {}
    for point in points:
        key = (point.kernel, point.version, point.vl)
        stacks.setdefault(key, []).append((point.label, *resolve_configs(point)))
    return [(kernel_trace(*key), entries, True) for key, entries in stacks.items()]


def ablation_stacks():
    stacks = []
    for seed in range(8):
        rng = random.Random(seed)
        kernel = rng.choice(("addblock", "comp", "motion1"))
        version = rng.choice(("mmx64", "vmmx128"))
        entries = []
        for i, (isa, way, core_abl, mem_abl) in enumerate(random_picks(rng)):
            label = f"{seed}.{i}:{kernel}/{version}@{isa}/{way}/{core_abl}/{mem_abl}"
            entries.append((label, *ablated_pair(isa, way, core_abl, mem_abl)))
        stacks.append((kernel_trace(kernel, version), entries, True))
    return stacks


def machine_entries(prefix, machines):
    entries = []
    for name, way in machines:
        spec = get_machine(name, way)
        entries.append((f"{prefix}@{name}/{way}", spec.core, spec.mem))
    return entries


def scalar_mix_stacks():
    return [
        (
            make_scalar_trace(smem / 100, sctrl / 100),
            machine_entries(f"{smem}/{sctrl}", [("mmx64", w) for w in (2, 4, 8, 16)]),
            True,
        )
        for smem, sctrl in SCALAR_MIXES
    ]


def random_stacks():
    return [
        (
            random_trace(random.Random(seed)),
            machine_entries(str(seed), RANDOM_MACHINES),
            True,
        )
        for seed in range(40)
    ]


def spill_stacks():
    return [(spill_chain_trace(), machine_entries("chain", [("mmx64", 2)]), False)]


CASES = {
    "grid": lambda: point_stacks(full_points(seed=0)),
    "fig4x": lambda: point_stacks(fig4x_points(2)),
    "fig4v": lambda: point_stacks(fig4v_points(2)),
    "ablation": ablation_stacks,
    "scalar-mix": scalar_mix_stacks,
    "random": random_stacks,
    "spill": spill_stacks,
}


def result_digest(result):
    """sha256 over every SimResult field, tally dicts in insertion order."""
    text = json.dumps(dataclasses.asdict(result))
    return hashlib.sha256(text.encode()).hexdigest()


def case_digests(name):
    digests = {}
    for trace, entries, warm in CASES[name]():
        specs = [(core, mem) for _, core, mem in entries]
        results = simulate_trace_stack(trace, specs, warm=warm)
        for (label, _, _), result in zip(entries, results):
            assert label not in digests, f"duplicate label {label!r} in case {name!r}"
            digests[label] = result_digest(result)
    return digests


@pytest.fixture(scope="module")
def manifest(request):
    """The checked-in manifest, rewritten first under ``--regen-goldens``."""
    if request.config.getoption("--regen-goldens"):
        cases = {name: case_digests(name) for name in CASES}
        MANIFEST.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    assert MANIFEST.is_file(), (
        f"missing {MANIFEST}; generate it with "
        "PYTHONPATH=src python -m pytest tests/test_timing_manifest.py --regen-goldens"
    )
    return json.loads(MANIFEST.read_text())["cases"]


def test_manifest_covers_every_case(manifest):
    assert list(manifest) == list(CASES)


@pytest.mark.parametrize("path", ["kernel", "python"])
@pytest.mark.parametrize("case", list(CASES))
def test_case_matches_manifest(case, path, manifest, monkeypatch):
    if path == "python":
        import repro.timing.batch as batch

        monkeypatch.setattr(batch, "load_kernel", lambda: None)
    got = case_digests(case)
    want = manifest[case]
    drift = sorted(
        label for label in set(got) | set(want) if got.get(label) != want.get(label)
    )
    assert not drift, (
        f"{len(drift)} {case!r} results drifted from tests/timing_manifest.json "
        f"on the {path} path (first: {drift[:5]}); if the model change is "
        "intentional, rerun with --regen-goldens and review the diff"
    )
