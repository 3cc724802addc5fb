"""Tests for application profiling and timing composition."""

import pytest

from repro.apps import APP_NAMES, app_instruction_counts, app_timing, run_app_profile
from repro.apps.appmodel import SCALAR_TRACE_LEN, make_scalar_trace, scalar_ipc
from repro.apps.profile import AppProfile, COSTS, tally_cost
from repro.isa.opcodes import Category
from repro.machines import get_machine
from repro.timing.core import CoreModel

#: (smem %, sctrl %) of the five applications' scalar regions.
PAPER_MIXES = [(31, 4), (29, 4), (31, 6), (28, 9), (40, 0)]

#: ``ColumnarTrace.digest()`` of ``make_scalar_trace(smem, sctrl,
#: length=n)``, frozen from the record-at-a-time builder the columnar one
#: replaced: the paper mixes, edge mixes (no loads or branches, branch
#: heavy with negative SSA ids, all loads) and the short lengths above.
SCALAR_MIX_DIGESTS = {
    (0.31, 0.04, SCALAR_TRACE_LEN): "085237a71a1489d4cf55de1c4892d4f9e5a197ef0d0896f4f076de80ba23d181",
    (0.29, 0.04, SCALAR_TRACE_LEN): "2404e4a7500ef87cdcbfa0e6db64f29ef04c7181c4bc5976d5bc48b1050cf16b",
    (0.31, 0.06, SCALAR_TRACE_LEN): "eeba7cf4e1c077c9fea55b5683a5fcf8cc763c668df809fbaff2da65642305a8",
    (0.28, 0.09, SCALAR_TRACE_LEN): "e6c5be5611074b6f76cae9512ff2f555cfb76ffd586916f91e0f5fc026fb04a3",
    (0.40, 0.00, SCALAR_TRACE_LEN): "2b811bc74b1e4ee500b1fcf2d7c376e33d9f2d03a0c7e19e880444a911f4d6f5",
    (0.00, 0.00, SCALAR_TRACE_LEN): "74575c058b8678f1038683460157808e4f163beb5d4087c0715a57b140ca2a8e",
    (0.10, 0.60, SCALAR_TRACE_LEN): "1982907f9231c570b5e244eecd20f05eec677d3aa6f88ebafc6112491ada94ac",
    (0.50, 0.50, SCALAR_TRACE_LEN): "187ac8c7713fea851f8a38ce9c81c57dd8896b7ba534d42876d8fc9dc6df63ee",
    (1.00, 0.00, SCALAR_TRACE_LEN): "04577dc3386b488a10b805c82f4f3c9c23fc81d5daa8d5be826f953a80a29c7d",
    (0.30, 0.05, 5000): "e3418b6ba8b64d4f126b6e8cc9f6707ed22dc62582d82742824772e40a49d28e",
    (0.30, 0.05, 20000): "2f34e66a16da6d436ad751f76ee182b407e7a1b9434c673f20be535e5a077d85",
    (0.20, 0.05, 3000): "884185d9c19c97f5d12478eff6ada27ec973534056910e098bfe61fe1da89b70",
    (0.25, 0.04, 2000): "8e482dd4e349778601be398a4969f59c6cb279402e1d45720aff07f26b50631d",
}


class TestAppProfile:
    def test_tally_accumulates(self):
        p = AppProfile("demo")
        p.tally(smem=5, sarith=10, sctrl=1)
        p.tally(sarith=2)
        assert p.scalar["smem"] == 5
        assert p.scalar["sarith"] == 12
        assert p.scalar_instructions == 18

    def test_call_kernel_accumulates_fractions(self):
        p = AppProfile("demo")
        p.call_kernel("ltpfilt", 1 / 3)
        p.call_kernel("ltpfilt", 2 / 3)
        assert p.kernel_items["ltpfilt"] == pytest.approx(1.0)

    def test_tally_cost_uses_constants(self):
        p = AppProfile("demo")
        tally_cost(p, "vlc_encode_symbol", 10)
        smem, sarith, sctrl = COSTS["vlc_encode_symbol"]
        assert p.scalar["smem"] == 10 * smem
        assert p.scalar["sarith"] == 10 * sarith
        assert p.scalar["sctrl"] == 10 * sctrl

    def test_merge(self):
        a, b = AppProfile("a"), AppProfile("b")
        a.tally(sarith=1)
        b.tally(sarith=2)
        b.call_kernel("idct", 3)
        a.merge(b)
        assert a.scalar["sarith"] == 3
        assert a.kernel_items["idct"] == 3

    def test_summary_keys(self):
        p = AppProfile("demo")
        p.tally(smem=1)
        p.call_kernel("idct", 2)
        s = p.summary()
        assert s["smem"] == 1 and s["kernel:idct"] == 2


class TestScalarTrace:
    def test_length(self):
        t = make_scalar_trace(0.3, 0.05, length=5000)
        assert len(t) == 5000

    def test_mix_approximates_request(self):
        t = make_scalar_trace(0.3, 0.05, length=20000)
        counts = t.category_counts()
        assert counts["smem"] / len(t) == pytest.approx(0.3, abs=0.03)
        assert counts["sctrl"] / len(t) == pytest.approx(0.05, abs=0.02)

    def test_no_vector_instructions(self):
        t = make_scalar_trace(0.2, 0.05, length=3000)
        assert t.counts[Category.VMEM] == 0
        assert t.counts[Category.VARITH] == 0

    def test_deterministic(self):
        a = make_scalar_trace(0.25, 0.04, length=2000)
        b = make_scalar_trace(0.25, 0.04, length=2000)
        assert [r.name for r in a] == [r.name for r in b]
        assert [r.addr for r in a] == [r.addr for r in b]

    @pytest.mark.parametrize("mix", sorted(SCALAR_MIX_DIGESTS))
    def test_frozen_digest(self, mix):
        smem, sctrl, length = mix
        trace = make_scalar_trace(smem, sctrl, length=length)
        assert trace.digest() == SCALAR_MIX_DIGESTS[mix]


class TestScalarIPC:
    def test_reasonable_range(self):
        ipc = scalar_ipc(2, 25, 5)
        assert 0.5 < ipc < 2.0

    def test_improves_with_width(self):
        assert scalar_ipc(2, 25, 5) < scalar_ipc(4, 25, 5) <= scalar_ipc(8, 25, 5)

    def test_sublinear_scaling(self):
        """Scalar IPC saturates well below the 4x width growth."""
        assert scalar_ipc(8, 25, 5) / scalar_ipc(2, 25, 5) < 2.5

    def test_cached(self):
        assert scalar_ipc(2, 25, 5) == scalar_ipc(2, 25, 5)

    @pytest.mark.parametrize("way", [2, 4, 8, 16])
    @pytest.mark.parametrize("smem,sctrl", PAPER_MIXES + [(10, 60)])
    def test_equals_core_model(self, smem, sctrl, way):
        """The compiled-kernel timing equals a direct scalar-model run
        (the branch-heavy 10/60 mix has negative SSA ids)."""
        trace = make_scalar_trace(smem / 100, sctrl / 100)
        model = CoreModel(get_machine("mmx64", way).core)
        model.hier.warm(trace)
        assert scalar_ipc(way, smem, sctrl) == model.run(trace).ipc


class TestAppTiming:
    def test_composition_adds_up(self):
        profile = run_app_profile("jpegdec")
        t = app_timing(profile, "mmx64", 2)
        assert t.total_cycles == pytest.approx(
            t.scalar_region_cycles + t.kernel_scalar_cycles + t.kernel_vector_cycles
        )
        assert t.scalar_cycles + t.vector_cycles == pytest.approx(t.total_cycles)

    def test_scalar_region_identical_across_isas(self):
        profile = run_app_profile("jpegdec")
        values = {
            isa: app_timing(profile, isa, 2).scalar_region_cycles
            for isa in ("mmx64", "mmx128", "vmmx64", "vmmx128")
        }
        assert len(set(values.values())) == 1

    def test_vmmx_reduces_vector_cycles(self):
        profile = run_app_profile("mpeg2enc")
        mmx = app_timing(profile, "mmx64", 2).vector_cycles
        vmmx = app_timing(profile, "vmmx128", 2).vector_cycles
        assert vmmx < mmx

    def test_wider_machine_never_slower(self):
        profile = run_app_profile("mpeg2dec")
        for isa in ("mmx64", "vmmx128"):
            c2 = app_timing(profile, isa, 2).total_cycles
            c8 = app_timing(profile, isa, 8).total_cycles
            assert c8 < c2

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_every_app_profiles_and_prices(self, app):
        profile = run_app_profile(app)
        assert profile.scalar_instructions > 0
        t = app_timing(profile, "vmmx64", 4)
        assert t.total_cycles > 0


class TestInstructionCounts:
    def test_all_categories_present(self):
        profile = run_app_profile("jpegenc")
        counts = app_instruction_counts(profile, "mmx64")
        assert set(counts) == {"smem", "sarith", "sctrl", "vmem", "varith"}

    def test_scalar_counts_isa_independent(self):
        profile = run_app_profile("jpegenc")
        a = app_instruction_counts(profile, "mmx64")
        b = app_instruction_counts(profile, "vmmx128")
        assert a["smem"] == b["smem"]

    def test_vmmx_reduces_totals(self):
        profile = run_app_profile("mpeg2enc")
        mmx = sum(app_instruction_counts(profile, "mmx64").values())
        vmmx = sum(app_instruction_counts(profile, "vmmx64").values())
        assert vmmx < 0.8 * mmx  # the paper's ~30% reduction claim

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            run_app_profile("quake3")
