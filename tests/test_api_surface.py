"""Public API surface and factory tests."""

import pytest

import repro
from repro.emu import ISA_NAMES, VERSION_NAMES, Memory, make_machine
from repro.emu.mmx import MMXMachine
from repro.emu.scalar import ScalarMachine
from repro.emu.vmmx import VMMXMachine


class TestFactory:
    def test_isa_names(self):
        assert ISA_NAMES == ("mmx64", "mmx128", "vmmx64", "vmmx128")
        assert VERSION_NAMES == ("scalar",) + ISA_NAMES

    def test_scalar(self):
        m = make_machine("scalar", Memory())
        assert type(m) is ScalarMachine

    @pytest.mark.parametrize("isa,width", [("mmx64", 8), ("mmx128", 16)])
    def test_mmx(self, isa, width):
        m = make_machine(isa, Memory())
        assert isinstance(m, MMXMachine)
        assert m.width == width
        assert m.isa_name == isa

    @pytest.mark.parametrize("isa,row_bytes", [("vmmx64", 8), ("vmmx128", 16)])
    def test_vmmx(self, isa, row_bytes):
        m = make_machine(isa, Memory())
        assert isinstance(m, VMMXMachine)
        assert m.row_bytes == row_bytes
        assert m.isa_name == isa
        assert m.MAX_VL == 16

    def test_unknown_isa(self):
        with pytest.raises(ValueError):
            make_machine("avx512", Memory())

    def test_machines_share_memory_not_trace(self):
        mem = Memory()
        a = make_machine("mmx64", mem)
        b = make_machine("vmmx64", mem)
        assert a.mem is b.mem
        assert a.trace is not b.trace


class TestTopLevelPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_lazy_run_kernel(self):
        result = repro.run_kernel  # resolves via __getattr__
        assert callable(result)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_reexports(self):
        assert repro.Category is not None
        assert repro.Trace is not None
        assert callable(repro.make_machine)
