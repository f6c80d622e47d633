"""The machine layer as composed classes: names, tracing coverage, and
the shared extended-table unwinding."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro import SCENARIOS, make_machine
from repro.hypervisors.base import MachineConfig
from repro.hw.types import MIB, PAGE_SIZE

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_guest_kernel_named_after_machine(scenario):
    m = make_machine(scenario)
    assert m.name == scenario
    assert m.kernel.name == m.name
    assert m.spawn_process().gpt.name.startswith(m.name)


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedLayers:
    """The traced benchmark attributes host time by module: machine code
    outside the listed modules would silently become unattributed."""

    def test_every_layer_module_imports(self, spans):
        for modules in spans.LAYER_MODULES.values():
            for name in modules:
                importlib.import_module(name)
        assert spans._targets()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_machine_classes_live_in_the_hypervisors_layer(self, spans,
                                                           scenario):
        traced = set(spans.LAYER_MODULES["hypervisors"])
        for cls in inspect.getmro(type(make_machine(scenario))):
            if cls.__module__ in ("builtins", "abc"):
                continue  # object, ABC
            assert cls.__module__ in traced, cls


class TestPricedEptUnwinding:
    """``Machine.discard_gfn_backing`` skips frames in guest 2 MiB runs
    before zapping priced EPT entries.  That order cannot matter: inside
    a recorded run every priced entry is huge (or absent), because the
    streaming guest allocator carves aligned runs only from frames that
    were never handed out, and the run's first violation maps it whole.
    This holds even once the run's frames are recycled as 4K pages."""

    @staticmethod
    def _assert_runs_mapped_huge(m):
        for table in m.priced_epts:
            for gfn, pte in table.iter_mappings():
                if m.huge_block_base(gfn) is not None:
                    assert pte.huge, (table.name, hex(gfn))

    @pytest.mark.parametrize("scenario", ["kvm-ept (BM)", "kvm-ept (NST)"])
    def test_entries_in_huge_runs_stay_huge(self, scenario):
        m = make_machine(scenario, config=MachineConfig(
            thp=True, guest_mem_bytes=16 * MIB, host_mem_bytes=64 * MIB))
        assert m.priced_epts and m.walked_ept is m.priced_epts[-1]
        ctx = m.new_context()
        proc = m.spawn_process()
        huge = m.mmap(ctx, proc, 8 * MIB)
        for vpn in range(huge.start_vpn, huge.end_vpn, 64):
            m.touch(ctx, proc, vpn, write=True)
        self._assert_runs_mapped_huge(m)
        m.munmap(ctx, proc, huge)
        # Exhaust the fresh frames: once no aligned run is left, faults
        # fall back to 4K pages on recycled frames, the freed runs too.
        small = m.mmap(ctx, proc, 15 * MIB)
        for vpn in range(small.start_vpn, small.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        reused = [pte.frame for _, pte in proc.gpt.iter_mappings()
                  if not pte.huge and m.huge_block_base(pte.frame) is not None]
        assert reused, "no 4K page landed in a former huge run"
        self._assert_runs_mapped_huge(m)
        m.munmap(ctx, proc, small)
        # Ballooning those frames keeps every entry and releases nothing.
        before = m.resident_guest_pages()
        m.balloon.inflate(ctx, 64 * PAGE_SIZE)
        assert m.resident_guest_pages() == before
        self._assert_runs_mapped_huge(m)

