"""Tests for the delayed segment-translation hardware."""

import pytest

from repro.common.params import SegmentTranslationConfig, SystemConfig
from repro.osmodel import Kernel, OsSegmentTable, SegmentFault
from repro.segtrans import (
    DirectSegment,
    HwSegmentTable,
    IndexCache,
    ManySegmentTranslator,
    RangeTlb,
    SegmentCache,
)

MB = 1024 * 1024
PAGE = 4096


def make_table(n=4, asid=1, length=1 * MB):
    table = OsSegmentTable()
    va, pa = 0x1000_0000, 0x200_0000
    for _ in range(n):
        table.insert(asid, va, length, pa)
        va += length + PAGE
        pa += length + PAGE
    return table


class TestHwSegmentTable:
    def test_cold_fill_charges_interrupt(self):
        table = make_table()
        hw = HwSegmentTable(table)
        seg_id = table.segments_sorted()[0].seg_id
        seg, cycles = hw.read(seg_id)
        assert seg is not None
        assert cycles == hw.latency + HwSegmentTable.FILL_INTERRUPT_CYCLES
        _seg, cycles2 = hw.read(seg_id)
        assert cycles2 == hw.latency

    def test_stale_id(self):
        table = make_table()
        hw = HwSegmentTable(table)
        seg_id = table.segments_sorted()[0].seg_id
        table.remove(seg_id)
        seg, _cycles = hw.read(seg_id)
        assert seg is None

    def test_invalidate_forces_refill(self):
        table = make_table()
        hw = HwSegmentTable(table)
        seg_id = table.segments_sorted()[0].seg_id
        hw.read(seg_id)
        hw.invalidate(seg_id)
        _seg, cycles = hw.read(seg_id)
        assert cycles > hw.latency


class TestIndexCache:
    def test_miss_then_hit(self):
        ic = IndexCache(memory_charge=lambda pa: 100)
        first = ic.read_node(0x4000)
        second = ic.read_node(0x4000)
        assert first == ic.latency + 100
        assert second == ic.latency
        assert ic.hit_rate() == 0.5

    def test_size_override(self):
        ic = IndexCache(size_bytes=1024)
        assert ic.size_bytes == 1024

    def test_tiny_sizes_degrade_ways(self):
        ic = IndexCache(size_bytes=128)  # cannot sustain 8 ways
        ic.read_node(0)
        ic.read_node(64)
        ic.read_node(128)
        assert ic.occupancy() <= 2

    def test_flush(self):
        ic = IndexCache(memory_charge=lambda pa: 100)
        ic.read_node(0x4000)
        ic.flush()
        assert ic.read_node(0x4000) == ic.latency + 100

    def test_capacity_eviction(self):
        ic = IndexCache(size_bytes=512, memory_charge=lambda pa: 0)
        for i in range(64):
            ic.read_node(i * 64)
        assert ic.occupancy() <= 8


class TestSegmentCache:
    def _sc(self):
        return SegmentCache(SegmentTranslationConfig(segment_cache_entries=4))

    def test_hit_translates(self):
        sc = self._sc()
        sc.fill(asid=1, va=0x20_0000, seg_vbase=0, seg_vlimit=0x4000_0000,
                offset=0x1000_0000, seg_id=9)
        assert sc.lookup(1, 0x20_1234) == 0x20_1234 + 0x1000_0000

    def test_region_boundary_misses(self):
        sc = self._sc()
        sc.fill(1, 0x20_0000, 0, 0x4000_0000, 0x1000_0000, 9)
        assert sc.lookup(1, 0x20_0000 + (2 << 20)) is None  # next 2MB region

    def test_segment_boundary_clipping(self):
        """A segment ending mid-region must not translate past its limit."""
        sc = self._sc()
        region = 0x40_0000  # 2 MB aligned
        seg_end = region + 0x8_0000  # segment covers only 512 KB of region
        sc.fill(1, region, 0, seg_end, 0x1000, 3)
        assert sc.lookup(1, region + 0x7_FFFF) == region + 0x7_FFFF + 0x1000
        assert sc.lookup(1, seg_end + 0x10) is None

    def test_lru_capacity(self):
        sc = self._sc()
        for i in range(5):
            sc.fill(1, i << 21, 0, 1 << 40, 0, i)
        assert sc.lookup(1, 0) is None  # oldest evicted
        assert sc.lookup(1, 4 << 21) is not None

    def test_invalidate_segment(self):
        sc = self._sc()
        sc.fill(1, 0, 0, 1 << 30, 0, seg_id=5)
        sc.fill(1, 1 << 21, 0, 1 << 30, 0, seg_id=6)
        assert sc.invalidate_segment(5) == 1
        assert sc.lookup(1, 0) is None
        assert sc.lookup(1, 1 << 21) is not None

    def test_asid_isolation(self):
        sc = self._sc()
        sc.fill(1, 0, 0, 1 << 30, 0x1000, 5)
        assert sc.lookup(2, 0) is None


class TestManySegmentTranslator:
    def _kernel_with_segments(self):
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p")
        vma = kernel.mmap(p, 8 * MB, policy="eager")
        return kernel, p, vma

    def test_translation_matches_kernel(self):
        kernel, p, vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel)
        for offset in (0, 123, 5 * MB, 8 * MB - 1):
            va = vma.vbase + offset
            assert ms.translate(p.asid, va).pa == kernel.translate(p.asid, va).pa

    def test_sc_hit_fast_path(self):
        kernel, p, vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel)
        first = ms.translate(p.asid, vma.vbase)
        second = ms.translate(p.asid, vma.vbase + 64)
        assert not first.sc_hit
        assert second.sc_hit
        assert second.cycles < first.cycles

    def test_no_sc_configuration(self):
        kernel, p, vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel, use_segment_cache=False)
        a = ms.translate(p.asid, vma.vbase)
        b = ms.translate(p.asid, vma.vbase + 64)
        assert not a.sc_hit and not b.sc_hit
        assert b.index_nodes_read >= 1

    def test_uncovered_address_faults(self):
        kernel, p, _vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel)
        with pytest.raises(SegmentFault):
            ms.translate(p.asid, 0x7ead_0000_0000)

    def test_other_address_space_segment_is_not_a_hit(self):
        # The index tree's rightmost key <= ASID+VA for a VA below q's
        # first segment is p's segment, which spans that VA: the
        # containment check must match the ASID too.
        kernel = Kernel(SystemConfig())
        p = kernel.create_process("p", va_base=0x1000_0000)
        q = kernel.create_process("q", va_base=0x1040_0000)
        kernel.mmap(p, 8 * MB, policy="eager")
        kernel.mmap(q, 1 * MB, policy="eager")
        ms = ManySegmentTranslator(kernel, use_segment_cache=False)
        with pytest.raises(SegmentFault):
            ms.translate(q.asid, 0x1020_0000)
        assert (ms.translate(p.asid, 0x1020_0000).pa
                == kernel.translate(p.asid, 0x1020_0000).pa)

    def test_table_mutation_flushes_structures(self):
        kernel, p, vma = self._kernel_with_segments()
        ms = ManySegmentTranslator(kernel)
        ms.translate(p.asid, vma.vbase)
        # New allocation changes the segment table generation.
        vma2 = kernel.mmap(p, 2 * MB, policy="eager")
        result = ms.translate(p.asid, vma2.vbase)
        assert result.pa == kernel.translate(p.asid, vma2.vbase).pa
        # Old address still translates correctly after the rebuild.
        assert (ms.translate(p.asid, vma.vbase).pa
                == kernel.translate(p.asid, vma.vbase).pa)


class TestRangeTlb:
    def test_hit_after_fill(self):
        table = make_table(n=4)
        rt = RangeTlb(table, entries=2)
        seg = table.segments_sorted()[0]
        miss = rt.lookup(1, seg.vbase)
        hit = rt.lookup(1, seg.vbase + 100)
        assert not miss.hit and hit.hit
        assert miss.pa == seg.vbase + seg.offset
        assert hit.cycles == rt.latency

    def test_thrashing_beyond_capacity(self):
        table = make_table(n=8)
        rt = RangeTlb(table, entries=2)
        segs = table.segments_sorted()
        for _round in range(3):
            for seg in segs:
                rt.lookup(1, seg.vbase)
        # 8 ranges through 2 entries round-robin: everything misses.
        assert rt.stats["hits"] == 0
        assert rt.miss_count() == 24

    def test_fault_outside_segments(self):
        table = make_table()
        rt = RangeTlb(table)
        with pytest.raises(SegmentFault):
            rt.lookup(1, 0x7000_0000_0000)

    def test_invalidate_and_flush(self):
        table = make_table()
        rt = RangeTlb(table)
        seg = table.segments_sorted()[0]
        rt.lookup(1, seg.vbase)
        rt.flush()
        assert not rt.lookup(1, seg.vbase).hit


class TestDirectSegment:
    def test_inside_translates(self):
        ds = DirectSegment()
        ds.configure(asid=1, base=0x1000_0000, limit=0x2000_0000,
                     offset=0x5000_0000)
        assert ds.translate(1, 0x1800_0000) == 0x1800_0000 + 0x5000_0000

    def test_outside_falls_back(self):
        ds = DirectSegment()
        ds.configure(1, 0x1000_0000, 0x2000_0000, 0)
        assert ds.translate(1, 0x3000_0000) is None
        assert ds.stats["fallbacks"] == 1

    def test_unconfigured_asid_falls_back(self):
        ds = DirectSegment()
        assert ds.translate(9, 0x1000) is None

    def test_invalid_limit(self):
        ds = DirectSegment()
        with pytest.raises(ValueError):
            ds.configure(1, 0x2000, 0x1000, 0)

    def test_configure_from_segment(self):
        table = make_table(n=1)
        ds = DirectSegment()
        seg = table.segments_sorted()[0]
        ds.configure_from_segment(seg)
        assert ds.translate(1, seg.vbase + 5) == seg.vbase + 5 + seg.offset
