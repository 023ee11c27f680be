"""Tests for TLB structures: base, hierarchy, delayed, page walker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import virtual_page_key
from repro.common.params import TlbConfig, WalkerConfig
from repro.tlb import (
    PageWalker,
    SetAssociativeTlb,
    TlbEntry,
    TlbHierarchy,
)


def entry(asid, vpn, pfn=0, is_synonym=True, perms=0x3):
    return TlbEntry(virtual_page_key(asid, vpn << 12), pfn, is_synonym, perms)


class TestSetAssociativeTlb:
    def _tlb(self, entries=8, ways=2, latency=1):
        return SetAssociativeTlb(TlbConfig(entries, ways, latency))

    def test_miss_then_hit(self):
        tlb = self._tlb()
        e = entry(1, 5, 55)
        assert tlb.lookup(e.page_key) is None
        tlb.fill(e)
        assert tlb.lookup(e.page_key) is e

    def test_lru_eviction_order(self):
        tlb = self._tlb(entries=2, ways=2)  # one set, two ways
        a, b, c = entry(1, 0, 1), entry(1, 1, 2), entry(1, 2, 3)
        tlb.fill(a)
        tlb.fill(b)
        tlb.lookup(a.page_key)      # refresh a; b is now LRU
        victim = tlb.fill(c)
        assert victim is b
        assert tlb.lookup(a.page_key) is a
        assert tlb.lookup(b.page_key) is None

    def test_set_isolation(self):
        tlb = self._tlb(entries=8, ways=2)  # 4 sets
        filled = [entry(1, vpn, vpn) for vpn in range(8)]
        for e in filled:
            tlb.fill(e)
        # 8 entries spread over 4 sets of 2 ways: all resident.
        assert tlb.occupancy() == 8

    def test_refill_same_key_replaces(self):
        tlb = self._tlb()
        a = entry(1, 5, 50)
        b = entry(1, 5, 99)
        tlb.fill(a)
        assert tlb.fill(b) is None  # no victim: replaced in place
        assert tlb.lookup(a.page_key).pfn == 99
        assert tlb.occupancy() == 1

    def test_invalidate(self):
        tlb = self._tlb()
        e = entry(1, 7)
        tlb.fill(e)
        assert tlb.invalidate(e.page_key)
        assert not tlb.invalidate(e.page_key)
        assert tlb.lookup(e.page_key) is None

    def test_flush_asid_only_hits_that_asid(self):
        tlb = self._tlb(entries=16, ways=4)
        tlb.fill(entry(1, 3))
        tlb.fill(entry(2, 3))
        dropped = tlb.flush_asid(1)
        assert dropped == 1
        assert tlb.probe(entry(2, 3).page_key) is not None

    def test_flush_all(self):
        tlb = self._tlb()
        tlb.fill(entry(1, 1))
        tlb.flush_all()
        assert tlb.occupancy() == 0

    def test_probe_no_side_effects(self):
        tlb = self._tlb()
        e = entry(1, 1)
        tlb.fill(e)
        lookups_before = tlb.stats["lookups"]
        tlb.probe(e.page_key)
        assert tlb.stats["lookups"] == lookups_before

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeTlb(TlbConfig(12, 4, 1))

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                    max_size=300))
    def test_occupancy_never_exceeds_capacity(self, vpns):
        tlb = self._tlb(entries=16, ways=4)
        for vpn in vpns:
            tlb.fill(entry(1, vpn, vpn))
        assert tlb.occupancy() <= 16
        # Every resident entry must be findable.
        for key_set in tlb._sets:
            for key in key_set:
                assert tlb.probe(key) is not None


class TestTlbHierarchy:
    def _hier(self):
        return TlbHierarchy(TlbConfig(4, 2, 1), TlbConfig(16, 4, 7))

    @staticmethod
    def _walk(calls, cycles=30):
        def miss(asid, va):
            calls.append((asid, va))
            return 0x9000 | (va & 0xFFF), cycles, 0x1
        return miss

    def test_miss_reports_combined_latency(self):
        h = self._hier()
        calls = []
        va = 0x1234
        pa, front = h.translate(virtual_page_key(1, va), 1, va,
                                self._walk(calls))
        assert calls == [(1, va)]
        assert pa == 0x9234
        assert front == 7 + 30  # L2 probe + miss handler; L1 overlapped
        assert h.l1.probe(virtual_page_key(1, va)).permissions == 0x1
        assert h.l2.probe(virtual_page_key(1, va)) is not None

    def test_l1_hit(self):
        h = self._hier()
        e = entry(1, 1, pfn=5)
        h.fill(e)
        calls = []
        pa, front = h.translate(e.page_key, 1, 0x1010, self._walk(calls))
        assert (pa, front) == (0x5010, 0)
        assert calls == []
        assert h.stats["l1_hits"] == 1

    def test_l2_hit_refills_l1(self):
        h = self._hier()
        # Fill L1 beyond capacity so an old entry lives only in L2.
        entries = [entry(1, vpn, vpn) for vpn in range(8)]
        for e in entries:
            h.fill(e)
        victim_key = entries[0].page_key
        assert h.l1.probe(victim_key) is None
        calls = []
        pa, front = h.translate(victim_key, 1, 0x10, self._walk(calls))
        assert (pa, front) == (0x10, 7)
        assert calls == []
        assert h.l1.probe(victim_key) is not None

    def test_invalidate_both_levels(self):
        h = self._hier()
        e = entry(1, 2)
        h.fill(e)
        h.invalidate(e.page_key)
        assert h.l1.probe(e.page_key) is None
        assert h.l2.probe(e.page_key) is None

    def test_flush_asid(self):
        h = self._hier()
        h.fill(entry(1, 1))
        h.fill(entry(2, 1))
        h.flush_asid(1)
        assert h.l2.probe(entry(2, 1).page_key) is not None
        assert h.l2.probe(entry(1, 1).page_key) is None


class TestDelayedTlb:
    """The delayed TLB is a plain set-associative TLB behind the LLC."""

    def test_basic_flow(self):
        d = SetAssociativeTlb(TlbConfig(8, 2, 7), "delayed_tlb")
        key = virtual_page_key(3, 0x5000)
        assert d.lookup(key) is None
        d.fill(TlbEntry(key, 5, True))
        assert d.lookup(key).pfn == 5
        assert d.latency == 7
        assert d.stats.name == "delayed_tlb"
        assert d.stats["misses"] == 1
        assert d.stats["lookups"] == 2
        assert d.stats.hit_rate() == 0.5

    def test_shootdown(self):
        d = SetAssociativeTlb(TlbConfig(8, 2, 7), "delayed_tlb")
        key = virtual_page_key(3, 0x5000)
        d.fill(TlbEntry(key, 5, True))
        assert not d.invalidate(0x5000 >> 12 | (4 << 36))  # other ASID
        assert d.invalidate(key)
        assert d.lookup(key) is None


class TestPageWalker:
    def _walker(self, per_read=10):
        def resolve(asid, va):
            return ("translation", [0x1000, 0x2000, 0x3000,
                                    0x4000 + (va >> 12) * 8])

        return PageWalker(WalkerConfig(walk_cache_entries=2), resolve,
                          lambda pa: per_read)

    def test_cold_walk_reads_all_levels(self):
        w = self._walker()
        res = w.walk(1, 0x1234_5000)
        assert res.memory_accesses == 4
        assert not res.walk_cache_hit
        assert res.cycles == 4 * (10 + 2)
        assert res.translation == "translation"

    def test_walk_cache_hit_reads_leaf_only(self):
        w = self._walker()
        w.walk(1, 0x1234_5000)
        res = w.walk(1, 0x1234_6000)  # same 2 MB region
        assert res.walk_cache_hit
        assert res.memory_accesses == 1

    def test_walk_cache_capacity(self):
        w = self._walker()
        w.walk(1, 0 << 21)
        w.walk(1, 1 << 21)
        w.walk(1, 2 << 21)  # evicts region 0
        res = w.walk(1, 0)
        assert not res.walk_cache_hit

    def test_flush(self):
        w = self._walker()
        w.walk(1, 0x1000)
        w.flush()
        assert not w.walk(1, 0x1000).walk_cache_hit

    def test_stats(self):
        w = self._walker()
        w.walk(1, 0x1000)
        w.walk(1, 0x2000)
        assert w.stats["walks"] == 2
        assert w.stats["pte_reads"] == 5  # 4 cold + 1 cached
