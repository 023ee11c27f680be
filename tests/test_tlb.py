"""Tests for TLB structures: base, hierarchy, delayed, page walker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import virtual_page_key
from repro.common.params import TlbConfig, WalkerConfig
from repro.tlb import (
    DelayedTlb,
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

    def test_miss_reports_combined_latency(self):
        h = self._hier()
        res = h.lookup(virtual_page_key(1, 0x1000))
        assert res.entry is None
        assert res.level == "miss"
        assert res.latency == 8

    def test_l1_hit(self):
        h = self._hier()
        e = entry(1, 1)
        h.fill(e)
        res = h.lookup(e.page_key)
        assert res.level == "l1"
        assert res.latency == 1

    def test_l2_hit_refills_l1(self):
        h = self._hier()
        # Fill L1 beyond capacity so an old entry lives only in L2.
        entries = [entry(1, vpn, vpn) for vpn in range(8)]
        for e in entries:
            h.fill(e)
        victim_key = entries[0].page_key
        if h.l1.probe(victim_key) is None:
            res = h.lookup(victim_key)
            assert res.level == "l2"
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
    def test_basic_flow(self):
        d = DelayedTlb(TlbConfig(8, 2, 7))
        key = virtual_page_key(3, 0x5000)
        assert d.lookup(key) is None
        d.fill(TlbEntry(key, 5, True))
        assert d.lookup(key).pfn == 5
        assert d.misses() == 1
        assert d.accesses() == 2
        assert d.hit_rate() == 0.5

    def test_shootdown(self):
        d = DelayedTlb(TlbConfig(8, 2, 7))
        key = virtual_page_key(3, 0x5000)
        d.fill(TlbEntry(key, 5, True))
        d.shootdown(0x5000 >> 12 | (3 << 36))
        d.shootdown(key)
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
