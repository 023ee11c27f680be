"""Two-level TLB hierarchy: the per-core paging front end.

Models the Haswell-like configuration of Table IV: a 64-entry 4-way L1 TLB
(1 cycle, overlapped with the VIPT L1 index) backed by a 1024-entry 8-way
L2 TLB (7 cycles).  :meth:`TlbHierarchy.translate` is the whole core-side
paging path of every physically tagged MMU: it probes L1, then L2 (an L2
hit refills L1), and on a miss of both asks the scheme's *miss handler*
(a page walk, RMM's range TLB, a 2-D walk) and fills both levels with
its result.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.common.address import PAGE_MASK, PAGE_SHIFT
from repro.common.params import TlbConfig
from repro.common.stats import StatGroup
from repro.tlb.base import SetAssociativeTlb, TlbEntry

#: Miss handler: (asid, va) -> (pa, cycles, permissions).
MissFn = Callable[[int, int], Tuple[int, int, int]]


class TlbHierarchy:
    """L1 + L2 TLBs with L2-hit refill into L1."""

    def __init__(self, l1_config: TlbConfig, l2_config: TlbConfig,
                 name: str = "tlb", stats: StatGroup | None = None) -> None:
        self.stats = stats or StatGroup(name)
        self._counters = self.stats.counters
        self.l1 = SetAssociativeTlb(l1_config, f"{name}_l1")
        self.l2 = SetAssociativeTlb(l2_config, f"{name}_l2")

    def translate(self, page_key: int, asid: int, va: int,
                  miss: MissFn) -> Tuple[int, int]:
        """Translate one access; returns ``(pa, exposed front-end cycles)``.

        An L1 hit exposes nothing, an L2 hit the L2 latency, and a miss
        of both the L2 latency plus the cycles of ``miss(asid, va)``.
        """
        counters = self._counters
        counters["lookups"] += 1
        l1 = self.l1
        entry = l1.lookup(page_key)
        if entry is not None:
            counters["l1_hits"] += 1
            return (entry.pfn << PAGE_SHIFT) | (va & PAGE_MASK), 0
        l2 = self.l2
        entry = l2.lookup(page_key)
        if entry is not None:
            counters["l2_hits"] += 1
            l1.fill(entry)
            return (entry.pfn << PAGE_SHIFT) | (va & PAGE_MASK), l2.latency
        counters["misses"] += 1
        pa, cycles, permissions = miss(asid, va)
        self.fill(TlbEntry(page_key, pa >> PAGE_SHIFT, True, permissions))
        return pa, l2.latency + cycles

    def fill(self, entry: TlbEntry) -> None:
        """Install a translation into both levels."""
        self.l2.fill(entry)
        self.l1.fill(entry)

    def invalidate(self, page_key: int) -> None:
        """Shootdown one page from both levels."""
        self.l1.invalidate(page_key)
        self.l2.invalidate(page_key)

    def flush_asid(self, asid: int) -> int:
        """Shootdown every page of one address space from both levels."""
        return self.l1.flush_asid(asid) + self.l2.flush_asid(asid)

    def accesses(self) -> int:
        """Total L1-TLB probes — the energy-relevant access count."""
        return self.l1.stats["lookups"]

    def misses(self) -> int:
        """Hierarchy misses (both levels missed → miss handler)."""
        return self.stats["misses"]
