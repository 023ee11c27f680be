"""Two-level TLB hierarchy used by the physically-addressed baseline.

Models the Haswell-like configuration of Table IV: a 64-entry 4-way L1 TLB
(1 cycle) backed by a 1024-entry 8-way L2 TLB (7 cycles).  A lookup probes
L1, then L2; an L2 hit refills L1.  Misses are reported to the caller,
which invokes the page walker and fills both levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.params import TlbConfig
from repro.common.stats import StatGroup
from repro.tlb.base import SetAssociativeTlb, TlbEntry


@dataclass(slots=True)
class TlbLookupResult:
    """Outcome of a hierarchy probe: the entry (or None) and exposed latency."""

    entry: Optional[TlbEntry]
    latency: int
    level: str  # "l1", "l2", or "miss"


class TlbHierarchy:
    """L1 + L2 TLBs with L2-hit refill into L1."""

    def __init__(self, l1_config: TlbConfig, l2_config: TlbConfig,
                 name: str = "tlb", stats: StatGroup | None = None) -> None:
        self.stats = stats or StatGroup(name)
        self._counters = self.stats.counters
        self.l1 = SetAssociativeTlb(l1_config, f"{name}_l1")
        self.l2 = SetAssociativeTlb(l2_config, f"{name}_l2")

    def lookup(self, page_key: int) -> TlbLookupResult:
        """Probe L1 then L2; a miss costs both probe latencies."""
        counters = self._counters
        counters["lookups"] += 1
        l1 = self.l1
        entry = l1.lookup(page_key)
        if entry is not None:
            counters["l1_hits"] += 1
            return TlbLookupResult(entry, l1.latency, "l1")
        entry = self.l2.lookup(page_key)
        if entry is not None:
            counters["l2_hits"] += 1
            l1.fill(entry)
            return TlbLookupResult(entry, l1.latency + self.l2.latency, "l2")
        counters["misses"] += 1
        return TlbLookupResult(None, l1.latency + self.l2.latency, "miss")

    def fill(self, entry: TlbEntry) -> None:
        """Install a walked translation into both levels."""
        self.l2.fill(entry)
        self.l1.fill(entry)

    def invalidate(self, page_key: int) -> None:
        """Shootdown one page from both levels."""
        self.l1.invalidate(page_key)
        self.l2.invalidate(page_key)

    def flush_asid(self, asid: int) -> int:
        """Shootdown every page of one address space from both levels."""
        return self.l1.flush_asid(asid) + self.l2.flush_asid(asid)

    def flush_all(self) -> None:
        self.l1.flush_all()
        self.l2.flush_all()

    def accesses(self) -> int:
        """Total L1-TLB probes — the energy-relevant access count."""
        return self.l1.stats["lookups"]

    def misses(self) -> int:
        """Hierarchy misses (both levels missed → page walk)."""
        return self.stats["misses"]
