"""Generic set-associative, LRU-replaced TLB.

All TLB flavours in the paper — the baseline two-level hierarchy, the
64-entry synonym TLB, and the large delayed TLB behind the LLC — are
instances of this structure with different geometry.  Entries are keyed by
a packed ``ASID + VPN`` integer (see :func:`repro.common.address.
virtual_page_key`) so homonyms are disambiguated exactly as the paper's
ASID-extended tags do.

Entries carry the translation *and* the page's synonym status: a
false-positive probe from the synonym filter installs a **non-synonym
marker entry** (``is_synonym=False``) that short-circuits future false
positives for the page (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.params import TlbConfig
from repro.common.stats import StatGroup

PERM_READ = 0x1
PERM_WRITE = 0x2
PERM_RW = PERM_READ | PERM_WRITE


@dataclass(slots=True)
class TlbEntry:
    """One cached translation (or non-synonym marker)."""

    page_key: int          # packed ASID + VPN
    pfn: int               # physical frame number (valid when is_synonym)
    is_synonym: bool       # True: translate to PA; False: marker entry
    permissions: int = PERM_RW


class SetAssociativeTlb:
    """A single TLB level with true-LRU replacement.

    Each set is an insertion-ordered dict mapping page keys to entries;
    hits re-insert the key so the dict order is the LRU order (oldest
    first).  ``sets == 1`` models a fully-associative structure.
    """

    def __init__(self, config: TlbConfig, name: str = "tlb",
                 stats: StatGroup | None = None) -> None:
        self.config = config
        self.name = name
        self.stats = stats or StatGroup(name)
        self._counters = self.stats.counters
        self.latency = config.latency
        self._sets: list[Dict[int, TlbEntry]] = [{} for _ in range(config.sets)]
        self._set_mask = config.sets - 1
        if config.sets & self._set_mask:
            raise ValueError("TLB set count must be a power of two")

    def lookup(self, page_key: int) -> Optional[TlbEntry]:
        """Probe the TLB; returns the entry on hit (refreshing LRU) or None."""
        counters = self._counters
        counters["lookups"] += 1
        tlb_set = self._sets[page_key & self._set_mask]
        entry = tlb_set.pop(page_key, None)
        if entry is None:
            counters["misses"] += 1
            return None
        # Refresh LRU position: re-insert at the back.
        tlb_set[page_key] = entry
        counters["hits"] += 1
        return entry

    def probe(self, page_key: int) -> Optional[TlbEntry]:
        """Check residence without touching LRU state or counters."""
        return self._sets[page_key & self._set_mask].get(page_key)

    def fill(self, entry: TlbEntry) -> Optional[TlbEntry]:
        """Insert an entry, returning the victim it evicted (if any)."""
        key = entry.page_key
        tlb_set = self._sets[key & self._set_mask]
        victim = None
        if key in tlb_set:
            del tlb_set[key]
        elif len(tlb_set) >= self.config.ways:
            victim = tlb_set.pop(next(iter(tlb_set)))
            self._counters["evictions"] += 1
        tlb_set[key] = entry
        self._counters["fills"] += 1
        return victim

    def invalidate(self, page_key: int) -> bool:
        """Drop one translation (TLB-shootdown target); True if present."""
        if self._sets[page_key & self._set_mask].pop(page_key, None) is None:
            return False
        self._counters["invalidations"] += 1
        return True

    def flush_asid(self, asid: int, vpn_bits: int = 36) -> int:
        """Drop every entry belonging to ``asid``; returns the count dropped.

        ``vpn_bits`` is the VPN width inside the packed key (48-bit VA,
        4 KB pages → 36 bits).
        """
        dropped = 0
        for tlb_set in self._sets:
            stale = [k for k in tlb_set if (k >> vpn_bits) == asid]
            for k in stale:
                del tlb_set[k]
                dropped += 1
        self.stats.add("invalidations", dropped)
        return dropped

    def flush_all(self) -> None:
        """Drop every entry."""
        for tlb_set in self._sets:
            tlb_set.clear()
        self.stats.add("full_flushes")

    def occupancy(self) -> int:
        """Number of resident entries."""
        return sum(len(s) for s in self._sets)

    def __contains__(self, page_key: int) -> bool:
        return self.probe(page_key) is not None
