"""Hardware page-walker cost model.

A native x86-64 walk reads one PTE per radix level (4 levels).  Real
walkers keep a small *page-walk cache* of upper-level entries so most
walks skip straight to the leaf level; we model a walk cache over the
L3-level (2 MB-region) entry, which collapses a hit walk to a single leaf
PTE read.

The walker is decoupled from both the page table and the memory system.
A ``resolve`` callable (normally :meth:`Kernel.pte_path
<repro.osmodel.kernel.Kernel.pte_path>`) returns the translation *and*
the PTE physical addresses a walk touches, from one page-table traversal
that faults first-touch pages in; the walk hands that translation back
in :class:`WalkResult`, so callers never translate a second time.  A
``charge`` callable returns the cycles for one PTE read, letting the
simulator route PTE reads through the cache hierarchy — this is what
lets large on-chip caches absorb walk traffic, a first-order effect in
the paper's Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

from repro.common.params import WalkerConfig
from repro.common.stats import StatGroup
from repro.obs.histogram import Histogram

if TYPE_CHECKING:
    from repro.osmodel.kernel import Translation

# Resolve callback: (asid, va) -> (translation, PTE physical addresses
# ordered root -> leaf), from one traversal that faults first touches in.
ResolveFn = Callable[[int, int], Tuple["Translation", Sequence[int]]]
# Charge callback: (pte_physical_address) -> cycles for the read.
ChargeFn = Callable[[int], int]


@dataclass(slots=True)
class WalkResult:
    """Cost summary of one page walk, plus the translation it found."""

    cycles: int
    memory_accesses: int
    walk_cache_hit: bool
    translation: "Translation"


class PageWalker:
    """Radix-walk cost model with an upper-level page-walk cache."""

    def __init__(self, config: WalkerConfig, resolve: ResolveFn, charge: ChargeFn,
                 stats: StatGroup | None = None) -> None:
        self.config = config
        self.resolve = resolve
        self.charge = charge
        self.stats = stats or StatGroup("page_walker")
        self._counters = self.stats.counters
        # Per-walk latency distribution (named after the stat group so a
        # hybrid MMU's several walkers stay distinguishable).
        self.cycles_hist = Histogram(f"{self.stats.name}_cycles")
        # Walk cache: maps (asid, va >> 21) -> True; LRU via dict order.
        self._walk_cache: dict[tuple[int, int], bool] = {}

    def walk(self, asid: int, va: int) -> WalkResult:
        """Walk the page table for (asid, va), charging each PTE read.

        A walk-cache hit reads only the leaf PTE; a miss reads every level
        and refills the walk cache.
        """
        counters = self._counters
        counters["walks"] += 1
        translation, pte_addresses = self.resolve(asid, va)
        walk_cache = self._walk_cache
        key = (asid, va >> 21)
        hit = key in walk_cache
        if hit:
            del walk_cache[key]
            counters["walk_cache_hits"] += 1
            touched = pte_addresses[-1:]
        else:
            if len(walk_cache) >= self.config.walk_cache_entries:
                del walk_cache[next(iter(walk_cache))]
            touched = pte_addresses
        walk_cache[key] = True
        cycles = self.config.per_level_overhead * len(touched)
        for pte_pa in touched:
            cycles += self.charge(pte_pa)
        counters["pte_reads"] += len(touched)
        counters["walk_cycles"] += cycles
        self.cycles_hist.record(cycles)
        return WalkResult(cycles, len(touched), hit, translation)

    def translate(self, asid: int, va: int) -> Tuple[int, int, int]:
        """Walk and return ``(pa, cycles, permissions)``: the shape of a
        TLB miss handler and of a delayed-translation engine."""
        walk = self.walk(asid, va)
        translation = walk.translation
        return translation.pa, walk.cycles, translation.permissions

    def flush(self) -> None:
        """Drop walk-cache contents (address-space teardown / remap storms)."""
        self._walk_cache.clear()
