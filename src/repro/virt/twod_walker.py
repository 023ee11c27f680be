"""Two-dimensional (nested) page walker with translation caches.

A full x86-style nested walk reads every guest level (whose PTEs live at
guest-physical addresses and therefore each need a host walk of their
own) plus the host walk of the final guest-physical page:
``4 × (4 + 1) + 4 = 24`` memory reads in the worst case.

The baseline the paper compares against is "a state-of-the-art
translation cache for two-dimensional address translation", modeled here
as the standard pair:

* a **nested TLB** caching gPA→MA page translations, which absorbs the
  host walks of guest-PTE addresses and of the leaf;
* a **2-D page-walk cache** over the upper guest levels, collapsing a
  hit walk to the guest leaf PTE only.

PTE reads are charged through the data-cache hierarchy at machine
addresses via the injected ``charge`` callback, as in the native walker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.common.address import PAGE_SHIFT, page_base
from repro.common.params import WalkerConfig
from repro.common.stats import StatGroup
from repro.virt.hypervisor import VirtualMachine

ChargeFn = Callable[[int], int]


@dataclass(slots=True)
class TwoDWalkResult:
    """Cost and outcome of one nested walk."""

    ma: int
    permissions: int
    is_guest_shared: bool
    cycles: int
    memory_reads: int


class NestedTlb:
    """Small gPA→MA TLB used by the walker (not by data accesses)."""

    def __init__(self, entries: int = 64, stats: StatGroup | None = None) -> None:
        self.entries = entries
        self.stats = stats or StatGroup("nested_tlb")
        self._counters = self.stats.counters
        self._map: Dict[int, int] = {}

    def lookup(self, gpa_page: int):
        """Probe the nested TLB; returns the MA page or None."""
        counters = self._counters
        counters["lookups"] += 1
        ma_page = self._map.pop(gpa_page, None)
        if ma_page is None:
            counters["misses"] += 1
            return None
        self._map[gpa_page] = ma_page
        counters["hits"] += 1
        return ma_page

    def fill(self, gpa_page: int, ma_page: int) -> None:
        if gpa_page in self._map:
            del self._map[gpa_page]
        elif len(self._map) >= self.entries:
            del self._map[next(iter(self._map))]
        self._map[gpa_page] = ma_page

    def flush(self) -> None:
        self._map.clear()


class TwoDWalker:
    """Nested walker with nested TLB + 2-D walk cache."""

    def __init__(self, vm: VirtualMachine, config: WalkerConfig,
                 charge: ChargeFn, stats: StatGroup | None = None) -> None:
        self.vm = vm
        self.config = config
        self.charge = charge
        self.stats = stats or StatGroup("twod_walker")
        self._counters = self.stats.counters
        self.nested_tlb = NestedTlb()
        self._walk_cache: Dict[tuple[int, int], bool] = {}

    # ------------------------------------------------------------------ #
    # gPA → MA with the nested TLB absorbing host walks
    # ------------------------------------------------------------------ #

    def _host_resolve(self, gpa: int) -> tuple[int, int, int]:
        """Return (ma, cycles, reads) for translating one gPA."""
        gpa_page = gpa >> PAGE_SHIFT
        ma_page = self.nested_tlb.lookup(gpa_page)
        if ma_page is not None:
            return (ma_page << PAGE_SHIFT) | (gpa & 0xFFF), 1, 0
        ma, path = self.vm.host_resolve(gpa)
        cycles = 0
        for pte_ma in path:
            cycles += self.charge(pte_ma) + self.config.per_level_overhead
        self.nested_tlb.fill(gpa_page, ma >> PAGE_SHIFT)
        return ma, cycles, len(path)

    # ------------------------------------------------------------------ #
    # Guest walk cache
    # ------------------------------------------------------------------ #

    def _guest_cache_lookup(self, asid: int, gva: int) -> bool:
        key = (asid, gva >> 21)
        if key in self._walk_cache:
            del self._walk_cache[key]
            self._walk_cache[key] = True
            return True
        return False

    def _guest_cache_fill(self, asid: int, gva: int) -> None:
        key = (asid, gva >> 21)
        if key in self._walk_cache:
            del self._walk_cache[key]
        elif len(self._walk_cache) >= self.config.walk_cache_entries:
            del self._walk_cache[next(iter(self._walk_cache))]
        self._walk_cache[key] = True

    # ------------------------------------------------------------------ #
    # The nested walk
    # ------------------------------------------------------------------ #

    def walk(self, guest_asid: int, gva: int) -> TwoDWalkResult:
        """Perform one 2-D walk, charging every PTE read."""
        counters = self._counters
        counters["walks"] += 1
        cycles = 0
        reads = 0

        guest, guest_pte_gpas = self.vm.guest_kernel.pte_path(guest_asid, gva)
        if self._guest_cache_lookup(guest_asid, gva):
            guest_pte_gpas = guest_pte_gpas[-1:]
            counters["walk_cache_hits"] += 1
        else:
            self._guest_cache_fill(guest_asid, gva)

        # Each guest PTE lives at a gPA that itself needs host translation.
        for pte_gpa in guest_pte_gpas:
            pte_ma, host_cycles, host_reads = self._host_resolve(pte_gpa)
            cycles += host_cycles
            reads += host_reads
            cycles += self.charge(pte_ma) + self.config.per_level_overhead
            reads += 1

        # Finally translate the leaf gPA.
        ma, host_cycles, host_reads = self._host_resolve(guest.pa)
        cycles += host_cycles
        reads += host_reads

        host_entry = self.vm.host_page_table.entry(page_base(guest.pa))
        permissions = guest.permissions & host_entry.permissions
        counters["memory_reads"] += reads
        counters["walk_cycles"] += cycles
        return TwoDWalkResult(ma, permissions, guest.shared, cycles, reads)

    def translate(self, guest_asid: int, gva: int) -> Tuple[int, int, int]:
        """Walk and return ``(ma, cycles, permissions)``: the shape of a
        TLB miss handler and of a delayed-translation engine."""
        walk = self.walk(guest_asid, gva)
        return walk.ma, walk.cycles, walk.permissions
