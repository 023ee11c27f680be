"""Three-level cache hierarchy: private L1/L2 per core, shared inclusive LLC.

All levels store blocks under packed namespace keys, so one hierarchy
serves the physically addressed baseline (keys are always physical) and
the hybrid design (ASID+VA keys for non-synonyms, PA keys for synonyms)
without change — precisely the paper's point that a block has one name.

Coherence follows from the single-name property: a directory of private
copies keyed by block name invalidates remote copies on writes.  The LLC
is inclusive; its evictions back-invalidate inner copies so the OS's
per-page flushes only have to visit the hierarchy once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.cache.line import (
    CacheLine,
    PERM_RW,
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_SHARED,
)
from repro.cache.setassoc import SetAssociativeCache
from repro.common.address import BLOCK_SIZE, PAGE_SIZE
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.obs.events import STAGE_CACHE
from repro.obs.tracer import NULL_TRACER


@dataclass(slots=True)
class CacheAccessResult:
    """Outcome of one hierarchy access."""

    hit_level: str          # "l1" | "l2" | "llc" | "memory"
    latency: int            # cycles spent in the cache levels probed
    llc_miss: bool          # True when the request must go to memory
    writeback: bool = False  # a dirty LLC victim went to memory


class CacheHierarchy:
    """Per-core L1/L2 + shared inclusive LLC with copy-set coherence."""

    def __init__(self, config: SystemConfig, stats: StatGroup | None = None) -> None:
        self.config = config
        self.stats = stats or StatGroup("cache_hierarchy")
        self._counters = self.stats.counters
        self.l1: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1, f"l1_core{c}") for c in range(config.cores)
        ]
        self.l2: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l2, f"l2_core{c}") for c in range(config.cores)
        ]
        self.llc = SetAssociativeCache(config.llc, "llc")
        self.llc.on_eviction(self._back_invalidate)
        # Directory of private-cache copies: block key -> cores holding it.
        self._copies: Dict[int, Set[int]] = {}
        # Installed by MmuBase.attach_tracer; the null tracer never records.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------ #
    # Coherence plumbing
    # ------------------------------------------------------------------ #

    def _back_invalidate(self, victim: CacheLine) -> None:
        """Inclusive LLC eviction: purge every inner copy of the victim."""
        holders = self._copies.pop(victim.key, None)
        if not holders:
            return
        for core in holders:
            self.l1[core].invalidate(victim.key)
            self.l2[core].invalidate(victim.key)
        self._counters["back_invalidations"] += len(holders)

    def _invalidate_remote_copies(self, key: int, writer: int) -> None:
        """Write by ``writer``: invalidate all other cores' private copies."""
        holders = self._copies.get(key)
        if not holders:
            return
        remote = [core for core in holders if core != writer]
        for core in remote:
            self.l1[core].invalidate(key)
            self.l2[core].invalidate(key)
            holders.discard(core)
        if remote:
            self._counters["coherence_invalidations"] += len(remote)

    def _note_copy(self, key: int, core: int) -> None:
        self._copies.setdefault(key, set()).add(core)

    # ------------------------------------------------------------------ #
    # The access path
    # ------------------------------------------------------------------ #

    def access(self, core: int, key: int, is_write: bool,
               permissions: int = PERM_RW) -> CacheAccessResult:
        """Look up a block through L1 → L2 → LLC, filling on the way back.

        ``permissions`` are the page permissions installed on a memory
        fill (the delayed translation supplies them for non-synonym lines,
        Section III-A).  Permission *checking* is the caller's job via the
        returned/probed line, because the fault semantics differ per MMU.
        """
        result = self._access(core, key, is_write, permissions)
        if self.tracer.recording:
            self.tracer.stage(STAGE_CACHE, cycles=result.latency,
                              hit_level=result.hit_level, write=is_write)
        return result

    def _access(self, core: int, key: int, is_write: bool,
                permissions: int) -> CacheAccessResult:
        self._counters["accesses"] += 1
        shared_state = STATE_MODIFIED if is_write else STATE_SHARED

        l1 = self.l1[core]
        latency = l1.latency
        line = l1.lookup(key, is_write)
        if line is not None:
            if is_write:
                line.state = STATE_MODIFIED
                self._invalidate_remote_copies(key, core)
            return CacheAccessResult("l1", latency, llc_miss=False)

        l2 = self.l2[core]
        latency += l2.latency
        line = l2.lookup(key, is_write)
        if line is not None:
            l1.fill(CacheLine(key, line.dirty, line.permissions, shared_state))
            if is_write:
                self._invalidate_remote_copies(key, core)
            self._note_copy(key, core)
            return CacheAccessResult("l2", latency, llc_miss=False)

        latency += self.llc.latency
        line = self.llc.lookup(key, is_write)
        if line is not None:
            perms = line.permissions
            l2.fill(CacheLine(key, False, perms, shared_state))
            l1.fill(CacheLine(key, is_write, perms, shared_state))
            if is_write:
                self._invalidate_remote_copies(key, core)
            self._note_copy(key, core)
            return CacheAccessResult("llc", latency, llc_miss=False)

        # Memory fill: install in all levels (inclusive).
        self._counters["llc_misses"] += 1
        victim = self.llc.fill(CacheLine(key, is_write, permissions, STATE_EXCLUSIVE))
        writeback = victim is not None and victim.dirty
        if writeback:
            self._counters["memory_writebacks"] += 1
        l2.fill(CacheLine(key, False, permissions, shared_state))
        l1.fill(CacheLine(key, is_write, permissions, shared_state))
        if is_write:
            self._invalidate_remote_copies(key, core)
        self._note_copy(key, core)
        return CacheAccessResult("memory", latency, llc_miss=True, writeback=writeback)

    def probe_line(self, core: int, key: int) -> Optional[CacheLine]:
        """Return the closest resident copy of a block without side effects."""
        return (self.l1[core].probe(key) or self.l2[core].probe(key)
                or self.llc.probe(key))

    # ------------------------------------------------------------------ #
    # OS-directed maintenance
    # ------------------------------------------------------------------ #

    def flush_blocks(self, keys: Iterable[int]) -> int:
        """Invalidate blocks everywhere (page remap / deallocation /
        synonym-status change, Section III-A).  Returns lines dropped."""
        dropped = 0
        for key in keys:
            holders = self._copies.pop(key, set())
            for core in holders:
                if self.l1[core].invalidate(key) is not None:
                    dropped += 1
                if self.l2[core].invalidate(key) is not None:
                    dropped += 1
            if self.llc.invalidate(key) is not None:
                dropped += 1
        self.stats.add("page_flush_lines", dropped)
        return dropped

    def downgrade_blocks(self, keys: Iterable[int], permissions: int) -> int:
        """Rewrite permissions on resident copies (r/o sharing, Section III-D)."""
        changed = 0
        for key in keys:
            for core in self._copies.get(key, set()):
                self.l1[core].update_permissions(key, permissions)
                self.l2[core].update_permissions(key, permissions)
            if self.llc.update_permissions(key, permissions):
                changed += 1
        return changed

    def total_latency_floor(self) -> int:
        """L1+L2+LLC probe latency — the cycles an LLC miss has already paid."""
        return self.l1[0].latency + self.l2[0].latency + self.llc.latency


def page_block_keys(block_key_of_base: int, page_size: int = PAGE_SIZE,
                    block_size: int = BLOCK_SIZE) -> List[int]:
    """Enumerate the packed keys of every block in a page.

    ``block_key_of_base`` must be the packed key of the page's first block;
    consecutive blocks in a page differ by 1 in the packed representation
    (both namespaces place block-address bits in the low bits).
    """
    return [block_key_of_base + i for i in range(page_size // block_size)]
