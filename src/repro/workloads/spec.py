"""Workload specifications and their instantiation on a simulated kernel.

A :class:`WorkloadSpec` is a declarative description — footprint, access
pattern mix, memory-op ratio, allocation profile, sharing behaviour —
calibrated per benchmark in ``catalog.py``.  Instantiating a spec against
a :class:`Kernel` performs the allocations (creating the segment/VMA
layout that Table III measures) and returns a :class:`LaidOutWorkload`
whose ``trace()`` lazily generates the reference stream.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, cycle, islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.rng import below, make_rng
from repro.osmodel.address_space import Process, Vma
from repro.osmodel.kernel import Kernel
from repro.workloads.patterns import build_pattern
from repro.workloads.trace import TraceRecord


@dataclass(frozen=True)
class PatternMix:
    """One weighted pattern component."""

    kind: str
    weight: float
    params: Tuple[Tuple[str, object], ...] = ()

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass(frozen=True)
class SharingSpec:
    """R/W shared-memory behaviour (Table I workloads)."""

    processes: int
    area_fraction: float    # shared bytes / (shared + private per process)
    access_fraction: float  # fraction of references hitting the shared region
    theta: float = 0.6      # Zipf skew of page popularity inside the region


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative workload description."""

    name: str
    footprint_bytes: int
    patterns: Tuple[PatternMix, ...]
    mem_ratio: float = 0.3        # memory references per instruction
    mlp: float = 1.5              # memory-level parallelism for timing
    write_fraction: float = 0.3
    alloc_chunk_bytes: Optional[int] = None  # None: one allocation request
    fragmented: bool = False      # break physical adjacency between chunks
    touch_fraction: float = 1.0   # used prefix of each region (Table III usage)
    policy: str = "eager"         # "eager" segments or "demand" paging
    sharing: Optional[SharingSpec] = None
    # Fraction of references hitting the process's small hot region
    # (stack/locals/loop state).  Real programs keep most accesses in a
    # few KB of hot data; without this the cache hierarchy would see an
    # implausible near-100 % miss stream and every result downstream of
    # cache behaviour (delayed-translation rate, energy) would be skewed.
    local_fraction: float = 0.35
    local_bytes: int = 64 * 1024
    # 80/20-style hot working set: this fraction of the remaining
    # references lands in a cache-sized hot window of the footprint.
    # Cold references roam the whole footprint and carry the TLB
    # pressure; hot ones give the realistic LLC hit rates that the
    # energy and delayed-translation-rate results depend on.  Uniformly
    # random workloads (GUPS) set this to 0.
    hot_fraction: float = 0.55
    hot_bytes: int = 256 * 1024

    @property
    def gap(self) -> int:
        """Non-memory instructions between references."""
        return max(0, round(1.0 / self.mem_ratio) - 1)

    def instructions_for(self, accesses: int) -> int:
        """Total instruction count a trace of ``accesses`` references models."""
        return accesses * (1 + self.gap)


class LaidOutWorkload:
    """A spec bound to processes and VMAs on a concrete kernel."""

    def __init__(self, spec: WorkloadSpec, kernel: Kernel, seed: int = 42,
                 core_base: int = 0, cores: Optional[List[int]] = None) -> None:
        self.spec = spec
        self.kernel = kernel
        self.seed = seed
        self.processes: List[Process] = []
        self.private_vmas: Dict[int, List[Vma]] = {}
        self.shared_vmas: Dict[int, Vma] = {}
        n_processes = spec.sharing.processes if spec.sharing else 1
        self.cores = cores if cores is not None else [
            (core_base + i) % max(1, kernel.config.cores) for i in range(n_processes)
        ]
        self._layout_rng = make_rng(seed, f"{spec.name}-layout")
        self._lay_out(n_processes)

    # ------------------------------------------------------------------ #
    # Memory layout
    # ------------------------------------------------------------------ #

    def _lay_out(self, n_processes: int) -> None:
        spec = self.spec
        shared_bytes = 0
        private_bytes = spec.footprint_bytes
        if spec.sharing:
            shared_bytes = int(spec.footprint_bytes * spec.sharing.area_fraction)
            private_bytes = spec.footprint_bytes - shared_bytes

        self.stack_vmas: Dict[int, Vma] = {}
        for i in range(n_processes):
            process = self.kernel.create_process(f"{spec.name}-{i}")
            self.processes.append(process)
            # Hot stack/locals region, demand-paged like a real stack.
            self.stack_vmas[process.asid] = self.kernel.mmap(
                process, spec.local_bytes, policy="demand")
            self.private_vmas[process.asid] = self._allocate_private(
                process, private_bytes)

        if spec.sharing and shared_bytes:
            vmas = self.kernel.mmap_shared(self.processes, shared_bytes)
            self.shared_vmas = vmas

    def _allocate_private(self, process: Process, total_bytes: int) -> List[Vma]:
        spec = self.spec
        chunk = spec.alloc_chunk_bytes or total_bytes
        vmas: List[Vma] = []
        allocated = 0
        while allocated < total_bytes:
            request = min(chunk, total_bytes - allocated)
            vmas.append(self.kernel.mmap(process, request, policy=spec.policy))
            allocated += request
            if spec.fragmented and allocated < total_bytes:
                # A competing allocation lands between our requests,
                # breaking physical adjacency (and thus segment merging).
                self.kernel.frames.alloc_frame()
        return vmas

    # ------------------------------------------------------------------ #
    # Trace generation
    # ------------------------------------------------------------------ #

    def trace(self, accesses: int, seed: Optional[int] = None) -> Iterator[TraceRecord]:
        """Generate ``accesses`` references, round-robin across processes.

        The stream is a pure function of (spec, layout, seed): each call
        builds its own pattern tables, and every RNG helper draws the same
        bits as the ``random`` method it replaces (see docs/simulation_model.md).
        """
        spec = self.spec
        rng = make_rng(seed if seed is not None else self.seed,
                       f"{spec.name}-access")
        slots = [(p.asid, core, self._process_generator(p, rng))
                 for p, core in zip(self.processes, self.cores)]
        random_ = rng.random
        write_fraction = spec.write_fraction
        gap = spec.gap
        for asid, core, next_va in islice(cycle(slots), accesses):
            # The address is drawn before the read/write coin.
            yield TraceRecord(asid, core, next_va(), random_() < write_fraction, gap)

    def _process_generator(self, process: Process, rng: random.Random):
        spec = self.spec
        bases: List[int] = []
        vbases: List[int] = []
        limits: List[int] = []
        private_length = 0
        for vma in self.private_vmas[process.asid]:
            bases.append(private_length)
            vbases.append(vma.vbase)
            limits.append(vma.length - 8)
            private_length += vma.length

        pattern_fns = [
            build_pattern(mix.kind, make_rng(self.seed, f"{spec.name}-{process.asid}-{i}"),
                          private_length, touch_fraction=spec.touch_fraction,
                          **mix.param_dict())
            for i, mix in enumerate(spec.patterns)
        ]
        # What rng.choices(pattern_fns, weights=...) computes per call.
        cum_weights = list(accumulate(mix.weight for mix in spec.patterns))
        total = cum_weights[-1] + 0.0
        if not 0.0 < total < float("inf"):
            raise ValueError(f"{spec.name}: pattern weights need a positive, finite total")
        last_pattern = len(pattern_fns) - 1
        shared_vma = self.shared_vmas.get(process.asid)
        shared_fraction = spec.sharing.access_fraction if spec.sharing else 0.0
        shared_pattern = None
        shared_base = 0
        if shared_vma is not None:
            shared_pattern = build_pattern(
                "zipf", make_rng(self.seed, f"{spec.name}-shared"),
                shared_vma.length, theta=spec.sharing.theta)
            shared_base = shared_vma.vbase
        stack_vma = self.stack_vmas[process.asid]
        stack_base, stack_length = stack_vma.vbase, stack_vma.length
        stack_cursor = 0
        hot_bytes = min(spec.hot_bytes,
                        max(4096, int(private_length * spec.touch_fraction)))
        hot_start = 0
        if private_length > hot_bytes:
            span = int(private_length * spec.touch_fraction) - hot_bytes
            if span > 0:
                # Derived from the workload seed (not the shared layout
                # RNG) so repeated trace() calls see the same hot window.
                hot_rng = make_rng(self.seed, f"{spec.name}-hot-{process.asid}")
                hot_start = (hot_rng.randrange(0, span) >> 12) << 12
        local_fraction = spec.local_fraction
        hot_fraction = spec.hot_fraction
        random_ = rng.random
        randbelow = below(rng)

        def resolve_private(offset: int) -> int:
            # An offset clamps to the last word of the VMA it falls in.
            i = bisect_right(bases, offset) - 1
            offset -= bases[i]
            limit = limits[i]
            return vbases[i] + (offset if offset < limit else limit)

        def next_va() -> int:
            nonlocal stack_cursor
            if shared_pattern is not None and random_() < shared_fraction:
                return shared_base + shared_pattern()
            if random_() < local_fraction:
                # Word-stride cycling through the hot region: high line reuse.
                offset = stack_cursor
                stack_cursor = (offset + 8) % stack_length
                return stack_base + offset
            if hot_fraction and random_() < hot_fraction:
                return resolve_private(hot_start + (randbelow(hot_bytes) & ~0x7))
            pattern = pattern_fns[bisect_right(cum_weights, random_() * total, 0, last_pattern)]
            return resolve_private(pattern())

        return next_va

    # ------------------------------------------------------------------ #
    # Measurement helpers
    # ------------------------------------------------------------------ #

    def live_segments(self) -> int:
        """Segments currently live for this workload's address spaces."""
        asids = {p.asid for p in self.processes}
        return sum(1 for s in self.kernel.segment_table.segments_sorted()
                   if s.asid in asids)

    def segment_utilization(self) -> float:
        """Touched / allocated over this workload's segments."""
        touched = 0
        allocated = 0
        asids = {p.asid for p in self.processes}
        for s in self.kernel.segment_table.segments_sorted():
            if s.asid in asids:
                touched += len(s.touched_pages) << 12
                allocated += s.length
        return touched / allocated if allocated else 1.0

    def shared_area_fraction(self) -> float:
        """Measured r/w-shared fraction of mapped memory (Table I check)."""
        shared = sum(v.length for v in self.shared_vmas.values())
        private = sum(v.length for vmas in self.private_vmas.values()
                      for v in vmas)
        total = shared + private
        return shared / total if total else 0.0
