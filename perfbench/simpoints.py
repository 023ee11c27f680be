"""The simulator workloads: fixed (workload, MMU) points through
``Simulator.run``, with digest and oracle checks.

Every point is rebuilt from scratch for every run (fresh ``Kernel`` or
``Hypervisor``, ``lay_out``, MMU), so each run of a point simulates the
same inputs and must give the same digest.  All runs are serial, in this
process.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.address import page_base
from repro.common.params import SystemConfig
from repro.core.mmu_base import MmuBase
from repro.osmodel.kernel import Kernel
from repro.osmodel.pagetable import PageFault
from repro.sim.results import SimulationResult
from repro.sim.runner import build_mmu, lay_out
from repro.sim.simulator import Simulator
from repro.virt import Hypervisor, VirtConventionalMmu, VirtHybridMmu
from repro.workloads.spec import LaidOutWorkload

from layers import SIM_LAYERS, LayerTrace

#: Result fields a digest covers: everything the model computes.
DIGEST_FIELDS = ("stats", "cycle_breakdown", "histograms", "cycles",
                 "instructions")

#: Set-up-only repetitions per run; ``setup_s`` is their median.  They
#: run before the measured rounds, so the sample does not depend on how
#: many rounds fit in the run.
SETUP_REPEATS = 30

VIRT_MMUS = ("virt_baseline", "virt_hybrid_segments")

#: Timed accesses per chunk of a ``Simulator.run`` (about 20 ms).
CHUNK = 250


@dataclass(frozen=True)
class Point:
    """One (workload, MMU) simulation with fixed access counts."""

    workload: str
    mmu: str
    accesses: int
    warmup: int

    @property
    def name(self) -> str:
        return f"{self.workload}/{self.mmu}"

    @property
    def native(self) -> bool:
        return self.mmu not in VIRT_MMUS

    @property
    def total(self) -> int:
        """Simulated accesses, warm-up included."""
        return self.accesses + self.warmup


SIM_WORKLOADS: Dict[str, Tuple[Point, ...]] = {
    "paging_walks": (
        Point("gups", "baseline", 2000, 500),
        Point("gups", "hybrid_tlb", 2000, 500),
        Point("gups", "virt_baseline", 2000, 500),
    ),
    "segment_delayed": (
        Point("memcached", "hybrid_segments", 6000, 1500),
        Point("mcf", "hybrid_segments", 6000, 1500),
        Point("mcf", "virt_hybrid_segments", 6000, 1500),
    ),
    "synonym_sharing": (
        Point("postgres", "hybrid_tlb", 4000, 1000),
        Point("ferret", "hybrid_tlb", 4000, 1000),
        Point("postgres", "baseline", 4000, 1000),
        Point("ferret", "baseline", 4000, 1000),
    ),
}


def digest_doc(doc: Mapping) -> str:
    """sha256 of the canonical JSON of a ``repro.result/v1`` document's
    model outputs (:data:`DIGEST_FIELDS`)."""
    payload = {field: doc[field] for field in DIGEST_FIELDS}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: SimulationResult) -> str:
    return digest_doc(result.to_json_dict())


def build(point: Point, seed: int) -> Tuple[LaidOutWorkload, MmuBase]:
    """Fresh system for one point: kernel or hypervisor, layout, MMU."""
    if point.native:
        kernel = Kernel(SystemConfig())
        laid_out = lay_out(point.workload, kernel, seed=seed)
        return laid_out, build_mmu(point.mmu, kernel)
    hypervisor = Hypervisor()
    vm = hypervisor.create_vm(f"vm-{point.workload}")
    laid_out = lay_out(point.workload, vm.guest_kernel, seed=seed)
    if point.mmu == "virt_baseline":
        return laid_out, VirtConventionalMmu(hypervisor, vm)
    return laid_out, VirtHybridMmu(hypervisor, vm, delayed="segments")


class Oracle:
    """Checks every native access's ``translated_pa`` against the OS
    mapping.

    A page the page table maps is checked with the unwrapped
    ``Kernel.translate``, so the check adds nothing to the traced
    counts.  ``Kernel.translate`` faults unmapped pages in, which would
    change the model: segment-translated pages are never faulted into
    the page table, so for those the check reads the eager segment
    instead.  The oracle reports its own time to ``trace`` so it is
    left out of the traced self times.
    """

    def __init__(self, trace: Optional[LayerTrace] = None) -> None:
        self.trace = trace
        self.checked = 0
        self.mismatches = 0

    @staticmethod
    def expected_pa(kernel: Kernel, asid: int, va: int) -> Optional[int]:
        process = kernel.process(asid)
        try:
            process.page_table.entry(page_base(va))
        except PageFault:
            vma = process.find_vma(va)
            segment = vma.segment_for(va) if vma is not None else None
            return segment.translate(va) if segment is not None else None
        translate = getattr(Kernel.translate, "__wrapped__", Kernel.translate)
        return translate(kernel, asid, va).pa

    def attach(self, mmu: MmuBase) -> None:
        access = mmu.access
        kernel = mmu.kernel
        clock = time.perf_counter
        trace = self.trace

        def checked_access(core, asid, va, is_write):
            outcome = access(core, asid, va, is_write)
            t0 = clock()
            if outcome.translated_pa != self.expected_pa(kernel, asid, va):
                self.mismatches += 1
            self.checked += 1
            if trace is not None:
                trace.exclude(clock() - t0)
            return outcome

        mmu.access = checked_access


class ChunkClock:
    """A ``Simulator.run`` pulse that timestamps every :data:`CHUNK`
    timed accesses.  It only reads the clock, so it cannot change the
    simulated result."""

    def __init__(self) -> None:
        self.every = CHUNK
        self.stamps: List[float] = []

    def __call__(self, done, total, instructions, cycles) -> None:
        self.stamps.append(time.perf_counter())


@dataclass
class PointRun:
    point: Point
    #: Host seconds of each chunk of ``Simulator.run``: call start to the
    #: first pulse (warm-up included), pulse to pulse, last pulse to return.
    chunks_s: List[float]
    digest: str
    result: SimulationResult
    oracle_mismatches: int = 0

    @property
    def run_s(self) -> float:
        return sum(self.chunks_s)


def run_point(point: Point, seed: int,
              oracle: Optional[Oracle] = None) -> PointRun:
    """Build and simulate one point; only ``Simulator.run`` is in the
    chunk times."""
    laid_out, mmu = build(point, seed)
    clock = ChunkClock()
    before = oracle.mismatches if oracle is not None else 0
    if oracle is not None and point.native:
        oracle.attach(mmu)
    t1 = time.perf_counter()
    result = Simulator(mmu).run(laid_out, point.accesses,
                                warmup=point.warmup, seed=seed, pulse=clock)
    t2 = time.perf_counter()
    stamps = [t1] + clock.stamps + [t2]
    chunks = [b - a for a, b in zip(stamps, stamps[1:])]
    mismatches = (oracle.mismatches - before) if oracle is not None else 0
    return PointRun(point, chunks, result_digest(result), result, mismatches)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    digests: Dict[str, str]
    notes: Dict[str, float] = field(default_factory=dict)


class _Checker:
    """Counts point runs and the ones whose checks failed."""

    def __init__(self, expected: Mapping[str, str]) -> None:
        self.expected = dict(expected)     # reference digests, if any
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, run: PointRun, label: str) -> None:
        self.attempted += 1
        name = run.point.name
        bad = []
        if run.oracle_mismatches:
            bad.append(f"{run.oracle_mismatches} accesses disagree with "
                       "Kernel.translate")
        want = self.expected.setdefault(name, run.digest)
        if run.digest != want:
            bad.append(f"digest {run.digest[:12]} != expected {want[:12]}")
        if bad:
            self.failed += 1
            self.problems.append(f"{label} {name}: " + "; ".join(bad))


def measure(points: Sequence[Point], seed: int, seconds: float,
            reference: Mapping[str, str]) -> Outcome:
    """The untraced pass: end-to-end metrics.

    One oracle-checked round first (untimed; it also warms the
    process), then measured rounds of every point until ``seconds``
    have passed.  Every run's digest must equal the reference (when the
    seed has one) and the oracle round's.

    ``accesses_per_s`` is the total simulated accesses over the sum of
    each chunk's fastest time across the rounds.  A chunk
    (:data:`CHUNK` timed accesses) is identical work in every round,
    and other load on the host only ever adds time, so the best of many
    short timings is the steadiest estimate of what the code costs.
    ``setup_s`` is the median over :data:`SETUP_REPEATS` set-ups.
    """
    checker = _Checker(reference)
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for point in points:
            build(point, seed)
        setup_samples.append(time.perf_counter() - t0)

    oracle = Oracle()
    for point in points:
        checker.check(run_point(point, seed, oracle), "oracle round")

    best_chunks_s: Dict[str, List[float]] = {}
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds += 1
        runs = [run_point(point, seed) for point in points]
        for run in runs:
            checker.check(run, f"round {rounds}")
            best = best_chunks_s.setdefault(run.point.name, run.chunks_s)
            best_chunks_s[run.point.name] = [
                min(pair) for pair in zip(best, run.chunks_s)]

    metrics = {
        "accesses_per_s": (sum(point.total for point in points)
                           / sum(sum(chunks)
                                 for chunks in best_chunks_s.values())),
        "setup_s": statistics.median(setup_samples),
    }
    return Outcome(metrics, checker.attempted, checker.failed,
                   checker.problems, checker.expected, {"rounds": rounds})


def _stat_sum(results: Sequence[SimulationResult], group: str,
              counter: str) -> int:
    return sum(int(result.stats.get(group, {}).get(counter, 0))
               for result in results)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_traced(points: Sequence[Point], seed: int,
                   reference: Mapping[str, str]) -> Outcome:
    """The traced pass: per-layer metrics.

    One untraced round, then one round under :class:`LayerTrace` with
    the oracle attached.  The traced digests must equal the untraced
    ones: the wrappers observe the model without changing it.
    """
    checker = _Checker(reference)
    untraced = [run_point(point, seed) for point in points]
    for run in untraced:
        checker.check(run, "untraced round")
    with LayerTrace(SIM_LAYERS) as trace:
        oracle = Oracle(trace)
        traced = [run_point(point, seed, oracle) for point in points]
    for run in traced:
        checker.check(run, "traced round")

    cells = trace.cells()
    calls = {key: cell[0] for key, cell in cells.items()}
    accesses = sum(point.total for point in points)
    traced_wall = cells["Simulator.run"][1] - trace.excluded_s
    untraced_wall = sum(run.run_s for run in untraced)
    results = [run.result for run in traced]

    def per_access(key: str) -> float:
        return calls.get(key, 0) / accesses

    probe = cells.get("SynonymFilter.is_synonym_candidate", [0, 0, 0, 0])
    walk = cells.get("PageWalker.walk", [0, 0.0, 0, 0])
    metrics = {
        "filters.probes_per_access":
            per_access("SynonymFilter.is_synonym_candidate"),
        "filters.candidate_frac": _ratio(probe[3], probe[0]),
        "filters.true_synonym_frac": _ratio(
            _stat_sum(results, "hybrid", "true_synonym_accesses"),
            _stat_sum(results, "hybrid", "synonym_candidates")),
        "tlb.lookups_per_access": per_access("SetAssociativeTlb.lookup"),
        "tlb.walks_per_access": per_access("PageWalker.walk"),
        "tlb.walk_us": _ratio(walk[1] * 1e6, walk[0]),
        "osmodel.translates_per_access": per_access("Kernel.translate"),
        "osmodel.pte_paths_per_access": per_access("Kernel.pte_path"),
        "cache.lookups_per_access": per_access("CacheHierarchy.access"),
        "cache.metadata_reads_per_access":
            per_access("MmuBase.charge_physical_read"),
        "segtrans.translates_per_access":
            per_access("ManySegmentTranslator.translate"),
        "segtrans.full_walk_frac": _ratio(
            _stat_sum(results, "many_segment", "full_walks"),
            _stat_sum(results, "many_segment", "translations")),
        "virt.twod_walks_per_access": per_access("TwoDWalker.walk"),
        "common.stat_adds_per_access": per_access("StatGroup.add"),
        "obs.hist_records_per_access": per_access("Histogram.record"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for layer, self_s in trace.layer_self_s().items():
        metrics[f"{layer}.self_share"] = _ratio(self_s, traced_wall)
    return Outcome(metrics, checker.attempted, checker.failed,
                   checker.problems, checker.expected)
