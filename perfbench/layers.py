"""Per-layer tracing for the traced pass: call counts and self time.

:class:`LayerTrace` replaces each layer's entry points (the methods in
:data:`ENTRY_POINTS`) with timing wrappers *on their classes*, and puts
the originals back when the ``with`` block ends.  A wrapper counts the
call, times it, and charges the time to its caller as child time, so a
layer's self time is its wrapped time minus the wrapped calls it made.

Install the trace before building a kernel or MMU: ``PageWalker`` keeps
``kernel.pte_path`` as a bound method from its constructor on, so a
wrapper installed later would never see those calls.

The untraced pass installs nothing; the end-to-end metrics come from it
alone, because at ~40 ``StatGroup.add`` calls per access the wrappers
cost far more than the code they time.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.common.stats import StatGroup
from repro.core.conventional import ConventionalMmu
from repro.core.hybrid import HybridMmu
from repro.core.mmu_base import MmuBase
from repro.exec.cache import ResultCache
from repro.exec.job import Job
from repro.filters.synonym_filter import SynonymFilter
from repro.obs.histogram import Histogram
from repro.osmodel.kernel import Kernel
from repro.segtrans.many_segment import ManySegmentTranslator
from repro.serve.service import JobService
from repro.sim.simulator import Simulator
from repro.timing.dram import DramModel
from repro.timing.model import TimingModel
from repro.tlb.base import SetAssociativeTlb
from repro.tlb.walker import PageWalker
from repro.virt.hybrid_virt import VirtConventionalMmu, VirtHybridMmu
from repro.virt.twod_walker import TwoDWalker
from repro.workloads.spec import LaidOutWorkload

#: (layer, class, method) for every wrapped entry point.  ``trace`` is
#: special: its generator is wrapped so each ``next`` is one call.
ENTRY_POINTS: Tuple[Tuple[str, type, str], ...] = (
    ("workloads", LaidOutWorkload, "trace"),
    ("filters", SynonymFilter, "is_synonym_candidate"),
    ("tlb", SetAssociativeTlb, "lookup"),
    ("tlb", PageWalker, "walk"),
    ("osmodel", Kernel, "translate"),
    ("osmodel", Kernel, "pte_path"),
    ("cache", CacheHierarchy, "access"),
    ("cache", MmuBase, "charge_physical_read"),
    ("segtrans", ManySegmentTranslator, "translate"),
    ("virt", TwoDWalker, "walk"),
    ("core", ConventionalMmu, "access"),
    ("core", HybridMmu, "access"),
    ("core", VirtConventionalMmu, "access"),
    ("core", VirtHybridMmu, "access"),
    ("timing", TimingModel, "record"),
    ("timing", DramModel, "access"),
    ("common", StatGroup, "add"),
    ("obs", Histogram, "record"),
    ("sim", Simulator, "run"),
    ("exec", Job, "run"),
    ("exec", ResultCache, "load"),
    ("exec", ResultCache, "store"),
    ("serve", JobService, "submit"),
)

#: Layers whose entry points run inside ``Simulator.run``.
SIM_LAYERS = ("workloads", "filters", "tlb", "osmodel", "cache", "segtrans",
              "virt", "core", "timing", "common", "obs", "sim")


def entry_key(cls: type, method: str) -> str:
    return f"{cls.__name__}.{method}"


class _Thread:
    """One thread's open frames and per-entry cells.

    A cell is ``[calls, total_s, self_s, truthy_results]``; a frame is
    the child time accumulated so far by one open wrapped call.
    """

    def __init__(self) -> None:
        self.frames: List[float] = []
        self.cells: Dict[str, List[float]] = {}


class LayerTrace:
    """Context manager that installs the timing wrappers.

    ``layers`` limits which layers are wrapped (default: all).  Threads
    are traced independently; :meth:`cells` merges them.
    """

    def __init__(self, layers: Optional[Tuple[str, ...]] = None) -> None:
        self.entries = tuple(entry for entry in ENTRY_POINTS
                             if layers is None or entry[0] in layers)
        self.layer_of = {entry_key(cls, name): layer
                         for layer, cls, name in self.entries}
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._lock = threading.Lock()
        self._originals: List[Tuple[type, str, Callable]] = []
        self.excluded_s = 0.0

    # ------------------------------------------------------------------ #
    # Install / remove
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "LayerTrace":
        for _layer, cls, name in self.entries:
            original = cls.__dict__[name]      # own attribute, not inherited
            self._originals.append((cls, name, original))
            key = entry_key(cls, name)
            if name == "trace":
                setattr(cls, name, self._wrap_iterator(key, original))
            else:
                setattr(cls, name, self._wrap(key, original))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._originals):
            setattr(cls, name, original)
        self._originals.clear()

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _thread(self) -> _Thread:
        try:
            return self._local.thread
        except AttributeError:
            thread = self._local.thread = _Thread()
            with self._lock:
                self._threads.append(thread)
            return thread

    def _wrap(self, key: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        current = self._thread

        def wrapper(*args, **kwargs):
            thread = current()
            frames = thread.frames
            cell = thread.cells.get(key)
            if cell is None:
                cell = thread.cells[key] = [0, 0.0, 0.0, 0]
            frames.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                child = frames.pop()
                if frames:
                    frames[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - child
                if result:
                    cell[3] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_iterator(self, key: str, fn: Callable) -> Callable:
        timed_next = self._wrap(key, next)

        def trace(*args, **kwargs) -> Iterator:
            inner = fn(*args, **kwargs)
            return iter(lambda: timed_next(inner, None), None)

        trace.__wrapped__ = fn
        return trace

    def exclude(self, seconds: float) -> None:
        """Drop ``seconds`` of checking work (the oracle) from the
        enclosing frame and from the traced wall time."""
        frames = self._thread().frames
        if frames:
            frames[-1] += seconds
        self.excluded_s += seconds

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def cells(self) -> Dict[str, List[float]]:
        """Per-entry ``[calls, total_s, self_s, truthy]`` over all threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            for key, cell in thread.cells.items():
                into = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i, value in enumerate(cell):
                    into[i] += value
        return merged

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, summed over its entry points."""
        out = {layer: 0.0 for layer, _cls, _name in self.entries}
        for key, cell in self.cells().items():
            out[self.layer_of[key]] += cell[2]
        return out
