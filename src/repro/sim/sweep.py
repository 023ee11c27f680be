"""Generic configuration sweeps.

``with_overrides`` rebuilds a (frozen, nested) :class:`SystemConfig`
with dotted-path field overrides, and ``sweep_config`` runs one workload
across a sequence of values of any such field — the generalization of
the paper's Figure 4 (delayed-TLB entries) and Figure 7 (index-cache
size) sweeps to every parameter in the system.

Both sweeps are plan builders over the execution engine
(:mod:`repro.exec`): each point becomes a frozen ``Job``, identical
points dedupe, the ``executor``/``cache`` knobs allow parallel
execution and fingerprint-keyed result reuse, and ``ctx`` carries
tracing, heartbeats, metrics and progress (see ``docs/execution.md``).

Example::

    results = sweep_config("gups", "hybrid_segments",
                           "segments.segment_cache_entries",
                           [0, 32, 128, 512])
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.common.params import SystemConfig
from repro.exec.cache import ResultCache
from repro.exec.job import Job
from repro.exec.context import RunContext
from repro.exec.plan import ExperimentPlan
from repro.sim.results import SimulationResult
from repro.workloads.spec import WorkloadSpec


def with_overrides(config: SystemConfig,
                   overrides: Mapping[str, Any]) -> SystemConfig:
    """Rebuild a frozen nested config with dotted-path overrides.

    Paths name dataclass fields, e.g. ``"llc.size_bytes"`` or
    ``"segments.index_cache_size"``.  Unknown paths raise ``AttributeError``
    so typos fail loudly.
    """
    result = config
    for path, value in overrides.items():
        parts = path.split(".")
        result = _replace_path(result, parts, value)
    return result


def _replace_path(obj: Any, parts: Sequence[str], value: Any) -> Any:
    field_name = parts[0]
    if not hasattr(obj, field_name):
        raise AttributeError(
            f"{type(obj).__name__} has no field {field_name!r}")
    if len(parts) == 1:
        return dataclasses.replace(obj, **{field_name: value})
    child = getattr(obj, field_name)
    return dataclasses.replace(
        obj, **{field_name: _replace_path(child, parts[1:], value)})


def sweep_config(workload: Union[str, WorkloadSpec], mmu_name: str,
                 field_path: str, values: Iterable[Any],
                 base_config: SystemConfig | None = None,
                 accesses: int = 30_000, warmup: int = 10_000,
                 seed: int = 42,
                 interval: Optional[int] = None,
                 executor=None,
                 cache: Optional[ResultCache] = None,
                 ctx: Optional[RunContext] = None
                 ) -> Dict[Any, SimulationResult]:
    """Run ``workload`` under ``mmu_name`` for each value of one field."""
    base = base_config or SystemConfig()
    jobs = {value: Job(workload=workload, mmu=mmu_name,
                       config=with_overrides(base, {field_path: value}),
                       accesses=accesses, warmup=warmup, seed=seed,
                       interval=interval,
                       tags=((field_path, value),))
            for value in values}
    plan = ExperimentPlan(jobs.values())
    outcomes = plan.run(executor=executor, cache=cache, ctx=ctx)
    return {value: outcomes.result(job) for value, job in jobs.items()}


def sweep_grid(workload: Union[str, WorkloadSpec], mmu_name: str,
               grid: Mapping[str, Sequence[Any]],
               base_config: SystemConfig | None = None,
               accesses: int = 30_000, warmup: int = 10_000,
               seed: int = 42,
               interval: Optional[int] = None,
               executor=None,
               cache: Optional[ResultCache] = None,
               ctx: Optional[RunContext] = None
               ) -> List[Dict[str, Any]]:
    """Cartesian-product sweep over several fields.

    Returns a list of ``{"params": {...}, "result": SimulationResult}``
    rows in grid order.
    """
    base = base_config or SystemConfig()
    fields = list(grid)
    points: List[tuple] = []
    plan = ExperimentPlan()
    for combo in itertools.product(*(grid[f] for f in fields)):
        params = dict(zip(fields, combo))
        job = Job(workload=workload, mmu=mmu_name,
                  config=with_overrides(base, params),
                  accesses=accesses, warmup=warmup, seed=seed,
                  interval=interval,
                  tags=tuple(params.items()))
        plan.add(job)
        points.append((params, job))
    outcomes = plan.run(executor=executor, cache=cache, ctx=ctx)
    return [{"params": params, "result": outcomes.result(job)}
            for params, job in points]
