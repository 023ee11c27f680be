"""Experiment plans: collect jobs, dedupe, execute, cache.

:class:`ExperimentPlan` is the engine's front door.  Plan builders
(``compare_configs``, the sweeps, the CLI, the benchmarks) add frozen
jobs; identical fingerprints collapse to one execution, and
:meth:`ExperimentPlan.run` resolves every job against an optional
:class:`~repro.exec.cache.ResultCache` before handing only the cache
misses to the executor.  The returned :class:`PlanResults` maps each
fingerprint back to its outcome, however many duplicate adds pointed at
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.exec.context import NO_CONTEXT, RunContext
from repro.exec.executors import Outcome, SerialExecutor
from repro.exec.job import Job, JobError, JobFailedError

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache
    from repro.sim.results import SimulationResult


class PlanResults:
    """Outcomes of one plan execution, keyed by job fingerprint."""

    def __init__(self, outcomes: Dict[str, Outcome], cached: int = 0) -> None:
        self._outcomes = outcomes
        #: Jobs served straight from the :class:`ResultCache` — these
        #: never reached the executor.
        self.cached = cached

    @staticmethod
    def _key(key: Union[Job, str]) -> str:
        return key.fingerprint() if isinstance(key, Job) else key

    def __len__(self) -> int:
        return len(self._outcomes)

    def __contains__(self, key: Union[Job, str]) -> bool:
        return self._key(key) in self._outcomes

    def outcome(self, key: Union[Job, str]) -> Outcome:
        """Raw outcome — a ``SimulationResult`` or a :class:`JobError`."""
        return self._outcomes[self._key(key)]

    def result(self, key: Union[Job, str]) -> "SimulationResult":
        """The result for a job/fingerprint; a captured failure re-raises
        as :class:`JobFailedError` at the point of use."""
        outcome = self.outcome(key)
        if isinstance(outcome, JobError):
            raise JobFailedError(outcome)
        return outcome

    def errors(self) -> List[JobError]:
        return [o for o in self._outcomes.values() if isinstance(o, JobError)]

    def results(self) -> List["SimulationResult"]:
        return [o for o in self._outcomes.values()
                if not isinstance(o, JobError)]


class ExperimentPlan:
    """An ordered, fingerprint-deduplicated collection of jobs."""

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._jobs: Dict[str, Job] = {}      # fingerprint -> job, in order
        #: Adds that collapsed onto an already-planned fingerprint.
        self.duplicates = 0
        for job in jobs:
            self.add(job)

    def add(self, job: Job) -> str:
        """Plan one job; identical fingerprints execute only once.

        Returns the fingerprint — the key to look the outcome up in
        :class:`PlanResults` (a :class:`Job` works as a key too).
        """
        fingerprint = job.fingerprint()
        if fingerprint in self._jobs:
            self.duplicates += 1
        else:
            self._jobs[fingerprint] = job
        return fingerprint

    def extend(self, jobs: Iterable[Job]) -> List[str]:
        return [self.add(job) for job in jobs]

    @property
    def jobs(self) -> Tuple[Job, ...]:
        """The unique jobs, in first-add order."""
        return tuple(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)

    def run(self, executor=None, cache: "Optional[ResultCache]" = None,
            ctx: Optional[RunContext] = None) -> PlanResults:
        """Execute every unique job and return their outcomes.

        Cache hits are resolved first and never reach the executor, so a
        cache-warm rerun of a sweep performs zero new simulations.  Only
        successful results are written back to the cache.

        ``ctx`` goes to the executor unchanged; cache hits produce no
        trace and no heartbeat — nothing was simulated.  The plan itself
        reads two fields: ``ctx.progress`` is told as each job resolves,
        and ``ctx.metrics`` receives the plan's **final** state via
        :func:`~repro.obs.metrics.fold_plan` once every outcome is in —
        a deterministic fold in plan order, so the end-of-plan registry
        snapshot is byte-identical between serial and parallel
        execution (live heartbeat gauges are wiped by the fold).
        """
        executor = executor or SerialExecutor()
        ctx = ctx or NO_CONTEXT
        progress, metrics = ctx.progress, ctx.metrics
        total = len(self._jobs)
        outcomes: Dict[str, Outcome] = {}
        pending: List[Job] = []
        cached_fingerprints: List[str] = []
        done = 0
        for fingerprint, job in self._jobs.items():
            hit = cache.load(job) if cache is not None else None
            if hit is not None:
                outcomes[fingerprint] = hit
                cached_fingerprints.append(fingerprint)
                done += 1
                if progress is not None:
                    progress(done, total, job, "cached")
            else:
                pending.append(job)

        def on_done(job: Job, outcome: Outcome) -> None:
            nonlocal done
            outcomes[job.fingerprint()] = outcome
            if cache is not None and not isinstance(outcome, JobError):
                cache.store(job, outcome)
            done += 1
            if progress is not None:
                progress(done, total, job,
                         "error" if isinstance(outcome, JobError) else "ok")

        executor.run(pending, on_done=on_done, ctx=ctx)
        if metrics is not None and metrics.enabled:
            from repro.obs.metrics import fold_plan

            fold_plan(metrics, self._jobs.values(), outcomes,
                      cached_fingerprints)
        return PlanResults({fp: outcomes[fp] for fp in self._jobs},
                           cached=len(cached_fingerprints))
