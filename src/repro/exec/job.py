"""Frozen job descriptions: one simulation point each.

A :class:`Job` captures everything that determines a
:class:`~repro.sim.results.SimulationResult` — workload, MMU
configuration name, hardware config, access/warmup counts, seed,
interval — as a frozen, picklable value object.  :meth:`Job.fingerprint`
extends the :meth:`~repro.obs.manifest.RunManifest.identity` machinery:
two jobs with equal fingerprints must produce identical results, which
is what makes plan-level deduplication and the on-disk
:class:`~repro.exec.cache.ResultCache` sound.

``repro.sim`` is imported lazily so the engine sits *below* the
experiment helpers without an import cycle: ``repro.sim.runner`` builds
plans of jobs at module load, while a job's :meth:`run` only calls back
into the runner's ``build_mmu``/``lay_out`` primitives at execution
time.
"""

from __future__ import annotations

import hashlib
import json
import traceback as tb
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro.common.params import SystemConfig, config_from_dict
from repro.obs.manifest import MANIFEST_SCHEMA, config_fingerprint

if TYPE_CHECKING:  # avoid importing repro.sim at module load (cycle)
    from repro.obs.tracer import Tracer
    from repro.sim.results import SimulationResult
    from repro.workloads.spec import WorkloadSpec

#: Version tag of the :meth:`Job.to_json_dict` wire format — what the
#: simulation service accepts over HTTP (``POST /jobs``).
JOB_SCHEMA = "repro.job/v1"


@dataclass(frozen=True)
class Job:
    """One (workload, MMU, config) simulation point, ready to execute."""

    workload: "Union[str, WorkloadSpec]"
    mmu: str
    config: Optional[SystemConfig] = None
    accesses: int = 100_000
    warmup: int = 20_000
    seed: int = 42
    interval: Optional[int] = None
    reset_stats_after_warmup: bool = False
    #: Extra key/value pairs attached to the tracer's ``run_start`` mark
    #: (e.g. the swept parameter values).  Purely descriptive — tags do
    #: not influence the fingerprint.
    tags: Tuple[Tuple[str, Any], ...] = ()

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, str):
            return self.workload
        return self.workload.name

    def identity(self) -> Dict[str, Any]:
        """Every deterministic input, in ``RunManifest.identity`` layout.

        Equal identities ⇒ equal results.  The manifest's environment
        fields (host, wall-clock, Python version) are exactly what this
        omits; the engine adds the fields the manifest predates —
        ``interval``, ``reset_stats_after_warmup``, and a hash of ad-hoc
        workload specs not named in the catalog.
        """
        from repro import __version__  # deferred: repro imports sim at load

        identity: Dict[str, Any] = {
            "schema": MANIFEST_SCHEMA,
            "workload": self.workload_name,
            "mmu": self.mmu,
            "config_hash": config_fingerprint(self.config or SystemConfig()),
            "seed": self.seed,
            "accesses": self.accesses,
            "warmup": self.warmup,
            "package_version": __version__,
            "interval": self.interval,
            "reset_stats_after_warmup": self.reset_stats_after_warmup,
        }
        if not isinstance(self.workload, str):
            identity["workload_spec_hash"] = config_fingerprint(self.workload)
        return identity

    def fingerprint(self) -> str:
        """Stable short hash of :meth:`identity` — the dedup/cache key."""
        text = json.dumps(self.identity(), sort_keys=True, default=str)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def to_json_dict(self) -> Dict[str, Any]:
        """This job as a ``repro.job/v1`` document (the service wire
        format).

        Only catalog-named workloads serialize — an ad-hoc
        :class:`~repro.workloads.spec.WorkloadSpec` has no stable wire
        form, so it raises rather than fingerprint-drifting silently.
        ``config`` is the nested plain-dict view (``None`` means the
        default :class:`SystemConfig`); ``tags`` must be
        JSON-representable pairs.
        """
        if not isinstance(self.workload, str):
            raise ValueError(
                "ad-hoc WorkloadSpec jobs have no repro.job/v1 form; "
                "submit a catalog workload name instead")
        return {
            "schema": JOB_SCHEMA,
            "workload": self.workload,
            "mmu": self.mmu,
            "config": self.config.to_dict() if self.config else None,
            "accesses": self.accesses,
            "warmup": self.warmup,
            "seed": self.seed,
            "interval": self.interval,
            "reset_stats_after_warmup": self.reset_stats_after_warmup,
            "tags": [[key, value] for key, value in self.tags],
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, Any]) -> "Job":
        """Inverse of :meth:`to_json_dict`.

        Round-trip invariant (pinned by the property suite):
        ``Job.from_json_dict(job.to_json_dict()) == job``, hence equal
        fingerprints.  Dict key order never matters — identity is built
        field by field and hashed over sorted keys.  Unknown keys are
        ignored for forward compatibility; missing required keys raise
        ``KeyError``, wrong shapes raise ``TypeError``/``ValueError``.
        """
        schema = doc.get("schema")
        if schema != JOB_SCHEMA:
            raise ValueError(
                f"expected a {JOB_SCHEMA} document, got {schema!r}")
        workload = doc["workload"]
        if not isinstance(workload, str):
            raise TypeError("workload must be a catalog name string")
        config_doc = doc.get("config")
        return cls(
            workload=workload,
            mmu=doc["mmu"],
            config=(config_from_dict(config_doc)
                    if config_doc is not None else None),
            accesses=int(doc.get("accesses", 100_000)),
            warmup=int(doc.get("warmup", 20_000)),
            seed=int(doc.get("seed", 42)),
            interval=(int(doc["interval"])
                      if doc.get("interval") is not None else None),
            reset_stats_after_warmup=bool(
                doc.get("reset_stats_after_warmup", False)),
            tags=tuple((str(key), value)
                       for key, value in doc.get("tags", ())),
        )

    def mark_detail(self) -> Dict[str, Any]:
        """Fields for the ``run_start`` tracer mark bracketing this job."""
        detail: Dict[str, Any] = {"workload": self.workload_name,
                                  "mmu": self.mmu}
        detail.update(dict(self.tags))
        return detail

    def run(self, tracer: "Optional[Tracer]" = None,
            pulse=None) -> "SimulationResult":
        """Execute this job on a fresh kernel (one independent system).

        ``baseline_thp`` runs on a transparent-huge-page kernel (2 MB-
        aligned eager allocations); every other configuration uses the
        standard one.  ``pulse`` is the simulator's periodic-progress
        hook (see :class:`~repro.obs.heartbeat.HeartbeatPulse`); it
        reports, never influences, the simulated outcome.
        """
        from repro.osmodel.kernel import Kernel
        from repro.sim.runner import build_mmu, lay_out
        from repro.sim.simulator import Simulator

        config = self.config or SystemConfig()
        kernel = Kernel(config,
                        transparent_huge_pages=self.mmu == "baseline_thp")
        laid_out = lay_out(self.workload, kernel, seed=self.seed)
        mmu = build_mmu(self.mmu, kernel, config)
        return Simulator(mmu).run(
            laid_out, self.accesses, warmup=self.warmup, seed=self.seed,
            reset_stats_after_warmup=self.reset_stats_after_warmup,
            interval=self.interval, tracer=tracer, pulse=pulse)


@dataclass(frozen=True)
class JobError:
    """Structured capture of one failed job — the rest of the sweep
    completes and the failure stays inspectable."""

    fingerprint: str
    workload: str
    mmu: str
    error_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, job: Job, exc: BaseException) -> "JobError":
        return cls(
            fingerprint=job.fingerprint(),
            workload=job.workload_name,
            mmu=job.mmu,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(tb.format_exception(type(exc), exc,
                                                  exc.__traceback__)),
        )


class JobFailedError(RuntimeError):
    """Raised when a plan consumer demands the result of a failed job."""

    def __init__(self, error: JobError) -> None:
        super().__init__(f"job {error.workload}/{error.mmu} failed: "
                         f"{error.error_type}: {error.message}")
        self.error = error


class JobCancelled(RuntimeError):
    """A running job was aborted mid-simulation by its deadline (the
    context's ``timeout``).  Captured like any failure — the outcome is
    a :class:`JobError` with ``error_type == "JobCancelled"`` — so one
    cancelled point never kills a batch."""
