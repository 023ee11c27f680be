#!/usr/bin/env python
"""Offline trace analytics: capture once, slice many ways.

A parallel delayed-TLB sweep records per-access pipeline events into one
shard per job (`BASE.<fingerprint>.jsonl` — the same files
`repro sweep --workers N --trace-out BASE` writes), then the offline
reader reconstructs what happened without touching the simulator again:

1. per-run cycle attribution — the front/cache/delayed/DRAM split of
   every configuration in the sweep;
2. per-stage latency histograms merged across all runs;
3. the top-N slowest accesses, with the stage events that made them slow
   — the tail the paper's delayed-translation argument is about.

Equivalent CLI: ``repro sweep gups --workers 4 --trace-out t.jsonl``
then ``repro trace view t.jsonl.*.jsonl``.
"""

import tempfile
from pathlib import Path

from repro.exec import ParallelExecutor, RunContext
from repro.obs import TraceSpec, read_trace
from repro.sim import sweep_delayed_tlb

WORKLOAD = "gups"
SIZES = (1024, 4096, 16384)
ACCESSES = 12_000
WARMUP = 3_000
WORKERS = 3
TOP_N = 3


def capture(base: Path) -> list:
    spec = TraceSpec(base=base, sample_every=2)
    sweep_delayed_tlb(WORKLOAD, list(SIZES), accesses=ACCESSES,
                      warmup=WARMUP, ctx=RunContext(trace_spec=spec),
                      executor=ParallelExecutor(workers=WORKERS))
    return spec.shards()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shards = capture(Path(tmp) / "sweep.jsonl")
        print(f"captured {len(shards)} shard(s), one per job")
        view = read_trace(shards, top_n=TOP_N)

        print("\n-- cycle attribution per run --")
        for run in view.runs:
            attribution = run.attribution()
            total = max(1, sum(attribution.values()))
            split = "  ".join(f"{phase}={100 * c / total:5.1f}%"
                              for phase, c in attribution.items())
            print(f"{run.label:<40} {split}")

        overall = view.overall()
        print("\n-- stage latencies, merged across the sweep --")
        for name in sorted(overall.stage_histograms):
            h = overall.stage_histograms[name]
            if not h.count:
                continue
            print(f"{name:<14} n={h.count:<7} mean={h.mean():6.1f} "
                  f"p99<={h.percentile(99)}")

        print(f"\n-- top {TOP_N} slowest accesses --")
        for record in overall.slowest:
            phases = " ".join(f"{k.removesuffix('_cycles')}={v}"
                              for k, v in record.phase_cycles.items() if v)
            print(f"va=0x{record.va:x} hit={record.hit_level} "
                  f"total={record.total_cycles} cycles ({phases})")


if __name__ == "__main__":
    main()
