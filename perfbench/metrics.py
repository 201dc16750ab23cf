"""Catalogue of every metric the benchmark emits.

One row per metric: name, unit, direction, the layer (module) it
measures, and which end-to-end metric it should move on which workload.
``BENCHMARK.json`` repeats name, unit and direction; the self-test keeps
the two in step.

Host time and simulated cycles never mix: every ``*_s`` metric is host
wall-clock seconds, every ``sim.*`` metric is read off the simulator's
report and is exact.  A change that only speeds up the simulator must
leave every ``sim.*`` value identical; their ``better`` field exists
because ``BENCHMARK.json`` requires one, not because either direction is
an improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    #: Which end-to-end metric this one should move, on which workload.
    moves: str
    #: Regression bound (share of the parent's median); end-to-end only.
    bound: Optional[float] = None


#: Seen by a user of the system; measured with no wrapper installed.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "whole program",
           "itself: empty process state to ready-to-serve (dataset "
           "load, trace generation, pool/fleet build, store priming)",
           bound=0.25),
    Metric("jobs_per_s", "1/s", "higher", "whole program",
           "itself: trace requests / host seconds of the serve calls",
           bound=0.24),
    Metric("peak_rss_mb", "MB", "lower", "whole program",
           "itself: peak resident memory of the benchmark process",
           bound=0.10),
)

_SCHED = ("repro.runtime.scheduler + events",
          "jobs_per_s on model-steady and fleet-chaos; no change on "
          "simulate-mix or cold-start-wide")
_PROGRAM = ("programming: Alrescha.from_matrix, AcceleratorBackend, "
            "compile_pass (convert, plan compile, template capture)",
            "jobs_per_s on cold-start-wide; little on simulate-mix, "
            "none on model-steady")
_STORE = ("repro.store",
          "jobs_per_s on simulate-mix (warm loads); 0 on storeless "
          "workloads")
_ATTEMPT = ("Device.attempt/attempt_batch into repro.core kernels and "
            "repro.solvers",
            "jobs_per_s on simulate-mix; no change on model-steady")
_FLEET = ("repro.runtime.fleet / autoscale / repro.sim.chaos",
          "jobs_per_s on fleet-chaos")
_SIM = ("simulated clock (exact, never host time)",
        "nothing: must stay identical under any speed change")

#: Measured in a separate traced run from the benchmark's own wrappers.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("datasets.load_s", "s", "lower", "repro.datasets",
           "setup_s on cold-start-wide (14 datasets); negligible "
           "elsewhere"),
    Metric("jobs.make_trace_s", "s", "lower", "repro.runtime.jobs",
           "setup_s on model-steady and fleet-chaos"),
    Metric("program.count", "count", "lower", *_PROGRAM),
    Metric("program.s", "s", "lower", *_PROGRAM),
    Metric("program.per_workload", "ratio", "lower", *_PROGRAM),
    Metric("store.compiled", "count", "lower", *_STORE),
    Metric("store.loaded", "count", "lower", *_STORE),
    Metric("store.memory_hits", "count", "higher", *_STORE),
    Metric("store.load_s", "s", "lower", *_STORE),
    Metric("store.prime_s", "s", "lower", "repro.store",
           "setup_s on simulate-mix"),
    Metric("attempt.count", "count", "lower", *_ATTEMPT),
    Metric("attempt.failed", "count", "lower", *_ATTEMPT),
    Metric("attempt.spmv_s", "s", "lower", *_ATTEMPT),
    Metric("attempt.symgs_s", "s", "lower", *_ATTEMPT),
    Metric("attempt.pcg_s", "s", "lower", *_ATTEMPT),
    Metric("attempt.model_s", "s", "lower", _ATTEMPT[0],
           "jobs_per_s on model-steady and fleet-chaos"),
    Metric("golden.count", "count", "lower",
           "DevicePool golden pricing device (Device.attempt, id -1)",
           "jobs_per_s on model-steady (one kernel run per workload)"),
    Metric("golden.s", "s", "lower",
           "DevicePool golden pricing device (Device.attempt, id -1)",
           "jobs_per_s on model-steady (one kernel run per workload)"),
    Metric("reference.count", "count", "lower",
           "DevicePool.reference_values",
           "jobs_per_s on simulate-mix and fleet-chaos (degraded jobs)"),
    Metric("reference.s", "s", "lower", "DevicePool.reference_values",
           "jobs_per_s on simulate-mix and fleet-chaos (degraded jobs)"),
    Metric("scheduler.self_s", "s", "lower", *_SCHED),
    Metric("scheduler.events_processed", "count", "lower", *_SCHED),
    Metric("scheduler.events_stale", "count", "lower", *_SCHED),
    Metric("scheduler.stale_ratio", "ratio", "lower", *_SCHED),
    Metric("scheduler.us_per_event", "us", "lower", *_SCHED),
    Metric("fleet.reroutes", "count", "lower", *_FLEET),
    Metric("autoscale.scale_events", "count", "lower", *_FLEET),
    Metric("hedge.launched", "count", "lower", *_FLEET),
    Metric("hedge.won_ratio", "ratio", "higher", *_FLEET),
    Metric("serve.s", "s", "lower", "traced serve call",
           "the base of every *.share metric"),
    Metric("scheduler.share", "ratio", "lower", _SCHED[0],
           "scheduler.self_s / serve.s: most of serve on model-steady "
           "and fleet-chaos"),
    Metric("attempt.share", "ratio", "lower", _ATTEMPT[0],
           "attempt self time / serve.s: most of serve on "
           "simulate-mix"),
    Metric("program.share", "ratio", "lower", _PROGRAM[0],
           "program.s / serve.s: most of serve on cold-start-wide"),
    Metric("traced.overhead", "ratio", "lower", "benchmark wrappers",
           "nothing: traced serve wall / untraced serve wall"),
    Metric("sim.makespan_cycles", "cycles", "lower", *_SIM),
    Metric("sim.latency_p50_cycles", "cycles", "lower", *_SIM),
    Metric("sim.latency_p99_cycles", "cycles", "lower", *_SIM),
    Metric("sim.ok", "count", "higher", *_SIM),
    Metric("sim.timeout", "count", "lower", *_SIM),
    Metric("sim.degraded", "count", "lower", *_SIM),
    Metric("sim.rejected", "count", "lower", *_SIM),
    Metric("sim.retries", "count", "lower", *_SIM),
    Metric("sim.breaker_trips", "count", "lower", *_SIM),
    Metric("sim.report_crc", "crc32", "lower", *_SIM),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
