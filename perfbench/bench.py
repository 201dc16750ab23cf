"""One benchmark run: repeated set-up + serve cycles of one workload.

Each cycle starts from an empty process state (the dataset cache is
cleared and the artifact store directory is new), times the set-up to
ready-to-serve, then times the one serve call.  Each cycle serves a
trace drawn from a sub-seed of the run's seed (see :func:`_schedule`),
so one run averages over many traces; a sub-seed served twice must give
byte-identical results and reports.  Cycles repeat until the run's
seconds are spent (at least :data:`MIN_CYCLES`); the run reports the
median set-up time and all requests over all serve seconds.

With ``trace=False`` no wrapper is installed and the run reports the
end-to-end metrics.  With ``trace=True`` every sub-seed is served
untraced, then traced: the traced serve gives the per-layer split, and
its untraced twin the base of ``traced.overhead`` and the check that
tracing leaves the simulated clock alone.

Host speed.  The shared host's speed swings by up to 2x within
seconds, so every host time is normalised: a fixed calibration loop
runs before the set-up, between set-up and serve, and after the serve,
and each time is multiplied by ``REF_CALIBRATION_S / calibration``
(the mean of the two loops around it).  Times therefore read as
seconds on a host that runs the loop in :data:`REF_CALIBRATION_S`; a
change to the program does not touch the loop.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import random
import resource
import statistics
import sys
import time
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro.datasets as datasets
from repro.runtime.pool import DevicePool

from gate import (answer_breaches, conservation_breaches, divergence,
                  failed_jobs)
from spans import Recorder, self_times, under
from workloads import Workload

#: Fewest set-up + serve cycles per run.
MIN_CYCLES = 4
#: Scale of the normalised times: roughly :func:`calibrate`'s time on
#: the Intel Xeon 2-vCPU VM (CPython 3.11) the benchmark was defined
#: on.  Any constant works as long as it never changes.
REF_CALIBRATION_S = 0.016


def calibrate() -> float:
    """Seconds a fixed piece of heap/dict/tuple interpreter work takes
    now: the same mix of work the scheduler and event engine do."""
    rng = random.Random(0)
    heap: list = []
    table: Dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(12_000):
        heapq.heappush(heap, (rng.random(), i))
        table[i & 511] = table.get(i & 511, 0) + i
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def sub_seed(seed: int, k: int) -> int:
    """Trace seed of pair ``k`` of a run with seed ``seed``."""
    return seed * 1000 + k


@dataclass
class Cycle:
    seed: int
    traced: bool
    run_id: int
    #: Normalised host seconds (see the module docstring).
    setup_s: float
    serve_s: float
    #: ``REF_CALIBRATION_S / calibration`` around the serve call.
    speed: float
    raw_serve_s: float
    #: Distinct ``(dataset, scale, kernel)`` workloads in the trace.
    n_workloads: int
    #: Dropped once its answers and its twin's results are checked.
    trace: Optional[list]
    results: Optional[list]
    report: object
    encoded: str
    store_counts: Optional[Dict[str, int]] = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: One line per breach of the correctness gate.
    breaches: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Diagnostics printed as comments, not metrics.
    info: Dict[str, float] = field(default_factory=dict)

    def breach(self, lines: List[str], jobs: Optional[int] = None) -> None:
        """Count ``jobs`` failed operations (default: one per line)."""
        self.breaches += lines
        self.failed += len(lines) if jobs is None else jobs


def _no_span(name: str):
    return nullcontext()


def _schedule(trace: bool) -> Iterator[Tuple[int, bool, bool]]:
    """``(pair index k, traced, twin follows)`` of each cycle, in order.

    Traced runs serve every sub-seed twice, untraced then traced.
    Untraced runs serve sub-seed 0 twice, then each sub-seed once, so
    one run spans as many distinct traces as its seconds allow.
    """
    if trace:
        for k in itertools.count():
            yield k, False, True
            yield k, True, False
    else:
        yield 0, False, True
        for k in itertools.count():
            yield k, False, False


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        work: Path, spans_path: Optional[Path] = None) -> Outcome:
    """Measure ``wl`` for ``seconds``; see the module docstring."""
    out = Outcome()
    rec = Recorder() if trace else None
    cycles: List[Cycle] = []
    #: First serve of the sub-seed being served again.
    first: Optional[Cycle] = None
    verifier = DevicePool(1)
    deadline = time.perf_counter() + seconds
    for k, traced, twin_follows in _schedule(trace):
        out.attempted += wl.n_jobs
        gc.collect()
        datasets.clear_dataset_cache()
        try:
            c = _cycle(wl, sub_seed(seed, k), work,
                       rec if traced else None, len(cycles))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            # No job of the cycle got an answer.
            out.breach([f"cycle {len(cycles)} raised"], jobs=wl.n_jobs)
            break
        out.breach(conservation_breaches(c.report, c.results, wl.n_jobs))
        out.breach(failed_jobs(c.results))
        if first is not None:
            out.breach(divergence(first.results, first.encoded,
                                  c.results, c.encoded))
            first.trace = first.results = None
            first = None
        else:
            # Answers are checked once per sub-seed, outside the
            # measured seconds; a twin must return identical results.
            t0 = time.perf_counter()
            out.breach(answer_breaches(
                c.trace, c.results, wl.execution == "simulate",
                verifier))
            deadline += time.perf_counter() - t0
        if twin_follows:
            first = c
        else:
            c.trace = c.results = None
        cycles.append(c)
        if (len(cycles) >= MIN_CYCLES and first is None
                and time.perf_counter() >= deadline):
            break
    if not cycles:
        return out
    out.info = {
        "cycles": len(cycles),
        "calibration_ms": 1e3 * REF_CALIBRATION_S / statistics.median(
            c.speed for c in cycles),
        "raw_jobs_per_s": statistics.median(
            wl.n_jobs / c.raw_serve_s for c in cycles),
    }
    if trace:
        out.metrics = _layer_metrics(rec, cycles)
        if spans_path is not None:
            rec.dump(spans_path, {"workload": wl.name, "seed": seed,
                                  "cycles": len(cycles)})
    else:
        out.metrics = {
            "setup_s": statistics.median(c.setup_s for c in cycles),
            # All requests over all serve seconds: steadier than the
            # median of per-serve rates, which weights a short serve
            # on a briefly fast host as much as a long one.
            "jobs_per_s": wl.n_jobs * len(cycles)
            / sum(c.serve_s for c in cycles),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return out


def _cycle(wl: Workload, seed: int, work: Path, rec: Optional[Recorder],
           run_id: int) -> Cycle:
    """One set-up + serve from an empty process state."""
    if rec is not None:
        rec.begin(run_id)
        rec.install()
    try:
        span = rec.span if rec is not None else _no_span
        cal_a = calibrate()
        t0 = time.perf_counter()
        with span("setup"):
            ready = wl.setup(wl, seed, work, span)
        t1 = time.perf_counter()
        cal_b = calibrate()
        t2 = time.perf_counter()
        results, report = ready.serve()
        t3 = time.perf_counter()
        cal_c = calibrate()
    finally:
        if rec is not None:
            rec.uninstall()
    counts = None
    if ready.store is not None:
        r = ready.store.report()
        counts = {"compiled": r.conversions_compiled,
                  "loaded": r.conversions_loaded,
                  "memory_hits": r.memory_hits}
    speed = 2 * REF_CALIBRATION_S / (cal_b + cal_c)
    return Cycle(seed, rec is not None, run_id,
                 (t1 - t0) * 2 * REF_CALIBRATION_S / (cal_a + cal_b),
                 (t3 - t2) * speed, speed, t3 - t2,
                 len({(j.dataset, j.scale, j.kernel) for j in ready.trace}),
                 ready.trace, results, report, ready.encode(report),
                 counts)


def _pool_reports(report) -> list:
    if hasattr(report, "pool_stats"):
        return [p.report for p in report.pool_stats]
    return [report]


def sim_metrics(report, encoded: str) -> Dict[str, float]:
    """The simulated-clock fingerprint of one serve (exact)."""
    pools = _pool_reports(report)
    return {
        "sim.makespan_cycles": report.makespan_cycles,
        "sim.latency_p50_cycles": report.latency_p50_cycles,
        "sim.latency_p99_cycles": report.latency_p99_cycles,
        "sim.ok": report.ok,
        "sim.timeout": report.timeout,
        "sim.degraded": report.degraded,
        "sim.rejected": report.rejected,
        "sim.retries": sum(p.retries for p in pools),
        "sim.breaker_trips": sum(p.breaker_trips for p in pools),
        "sim.report_crc": zlib.crc32(encoded.encode()),
    }


def _split(spans: List[list]) -> Dict[str, float]:
    """Per-layer host seconds and counts of one traced cycle."""
    own = self_times(spans)
    acc: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value

    for i, (name, start, end, parent, _, tag) in enumerate(spans):
        if name == "setup":
            continue
        if name == "store.prime":
            add("store.prime_s", end - start)
        elif under(spans, parent, "setup"):
            if name == "load_dataset":
                add("datasets.load_s", own[i])
            elif name == "make_trace":
                add("jobs.make_trace_s", own[i])
        elif name == "serve":
            add("serve_s", end - start)
            add("scheduler.self_s", own[i])
        elif not under(spans, parent, "serve"):
            continue
        elif name == "attempt":
            kind, ok = tag
            if kind == "golden":
                add("golden.count", 1)
                add("golden.s", own[i])
            else:
                add("attempt.count", 1)
                add("attempt.failed", 0 if ok else 1)
                add(f"attempt.{kind}_s", own[i])
                add("attempt.self_s", own[i])
        elif name in ("from_matrix", "AcceleratorBackend",
                      "compile_pass"):
            add("program.s", own[i])
            if name != "compile_pass" and not under(
                    spans, parent, "from_matrix", "AcceleratorBackend"):
                add("program.count", 1)
        elif name == "store":
            add("store.load_s", own[i])
        elif name == "reference_values":
            add("reference.count", 1)
            add("reference.s", own[i])
    return acc


_COUNTS = {"program.count", "attempt.count", "attempt.failed",
           "golden.count", "reference.count"}


def _layer_metrics(rec: Recorder, cycles: List[Cycle]
                   ) -> Dict[str, float]:
    """Per-layer metrics: host times are medians over the traced
    cycles, normalised by each cycle's speed; counts and ``sim.*`` come
    from the first pair, whose sub-seed every run of a seed serves."""
    traced = [c for c in cycles if c.traced]
    splits = [{key: value if key in _COUNTS else value * c.speed
               for key, value in _split(rec.runs[c.run_id]).items()}
              for c in traced]
    first = splits[0]

    def med(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in splits)

    report = cycles[0].report
    pools = _pool_reports(report)
    processed = sum(p.events_processed for p in pools)
    stale = sum(p.events_stale for p in pools)
    launched = sum(p.hedges_launched for p in pools)
    won = sum(p.hedges_won for p in pools)
    scale = report.autoscale
    store = traced[0].store_counts or {}
    serve = med("serve_s")
    m = {
        "datasets.load_s": med("datasets.load_s"),
        "jobs.make_trace_s": med("jobs.make_trace_s"),
        "program.count": first.get("program.count", 0),
        "program.s": med("program.s"),
        "program.per_workload": first.get("program.count", 0)
        / traced[0].n_workloads,
        "store.compiled": store.get("compiled", 0),
        "store.loaded": store.get("loaded", 0),
        "store.memory_hits": store.get("memory_hits", 0),
        "store.load_s": med("store.load_s"),
        "store.prime_s": med("store.prime_s"),
        "attempt.count": first.get("attempt.count", 0),
        "attempt.failed": first.get("attempt.failed", 0),
        "attempt.spmv_s": med("attempt.spmv_s"),
        "attempt.symgs_s": med("attempt.symgs_s"),
        "attempt.pcg_s": med("attempt.pcg_s"),
        "attempt.model_s": med("attempt.model_s"),
        "golden.count": first.get("golden.count", 0),
        "golden.s": med("golden.s"),
        "reference.count": first.get("reference.count", 0),
        "reference.s": med("reference.s"),
        "scheduler.self_s": med("scheduler.self_s"),
        "scheduler.events_processed": processed,
        "scheduler.events_stale": stale,
        "scheduler.stale_ratio": stale / (processed + stale)
        if processed + stale else 0.0,
        "scheduler.us_per_event": 1e6 * med("scheduler.self_s")
        / processed if processed else 0.0,
        "fleet.reroutes": getattr(report, "reroutes", 0),
        "autoscale.scale_events": (scale.scale_ups + scale.scale_downs
                                   if scale is not None else 0),
        "hedge.launched": launched,
        "hedge.won_ratio": won / launched if launched else 0.0,
        "serve.s": serve,
        "scheduler.share": med("scheduler.self_s") / serve,
        "attempt.share": med("attempt.self_s") / serve,
        "program.share": med("program.s") / serve,
        # Each traced serve against its untraced twin (same sub-seed).
        "traced.overhead": statistics.median(
            cycles[i + 1].serve_s / cycles[i].serve_s
            for i in range(0, len(cycles), 2)),
    }
    m.update(sim_metrics(report, cycles[0].encoded))
    return m
