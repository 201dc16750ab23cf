"""The four benchmark workloads and their set-up.

Load model: offline batch.  Each workload generates its whole trace
from the seed, hands it to one serve call (``Scheduler.run`` or
``Fleet.run``), and arrivals are open-loop on the *simulated* clock at
the stated mean inter-arrival gap.  There is no host-side send
schedule, so host cost is reported as jobs completed per host second
at the stated trace size.

Every call into the program goes through a module or class attribute
(``datasets.load_dataset``, ``jobs.make_trace``, ...), so the traced
run's wrappers see it.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import repro.datasets as datasets
import repro.runtime.jobs as jobs
from repro.runtime.autoscale import AutoscaleConfig
from repro.runtime.fleet import Fleet, FleetConfig, fleet_report_json
from repro.runtime.metrics import report_json
from repro.runtime.pool import DevicePool
from repro.runtime.scheduler import Scheduler, SchedulerConfig
from repro.sim.chaos import ChaosModel, PoolChaosModel
from repro.store import ArtifactStore

SCALE = 0.05
#: Loose enough that the traces measure serving, not deadline shedding.
DEADLINES = (200_000.0, 400_000.0)
#: Small per-transfer fault rate: retries and breakers stay exercised.
FAULT_RATE = 0.01
PAIRS = (("stencil27", "spmv"), ("stencil27", "symgs"),
         ("af_shell", "spmv"), ("af_shell", "symgs"))
MIX_PAIRS = PAIRS + (("stencil27", "pcg"),)


@dataclass
class Ready:
    """A workload after set-up: the trace and the serve call for it."""

    trace: List[jobs.Job]
    serve: Callable[[], Tuple[list, object]]
    #: Canonical JSON of the serve call's report.
    encode: Callable[[object], str]
    #: Store the serve call reads, if any (for its counters).
    store: Optional[ArtifactStore] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_jobs: int
    #: ``"simulate"`` runs real kernels, so answers exist to check.
    execution: str
    setup: Callable[["Workload", int, Path, Callable], Ready]


def _load(pairs) -> None:
    for name in sorted({d for d, _ in pairs}):
        datasets.load_dataset(name, SCALE)


def _trace(n_jobs: int, seed: int, pairs, gap: float, **kwargs):
    return jobs.make_trace(jobs.TraceSpec(
        n_requests=n_jobs, seed=seed, scale=SCALE, workloads=pairs,
        mean_interarrival_cycles=gap, deadline_range=DEADLINES,
        **kwargs))


def _pool_ready(trace, pool: DevicePool, config: SchedulerConfig,
                store: Optional[ArtifactStore] = None) -> Ready:
    sched = Scheduler(pool, config)
    return Ready(trace, lambda: sched.run(trace), report_json, store)


def _model_steady(wl: Workload, seed: int, work: Path, span) -> Ready:
    _load(PAIRS)
    # Mean nominal service is ~950 cycles: a 280-cycle gap keeps four
    # devices near 0.85 utilisation.
    trace = _trace(wl.n_jobs, seed, PAIRS, 280.0)
    pool = DevicePool(4, fault_rate=FAULT_RATE, seed=seed,
                      execution="model")
    return _pool_ready(trace, pool, SchedulerConfig())


def _simulate_mix(wl: Workload, seed: int, work: Path, span) -> Ready:
    _load(MIX_PAIRS)
    # Mean nominal service is ~5,500 cycles (pcg dominates): a
    # 2,400-cycle gap keeps four devices near 0.6 utilisation.
    trace = _trace(wl.n_jobs, seed, MIX_PAIRS, 2_400.0)
    root = work / "store"
    shutil.rmtree(root, ignore_errors=True)
    with span("store.prime"):
        pricing = DevicePool(1, artifact_store=ArtifactStore(root))
        for name, kernel in MIX_PAIRS:
            pricing.nominal_cycles(jobs.Job(
                job_id=0, kernel=kernel, dataset=name, scale=SCALE,
                arrival_cycle=0.0, deadline_cycles=1.0))
    # Reopened with an empty LRU: the timed serve loads and verifies
    # every artifact from disk once, then hits memory.
    store = ArtifactStore(root)
    pool = DevicePool(4, fault_rate=FAULT_RATE, seed=seed,
                      artifact_store=store)
    return _pool_ready(trace, pool, SchedulerConfig(), store)


def _cold_pairs():
    return tuple((name, kernel)
                 for name in datasets.list_datasets("scientific")
                 for kernel in ("spmv", "symgs"))


def _cold_start_wide(wl: Workload, seed: int, work: Path,
                     span) -> Ready:
    pairs = _cold_pairs()
    _load(pairs)
    trace = _trace(wl.n_jobs, seed, pairs, 400.0)
    pool = DevicePool(4, fault_rate=FAULT_RATE, seed=seed)
    return _pool_ready(trace, pool, SchedulerConfig())


def _fleet_chaos(wl: Workload, seed: int, work: Path, span) -> Ready:
    _load(PAIRS)
    # Bursts three times the base rate: enough to drive the autoscaler
    # without shedding more than a few percent of any trace.
    trace = _trace(wl.n_jobs, seed, PAIRS, 700.0, shape="bursty+zipf",
                   burst_factor=3.0)
    fleet = Fleet(
        2, FleetConfig(n_pools=3, replicas=2),
        fault_rate=FAULT_RATE, seed=seed,
        scheduler_config=SchedulerConfig(hedge_after=1.2),
        execution="model",
        chaos=ChaosModel(rate=0.6, seed=seed),
        pool_chaos=PoolChaosModel(rate=0.5, seed=seed),
        autoscale=AutoscaleConfig(min_devices=2, max_devices=6))
    return Ready(trace, lambda: fleet.run(trace), fleet_report_json)


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        "model-steady",
        "plain repro serve path: eager scheduler, event heap and "
        "make_trace do the host work; kernels run only to price 4 "
        "workloads",
        4_000, "model", _model_steady),
    Workload(
        "simulate-mix",
        "real GEMV, D-SymGS and PCG kernels dominate, served from a "
        "primed artifact store reopened cold; scheduler share is small",
        100, "simulate", _simulate_mix),
    Workload(
        "cold-start-wide",
        "storeless, 28 dataset x kernel workloads: every device "
        "converts, compiles and captures its own copy",
        100, "simulate", _cold_start_wide),
    Workload(
        "fleet-chaos",
        "lifecycle scheduler, fleet routing and autoscaler under "
        "device chaos, hedging, pool outages and bursty zipf arrivals",
        4_000, "model", _fleet_chaos),
)}
