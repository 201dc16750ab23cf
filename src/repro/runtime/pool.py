"""Device pool: health tracking and circuit breaking per device.

A :class:`DevicePool` replicates the single-accelerator substrate into
``n_devices`` independent :class:`Device` instances.  Each device owns

* its own :class:`~repro.sim.faults.FaultModel`, seeded via
  :meth:`~repro.sim.faults.FaultModel.spawn` so fault histories are
  independent yet reproducible from one pool seed;
* its bindings of the programmed images, keyed by ``(dataset, scale,
  kernel)`` — programming is a one-time cost per :class:`WorkloadMemo`,
  bound per device: the memo converts and compiles each workload once
  (the paper's "once per matrix", §4) and every device runs that image
  under its own fault model, as on real hardware where the image stays
  resident.  A solo pool owns its memo; a fleet's pools share one;
* a :class:`HealthWindow` of recent job outcomes and a
  :class:`CircuitBreaker` driven by it.

The breaker is the classic closed → open → half-open machine, with one
twist: its cooldown is charged in *simulated cycles* against the pool's
scheduler clock, never wall time, so breaker behaviour is deterministic
per seed and unit-testable without sleeping.

The memo also holds the *golden* side: a fault-free binding of each
image for nominal service-time estimates, and the reference operators
(:class:`~repro.solvers.ReferenceBackend`, CSR copy and prepared
forward sweep) used for graceful degradation.  Degraded answers are
computed by the same golden kernels the test suite validates against,
so a ``DEGRADED`` result is numerically correct by construction.
"""

from __future__ import annotations

import random
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core import Alrescha, AlreschaConfig, KernelType
from repro.errors import ConfigError, CorruptionError, FaultError
from repro.runtime.jobs import JOB_KERNELS, Job
from repro.sim.chaos import ChaosModel
from repro.sim.faults import FaultModel

#: Breaker defaults: open once >= half the last 8 jobs failed (with at
#: least 4 observed), cool down for 8k simulated cycles (a handful of
#: job service times), then probe.
DEFAULT_HEALTH_WINDOW = 8
DEFAULT_FAILURE_THRESHOLD = 0.5
DEFAULT_MIN_SAMPLES = 4
DEFAULT_COOLDOWN_CYCLES = 8_000.0

#: Cycle cost multiplier of the software reference path relative to the
#: accelerator's nominal cycles (the degradation latency model).
DEFAULT_REFERENCE_SLOWDOWN = 8.0

#: Bound on the pool's operand LRU cache, in vectors.  Retried and
#: batched attempts of one job land within a handful of dispatches, so
#: a small bound keeps the hit rate while capping memory on
#: million-job traces.
DEFAULT_OPERAND_CACHE = 1024

#: Execution modes of a pool.  ``simulate`` runs the real accelerator
#: per attempt (cycle- and value-exact).  ``model`` prices attempts
#: from the golden nominal-cycle caches without running kernels or
#: materialising answers (``values=None``, so results carry
#: ``value_crc=0``) — the scheduler sees the same event stream at a
#: tiny fraction of the cost, which is what the trace-scale scheduler
#: load benchmarks need.  Faults in ``model`` mode are a seeded
#: per-attempt Bernoulli draw at the device's fault-model rate.
EXECUTION_MODES = ("simulate", "model")

#: Kernels whose attempts may be fused into one multi-RHS dispatch.
#: Single streaming passes amortize their payload stream across
#: operands; ``pcg`` iterates internally with data-dependent control
#: flow, so it always dispatches solo.
BATCHABLE_KERNELS = ("spmv", "symgs")


def value_crc(values: np.ndarray) -> int:
    """CRC32 of an answer vector's exact float64 bytes."""
    return zlib.crc32(
        np.ascontiguousarray(values, dtype=np.float64).tobytes())


class HealthWindow:
    """Rolling window of job outcomes on one device."""

    def __init__(self, size: int = DEFAULT_HEALTH_WINDOW) -> None:
        if size <= 0:
            raise ConfigError(f"health window must be positive, got {size}")
        self._window: Deque[bool] = deque(maxlen=size)
        self.successes = 0
        self.failures = 0

    def record(self, ok: bool) -> None:
        self._window.append(ok)
        self.tally(ok)

    def tally(self, ok: bool) -> None:
        """Bump the lifetime totals without touching the rolling window.

        For outcomes that must not influence the trip decision — e.g. a
        verdict landing while the breaker is open (no dispatched
        traffic should exist then, so a stray one must not pre-poison
        the fresh-start window the next probe inherits).
        """
        if ok:
            self.successes += 1
        else:
            self.failures += 1

    @property
    def samples(self) -> int:
        return len(self._window)

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the rolling window (0.0 when empty)."""
        if not self._window:
            return 0.0
        return sum(1 for ok in self._window if not ok) / len(self._window)

    def reset(self) -> None:
        """Forget the window (a recovered device starts clean)."""
        self._window.clear()


class CircuitBreaker:
    """Closed → open → half-open breaker on simulated cycles.

    * **closed** — traffic flows; every outcome feeds the health window.
      When the window holds ``min_samples`` or more outcomes and its
      failure rate reaches ``failure_threshold``, the breaker opens.
    * **open** — the device takes no traffic until ``cooldown_cycles``
      of simulated time have elapsed since it opened.
    * **half-open** — exactly one probe job is admitted.  Success closes
      the breaker (window reset); failure re-opens it for a fresh
      cooldown.
    """

    def __init__(self, health: HealthWindow,
                 failure_threshold: float = DEFAULT_FAILURE_THRESHOLD,
                 min_samples: int = DEFAULT_MIN_SAMPLES,
                 cooldown_cycles: float = DEFAULT_COOLDOWN_CYCLES) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigError("failure_threshold must be in (0, 1], got "
                              f"{failure_threshold}")
        if cooldown_cycles <= 0:
            raise ConfigError("cooldown_cycles must be positive, got "
                              f"{cooldown_cycles}")
        if min_samples < 1:
            # Used to be silently clamped to 1, which hid a
            # misconfiguration: a breaker that trips on a single
            # failure is almost never what min_samples=0 meant.
            raise ConfigError(
                f"min_samples must be >= 1, got {min_samples}")
        self.health = health
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown_cycles = cooldown_cycles
        self.state = "closed"
        self.opened_at = 0.0
        self.trips = 0
        self._probe_in_flight = False
        #: Force-open hold (device crashed): while set, the breaker
        #: refuses traffic regardless of elapsed cooldown — only
        #: :meth:`end_quarantine` (device recovery) releases it.
        self.quarantined = False

    # ------------------------------------------------------------------
    def allows(self, now: float) -> bool:
        """Whether a job may be dispatched to this device at ``now``.

        Pure: an open breaker past its cooldown *reports* the probe
        slot as available, but the open → half-open transition happens
        only in :meth:`on_dispatch` — metric and introspection queries
        (e.g. :meth:`DevicePool.all_refusing`) never change state.
        """
        if self.quarantined:
            return False
        if self.state == "closed":
            return True
        if self.state == "half_open":
            return not self._probe_in_flight
        return now >= self.opened_at + self.cooldown_cycles

    @property
    def reopen_at(self) -> Optional[float]:
        """Cycle at which an open breaker becomes probeable (else None).

        ``None`` while quarantined: a crashed device's reopen cycle is
        its recovery, which only :meth:`end_quarantine` knows.
        """
        if self.state != "open" or self.quarantined:
            return None
        return self.opened_at + self.cooldown_cycles

    def force_open(self, now: float) -> None:
        """Quarantine: hold the breaker open until :meth:`end_quarantine`.

        Used when the *device* is known down (lifecycle crash) rather
        than inferred sick from outcomes: no cooldown clock applies and
        no probe is admitted while the hold lasts.  Not counted as a
        trip — crashes are tallied separately.
        """
        self.state = "open"
        self.opened_at = now
        self._probe_in_flight = False
        self.quarantined = True

    def end_quarantine(self, now: float) -> None:
        """Release a quarantine hold: the device recovered at ``now``.

        The breaker stays *open* but immediately probeable — the next
        dispatch transitions it half-open and the probe's outcome
        decides recovery, exactly like a cooldown that elapsed at the
        recovery cycle.
        """
        if not self.quarantined:
            return
        self.quarantined = False
        self.state = "open"
        self.opened_at = now - self.cooldown_cycles

    def on_dispatch(self, now: float) -> None:
        """A job was placed on the device at cycle ``now``.

        This is the explicit transition step :meth:`allows` only
        reports on: an open breaker past its cooldown becomes
        half-open here, and the dispatched job claims the single
        half-open probe slot.
        """
        if (self.state == "open"
                and now >= self.opened_at + self.cooldown_cycles):
            self.state = "half_open"
            self._probe_in_flight = False
        if self.state == "half_open":
            self._probe_in_flight = True

    def release_probe(self) -> None:
        """Free the half-open probe slot without recording an outcome.

        For dispatches that die before producing a device verdict — an
        unserviceable job raising before the accelerator runs says
        nothing about device health, but the probe slot it claimed must
        not stay occupied forever.
        """
        if self.state == "half_open":
            self._probe_in_flight = False

    def on_success(self) -> None:
        if self.state == "open":
            # An open breaker admits no traffic, so a verdict landing
            # now is a straggler (e.g. a quarantined device's voided
            # work resolving late).  Count it in the lifetime totals
            # but keep it out of the rolling window: the window must
            # reflect only outcomes of admitted dispatches, or the
            # fresh start a successful probe grants is pre-poisoned.
            self.health.tally(True)
            return
        self.health.record(True)
        if self.state == "half_open":
            # Probe succeeded: recovered. Start from a clean window so
            # pre-outage history cannot immediately re-trip.
            self.state = "closed"
            self._probe_in_flight = False
            self.health.reset()

    def on_failure(self, now: float) -> None:
        if self.state == "open":
            # Same straggler rule as on_success: lifetime totals only,
            # and never extend the cooldown — re-stamping opened_at
            # from a verdict no dispatch produced would push the probe
            # opportunity out indefinitely.
            self.health.tally(False)
            return
        self.health.record(False)
        if self.state == "half_open":
            self._trip(now)
            return
        if (self.state == "closed"
                and self.health.samples >= self.min_samples
                and self.health.failure_rate >= self.failure_threshold):
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = "open"
        self.opened_at = now
        self.trips += 1
        self._probe_in_flight = False


@dataclass
class Attempt:
    """Outcome of one accelerator attempt (never raises to callers)."""

    ok: bool
    #: Device-occupancy cycles of the attempt (service time, or wasted
    #: cycles of a failed attempt).
    cycles: float
    values: Optional[np.ndarray] = None
    error: str = ""
    #: DRAM traffic the attempt charged to the memory model (0 for a
    #: failed attempt).  For a batched attempt this is the whole
    #: batch's traffic — the payload stream appears once, not once per
    #: operand — which is what the scheduler's stream-savings
    #: accounting reads off.
    dram_bytes: float = 0.0


class Device:
    """One simulated accelerator with its own fault stream and breaker."""

    def __init__(self, device_id: int, fault_model: Optional[FaultModel],
                 health_window: int = DEFAULT_HEALTH_WINDOW,
                 failure_threshold: float = DEFAULT_FAILURE_THRESHOLD,
                 min_samples: int = DEFAULT_MIN_SAMPLES,
                 cooldown_cycles: float = DEFAULT_COOLDOWN_CYCLES) -> None:
        self.device_id = device_id
        self.fault_model = fault_model
        self.health = HealthWindow(health_window)
        self.breaker = CircuitBreaker(
            self.health, failure_threshold=failure_threshold,
            min_samples=min_samples, cooldown_cycles=cooldown_cycles)
        #: Simulated cycle at which the device next becomes idle.
        self.busy_until = 0.0
        self.busy_cycles = 0.0
        self.jobs_run = 0
        # ---- lifecycle state (driven by the scheduler's chaos events)
        #: False while crashed (between DEVICE_CRASH and DEVICE_RECOVER).
        self.up = True
        #: Cycle a current hang clears (0.0 when not hanging).
        self.hang_until = 0.0
        #: Cycle the current crash began (meaningful while ``not up``).
        self.down_since = 0.0
        #: Total cycles spent crashed or hung, for :class:`DeviceStats`.
        self.downtime_cycles = 0.0
        self.crashes = 0
        self.hangs = 0
        self.recoveries = 0
        #: Per-device :class:`~repro.sim.chaos.ChaosModel` sibling
        #: (None when the pool has no chaos configured).
        self.chaos = None
        # ---- elastic-capacity state (driven by the autoscaler)
        #: True once a scale-down picked this device: it finishes its
        #: in-flight work but takes no new placements.
        self.draining = False
        #: True once the drain completed; the device slot stays in
        #: ``pool.devices`` (event keys index it) but never serves.
        self.retired = False
        #: Cycle the drain decision landed (the begin of the trace's
        #: ``drain`` span; meaningful while draining/retired).
        self.drain_began = 0.0
        #: Cycle the autoscaler provisioned this device (0.0 for
        #: devices present since construction).
        self.added_at = 0.0
        #: The live DEVICE_DRAIN event for this device, so a re-armed
        #: drain invalidates the superseded one (lazy deletion).
        self.drain_event = None
        #: The scheduler's in-flight record while an attempt waits for
        #: its DISPATCH_COMPLETE (None while idle).
        self.inflight = None
        #: Dispatch cycle of the first attempt (None until one runs) —
        #: the begin of the device's trace summary span.
        self.first_dispatch: Optional[float] = None
        self._executors: Dict[Tuple[str, float, str], object] = {}
        #: Monotonic id of batched dispatches on this device; tags the
        #: member job spans of one fused attempt in the trace.
        self._batch_seq = 0
        #: Seeded Bernoulli stream for ``model``-mode fault draws
        #: (lazily created; independent of the real fault model's draw
        #: sequence but derived from the same device seed).
        self._model_rng: Optional[random.Random] = None

    # ------------------------------------------------------------------
    def available(self, now: float) -> bool:
        """Whether the device may accept a dispatch at ``now``.

        Combines the lifecycle state the chaos events drive (crashed or
        mid-hang devices refuse) with the elastic-capacity state the
        autoscaler drives (draining and retired devices take no new
        placements) and the breaker's verdict.  Busyness is
        deliberately *not* part of this: the scheduler separates
        "who is free" from "who is healthy".
        """
        return (self.up and not self.retired and not self.draining
                and now >= self.hang_until
                and self.breaker.allows(now))

    # ------------------------------------------------------------------
    def _executor(self, job: Job, pool: "DevicePool"):
        """This device's binding of the job's programmed image.

        The first call per workload binds :meth:`DevicePool.image` to
        the device's fault model; nothing is converted or compiled
        here.  Later calls return the same binding, whose cross-check
        state is the device's own.
        """
        key = (job.dataset, job.scale, job.kernel)
        exe = self._executors.get(key)
        if exe is None:
            if self.device_id >= 0:
                pool.note_workload(key)
            exe = pool.image(key).bind(self.fault_model)
            self._executors[key] = exe
        return exe

    def _model_fault(self, pool: "DevicePool") -> bool:
        """``model``-mode fault draw: seeded Bernoulli at the device's
        fault-model rate (no fault model ⇒ never faults)."""
        fm = self.fault_model
        if fm is None or fm.rate <= 0.0:
            return False
        if self._model_rng is None:
            self._model_rng = random.Random(fm.seed)
        return self._model_rng.random() < fm.rate

    def _attempt_model(self, job: Job, pool: "DevicePool",
                       now: float) -> Attempt:
        """Price one attempt from the golden caches without running it.

        The scheduler-visible contract matches :meth:`attempt` — same
        occupancy accounting, same Attempt shape — except ``values`` is
        None (no answer is materialised) and a modelled fault charges
        nominal cycles plus one backoff-budget's worth of retries.
        """
        self.jobs_run += 1
        if self.first_dispatch is None:
            self.first_dispatch = now
        cycles, dram_bytes = pool.nominal(job)
        if self._model_fault(pool):
            fm = self.fault_model
            wasted = cycles + fm.backoff_cycles * (2 ** fm.max_retries - 1)
            return Attempt(ok=False, cycles=wasted,
                           error="FaultError: modelled stream fault")
        return Attempt(ok=True, cycles=cycles, dram_bytes=dram_bytes)

    def _attempt_model_batch(self, jobs: "List[Job]", pool: "DevicePool",
                             now: float) -> Attempt:
        """``model``-mode analogue of :meth:`attempt_batch`."""
        lead = jobs[0]
        self.jobs_run += len(jobs)
        if self.first_dispatch is None:
            self.first_dispatch = now
        cycles = pool.nominal_batch_cycles(lead, len(jobs))
        if self._model_fault(pool):
            fm = self.fault_model
            wasted = cycles + fm.backoff_cycles * (2 ** fm.max_retries - 1)
            return Attempt(ok=False, cycles=wasted,
                           error="FaultError: modelled stream fault")
        # One payload stream for the whole batch: charge the solo
        # payload once plus nothing per extra operand (the per-RHS
        # vector traffic is negligible next to the payload).
        return Attempt(ok=True, cycles=cycles,
                       dram_bytes=pool.nominal_dram_bytes(lead))

    def attempt(self, job: Job, pool: "DevicePool",
                now: float = 0.0) -> Attempt:
        """Run one accelerator attempt; faults become a failed Attempt.

        A failed attempt still occupied the device: it is charged the
        workload's nominal cycles plus every retry/backoff cycle the
        fault model logged during the attempt.  ``now`` is the dispatch
        cycle on the scheduler clock; it only marks the device's first
        dispatch and never changes the outcome.  No trace span is
        written here: the scheduler records it with
        :meth:`record_flight` once the attempt's true extent is known
        (a hang may stretch it, a crash or hedge cancellation may cut
        it short).

        In a ``model``-execution pool the attempt is priced from the
        golden caches instead of running the kernel (the golden pricing
        device itself always simulates).
        """
        if pool.execution == "model" and self.device_id >= 0:
            return self._attempt_model(job, pool, now)
        exe = self._executor(job, pool)
        operand = pool.operand(job)
        fm = self.fault_model
        retry_before = fm.total_retry_cycles if fm is not None else 0.0
        self.jobs_run += 1
        if self.first_dispatch is None:
            self.first_dispatch = now
        try:
            if job.kernel == "spmv":
                values, report = exe.run_spmv(operand)
                cycles = report.cycles
            elif job.kernel == "symgs":
                values, report = exe.run_symgs_sweep(
                    operand, np.zeros(operand.size))
                cycles = report.cycles
            else:  # pcg
                from repro.solvers import pcg
                exe.reset_reports()
                result = pcg(exe, operand, tol=1e-6, max_iter=25,
                             checkpoint_interval=5, max_restarts=2)
                values = result.x
                report = result.report
                cycles = report.cycles
            att = Attempt(ok=True, cycles=cycles, values=values,
                          dram_bytes=report.counters.get("dram_bytes"))
        except (FaultError, CorruptionError) as exc:
            retry_after = fm.total_retry_cycles if fm is not None else 0.0
            wasted = pool.nominal_cycles(job) + (retry_after - retry_before)
            att = Attempt(ok=False, cycles=wasted,
                          error=f"{type(exc).__name__}: {exc}")
        return att

    def attempt_batch(self, jobs: "List[Job]", pool: "DevicePool",
                      now: float = 0.0) -> Attempt:
        """Run one fused multi-RHS attempt over same-workload jobs.

        The operand vectors stack into one ``(n, k)`` panel and the
        accelerator's batched path streams the programmed payload
        *once* for all of them.  ``values`` holds one answer column per
        job, in job order.  A fault fails the whole batch — one shared
        payload stream means one shared fault exposure — and the failed
        attempt is charged the golden batch service time plus the retry
        cycles the fault model logged.  Trace spans are left to the
        caller, as in :meth:`attempt`.
        """
        if pool.execution == "model" and self.device_id >= 0:
            return self._attempt_model_batch(jobs, pool, now)
        lead = jobs[0]
        exe = self._executor(lead, pool)
        operands = np.stack([pool.operand(j) for j in jobs], axis=1)
        fm = self.fault_model
        retry_before = fm.total_retry_cycles if fm is not None else 0.0
        self.jobs_run += len(jobs)
        if self.first_dispatch is None:
            self.first_dispatch = now
        try:
            if lead.kernel == "spmv":
                values, report = exe.run_spmv_batch(operands)
            elif lead.kernel == "symgs":
                values, report = exe.run_symgs_batch(
                    operands, np.zeros_like(operands))
            else:
                raise ConfigError(
                    f"kernel {lead.kernel!r} does not support batched "
                    f"dispatch; batchable: {BATCHABLE_KERNELS}")
            att = Attempt(ok=True, cycles=report.cycles, values=values,
                          dram_bytes=report.counters.get("dram_bytes"))
        except (FaultError, CorruptionError) as exc:
            retry_after = fm.total_retry_cycles if fm is not None else 0.0
            wasted = (pool.nominal_batch_cycles(lead, len(jobs))
                      + (retry_after - retry_before))
            att = Attempt(ok=False, cycles=wasted,
                          error=f"{type(exc).__name__}: {exc}")
        return att

    def record_flight(self, jobs: "List[Job]", pool: "DevicePool",
                      begin: float, end: float, ok: bool,
                      error: str = "", cat: str = "job") -> None:
        """Record an attempt's spans at its *true* interval.

        The scheduler calls this when the attempt's fate is known:
        ``cat="job"`` for attempts that ran to completion
        (hang-stretched ends included), ``"voided"`` for work a crash
        or pool outage destroyed, ``"hedge_cancelled"`` for a
        speculative duplicate that lost the race, ``"probe"`` for a
        fleet readmission probe.  A batched ``"job"`` flight also gets
        one umbrella ``batch`` span.  Only ``"job"`` spans participate
        in the device-exclusivity invariant, so the truncated non-job
        categories may share their interval freely.
        """
        tracer = pool.tracer
        if tracer is None or self.device_id < 0 or end <= begin:
            return
        track = pool.track(f"device{self.device_id}")
        bid = None
        if len(jobs) > 1 and cat == "job":
            bid = self._batch_seq
            self._batch_seq += 1
            tracer.add(f"batch#{self.device_id}.{bid}", "batch",
                       begin, end, track,
                       args={"jobs": float(len(jobs)),
                             "kernel": jobs[0].kernel, "ok": ok})
        for job in jobs:
            args: Dict[str, object] = {"ok": ok, "dataset": job.dataset}
            if bid is not None:
                args["batch"] = float(bid)
                args["batch_size"] = float(len(jobs))
            if error:
                args["error"] = error
            tracer.add(f"{job.kernel}#{job.job_id}", cat, begin, end,
                       track, args=args)


class WorkloadMemo:
    """Per-workload artefacts that depend only on ``(dataset, scale,
    kernel)``, built once and shared by every pool that holds the memo.

    A solo :class:`DevicePool` builds its own; a
    :class:`~repro.runtime.fleet.Fleet` builds one and hands it to all
    of its pools, so M pools convert, compile and price each workload
    once instead of M times.  The memo belongs to its owner and is never
    process-global.  Per-pool state — devices and their bindings, the
    operand LRU, ``workloads_seen`` — stays on the pool.
    """

    def __init__(self, artifact_store=None) -> None:
        #: Optional :class:`~repro.store.ArtifactStore`: the lower tier
        #: under :attr:`images`.  Each workload's first programming
        #: resolves through it, so a primed store serves warm starts
        #: with zero compilations.  None is the storeless path,
        #: bit-identical to pre-store behaviour.
        self.artifact_store = artifact_store
        #: Programmed images by ``(dataset, scale, kernel)`` (see
        #: :meth:`DevicePool.image`).
        self.images: Dict[Tuple[str, float, str], object] = {}
        #: Fault-free ``(cycles, dram_bytes)`` of golden solo runs, by
        #: ``(dataset, scale, kernel, seed)`` — ``seed`` is None except
        #: for ``pcg``, whose iteration count follows its operand.
        self.prices: Dict[Tuple[str, float, str, Optional[int]],
                          Tuple[float, float]] = {}
        #: Fault-free cycles of golden ``k``-wide batched runs, by
        #: ``(dataset, scale, kernel, k)``.
        self.batch_prices: Dict[Tuple[str, float, str, int], float] = {}
        #: Reference operators by ``(dataset, scale)`` (see
        #: :meth:`DevicePool.reference_values`).
        self.references: Dict[Tuple[str, float], object] = {}
        #: The fault-free pricing device; it binds the shared images.
        self.golden = Device(-1, None)


class DevicePool:
    """N independently-seeded devices plus the shared golden side."""

    def __init__(self, n_devices: int, fault_rate: float = 0.0,
                 seed: int = 0,
                 health_window: int = DEFAULT_HEALTH_WINDOW,
                 failure_threshold: float = DEFAULT_FAILURE_THRESHOLD,
                 min_samples: int = DEFAULT_MIN_SAMPLES,
                 cooldown_cycles: float = DEFAULT_COOLDOWN_CYCLES,
                 tracer=None, execution: str = "simulate",
                 operand_cache: int = DEFAULT_OPERAND_CACHE,
                 chaos: Optional["ChaosModel"] = None,
                 track_prefix: str = "",
                 artifact_store=None,
                 memo: Optional[WorkloadMemo] = None) -> None:
        if n_devices <= 0:
            raise ConfigError(
                f"device pool needs at least one device, got {n_devices}")
        if execution not in EXECUTION_MODES:
            raise ConfigError(
                f"unknown execution mode {execution!r}; "
                f"known: {EXECUTION_MODES}")
        if operand_cache <= 0:
            raise ConfigError(
                f"operand cache bound must be positive, got "
                f"{operand_cache}")
        if memo is None:
            memo = WorkloadMemo(artifact_store)
        elif artifact_store not in (None, memo.artifact_store):
            raise ConfigError(
                "artifact_store differs from the shared memo's store; "
                "attach the store to the WorkloadMemo instead")
        #: The :class:`WorkloadMemo` this pool programs, prices and
        #: degrades through — its own, or its fleet's.
        self.memo = memo
        #: ``simulate`` (real kernels) or ``model`` (golden-cache
        #: pricing for scheduler load tests) — see
        #: :data:`EXECUTION_MODES`.
        self.execution = execution
        #: Optional :class:`~repro.observe.tracer.Tracer` shared by the
        #: scheduler: job spans land on ``device<N>`` tracks, degraded
        #: fallbacks on ``reference``, shed jobs on ``scheduler``.
        self.tracer = tracer
        #: Prefix applied to every trace track this pool (and its
        #: scheduler) emits — ``"p2."`` turns ``device0`` into
        #: ``p2.device0``.  Empty for single-pool serving, so solo
        #: traces stay byte-identical; the fleet sets one per pool so
        #: N pools can share one tracer without track collisions.
        self.track_prefix = track_prefix
        base = (FaultModel(rate=fault_rate, seed=seed)
                if fault_rate > 0.0 else None)
        # Retained so an autoscaled :meth:`add_device` constructs device
        # N exactly as a pool built with N+1 devices would have.
        self._fault_base = base
        self._device_kwargs = dict(
            health_window=health_window,
            failure_threshold=failure_threshold,
            min_samples=min_samples,
            cooldown_cycles=cooldown_cycles)
        self.devices = [
            Device(i,
                   base.spawn(i) if base is not None else None,
                   **self._device_kwargs)
            for i in range(n_devices)
        ]
        #: The base lifecycle chaos model (None when not configured);
        #: each device carries an independently-seeded spawn.
        self.chaos = chaos if chaos is not None and chaos.rate > 0.0 \
            else None
        if self.chaos is not None:
            for i, device in enumerate(self.devices):
                device.chaos = self.chaos.spawn(i)
        #: The golden price this pool adopted per ``(dataset, scale,
        #: kernel)``: its first job's, from the memo — see
        #: :meth:`nominal`.
        self._nominal: Dict[Tuple[str, float, str],
                            Tuple[float, float]] = {}
        #: Bounded LRU of seeded operand vectors, keyed like the
        #: nominal caches plus the job seed — see :meth:`operand`.
        self._operands: "OrderedDict[Tuple[str, float, int], np.ndarray]" \
            = OrderedDict()
        self._operand_cache = operand_cache
        #: ``(dataset, scale, kernel)`` workloads a real device has
        #: programmed, in first-seen order — the priming list a
        #: store-backed scale-up warms a fresh device from.
        self.workloads_seen: "OrderedDict[Tuple[str, float, str], None]" \
            = OrderedDict()

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def artifact_store(self):
        """The memo's :class:`~repro.store.ArtifactStore` (or None)."""
        return self.memo.artifact_store

    def note_workload(self, key: Tuple[str, float, str]) -> None:
        """Record that a real device programmed ``key`` (idempotent)."""
        self.workloads_seen.setdefault(key)

    def add_device(self, now: float) -> Device:
        """Provision one more device, constructed as at pool build time.

        The new device gets the next sequential id, a fault model
        spawned from the same base as its siblings and, when chaos is
        configured, its own independently-seeded chaos sibling — so a
        device autoscaled in at cycle ``now`` draws the same fault and
        incident streams a construction-time device with that id would
        have.  Devices are never physically removed (heap event keys
        index ``pool.devices``); a drained device is ``retired`` in
        place instead.
        """
        device_id = len(self.devices)
        device = Device(
            device_id,
            (self._fault_base.spawn(device_id)
             if self._fault_base is not None else None),
            **self._device_kwargs)
        device.added_at = now
        if self.chaos is not None:
            device.chaos = self.chaos.spawn(device_id)
        self.devices.append(device)
        return device

    def track(self, name: str) -> str:
        """A trace track name under this pool's prefix."""
        return self.track_prefix + name

    # ------------------------------------------------------------------
    # Shared golden side
    # ------------------------------------------------------------------
    def image(self, key: Tuple[str, float, str]):
        """The memo's programmed image of workload ``key``.

        Converted and compiled on first use, fault-free, through the
        artifact store when one is attached, then kept in the pool's
        :class:`WorkloadMemo` — so every pool sharing the memo (a
        fleet's pools) runs the same image.  Every device, and the
        golden pricing device, binds it rather than programming its
        own.  The result is an :class:`~repro.core.Alrescha` (``spmv``,
        ``symgs``) or an :class:`~repro.solvers.AcceleratorBackend`
        (``pcg``); either one's ``bind(fault_model)`` makes a device's
        executor.
        """
        images = self.memo.images
        exe = images.get(key)
        if exe is None:
            dataset, scale, kernel = key
            matrix = self.matrix(dataset, scale)
            config = AlreschaConfig(artifact_store=self.artifact_store)
            source = {"dataset": dataset, "scale": scale}
            if kernel == "spmv":
                exe = Alrescha.from_matrix(KernelType.SPMV, matrix,
                                           config=config, source=source)
            elif kernel == "symgs":
                exe = Alrescha.from_matrix(KernelType.SYMGS, matrix,
                                           config=config, source=source)
            elif kernel == "pcg":
                from repro.solvers import AcceleratorBackend
                exe = AcceleratorBackend(matrix, config=config,
                                         source=source)
            else:
                raise ConfigError(
                    f"unknown job kernel {kernel!r}; "
                    f"known: {JOB_KERNELS}")
            images[key] = exe
        return exe

    def matrix(self, dataset: str, scale: float):
        from repro.datasets import load_dataset
        return load_dataset(dataset, scale=scale).matrix

    def operand(self, job: Job) -> np.ndarray:
        """The job's seeded operand/right-hand-side vector (cached).

        The vector is a pure function of ``(dataset, scale, seed)``, so
        it is drawn once and served from a bounded LRU: a retried or
        batched attempt of the same job reuses the identical array
        instead of redrawing the full ``(n,)`` vector per attempt.
        Callers treat operands as read-only.
        """
        key = (job.dataset, job.scale, job.seed)
        cached = self._operands.get(key)
        if cached is not None:
            self._operands.move_to_end(key)
            return cached
        n = self.matrix(job.dataset, job.scale).shape[0]
        values = np.random.default_rng(job.seed).normal(size=n)
        # The cached array is shared by every retry/batch/hedge attempt
        # of the job; a single in-place write would corrupt all of
        # them, so writes raise instead of silently aliasing.
        values.flags.writeable = False
        self._operands[key] = values
        if len(self._operands) > self._operand_cache:
            self._operands.popitem(last=False)
        return values

    def nominal(self, job: Job) -> Tuple[float, float]:
        """Fault-free ``(cycles, dram_bytes)`` of one solo attempt of
        the job's workload (cached).

        Cycle counts and traffic of ``spmv`` and ``symgs`` depend only
        on the programmed block structure, never on operand values, so
        one golden run prices every job of the same ``(dataset, scale,
        kernel)``, and the memo runs it once for all of its pools.  A
        ``pcg`` solve's iteration count follows its operand, so a pool
        adopts the price of the first ``pcg`` job it prices; the memo
        keys that golden run by the job's seed too.
        """
        key = (job.dataset, job.scale, job.kernel)
        price = self._nominal.get(key)
        if price is None:
            prices = self.memo.prices
            run = key + (job.seed if job.kernel == "pcg" else None,)
            price = prices.get(run)
            if price is None:
                att = self.memo.golden.attempt(job, self)
                price = prices[run] = (att.cycles, att.dram_bytes)
            self._nominal[key] = price
        return price

    def nominal_cycles(self, job: Job) -> float:
        """Fault-free service cycles for the job's workload (cached)."""
        return self.nominal(job)[0]

    def nominal_dram_bytes(self, job: Job) -> float:
        """Fault-free DRAM traffic of one solo job attempt (cached).

        The baseline the scheduler's ``stream_bytes_saved`` accounting
        compares a fused batch against: ``k`` solo runs would each
        stream the programmed payload.
        """
        return self.nominal(job)[1]

    def nominal_batch_cycles(self, job: Job, k: int) -> float:
        """Fault-free service cycles of a ``k``-wide fused batch.

        Priced by one golden batched run per ``(dataset, scale,
        kernel, k)`` and cached — like :meth:`nominal_cycles`, batch
        timing depends only on the programmed block structure and the
        width, never on operand values.  The scheduler uses this to
        check deadline slack before growing a batch.
        """
        if k <= 1:
            return self.nominal_cycles(job)
        key = (job.dataset, job.scale, job.kernel, k)
        prices = self.memo.batch_prices
        cycles = prices.get(key)
        if cycles is None:
            att = self.memo.golden.attempt_batch([job] * k, self)
            cycles = prices[key] = att.cycles
        return cycles

    def reference_values(self, job: Job) -> np.ndarray:
        """The golden-kernel answer used for graceful degradation.

        Computed on the memo's :class:`~repro.solvers.ReferenceBackend`
        for the job's matrix, whose CSR copy and prepared forward sweep
        are built once for every pool sharing the memo.
        """
        from repro.solvers import ReferenceBackend, pcg

        refs = self.memo.references
        ref = refs.get((job.dataset, job.scale))
        if ref is None:
            ref = refs[(job.dataset, job.scale)] = ReferenceBackend(
                self.matrix(job.dataset, job.scale))
        operand = self.operand(job)
        if job.kernel == "spmv":
            return ref.spmv(operand)
        if job.kernel == "symgs":
            return ref.forward_sweep(operand, np.zeros(operand.size))
        if job.kernel == "pcg":
            return pcg(ref, operand, tol=1e-6, max_iter=25).x
        raise ConfigError(
            f"unknown job kernel {job.kernel!r}; known: {JOB_KERNELS}")

    # ------------------------------------------------------------------
    # Pool-level health summary
    # ------------------------------------------------------------------
    @property
    def breaker_trips(self) -> int:
        return sum(d.breaker.trips for d in self.devices)

    def all_refusing(self, now: float) -> bool:
        """Whether every device is out of service at ``now``: crashed,
        breaker-open, or withdrawn by the autoscaler (draining devices
        accept no new placements; retired ones never serve again).

        The scheduler's total-outage test; it stops at the first device
        that could serve.  A hanging device is *busy*, not out of
        service — its queued work will still run — so a hang does not
        count as refusing.
        """
        return not any(d.up and not d.retired and not d.draining
                       and d.breaker.allows(now) for d in self.devices)

    def untried_targets(self, tried) -> int:
        """Devices a retry could still be placed on: not yet tried and
        not withdrawn by the autoscaler.

        The scheduler's pool-exhaustion checks used to compare
        ``len(tried) >= len(pool)``; with elastic capacity the pool
        list also holds draining/retired slots a retry can never
        target, so exhaustion counts live candidates instead.  Without
        autoscaling every device is live and this reduces exactly to
        the old size comparison.
        """
        return sum(1 for d in self.devices
                   if d.device_id not in tried
                   and not d.retired and not d.draining)
