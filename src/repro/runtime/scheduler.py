"""Deterministic simulated-time scheduler over a device pool.

The scheduler is a discrete-event simulation cored on the heap-based
engine of :mod:`repro.runtime.events`.  All time is in simulated
cycles — the same clock :class:`~repro.core.report.SimReport`
accumulates — so a run is bit-reproducible from its seeds and needs no
threads, sleeps, or wall-clock reads.  Every future state change
that only the run reveals (dispatch completion, breaker reopen,
deadline expiry, device incident) is a typed event pushed when it
becomes known; the main loop pops the earliest one in O(log n) instead
of re-scanning every queue and device per clock advance.  Arrivals,
fixed by the trace before the first cycle, stream from one sorted
deque whose head is merged against the heap top.  Coincident events are
processed under the explicit total order ``(cycle, kind, key, seq)``
documented in :mod:`repro.runtime.events` — every tie is broken by an
explicit total order, never by hash or identity.

Policies
--------
* **Admission / backpressure** — the waiting queue is bounded.  A job
  arriving with ``deadline_cycles <= 0`` or to a full queue raises
  :class:`~repro.errors.RejectedError` internally and finishes
  ``REJECTED`` immediately: the runtime sheds load explicitly rather
  than queueing unboundedly.  High-priority jobs may use a small
  reserve beyond the base queue depth.
* **Deadlines** — enforced against the simulated clock.  A job whose
  deadline expires while queued is finalised ``TIMEOUT`` (via
  :class:`~repro.errors.DeadlineError`) without occupying a device; a
  job that completes past its deadline is also ``TIMEOUT`` (the answer
  stays attached — it is correct, merely late).  The strict-``>``
  boundary rule is uniform across every completion path, including the
  degraded reference path: a job finishing *exactly* at its deadline
  met it.  A job whose faulted attempt completes past its deadline is
  finalised ``TIMEOUT`` at that completion cycle — the first cycle the
  fault is known — never earlier.
* **Retry-on-another-device** — a :class:`~repro.errors.FaultError` or
  :class:`~repro.errors.CorruptionError` consumes one attempt, charges
  the sick device the wasted cycles, feeds its breaker, and requeues
  the job for a device it has not tried yet.
* **Graceful degradation** — when attempts are exhausted (or every
  breaker is open), the job runs on the golden reference kernels and
  finishes ``DEGRADED``: numerically correct, explicitly marked, priced
  at ``reference_slowdown`` × the workload's nominal cycles.  The
  runtime never silently returns a wrong or missing answer; ``FAILED``
  is reserved for jobs no path could answer (e.g. an unknown dataset).
* **Chaos survival** — when the pool carries a
  :class:`~repro.sim.chaos.ChaosModel`, devices crash and hang as
  typed events.  A crash voids the device's in-flight attempt (the
  attempt is uncharged — cycles trimmed, the attempt-budget slot
  refunded — and the job requeues for another device), quarantines the
  breaker until the paired ``DEVICE_RECOVER``, and then probes it
  half-open.  A hang stretches the in-flight attempt by the stall and
  blocks new placements until it clears.  Infrastructure loss alone
  never produces ``FAILED``.
* **Hedged dispatch** — with ``hedge_after`` set, a solo attempt that
  has run ``hedge_after ×`` its golden nominal estimate without
  completing may spawn one speculative duplicate on a healthy untried
  device.  First verified answer wins; the loser is cancelled through
  lazy event deletion, its device time trimmed to the cycles actually
  occupied, and both attempts stay honestly counted (``attempts``,
  ``hedges_launched``/``hedges_won``).

Attempt lifecycle
-----------------
Every attempt is drawn at dispatch but *applied* at its completion
cycle: the breaker verdict, the health window, the retry requeue, the
result and the trace spans all wait for the attempt's
``DISPATCH_COMPLETE`` event.  So no placement ever sees an outcome
from a later simulated cycle, and crashes, hangs and hedge races can
intervene mid-flight.  Completion events validate by object identity
against the device's single in-flight record — a postponed or
cancelled attempt leaves its old event to die stale in the heap.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    ConfigError,
    DeadlineError,
    RejectedError,
    ReproError,
)
from repro.runtime.autoscale import AutoscaleConfig, Autoscaler
from repro.runtime.events import Event, EventKind, EventQueue
from repro.runtime.jobs import Job, JobResult, JobStatus
from repro.runtime.metrics import PoolReport, build_report
from repro.runtime.pool import (
    BATCHABLE_KERNELS,
    DEFAULT_REFERENCE_SLOWDOWN,
    Device,
    DevicePool,
    value_crc,
)


# ``Event.kind`` holds plain ints.  The per-event checks in
# ``_valid``/``_consume_at`` compare against these int copies: looking
# up an ``EventKind`` member goes through the enum metaclass and costs
# several times the comparison it feeds.
_ARRIVAL = int(EventKind.ARRIVAL)
_DISPATCH_COMPLETE = int(EventKind.DISPATCH_COMPLETE)
_BREAKER_REOPEN = int(EventKind.BREAKER_REOPEN)
_DEVICE_CRASH = int(EventKind.DEVICE_CRASH)
_DEVICE_HANG = int(EventKind.DEVICE_HANG)
_DEVICE_RECOVER = int(EventKind.DEVICE_RECOVER)
_HEDGE_TIMER = int(EventKind.HEDGE_TIMER)
_SCALE_EVAL = int(EventKind.SCALE_EVAL)
_DEVICE_ADD = int(EventKind.DEVICE_ADD)
_DEVICE_DRAIN = int(EventKind.DEVICE_DRAIN)


@dataclass(frozen=True)
class SchedulerConfig:
    """Serving-policy knobs (cycle units are simulated cycles)."""

    #: Bounded waiting-queue depth for normal-priority jobs.
    queue_depth: int = 32
    #: Extra queue slots only jobs with priority >= 2 may occupy.
    high_priority_reserve: int = 8
    #: Accelerator attempts per job before degrading to the reference.
    max_attempts: int = 3
    #: Latency multiplier of the reference fallback vs nominal cycles.
    reference_slowdown: float = DEFAULT_REFERENCE_SLOWDOWN
    #: Most jobs one device dispatch may fuse into a multi-RHS batch
    #: (same dataset/scale/kernel, enough deadline slack).  1 disables
    #: coalescing entirely — the scheduler then behaves exactly as it
    #: did before batching existed.
    max_batch: int = 1
    #: Hedged-dispatch threshold: once a solo attempt has been in
    #: flight for ``hedge_after ×`` the workload's golden nominal
    #: cycles, launch one speculative duplicate on a healthy untried
    #: device.  ``None`` disables hedging.  Batched dispatches never
    #: hedge.
    hedge_after: Optional[float] = None

    def __post_init__(self) -> None:
        # Construction-time validation of the numeric knobs: zero or
        # negative values used to fail later or silently disable the
        # feature (max_batch=0 meant "no batching", queue_depth=0
        # rejected everything) — each is a misconfiguration, named at
        # the moment the config is written, not when a scheduler first
        # consumes it.
        for name in ("queue_depth", "max_attempts", "max_batch"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.high_priority_reserve < 0:
            raise ConfigError(
                f"high_priority_reserve must be >= 0, got "
                f"{self.high_priority_reserve}")
        if self.hedge_after is not None and self.hedge_after <= 0:
            raise ConfigError(
                f"hedge_after must be positive (a multiple of the "
                f"nominal estimate), got {self.hedge_after}")


class _JobState:
    """Mutable scheduling state for one admitted job."""

    __slots__ = ("job", "deadline_at", "order", "attempts", "tried",
                 "flights", "hedge_event")

    def __init__(self, job: Job) -> None:
        self.job = job
        #: Absolute deadline cycle.
        self.deadline_at = job.arrival_cycle + job.deadline_cycles
        #: Service-order key: priority desc, then FIFO by job id.
        self.order = (-job.priority, job.job_id)
        self.attempts = 0
        self.tried: Set[int] = set()
        #: Live in-flight attempts: one normally, two while a hedge
        #: race is on, empty while queued.
        self.flights: List["_Flight"] = []
        #: The job's current HEDGE_TIMER event; identity-checked on
        #: pop, so a requeue-then-redispatch strands the old timer.
        self.hedge_event: Optional[Event] = None


_service_order = attrgetter("order")


def _arrival_order(job: Job) -> Tuple[float, int]:
    """Arrival-stream key: arrival cycle, then job id."""
    return (job.arrival_cycle, job.job_id)


def _least_loaded(device: Device) -> Tuple[float, int]:
    """Placement key: least busy cycles, then lowest device id."""
    return (device.busy_cycles, device.device_id)


class _Flight:
    """One in-flight attempt.

    The outcome ``att`` is drawn at dispatch, so each device's fault
    stream advances in dispatch order, but nothing is *applied* until
    the flight's ``DISPATCH_COMPLETE`` event is consumed, so a crash
    can void it, a hang can stretch it, and a hedge twin can beat it.
    """

    __slots__ = ("states", "att", "device", "start", "finish", "hedge",
                 "complete_event")

    def __init__(self, states: List[_JobState], att, device,
                 start: float, finish: float, hedge: bool,
                 complete_event: Event) -> None:
        self.states = states
        self.att = att
        self.device = device
        self.start = start
        #: Scheduled completion cycle; a hang pushes it out (and
        #: replaces ``complete_event``).
        self.finish = finish
        #: True for a speculative hedge duplicate.
        self.hedge = hedge
        #: The live completion event — validity is object identity, so
        #: superseded events die stale in the heap.
        self.complete_event = complete_event


@dataclass(frozen=True)
class Eviction:
    """A job a pool outage handed back to the fleet.

    Eviction is the pool-level analogue of the crash contract's
    requeue: the job is not failed, merely homeless.  ``attempts``
    carries the accelerator attempts the job consumed in this pool
    (voided in-flight attempts already refunded), so the fleet can
    keep the final result's attempt count honest across pools.
    """

    job: Job
    #: Cycle the job left the pool (outage onset, or its arrival cycle
    #: for a job arriving mid-outage).
    cycle: float
    attempts: int


class Scheduler:
    """Runs a trace of jobs over a :class:`DevicePool` to completion."""

    def __init__(self, pool: DevicePool,
                 config: Optional[SchedulerConfig] = None,
                 autoscale: Optional[AutoscaleConfig] = None) -> None:
        self.pool = pool
        self.config = config or SchedulerConfig()
        #: Elastic-capacity policy; ``None`` — the default — keeps the
        #: pool at its construction-time size and the whole run
        #: field-identical to the pre-autoscale scheduler.
        self.autoscale_config = autoscale
        #: The live :class:`Autoscaler` (built per :meth:`start`).
        self.autoscaler: Optional[Autoscaler] = None
        self.queue_peak = 0
        #: Fused dispatches that produced answers, jobs served inside
        #: them, and DRAM bytes they avoided vs solo service.
        self.batches = 0
        self.batched_jobs = 0
        self.stream_bytes_saved = 0.0
        #: Hedged-dispatch and chaos counters for the report (reset
        #: per :meth:`run`).
        self.hedges_launched = 0
        self.hedges_won = 0
        self.crashes = 0
        self.hangs = 0
        self.recoveries = 0
        #: The run's event heap (rebuilt per :meth:`run`); kept on the
        #: instance so tests and load benchmarks can read its counters.
        self.events = EventQueue()
        #: Admitted-job states by id (HEDGE_TIMER lookups).
        self._states: Dict[int, _JobState] = {}
        #: Each device's pending (not yet fully applied) incident.
        self._incidents: Dict[int, object] = {}
        #: Live flights — the run loop must not exit while any remain,
        #: even with the queues drained.
        self._inflight = 0
        # ---- resumable-session state (populated by :meth:`start`)
        #: The session's only arrival stream, sorted by
        #: ``(arrival_cycle, job_id)``; :meth:`_next_wake` merges its
        #: head against the heap top, so arrivals never enter the heap.
        self._arrivals: deque = deque()
        #: Arrivals :meth:`start` admitted at cycle 0, not yet counted
        #: as popped-stale wakes (see :meth:`_next_wake`).
        self._uncounted_arrivals = 0
        self._waiting: List[_JobState] = []
        self._results: Dict[int, JobResult] = {}
        self._now = 0.0
        #: The wake :meth:`peek_cycle` popped but has not yet consumed.
        self._held: Optional[Event] = None
        self._seen: Set[int] = set()
        # ---- fleet hooks: pool-outage state and eviction hand-off
        self._pool_down = False
        self._outage_began = 0.0
        #: Devices the current outage forced down (readmission restores
        #: exactly these; a device that crashed on its own during the
        #: outage is removed and left to its own DEVICE_RECOVER).
        self._outage_held: Set[int] = set()
        self._evicted: List[Eviction] = []
        self._evicted_ids: Set[int] = set()
        self.outages = 0
        self.pool_downtime_cycles = 0.0

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def admit(self, job: Job, queue_length: int) -> None:
        """Raise :class:`RejectedError` unless the job may be admitted."""
        if job.deadline_cycles <= 0:
            raise RejectedError(
                f"job {job.job_id}: zero deadline budget is not "
                f"serviceable")
        capacity = self.config.queue_depth
        if job.priority >= 2:
            capacity += self.config.high_priority_reserve
        if queue_length >= capacity:
            raise RejectedError(
                f"job {job.job_id}: queue full "
                f"({queue_length}/{capacity})")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> Tuple[List[JobResult], PoolReport]:
        """Serve every job; returns results (job order) and the report.

        The solo composition of :meth:`start` / :meth:`advance` /
        :meth:`finish` — bit-identical to the historical single-call
        loop (the fingerprint corpus pins this).
        """
        self.start(jobs)
        while self.advance():
            pass
        return self.finish()

    def start(self, jobs: Sequence[Job]) -> None:
        """Open a serving session: the arrival stream, chaos bootstrap,
        and the cycle-0 admit/dispatch pass.

        ``start``/``advance``/``finish`` decompose the run loop so a
        fleet layer can interleave N schedulers on one global clock:
        :meth:`peek_cycle` exposes the next wake without consuming it,
        :meth:`advance` consumes exactly one, and the fleet always
        advances whichever source (session wake or fleet event) is
        globally earliest — so an injected job is never in this
        session's past.
        """
        seen: Set[int] = set()
        for j in jobs:
            if j.job_id in seen:
                raise ConfigError(
                    f"duplicate job_id {j.job_id} in trace: results are "
                    f"keyed by job id, so one of the duplicates would "
                    f"silently overwrite the other")
            seen.add(j.job_id)

        self._seen = seen
        self._arrivals = deque(sorted(jobs, key=_arrival_order))
        self._waiting = []
        self._results = {}
        self.events = events = EventQueue()
        self._states = {}
        self._incidents = {}
        self._inflight = 0
        self._now = 0.0
        self._held = None
        self._pool_down = False
        self._outage_began = 0.0
        self._outage_held = set()
        self._evicted = []
        self._evicted_ids = set()
        self.outages = 0
        self.pool_downtime_cycles = 0.0
        self.hedges_launched = self.hedges_won = 0
        self.crashes = self.hangs = self.recoveries = 0
        if self.pool.chaos is not None:
            # Bootstrap one pending incident per device; the next one
            # is drawn only when this one's recovery is consumed, so
            # each device's incident history is strictly sequential.
            for device in self.pool.devices:
                self._schedule_incident(device, 0.0)
        self.autoscaler = None
        if self.autoscale_config is not None:
            cfg = self.autoscale_config
            if len(self.pool) > cfg.max_devices:
                raise ConfigError(
                    f"pool has {len(self.pool)} devices but autoscale "
                    f"max_devices is {cfg.max_devices}; the initial "
                    f"pool must fit inside the scaling bounds")
            self.autoscaler = Autoscaler(cfg)
            self.autoscaler.note_capacity(0.0, len(self.pool))
            # Grow to the floor before serving starts; the adds count
            # as provisioned devices but not as scale-up decisions.
            while len(self.pool) < cfg.min_devices:
                self._provision_device(0.0)
            events.push(cfg.eval_interval_cycles, EventKind.SCALE_EVAL,
                        0)

        # Mirror of the scan-based loop's first iteration: admit and
        # dispatch anything actionable at cycle 0 before the first
        # clock advance.
        self._uncounted_arrivals = self._step(
            self._now, self._arrivals, self._waiting, self._results)

    def pending(self) -> bool:
        """Whether the session still has work (queued or in flight)."""
        return bool(self._arrivals or self._waiting or self._inflight)

    def peek_cycle(self) -> Optional[float]:
        """Cycle of the session's next wake, without consuming it.

        ``None`` when the session is drained.  A pending session with
        no future event (nothing can unblock its queue) reports the
        *current* cycle: the fleet must still call :meth:`advance` so
        the stranded jobs shed to the reference path.
        """
        if not self.pending():
            return None
        if self._held is None:
            self._held = self._next_wake(self._now, self._results)
        if self._held is None:
            return self._now
        return self._held.cycle

    def advance(self) -> bool:
        """Consume the session's next wake; False when drained."""
        if not self.pending():
            return False
        if self._held is None:
            self._held = self._next_wake(self._now, self._results)
        wake, self._held = self._held, None
        if wake is None:
            # No future event can unblock the queue (should be
            # unreachable — degradation guarantees progress); shed
            # whatever is left rather than spin.
            for state in list(self._waiting):
                self._waiting.remove(state)
                self._degrade(state, self._now, self._results)
            return False
        self._now = wake.cycle
        self._consume_at(wake, self._now, self._waiting, self._results)
        # Each arrival admitted here is a wake the engine processed:
        # the one that woke it or one coincident with it.
        self.events.popped += self._step(
            self._now, self._arrivals, self._waiting, self._results)
        return True

    def finish(self) -> Tuple[List[JobResult], PoolReport]:
        """Close the session: device summary spans plus the report.

        Results are ordered by job id and cover exactly the jobs this
        scheduler finalised — a job the fleet evicted mid-outage
        belongs to whichever pool (or fleet-level fallback) answered
        it.
        """
        self._trace_devices()
        ordered = [self._results[jid] for jid in sorted(self._results)]
        autoscale_report = None
        if self.autoscaler is not None:
            makespan = max((r.finish_cycle for r in ordered),
                           default=0.0)
            autoscale_report = self.autoscaler.finalize(
                max(makespan, self._now))
        return ordered, build_report(
            ordered, self.pool, self.queue_peak, batches=self.batches,
            batched_jobs=self.batched_jobs,
            stream_bytes_saved=self.stream_bytes_saved,
            events_processed=self.events.popped - self.events.stale,
            events_stale=self.events.stale,
            hedges_launched=self.hedges_launched,
            hedges_won=self.hedges_won,
            crashes=self.crashes, hangs=self.hangs,
            recoveries=self.recoveries,
            autoscale=autoscale_report)

    # ------------------------------------------------------------------
    # Fleet hooks: job injection, pool outage, probe-gated readmission
    # ------------------------------------------------------------------
    def _drop_hold(self) -> None:
        """Requeue a peeked-but-unconsumed wake before fleet mutations.

        An outage, readmission or injected job can invalidate (or
        pre-empt) the event :meth:`peek_cycle` is holding; putting it
        back unchanged lets the next peek re-validate it against the
        mutated state.  A held arrival is only the head of the arrival
        stream, which still holds it, so it is just let go.
        """
        held = self._held
        if held is not None:
            if held.kind != _ARRIVAL:
                self.events.requeue(held)
            self._held = None

    def add_job(self, job: Job) -> None:
        """Inject a job into the running session (fleet re-route).

        ``job.arrival_cycle`` must lie strictly after the session's
        clock, or :class:`~repro.errors.ConfigError` is raised: the
        arrival stream is consumed in cycle order, so an arrival at or
        before the current cycle would never be woken for.  The fleet
        satisfies this by construction — its global-min stepping keeps
        every pool's clock at or behind the event being processed, and
        a re-route lands ``reroute_cycles > 0`` after it.
        """
        if job.arrival_cycle <= self._now:
            raise ConfigError(
                f"job {job.job_id}: injected arrival cycle "
                f"{job.arrival_cycle} is not after the session's "
                f"current cycle {self._now}")
        self._drop_hold()
        if job.job_id in self._seen:
            raise ConfigError(
                f"job {job.job_id} was already routed to this pool; "
                f"the fleet must never re-route a job back")
        self._seen.add(job.job_id)
        bisect.insort(self._arrivals, job, key=_arrival_order)

    def take_evicted(self) -> List[Eviction]:
        """Drain the jobs the pool has handed back since the last call."""
        out, self._evicted = self._evicted, []
        return out

    def _eject(self, state: _JobState, now: float) -> None:
        """Hand one job back to the fleet (never a terminal result)."""
        jid = state.job.job_id
        self._evicted.append(Eviction(job=state.job, cycle=now,
                                      attempts=state.attempts))
        self._evicted_ids.add(jid)
        self._states.pop(jid, None)
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"evict#{jid}", "evict", now,
                self.pool.track("scheduler"))

    def begin_outage(self, now: float) -> None:
        """The whole pool goes dark at ``now`` (fleet POOL_OUTAGE).

        Mirrors the per-device crash contract at pool scale: every
        in-flight attempt is voided — busy cycles refunded, the
        attempt-budget slot refunded, the device dropped from
        ``tried`` — and every orphaned or queued job is *ejected* to
        the fleet rather than requeued locally.  Devices are forced
        down with quarantined breakers; :meth:`readmit` restores
        exactly the devices this outage took (one that crashes on its
        own mid-outage is left to its own recovery chain).
        """
        self._drop_hold()
        if self._pool_down:
            raise ConfigError(
                "pool outage drawn while the pool is already down: "
                "pool incidents must be strictly sequential")
        self._pool_down = True
        self._outage_began = now
        self.outages += 1
        for device in self.pool.devices:
            flight = device.inflight
            if flight is not None:
                device.busy_cycles -= flight.finish - now
                device.busy_until = now
                device.record_flight(
                    [s.job for s in flight.states], self.pool,
                    flight.start, now, ok=False,
                    error="pool outage voided attempt", cat="voided")
                device.inflight = None
                self._inflight -= 1
                for s in flight.states:
                    s.flights.remove(flight)
                    s.attempts -= 1
                    s.tried.discard(device.device_id)
                    if (not s.flights
                            and s.job.job_id not in self._results):
                        self._eject(s, now)
            if device.up:
                device.up = False
                device.down_since = now
                device.breaker.force_open(now)
                self._outage_held.add(device.device_id)
        for state in list(self._waiting):
            self._waiting.remove(state)
            self._eject(state, now)

    def run_probe(self, job: Job, now: float) -> Tuple[bool, float]:
        """Run one recovery probe on the pool's designated device.

        Called by the fleet while the pool is still down: the probe is
        a real attempt on device 0 (charged as genuine occupancy, so
        recovery is never free), bypassing admission and the breaker —
        the pool-level gate is this probe's outcome, the device-level
        half-open probes follow after readmission.  Returns
        ``(ok, finish_cycle)``.
        """
        self._drop_hold()
        # First live device: slot 0 unless the autoscaler withdrew it.
        device = next((d for d in self.pool.devices
                       if not d.retired and not d.draining),
                      self.pool.devices[0])
        att = device.attempt(job, self.pool, now=now)
        finish = now + att.cycles
        device.busy_cycles += att.cycles
        device.busy_until = max(device.busy_until, finish)
        device.record_flight([job], self.pool, now, finish,
                             ok=att.ok, error=att.error, cat="probe")
        return att.ok, finish

    def readmit(self, now: float) -> None:
        """End the outage: restore the devices it took (fleet-verified).

        Only called after a successful probe.  Restored breakers leave
        quarantine into an immediately-probeable open state, so each
        device's first real dispatch is its own half-open probe —
        recovery stays verified at both levels.
        """
        self._drop_hold()
        self._pool_down = False
        self.pool_downtime_cycles += now - self._outage_began
        for device_id in sorted(self._outage_held):
            device = self.pool.devices[device_id]
            device.up = True
            device.breaker.end_quarantine(now)
        self._outage_held.clear()

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _step(self, now: float, arrivals, waiting: List[_JobState],
              results: Dict[int, JobResult]) -> int:
        """One wake of the engine: admit everything due, then one
        dispatch pass.  Returns the number of arrivals admitted."""
        admitted = 0
        while arrivals and arrivals[0].arrival_cycle <= now:
            self._admit_at(arrivals.popleft(), waiting, results)
            admitted += 1
        self._dispatch(now, waiting, results)
        return admitted

    def _valid(self, event: Event, results: Dict[int, JobResult]) -> bool:
        """Whether a popped event still describes live state.

        The heap is append-only (lazy deletion), so an event may
        outlive the state change it announced: a job that finished
        before its deadline, a breaker that was probed or re-tripped.
        Stale events must be *skipped without waking the engine* —
        an extra wake would run the queued-expiry check at a cycle the
        event order does not define, shifting timeout finalisation.
        """
        kind = event.kind
        if kind == _DISPATCH_COMPLETE:
            # Completions validate by identity: a hang replaces the
            # flight's event, a crash or hedge cancellation removes the
            # flight entirely, and the superseded event must die stale.
            flight = self.pool.devices[event.key].inflight
            return (flight is not None
                    and flight.complete_event is event)
        if kind == _BREAKER_REOPEN:
            breaker = self.pool.devices[event.key].breaker
            return breaker.reopen_at == event.cycle
        if kind in (_DEVICE_CRASH, _DEVICE_HANG, _DEVICE_RECOVER):
            # Each is pushed exactly once per incident and incidents
            # per device are strictly sequential — never stale.
            return True
        if kind == _HEDGE_TIMER:
            state = self._states.get(event.key)
            return (state is not None
                    and event.key not in results
                    and state.hedge_event is event
                    and len(state.flights) == 1
                    and not state.flights[0].hedge)
        if kind in (_SCALE_EVAL, _DEVICE_ADD):
            # One SCALE_EVAL is live at a time (re-armed on consume)
            # and every DEVICE_ADD lands exactly once — never stale.
            return True
        if kind == _DEVICE_DRAIN:
            # Identity-validated like completions: a drain re-armed
            # past in-flight work strands its old event.
            device = self.pool.devices[event.key]
            return (device.draining and not device.retired
                    and device.drain_event is event)
        # DEADLINE_EXPIRY concerns a job that must still be live
        # (admitted, no terminal result yet, not handed back to the
        # fleet by a pool outage).
        return (event.key not in results
                and event.key not in self._evicted_ids)

    def _next_wake(self, now: float,
                   results: Dict[int, JobResult]) -> Optional[Event]:
        """The earliest strictly-future valid wake: the arrival
        stream's head or the heap's first valid event, whichever sorts
        first under ``(cycle, kind, key)``.

        An arrival's rank is ``EventKind.ARRIVAL`` (0), below every
        heap kind, so it wins a cycle tie; heap events that sort before
        it are popped (and counted stale if stale).  Every queued
        arrival lies after ``now`` (:meth:`_step` admits all that are
        due, :meth:`add_job` refuses the rest).  The returned arrival
        wake is not popped from anything: :meth:`advance` counts it,
        with its coincident arrivals, as the :meth:`_step` that admits
        them.
        """
        events = self.events
        uncounted = self._uncounted_arrivals
        if uncounted:
            # Arrivals :meth:`start` admitted at cycle 0 were due
            # before the first wake: like any event not after the
            # clock, each counts once as popped and stale, at the
            # session's first look ahead.
            self._uncounted_arrivals = 0
            events.popped += uncounted
            events.stale += uncounted
        arrivals = self._arrivals
        head = arrivals[0].arrival_cycle if arrivals else None
        top = events.peek()
        while top is not None and (head is None or top.cycle < head):
            event = events.pop()
            if event.cycle > now and self._valid(event, results):
                return event
            events.mark_stale()
            top = events.peek()
        if head is None:
            return None
        return Event(head, _ARRIVAL, arrivals[0].job_id, -1)

    def _consume_at(self, wake: Event, now: float,
                    waiting: List[_JobState],
                    results: Dict[int, JobResult]) -> None:
        """Drain every event coincident with ``wake`` and apply the
        ones with their own effect.

        Arrivals, breaker reopens and deadline expiries only *wake* the
        engine — the dispatch pass that follows reads live state and
        does the work.  Completion, chaos, hedge and autoscale events
        carry their own effect, applied here in the documented
        coincident order (kind, then key): a job completing the cycle
        its device crashes completes *before* the crash voids
        anything.  Each effectful event is re-validated immediately
        before it applies — an earlier coincident event may have
        cancelled it (e.g. the primary finishing at the same cycle as
        its hedge twin) — and marked stale if so.
        """
        events = self.events
        for event in (wake, *events.pop_at(now)):
            kind = event.kind
            if kind == _DISPATCH_COMPLETE:
                flight = self.pool.devices[event.key].inflight
                if flight is not None and flight.complete_event is event:
                    self._complete(flight, now, waiting, results)
                elif event is not wake:
                    events.mark_stale()
            elif kind == _DEVICE_CRASH:
                self._apply_crash(self.pool.devices[event.key], now,
                                  waiting, results)
            elif kind == _DEVICE_HANG:
                self._apply_hang(self.pool.devices[event.key], now)
            elif kind == _DEVICE_RECOVER:
                self._apply_recover(self.pool.devices[event.key], now)
            elif kind == _HEDGE_TIMER:
                if self._valid(event, results):
                    self._launch_hedge(self._states[event.key], now)
                elif event is not wake:
                    events.mark_stale()
            elif kind == _SCALE_EVAL:
                self._scale_eval(now)
            elif kind == _DEVICE_ADD:
                self._apply_device_add(now)
            elif kind == _DEVICE_DRAIN:
                device = self.pool.devices[event.key]
                if (device.draining and not device.retired
                        and device.drain_event is event):
                    if device.busy_until > now:
                        # Still finishing work (a probe or hang pushed
                        # its horizon out): re-arm at the new horizon.
                        device.drain_event = events.push(
                            device.busy_until, EventKind.DEVICE_DRAIN,
                            device.device_id)
                    else:
                        self._retire(device, now)
                elif event is not wake:
                    events.mark_stale()

    def _trace_devices(self) -> None:
        """Close a traced serve run: one summary span per device that
        ran, covering first dispatch to last idle, enclosing every job
        span on its track."""
        tracer = self.pool.tracer
        if tracer is None:
            return
        for d in self.pool.devices:
            if d.first_dispatch is None:
                continue
            tracer.add(f"device{d.device_id}", "device", d.first_dispatch,
                       max(d.busy_until, d.first_dispatch),
                       self.pool.track(f"device{d.device_id}"),
                       args={"jobs": float(d.jobs_run),
                             "busy_cycles": d.busy_cycles,
                             "breaker_trips": float(d.breaker.trips)})

    # ------------------------------------------------------------------
    def _admit_at(self, job: Job, waiting: List[_JobState],
                  results: Dict[int, JobResult]) -> None:
        if self._pool_down and job.deadline_cycles > 0:
            # Arrived mid-outage: infrastructure loss alone is never a
            # terminal verdict — hand the job to the fleet to re-route.
            # (Zero-deadline jobs fall through to the normal rejection:
            # no pool anywhere could serve them.)
            self._eject(_JobState(job), job.arrival_cycle)
            return
        try:
            self.admit(job, queue_length=len(waiting))
        except RejectedError as exc:
            results[job.job_id] = JobResult(
                job_id=job.job_id, status=JobStatus.REJECTED,
                finish_cycle=job.arrival_cycle, error=str(exc))
            if self.pool.tracer is not None:
                self.pool.tracer.instant_event(
                    f"reject#{job.job_id}", "reject", job.arrival_cycle,
                    self.pool.track("scheduler"))
            return
        state = _JobState(job)
        self._states[job.job_id] = state
        waiting.append(state)
        self.queue_peak = max(self.queue_peak, len(waiting))
        self.events.push(state.deadline_at, EventKind.DEADLINE_EXPIRY,
                         job.job_id)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, now: float, waiting: List[_JobState],
                  results: Dict[int, JobResult]) -> None:
        """Place or finalise every job actionable at ``now``, in one
        pass.

        Nothing this pass does can make another queued job actionable
        later in the same cycle: a placement never moves a deadline,
        never frees a device and never clears a tried set.  So expiry
        runs once, and the queue is sorted once into service order and
        kept in step as jobs leave it.
        """
        if not waiting:
            return
        # 1. Expire deadlines of queued jobs before placing work, in
        # service order.  Strictly past the deadline only: a job whose
        # deadline falls exactly on the current cycle may still be
        # placed — the completion path uses the same strict comparison,
        # so a job finishing exactly at its deadline is OK, not TIMEOUT.
        expired = [s for s in waiting if now > s.deadline_at]
        if expired:
            expired.sort(key=_service_order)
            for state in expired:
                waiting.remove(state)
                self._finalize_timeout(state, now, results)

        free = self._free(now)
        if not free and not self.pool.all_refusing(now):
            return  # every serviceable device is busy
        queue = sorted(waiting, key=_service_order)

        # 2. Place the best job on the best untried free device, until
        # no free device is left or no queued job can use one.  Free
        # devices only ever leave ``free``, so a job skipped for lack
        # of candidates stays skipped and the scan resumes at ``i``.
        i = 0
        while free:
            for i in range(i, len(queue)):
                state = queue[i]
                tried = state.tried
                candidates = ([d for d in free if d.device_id not in tried]
                              if tried else free)
                if candidates:
                    break
            else:
                return
            # Least-loaded routing, id tie-break.  Deliberately
            # health-blind: the breaker is the health gate, and biasing
            # placement away from a shaky-but-closed device would
            # starve its window below min_samples so it could never
            # actually trip.
            device = min(candidates, key=_least_loaded)
            batch = self._coalesce(state, device, queue, now)
            for member in batch:
                waiting.remove(member)
                queue.remove(member)
            if len(batch) == 1:
                self._execute(state, device, now, results)
            else:
                self._execute_batch(batch, device, now, results)
            free = self._free(now)

        # 3. Total outage: every device is out of service (crashed,
        # breaker-open or withdrawn) — shed the queue head-of-line to
        # the reference path instead of queueing against a pool that
        # is entirely sick.  A hanging device does not count: its
        # queued work will still run.
        if queue and self.pool.all_refusing(now):
            for state in queue:
                waiting.remove(state)
                self._degrade(state, now, results)

    def _free(self, now: float) -> List[Device]:
        """Devices idle at ``now`` that may take a dispatch.

        ``available`` folds the lifecycle state (crashed or hanging
        devices refuse) and the autoscaler's withdrawals into the
        breaker gate.
        """
        return [d for d in self.pool.devices
                if d.busy_until <= now and d.available(now)]

    def _coalesce(self, lead: _JobState, device: Device,
                  queue: List[_JobState],
                  now: float) -> List[_JobState]:
        """Greedy batch formation around the job about to dispatch.

        Queued jobs with the lead's exact ``(dataset, scale, kernel)``
        fuse into one multi-RHS dispatch, scanned in the same
        deterministic service order the lead was chosen by and bounded
        by ``max_batch``.  Only streaming kernels batch (``pcg``
        iterates internally).  A candidate joins only while *every*
        member — lead included — still clears the golden service time
        of the grown batch before its deadline: batching trades a
        slightly longer fused attempt for the amortized stream, and a
        deadline-tight job must not pay that trade.
        """
        job = lead.job
        if self.config.max_batch <= 1 or job.kernel not in BATCHABLE_KERNELS:
            return [lead]
        key = (job.dataset, job.scale, job.kernel)
        batch = [lead]
        for cand in queue:
            if len(batch) >= self.config.max_batch:
                break
            if cand is lead:
                continue
            cj = cand.job
            if (cj.dataset, cj.scale, cj.kernel) != key:
                continue
            if device.device_id in cand.tried:
                continue
            est = self.pool.nominal_batch_cycles(job, len(batch) + 1)
            if any(now + est > s.deadline_at for s in batch):
                # Growing the batch at all would blow a member's
                # deadline; no later candidate can make it cheaper.
                break
            if now + est > cand.deadline_at:
                continue  # too tight for this candidate alone
            batch.append(cand)
        return batch

    # ------------------------------------------------------------------
    # Attempt execution and finalisation
    # ------------------------------------------------------------------
    def _execute(self, state: _JobState, device: Device, now: float,
                 results: Dict[int, JobResult]) -> None:
        job = state.job
        state.attempts += 1
        state.tried.add(device.device_id)
        device.breaker.on_dispatch(now)
        try:
            att = device.attempt(job, self.pool, now=now)
        except ReproError as exc:
            # Not a device fault — the job itself is unserviceable
            # (unknown dataset/kernel, bad config).  No retry can help.
            # The dispatch says nothing about device health either, so
            # a half-open probe it claimed is released rather than
            # resolved: leaving it in flight would wedge the breaker
            # half-open forever and the device would never take
            # traffic again.
            device.breaker.release_probe()
            results[job.job_id] = JobResult(
                job_id=job.job_id, status=JobStatus.FAILED,
                device_id=device.device_id, attempts=state.attempts,
                finish_cycle=now,
                error=f"{type(exc).__name__}: {exc}")
            return
        self._register_flight([state], att, device, now, hedge=False)
        if self.config.hedge_after is not None and len(self.pool) > 1:
            hedge_at = (now + self.config.hedge_after
                        * self.pool.nominal_cycles(job))
            state.hedge_event = self.events.push(
                hedge_at, EventKind.HEDGE_TIMER, job.job_id)

    def _on_attempt_failure(self, device: Device, now: float) -> None:
        """Feed the breaker; if this failure tripped it, schedule the
        cooldown-elapsed probe opportunity as an event."""
        device.breaker.on_failure(now)
        reopen = device.breaker.reopen_at
        if reopen is not None:
            self.events.push(reopen, EventKind.BREAKER_REOPEN,
                             device.device_id)

    def _requeue(self, state: _JobState, waiting: List[_JobState]) -> None:
        """Put a faulted or voided job back in the queue; the dispatch
        pass of the current cycle may place it at once."""
        waiting.append(state)
        self.queue_peak = max(self.queue_peak, len(waiting))

    def _execute_batch(self, states: List[_JobState], device: Device,
                       now: float, results: Dict[int, JobResult]) -> None:
        """One fused multi-RHS attempt; per-job outcomes split out.

        The breaker sees the batch as a single dispatch/outcome — one
        payload stream either served everyone or faulted on everyone —
        while results, CRCs and latencies stay per job.  On a fault
        every member is requeued (or degraded) under its own attempt
        budget, exactly as if it had failed a solo attempt.
        """
        jobs = [s.job for s in states]
        for s in states:
            s.attempts += 1
            s.tried.add(device.device_id)
        device.breaker.on_dispatch(now)
        try:
            att = device.attempt_batch(jobs, self.pool, now=now)
        except ReproError as exc:
            # Same rationale as the solo path: unserviceable work, not
            # a device verdict — release a claimed probe.
            device.breaker.release_probe()
            for s in states:
                results[s.job.job_id] = JobResult(
                    job_id=s.job.job_id, status=JobStatus.FAILED,
                    device_id=device.device_id, attempts=s.attempts,
                    finish_cycle=now,
                    error=f"{type(exc).__name__}: {exc}")
            return
        # Batched flights never hedge — one speculative duplicate of a
        # k-wide panel would double the panel's stream cost for one
        # straggler's tail.
        self._register_flight(list(states), att, device, now, hedge=False)

    # ------------------------------------------------------------------
    # Flights, hedging, chaos
    # ------------------------------------------------------------------
    def _register_flight(self, states: List[_JobState], att,
                         device: Device, start: float,
                         hedge: bool) -> None:
        """Occupy the device for the drawn attempt and push its
        ``DISPATCH_COMPLETE``; everything else waits for that event."""
        finish = start + att.cycles
        device.busy_until = finish
        device.busy_cycles += att.cycles
        event = self.events.push(finish, EventKind.DISPATCH_COMPLETE,
                                 device.device_id)
        flight = _Flight(states, att, device, start, finish, hedge,
                         event)
        device.inflight = flight
        for s in states:
            s.flights.append(flight)
        self._inflight += 1

    def _complete(self, flight: _Flight, now: float,
                  waiting: List[_JobState],
                  results: Dict[int, JobResult]) -> None:
        """Apply an attempt's outcome at its completion cycle.

        The breaker is fed *here* — at the cycle the verdict exists —
        and the trace spans are recorded at the flight's true interval
        (a hang may have stretched it).  On success any hedge twin
        still in flight is cancelled; on failure a live twin keeps the
        job's fate open and nothing is requeued yet.
        """
        device = flight.device
        states = flight.states
        jobs = [s.job for s in states]
        att = flight.att
        device.inflight = None
        self._inflight -= 1
        for s in states:
            s.flights.remove(flight)

        if att.ok:
            device.record_flight(jobs, self.pool, flight.start, now,
                                 ok=True)
            device.breaker.on_success()
            if flight.hedge:
                self.hedges_won += 1
            if len(states) > 1:
                self.batches += 1
                self.batched_jobs += len(jobs)
                solo_bytes = self.pool.nominal_dram_bytes(jobs[0])
                self.stream_bytes_saved += max(
                    0.0, solo_bytes * len(jobs) - att.dram_bytes)
            for col, s in enumerate(states):
                job = s.job
                latency = now - job.arrival_cycle
                if latency > job.deadline_cycles:
                    status, error = JobStatus.TIMEOUT, (
                        f"completed "
                        f"{latency - job.deadline_cycles:.0f} "
                        f"cycles past deadline")
                else:
                    status, error = JobStatus.OK, ""
                if att.values is None:
                    crc = 0
                elif len(states) > 1:
                    crc = value_crc(att.values[:, col])
                else:
                    crc = value_crc(att.values)
                results[job.job_id] = JobResult(
                    job_id=job.job_id, status=status,
                    device_id=device.device_id, attempts=s.attempts,
                    latency_cycles=latency, finish_cycle=now,
                    value_crc=crc, batch_size=len(jobs), error=error,
                    hedged=flight.hedge)
                # First verified answer wins: a twin still racing is
                # cancelled, its device time trimmed to the cycles it
                # actually burned.
                for loser in list(s.flights):
                    self._cancel_flight(loser, now)
                    s.flights.remove(loser)
            return

        # Fault at completion: one breaker verdict, then each member
        # retries, degrades — or simply waits, if its hedge twin is
        # still racing and may yet answer.
        device.record_flight(jobs, self.pool, flight.start, now,
                             ok=False, error=att.error)
        self._on_attempt_failure(device, now)
        for s in states:
            if s.flights:
                continue
            exhausted = (s.attempts >= self.config.max_attempts
                         or self.pool.untried_targets(s.tried) == 0)
            if exhausted:
                self._degrade(s, now, results, last_error=att.error,
                              device_id=device.device_id)
            else:
                self._requeue(s, waiting)

    def _cancel_flight(self, flight: _Flight, now: float) -> None:
        """Cancel a hedge loser: trim its device to the cycles actually
        occupied and strand its completion event (lazy deletion).

        The attempt stays *counted* — it really dispatched and burned
        ``now - start`` cycles — but produces no breaker verdict (a
        race loss says nothing about device health, so a claimed
        half-open probe is released, not resolved) and never touches
        the job's result.
        """
        device = flight.device
        device.busy_cycles -= flight.finish - now
        device.busy_until = now
        device.breaker.release_probe()
        device.inflight = None
        self._inflight -= 1
        jobs = [s.job for s in flight.states]
        device.record_flight(jobs, self.pool, flight.start, now,
                             ok=False, error="hedge race lost",
                             cat="hedge_cancelled")
        if self.pool.tracer is not None:
            for job in jobs:
                self.pool.tracer.instant_event(
                    f"hedge_cancel#{job.job_id}", "hedge_cancel", now,
                    self.pool.track("scheduler"))

    def _launch_hedge(self, state: _JobState, now: float) -> None:
        """Launch the speculative duplicate a HEDGE_TIMER asked for.

        Skipped silently when no healthy, free, untried device exists —
        the timer is consumed either way (one hedge opportunity per
        dispatch, not a standing order).
        """
        state.hedge_event = None
        job = state.job
        free = [d for d in self._free(now)
                if d.device_id not in state.tried]
        if not free:
            return
        device = min(free, key=_least_loaded)
        state.attempts += 1
        state.tried.add(device.device_id)
        device.breaker.on_dispatch(now)
        try:
            att = device.attempt(job, self.pool, now=now)
        except ReproError:
            # The primary dispatched the same job fine, so this is
            # unreachable in practice; refund the slot rather than
            # fail a job that still has a live primary.
            device.breaker.release_probe()
            state.attempts -= 1
            state.tried.discard(device.device_id)
            return
        self._register_flight([state], att, device, now, hedge=True)
        self.hedges_launched += 1
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"hedge#{job.job_id}", "hedge", now,
                self.pool.track("scheduler"))

    def _schedule_incident(self, device: Device, now: float) -> None:
        """Draw the device's next incident and push its onset event."""
        if device.chaos is None:
            return
        inc = device.chaos.next_incident(now)
        if inc is None:
            return
        self._incidents[device.device_id] = inc
        kind = (EventKind.DEVICE_CRASH if inc.kind == "crash"
                else EventKind.DEVICE_HANG)
        self.events.push(inc.at, kind, device.device_id)

    def _apply_crash(self, device: Device, now: float,
                     waiting: List[_JobState],
                     results: Dict[int, JobResult]) -> None:
        """The device dies until its incident's recovery cycle.

        In-flight work is *voided* — lost, not failed: the attempt is
        uncharged (cycles trimmed, attempt-budget slot refunded, the
        device removed from ``tried`` so even a one-device pool can
        retry after recovery) and each orphaned job requeues
        immediately unless a hedge twin is still racing for it.  The
        breaker is quarantined, not tripped: the outage is a known
        lifecycle fact, not an inferred health verdict.
        """
        inc = self._incidents[device.device_id]
        if self._pool_down:
            # The pool is already dark, so there is nothing to void —
            # but the device now has its own crash to recover from:
            # readmission must no longer restore it (its DEVICE_RECOVER
            # will, through the normal quarantine-release path).
            self._outage_held.discard(device.device_id)
        device.up = False
        device.down_since = now
        device.crashes += 1
        self.crashes += 1
        device.downtime_cycles += inc.until - now
        device.breaker.force_open(now)
        self.events.push(inc.until, EventKind.DEVICE_RECOVER,
                         device.device_id)
        if self.pool.tracer is not None:
            self.pool.tracer.add(
                f"crash#{device.device_id}.{device.crashes}", "crash",
                now, inc.until, self.pool.track("chaos"),
                args={"device": float(device.device_id)})
        flight = device.inflight
        if flight is None:
            return
        device.busy_cycles -= flight.finish - now
        device.busy_until = now
        device.record_flight([s.job for s in flight.states], self.pool,
                             flight.start, now, ok=False,
                             error="device crashed mid-attempt",
                             cat="voided")
        device.inflight = None
        self._inflight -= 1
        for s in flight.states:
            s.flights.remove(flight)
            s.attempts -= 1
            s.tried.discard(device.device_id)
            if not s.flights and s.job.job_id not in results:
                self._requeue(s, waiting)

    def _apply_hang(self, device: Device, now: float) -> None:
        """The device stalls until the incident clears.

        In-flight work is slowed, not lost: the flight's completion
        (and the device's busy horizon) slides out by the stall, its
        superseded completion event left to die stale.  The stall is
        real occupancy — the job sat on the device — so it is charged
        to ``busy_cycles`` and spanned accordingly.
        """
        inc = self._incidents[device.device_id]
        device.hangs += 1
        self.hangs += 1
        device.hang_until = inc.until
        device.downtime_cycles += inc.until - now
        self.events.push(inc.until, EventKind.DEVICE_RECOVER,
                         device.device_id)
        if self.pool.tracer is not None:
            self.pool.tracer.add(
                f"hang#{device.device_id}.{device.hangs}", "hang",
                now, inc.until, self.pool.track("chaos"),
                args={"device": float(device.device_id)})
        flight = device.inflight
        if flight is None:
            return
        delta = inc.until - now
        flight.finish += delta
        device.busy_until += delta
        device.busy_cycles += delta
        flight.complete_event = self.events.push(
            flight.finish, EventKind.DISPATCH_COMPLETE,
            device.device_id)

    def _apply_recover(self, device: Device, now: float) -> None:
        """End the device's current incident and draw its next one.

        A crashed device comes back with its breaker released from
        quarantine into an immediately-probeable open state: the next
        dispatch runs as the half-open probe, whose outcome decides
        whether the device rejoins — recovery is *verified*, never
        assumed.  A hang clears implicitly (``hang_until`` is now in
        the past).
        """
        device.recoveries += 1
        self.recoveries += 1
        if self._pool_down:
            # The pool is dark: whatever this incident was, the device
            # stays held by the outage — recorded so readmission
            # restores it along with the rest of the pool.
            self._outage_held.add(device.device_id)
            self._schedule_incident(device, now)
            return
        if not device.up:
            device.up = True
            device.breaker.end_quarantine(now)
        self._schedule_incident(device, now)

    # ------------------------------------------------------------------
    # Elastic capacity: SCALE_EVAL / DEVICE_ADD / DEVICE_DRAIN
    # ------------------------------------------------------------------
    def _scale_eval(self, now: float) -> None:
        """One autoscaler sample: decide, apply, re-arm the cadence."""
        scaler = self.autoscaler
        cfg = scaler.config
        if not self._pool_down:
            action = scaler.decide(now, len(self._waiting), self.pool)
            if action == "up":
                scaler.scale_ups += 1
                scaler.last_action_cycle = now
                key = len(self.pool.devices) + scaler.pending_adds
                scaler.pending_adds += 1
                if cfg.provision_cycles > 0:
                    self.events.push(now + cfg.provision_cycles,
                                     EventKind.DEVICE_ADD, key)
                else:
                    # A zero provisioning delay lands the device at the
                    # decision cycle; applied inline because an event
                    # pushed at the current cycle would strand (the
                    # coincident batch is already drained).
                    self._apply_device_add(now)
            elif action == "down":
                live = [d for d in self.pool.devices
                        if not d.retired and not d.draining]
                target = min(live, key=_least_loaded)
                scaler.scale_downs += 1
                scaler.last_action_cycle = now
                self._start_drain(target, now)
        if self.pending():
            self.events.push(now + cfg.eval_interval_cycles,
                             EventKind.SCALE_EVAL, 0)

    def _apply_device_add(self, now: float) -> None:
        """Land a decided scale-up: the DEVICE_ADD's provisioning delay
        elapsed, so the device joins (store-primed) and takes traffic
        from this cycle on."""
        scaler = self.autoscaler
        scaler.pending_adds -= 1
        device = self._provision_device(now)
        if self._pool_down:
            # Provisioned into a pool-wide outage: the newcomer is held
            # dark with its siblings and readmission restores it.
            device.up = False
            device.down_since = now
            device.breaker.force_open(now)
            self._outage_held.add(device.device_id)
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"scale_up#{device.device_id}", "scale_up", now,
                self.pool.track("autoscale"))

    def _provision_device(self, now: float) -> Device:
        """Add one device to the pool (bootstrap grow or scale-up)."""
        device = self.pool.add_device(now)
        self.autoscaler.devices_added += 1
        self.autoscaler.note_capacity(now, +1)
        self._prime_device(device, now)
        if self.pool.chaos is not None:
            self._schedule_incident(device, now)
        return device

    def _prime_device(self, device: Device, now: float) -> None:
        """Bind a fresh device to every image its siblings run.

        Every workload in ``pool.workloads_seen`` is bound from the
        pool's image memo before the newcomer takes traffic, so the
        scale-up converts and compiles nothing.  ``prime_hits`` counts
        one per accelerator image bound (three for a ``pcg`` workload).
        Priming happens only where it always has: a store-backed pool
        in ``simulate`` execution (``model`` execution never programs).
        """
        pool = self.pool
        if pool.artifact_store is None or pool.execution != "simulate":
            return
        for dataset, scale, kernel in list(pool.workloads_seen):
            job = Job(job_id=-1, kernel=kernel, dataset=dataset,
                      scale=scale, arrival_cycle=now,
                      deadline_cycles=1.0)
            exe = device._executor(job, pool)
            self.autoscaler.prime_hits += len(
                getattr(exe, "accelerators", (exe,)))

    def _start_drain(self, device: Device, now: float) -> None:
        """Begin drain-before-remove on a scale-down target.

        The device takes no new placements from this cycle on
        (``available`` is False while draining); in-flight work — a
        flight or a recovery probe — finishes first, then the
        DEVICE_DRAIN retires it.  An idle target
        retires immediately.
        """
        device.draining = True
        device.drain_began = now
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"scale_down#{device.device_id}", "scale_down", now,
                self.pool.track("autoscale"))
        if device.busy_until <= now and device.inflight is None:
            self._retire(device, now)
        else:
            device.drain_event = self.events.push(
                max(device.busy_until, now), EventKind.DEVICE_DRAIN,
                device.device_id)

    def _retire(self, device: Device, now: float) -> None:
        """Finish a drain: the device leaves service permanently.

        The slot stays in ``pool.devices`` (event keys index the list)
        but ``retired`` makes it permanently unavailable.  The trace
        records the drain window on the ``autoscale`` track — the span
        the ``check_no_service_on_draining_device`` invariant audits
        job placements against.
        """
        device.retired = True
        device.drain_event = None
        self.autoscaler.devices_retired += 1
        self.autoscaler.note_capacity(now, -1)
        if self.pool.tracer is not None:
            self.pool.tracer.add(
                f"drain#{device.device_id}", "drain",
                device.drain_began, max(now, device.drain_began),
                self.pool.track("autoscale"),
                args={"device": float(device.device_id)})

    def _finalize_timeout(self, state: _JobState, now: float,
                          results: Dict[int, JobResult]) -> None:
        job = state.job
        n = state.attempts
        when = (f"after {n} failed attempt{'s' if n > 1 else ''}" if n
                else "before execution")
        err = DeadlineError(
            f"job {job.job_id}: deadline of {job.deadline_cycles:.0f} "
            f"cycles expired at cycle {now:.0f} {when}")
        results[job.job_id] = JobResult(
            job_id=job.job_id, status=JobStatus.TIMEOUT,
            attempts=state.attempts,
            latency_cycles=now - job.arrival_cycle,
            finish_cycle=now, error=str(err))
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"timeout#{job.job_id}", "timeout", now,
                self.pool.track("scheduler"))

    def _degrade(self, state: _JobState, start: float,
                 results: Dict[int, JobResult], last_error: str = "",
                 device_id: int = -1) -> None:
        """Answer on the reference path, explicitly marked DEGRADED.

        The deadline rule is the same strict-``>`` boundary every other
        completion path applies: a degraded answer landing past the
        job's deadline is ``TIMEOUT`` — the reference answer stays
        attached (correct, merely late), exactly like an accelerator
        answer that finished late.
        """
        job = state.job
        try:
            values = self.pool.reference_values(job)
        except Exception as exc:  # no path can answer this job
            detail = f"{type(exc).__name__}: {exc}"
            if last_error:
                detail += f" (after {last_error})"
            results[job.job_id] = JobResult(
                job_id=job.job_id, status=JobStatus.FAILED,
                device_id=device_id, attempts=state.attempts,
                finish_cycle=start, error=detail)
            return
        cycles = (self.pool.nominal_cycles(job)
                  * self.config.reference_slowdown)
        finish = start + cycles
        latency = finish - job.arrival_cycle
        if latency > job.deadline_cycles:
            status = JobStatus.TIMEOUT
            error = (f"degraded answer completed "
                     f"{latency - job.deadline_cycles:.0f} cycles past "
                     f"deadline")
            if last_error:
                error += f" (after {last_error})"
        else:
            status, error = JobStatus.DEGRADED, last_error
        results[job.job_id] = JobResult(
            job_id=job.job_id, status=status,
            device_id=-1, attempts=state.attempts,
            latency_cycles=latency,
            finish_cycle=finish, value_crc=value_crc(values),
            error=error)
        if self.pool.tracer is not None:
            self.pool.tracer.add(
                f"{job.kernel}#{job.job_id}", "degraded", start, finish,
                self.pool.track("reference"),
                args={"slowdown": self.config.reference_slowdown})
