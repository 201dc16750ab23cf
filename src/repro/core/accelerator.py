"""The ALRESCHA accelerator: programming model and execution engine.

This module ties the pieces together the way Figure 7 describes: the
*host* converts a sparse kernel into a configuration table plus an
Alrescha-formatted matrix (:func:`repro.core.convert.convert`) and writes
both through the program/data interfaces (:meth:`Alrescha.program`); the
accelerator then executes the table — streaming locally-dense blocks
from memory through the FCU while the RCU supplies vector operands,
handles data dependencies, and reconfigures between data paths.

Execution is *functional + timed*: every run produces the exact kernel
result (validated against the golden kernels in :mod:`repro.kernels`)
together with a :class:`~repro.core.report.SimReport` of cycles, event
counts, energy and bandwidth utilization.

Timing model
------------
Per pass, two resources are tracked:

* **stream cycles** — payload blocks plus cache-refill and write-back
  traffic through the 288 GB/s channel;
* **compute cycles** — the engine side: streaming data paths consume
  ω² operands through the ALU row per block, while D-SymGS serialises ω
  forwarding steps per diagonal block.

The FIFOs in front of the FCU let memory run ahead of compute, so for
kernels made of independent data paths the pass costs
``max(stream, compute)``.  SymGS is different: the D-SymGS of block-row
*i* must wait for the row's GEMV partials, and later rows' GEMVs read the
chunk it produces, so the pass costs the *sum over block rows* of
``max(row stream, row GEMV compute) + row D-SymGS compute``.  Data-path
switches add their pipeline fill, and reconfiguration adds only what the
tree drain cannot hide (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.core.config import (
    ConfigTable,
    DataPathType,
    KernelType,
    OperandPort,
)
from repro.core.convert import ConversionResult, convert
from repro.core.datapaths import (
    DEFAULT_DSYMGS_STEP_LATENCY,
    DataPathTiming,
    dbfs_block,
    dpr_block,
    dsssp_block,
    dsymgs_block,
    gemv_block,
)
from repro.core.fcu import DEFAULT_N_ALUS, FixedComputeUnit
from repro.core.plan import KERNEL_PLAN_KINDS, compile_pass
from repro.core.report import SimReport
from repro.observe.tracer import PassTraceBuilder, Tracer
from repro.core.rcu import RCUConfig, ReconfigurableComputeUnit
from repro.sim.cache import LocalCache
from repro.sim.energy import EnergyModel
from repro.sim.faults import FaultModel, payload_checksum
from repro.sim.memory import DEFAULT_CAPACITY_BYTES, StreamingMemory


@dataclass
class AlreschaConfig:
    """Hardware configuration (defaults from Table 5 of the paper)."""

    omega: int = 8
    n_alus: int = DEFAULT_N_ALUS
    frequency_hz: float = 2.5e9
    bandwidth_bytes_per_s: float = 288e9
    cache_bytes: int = 1024
    cache_line_bytes: int = 64
    cache_ways: int = 4
    cache_hit_latency: int = 4
    cache_miss_latency: int = 24
    alu_latency: int = 3
    re_sum_latency: int = 3
    re_min_latency: int = 1
    dsymgs_step_latency: int = DEFAULT_DSYMGS_STEP_LATENCY
    reconfig_cycles: int = 8
    hide_reconfig_under_drain: bool = True
    #: Stored element width in bytes: 8 (Table 5's double precision) or
    #: 4 for an fp32-traffic study.  Functional results stay fp64.
    element_bytes: int = 8
    #: Execute passes through compiled plans (:mod:`repro.core.plan`):
    #: bit-identical results and reports, batched numpy instead of the
    #: per-block interpreter.  False falls back to the legacy path
    #: (the equivalence oracle).
    use_plan: bool = True
    #: Modelled DRAM capacity; :meth:`Alrescha.program` rejects device
    #: images whose resident set exceeds it (the model never pages).
    memory_capacity_bytes: int = DEFAULT_CAPACITY_BYTES
    #: Seeded stream-fault injector (:mod:`repro.sim.faults`).  None (the
    #: default) keeps every run on the exact pre-resilience code path.
    fault_model: Optional[FaultModel] = None
    #: Verify each streamed payload block against the CRC recorded at
    #: ``program()`` time.  Only consulted when a fault model is
    #: attached; the check itself costs no cycles (inline hardware CRC).
    verify_checksums: bool = True
    #: Raise :class:`~repro.errors.CorruptionError` when an FCU sum
    #: reduction emits NaN/Inf.  Off by default: poisoned inputs must
    #: stay *visible* in the output unless the user opts into guarding.
    guard_nonfinite: bool = False
    #: Fraction of block rows whose compiled-plan output is spot-checked
    #: against an independent recompute per pass (0 disables).
    crosscheck_rows: float = 0.0
    crosscheck_seed: int = 1
    #: Cross-check mismatches tolerated before the accelerator degrades
    #: plans to the legacy interpreter with checksums forced on.
    crosscheck_threshold: int = 1
    #: Optional :class:`~repro.observe.tracer.Tracer` recording
    #: cycle-attributed spans of every pass (engine windows, drains,
    #: reconfigs, channel streams).  None — the default — is the
    #: untraced path: outputs and reports stay bit-identical and each
    #: instrumentation site costs one ``is None`` branch.
    tracer: Optional[Tracer] = None
    #: Optional :class:`~repro.store.ArtifactStore` resolving the
    #: programming phase — conversion, device image, and report/span
    #: templates — through a content-addressed cache.  None (the
    #: default) keeps every output bit-identical to the storeless path:
    #: a *hit* returns artifacts verified byte-identical to a fresh
    #: compile, and a miss compiles exactly as before.
    artifact_store: Optional[object] = None
    energy_model: EnergyModel = field(default_factory=EnergyModel)

    @property
    def bytes_per_cycle(self) -> float:
        return self.bandwidth_bytes_per_s / self.frequency_hz

    def timing(self) -> DataPathTiming:
        return DataPathTiming(
            omega=self.omega,
            n_alus=self.n_alus,
            mem_bytes_per_cycle=self.bytes_per_cycle,
            alu_latency=self.alu_latency,
            re_sum_latency=self.re_sum_latency,
            re_min_latency=self.re_min_latency,
            dsymgs_step_latency=self.dsymgs_step_latency,
            element_bytes=self.element_bytes,
        )

    def make_fcu(self) -> FixedComputeUnit:
        return FixedComputeUnit(
            omega=self.omega,
            n_alus=self.n_alus,
            alu_latency=self.alu_latency,
            re_sum_latency=self.re_sum_latency,
            re_min_latency=self.re_min_latency,
            guard_nonfinite=self.guard_nonfinite,
        )

    def make_rcu(self) -> ReconfigurableComputeUnit:
        cache = LocalCache(
            size_bytes=self.cache_bytes,
            line_bytes=self.cache_line_bytes,
            ways=self.cache_ways,
            hit_latency=self.cache_hit_latency,
            miss_latency=self.cache_miss_latency,
        )
        rcu_cfg = RCUConfig(
            reconfig_cycles=self.reconfig_cycles,
            hide_under_drain=self.hide_reconfig_under_drain,
        )
        return ReconfigurableComputeUnit(config=rcu_cfg, cache=cache)

    def make_memory(self) -> StreamingMemory:
        return StreamingMemory(
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s,
            frequency_hz=self.frequency_hz,
            burst_bytes=self.cache_line_bytes,
            capacity_bytes=self.memory_capacity_bytes,
            fault_model=self.fault_model,
        )


@dataclass
class _Op:
    """A prepared table entry: the config row plus its resolved block."""

    dp: DataPathType
    block_row: int
    block_col: int
    inx_in: int
    inx_out: int
    port: OperandPort
    values: np.ndarray
    reversed_cols: bool
    is_diagonal: bool
    #: CRC32 of the block payload, recorded at ``program()`` time; the
    #: streamed copy is verified against it when faults are injected.
    checksum: int = 0


@dataclass
class _RowGroup:
    """All ops of one block row, GEMV-class first then the diagonal."""

    block_row: int
    streaming: List[_Op] = field(default_factory=list)
    diagonal: Optional[_Op] = None


def _read_only(values: np.ndarray) -> np.ndarray:
    """A view of ``values`` that raises on in-place writes."""
    view = values.view()
    view.flags.writeable = False
    return view


@dataclass
class ProgrammedImage:
    """Everything programming produces, shared by every binding.

    The conversion (Algorithm 1), the configuration table resolved into
    per-block-row ops with their payload CRCs, and the pass plans
    compiled from them with their report, span and per-width batch
    templates.  None of it depends on a fault model, so any number of
    accelerators may run one image (:meth:`Alrescha.bind`) — the
    paper's "program once per matrix".  Runs only read it: payload
    arrays are read-only and plans take the running accelerator as an
    argument instead of holding one.
    """

    conversion: ConversionResult
    rows: List[_RowGroup]
    table_order_switches: int
    #: Compiled pass plans, keyed by pass kind; built lazily on the
    #: first run of each kind by whichever binding runs it first.
    plans: Dict[str, object] = field(default_factory=dict)
    #: Content key of the conversion when it was resolved through an
    #: artifact store (None otherwise); the plan layer uses it to
    #: load/persist captured templates.
    store_key: Optional[str] = None


class Alrescha:
    """The accelerator.  Program once, run kernels repeatedly.

    An accelerator is a :class:`ProgrammedImage` plus a *binding*: its
    own config (and so its own fault model) and its own cross-check
    state.  :meth:`bind` makes another accelerator on the same image.
    """

    def __init__(self, config: Optional[AlreschaConfig] = None) -> None:
        self.config = config or AlreschaConfig()
        self.image: Optional[ProgrammedImage] = None
        #: Set while a plan captures its report template by replaying the
        #: legacy interpreter: the capture must see the clean channel or
        #: the template (and plan verification) would absorb faults.
        self._suppress_faults: bool = False
        #: Cross-check mismatches seen so far; at
        #: ``crosscheck_threshold`` the accelerator degrades plans to
        #: the legacy interpreter with checksums forced on.
        self._crosscheck_failures: int = 0
        self._plan_degraded: bool = False
        self._force_verify: bool = False
        #: Set while a plan captures its *span template*: the capture
        #: tracer shadows ``config.tracer`` so template spans never leak
        #: into the user's trace (mirrors ``_suppress_faults``).
        self._capture_tracer: Optional[Tracer] = None

    @property
    def tracer(self) -> Optional[Tracer]:
        """The tracer runs record into: the plan-capture tracer while a
        template is being captured, else the configured one (if any)."""
        if self._capture_tracer is not None:
            return self._capture_tracer
        return self.config.tracer

    # ------------------------------------------------------------------
    # Programming (host side, one-time per matrix+kernel)
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, kernel: KernelType, matrix,
                    config: Optional[AlreschaConfig] = None,
                    reorder: bool = True,
                    source: Optional[Dict[str, object]] = None
                    ) -> "Alrescha":
        """Convert, program and return a ready accelerator.

        With ``config.artifact_store`` attached, the conversion is
        resolved through the store (memory LRU, then the verified disk
        artifact, then a cold compile that is persisted); ``source``
        metadata (e.g. ``{"dataset": ..., "scale": ...}``) is recorded
        so ``repro cache verify`` can recompile-and-diff later.
        """
        acc = cls(config)
        store = acc.config.artifact_store
        key: Optional[str] = None
        if store is not None:
            conv, key = store.conversion(
                kernel, matrix, acc.config, reorder=reorder,
                source=source)
        else:
            conv = convert(kernel, matrix, omega=acc.config.omega,
                           reorder=reorder)
        acc.program(conv)
        acc.image.store_key = key
        return acc

    def bind(self, fault_model: Optional[FaultModel]) -> "Alrescha":
        """Another accelerator on this one's image, with its own fault
        model and fresh cross-check state.

        Nothing is converted or compiled: plans compiled by any binding
        serve all of them.  Answers, cycles and fault draws equal those
        of an accelerator programmed afresh with ``fault_model``.
        """
        if self.image is None:
            raise SimulationError("accelerator has not been programmed")
        twin = Alrescha(replace(self.config, fault_model=fault_model))
        twin.image = self.image
        return twin

    def program(self, conversion: ConversionResult) -> None:
        """Write the configuration table and formatted matrix.

        Programming builds a new image: accelerators bound to the old
        one keep running it.
        """
        if conversion.omega != self.config.omega:
            raise ConfigError(
                f"conversion blocked at omega={conversion.omega}, "
                f"hardware configured for {self.config.omega}"
            )
        resident = float(conversion.matrix.payload_bytes)
        if conversion.matrix.symgs_layout:
            resident += conversion.matrix.shape[0] * 8.0
        self.config.make_memory().check_capacity(resident)
        block_map = {
            (b.block_row, b.block_col): b for b in conversion.matrix.stream()
        }
        rows: Dict[int, _RowGroup] = {}
        order: List[int] = []
        for entry in conversion.table:
            key = (entry.block_row, entry.block_col)
            sb = block_map.get(key)
            if sb is None:
                raise ConfigError(
                    f"table references block {key} absent from the stream"
                )
            op = _Op(
                dp=entry.dp,
                block_row=entry.block_row,
                block_col=entry.block_col,
                inx_in=entry.inx_in,
                inx_out=entry.inx_out,
                port=entry.op,
                values=_read_only(sb.values),
                reversed_cols=sb.reversed_cols,
                is_diagonal=sb.is_diagonal,
                checksum=payload_checksum(sb.values),
            )
            group = rows.get(entry.block_row)
            if group is None:
                group = _RowGroup(entry.block_row)
                rows[entry.block_row] = group
                order.append(entry.block_row)
            if op.dp is DataPathType.D_SYMGS:
                group.diagonal = op
            else:
                group.streaming.append(op)
        self.image = ProgrammedImage(
            conversion, [rows[i] for i in order],
            conversion.table.switch_count())
        self._crosscheck_failures = 0
        self._plan_degraded = False
        self._force_verify = False
        self._validate_symgs_diagonal()

    def _validate_symgs_diagonal(self) -> None:
        """Reject zero/non-finite pivots the D-SymGS PE would divide by.

        Checked at program time (the host knows the full diagonal here)
        rather than mid-sweep, and only for rows an actual D-SymGS entry
        covers — rows of an entirely empty block row pass through the
        sweep untouched, so a missing pivot there is the caller's
        business (the system is singular either way).
        """
        conversion = self.image.conversion
        diag = conversion.matrix.diagonal
        if conversion.kernel is not KernelType.SYMGS or diag is None:
            return
        n, w = conversion.matrix.shape[0], self.config.omega
        for group in self.image.rows:
            if group.diagonal is None:
                continue
            start = group.block_row * w
            valid = max(0, min(w, n - start))
            d = diag[start:start + valid]
            bad = ~np.isfinite(d) | (d == 0.0)
            if bad.any():
                r = int(np.argmax(bad))
                raise ConfigError(
                    f"SymGS needs a nonzero finite main diagonal; "
                    f"row {start + r} has {d[r]!r}"
                )

    # ------------------------------------------------------------------
    # Compiled pass plans
    # ------------------------------------------------------------------
    def _plan(self, kind: str):
        plans = self.image.plans
        plan = plans.get(kind)
        if plan is None:
            plan = compile_pass(self, kind)
            plans[kind] = plan
        return plan

    def compile_plans(self) -> None:
        """Eagerly compile the pass plans of the programmed kernel.

        Plans otherwise compile lazily on first run; callers that know
        they will iterate (solvers, graph drivers) can pay the one-off
        compile cost up front.
        """
        for kind in KERNEL_PLAN_KINDS.get(self.conversion.kernel, ()):
            self._plan(kind)

    @property
    def plan_degraded(self) -> bool:
        """True once cross-check failures forced plans off for good."""
        return self._plan_degraded

    def _run_plan_checked(self, kind: str, plan_call: Callable,
                          legacy_call: Callable):
        """Run a pass through its plan, degrading on cross-check failure.

        ``plan_call(plan)`` executes the compiled plan; ``legacy_call()``
        executes the same pass on the per-block interpreter.  When the
        plan's sampled cross-check reports a mismatch, the plan output
        is *discarded* — never returned — and the pass reruns on the
        interpreter with checksum verification forced on, charged for
        the wasted plan cycles.  Mismatches accumulate; at
        ``crosscheck_threshold`` the accelerator stops trusting plans
        for the rest of the program.  On a clean run this wrapper adds
        nothing: the plan result passes through untouched.
        """
        if self._plan_degraded:
            return legacy_call()
        result = plan_call(self._plan(kind))
        report = result[-1]
        mismatches = report.counters.get("crosscheck_mismatches")
        if not mismatches:
            return result
        self._crosscheck_failures += int(mismatches)
        if self._crosscheck_failures >= self.config.crosscheck_threshold:
            self._plan_degraded = True
        self._force_verify = True
        try:
            rerun = legacy_call()
        finally:
            self._force_verify = self._plan_degraded
        rerun_report = rerun[-1]
        rerun_report.cycles += report.cycles
        rerun_report.counters.add("plan_fallbacks", 1.0)
        rerun_report.counters.add("crosscheck_wasted_cycles", report.cycles)
        # Fold the discarded plan run's fault accounting into the rerun
        # so the pass's counters still reconcile with the injection log.
        for key in ("faults_injected", "faults_detected",
                    "faults_corrected", "faults_silent", "retry_cycles",
                    "fault_latency_cycles", "fault_restreams",
                    "crosscheck_mismatches", "crosscheck_rows"):
            value = report.counters.get(key)
            if value:
                rerun_report.counters.add(key, value)
        return rerun

    def _stream_op(self, mem: StreamingMemory, op: _Op
                   ) -> Tuple[np.ndarray, float]:
        """Stream one entry's payload block, consulting the fault model.

        Returns ``(delivered values, extra cycles)``.  With no fault
        model attached — or while a plan captures its report template —
        this is exactly the pre-resilience ``stream_cycles`` call.
        """
        nbytes = self.config.omega * self.config.omega \
            * self.config.element_bytes
        if mem.fault_model is None or self._suppress_faults:
            mem.stream_cycles(nbytes)
            return op.values, 0.0
        checksum = op.checksum if (self.config.verify_checksums
                                   or self._force_verify) else None
        return mem.stream_payload_block(op.values, nbytes, checksum)

    @property
    def conversion(self) -> ConversionResult:
        if self.image is None:
            raise SimulationError("accelerator has not been programmed")
        return self.image.conversion

    @property
    def table(self) -> ConfigTable:
        return self.conversion.table

    @property
    def n(self) -> int:
        return self.conversion.matrix.shape[0]

    # ------------------------------------------------------------------
    # Kernel runners
    # ------------------------------------------------------------------
    def run_spmm(self, x: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """Multi-vector SpMV (``Y = A @ X`` for an n x k operand).

        The matrix payload streams from memory *once* and each block is
        applied to all ``k`` operand columns while resident — the data
        reuse the paper's storage format exists to enable, extended from
        one vector to a panel.  Timing: the stream cost is unchanged
        from one SpMV; compute and cache costs scale with ``k``, so
        throughput per column improves until the ALU row saturates.

        Always runs on the per-block interpreter: the operand panel
        width ``k`` varies per call, so there is no per-program pass
        structure for :mod:`repro.core.plan` to compile.
        """
        self._require_kernel(KernelType.SPMV)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        n, w = self.n, self.config.omega
        if x.shape[0] != n or x.ndim != 2 or x.shape[1] < 1:
            raise SimulationError(
                f"operand must be ({n}, k>=1), got {x.shape}"
            )
        k = x.shape[1]
        fcu = self.config.make_fcu()
        rcu = self.config.make_rcu()
        mem = self.config.make_memory()
        timing = self.config.timing()
        tracer = self.tracer
        mem.tracer = tracer
        tb = (PassTraceBuilder(tracer, "spmm")
              if tracer is not None else None)
        for col in range(k):
            rcu.load_operand(f"x{col}", x[:, col])

        y = np.zeros((n, k))
        stream_cycles = 0.0
        compute_cycles = 0.0
        fills = 0.0
        exposed = 0.0
        prev_dp: Optional[DataPathType] = None
        spb = timing.stream_cycles_per_block()
        for group in self.image.rows:
            if not group.streaming:
                continue
            start = group.block_row * w
            valid = max(0, min(w, n - start))
            acc = np.zeros((w, k))
            for op in group.streaming:
                if prev_dp is not op.dp:
                    drain = (timing.drain(prev_dp) if prev_dp
                             else rcu.config.reconfig_cycles)
                    step_exposed = rcu.reconfigure(op.dp, drain)
                    exposed += step_exposed
                    fill = timing.pipeline_fill(op.dp)
                    fills += fill
                    if tb is not None:
                        tb.switch(op.dp.value,
                                  prev_dp.value if prev_dp else None,
                                  drain, rcu.config.reconfig_cycles,
                                  step_exposed,
                                  rcu.config.hide_under_drain, fill)
                    prev_dp = op.dp
                values, fault_extra = self._stream_op(mem, op)
                stream_cycles += spb + fault_extra
                block_compute = k * timing.compute_cycles_per_block(op.dp)
                compute_cycles += block_compute
                if tb is not None:
                    tb.block(block_compute, spb + fault_extra)
                for col in range(k):
                    chunk = rcu.read_chunk(f"x{col}", op.inx_in, w)
                    acc[:, col] += gemv_block(fcu, values, chunk,
                                              op.reversed_cols)
            y[start:start + valid] = acc[:valid]
            if valid:
                rcu.cache.write("out", start, valid)
                rcu.counters.add("cache_busy_cycles", 1.0)

        writeback_bytes = float(n * self.config.element_bytes * k)
        miss_bytes = rcu.cache.counters.get("cache_misses") \
            * self.config.cache_line_bytes
        stream_total = stream_cycles \
            + (writeback_bytes + miss_bytes) / self.config.bytes_per_cycle
        total = max(stream_total, compute_cycles) + fills + exposed
        report = self._make_report(
            "spmm", total, 0.0, fills, exposed, fcu, rcu, mem,
            {"gemv": compute_cycles},
            extra_stream_bytes=writeback_bytes + miss_bytes,
        )
        report.useful_bytes *= 1.0  # matrix streamed once regardless of k
        if tb is not None:
            tb.finish(report, gap_name="stream_wait", args={
                "extra_stream_bytes": writeback_bytes + miss_bytes})
        return y, report

    def run_sptrsv(self, b: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """Sparse lower-triangular solve ``(L + D) x = b``.

        A forward Gauss-Seidel sweep from a zero initial iterate *is*
        SpTRSV on the matrix's lower triangle — the accelerator gets the
        standard kernel for free from its D-SymGS path.  (Upper-triangle
        entries of the programmed matrix are multiplied by the zero
        iterate and vanish.)
        """
        self._require_kernel(KernelType.SYMGS)
        b = np.asarray(b, dtype=np.float64)
        x, report = self.run_symgs_sweep(b, np.zeros(self.n))
        report.kernel = "sptrsv"
        return x, report

    def run_spmv(self, x: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """SpMV over the programmed matrix: ``y = A @ x``."""
        self._require_kernel(KernelType.SPMV)
        x = np.asarray(x, dtype=np.float64)
        if self.config.use_plan:
            return self._run_plan_checked(
                "spmv", lambda plan: plan.run_spmv(self, x),
                lambda: self._legacy_run_spmv(x))
        return self._legacy_run_spmv(x)

    def run_spmv_batch(self, x: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """Batched multi-RHS SpMV: plan-accelerated :meth:`run_spmm`.

        Semantics and accounting are exactly :meth:`run_spmm` — the
        programmed payload streams from memory *once* for all ``k``
        operand columns (``dram_requests`` does not grow with ``k``;
        FCU work does) — but the hot loop runs on the compiled plan
        with per-width report templates.  Column ``j`` of the result is
        bit-identical to ``run_spmv(x[:, j])`` served alone, which is
        what lets the serving runtime fuse jobs without changing their
        answers.  A 1-D operand is treated as one column.
        """
        self._require_kernel(KernelType.SPMV)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if self.config.use_plan:
            return self._run_plan_checked(
                "spmv", lambda plan: plan.run_spmv_batch(self, x),
                lambda: self.run_spmm(x))
        return self.run_spmm(x)

    def _legacy_run_spmv(self, x: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """Per-block interpreter for SpMV (the plan-equivalence oracle)."""
        return self._run_streaming_pass(
            kernel_name="spmv",
            operand_vectors={"x": np.asarray(x, dtype=np.float64)},
            block_fn=lambda fcu, rcu, op, values, chunks: gemv_block(
                fcu, values, chunks["x"], op.reversed_cols
            ),
            row_init=lambda w: np.zeros(w),
            row_accumulate=lambda acc, part: acc + part,
            assign=lambda rcu, prev_chunk, acc, valid: acc[:valid],
            reduce_op="sum",
            output_init=np.zeros(self.n),
        )

    def run_bfs_pass(self, dist: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """One synchronous D-BFS relaxation pass over all blocks.

        ``dist`` holds current level distances (inf = unreached); the
        returned vector applies ``min(dist, min-plus candidates)``.
        """
        self._require_kernel(KernelType.BFS)
        dist = np.asarray(dist, dtype=np.float64)
        if self.config.use_plan:
            return self._run_plan_checked(
                "bfs", lambda plan: plan.run_minplus(self, dist),
                lambda: self._legacy_run_bfs_pass(dist))
        return self._legacy_run_bfs_pass(dist)

    def _legacy_run_bfs_pass(self, dist: np.ndarray
                             ) -> Tuple[np.ndarray, SimReport]:
        """Per-block interpreter for D-BFS (the plan-equivalence oracle)."""
        return self._run_streaming_pass(
            kernel_name="bfs",
            operand_vectors={"dist": dist},
            block_fn=lambda fcu, rcu, op, values, chunks: dbfs_block(
                fcu, values, chunks["dist"]
            ),
            row_init=lambda w: np.full(w, np.inf),
            row_accumulate=np.minimum,
            assign=self._assign_min,
            reduce_op="min",
            output_init=dist.copy(),
        )

    def run_bfs_pass_parents(
        self, dist: np.ndarray, parent: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, SimReport]:
        """One D-BFS pass that also tracks predecessors (Graph500 style).

        The min tree carries a lane tag beside each value, so the
        winning predecessor of every improved vertex comes out of the
        same reduction at no extra stream cost.  Returns
        ``(new_dist, new_parent, report)``.
        """
        self._require_kernel(KernelType.BFS)
        dist = np.asarray(dist, dtype=np.float64)
        parent = np.asarray(parent, dtype=np.int64)
        if self.config.use_plan:
            return self._run_plan_checked(
                "bfs-parents",
                lambda plan: plan.run_parents(self, dist, parent),
                lambda: self._legacy_run_bfs_pass_parents(dist, parent))
        return self._legacy_run_bfs_pass_parents(dist, parent)

    def _legacy_run_bfs_pass_parents(
        self, dist: np.ndarray, parent: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, SimReport]:
        """Per-block interpreter for parent-tracking D-BFS (the
        plan-equivalence oracle)."""
        n, w = self.n, self.config.omega
        if dist.shape != (n,) or parent.shape != (n,):
            raise SimulationError(f"operands must have shape ({n},)")
        fcu = self.config.make_fcu()
        rcu = self.config.make_rcu()
        mem = self.config.make_memory()
        timing = self.config.timing()
        tracer = self.tracer
        mem.tracer = tracer
        tb = (PassTraceBuilder(tracer, "bfs-parents")
              if tracer is not None else None)
        rcu.load_operand("dist", dist)

        new_dist = dist.copy()
        new_parent = parent.copy()
        stream_cycles = 0.0
        compute_cycles = 0.0
        fills = 0.0
        exposed = 0.0
        prev_dp: Optional[DataPathType] = None
        spb = timing.stream_cycles_per_block()

        for group in self.image.rows:
            if not group.streaming:
                continue
            start = group.block_row * w
            valid = max(0, min(w, n - start))
            best = np.full(w, np.inf)
            best_parent = np.full(w, -1, dtype=np.int64)
            for op in group.streaming:
                if prev_dp is not op.dp:
                    drain = (timing.drain(prev_dp) if prev_dp
                             else rcu.config.reconfig_cycles)
                    step_exposed = rcu.reconfigure(op.dp, drain)
                    exposed += step_exposed
                    fill = timing.pipeline_fill(op.dp)
                    fills += fill
                    if tb is not None:
                        tb.switch(op.dp.value,
                                  prev_dp.value if prev_dp else None,
                                  drain, rcu.config.reconfig_cycles,
                                  step_exposed,
                                  rcu.config.hide_under_drain, fill)
                    prev_dp = op.dp
                values, fault_extra = self._stream_op(mem, op)
                stream_cycles += spb + fault_extra
                cpb = timing.compute_cycles_per_block(op.dp)
                compute_cycles += cpb
                if tb is not None:
                    tb.block(cpb, spb + fault_extra)
                chunk = rcu.read_chunk("dist", op.inx_in, w)
                cand, lanes = dbfs_block(fcu, values, chunk,
                                         with_argmin=True)
                improved = cand < best
                best = np.where(improved, cand, best)
                global_src = op.inx_in + lanes
                best_parent = np.where(improved & (lanes >= 0),
                                       global_src, best_parent)
            take = best[:valid] < new_dist[start:start + valid]
            rcu.counters.add("pe_op", float(valid))  # compare & update
            new_dist[start:start + valid] = np.where(
                take, best[:valid], new_dist[start:start + valid])
            new_parent[start:start + valid] = np.where(
                take, best_parent[:valid],
                new_parent[start:start + valid])
            if valid:
                rcu.cache.write("out", start, valid)
                rcu.counters.add("cache_busy_cycles", 1.0)

        writeback_bytes = float(n * 12)  # distance + parent tag
        miss_bytes = rcu.cache.counters.get("cache_misses") \
            * self.config.cache_line_bytes
        stream_total = stream_cycles \
            + (writeback_bytes + miss_bytes) / self.config.bytes_per_cycle
        total = max(stream_total, compute_cycles) + fills + exposed
        report = self._make_report(
            "bfs-parents", total, 0.0, fills, exposed, fcu, rcu, mem,
            {"d-bfs": compute_cycles},
            extra_stream_bytes=writeback_bytes + miss_bytes,
        )
        if tb is not None:
            tb.finish(report, gap_name="stream_wait", args={
                "extra_stream_bytes": writeback_bytes + miss_bytes})
        return new_dist, new_parent, report

    def run_sssp_pass(self, dist: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """One synchronous D-SSSP relaxation pass (weighted min-plus)."""
        self._require_kernel(KernelType.SSSP)
        dist = np.asarray(dist, dtype=np.float64)
        if self.config.use_plan:
            return self._run_plan_checked(
                "sssp", lambda plan: plan.run_minplus(self, dist),
                lambda: self._legacy_run_sssp_pass(dist))
        return self._legacy_run_sssp_pass(dist)

    def _legacy_run_sssp_pass(self, dist: np.ndarray
                              ) -> Tuple[np.ndarray, SimReport]:
        """Per-block interpreter for D-SSSP (the plan-equivalence oracle)."""
        return self._run_streaming_pass(
            kernel_name="sssp",
            operand_vectors={"dist": dist},
            block_fn=lambda fcu, rcu, op, values, chunks: dsssp_block(
                fcu, values, chunks["dist"]
            ),
            row_init=lambda w: np.full(w, np.inf),
            row_accumulate=np.minimum,
            assign=self._assign_min,
            reduce_op="min",
            output_init=dist.copy(),
        )

    def run_pr_pass(self, rank: np.ndarray,
                    outdeg: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """One D-PR pass: per-vertex sum of ``rank/outdeg`` over in-edges.

        Returns the raw contribution vector; the driver applies the
        damping update (phase 3 of Table 1) and its PE cost is charged
        here (two PE ops per updated element).
        """
        self._require_kernel(KernelType.PAGERANK)
        rank = np.asarray(rank, dtype=np.float64)
        outdeg = np.asarray(outdeg, dtype=np.float64)
        if self.config.use_plan:
            return self._run_plan_checked(
                "pagerank",
                lambda plan: plan.run_pagerank(self, rank, outdeg),
                lambda: self._legacy_run_pr_pass(rank, outdeg))
        return self._legacy_run_pr_pass(rank, outdeg)

    def _legacy_run_pr_pass(self, rank: np.ndarray, outdeg: np.ndarray
                            ) -> Tuple[np.ndarray, SimReport]:
        """Per-block interpreter for D-PR (the plan-equivalence oracle)."""

        def block_fn(fcu, rcu, op, values, chunks):
            return dpr_block(fcu, rcu, values, chunks["rank"],
                             chunks["outdeg"])

        def assign(rcu, prev_chunk, acc, valid):
            rcu.counters.add("pe_op", 2.0 * valid)  # damping mul + add
            return acc[:valid]

        return self._run_streaming_pass(
            kernel_name="pagerank",
            operand_vectors={"rank": rank, "outdeg": outdeg},
            block_fn=block_fn,
            row_init=lambda w: np.zeros(w),
            row_accumulate=lambda acc, part: acc + part,
            assign=assign,
            reduce_op="sum",
            output_init=np.zeros(self.n),
        )

    def run_symgs_sweep(self, b: np.ndarray,
                        x_prev: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """One forward SymGS sweep via the GEMV + D-SymGS decomposition."""
        self._require_kernel(KernelType.SYMGS)
        b = np.asarray(b, dtype=np.float64)
        x_prev = np.asarray(x_prev, dtype=np.float64)
        if self.config.use_plan:
            return self._run_plan_checked(
                "symgs", lambda plan: plan.run(self, b, x_prev),
                lambda: self._legacy_run_symgs_sweep(b, x_prev))
        return self._legacy_run_symgs_sweep(b, x_prev)

    def run_symgs_batch(self, b: np.ndarray, x_prev: np.ndarray
                        ) -> Tuple[np.ndarray, SimReport]:
        """Batched multi-RHS forward SymGS sweeps over one payload.

        ``b`` and ``x_prev`` are ``(n, k)`` panels (1-D operands are
        treated as one column); column ``j`` of the result is
        bit-identical to ``run_symgs_sweep(b[:, j], x_prev[:, j])``
        served alone.  The programmed payload — GEMV blocks and
        diagonal blocks — streams once per batch and is applied to all
        ``k`` recurrences while resident; GEMV and D-SymGS compute
        scale with ``k``.
        """
        self._require_kernel(KernelType.SYMGS)
        b = np.asarray(b, dtype=np.float64)
        x_prev = np.asarray(x_prev, dtype=np.float64)
        if b.ndim == 1:
            b = b[:, None]
        if x_prev.ndim == 1:
            x_prev = x_prev[:, None]
        if self.config.use_plan:
            return self._run_plan_checked(
                "symgs", lambda plan: plan.run_batch(self, b, x_prev),
                lambda: self._legacy_run_symgs_batch(b, x_prev))
        return self._legacy_run_symgs_batch(b, x_prev)

    def _legacy_run_symgs_sweep(self, b: np.ndarray, x_prev: np.ndarray
                                ) -> Tuple[np.ndarray, SimReport]:
        """Per-block interpreter for the SymGS sweep (the
        plan-equivalence oracle)."""
        n, w = self.n, self.config.omega
        if b.shape != (n,) or x_prev.shape != (n,):
            raise SimulationError(
                f"operand vectors must have shape ({n},)"
            )
        diag = self.conversion.matrix.diagonal
        if diag is None:
            raise SimulationError("programmed matrix lacks SymGS layout")

        fcu = self.config.make_fcu()
        rcu = self.config.make_rcu()
        mem = self.config.make_memory()
        timing = self.config.timing()
        tracer = self.tracer
        mem.tracer = tracer
        tb = (PassTraceBuilder(tracer, "symgs")
              if tracer is not None else None)

        rcu.load_operand("x_prev", x_prev)
        rcu.load_operand("x_curr", x_prev.copy())
        rcu.load_operand("b", b)
        rcu.load_operand("diag", diag)

        stream_cycles = 0.0
        chain_cycles = 0.0
        seq_cycles = 0.0
        fills = 0.0
        exposed = 0.0
        dp_cycles: Dict[str, float] = {}
        prev_dp: Optional[DataPathType] = None
        spb = timing.stream_cycles_per_block()

        for group in self.image.rows:
            row_stream = 0.0
            row_gemv_compute = 0.0
            # Data-path switches of this row, recorded as they are
            # charged and laid onto the trace only once the row's
            # windows are measured (the GEMV window's width — and hence
            # the drain anchor — depends on the whole row's stream).
            trans_gemv: List[Tuple[str, Optional[str], float, float, float]] = []
            trans_diag: List[Tuple[str, Optional[str], float, float, float]] = []
            ablation_penalty = 0.0
            for op in group.streaming:
                if prev_dp is not op.dp:
                    drain = (timing.drain(prev_dp) if prev_dp
                             else rcu.config.reconfig_cycles)
                    step_exposed = rcu.reconfigure(op.dp, drain)
                    exposed += step_exposed
                    fill = timing.pipeline_fill(op.dp)
                    fills += fill
                    if tb is not None:
                        trans_gemv.append((
                            op.dp.value,
                            prev_dp.value if prev_dp else None,
                            drain, step_exposed, fill))
                    prev_dp = op.dp
                values, fault_extra = self._stream_op(mem, op)
                row_stream += spb + fault_extra
                row_gemv_compute += timing.compute_cycles_per_block(op.dp)
                space = ("x_curr" if op.port is OperandPort.PORT1
                         else "x_prev")
                chunk = rcu.read_chunk(space, op.inx_in, w)
                partial = gemv_block(fcu, values, chunk, op.reversed_cols)
                rcu.link.push(partial)
                dp_cycles["gemv"] = dp_cycles.get("gemv", 0.0) \
                    + timing.compute_cycles_per_block(op.dp)
            dsymgs_compute = 0.0
            if group.diagonal is not None:
                op = group.diagonal
                if prev_dp is not op.dp:
                    drain = (timing.drain(prev_dp) if prev_dp
                             else rcu.config.reconfig_cycles)
                    step_exposed = rcu.reconfigure(op.dp, drain)
                    exposed += step_exposed
                    fill = timing.pipeline_fill(op.dp)
                    fills += fill
                    if tb is not None:
                        trans_diag.append((
                            op.dp.value,
                            prev_dp.value if prev_dp else None,
                            drain, step_exposed, fill))
                    prev_dp = op.dp
                values, fault_extra = self._stream_op(mem, op)
                row_stream += spb + fault_extra
                if not self.conversion.reordered and group.streaming:
                    # Ablation: without §4.1's reordering the diagonal
                    # block streamed past mid-row, before this row's
                    # trailing GEMV partials existed; it is re-fetched
                    # now, and the mid-row D-SymGS visit cost two extra
                    # data-path toggles.
                    mem.stream_cycles(w * w * self.config.element_bytes)
                    row_stream += spb
                    extra = (0.0 if rcu.config.hide_under_drain
                             else 2.0 * rcu.config.reconfig_cycles)
                    rcu.counters.add("switch_toggle", 2.0)
                    rcu.counters.add("config_write", 2.0)
                    rcu.counters.add("reconfig_exposed_cycles", extra)
                    exposed += extra
                    ablation_fills = timing.pipeline_fill(op.dp) \
                        + timing.pipeline_fill(DataPathType.GEMV)
                    fills += ablation_fills
                    ablation_penalty = extra + ablation_fills
                start = op.block_row * w
                valid = max(0, min(w, n - start))
                acc = np.zeros(w, dtype=np.float64)
                while not rcu.link.empty:
                    acc += rcu.link.pop()
                b_chunk = rcu.read_chunk("b", start, w)
                d_chunk = rcu.read_chunk("diag", start, w)
                x_old = rcu.read_chunk("x_prev", start, w)
                x_new = dsymgs_block(fcu, rcu, values, d_chunk, b_chunk,
                                     x_old, acc, valid)
                rcu.write_chunk("x_curr", start, x_new[:valid])
                dsymgs_compute = timing.compute_cycles_per_block(op.dp)
                dp_cycles["d-symgs"] = dp_cycles.get("d-symgs", 0.0) \
                    + dsymgs_compute
            row_cycles = max(row_stream, row_gemv_compute) + dsymgs_compute
            chain_cycles += row_cycles
            stream_cycles += row_stream
            seq_cycles += dsymgs_compute
            if tb is not None:
                self._trace_symgs_row(
                    tb, rcu, group, trans_gemv, trans_diag,
                    row_stream, row_gemv_compute, dsymgs_compute,
                    ablation_penalty)

        # Cache refills contend for the memory channel.
        miss_bytes = rcu.cache.counters.get("cache_misses") \
            * self.config.cache_line_bytes
        total = chain_cycles + fills + exposed \
            + miss_bytes / self.config.bytes_per_cycle
        result = rcu.operand("x_curr").copy()
        report = self._make_report(
            "symgs", total, seq_cycles, fills, exposed, fcu, rcu, mem,
            dp_cycles, extra_stream_bytes=miss_bytes,
        )
        if tb is not None:
            tb.finish(report, gap_name="cache_refill",
                      args={"extra_stream_bytes": miss_bytes})
        return result, report

    def _legacy_run_symgs_batch(self, b: np.ndarray, x_prev: np.ndarray
                                ) -> Tuple[np.ndarray, SimReport]:
        """Per-block interpreter for batched SymGS sweeps (the batch
        plan's template/equivalence oracle).

        The SymGS analogue of :meth:`run_spmm`: each payload block —
        GEMV entries, then the row's diagonal — is streamed *once* and
        applied to every operand column while resident, so the stream
        term of a row is unchanged from one sweep while GEMV and
        D-SymGS compute scale with ``k``.  Each column advances its own
        ``x_curr`` recurrence; partials cross the RCU link stack per
        column exactly as in the single sweep, so per-column results
        are bit-identical to :meth:`_legacy_run_symgs_sweep`.
        """
        n, w = self.n, self.config.omega
        if (b.ndim != 2 or b.shape[0] != n or b.shape[1] < 1
                or x_prev.shape != b.shape):
            raise SimulationError(
                f"operand panels must be ({n}, k>=1) and equal-shaped, "
                f"got {b.shape} and {x_prev.shape}"
            )
        k = b.shape[1]
        diag = self.conversion.matrix.diagonal
        if diag is None:
            raise SimulationError("programmed matrix lacks SymGS layout")

        fcu = self.config.make_fcu()
        rcu = self.config.make_rcu()
        mem = self.config.make_memory()
        timing = self.config.timing()
        tracer = self.tracer
        mem.tracer = tracer
        tb = (PassTraceBuilder(tracer, "symgs-batch")
              if tracer is not None else None)

        for col in range(k):
            rcu.load_operand(f"x_prev{col}", x_prev[:, col])
            rcu.load_operand(f"x_curr{col}", x_prev[:, col].copy())
            rcu.load_operand(f"b{col}", b[:, col])
        rcu.load_operand("diag", diag)

        stream_cycles = 0.0
        chain_cycles = 0.0
        seq_cycles = 0.0
        fills = 0.0
        exposed = 0.0
        dp_cycles: Dict[str, float] = {}
        prev_dp: Optional[DataPathType] = None
        spb = timing.stream_cycles_per_block()
        # Per-column pending partials, in push order.  The physical
        # link stack is one LIFO; the batch engine tags partials per
        # column, each crossing the link once as in the single sweep.
        partials: List[List[np.ndarray]] = [[] for _ in range(k)]

        for group in self.image.rows:
            row_stream = 0.0
            row_gemv_compute = 0.0
            trans_gemv: List[Tuple[str, Optional[str], float, float, float]] = []
            trans_diag: List[Tuple[str, Optional[str], float, float, float]] = []
            ablation_penalty = 0.0
            for op in group.streaming:
                if prev_dp is not op.dp:
                    drain = (timing.drain(prev_dp) if prev_dp
                             else rcu.config.reconfig_cycles)
                    step_exposed = rcu.reconfigure(op.dp, drain)
                    exposed += step_exposed
                    fill = timing.pipeline_fill(op.dp)
                    fills += fill
                    if tb is not None:
                        trans_gemv.append((
                            op.dp.value,
                            prev_dp.value if prev_dp else None,
                            drain, step_exposed, fill))
                    prev_dp = op.dp
                values, fault_extra = self._stream_op(mem, op)
                row_stream += spb + fault_extra
                block_compute = k * timing.compute_cycles_per_block(op.dp)
                row_gemv_compute += block_compute
                dp_cycles["gemv"] = dp_cycles.get("gemv", 0.0) \
                    + block_compute
                space = ("x_curr" if op.port is OperandPort.PORT1
                         else "x_prev")
                for col in range(k):
                    chunk = rcu.read_chunk(f"{space}{col}", op.inx_in, w)
                    partial = gemv_block(fcu, values, chunk,
                                         op.reversed_cols)
                    rcu.link.push(partial)
                    partials[col].append(rcu.link.pop())
            dsymgs_compute = 0.0
            if group.diagonal is not None:
                op = group.diagonal
                if prev_dp is not op.dp:
                    drain = (timing.drain(prev_dp) if prev_dp
                             else rcu.config.reconfig_cycles)
                    step_exposed = rcu.reconfigure(op.dp, drain)
                    exposed += step_exposed
                    fill = timing.pipeline_fill(op.dp)
                    fills += fill
                    if tb is not None:
                        trans_diag.append((
                            op.dp.value,
                            prev_dp.value if prev_dp else None,
                            drain, step_exposed, fill))
                    prev_dp = op.dp
                values, fault_extra = self._stream_op(mem, op)
                row_stream += spb + fault_extra
                if not self.conversion.reordered and group.streaming:
                    # Same ablation refetch as the single sweep —
                    # charged once per batch, like the payload itself.
                    mem.stream_cycles(w * w * self.config.element_bytes)
                    row_stream += spb
                    extra = (0.0 if rcu.config.hide_under_drain
                             else 2.0 * rcu.config.reconfig_cycles)
                    rcu.counters.add("switch_toggle", 2.0)
                    rcu.counters.add("config_write", 2.0)
                    rcu.counters.add("reconfig_exposed_cycles", extra)
                    exposed += extra
                    ablation_fills = timing.pipeline_fill(op.dp) \
                        + timing.pipeline_fill(DataPathType.GEMV)
                    fills += ablation_fills
                    ablation_penalty = extra + ablation_fills
                start = op.block_row * w
                valid = max(0, min(w, n - start))
                d_chunk = rcu.read_chunk("diag", start, w)
                for col in range(k):
                    acc = np.zeros(w, dtype=np.float64)
                    for partial in reversed(partials[col]):
                        acc += partial
                    partials[col].clear()
                    b_chunk = rcu.read_chunk(f"b{col}", start, w)
                    x_old = rcu.read_chunk(f"x_prev{col}", start, w)
                    x_new = dsymgs_block(fcu, rcu, values, d_chunk,
                                         b_chunk, x_old, acc, valid)
                    rcu.write_chunk(f"x_curr{col}", start, x_new[:valid])
                dsymgs_compute = k * timing.compute_cycles_per_block(op.dp)
                dp_cycles["d-symgs"] = dp_cycles.get("d-symgs", 0.0) \
                    + dsymgs_compute
            row_cycles = max(row_stream, row_gemv_compute) + dsymgs_compute
            chain_cycles += row_cycles
            stream_cycles += row_stream
            seq_cycles += dsymgs_compute
            if tb is not None:
                self._trace_symgs_row(
                    tb, rcu, group, trans_gemv, trans_diag,
                    row_stream, row_gemv_compute, dsymgs_compute,
                    ablation_penalty)

        miss_bytes = rcu.cache.counters.get("cache_misses") \
            * self.config.cache_line_bytes
        total = chain_cycles + fills + exposed \
            + miss_bytes / self.config.bytes_per_cycle
        result = np.stack(
            [rcu.operand(f"x_curr{col}") for col in range(k)], axis=1)
        report = self._make_report(
            "symgs-batch", total, seq_cycles, fills, exposed, fcu, rcu,
            mem, dp_cycles, extra_stream_bytes=miss_bytes,
        )
        if tb is not None:
            tb.finish(report, gap_name="cache_refill",
                      args={"extra_stream_bytes": miss_bytes})
        return result, report

    @staticmethod
    def _trace_symgs_row(tb: PassTraceBuilder,
                         rcu: ReconfigurableComputeUnit, group: _RowGroup,
                         trans_gemv, trans_diag, row_stream: float,
                         row_gemv_compute: float, dsymgs_compute: float,
                         ablation_penalty: float) -> None:
        """Lay one measured SymGS block-row onto the engine timeline.

        The GEMV window is ``max(row stream, row GEMV compute)`` — the
        FIFO overlap of the row's stream with its partial-sum GEMVs —
        and the D-SymGS window follows it, exactly the per-row term of
        the pass cost model.  Switch spans recorded during the row
        anchor at the window boundaries: the drain of the retiring path
        occupies the window's tail with the reconfig span inside it
        (or after it, exposed, under the hiding ablation).
        """
        reconfig = rcu.config.reconfig_cycles
        hidden = rcu.config.hide_under_drain
        tb.row_begin(group.block_row)
        for dpv, prevv, drain, step_exposed, fill in trans_gemv:
            if prevv is None:
                tb.configure(dpv)
            else:
                tb.reconfigure(dpv, prevv, drain, reconfig, step_exposed,
                               hidden)
            tb.fill(dpv, fill)
        gemv_window = max(row_stream, row_gemv_compute)
        if group.streaming:
            tb.window("gemv", gemv_window, args={
                "row": group.block_row,
                "compute_cycles": row_gemv_compute,
                "stream_cycles": row_stream,
            })
        elif gemv_window > 0.0:
            # A row with only a diagonal block still waits for its
            # stream; no GEMV ran, so no window is drawn.
            tb.advance(gemv_window)
        for dpv, prevv, drain, step_exposed, fill in trans_diag:
            if prevv is None:
                tb.configure(dpv)
            else:
                tb.reconfigure(dpv, prevv, drain, reconfig, step_exposed,
                               hidden)
            tb.fill(dpv, fill)
        if ablation_penalty > 0.0:
            tb.advance(ablation_penalty)
        if group.diagonal is not None:
            tb.window("d-symgs", dsymgs_compute,
                      args={"row": group.block_row})
        tb.row_end()

    # ------------------------------------------------------------------
    # Shared streaming-pass machinery (SpMV, D-BFS, D-SSSP, D-PR)
    # ------------------------------------------------------------------
    def _run_streaming_pass(
        self,
        kernel_name: str,
        operand_vectors: Dict[str, np.ndarray],
        block_fn: Callable,
        row_init: Callable[[int], np.ndarray],
        row_accumulate: Callable,
        assign: Callable,
        reduce_op: str,
        output_init: np.ndarray,
    ) -> Tuple[np.ndarray, SimReport]:
        n, w = self.n, self.config.omega
        for name, vec in operand_vectors.items():
            if vec.shape != (n,):
                raise SimulationError(
                    f"operand {name!r} must have shape ({n},), "
                    f"got {vec.shape}"
                )
        fcu = self.config.make_fcu()
        rcu = self.config.make_rcu()
        mem = self.config.make_memory()
        timing = self.config.timing()
        tracer = self.tracer
        mem.tracer = tracer
        tb = (PassTraceBuilder(tracer, kernel_name)
              if tracer is not None else None)
        for name, vec in operand_vectors.items():
            rcu.load_operand(name, vec)

        output = np.asarray(output_init, dtype=np.float64).copy()
        stream_cycles = 0.0
        compute_cycles = 0.0
        fills = 0.0
        exposed = 0.0
        dp_cycles: Dict[str, float] = {}
        prev_dp: Optional[DataPathType] = None
        spb = timing.stream_cycles_per_block()

        for group in self.image.rows:
            if not group.streaming:
                continue
            acc = row_init(w)
            start = group.block_row * w
            valid = max(0, min(w, n - start))
            for op in group.streaming:
                if prev_dp is not op.dp:
                    drain = (timing.drain(prev_dp) if prev_dp
                             else rcu.config.reconfig_cycles)
                    step_exposed = rcu.reconfigure(op.dp, drain)
                    exposed += step_exposed
                    fill = timing.pipeline_fill(op.dp)
                    fills += fill
                    if tb is not None:
                        tb.switch(op.dp.value,
                                  prev_dp.value if prev_dp else None,
                                  drain, rcu.config.reconfig_cycles,
                                  step_exposed,
                                  rcu.config.hide_under_drain, fill)
                    prev_dp = op.dp
                values, fault_extra = self._stream_op(mem, op)
                stream_cycles += spb + fault_extra
                cpb = timing.compute_cycles_per_block(op.dp)
                compute_cycles += cpb
                dp_cycles[op.dp.value] = dp_cycles.get(op.dp.value, 0.0) + cpb
                if tb is not None:
                    tb.block(cpb, spb + fault_extra)
                chunks = {
                    name: rcu.read_chunk(name, op.inx_in, w)
                    for name in operand_vectors
                }
                partial = block_fn(fcu, rcu, op, values, chunks)
                acc = row_accumulate(acc, partial)
            prev_chunk = output[start:start + valid]
            output[start:start + valid] = assign(rcu, prev_chunk, acc, valid)
            if valid:
                rcu.cache.write("out", start, valid)
                rcu.counters.add("cache_busy_cycles", 1.0)

        # Output write-back and cache refills share the memory channel.
        writeback_bytes = float(n * 8)
        miss_bytes = rcu.cache.counters.get("cache_misses") \
            * self.config.cache_line_bytes
        stream_total = stream_cycles \
            + (writeback_bytes + miss_bytes) / self.config.bytes_per_cycle
        total = max(stream_total, compute_cycles) + fills + exposed
        report = self._make_report(
            kernel_name, total, 0.0, fills, exposed, fcu, rcu, mem,
            dp_cycles, extra_stream_bytes=writeback_bytes + miss_bytes,
        )
        if tb is not None:
            tb.finish(report, gap_name="stream_wait", args={
                "extra_stream_bytes": writeback_bytes + miss_bytes})
        return output, report

    @staticmethod
    def _assign_min(rcu: ReconfigurableComputeUnit, prev_chunk: np.ndarray,
                    acc: np.ndarray, valid: int) -> np.ndarray:
        """Phase-3 'compare and update' of BFS/SSSP (one PE cmp each)."""
        rcu.counters.add("pe_op", float(valid))
        return np.minimum(prev_chunk, acc[:valid])

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _require_kernel(self, kernel: KernelType) -> None:
        if self.conversion.kernel is not kernel:
            raise SimulationError(
                f"accelerator programmed for {self.conversion.kernel}, "
                f"asked to run {kernel}"
            )

    def _make_report(self, kernel_name: str, total_cycles: float,
                     seq_cycles: float, fills: float, exposed: float,
                     fcu: FixedComputeUnit,
                     rcu: ReconfigurableComputeUnit,
                     mem: StreamingMemory,
                     dp_cycles: Dict[str, float],
                     extra_stream_bytes: float = 0.0) -> SimReport:
        counters = fcu.counters + rcu.counters
        counters.merge(rcu.cache.counters)
        counters.merge(rcu.link.counters)
        counters.merge(rcu.fifo_a.counters)
        counters.merge(rcu.fifo_b.counters)
        counters.merge(mem.counters)
        counters.add("dram_bytes", extra_stream_bytes)
        seconds = total_cycles / self.config.frequency_hz
        energy = self.config.energy_model.energy_j(counters, seconds)
        report = SimReport(
            kernel=kernel_name,
            cycles=total_cycles,
            frequency_hz=self.config.frequency_hz,
            useful_bytes=float(self.conversion.bcsr.nnz
                               * self.config.element_bytes),
            streamed_bytes=mem.total_bytes + extra_stream_bytes,
            sequential_cycles=seq_cycles,
            cache_busy_cycles=rcu.cache_busy_cycles,
            exposed_reconfig_cycles=exposed,
            n_entries=len(self.table),
            n_switches=self.image.table_order_switches,
            counters=counters,
            energy_j=energy,
            datapath_cycles=dp_cycles,
            bytes_per_cycle=self.config.bytes_per_cycle,
        )
        return report
