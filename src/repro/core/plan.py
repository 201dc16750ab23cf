"""Compiled per-pass execution plans: the accelerator hot loop, batched.

The interpreter in :mod:`repro.core.accelerator` walks the programmed
configuration table block by block, touching the cache model, the event
counters and the memory model once per ω×ω block.  That is faithful to
the paper's narrative but wall-clock dominated by Python overhead — the
opposite of the streaming design point ALRESCHA argues for.  This module
lowers a programmed pass *once* into batched numpy arrays and replays it
with a handful of vectorized calls.

What is lowered (per pass kind)
-------------------------------
* the ω×ω blocks of every streaming-class table entry, stacked into one
  ``[m, ω, ω]`` tensor in execution order;
* gather indices ``[m, ω]`` resolving each entry's operand chunk
  (``inx_in`` plus lane, column-reversed for upper-triangle blocks) into
  a zero-padded operand vector — the plan analogue of the RCU's
  zero-filling :meth:`~repro.core.rcu.ReconfigurableComputeUnit.read_chunk`;
* per-block stream/compute cycle vectors (:class:`PassArtifacts`);
* per-block-row segment boundaries, which both scatter the row outputs
  and, for SymGS, sequence the GEMV → D-SymGS dependency.

Why timing stays identical
--------------------------
Every quantity in a :class:`~repro.core.report.SimReport` — cycles,
counters, energy, bytes — depends only on the block structure fixed at
``program()`` time, never on operand *values* (block nnz decides ALU/RE
activity, the table decides cache/stack/memory traffic).  Compilation
therefore replays the legacy interpreter once with neutral (zero)
operands and captures its report as a template; each plan run returns a
:meth:`~repro.core.report.SimReport.clone` of it.  This makes report
identity hold by construction — including the sequence-dependent LRU
cache counters — and the functional results are computed with
operation-for-operation identical expressions, so kernel outputs are
bit-identical too (property-tested against the legacy path).

Compilation cross-checks the lowered artifacts against the captured
template (compute-cycle totals, memory request counts) and refuses to
produce a plan that disagrees with the interpreter.

A plan belongs to a :class:`~repro.core.accelerator.ProgrammedImage`
and is shared by every accelerator bound to that image, so it holds no
accelerator: each run takes the running accelerator (``acc``), whose
config carries the fault model, tracer and cross-check knobs, and whose
state carries forced verification.  Every array a plan holds is
read-only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.core.config import DataPathType, KernelType, OperandPort
from repro.core.report import SimReport
from repro.observe.tracer import Span, Tracer
from repro.sim.faults import charge_event

#: Pass kinds served by :class:`CompiledStreamingPass` (independent
#: block rows; one batched gather/compute/scatter per pass).
STREAMING_KINDS = ("spmv", "bfs", "bfs-parents", "sssp", "pagerank")

#: All pass kinds the compiler understands.
PLAN_KINDS = STREAMING_KINDS + ("symgs",)


@dataclass(frozen=True)
class PassArtifacts:
    """Lowered per-block vectors and segment boundaries of one pass.

    These are the honest compile outputs (beyond the stacked blocks and
    the report template): per-block stream and compute cycle vectors in
    execution order, the block-row segmentation, and the one-shot
    payload accounting for the whole stream.
    """

    #: Memory-side cycles per streamed block, execution order.
    stream_cycles_per_block: np.ndarray
    #: Engine-side cycles per block, execution order.
    compute_cycles_per_block: np.ndarray
    #: Offset of each block row's first block in the stacked tensors.
    seg_start: np.ndarray
    #: Number of streaming blocks per block row.
    seg_len: np.ndarray
    #: Block-row index of each segment (scatter target).
    out_rows: np.ndarray
    #: Cycles to stream the whole payload as one contiguous block run
    #: (:meth:`~repro.sim.memory.StreamingMemory.stream_block_run`).
    payload_stream_cycles: float

    def __post_init__(self) -> None:
        _freeze(self.stream_cycles_per_block, self.compute_cycles_per_block,
                self.seg_start, self.seg_len, self.out_rows)


def _freeze(*arrays: np.ndarray) -> None:
    """Mark arrays read-only: plans are shared across accelerators."""
    for arr in arrays:
        arr.flags.writeable = False


def _padded_length(n: int, omega: int) -> Tuple[int, int]:
    """(number of block rows, padded vector length) for size ``n``."""
    nbr = -(-n // omega)
    return nbr, nbr * omega


def _time_groups(seg_len: np.ndarray,
                 seg_start: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Precompute, for each within-row block position ``t``, the rows
    still live and the flat index of their ``t``-th block.

    Replaying these groups in order applies every row's partials in
    exactly the interpreter's per-row sequence (position 0 first), so
    floating-point accumulation order — and hence the bit pattern of the
    result — matches the legacy path.
    """
    groups: List[Tuple[np.ndarray, np.ndarray]] = []
    t = 0
    while True:
        live = np.nonzero(seg_len > t)[0]
        if live.size == 0:
            break
        groups.append((live, seg_start[live] + t))
        t += 1
    return groups


def _check_operand(name: str, vec: np.ndarray, n: int) -> None:
    if vec.shape != (n,):
        raise SimulationError(
            f"operand {name!r} must have shape ({n},), got {vec.shape}"
        )


def _apply_fault_events(report: SimReport, extra_cycles: float,
                        events, padded_block_bytes: float) -> None:
    """Annotate a cloned report template with one run's fault outcome.

    Mirrors the accounting :meth:`~repro.sim.memory.StreamingMemory.
    stream_payload_block` performs on the interpreter path, so the
    ``faults_*``/``retry_cycles`` counters and DRAM traffic reconcile
    with the injection log regardless of execution path.  A clean run
    (no events, no extra cycles) leaves the clone untouched.
    """
    if extra_cycles:
        report.cycles += extra_cycles
    for event in events:
        charge_event(report.counters, event)
        if event.restreams:
            nbytes = padded_block_bytes * event.restreams
            report.counters.add("dram_bytes", nbytes)
            report.counters.add("dram_requests", float(event.restreams))
            report.streamed_bytes += nbytes


def _replay_spans(acc, span_template: List[Span], extra_cycles: float,
                  events) -> None:
    """Replay a pass's captured span template onto the user's tracer.

    The span analogue of cloning the report template: pass timing
    depends only on block structure, so the spans captured at compile
    time are exact for every run — shifted to each track's current
    cursor.  Per-run fault recovery, which the template cannot know,
    is appended live: ``retry`` spans on the channel track, and the
    replayed pass span stretched by the recovered cycles so its
    duration still matches the (fault-adjusted) report.
    """
    tracer = acc.config.tracer
    if tracer is None or not span_template:
        return
    offsets = {}
    for span in span_template:
        if span.track not in offsets:
            offsets[span.track] = tracer.cursor(span.track)
    base = len(tracer.spans)
    tracer.replay(span_template, offsets)
    if extra_cycles > 0.0:
        for span in tracer.spans[base:]:
            if span.cat == "pass":
                tracer.stretch(span.span_id, extra_cycles)
    for event in events:
        if event.extra_cycles > 0.0:
            tracer.extend("channel", f"retry:{event.kind}", "retry",
                          event.extra_cycles,
                          {"restreams": float(event.restreams)},
                          coalesce=False)
        else:
            tracer.instant_event(f"fault:{event.kind}", "fault",
                                 tracer.cursor("channel"), "channel")


def _deliver_run(acc, payloads: Sequence[np.ndarray], checksums: List[int],
                 restream_cycles: float
                 ) -> Tuple[float, list, Dict[int, np.ndarray]]:
    """Push one pass's payload run through ``acc``'s fault channel.

    Returns ``(extra_cycles, events, replaced)`` as
    :meth:`~repro.sim.faults.FaultModel.deliver_run` does; with no fault
    model attached every block arrives pristine and nothing is drawn.
    Checksums are verified only when the binding asks for it (config or
    forced verification after a cross-check failure).
    """
    cfg = acc.config
    fm = cfg.fault_model
    if fm is None:
        return 0.0, [], {}
    verify = cfg.verify_checksums or acc._force_verify
    return fm.deliver_run(payloads, checksums if verify else None,
                          restream_cycles)


def _verify_against_template(kind: str, artifacts: PassArtifacts,
                             template: SimReport,
                             n_requests: int) -> None:
    """Refuse to emit a plan whose lowering disagrees with the
    interpreter's accounting."""
    compute_total = float(artifacts.compute_cycles_per_block.sum())
    template_compute = float(sum(template.datapath_cycles.values()))
    if not math.isclose(compute_total, template_compute,
                        rel_tol=1e-9, abs_tol=1e-6):
        raise SimulationError(
            f"{kind} plan lowering disagrees with the interpreter: "
            f"compute {compute_total} vs {template_compute} cycles"
        )
    template_requests = template.counters.get("dram_requests")
    if template_requests != float(n_requests):
        raise SimulationError(
            f"{kind} plan lowering disagrees with the interpreter: "
            f"{n_requests} block transfers vs {template_requests} "
            f"memory requests"
        )


class CompiledStreamingPass:
    """A compiled SpMV / D-BFS / D-SSSP / D-PR pass.

    Executes as: one gather of operand chunks, one batched block
    compute, a short live-row accumulation loop (longest block row many
    steps, each fully vectorized across rows), one scatter — then clones
    the report template.
    """

    def __init__(self, kind: str, n: int, omega: int,
                 blocks: np.ndarray, gather: np.ndarray,
                 src_base: np.ndarray, artifacts: PassArtifacts,
                 template: SimReport,
                 checksums: Optional[List[int]] = None,
                 restream_cycles: float = 0.0,
                 padded_block_bytes: float = 0.0,
                 span_template: Optional[List[Span]] = None) -> None:
        self.kind = kind
        self.n = n
        self.omega = omega
        self.nbr, self.npad = _padded_length(n, omega)
        self.blocks = blocks
        self.masks = (blocks != 0.0) if kind != "spmv" else None
        self.gather = gather
        self.src_base = src_base
        _freeze(blocks, gather, src_base)
        if self.masks is not None:
            _freeze(self.masks)
        self.artifacts = artifacts
        self.template = template
        #: Per-block payload CRCs in stacked order (``program()`` data).
        self.checksums = [int(c) for c in checksums or []]
        #: Channel cost of re-fetching one block, for pricing retries.
        self.restream_cycles = restream_cycles
        self.padded_block_bytes = padded_block_bytes
        #: Spans captured alongside the report template (empty when the
        #: owning accelerator had no tracer at compile time).
        self.span_template = span_template or []
        self._tgroups = _time_groups(artifacts.seg_len, artifacts.seg_start)
        self._n_rows = int(artifacts.out_rows.size)
        #: Per-width batch report templates, captured lazily from the
        #: legacy batch interpreter the first time each width runs.
        self._batch_templates: Dict[int, Tuple[SimReport, List[Span]]] = {}

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    def _gather_chunks(self, vec: np.ndarray) -> np.ndarray:
        """Zero-padded operand chunks per block, reversal applied."""
        pad = np.zeros(self.npad)
        pad[:self.n] = vec
        return pad[self.gather]

    def _accumulate_sum(self, partial: np.ndarray) -> np.ndarray:
        acc = np.zeros((self._n_rows, self.omega))
        for live, idx in self._tgroups:
            acc[live] += partial[idx]
        return acc

    def _accumulate_min(self, partial: np.ndarray) -> np.ndarray:
        acc = np.full((self._n_rows, self.omega), np.inf)
        for live, idx in self._tgroups:
            acc[live] = np.minimum(acc[live], partial[idx])
        return acc

    def _scatter_assign(self, acc: np.ndarray) -> np.ndarray:
        """Rows without blocks stay zero (the interpreter never writes
        them)."""
        out = np.zeros(self.npad)
        out.reshape(self.nbr, self.omega)[self.artifacts.out_rows] = acc
        return out[:self.n].copy()

    def _scatter_min(self, acc: np.ndarray, base: np.ndarray) -> np.ndarray:
        out = np.zeros(self.npad)
        out[:self.n] = base
        view = out.reshape(self.nbr, self.omega)
        rows = self.artifacts.out_rows
        view[rows] = np.minimum(view[rows], acc)
        return out[:self.n].copy()

    # ------------------------------------------------------------------
    # Resilience (all no-ops when no fault model is attached)
    # ------------------------------------------------------------------
    def _deliver(self, acc):
        """Stream the stacked blocks through ``acc``'s (possibly faulty)
        channel, in the interpreter's transfer order.

        Returns ``(blocks, masks, extra_cycles, events)``.  With no
        fault model these are the pristine compile-time arrays; a
        silent bitflip replaces the stacked tensor with a corrupted
        *copy* — the compile-time ``self.blocks`` stays pristine for
        cross-checking.
        """
        extra, events, replaced = _deliver_run(
            acc, self.blocks, self.checksums, self.restream_cycles)
        blocks, masks = self.blocks, self.masks
        if replaced:
            blocks = self.blocks.copy()
            for i, vals in replaced.items():
                blocks[i] = vals
            if self.kind != "spmv":
                masks = blocks != 0.0
        return blocks, masks, extra, events

    def _finish_report(self, acc, extra_cycles: float,
                       events) -> SimReport:
        report = self.template.clone()
        _apply_fault_events(report, extra_cycles, events,
                            self.padded_block_bytes)
        _replay_spans(acc, self.span_template, extra_cycles, events)
        return report

    def _crosscheck(self, acc, report: SimReport, out: np.ndarray,
                    reduce_kind: str, partial_fn) -> None:
        """Spot-validate sampled block rows of this run against a
        recompute from the pristine compile-time blocks.

        The recompute uses operation-for-operation identical numpy
        expressions, so on an uncorrupted run the comparison is
        bitwise-equal by construction — a mismatch means the delivered
        payload differed from the programmed payload (a silent fault
        that slipped past checksum verification).  Mismatch counts land
        in the report's ``crosscheck_mismatches`` counter, which the
        accelerator's degradation logic watches.
        """
        cfg = acc.config
        if cfg.crosscheck_rows <= 0.0 or self._n_rows == 0:
            return
        rng = random.Random(cfg.crosscheck_seed)
        count = min(self._n_rows, max(1, int(
            math.ceil(cfg.crosscheck_rows * self._n_rows))))
        mismatches = 0
        for r in rng.sample(range(self._n_rows), count):
            lo = int(self.artifacts.seg_start[r])
            hi = lo + int(self.artifacts.seg_len[r])
            partial = partial_fn(lo, hi)
            expect = (np.zeros(self.omega) if reduce_kind == "sum"
                      else np.full(self.omega, np.inf))
            for p in partial:
                expect = (expect + p if reduce_kind == "sum"
                          else np.minimum(expect, p))
            if not np.array_equal(expect, out[r], equal_nan=True):
                mismatches += 1
        report.counters.add("crosscheck_rows", float(count))
        if mismatches:
            report.counters.add("crosscheck_mismatches", float(mismatches))

    # ------------------------------------------------------------------
    # Pass kinds
    # ------------------------------------------------------------------
    def run_spmv_batch(self, acc, x: np.ndarray
                       ) -> Tuple[np.ndarray, SimReport]:
        """Batched multi-RHS SpMV: one payload delivery, ``k`` columns.

        The stacked blocks cross the (possibly faulty) channel *once*
        for the whole batch — one shared fault exposure, one payload's
        DRAM traffic — and each column is then computed with
        expressions identical to :meth:`run_spmv` on that column alone
        (per-column matmul, deliberately not one wide matmul whose
        BLAS summation order could differ), so every column's answer is
        bit-identical to solo service.  The report clones the
        width-``k`` template captured from the legacy batch
        interpreter (:meth:`~repro.core.accelerator.Alrescha.run_spmm`).
        """
        if self.kind != "spmv":
            raise SimulationError(
                f"pass kind {self.kind!r} does not batch")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n or x.shape[1] < 1:
            raise SimulationError(
                f"operand must be ({self.n}, k>=1), got {x.shape}")
        k = x.shape[1]
        template, span_template = self._batch_template(acc, k)
        blocks, _masks, extra, events = self._deliver(acc)
        y = np.empty((self.n, k))
        sums = []
        for col in range(k):
            chunks = self._gather_chunks(x[:, col])
            partial = np.matmul(blocks, chunks[:, :, None])[:, :, 0]
            out = self._accumulate_sum(partial)
            sums.append((out, chunks))
            y[:, col] = self._scatter_assign(out)
        report = template.clone()
        _apply_fault_events(report, extra, events,
                            self.padded_block_bytes)
        _replay_spans(acc, span_template, extra, events)
        for out, chunks in sums:
            self._crosscheck(
                acc, report, out, "sum",
                lambda lo, hi, c=chunks: np.matmul(
                    self.blocks[lo:hi], c[lo:hi, :, None])[:, :, 0])
        return y, report

    def _batch_template(self, acc, k: int
                        ) -> Tuple[SimReport, List[Span]]:
        cached = self._batch_templates.get(k)
        if cached is None:
            cached = _capture_batch_template(acc, self.kind, k)
            self._batch_templates[k] = cached
        return cached

    def run_spmv(self, acc, x: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        _check_operand("x", x, self.n)
        blocks, _masks, extra, events = self._deliver(acc)
        chunks = self._gather_chunks(x)
        partial = np.matmul(blocks, chunks[:, :, None])[:, :, 0]
        out = self._accumulate_sum(partial)
        y = self._scatter_assign(out)
        report = self._finish_report(acc, extra, events)
        self._crosscheck(
            acc, report, out, "sum",
            lambda lo, hi: np.matmul(self.blocks[lo:hi],
                                     chunks[lo:hi, :, None])[:, :, 0])
        return y, report

    def run_minplus(self, acc, dist: np.ndarray
                    ) -> Tuple[np.ndarray, SimReport]:
        """D-BFS (unit cost) or D-SSSP (stored weights) relaxation."""
        _check_operand("dist", dist, self.n)
        blocks, masks, extra, events = self._deliver(acc)
        chunks = self._gather_chunks(dist)
        step = 1.0 if self.kind == "bfs" else blocks
        cand = np.where(masks, chunks[:, None, :] + step, np.inf)
        best = self._accumulate_min(cand.min(axis=2))
        out = self._scatter_min(best, dist)
        report = self._finish_report(acc, extra, events)
        self._crosscheck(
            acc, report, best, "min",
            lambda lo, hi: np.where(
                self.masks[lo:hi],
                chunks[lo:hi, None, :]
                + (1.0 if self.kind == "bfs" else self.blocks[lo:hi]),
                np.inf).min(axis=2))
        return out, report

    def run_parents(self, acc, dist: np.ndarray, parent: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, SimReport]:
        if dist.shape != (self.n,) or parent.shape != (self.n,):
            raise SimulationError(f"operands must have shape ({self.n},)")
        _blocks, masks, extra, events = self._deliver(acc)
        chunks = self._gather_chunks(dist)
        cand = np.where(masks, chunks[:, None, :] + 1.0, np.inf)
        per_block = cand.min(axis=2)
        lanes = np.where(np.isfinite(per_block), cand.argmin(axis=2), -1)
        src = self.src_base[:, None] + lanes
        best = np.full((self._n_rows, self.omega), np.inf)
        best_src = np.full((self._n_rows, self.omega), -1, dtype=np.int64)
        for live, idx in self._tgroups:
            cand_t = per_block[idx]
            improved = cand_t < best[live]
            best[live] = np.where(improved, cand_t, best[live])
            best_src[live] = np.where(improved & (lanes[idx] >= 0),
                                      src[idx], best_src[live])
        dist_pad = np.zeros(self.npad)
        dist_pad[:self.n] = dist
        parent_pad = np.zeros(self.npad, dtype=np.int64)
        parent_pad[:self.n] = parent
        dview = dist_pad.reshape(self.nbr, self.omega)
        pview = parent_pad.reshape(self.nbr, self.omega)
        rows = self.artifacts.out_rows
        take = best < dview[rows]
        dview[rows] = np.where(take, best, dview[rows])
        pview[rows] = np.where(take, best_src, pview[rows])
        return (dist_pad[:self.n].copy(), parent_pad[:self.n].copy(),
                self._finish_report(acc, extra, events))

    def run_pagerank(self, acc, rank: np.ndarray, outdeg: np.ndarray
                     ) -> Tuple[np.ndarray, SimReport]:
        _check_operand("rank", rank, self.n)
        _check_operand("outdeg", outdeg, self.n)
        _blocks, masks, extra, events = self._deliver(acc)
        rank_c = self._gather_chunks(rank)
        deg_c = self._gather_chunks(outdeg)
        safe_deg = np.where(deg_c > 0.0, deg_c, 1.0)
        contrib = np.where(deg_c > 0.0, rank_c / safe_deg, 0.0)
        partial = np.where(masks, contrib[:, None, :], 0.0).sum(axis=2)
        out = self._accumulate_sum(partial)
        y = self._scatter_assign(out)
        report = self._finish_report(acc, extra, events)
        self._crosscheck(
            acc, report, out, "sum",
            lambda lo, hi: np.where(self.masks[lo:hi],
                                    contrib[lo:hi, None, :],
                                    0.0).sum(axis=2))
        return y, report


@dataclass(frozen=True)
class _SymgsRow:
    """One D-SymGS block row of a compiled SymGS sweep."""

    seg_start: int
    seg_len: int
    start: int
    valid: int
    #: Diagonal block body (main diagonal zeroed).
    body: np.ndarray
    #: Programmed payload CRC of the diagonal block.
    checksum: int = 0


class CompiledSymgsPass:
    """A compiled forward SymGS sweep.

    Block rows are inherently sequential — the D-SymGS of row *i* waits
    for the row's GEMV partials and later rows read its output — so the
    plan keeps that loop, but everything that does not depend on the
    fresh iterate is hoisted out of it.  A sweep is:

    1. one pass of the whole payload run (each row's GEMV blocks, then
       its diagonal block) through the fault channel
       (:meth:`~repro.sim.faults.FaultModel.deliver_run`);
    2. every x^{t-1} upper dot of every D-SymGS row, in at most ω-1
       batched matmuls (one per local row, over all block rows);
    3. per block row: one gather + matmul for the GEMV partials, summed
       in link-stack pop order, then the scalar Gauss-Seidel recurrence
       on Python floats with only the x^t lower dot left in numpy.

    The plan does not call :func:`~repro.core.datapaths.dsymgs_solve`;
    it mirrors its operation order, so every iterate is bit-identical
    to the interpreter's.  Solo and batched runs share one sweep core:
    a solo sweep is a batch of one column.
    """

    def __init__(self, n: int, omega: int, blocks: np.ndarray,
                 gather: np.ndarray, rows: List[_SymgsRow],
                 diag: np.ndarray, artifacts: PassArtifacts,
                 template: SimReport,
                 checksums: Optional[List[int]] = None,
                 restream_cycles: float = 0.0,
                 padded_block_bytes: float = 0.0,
                 span_template: Optional[List[Span]] = None) -> None:
        self.n = n
        self.omega = omega
        self.nbr, self.npad = _padded_length(n, omega)
        self.blocks = blocks
        self.gather = gather
        self.rows = rows
        self.artifacts = artifacts
        self.template = template
        self.restream_cycles = restream_cycles
        self.padded_block_bytes = padded_block_bytes
        #: Spans captured alongside the report template (empty when the
        #: owning accelerator had no tracer at compile time).
        self.span_template = span_template or []
        self._diag_pad = np.zeros(self.npad)
        self._diag_pad[:n] = diag
        _freeze(blocks, gather, self._diag_pad)
        #: Per row: the pivots as Python floats, and the lower-half
        #: views ``body[r, :r]`` the x^t dots read.
        self._pivots = [
            tuple(self._diag_pad[row.start:row.start + row.valid].tolist())
            for row in rows]
        self._lowers = [_lower_views(row.body, row.valid) for row in rows]
        self._uppers = _upper_stacks(rows, omega)
        # The payload run in transfer order with its CRCs (``checksums``
        # are the GEMV blocks', stacked order), and where each transfer
        # lands: ("gemv", stacked index) or ("diag", row index).
        checksums = checksums or []
        self._payloads: List[np.ndarray] = []
        self._payload_checksums: List[int] = []
        self._slots: List[Tuple[str, int]] = []
        for d, row in enumerate(rows):
            for j in range(row.seg_start, row.seg_start + row.seg_len):
                self._payloads.append(blocks[j])
                self._payload_checksums.append(int(checksums[j]))
                self._slots.append(("gemv", j))
            self._payloads.append(row.body)
            self._payload_checksums.append(int(row.checksum))
            self._slots.append(("diag", d))
        #: Per-width batch report templates, captured lazily from the
        #: legacy batch interpreter the first time each width runs.
        self._batch_templates: Dict[int, Tuple[SimReport, List[Span]]] = {}

    def run(self, acc, b: np.ndarray, x_prev: np.ndarray
            ) -> Tuple[np.ndarray, SimReport]:
        n = self.n
        if b.shape != (n,) or x_prev.shape != (n,):
            raise SimulationError(
                f"operand vectors must have shape ({n},)"
            )
        x, report = self._sweep(acc, b[None, :], x_prev[None, :],
                                self.template, self.span_template)
        return x[0], report

    def _batch_template(self, acc, k: int
                        ) -> Tuple[SimReport, List[Span]]:
        cached = self._batch_templates.get(k)
        if cached is None:
            cached = _capture_batch_template(acc, "symgs", k)
            self._batch_templates[k] = cached
        return cached

    def run_batch(self, acc, b: np.ndarray, x_prev: np.ndarray
                  ) -> Tuple[np.ndarray, SimReport]:
        """Batched forward sweeps: one payload delivery drives ``k``
        independent column recurrences.

        Each payload block crosses the channel once per batch — shared
        fault exposure, one payload's DRAM traffic — and every column
        then runs the same sweep core as :meth:`run` on that column
        alone, so per-column answers are bit-identical to solo service.
        The report clones the width-``k`` template captured from
        :meth:`~repro.core.accelerator.Alrescha._legacy_run_symgs_batch`.
        """
        n = self.n
        b = np.asarray(b, dtype=np.float64)
        x_prev = np.asarray(x_prev, dtype=np.float64)
        if (b.ndim != 2 or b.shape[0] != n or b.shape[1] < 1
                or x_prev.shape != b.shape):
            raise SimulationError(
                f"operand panels must be ({n}, k>=1) and equal-shaped, "
                f"got {b.shape} and {x_prev.shape}")
        template, span_template = self._batch_template(acc, b.shape[1])
        x, report = self._sweep(acc, b.T, x_prev.T, template, span_template)
        return x.T.copy(), report

    def _deliver(self, acc):
        """One pass of the sweep's payload run through the channel.

        Returns ``(blocks, bodies, dirty, extra_cycles, events)``: the
        GEMV block stack and per-row diagonal bodies as delivered
        (pristine compile-time arrays unless a silent bitflip replaced
        one with a corrupted copy), and the rows whose body was
        replaced.
        """
        extra, events, replaced = _deliver_run(
            acc, self._payloads, self._payload_checksums,
            self.restream_cycles)
        blocks = self.blocks
        bodies = [row.body for row in self.rows]
        dirty = set()
        for t, vals in replaced.items():
            where, i = self._slots[t]
            if where == "diag":
                bodies[i] = vals
                dirty.add(i)
            else:
                if blocks is self.blocks:
                    blocks = self.blocks.copy()
                blocks[i] = vals
        return blocks, bodies, dirty, extra, events

    def _sweep(self, acc, b: np.ndarray, x_prev: np.ndarray,
               template: SimReport, span_template: List[Span]
               ) -> Tuple[np.ndarray, SimReport]:
        """The sweep core: ``k`` columns (rows of ``b``/``x_prev``,
        each ``(k, n)``) over one payload delivery.

        Returns the ``(k, n)`` new iterates and ``template``'s clone
        charged with the run's faults (``span_template`` is replayed).
        """
        n, w, npad = self.n, self.omega, self.npad
        k = b.shape[0]
        blocks, bodies, dirty, extra, events = self._deliver(acc)
        # Plane 0 is x^t (updated in place), plane 1 the read-only
        # x^{t-1}; gather indices address the flattened pair so each
        # entry's operand port resolves with no per-block branching.
        states = np.zeros((k, 2, npad))
        states[:, 0, :n] = x_prev
        states[:, 1, :n] = x_prev
        flat = states.reshape(k, 2 * npad)
        x_old = states[:, 1]
        b_pad = np.zeros((k, npad))
        b_pad[:, :n] = b
        b_cols = b_pad.tolist()
        # Every x^{t-1} dot up front: the operands never change during
        # the sweep.  A (1, L) @ (L, 1) matmul item is the same ddot the
        # interpreter's 1-D ``upper @ x_old`` runs, provided the gathered
        # operand is C-contiguous: ``take`` keeps it so, where
        # ``x[:, idx]`` would put the column axis innermost and BLAS
        # would sum the strided operand in another order.
        upper = np.zeros((k, len(self.rows), w))
        for r, stack, cols, idx in self._uppers:
            upper[:, idx, r] = np.matmul(
                stack, x_old.take(cols, axis=1)[..., None])[..., 0, 0]
        for d in dirty:
            row, body = self.rows[d], bodies[d]
            for c in range(k):
                old = x_old[c, row.start:row.start + w]
                for r in range(row.valid):
                    upper[c, d, r] = float(body[r, r + 1:] @ old[r + 1:])
        uppers = upper.tolist()
        zeros = [0.0] * w
        for d, row in enumerate(self.rows):
            start, valid = row.start, row.valid
            if row.seg_len:
                lo = row.seg_start
                hi = lo + row.seg_len
                chunks = flat.take(self.gather[lo:hi], axis=1)
                partial = np.matmul(blocks[lo:hi], chunks[..., None])
                # The link stack pops LIFO onto a zero accumulator.
                sums = np.add.reduce(partial[:, ::-1, :, 0], axis=1,
                                     initial=0.0).tolist()
            else:
                sums = [zeros] * k
            lower = (_lower_views(bodies[d], valid) if d in dirty
                     else self._lowers[d])
            pivots = self._pivots[d]
            for c in range(k):
                xt = states[c, 0]
                acc_c, up, bc = sums[c], uppers[c][d], b_cols[c]
                for r in range(valid):
                    if r:
                        dot = float(lower[r] @ xt[start:start + r]) + up[r]
                    else:
                        dot = 0.0 + up[0]
                    xt[start + r] = (bc[start + r] - (acc_c[r] + dot)) \
                        / pivots[r]
        report = template.clone()
        _apply_fault_events(report, extra, events, self.padded_block_bytes)
        _replay_spans(acc, span_template, extra, events)
        return states[:, 0, :n].copy(), report


def _lower_views(body: np.ndarray, valid: int) -> Tuple[np.ndarray, ...]:
    """The row-halves ``body[r, :r]`` the x^t dots read, per local row."""
    return tuple(body[r, :r] for r in range(valid))


def _upper_stacks(rows: List[_SymgsRow], omega: int
                  ) -> List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per local row ``r``: the stacked upper halves ``body[r, r+1:]``
    of every row with ``valid > r``, as ``(R, 1, L)``; their ``(R, L)``
    gather columns into padded x^{t-1}; and their row indices.

    Local row ω-1 has an empty upper half (its dot is 0.0) and is
    skipped.
    """
    if not rows:
        return []
    bodies = np.stack([row.body for row in rows])
    valid = np.asarray([row.valid for row in rows])
    starts = np.asarray([row.start for row in rows], dtype=np.int64)
    out = []
    for r in range(omega - 1):
        idx = np.nonzero(valid > r)[0]
        stack = bodies[idx, r, r + 1:][:, None, :]
        cols = starts[idx, None] + np.arange(r + 1, omega)
        _freeze(stack, cols, idx)
        out.append((r, stack, cols, idx))
    return out


# ---------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------
def compile_pass(acc, kind: str):
    """Lower the programmed pass ``kind`` of accelerator ``acc``.

    Returns a :class:`CompiledStreamingPass` or
    :class:`CompiledSymgsPass` for ``acc``'s image; ``acc`` (any
    binding of it) replays the interpreter for the templates.  Part of
    the accelerator's internals —
    reach it through ``Alrescha`` runs (``config.use_plan``) or
    :meth:`~repro.core.accelerator.Alrescha.compile_plans`.
    """
    if kind == "symgs":
        return _compile_symgs(acc)
    if kind in STREAMING_KINDS:
        return _compile_streaming(acc, kind)
    raise SimulationError(f"unknown pass kind {kind!r}")


def _load_stored_template(acc, kind: str, k,
                          traced: bool
                          ) -> Optional[Tuple[SimReport, List[Span]]]:
    """A stored template for this program, or None to capture afresh.

    Only consulted when the accelerator's conversion was resolved
    through an artifact store (``acc.image.store_key`` set).  A traced
    accelerator requires the stored spans; templates persisted untraced
    are then a miss, and the richer re-capture overwrites them.  Loaded
    templates still flow through ``_verify_against_template`` when the
    lowering is compiled, so a stale store entry fails loudly rather
    than skewing reports.
    """
    store = acc.config.artifact_store
    key = acc.image.store_key
    if store is None or key is None:
        return None
    return store.load_template(key, kind, k=k, want_spans=traced)


def _save_stored_template(acc, kind: str, k, report: SimReport,
                          spans: Optional[List[Span]]) -> None:
    """Persist a freshly captured template (``spans`` None = untraced)."""
    store = acc.config.artifact_store
    key = acc.image.store_key
    if store is None or key is None:
        return
    store.save_template(key, kind, report, spans, k=k)


def _capture_template(acc, kind: str) -> Tuple[SimReport, List[Span]]:
    """Replay the legacy interpreter once with neutral operands and keep
    its report — and, when the accelerator is traced, its spans (see the
    module docstring for why this is exact).

    Fault injection is suppressed for the replay: the template must
    record the *clean* pass (faults would advance the injector's RNG,
    contaminate the captured cycles/counters, and break the lowering
    verification below).  Faults are charged per run instead.  The span
    capture uses the same shadowing trick: a fresh capture tracer
    replaces the user's for the replay, so template spans (anchored at
    cycle 0) never leak into the user's trace.
    """
    traced = acc.config.tracer is not None
    cached = _load_stored_template(acc, kind, None, traced)
    if cached is not None:
        return cached
    zeros = np.zeros(acc.n)
    capture = Tracer() if traced else None
    acc._suppress_faults = True
    acc._capture_tracer = capture
    try:
        if kind == "spmv":
            report = acc._legacy_run_spmv(zeros)[1]
        elif kind == "bfs":
            report = acc._legacy_run_bfs_pass(zeros)[1]
        elif kind == "bfs-parents":
            report = acc._legacy_run_bfs_pass_parents(
                zeros, np.zeros(acc.n, dtype=np.int64))[2]
        elif kind == "sssp":
            report = acc._legacy_run_sssp_pass(zeros)[1]
        elif kind == "pagerank":
            report = acc._legacy_run_pr_pass(zeros, zeros)[1]
        else:
            report = acc._legacy_run_symgs_sweep(zeros, zeros)[1]
    finally:
        acc._suppress_faults = False
        acc._capture_tracer = None
    spans = capture.spans if capture is not None else []
    _save_stored_template(acc, kind, None, report,
                          spans if traced else None)
    return report, spans


def _capture_batch_template(acc, kind: str,
                            k: int) -> Tuple[SimReport, List[Span]]:
    """Replay the legacy *batch* interpreter once with neutral ``(n,
    k)`` operand panels and keep its report/spans.

    The per-width analogue of :func:`_capture_template` — batch timing
    and counters depend only on the programmed block structure and the
    width ``k``, never on operand values — with the same fault
    suppression and tracer shadowing (see there).  Templates are
    captured lazily per width, so a program that never batches pays
    nothing.
    """
    if kind not in ("spmv", "symgs"):
        raise SimulationError(f"pass kind {kind!r} does not batch")
    traced = acc.config.tracer is not None
    cached = _load_stored_template(acc, kind, k, traced)
    if cached is not None:
        return cached
    zeros = np.zeros((acc.n, k))
    capture = Tracer() if traced else None
    acc._suppress_faults = True
    acc._capture_tracer = capture
    try:
        if kind == "spmv":
            report = acc.run_spmm(zeros)[1]
        else:
            report = acc._legacy_run_symgs_batch(zeros, zeros)[1]
    finally:
        acc._suppress_faults = False
        acc._capture_tracer = None
    spans = capture.spans if capture is not None else []
    _save_stored_template(acc, kind, k, report,
                          spans if traced else None)
    return report, spans


def _compile_streaming(acc, kind: str) -> CompiledStreamingPass:
    n, w = acc.n, acc.config.omega
    timing = acc.config.timing()
    spb = timing.stream_cycles_per_block()
    lanes = np.arange(w)
    blocks, gather, src_base, checksums = [], [], [], []
    seg_len, out_rows = [], []
    compute = []
    for group in acc.image.rows:
        if not group.streaming:
            continue
        seg_len.append(len(group.streaming))
        out_rows.append(group.block_row)
        for op in group.streaming:
            blocks.append(op.values)
            gather.append(op.inx_in
                          + (lanes[::-1] if op.reversed_cols else lanes))
            src_base.append(op.inx_in)
            checksums.append(op.checksum)
            compute.append(timing.compute_cycles_per_block(op.dp))
    m = len(blocks)
    seg_len_arr = np.asarray(seg_len, dtype=np.int64)
    seg_start = np.zeros(len(seg_len), dtype=np.int64)
    if len(seg_len) > 1:
        seg_start[1:] = np.cumsum(seg_len_arr)[:-1]
    mem = acc.config.make_memory()
    payload = mem.stream_block_run(m, timing.block_bytes)
    padded_block_bytes = mem._padded_bytes(timing.block_bytes)
    artifacts = PassArtifacts(
        stream_cycles_per_block=np.full(m, spb),
        compute_cycles_per_block=np.asarray(compute),
        seg_start=seg_start,
        seg_len=seg_len_arr,
        out_rows=np.asarray(out_rows, dtype=np.int64),
        payload_stream_cycles=payload,
    )
    template, span_template = _capture_template(acc, kind)
    _verify_against_template(kind, artifacts, template, n_requests=m)
    return CompiledStreamingPass(
        kind, n, w,
        blocks=(np.stack(blocks) if m else np.zeros((0, w, w))),
        gather=(np.stack(gather) if m else np.zeros((0, w), dtype=np.int64)),
        src_base=np.asarray(src_base, dtype=np.int64),
        artifacts=artifacts, template=template, checksums=checksums,
        restream_cycles=padded_block_bytes / mem.bytes_per_cycle,
        padded_block_bytes=padded_block_bytes,
        span_template=span_template,
    )


def _compile_symgs(acc) -> CompiledSymgsPass:
    n, w = acc.n, acc.config.omega
    diag = acc.conversion.matrix.diagonal
    if diag is None:
        raise SimulationError("programmed matrix lacks SymGS layout")
    timing = acc.config.timing()
    spb = timing.stream_cycles_per_block()
    _nbr, npad = _padded_length(n, w)
    lanes = np.arange(w)
    blocks, gather, checksums = [], [], []
    rows: List[_SymgsRow] = []
    seg_len, out_rows = [], []
    stream_vec, compute_vec = [], []
    n_requests = 0
    for group in acc.image.rows:
        seg_start = len(blocks)
        for op in group.streaming:
            blocks.append(op.values)
            plane = 0 if op.port is OperandPort.PORT1 else 1
            idx = op.inx_in + (lanes[::-1] if op.reversed_cols else lanes)
            gather.append(plane * npad + idx)
            checksums.append(op.checksum)
            stream_vec.append(spb)
            compute_vec.append(timing.compute_cycles_per_block(op.dp))
            n_requests += 1
        if group.diagonal is not None:
            refetch = (not acc.conversion.reordered) and group.streaming
            stream_vec.append(2.0 * spb if refetch else spb)
            n_requests += 2 if refetch else 1
            compute_vec.append(
                timing.compute_cycles_per_block(DataPathType.D_SYMGS))
            start = group.block_row * w
            rows.append(_SymgsRow(seg_start=seg_start,
                                  seg_len=len(blocks) - seg_start,
                                  start=start,
                                  valid=max(0, min(w, n - start)),
                                  body=group.diagonal.values,
                                  checksum=group.diagonal.checksum))
        elif group.streaming:
            # Algorithm 1 always closes a block row that has GEMV blocks
            # with a D-SymGS entry; without one the row's partials would
            # leak into the next row's link-stack pop.
            raise ConfigError(
                f"SymGS block row {group.block_row} has "
                f"{len(group.streaming)} GEMV blocks but no D-SymGS "
                f"entry")
        seg_len.append(len(blocks) - seg_start)
        out_rows.append(group.block_row)
    m = len(blocks)
    seg_len_arr = np.asarray(seg_len, dtype=np.int64)
    seg_start_arr = np.zeros(len(seg_len), dtype=np.int64)
    if len(seg_len) > 1:
        seg_start_arr[1:] = np.cumsum(seg_len_arr)[:-1]
    mem = acc.config.make_memory()
    payload = mem.stream_block_run(n_requests, timing.block_bytes)
    padded_block_bytes = mem._padded_bytes(timing.block_bytes)
    artifacts = PassArtifacts(
        stream_cycles_per_block=np.asarray(stream_vec),
        compute_cycles_per_block=np.asarray(compute_vec),
        seg_start=seg_start_arr,
        seg_len=seg_len_arr,
        out_rows=np.asarray(out_rows, dtype=np.int64),
        payload_stream_cycles=payload,
    )
    template, span_template = _capture_template(acc, "symgs")
    _verify_against_template("symgs", artifacts, template, n_requests)
    return CompiledSymgsPass(
        n, w,
        blocks=(np.stack(blocks) if m else np.zeros((0, w, w))),
        gather=(np.stack(gather) if m else np.zeros((0, w), dtype=np.int64)),
        rows=rows, diag=diag, artifacts=artifacts, template=template,
        checksums=checksums,
        restream_cycles=padded_block_bytes / mem.bytes_per_cycle,
        padded_block_bytes=padded_block_bytes,
        span_template=span_template,
    )


# KernelType is imported for the kernel→plan-kind map used by
# Alrescha.compile_plans().
KERNEL_PLAN_KINDS = {
    KernelType.SPMV: ("spmv",),
    KernelType.SYMGS: ("symgs",),
    KernelType.BFS: ("bfs",),
    KernelType.SSSP: ("sssp",),
    KernelType.PAGERANK: ("pagerank",),
}
