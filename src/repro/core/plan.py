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
operation-for-operation identical numpy expressions, so kernel outputs
are bit-identical too (property-tested against the legacy path).

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.core.config import DataPathType, KernelType, OperandPort
from repro.core.datapaths import dsymgs_solve
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
        self.checksums = checksums or []
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
        fault model these are the pristine compile-time arrays and the
        call is one attribute check; a silent bitflip replaces the
        stacked tensor with a corrupted *copy* — the compile-time
        ``self.blocks`` stays pristine for cross-checking.
        """
        cfg = acc.config
        fm = cfg.fault_model
        if fm is None:
            return self.blocks, self.masks, 0.0, []
        verify = cfg.verify_checksums or acc._force_verify
        blocks, masks = self.blocks, self.masks
        extra, events = 0.0, []
        for i in range(self.blocks.shape[0]):
            src = self.blocks[i]
            checksum = int(self.checksums[i]) if verify else None
            vals, cycles, event = fm.deliver(
                src, checksum, restream_cycles=self.restream_cycles)
            extra += cycles
            if event is not None:
                events.append(event)
            if vals is not src:
                if blocks is self.blocks:
                    blocks = self.blocks.copy()
                blocks[i] = vals
        if blocks is not self.blocks and self.kind != "spmv":
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
    """One block row of a compiled SymGS sweep."""

    seg_start: int
    seg_len: int
    start: int
    valid: int
    #: Diagonal block body (main diagonal zeroed); None for rows
    #: without a D-SymGS entry.
    body: Optional[np.ndarray]
    #: Programmed payload CRC of the diagonal block (0 when no body).
    checksum: int = 0


class CompiledSymgsPass:
    """A compiled forward SymGS sweep.

    Block rows are inherently sequential — the D-SymGS of row *i* waits
    for the row's GEMV partials and later rows read its output — so the
    plan keeps that loop, but each row is one gather + one batched
    matmul + the shared :func:`~repro.core.datapaths.dsymgs_solve`
    recurrence, with no cache/counter machinery on the hot path.
    Partials travel through a LIFO just like the RCU link stack.
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
        #: Per-GEMV-block payload CRCs in stacked order.
        self.checksums = checksums or []
        self.restream_cycles = restream_cycles
        self.padded_block_bytes = padded_block_bytes
        #: Spans captured alongside the report template (empty when the
        #: owning accelerator had no tracer at compile time).
        self.span_template = span_template or []
        self._diag_pad = np.zeros(self.npad)
        self._diag_pad[:n] = diag
        _freeze(blocks, gather, self._diag_pad)
        #: Per-width batch report templates, captured lazily from the
        #: legacy batch interpreter the first time each width runs.
        self._batch_templates: Dict[int, Tuple[SimReport, List[Span]]] = {}

    def run(self, acc, b: np.ndarray, x_prev: np.ndarray
            ) -> Tuple[np.ndarray, SimReport]:
        n, w, npad = self.n, self.omega, self.npad
        if b.shape != (n,) or x_prev.shape != (n,):
            raise SimulationError(
                f"operand vectors must have shape ({n},)"
            )
        # Plane 0 is x^t (updated in place), plane 1 the read-only
        # x^{t-1}; gather indices address the flattened pair so each
        # entry's operand port resolves with no per-block branching.
        state = np.zeros((2, npad))
        state[0, :n] = x_prev
        state[1, :n] = x_prev
        flat = state.reshape(-1)
        b_pad = np.zeros(npad)
        b_pad[:n] = b
        cfg = acc.config
        fm = cfg.fault_model
        verify = fm is not None and (cfg.verify_checksums
                                     or acc._force_verify)
        extra, events = 0.0, []
        stack: List[np.ndarray] = []
        for row in self.rows:
            if row.seg_len:
                lo = row.seg_start
                hi = lo + row.seg_len
                seg_blocks = self.blocks[lo:hi]
                if fm is not None:
                    # Same transfer order as the interpreter: the row's
                    # GEMV blocks first, then its diagonal block below.
                    delivered = None
                    for j in range(lo, hi):
                        src = self.blocks[j]
                        checksum = (int(self.checksums[j]) if verify
                                    else None)
                        vals, cycles, event = fm.deliver(
                            src, checksum,
                            restream_cycles=self.restream_cycles)
                        extra += cycles
                        if event is not None:
                            events.append(event)
                        if vals is not src:
                            if delivered is None:
                                delivered = seg_blocks.copy()
                            delivered[j - lo] = vals
                    if delivered is not None:
                        seg_blocks = delivered
                chunks = flat[self.gather[lo:hi]]
                partial = np.matmul(seg_blocks,
                                    chunks[:, :, None])[:, :, 0]
                stack.extend(partial)
            if row.body is not None:
                body = row.body
                if fm is not None:
                    checksum = row.checksum if verify else None
                    vals, cycles, event = fm.deliver(
                        body, checksum,
                        restream_cycles=self.restream_cycles)
                    extra += cycles
                    if event is not None:
                        events.append(event)
                    body = vals
                total = np.zeros(w)
                while stack:
                    total += stack.pop()
                sl = slice(row.start, row.start + w)
                x_new = dsymgs_solve(body, self._diag_pad[sl],
                                     b_pad[sl], state[1, sl], total,
                                     row.valid, w)
                state[0, row.start:row.start + row.valid] = \
                    x_new[:row.valid]
        report = self.template.clone()
        _apply_fault_events(report, extra, events, self.padded_block_bytes)
        _replay_spans(acc, self.span_template, extra, events)
        return state[0, :n].copy(), report

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
        then advances its own two-plane state with expressions
        identical to :meth:`run` on that column alone, so per-column
        answers are bit-identical to solo service.  The report clones
        the width-``k`` template captured from
        :meth:`~repro.core.accelerator.Alrescha._legacy_run_symgs_batch`.
        """
        n, w, npad = self.n, self.omega, self.npad
        b = np.asarray(b, dtype=np.float64)
        x_prev = np.asarray(x_prev, dtype=np.float64)
        if (b.ndim != 2 or b.shape[0] != n or b.shape[1] < 1
                or x_prev.shape != b.shape):
            raise SimulationError(
                f"operand panels must be ({n}, k>=1) and equal-shaped, "
                f"got {b.shape} and {x_prev.shape}")
        k = b.shape[1]
        template, span_template = self._batch_template(acc, k)
        states = np.zeros((k, 2, npad))
        states[:, 0, :n] = x_prev.T
        states[:, 1, :n] = x_prev.T
        flats = [states[col].reshape(-1) for col in range(k)]
        b_pads = np.zeros((k, npad))
        b_pads[:, :n] = b.T
        cfg = acc.config
        fm = cfg.fault_model
        verify = fm is not None and (cfg.verify_checksums
                                     or acc._force_verify)
        extra, events = 0.0, []
        stacks: List[List[np.ndarray]] = [[] for _ in range(k)]
        for row in self.rows:
            if row.seg_len:
                lo = row.seg_start
                hi = lo + row.seg_len
                seg_blocks = self.blocks[lo:hi]
                if fm is not None:
                    delivered = None
                    for j in range(lo, hi):
                        src = self.blocks[j]
                        checksum = (int(self.checksums[j]) if verify
                                    else None)
                        vals, cycles, event = fm.deliver(
                            src, checksum,
                            restream_cycles=self.restream_cycles)
                        extra += cycles
                        if event is not None:
                            events.append(event)
                        if vals is not src:
                            if delivered is None:
                                delivered = seg_blocks.copy()
                            delivered[j - lo] = vals
                    if delivered is not None:
                        seg_blocks = delivered
                for col in range(k):
                    chunks = flats[col][self.gather[lo:hi]]
                    partial = np.matmul(seg_blocks,
                                        chunks[:, :, None])[:, :, 0]
                    stacks[col].extend(partial)
            if row.body is not None:
                body = row.body
                if fm is not None:
                    checksum = row.checksum if verify else None
                    vals, cycles, event = fm.deliver(
                        body, checksum,
                        restream_cycles=self.restream_cycles)
                    extra += cycles
                    if event is not None:
                        events.append(event)
                    body = vals
                sl = slice(row.start, row.start + w)
                for col in range(k):
                    total = np.zeros(w)
                    stack = stacks[col]
                    while stack:
                        total += stack.pop()
                    x_new = dsymgs_solve(body, self._diag_pad[sl],
                                         b_pads[col, sl],
                                         states[col, 1, sl], total,
                                         row.valid, w)
                    states[col, 0, row.start:row.start + row.valid] = \
                        x_new[:row.valid]
        report = template.clone()
        _apply_fault_events(report, extra, events, self.padded_block_bytes)
        _replay_spans(acc, span_template, extra, events)
        return states[:, 0, :n].T.copy(), report


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
        body = None
        body_checksum = 0
        start = group.block_row * w
        valid = max(0, min(w, n - start))
        if group.diagonal is not None:
            body = group.diagonal.values
            body_checksum = group.diagonal.checksum
            refetch = (not acc.conversion.reordered) and group.streaming
            stream_vec.append(2.0 * spb if refetch else spb)
            n_requests += 2 if refetch else 1
            compute_vec.append(
                timing.compute_cycles_per_block(DataPathType.D_SYMGS))
        rows.append(_SymgsRow(seg_start=seg_start,
                              seg_len=len(blocks) - seg_start,
                              start=start, valid=valid, body=body,
                              checksum=body_checksum))
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
