"""Solver compute backends.

The PCG driver (Figure 2) is backend-agnostic: a backend supplies the two
dominant kernels — SpMV and the SymGS smoother/preconditioner (Figure 3)
— plus cheap vector operations.

* :class:`ReferenceBackend` runs the golden kernels with no timing.
* :class:`AcceleratorBackend` runs both kernels on programmed
  :class:`~repro.core.accelerator.Alrescha` instances and accumulates
  their :class:`~repro.core.report.SimReport`.  The backward half of the
  symmetric sweep runs on a second accelerator programmed with the
  order-reversed matrix ``P A P`` (forward Gauss-Seidel on ``P A P`` is
  exactly backward Gauss-Seidel on ``A``), reusing the same D-SymGS
  hardware path.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.accelerator import Alrescha, AlreschaConfig
from repro.core.config import KernelType
from repro.core.report import SimReport, combine
from repro.errors import ConfigError
from repro.sim.faults import FaultModel
from repro.kernels import BackwardSweep, ForwardSweep, spmv
from repro.kernels.spmv import to_csr


class ReferenceBackend:
    """Golden kernels; produces values only (no timing reports).

    The CSR copy is made once, at construction, and the forward and
    backward sweeps are prepared once, on first use
    (:attr:`forward_sweep`, :attr:`backward_sweep`), so a solve or a
    serving pool that applies the smoother many times pays the
    per-matrix work once.  Preparing on first use keeps a matrix the
    sweeps reject (a zero pivot) usable for SpMV.
    """

    name = "reference"

    def __init__(self, matrix) -> None:
        self.csr = to_csr(matrix)
        self.n = self.csr.shape[0]

    @cached_property
    def forward_sweep(self) -> ForwardSweep:
        """The matrix's prepared :class:`~repro.kernels.ForwardSweep`."""
        return ForwardSweep(self.csr)

    @cached_property
    def backward_sweep(self) -> BackwardSweep:
        """The matrix's prepared :class:`~repro.kernels.BackwardSweep`."""
        return BackwardSweep(self.csr)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return self.csr.spmv(np.asarray(x, dtype=np.float64))

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Symmetric Gauss-Seidel applied to ``M z = r`` from ``z = 0``."""
        zero = np.zeros(self.n)
        z = self.forward_sweep(r, zero)
        return self.backward_sweep(r, z)

    def report(self) -> Optional[SimReport]:
        return None


class AcceleratorBackend:
    """Alrescha-accelerated SpMV + SymGS with full timing/energy."""

    name = "alrescha"

    def __init__(self, matrix, config: Optional[AlreschaConfig] = None,
                 symmetric_smoother: bool = True,
                 source: Optional[dict] = None) -> None:
        csr = matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(
            np.asarray(matrix, dtype=np.float64))
        self.n = csr.shape[0]
        self.config = config or AlreschaConfig()
        self.symmetric_smoother = symmetric_smoother
        self._spmv_acc = Alrescha.from_matrix(
            KernelType.SPMV, csr, config=self.config, source=source)
        self._symgs_acc = Alrescha.from_matrix(
            KernelType.SYMGS, csr, config=self.config, source=source)
        self._symgs_rev_acc: Optional[Alrescha] = None
        if symmetric_smoother:
            perm = np.arange(self.n)[::-1]
            reversed_csr = csr[perm][:, perm].tocsr()
            rev_source = (None if source is None
                          else {**source, "transform": "reverse"})
            self._symgs_rev_acc = Alrescha.from_matrix(
                KernelType.SYMGS, reversed_csr, config=self.config,
                source=rev_source)
        if self.config.use_plan:
            # Compile the pass plans eagerly so the one-off lowering cost
            # is paid at backend construction, not inside the solver loop.
            self._spmv_acc.compile_plans()
            self._symgs_acc.compile_plans()
            if self._symgs_rev_acc is not None:
                self._symgs_rev_acc.compile_plans()
        self._reports: List[SimReport] = []
        self._last_kernel: Optional[str] = None
        self.kernel_switches = 0

    @property
    def accelerators(self) -> Tuple[Alrescha, ...]:
        """The programmed accelerators: SpMV, forward SymGS and (with
        the symmetric smoother) the order-reversed SymGS."""
        accs = (self._spmv_acc, self._symgs_acc, self._symgs_rev_acc)
        return tuple(acc for acc in accs if acc is not None)

    def bind(self, fault_model: Optional[FaultModel]
             ) -> "AcceleratorBackend":
        """A backend on this one's programmed images with its own fault
        model, fresh reports and fresh cross-check state (see
        :meth:`~repro.core.accelerator.Alrescha.bind`)."""
        twin = object.__new__(AcceleratorBackend)
        twin.n = self.n
        twin.config = replace(self.config, fault_model=fault_model)
        twin.symmetric_smoother = self.symmetric_smoother
        twin._spmv_acc = self._spmv_acc.bind(fault_model)
        twin._symgs_acc = self._symgs_acc.bind(fault_model)
        twin._symgs_rev_acc = (
            self._symgs_rev_acc.bind(fault_model)
            if self._symgs_rev_acc is not None else None)
        twin._reports = []
        twin._last_kernel = None
        twin.kernel_switches = 0
        return twin

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _note_kernel(self, kernel: str) -> None:
        """Account for switching *between kernels* (§5.3: Alrescha's
        reconfigurability enables 'fast switching not only between the
        distinct data paths of a single kernel, but also among the
        sparse kernels').

        Like a data-path switch, the kernel switch rewrites the RCU
        configuration and, by default, hides under the drain of the
        retiring kernel's reduction tree; with the hiding ablation off,
        each switch exposes the full reconfiguration latency.
        """
        if self._last_kernel is not None and self._last_kernel != kernel:
            self.kernel_switches += 1
            exposed = (0.0 if self.config.hide_reconfig_under_drain
                       else float(self.config.reconfig_cycles))
            report = SimReport(
                kernel="kernel-switch",
                cycles=exposed,
                frequency_hz=self.config.frequency_hz,
                exposed_reconfig_cycles=exposed,
                bytes_per_cycle=self.config.bytes_per_cycle,
            )
            report.counters.add("config_write", 1.0)
            report.counters.add("switch_toggle", 1.0)
            report.energy_j = self.config.energy_model.energy_j(
                report.counters, report.seconds)
            self._reports.append(report)
        self._last_kernel = kernel

    def spmv(self, x: np.ndarray) -> np.ndarray:
        self._note_kernel("spmv")
        y, report = self._spmv_acc.run_spmv(np.asarray(x, dtype=np.float64))
        self._reports.append(report)
        return y

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """SymGS smoother on the accelerator: forward (+ backward) sweep
        of ``M z = r`` starting from zero."""
        self._note_kernel("symgs")
        r = np.asarray(r, dtype=np.float64)
        zero = np.zeros(self.n)
        z, rep_f = self._symgs_acc.run_symgs_sweep(r, zero)
        self._reports.append(rep_f)
        if self._symgs_rev_acc is not None:
            z_rev, rep_b = self._symgs_rev_acc.run_symgs_sweep(
                r[::-1].copy(), z[::-1].copy())
            self._reports.append(rep_b)
            z = z_rev[::-1].copy()
        return z

    def vector_op(self, n_vectors_streamed: int = 2) -> None:
        """Charge a dense vector kernel (dot/waxpby) at stream bandwidth.

        These kernels are a "tiny fraction" of PCG time (Figure 3); they
        are charged as pure streaming so the breakdown benchmark can show
        exactly that.
        """
        bytes_moved = float(self.n * 8 * n_vectors_streamed)
        cycles = bytes_moved / self.config.bytes_per_cycle
        report = SimReport(
            kernel="vector",
            cycles=cycles,
            frequency_hz=self.config.frequency_hz,
            useful_bytes=bytes_moved,
            streamed_bytes=bytes_moved,
            bytes_per_cycle=self.config.bytes_per_cycle,
        )
        report.energy_j = self.config.energy_model.energy_j(
            {"dram_bytes": bytes_moved, "alu_op": float(self.n)},
            report.seconds,
        )
        self._reports.append(report)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> SimReport:
        """Combined report over every kernel executed so far."""
        return combine(self._reports, kernel="pcg")

    def kernel_breakdown(self) -> dict:
        """Cycles per kernel name — the Figure 3 quantity."""
        out: dict = {}
        for r in self._reports:
            out[r.kernel] = out.get(r.kernel, 0.0) + r.cycles
        return out

    def fault_summary(self) -> dict:
        """Resilience counters accumulated across every kernel run.

        Keys are always present (zero on clean runs) so callers can
        reconcile against a :class:`~repro.sim.faults.FaultModel` log
        without guarding for missing counters.
        """
        keys = ("faults_injected", "faults_detected", "faults_corrected",
                "faults_silent", "retry_cycles", "fault_restreams",
                "fault_latency_cycles", "crosscheck_rows",
                "crosscheck_mismatches", "plan_fallbacks",
                "crosscheck_wasted_cycles")
        out = {key: 0.0 for key in keys}
        for r in self._reports:
            for key in keys:
                out[key] += r.counters.get(key)
        return out

    def reset_reports(self) -> None:
        self._reports.clear()
        self._last_kernel = None
        self.kernel_switches = 0


#: Backend names :func:`make_backend` accepts.
KNOWN_BACKENDS = ("reference", "alrescha")


def make_backend(matrix, backend: str = "reference",
                 config: Optional[AlreschaConfig] = None,
                 symmetric_smoother: bool = True):
    """Factory: ``"reference"`` or ``"alrescha"``.

    An unknown name raises :class:`~repro.errors.ConfigError` (the
    shared error type for invalid configuration choices) naming the
    known backends.
    """
    if backend == "reference":
        return ReferenceBackend(matrix)
    if backend == "alrescha":
        return AcceleratorBackend(matrix, config=config,
                                  symmetric_smoother=symmetric_smoother)
    raise ConfigError(
        f"unknown backend {backend!r}; known: {', '.join(KNOWN_BACKENDS)}")
