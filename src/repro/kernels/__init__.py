"""Reference (golden) kernels: SpMV, SymGS and dense vector operations.

These are the functional specifications the accelerator model in
:mod:`repro.core` must reproduce bit-for-bit in structure (and to
floating-point tolerance in value, since the block decomposition reorders
additions).
"""

from repro.kernels.spmv import spmv, to_csr
from repro.kernels.symgs import (
    BackwardSweep,
    ForwardSweep,
    backward_sweep,
    forward_sweep,
    forward_sweep_vectorized,
    symgs,
)
from repro.kernels.vector import axpy, dot, norm2, waxpby

__all__ = [
    "BackwardSweep",
    "ForwardSweep",
    "axpy",
    "backward_sweep",
    "dot",
    "forward_sweep",
    "forward_sweep_vectorized",
    "norm2",
    "spmv",
    "symgs",
    "to_csr",
    "waxpby",
]
