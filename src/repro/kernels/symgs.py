"""Reference symmetric Gauss-Seidel (SymGS) smoother (Equation 2).

A forward sweep computes, row by row,

    x_j^t = (b_j - sum_{i<j} A_ji x_i^t - sum_{i>j} A_ji x_i^{t-1}) / A_jj

so each row *depends on every previously updated row* — the
data-dependency pattern of Figure 1 that motivates the whole paper.
HPCG's SymGS is a forward sweep followed by a backward sweep; both are
implemented here, row-sequentially, as the golden model.

Note on the paper's notation: Equations 2/3 are stated over columns of
``A^T``, i.e. rows of ``A``; the typeset form in the paper garbles the
division by ``A_jj`` into ``1/A_jj - (...)``.  We implement the standard
Gauss-Seidel update (Golub & Van Loan [30]), which is what the equations
denote and what the PCG smoother requires for convergence.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.formats import CSRMatrix
from repro.kernels.spmv import to_csr


def _check_system(csr: CSRMatrix, b: np.ndarray,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_rows, n_cols = csr.shape
    if n_rows != n_cols:
        raise ShapeError(f"SymGS needs a square matrix, got {csr.shape}")
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if b.shape != (n_rows,) or x.shape != (n_rows,):
        raise ShapeError(
            f"vectors must have shape ({n_rows},), got {b.shape}/{x.shape}"
        )
    return b, x


def forward_sweep(matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One forward Gauss-Seidel sweep; returns the updated vector."""
    csr = to_csr(matrix)
    b, x = _check_system(csr, b, x)
    out = x.copy()
    for j in range(csr.shape[0]):
        cols, vals = csr.row(j)
        diag = 0.0
        acc = 0.0
        for c, v in zip(cols, vals):
            if c == j:
                diag = v
            else:
                acc += v * out[c]
        if diag == 0.0:
            raise ConfigError(f"zero diagonal at row {j}")
        out[j] = (b[j] - acc) / diag
    return out


def backward_sweep(matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One backward Gauss-Seidel sweep (rows in descending order): one
    :class:`BackwardSweep` of ``matrix``, prepared and applied once."""
    csr = to_csr(matrix)
    _check_system(csr, b, x)
    return BackwardSweep(csr)(b, x)


def symgs(matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One symmetric sweep: forward then backward (HPCG's smoother)."""
    return backward_sweep(matrix, b, forward_sweep(matrix, b, x))


class ForwardSweep:
    """A forward Gauss-Seidel sweep prepared once for one matrix.

    Algebraically identical to :func:`forward_sweep` —
    ``x_new = (L + D)^{-1} (b - U x_old)`` — but computed with a
    vectorized triangular substitution over CSR arrays, used for large
    matrices where the row-loop golden model is too slow.

    Everything that depends only on the matrix is done here, once: the
    CSR copy, the strict upper triangle as ``(rows, data, cols)``
    arrays, the diagonal (a zero pivot raises
    :class:`~repro.errors.ConfigError` naming its row) and each row's
    strict-lower ``(vals, cols)`` slices.  Calling the sweep on
    ``(b, x)`` does only the per-operand work.
    """

    def __init__(self, matrix) -> None:
        csr = to_csr(matrix)
        n_rows, n_cols = csr.shape
        if n_rows != n_cols:
            raise ShapeError(f"SymGS needs a square matrix, got {csr.shape}")
        self.csr = csr
        rows = np.repeat(np.arange(n_rows), np.diff(csr.indptr))
        upper = csr.indices > rows
        on_diag = csr.indices == rows
        self._upper = (rows[upper], csr.data[upper], csr.indices[upper])
        diag = np.zeros(n_rows, dtype=np.float64)
        diag[rows[on_diag]] = csr.data[on_diag]
        if np.any(diag == 0.0):
            bad = int(np.nonzero(diag == 0.0)[0][0])
            raise ConfigError(f"zero diagonal at row {bad}")
        self._pivots = diag.tolist()
        # Boolean indexing gives each row's lower slice its own
        # contiguous array; np.dot's summation order can follow operand
        # layout, so the slices keep that form.
        lower = []
        indptr, indices, data = csr.indptr, csr.indices, csr.data
        for j in range(n_rows):
            lo, hi = int(indptr[j]), int(indptr[j + 1])
            cols = indices[lo:hi]
            mask = cols < j
            lower.append((data[lo:hi][mask], cols[mask])
                         if mask.any() else None)
        self._lower = lower

    def __call__(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One forward sweep from ``x``; returns the updated vector."""
        b, x = _check_system(self.csr, b, x)
        # rhs = b - U @ x_old
        rhs = b.copy()
        up_rows, up_data, up_cols = self._upper
        np.subtract.at(rhs, up_rows, up_data * x[up_cols])
        # Forward substitution with (L + D); sequential by construction.
        # Python floats round exactly like float64 scalars, and a row
        # with no lower entries subtracts nothing (r - 0.0 == r).
        out = np.empty(len(self._pivots), dtype=np.float64)
        for j, row, r, pivot in zip(range(out.size), self._lower,
                                    rhs.tolist(), self._pivots):
            if row is not None:
                r -= float(np.dot(row[0], out[row[1]]))
            out[j] = r / pivot
        return out


def forward_sweep_vectorized(matrix, b: np.ndarray,
                             x: np.ndarray) -> np.ndarray:
    """One :class:`ForwardSweep` of ``matrix`` from ``x``: prepare, then
    apply once.  Solvers that sweep one matrix many times keep the
    prepared sweep instead (see
    :class:`~repro.solvers.ReferenceBackend`)."""
    csr = to_csr(matrix)
    _check_system(csr, b, x)
    return ForwardSweep(csr)(b, x)


class BackwardSweep:
    """A backward Gauss-Seidel sweep prepared once for one matrix.

    The golden row loop, rows in descending order: row ``j`` sums
    ``A_jc * out[c]`` over its off-diagonal entries left to right,
    starting from ``0.0``, then sets ``out[j] = (b[j] - acc) / A_jj``.
    Preparing reads each row once: its off-diagonal values and columns
    in stored order, and its pivot (the row's last diagonal entry; a
    missing or zero pivot raises :class:`~repro.errors.ConfigError`
    naming the first such row the sweep reaches, i.e. the highest).
    Calling the sweep runs the same multiplies and adds in the same
    order on Python floats, which round exactly like float64 scalars.
    The sum is a left fold, never ``np.dot`` or ``sum()``, whose order
    is their own.
    """

    def __init__(self, matrix) -> None:
        csr = to_csr(matrix)
        n_rows, n_cols = csr.shape
        if n_rows != n_cols:
            raise ShapeError(f"SymGS needs a square matrix, got {csr.shape}")
        self.csr = csr
        indptr = csr.indptr.tolist()
        indices = csr.indices.tolist()
        data = csr.data.tolist()
        rows = []
        for j in range(n_rows - 1, -1, -1):
            lo, hi = indptr[j], indptr[j + 1]
            vals, cols = [], []
            pivot = 0.0
            for c, v in zip(indices[lo:hi], data[lo:hi]):
                if c == j:
                    pivot = v
                else:
                    vals.append(v)
                    cols.append(c)
            if pivot == 0.0:
                raise ConfigError(f"zero diagonal at row {j}")
            rows.append((j, vals, cols, pivot))
        self._rows = rows

    def __call__(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One backward sweep from ``x``; returns the updated vector."""
        b, x = _check_system(self.csr, b, x)
        rhs = b.tolist()
        out = x.tolist()
        at = out.__getitem__
        for j, vals, cols, pivot in self._rows:
            acc = reduce(add, map(mul, vals, map(at, cols)), 0.0)
            out[j] = (rhs[j] - acc) / pivot
        return np.array(out, dtype=np.float64)
