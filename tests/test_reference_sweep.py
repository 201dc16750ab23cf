"""The prepared sweeps equal the row loops they replaced bit for bit.

:class:`~repro.kernels.ForwardSweep` moves everything that depends only
on the matrix (CSR copy, upper triangle, diagonal, per-row lower
slices) out of the per-operand loop; :class:`~repro.kernels.BackwardSweep`
does the same for the backward half (per-row off-diagonal values,
columns and pivots).  Degraded serving answers and perfbench's answer
gate both take their expected values from these sweeps, so neither can
catch a wrong one: this file pins them against literal transcriptions
of the original per-call loops instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import list_datasets, load_dataset
from repro.errors import ConfigError
from repro.kernels import (
    BackwardSweep,
    ForwardSweep,
    backward_sweep,
    forward_sweep_vectorized,
)
from repro.kernels.spmv import to_csr
from repro.solvers import ReferenceBackend, pcg

SCALE = 0.05


def masked_row_loop(matrix, b, x):
    """The forward sweep as it was computed before it was prepared:
    CSR, masks and diagonal rebuilt on every call."""
    csr = to_csr(matrix)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = csr.shape[0]
    rhs = b.copy()
    diag = np.zeros(n, dtype=np.float64)
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    upper = csr.indices > rows
    on_diag = csr.indices == rows
    np.subtract.at(
        rhs, rows[upper], csr.data[upper] * x[csr.indices[upper]]
    )
    diag[rows[on_diag]] = csr.data[on_diag]
    if np.any(diag == 0.0):
        bad = int(np.nonzero(diag == 0.0)[0][0])
        raise ConfigError(f"zero diagonal at row {bad}")
    out = np.empty(n, dtype=np.float64)
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for j in range(n):
        lo, hi = int(indptr[j]), int(indptr[j + 1])
        cols = indices[lo:hi]
        vals = data[lo:hi]
        mask = cols < j
        acc = float(np.dot(vals[mask], out[cols[mask]])) if mask.any() else 0.0
        out[j] = (rhs[j] - acc) / diag[j]
    return out


def backward_row_loop(matrix, b, x):
    """The backward sweep as the golden row loop computed it before it
    was prepared: every row fetched through ``csr.row`` on every call,
    summed left to right in numpy scalars."""
    csr = to_csr(matrix)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    for j in range(csr.shape[0] - 1, -1, -1):
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


class RowLoopBackend(ReferenceBackend):
    """The reference backend with both sweeps run as the old loops."""

    def precondition(self, r):
        zero = np.zeros(self.n)
        z = masked_row_loop(self.csr, r, zero)
        return backward_row_loop(self.csr, r, z)


def _operands(n, seed):
    """Several (b, x) pairs: serving's (rhs, 0) and nonzero starts."""
    rng = np.random.default_rng(seed)
    pairs = [(rng.normal(size=n), np.zeros(n)) for _ in range(3)]
    pairs += [(rng.normal(size=n), rng.normal(size=n)) for _ in range(2)]
    return pairs


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", list_datasets("scientific"))
def test_prepared_sweep_matches_row_loop_on_every_dataset(name):
    matrix = load_dataset(name, SCALE).matrix
    sweep = ForwardSweep(matrix)
    backend = ReferenceBackend(matrix)
    for b, x in _operands(matrix.shape[0], seed=len(name)):
        want = masked_row_loop(matrix, b, x)
        assert _same_bits(sweep(b, x), want)
        assert _same_bits(backend.forward_sweep(b, x), want)
        assert _same_bits(forward_sweep_vectorized(matrix, b, x), want)


@pytest.mark.parametrize("name", list_datasets("scientific"))
def test_prepared_backward_sweep_matches_row_loop_on_every_dataset(name):
    matrix = load_dataset(name, SCALE).matrix
    sweep = BackwardSweep(matrix)
    backend = ReferenceBackend(matrix)
    for b, x in _operands(matrix.shape[0], seed=len(name)):
        want = backward_row_loop(matrix, b, x)
        assert _same_bits(sweep(b, x), want)
        assert _same_bits(backend.backward_sweep(b, x), want)
        assert _same_bits(backward_sweep(matrix, b, x), want)
        assert _same_bits(backend.precondition(b),
                          RowLoopBackend(matrix).precondition(b))


@pytest.mark.parametrize("name", ["stencil27", "af_shell", "economics",
                                  "ship_003"])
def test_reference_solve_answers_match_row_loops(name):
    # Serving's degraded pcg answer: 25 preconditioned iterations.
    matrix = load_dataset(name, SCALE).matrix
    for b, _ in _operands(matrix.shape[0], seed=len(name))[:2]:
        got = pcg(ReferenceBackend(matrix), b, tol=1e-6, max_iter=25)
        want = pcg(RowLoopBackend(matrix), b, tol=1e-6, max_iter=25)
        assert _same_bits(got.x, want.x)
        assert got.iterations == want.iterations


@st.composite
def dominant_systems(draw):
    """A random sparse, strictly diagonally dominant matrix."""
    n = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return a, seed


@settings(max_examples=60, deadline=None)
@given(dominant_systems())
def test_prepared_sweep_matches_row_loop_on_generated_matrices(system):
    a, seed = system
    sweep = ForwardSweep(a)
    backward = BackwardSweep(a)
    for b, x in _operands(a.shape[0], seed):
        assert _same_bits(sweep(b, x), masked_row_loop(a, b, x))
        assert _same_bits(backward(b, x), backward_row_loop(a, b, x))


def test_zero_diagonal_raises_naming_the_row():
    a = np.array([[2.0, 1.0, 0.0],
                  [1.0, 3.0, 1.0],
                  [0.0, 1.0, 0.0]])
    with pytest.raises(ConfigError, match="zero diagonal at row 2"):
        ForwardSweep(a)
    with pytest.raises(ConfigError, match="zero diagonal at row 2"):
        forward_sweep_vectorized(a, np.ones(3), np.zeros(3))
    # The backend prepares the sweep on first use, so SpMV still works
    # on a matrix the smoother rejects.
    backend = ReferenceBackend(a)
    assert np.array_equal(backend.spmv(np.ones(3)), a @ np.ones(3))
    with pytest.raises(ConfigError, match="zero diagonal at row 2"):
        backend.precondition(np.ones(3))


def test_backend_prepares_its_sweep_once():
    matrix = load_dataset("stencil27", SCALE).matrix
    backend = ReferenceBackend(matrix)
    r = np.random.default_rng(0).normal(size=matrix.shape[0])
    backend.precondition(r)
    forward, backward = backend.forward_sweep, backend.backward_sweep
    backend.precondition(r)
    assert backend.forward_sweep is forward
    assert backend.backward_sweep is backward


@pytest.mark.parametrize("zero_rows, named", [((2,), 2), ((0,), 0),
                                               ((0, 2), 2)])
def test_backward_zero_diagonal_raises_naming_the_first_row_swept(
        zero_rows, named):
    a = np.array([[2.0, 1.0, 0.0],
                  [1.0, 3.0, 1.0],
                  [0.0, 1.0, 4.0]])
    for j in zero_rows:
        a[j, j] = 0.0
    b, x = np.ones(3), np.zeros(3)
    match = f"zero diagonal at row {named}$"
    with pytest.raises(ConfigError, match=match):
        backward_row_loop(a, b, x)
    with pytest.raises(ConfigError, match=match):
        BackwardSweep(a)
    with pytest.raises(ConfigError, match=match):
        backward_sweep(a, b, x)
    # Prepared on first use, like the forward sweep.
    backend = ReferenceBackend(a)
    with pytest.raises(ConfigError, match=match):
        backend.backward_sweep
