"""The prepared forward sweep equals the masked row loop bit for bit.

:class:`~repro.kernels.ForwardSweep` moves everything that depends only
on the matrix (CSR copy, upper triangle, diagonal, per-row lower
slices) out of the per-operand loop.  Degraded serving answers and
perfbench's answer gate both take their expected values from that
sweep, so neither can catch a wrong one: this file pins it against a
literal transcription of the original per-call loop instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import list_datasets, load_dataset
from repro.errors import ConfigError
from repro.kernels import ForwardSweep, forward_sweep_vectorized
from repro.kernels.spmv import to_csr
from repro.solvers import ReferenceBackend

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
    for b, x in _operands(a.shape[0], seed):
        assert _same_bits(sweep(b, x), masked_row_loop(a, b, x))


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
    sweep = backend.forward_sweep
    backend.precondition(r)
    assert backend.forward_sweep is sweep
