"""The two kernels of an ADMM iteration: the grid f-update solve and the
shrinkage of the z- and u-updates.

On a row-major grid, (I + rho D'D) X = R is solved by products with the
orthonormal DCT-II matrices up to griddct.DCT_MATRIX_MAX_SIDE per side and by
scipy's pocketfft transforms above it; both are held to a pocketfft oracle
(tests/test_solvers.py holds the solve to SuperLU), in float64 and in the
float32 of the plain ladder's loose rungs; graphs left to SuperLU have no
float32 operators.  The matrix products must leave R alone and give the same
bytes whatever the number of OpenBLAS threads.  The shrinkage splits v into
its clipped part u_new and its soft threshold z_new.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

import tvgo
from tvgo import admm, griddct, solvers
from tvgo.graphs import grid_graph, incidence, path_graph, tree_graph

# both sides of griddct.DCT_MATRIX_MAX_SIDE = 32
GRIDS = [(2, 2), (16, 32), (32, 16), (32, 32), (16, 64), (64, 16), (33, 33)]


def _pocketfft_solve(R, h, w, rho):
    eig = [4.0 * np.sin(np.pi * np.arange(k) / (2 * k)) ** 2 for k in (h, w)]
    denom = 1.0 + rho * (eig[0][:, None] + eig[1][None, :])
    X = sfft.dctn(R.reshape(h, w, -1), norm="ortho", axes=(0, 1)) / denom[:, :, None]
    return sfft.idctn(X, norm="ortho", axes=(0, 1)).reshape(h * w, -1)


# relative error allowed against a float64 oracle, per solve dtype
SOLVE_TOL = {np.float64: 1e-13, np.float32: 2e-6}


@pytest.mark.parametrize("h,w", GRIDS)
@pytest.mark.parametrize("rho", [1e-2, 1.0, 1e2])
def test_grid_solve_matches_pocketfft_oracle(h, w, rho):
    _check_grid_solve(h, w, rho, np.float64)


@pytest.mark.parametrize("h,w", GRIDS)
@pytest.mark.parametrize("rho", [1e-2, 1.0, 1e2])
def test_float32_grid_solve_matches_pocketfft_oracle(h, w, rho):
    _check_grid_solve(h, w, rho, np.float32)


def _check_grid_solve(h, w, rho, dtype):
    """The solve in dtype at 1, 8 and 64 columns, held to the float64
    oracle; the matrix products leave R alone."""
    D = incidence(grid_graph(h, w))
    solve = solvers.Splitting(D).operators(dtype)[2](rho)
    rng = np.random.default_rng(h * 1000 + w)
    for B in (1, 8, 64):
        R = rng.standard_normal((h * w, B)).astype(dtype)
        before = R.copy()
        X = solve(R)
        if max(h, w) <= griddct.DCT_MATRIX_MAX_SIDE:
            assert R.tobytes() == before.tobytes()
        assert X.shape == (h * w, B) and X.flags.c_contiguous and X.dtype == dtype
        ref = _pocketfft_solve(before.astype(np.float64), h, w, rho)
        assert np.linalg.norm(X - ref) <= SOLVE_TOL[dtype] * np.linalg.norm(ref)


# a path and a bushy tree: graphs the solve factory leaves to SuperLU
SUPERLU_GRAPHS = [path_graph(50), tree_graph([max(1, v // 3) for v in range(2, 61)])]


@pytest.mark.parametrize("graph", SUPERLU_GRAPHS, ids=["path", "tree"])
def test_superlu_graphs_have_no_float32_operators(graph):
    # a float32 factor of I + rho D'D turns singular once rho passes ~1e7
    split = solvers.Splitting(incidence(graph))
    assert split.single is None and split.operators(np.float64)[0] is split.D


@pytest.mark.parametrize("h,w", [(2, 2), (33, 33)])
def test_grid_float32_operators_are_read_only_copies_of_d(h, w):
    split = solvers.Splitting(incidence(grid_graph(h, w)))
    D32, Dt32, _ = split.operators(np.float32)
    assert D32.dtype == Dt32.dtype == np.float32
    assert (D32 != split.D).nnz == 0 and (Dt32.T != split.D).nnz == 0
    assert not D32.data.flags.writeable


_SOLVE_BYTES = """
import hashlib
import numpy as np
from tvgo import solvers
from tvgo.graphs import grid_graph, incidence
digest = hashlib.sha256()
for h, w, B, dtype in [(32, 32, 64, np.float64), (16, 32, 64, np.float64),
                       (32, 32, 512, np.float64), (32, 32, 512, np.float32)]:
    D = incidence(grid_graph(h, w))
    solve = solvers.Splitting(D).operators(dtype)[2](0.7)
    R = np.random.default_rng(h + w + B).standard_normal((h * w, B)).astype(dtype)
    digest.update(solve(R).tobytes())
print(digest.hexdigest())
"""


def test_grid_solve_bytes_do_not_depend_on_blas_threads():
    # 32 x 32 at 512 columns is above OpenBLAS's threading threshold, so
    # there the products, float64 and float32, really run on two threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvgo.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _SOLVE_BYTES], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(rows=st.integers(1, 12), cols=st.integers(1, 6), scale=st.floats(1e-3, 1e3),
       zero_k=st.booleans(), on_edge=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_shrink_splits_v_into_clip_and_soft_threshold(rows, cols, scale, zero_k, on_edge, seed):
    rng = np.random.default_rng(seed)
    V0 = rng.standard_normal((rows, cols)) * scale
    k = np.abs(rng.standard_normal(cols)) * scale
    if zero_k:
        k[0] = 0.0
    if on_edge:     # |v| = k exactly, on both sides
        V0[0] = k
        V0[-1] = -k
    V, U = V0.copy(), np.empty_like(V0)
    admm._shrink(V, k, U)
    Z = V
    assert np.all(np.abs(U) <= k)
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(Z + U - V0) <= eps * np.abs(V0))
    soft = np.sign(V0) * np.maximum(np.abs(V0) - k, 0.0)
    assert np.all(np.abs(Z - soft) <= eps * np.abs(V0))
    inside = np.abs(V0) <= k
    assert np.all(Z[inside] == 0.0) and np.array_equal(U[inside], V0[inside])
    if zero_k:
        assert np.all(U[:, 0] == 0.0) and np.array_equal(Z[:, 0], V0[:, 0])

