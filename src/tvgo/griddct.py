"""The orthonormal DCT-II of a row-major h x w grid, which diagonalises the
grid's Laplacian D'D.

The basis vectors are the products C_h[i, r] C_w[j, c] of the rows of the
orthonormal DCT-II matrices of the two axes, with eigenvalues
4 sin^2(pi i / 2h) + 4 sin^2(pi j / 2w) (Strang, "The discrete cosine
transform", SIAM Review 1999), so a solve with any function of D'D is two
transforms and a division.  `splitting` takes the ADMM f-update and
every Laplacian solve on a whole grid with it, those of a pseudoinverse
block whose component is a whole rectangle included; that block's column
norms come from `GridDCT.edge_norms_sq` in closed form.  Up to DCT_MATRIX_MAX_SIDE per side the transforms are four stacked matmuls over
the (h, w, B) view of R, each a k x k by k x B product (k = h or w): at
h, w <= 32 and B <= 64 they stay below OpenBLAS's threading threshold, so
they never compete with an experiment's threads.  Larger grids keep
scipy.fft's dctn/idctn, whose cost grows as hw log(hw) where the products'
grows as hw (h + w).
"""
from __future__ import annotations

import math

import numpy as np
import scipy.fft as sfft

DCT_MATRIX_MAX_SIDE = 32   # largest grid side solved by DCT-II matrix products


def _grid_shape(n: int, ends: np.ndarray) -> tuple[int, int] | None:
    """(h, w) when the m edges with 0-based endpoints ends, on n vertices,
    are the edges of the row-major h x w grid, h, w >= 2.

    A grid has n = hw vertices and m = 2hw - h - w edges, so h and w are the
    roots of t^2 - (2n - m) t + n.  m distinct vertex pairs that are all grid
    edges are then the whole grid: a pair (lo, lo + 1) with lo not at the end
    of a row, or (lo, lo + w).  Edge order and orientation do not matter, and
    a relabelling of the vertices fails (unless it maps the grid to itself).
    Paths (h = 1) are left out.
    """
    s = 2 * n - len(ends)
    r = math.isqrt(max(s * s - 4 * n, 0))
    h, w = (s - r) // 2, (s + r) // 2
    if s <= 0 or r * r != s * s - 4 * n or h < 2:
        return None
    lo, step = ends.min(axis=1), np.abs(ends[:, 1] - ends[:, 0])
    for shape in ((h, w), (w, h)):
        down = step == shape[1]
        right = (step == 1) & (lo % shape[1] != shape[1] - 1)
        # a grid edge's key, lo or n + lo, is its own, so no key repeats
        # unless an edge joins the same pair as another
        if np.all(down | right) and np.bincount(lo + n * down).max() == 1:
            return shape
    return None


def dct_matrix(k: int) -> np.ndarray:
    """The orthonormal DCT-II matrix C of size k: C[i, x] is basis vector i
    at x, and C v the transform of v."""
    return sfft.dct(np.eye(k), norm="ortho", axis=0)


class GridDCT:
    """The transforms of the h x w grid and its Laplacian eigenvalues `eig`,
    in the layout `divide` hands its coefficients to the division: (w, h)
    with the matrix products, (h, w) with scipy.fft.  `axis_eig` holds the
    eigenvalues 4 sin^2(pi i / 2k) of each axis, a k-vertex path, in the
    order of the rows of dct_matrix(k).  `lap_denom` divides by the
    eigenvalues and drops the zero mode, the constant: dividing by it
    applies the Laplacian's pseudoinverse.  Never written after
    construction, so threads may share it."""

    def __init__(self, h: int, w: int):
        self.shape = (h, w)
        self.axis_eig = eig_h, eig_w = [4.0 * np.sin(np.pi * np.arange(k) / (2 * k)) ** 2
                                        for k in (h, w)]
        self.products = max(h, w) <= DCT_MATRIX_MAX_SIDE
        if self.products:
            mats = (dct_matrix(h), dct_matrix(w))
            self.mats = {np.dtype(np.float64): mats,
                         np.dtype(np.float32): tuple(C.astype(np.float32) for C in mats)}
            self.eig = eig_w[:, None] + eig_h[None, :]
        else:
            self.eig = eig_h[:, None] + eig_w[None, :]
        self.lap_denom = self.eig[:, :, None].copy()
        self.lap_denom[0, 0] = np.inf

    def divide(self, R: np.ndarray, denom: np.ndarray) -> np.ndarray:
        """C'(C R / denom) for R of shape (hw, B), C the two-axis DCT-II and
        denom of eig's layout with a trailing axis, in denom's dtype.  The
        matrix products leave R alone and write their third and fourth
        results over their first two; scipy.fft transforms R in place when it
        can."""
        h, w = self.shape
        B = R.shape[1]
        if not self.products:
            X = sfft.dctn(R.reshape(h, w, B), norm="ortho", axes=(0, 1), overwrite_x=True)
            X /= denom
            return sfft.idctn(X, norm="ortho", axes=(0, 1), overwrite_x=True).reshape(h * w, B)
        Ch, Cw = self.mats[denom.dtype]
        X = np.matmul(Cw, R.reshape(h, w, B))                 # along w: (h, w, B)
        Y = np.matmul(Ch, X.transpose(1, 0, 2))               # along h: (w, h, B)
        Y /= denom
        Z = np.matmul(Ch.T, Y, out=X.reshape(w, h, B))
        return np.matmul(Cw.T, Z.transpose(1, 0, 2), out=Y.reshape(h, w, B)).reshape(h * w, B)

    def edge_norms_sq(self, ends: np.ndarray) -> np.ndarray:
        """||L+ (1_head - 1_tail)||^2 for the grid edges with 0-based
        endpoints ends, in any order and orientation.

        In the basis C_h[i, r] C_w[j, c], the edge from (r, c) to (r, c + 1)
        has coefficients C_h[i, r] (C_w[j, c + 1] - C_w[j, c]), so its norm is
        the sum over the modes but the constant of C_h[i, r]^2 (C_w[j, c + 1]
        - C_w[j, c])^2 / (lam_i + mu_j)^2: one product of small matrices per
        edge direction gives every edge's norm.
        """
        h, w = self.shape
        Ch, Cw = dct_matrix(h), dct_matrix(w)
        eig_h, eig_w = self.axis_eig
        eig = eig_h[:, None] + eig_w[None, :]
        eig[0, 0] = np.inf   # the constant, which no edge difference sees
        Q = eig ** -2.0
        across = (Ch ** 2).T @ Q @ np.diff(Cw, axis=1) ** 2      # (h, w - 1)
        down = (np.diff(Ch, axis=1) ** 2).T @ Q @ Cw ** 2        # (h - 1, w)
        # the edge from lo, right or down, in the concatenation of the two
        lo = ends.min(axis=1)
        pos = np.where(np.abs(ends[:, 1] - ends[:, 0]) == w, h * (w - 1) + lo, lo - lo // w)
        return np.concatenate([across.ravel(), down.ravel()])[pos]
