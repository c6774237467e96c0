"""The per-cell Gram tensor: one linear operator for M(a) and its adjoint.

Every density-dependent Gram quantity is linear in the per-cell integrals

    K_c[i, j] = sum_{p in c} w_p V_i(p) . conj(V_j(p)),

so they are reduced once per mode basis and stored as the packed upper
triangle, one row of ncells values per mode pair i <= j (shape
(n(n+1)/2, ncells)), in real dtype when every mode value is real. Then

    M(a)_ij         = sum_c a_c K_c[i, j]           (one GEMV, K @ a, dtype of K)
    form_cells(W)_c = Re sum_ij W_ij K_c[i, j]      (one GEMV, w @ K)

with w_ii = W_ii and w_ij = W_ij + conj(W_ji) for i < j; the two maps are
adjoint: a @ form_cells(W) = Re sum_ij W_ij M(a)_ij. Both are plain numpy
calls, deterministic for a fixed numpy/BLAS build.

K is reduced from the mode table over blocks of cells: two buffers of at
most BLOCK_BYTES each hold one block's transposed table and its weighted
conjugate, so the build never holds a full-size copy of the table beside
it. Cells stay the contiguous inner axis of every block, so each entry of
K gets the same products summed in the same order as a whole-table
reduction, bit for bit. A table of at most BLOCK_BYTES (every shipped 1D
config, and the 0.66 MB single-mode table of the 96x96 limit config) is
one block, with the allocations of a whole-table reduction.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"     # recorded in the environment line of perfbench/
# bytes per block buffer; at least the 0.66 MB single-mode table of the
# 96x96 limit grid, whose peak RSS reads higher when split into blocks
BLOCK_BYTES = 1 << 20


class CellGram:
    """Packed per-cell Gram tensor of a mode table V on a grid.

    V has shape (nmodes, npts, q) with cell-major point order
    (pts_per_cell consecutive points per cell), real or complex; quad_w
    are the point weights. K is real when no value of V has a nonzero
    imaginary part.
    """

    def __init__(self, V: np.ndarray, quad_w: np.ndarray, pts_per_cell: int):
        n, npts, q = V.shape
        nc, m = npts // pts_per_cell, pts_per_cell * q
        # a complex V without imaginary parts (coupled_rect_2d with a real u)
        # reduces in real arithmetic too; a real V is not scanned (V.imag
        # would allocate zeros)
        real = np.isrealobj(V) or not V.imag.any()
        Vc = (V.real if real else V).reshape(n, nc, m)     # a view, not a copy
        w = np.repeat(quad_w, q).reshape(nc, m).T
        iu, ju = np.triu_indices(n)
        self.n = n
        self.K = np.empty((len(iu), nc), dtype=Vc.dtype)
        # (n, m, cells) blocks: the point axis of a cell outermost, so each
        # mode pair reduces m contiguous rows of block cell values; at least
        # two cells wide, since einsum sums a one-cell buffer's contiguous
        # point axis in another order
        B = min(nc, max(2, BLOCK_BYTES // (n * m * Vc.itemsize)))
        Xbuf = np.empty((n, m, B), dtype=Vc.dtype)
        Xwbuf = np.empty_like(Xbuf)
        for c0 in range(0, nc, B):
            c1 = min(c0 + B, nc)
            X, Xw = Xbuf[:, :, :c1 - c0], Xwbuf[:, :, :c1 - c0]
            np.copyto(X, Vc[:, c0:c1].transpose(0, 2, 1))
            np.multiply(X, w[:, c0:c1], out=Xw)
            np.conj(Xw, out=Xw)
            k = 0
            for i in range(n):
                np.einsum("mc,jmc->jc", X[i], Xw[i:], out=self.K[k:k + n - i, c0:c1])
                k += n - i
        if not real:
            # sum_p w_p |V_i(p)|^2 is real; drop the rounding residue
            self.K[iu == ju] = self.K[iu == ju].real
        self._up = iu * n + ju
        self._lo = ju * n + iu
        self._off = np.flatnonzero(iu != ju)

    def mass(self, a: np.ndarray) -> np.ndarray:
        """Exactly Hermitian M_ij = sum_c a_c K_c[i, j], in the dtype of K.

        Real symmetric (float64) when every mode value is real, complex
        Hermitian otherwise.
        """
        mp = self.K @ a
        M = np.empty(self.n * self.n, dtype=mp.dtype)
        M[self._lo] = mp.conj()
        M[self._up] = mp
        return M.reshape(self.n, self.n)

    def form(self, W: np.ndarray) -> np.ndarray:
        """Per-cell real form Re sum_ij W_ij K_c[i, j], shape (ncells,)."""
        Wf = np.asarray(W).reshape(-1)
        w = Wf[self._up]
        w[self._off] += np.conj(Wf[self._lo[self._off]])
        if np.isrealobj(self.K):
            return w.real @ self.K
        return (w @ self.K).real
