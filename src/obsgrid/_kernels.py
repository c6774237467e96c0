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

K is reduced from a block source, the mode values of one block of cells
at a time, so no whole mode table is ever held: two buffers of at most
BLOCK_BYTES each hold one block's transposed values and their weighted
conjugate, and the values are evaluated straight into the first. Cells
stay the contiguous inner axis of every block, so each entry of K gets
the same products summed in the same order as a whole-table reduction,
bit for bit. A table of at most BLOCK_BYTES (every shipped 1D config, and
the 0.66 MB single-mode table of the 96x96 limit config) is one block.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"     # recorded in the environment line of perfbench/
# bytes per block buffer; at least the 0.66 MB single-mode table of the
# 96x96 limit grid, whose peak RSS reads higher when split into blocks
BLOCK_BYTES = 1 << 20


class CellGram:
    """Packed per-cell Gram tensor of a table of mode values on a grid.

    The table has shape (nmodes, npts, q) and dtype `dtype`, with
    cell-major point order (pts_per_cell consecutive points per cell), and
    is read through `values(k, p0, p1)`: mode k's values at points p0:p1,
    an array of exactly that dtype and shape (p1 - p0, q), so the copy into
    a block buffer neither drops an imaginary part nor broadcasts. quad_w
    are the point weights. K is real when no value has a nonzero imaginary
    part; complex values are scanned for one, block by block, before the
    reduction.
    """

    def __init__(self, values, shape, dtype, quad_w: np.ndarray, pts_per_cell: int):
        n, npts, q = shape
        nc, m = npts // pts_per_cell, pts_per_cell * q
        dtype = np.dtype(dtype)
        # complex values without imaginary parts (coupled_rect_2d with a
        # real u) reduce in real arithmetic too; real values are not scanned
        real = dtype.kind != "c" or not any(
            values(k, c0 * pts_per_cell, c1 * pts_per_cell).imag.any()
            for c0, c1 in _blocks(nc, n * m * dtype.itemsize) for k in range(n))
        if real:
            dtype = np.dtype(np.float64)
        iu, ju = np.triu_indices(n)
        self.n = n
        self.K = np.empty((len(iu), nc), dtype=dtype)
        # (n, m, cells) blocks: the point axis of a cell outermost, so each
        # mode pair reduces m contiguous rows of block cell values
        blocks = _blocks(nc, n * m * dtype.itemsize)
        Xbuf = np.empty((n, m, blocks[0][1]), dtype=dtype)
        Xwbuf = w = None
        for c0, c1 in blocks:
            X = Xbuf[:, :, :c1 - c0]
            for k in range(n):
                v = values(k, c0 * pts_per_cell, c1 * pts_per_cell)
                np.copyto(X[k], (v.real if real else v).reshape(c1 - c0, m).T)
            if Xwbuf is None:
                # allocated once the first block holds its values: the peak
                # RSS of the 96x96 limit run reads lower in this order
                Xwbuf = np.empty_like(Xbuf)
                w = np.repeat(quad_w, q).reshape(nc, m).T
            Xw = Xwbuf[:, :, :c1 - c0]
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


def _blocks(nc: int, cell_bytes: int) -> list[tuple[int, int]]:
    """Cell ranges [c0, c1) of at most BLOCK_BYTES of values each.

    At least two cells wide, since einsum sums a one-cell buffer's
    contiguous point axis in another order; cell_bytes is one cell's
    values over all modes.
    """
    B = min(nc, max(2, BLOCK_BYTES // cell_bytes))
    return [(c0, min(c0 + B, nc)) for c0 in range(0, nc, B)]
