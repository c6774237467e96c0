"""The separable Gram operator: one linear operator for M(a) and its adjoint.

Every density-dependent Gram quantity is linear in the per-cell integrals
K_c[i, j] = integral over cell c of phi_i . conj(phi_j). On a tensor grid
each mode is a product of per-axis factors times a constant q-vector,
phi_i(x) = prod_d f_id(x_d) u_i, and each cell's Gauss rule is the
product of per-axis rules, so the integral factors (sum factorization;
Orszag, J. Comput. Phys. 37, 1980):

    K_c[i, j] = coef_ij prod_d A_d[ij, c_d],   coef_ij = u_i . conj(u_j),

with A_d[ij, c] = sum_{p in c} w_p f_id(p) conj(f_jd(p)) the 1D per-cell
Gram table of axis d (`CellGram`), stored as the packed upper triangle,
one row of cell values per mode pair i <= j (shape (n(n+1)/2, cells on
the axis)). The coefficients scale the rows of the first table once,
B = coef * A_x, and no per-cell array is kept. With A = a.reshape(nx, ny),

    M(a)_ij         = rowsum((B @ A) * A_y)_ij
    form_cells(W)_c = Re((B.T * w) @ A_y)_c

with w_ii = W_ii and w_ij = W_ij + conj(W_ji) for i < j; the two maps are
adjoint: a @ form_cells(W) = Re sum_ij W_ij M(a)_ij. On one axis they
are B @ a and Re(w @ B): there B is the per-cell tensor itself, and
with coef = 1, as on both 1D models, bitwise the unfactored tensor, so
every 1D result is too. All are plain numpy calls, deterministic for a
fixed numpy/BLAS build.

A table is reduced from a block source, the factor values of one block of
cells at a time: two buffers of at most BLOCK_BYTES each hold one block's
transposed values and their weighted conjugate, and the values are
evaluated straight into the first. Cells stay the contiguous inner axis
of every block, so each table entry gets the same products summed in the
same order as a whole-table reduction, bit for bit. Every per-axis table
of a shipped config is one block.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"     # recorded in the environment line of perfbench/
BLOCK_BYTES = 1 << 20  # bytes per block buffer


class CellGram:
    """Packed per-cell Gram table K of a table of values on a grid.

    The table has shape (nmodes, npts, q) and dtype `dtype`, with
    cell-major point order (pts_per_cell consecutive points per cell), and
    is read through `values(k, p0, p1)`: mode k's values at points p0:p1,
    an array of exactly that dtype and shape (p1 - p0, q), so the copy into
    a block buffer neither drops an imaginary part nor broadcasts. quad_w
    are the point weights. K (shape (n(n+1)/2, ncells), rows i <= j in
    row-major order) holds sum_{p in c} w_p V_i(p) . conj(V_j(p)); it is
    real when no value has a nonzero imaginary part; complex values are
    scanned for one, block by block, before the reduction.
    """

    def __init__(self, values, shape, dtype, quad_w: np.ndarray, pts_per_cell: int):
        n, npts, q = shape
        nc, m = npts // pts_per_cell, pts_per_cell * q
        dtype = np.dtype(dtype)
        # complex values without imaginary parts reduce in real arithmetic
        # too; real values are not scanned
        real = dtype.kind != "c" or not any(
            values(k, c0 * pts_per_cell, c1 * pts_per_cell).imag.any()
            for c0, c1 in _blocks(nc, n * m * dtype.itemsize) for k in range(n))
        if real:
            dtype = np.dtype(np.float64)
        iu, ju = np.triu_indices(n)
        self.K = np.empty((len(iu), nc), dtype=dtype)
        # (n, m, cells) blocks: the point axis of a cell outermost, so each
        # mode pair reduces m contiguous rows of block cell values
        blocks = _blocks(nc, n * m * dtype.itemsize)
        Xbuf = np.empty((n, m, blocks[0][1]), dtype=dtype)
        Xwbuf = np.empty_like(Xbuf)
        w = np.repeat(quad_w, q).reshape(nc, m).T
        for c0, c1 in blocks:
            X = Xbuf[:, :, :c1 - c0]
            for k in range(n):
                v = values(k, c0 * pts_per_cell, c1 * pts_per_cell)
                np.copyto(X[k], (v.real if real else v).reshape(c1 - c0, m).T)
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


class SeparableGram:
    """M(a) and its adjoint from per-axis tables and per-pair coefficients.

    axes[d] is axis d's packed CellGram table (shape (n(n+1)/2, shape[d]))
    of n modes on a grid of shape cells per axis (one or two axes, C
    order); u (shape (n, q)) holds the modes' constant vectors.
    coef_ij = u_i . conj(u_j) is real when no coefficient has a nonzero
    imaginary part. `tables` holds the first table scaled by coef and the
    others as given; M(a) is real when they all are.
    """

    def __init__(self, axes, u: np.ndarray, shape: tuple[int, ...]):
        n = len(u)
        iu, ju = np.triu_indices(n)
        coef = np.einsum("pk,pk->p", u[iu], u[ju].conj())
        if np.iscomplexobj(coef):
            coef[iu == ju] = coef[iu == ju].real     # |u_i|^2 is real
            if not coef.imag.any():
                coef = coef.real
        if not 1 <= len(axes) <= 2:
            raise ValueError(f"a separable Gram operator has one or two axes, not {len(axes)}")
        A0, *rest = axes
        self.n, self.shape = n, shape
        self.tables = (coef[:, None] * A0, *rest)
        self._real = all(np.isrealobj(A) for A in self.tables)
        self._up = iu * n + ju
        self._lo = ju * n + iu
        self._off = np.flatnonzero(iu != ju)

    def mass(self, a: np.ndarray) -> np.ndarray:
        """Exactly Hermitian M_ij = sum_c a_c K_c[i, j]; real symmetric
        (float64) when every table is real, complex Hermitian otherwise."""
        B, *rest = self.tables
        mp = np.einsum("pc,pc->p", B @ a.reshape(self.shape), rest[0]) if rest else B @ a
        M = np.empty(self.n * self.n, dtype=mp.dtype)
        M[self._lo] = mp.conj()
        M[self._up] = mp
        return M.reshape(self.n, self.n)

    def form(self, W: np.ndarray) -> np.ndarray:
        """Per-cell real form Re sum_ij W_ij K_c[i, j], shape (ncells,)."""
        Wf = np.asarray(W).reshape(-1)
        w = Wf[self._up]
        w[self._off] += np.conj(Wf[self._lo[self._off]])
        if self._real:
            w = w.real
        B, *rest = self.tables
        F = (B.T * w) @ rest[0] if rest else w @ B
        return F.real.reshape(-1)


def _blocks(nc: int, cell_bytes: int) -> list[tuple[int, int]]:
    """Cell ranges [c0, c1) of at most BLOCK_BYTES of values each.

    At least two cells wide, since einsum sums a one-cell buffer's
    contiguous point axis in another order; cell_bytes is one cell's
    values over all modes.
    """
    B = min(nc, max(2, BLOCK_BYTES // cell_bytes))
    return [(c0, min(c0 + B, nc)) for c0 in range(0, nc, B)]
