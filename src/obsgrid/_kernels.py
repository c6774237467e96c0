"""The separable Gram operator: one linear operator for M(a) and its adjoint.

Every density-dependent Gram quantity is linear in the per-cell integrals
K_c[i, j] = integral over cell c of phi_i . conj(phi_j). On a tensor grid
each mode is a product of per-axis factors times a constant q-vector,
phi_i(x) = prod_d f_id(x_d) u_i, and each cell's Gauss rule is the
product of per-axis rules, so the integral factors (sum factorization;
Orszag, J. Comput. Phys. 37, 1980):

    K_c[i, j] = coef_ij prod_d A_d[ij, c_d],   coef_ij = u_i . conj(u_j),

with A_d[ij, c] = sum_{p in c} w_p f_id(p) conj(f_jd(p)) the 1D per-cell
Gram table of axis d (`axis_table`), stored as the packed upper triangle,
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

Each table is reduced in one pass over its axis's factor values, one
einsum per mode row over all cells at once, so each entry sums the same
products in the same order as a reduction of the whole mode table.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"     # recorded in the environment line of perfbench/


def axis_table(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Packed per-cell Gram table of one axis's factor values.

    X (shape (n, g, cells)) holds n modes' values at the g Gauss nodes of
    each cell, cells the contiguous inner axis, and w (shape (g, cells))
    their weights. The table (shape (n(n+1)/2, cells), rows i <= j in
    row-major order) holds sum_p w_p X_i(p) conj(X_j(p)) per cell; it has
    X's dtype, with a real diagonal.
    """
    n, _, nc = X.shape
    Xw = X * w
    np.conj(Xw, out=Xw)
    A = np.empty((n * (n + 1) // 2, nc), dtype=X.dtype)
    k = 0
    for i in range(n):
        np.einsum("mc,jmc->jc", X[i], Xw[i:], out=A[k:k + n - i])
        if np.iscomplexobj(A):
            A[k] = A[k].real    # drop the rounding residue of sum_p w_p |X_i(p)|^2
        k += n - i
    return A


class SeparableGram:
    """M(a) and its adjoint from per-axis tables and per-pair coefficients.

    axes[d] is axis d's packed `axis_table` (shape (n(n+1)/2, shape[d]))
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
