"""Observability Gram forms: assembly, stabilized smallest eigenvalue,
randomized constant, and the A/B/D diagnostic decomposition.

Overflow policy: every Gram entry is stored as mantissa * e^{e_i + e_j}
with per-mode exponents e_j = Re(lambda_j) T. The eigenvalue problem is
solved through the graded inverse of the mantissa matrix over all modes
(lambda_min(D Ghat D) = e^{2 e_min} / lambda_max of the rescaled
inverse), which keeps full relative accuracy where a direct eigensolve
of the reconstructed matrix loses everything to the exponent spread;
the grading only underflows, so stiff modes never overflow. A form
whose smallest exponent has 2 e_min > OVERFLOW_THETA is rejected.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

from . import _kernels
from .geometry import Grid
from .spectral import OVERFLOW_THETA, SpectralModel, tau

CLUSTER_ETA = 1e-8          # relative width of the minimal eigenvalue cluster
TIE_ETA = 1e-12             # relative width of a multiple eigenvalue in line-search slopes


class ContractViolation(ValueError):
    """An operation received input outside its documented contract."""


class ModeBasis:
    """A mode subset on a grid, reduced to its separable Gram operator
    (`_kernels.SeparableGram`).

    Each mode is a product of per-axis factors times a constant vector
    (`SpectralModel`), so the basis reduces one per-axis table
    (`_kernels.axis_table`) per grid axis from the factors evaluated once
    at all of that axis's Gauss nodes, plus one coefficient
    u_i . conj(u_j) per mode pair. No per-cell Gram array and no table of
    mode values is kept: on 64x64 cells with 16 modes the two tables hold
    136 x 64 values each. Along each axis every mode's factor has the
    dtype of the first mode's and shape (points,); a factor of another
    dtype or shape raises ContractViolation, so no imaginary part is ever
    dropped and no value is broadcast; so does an empty mode set, a mode
    not an integer in 1..n_max or one named twice (its every mass matrix
    would be singular). Every density-dependent quantity is then two small
    matrix products (one on a 1D grid), real when every factor and vector
    is real. Reused across all assemblies on one (model, grid, modes) triple.
    """

    def __init__(self, model: SpectralModel, grid: Grid, modes):
        self.model = model
        self.grid = grid
        modes = tuple(modes)
        if (not modes or len(set(modes)) < len(modes) or not all(
                isinstance(j, numbers.Integral) and 1 <= j <= model.n_max for j in modes)):
            raise ContractViolation(
                f"modes {modes} of {model.name}: a mode basis needs at least "
                f"one mode, each an integer in 1..{model.n_max} and none twice")
        self.modes = tuple(map(int, modes))
        n, g = len(self.modes), grid.gauss_order
        tables = []
        for d, (t, w) in enumerate(zip(grid.axis_quad_x, grid.axis_quad_w)):
            X = None
            for k, j in enumerate(self.modes):
                v = model.factors(j)[d](t)
                if X is None:       # the first mode's factor fixes the axis dtype
                    X = np.empty((n, g, t.size // g), dtype=v.dtype)
                if v.dtype != X.dtype or v.shape != t.shape:
                    raise ContractViolation(
                        f"mode {j} of {model.name} has axis-{d} factor values "
                        f"of dtype {v.dtype} and shape {v.shape}, mode {self.modes[0]} of "
                        f"{X.dtype} and {t.shape}: all modes of a model share one "
                        "dtype and shape")
                X[k] = v.reshape(-1, g).T
            tables.append(_kernels.axis_table(X, w.reshape(-1, g).T))
        del X, v        # no factor values stay alive while SeparableGram copies a table
        self.lams = np.array([model.eigenvalues[j - 1] for j in self.modes])
        self.gram = _kernels.SeparableGram(tables, model.u[[j - 1 for j in self.modes]],
                                           grid.shape)

    @functools.cached_property
    def V(self) -> np.ndarray:
        """The whole mode table (nmodes, ncells * g^dim, q) at every cell's
        tensor Gauss nodes, cell-major, evaluated on first read.

        Nothing in obsgrid reads it: the Gram operator is built from
        per-axis factors. perfbench/tracer.py reads its shape in traced
        runs; ROADMAP item 7 deletes it.
        """
        g, dim = self.grid.gauss_order, self.grid.dim
        # point (c_0, ..., k_0, ...) in C order: on axis d, node k_d of cell c_d
        ck = np.indices(self.grid.shape + (g,) * dim).reshape(2 * dim, -1)
        x = np.stack([t.reshape(-1, g)[ck[d], ck[dim + d]]
                      for d, t in enumerate(self.grid.axis_quad_x)], axis=1)
        return np.stack([self.model.phi(j, x) for j in self.modes])

    def mass(self, a) -> np.ndarray:
        """Hermitian mass matrix M_ij = integral a phi_i . conj(phi_j)."""
        return self.gram.mass(np.asarray(a, dtype=float))

    def form_cells(self, W: np.ndarray) -> np.ndarray:
        """Per-cell integrals of the spatial form Re sum_ij W_ij phi_i conj(phi_j)."""
        return self.gram.form(W)

    def form_cell_average(self, W: np.ndarray) -> np.ndarray:
        return self.form_cells(W) / self.grid.cell_measures


@functools.lru_cache(maxsize=32)
def get_basis(model: SpectralModel, grid: Grid, modes: tuple[int, ...]) -> ModeBasis:
    """The 32 most recently used bases, keyed by model and grid identity."""
    return ModeBasis(model, grid, modes)


class GramForm:
    """The truncated Gram form over modes 1..N at horizon T, linear in a.

    G(a) = D mantissa(a) D with D = diag(e^{e_j}), e_j = Re(lambda_j) T,
    and mantissa(a) = sym(hhat * M(a)), where hhat holds the bounded tau
    mantissas. hhat is real when the spectrum is (every imaginary part
    zero), so with real modes every matrix is real. `GramForm.sigma1` is
    sigma_1's form over J1: hhat = 1 and e_j = 0, so mantissa(a) = M_J1(a).

    Built once per form, together with the constants of the factored
    eigensolve: scale = e^{2 e0} with e0 = min e_j, the grading matrix
    e^{-(e_i + e_j - 2 e0)} of the inverse and the diagonal
    ediag = e^{-(e_j - e0)} of E, by which the eigenvectors are recovered.
    Every density then costs one mass assembly. The form is the
    Frank-Wolfe objective of both optimizers: being linear in the density,
    it maps a convex combination of densities to the same combination of
    mantissa matrices, so a line search only re-solves the small factored
    eigenproblem (`cluster`). Raises OverflowError when 2 e0 exceeds
    OVERFLOW_THETA: then even the smallest Gram entry e^{2 e0} leaves the
    range kept for plain floats.
    """

    def __init__(self, model: SpectralModel, grid: Grid, T: float, N: int):
        if not 1 <= N <= model.n_max:
            raise ValueError(f"N must be in 1..{model.n_max}")
        basis = get_basis(model, grid, tuple(range(1, N + 1)))
        lams = basis.lams
        hhat = np.empty((N, N), dtype=complex)
        for i in range(N):
            for j in range(i + 1):
                hhat[i, j] = tau(lams[i], lams[j], T).mantissa
                hhat[j, i] = np.conj(hhat[i, j])
        self._graded(basis, hhat if hhat.imag.any() else hhat.real.copy(), lams.real * T)

    @classmethod
    def sigma1(cls, model: SpectralModel, grid: Grid) -> GramForm:
        """sigma_1's form: unit mantissas and zero exponents over the modes of J1."""
        form = cls.__new__(cls)
        n = len(model.J1)
        form._graded(get_basis(model, grid, model.J1), np.ones((n, n)), np.zeros(n))
        return form

    def _graded(self, basis: ModeBasis, hhat: np.ndarray, exps: np.ndarray) -> None:
        self.basis, self.hhat, self.exps = basis, hhat, exps
        e0 = float(exps.min())
        if 2.0 * e0 > OVERFLOW_THETA:
            raise OverflowError("T too large for N at this precision; reduce N or T")
        self.scale = float(np.exp(2.0 * e0))
        self.grade = np.exp(-(np.add.outer(exps, exps) - 2.0 * e0))
        self.ediag = np.exp(-(exps - e0))

    def mantissa(self, a) -> np.ndarray:
        Ghat = self.hhat * self.basis.mass(a)
        return 0.5 * (Ghat + Ghat.conj().T)

    def reconstruct(self, Ghat: np.ndarray) -> np.ndarray:
        """Plain G = D Ghat D; raises OverflowError if any entry exceeds the double range."""
        E = np.add.outer(self.exps, self.exps)
        if E.max() > 700.0:
            raise OverflowError("Gram entries exceed the double range; use the factored path")
        return np.exp(E) * Ghat

    def cluster(self, Ghat: np.ndarray) -> EigCluster:
        return min_eig_cluster(self, Ghat)

    def supergradient(self, cl: EigCluster) -> np.ndarray:
        # Phi(x) = scale * sum_ij conj(z_i) z_j hhat_ij phi_i(x) conj(phi_j(x)),
        # the uniform average over the m cluster vectors z, cellwise max(Phi, 0):
        # at a simple eigenvalue integral(a Phi) = lam
        Z = cl.Z
        W = (Z @ Z.conj().T).conj() / Z.shape[1] * self.hhat
        return cl.scale * np.maximum(self.basis.form_cell_average(W).real, 0.0)


def min_eigpair(H: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a Hermitian matrix.

    Deterministic phase convention: the largest-magnitude component of
    the returned eigenvector is real nonnegative.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
        raise ContractViolation("min_eigpair needs a square matrix of dimension >= 1")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-10 * scale:
        raise ContractViolation("matrix is not Hermitian within 1e-10")
    w, U = np.linalg.eigh(0.5 * (H + H.conj().T))
    v = U[:, 0]
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k]) if v[k] != 0 else 1.0
    v = v / ph
    if not np.iscomplexobj(H):
        v = v.real
    return float(w[0]), v


class _Factors(NamedTuple):
    """The parts of one factored eigensolve that a cluster keeps.

    C = grade * Ghat^-1 has the ascending eigenvalues wc and eigenvectors
    Uc; Sinv is Ghat^-1, None for a vanishing form.
    """

    form: GramForm
    wc: np.ndarray
    Uc: np.ndarray
    Sinv: np.ndarray | None


def _factored_spectrum(form: GramForm, Ghat: np.ndarray) -> tuple[float, _Factors]:
    """lambda_min of the Gram form and the factors it came from.

    With D = diag(e^exps) and e0 = min(exps), C = e^{2 e0} D^-1 Ghat^-1 D^-1
    = grade * Ghat^-1: the eigenvalues of D Ghat D are e^{2 e0} / eig(C)
    with the same eigenvectors, and C is graded downward (the rows of
    stiff modes underflow to 0, they never overflow), so the top of its
    spectrum, the bottom of the Gram form's, carries full relative
    accuracy. Ghat is exactly Hermitian, as `GramForm.mantissa` and every
    combination of such matrices are; its eigenvalues are clamped at
    1e-300 of the largest, so singular directions give lambda_min ~ 0.
    The grading constants come from `form`.
    """
    w, U = np.linalg.eigh(Ghat)
    if w[-1] <= 0.0:                 # vanishing form (e.g. a == 0): lambda_min ~ 0
        wc, Uc, Sinv = np.full(len(w), np.inf), U, None
    else:
        w = np.maximum(w, w[-1] * 1e-300)
        Sinv = (U / w) @ U.conj().T
        C = Sinv * form.grade
        wc, Uc = np.linalg.eigh(0.5 * (C + C.conj().T))
    return float(form.scale / wc[-1]), _Factors(form, wc, Uc, Sinv)


def reduce_min_eig(form: GramForm, Ghat: np.ndarray) -> float:
    """Smallest eigenvalue of the Gram form D Ghat D from its factored parts."""
    return _factored_spectrum(form, Ghat)[0]


class EigCluster(NamedTuple):
    """The smallest eigenvalue of a Hermitian form and its eigen-cluster.

    lams holds the eigenvalues of the m cluster members (m = len(lams)),
    one of them lam. Z holds their eigenvectors in the coordinates of the
    matrix Ghat the form is linear in, scaled so that
    scale * Z^H Ghat Z = diag(lams); it gives both the line-search
    derivatives (`derivatives`) and the supergradient form
    (`GramForm.supergradient`). For a Gram form G = D Ghat D the columns
    are Z = e^{-e0} D B with B the orthonormal eigenvectors of the factored
    problem, and scale = e^{2 e0}; they are recovered without the row
    scaling D, which overflows for stiff modes, from Ghat Z = E B / mu
    (see `min_eig_cluster`). parts holds the factors of that eigensolve,
    which give the curvature; None for other forms.
    """

    lam: float
    lams: np.ndarray
    Z: np.ndarray
    scale: float = 1.0
    parts: _Factors | None = None

    def derivatives(self, dGhat: np.ndarray) -> tuple[float, float, float | None]:
        """(phi'(0+), phi'(0-), phi''(0)) of phi(t) = lambda_min(Ghat + t dGhat).

        Envelope theorem: at a simple eigenvalue both slopes are
        scale * z^H dGhat z. Eigenvalues tied within
        TIE_ETA * (1 + |lambda_min|) are one multiple eigenvalue, whose
        one-sided derivatives are the smallest and the largest eigenvalue
        of the projected direction scale * Z^H dGhat Z (Overton, SIAM J.
        Optim. 1992). The tie is tighter than the cluster so that a line
        search resolves a crossing of two eigenvalues to TIE_ETA, not to
        CLUSTER_ETA. phi'' is None at a multiple eigenvalue, where phi
        has a kink, and without the factors of a factored eigensolve.
        """
        Z = self.Z
        if len(self.lams) > 1:
            Z = Z[:, self.lams <= self.lam + TIE_ETA * (1.0 + abs(self.lam))]
        r = Z.conj().T @ dGhat
        P = r @ Z
        if len(P) == 1:      # bitwise eigvalsh of the 1x1 sym(P)
            p = float(P[0, 0].real)
            d = self.scale * p
            return d, d, None if self.parts is None else self._curvature(p, r[0].conj())
        w = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
        return self.scale * float(w[0]), self.scale * float(w[-1]), None

    def _curvature(self, p: float, h: np.ndarray) -> float | None:
        """phi''(0) at a simple eigenvalue, from the factors of its eigensolve.

        phi = scale / mu with mu = wc[-1], the top eigenvalue of
        C = E S^-1 E, S = Ghat, E = diag(ediag) = diag(e^{-(e_j - e0)}).
        Let z be the cluster vector and h = dGhat z. Second-order
        perturbation of mu (Lancaster, Numer. Math. 6, 1964) gives
        mu' = -mu^2 p with p = z^H h, and
            mu'' = 2 mu^2 q + 2 sum_{k < top} |u_k^H y|^2 / (mu - mu_k),
            q = h^H S^-1 h,   y = mu E S^-1 h.
        So
            phi'' = scale (2 mu'^2 / mu^3 - mu'' / mu^2)
                  = 2 scale (mu p^2 - q - sum_{k < top} |u_k^H E S^-1 h|^2 / (mu - mu_k)).
        Every term lives in the coordinates of C, which keep the exponent
        grading out; the same sum in the coordinates of G loses it.
        """
        f = self.parts
        if f.Sinv is None:
            return None
        Sh = f.Sinv @ h
        q = (h.conj() @ Sh).real
        c = (Sh * f.form.ediag).conj() @ f.Uc[:, :-1]      # conj(u_k^H E S^-1 h)
        mu = f.wc[-1]
        cross = (c.conj() @ (c / (mu - f.wc[:-1]))).real
        return 2.0 * self.scale * float(mu * p * p - q - cross)


def min_eig_cluster(form: GramForm, Ghat: np.ndarray) -> EigCluster:
    """lambda_min of the Gram form with its eigen-cluster.

    The cluster collects eigenvalues within CLUSTER_ETA * (1 + |lambda_min|)
    of the smallest; its eigenvectors come from the factored inverse
    spectrum, so they stay accurate under extreme exponent grading. From
    C B = B diag(mu) follows Ghat Z = E B / mu for Z = e^{-e0} D B, so
    Z = S^-1 R with R = E B / mu, improved by one step of iterative
    refinement Z += S^-1 (R - Ghat Z) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 12). E only underflows, so the components of
    stiff modes are kept, where scaling the rows of B by E^-1 loses them.
    A vanishing form (lambda_min = 0 for every vector) gets the one member
    Z = e_1: mode 1 has the exponent e0, so its form grows least.
    """
    lam, f = _factored_spectrum(form, Ghat)
    if f.Sinv is None:
        return EigCluster(lam, np.zeros(1), np.eye(len(f.wc), 1, dtype=f.Uc.dtype),
                          form.scale, f)
    # wc ascends, so the cluster (wc >= scale / (lam + width), at least the top) is a suffix
    k = int(np.searchsorted(f.wc, form.scale / (lam + CLUSTER_ETA * (1.0 + abs(lam)))))
    members = slice(min(k, len(f.wc) - 1), None)
    R = form.ediag[:, None] * f.Uc[:, members] / f.wc[members]
    Z = f.Sinv @ R
    Z += f.Sinv @ (R - Ghat @ Z)
    return EigCluster(lam, form.scale / f.wc[members], Z, form.scale, f)


def obs_constant(model: SpectralModel, grid: Grid, a, T: float, N: int) -> float:
    """Truncated observability constant C_T^{(N)}(a)."""
    form = GramForm(model, grid, T, N)
    return reduce_min_eig(form, form.mantissa(a))


def obs_constant_rand(model: SpectralModel, grid: Grid, a, T: float, N: int) -> float:
    """Randomized constant: min over modes j <= N of gamma_j(T) integral a |phi_j|^2.

    Compared in log scale so stiff modes never overflow; the returned
    value may be +inf if even the minimizing term is unrepresentable.
    """
    basis = get_basis(model, grid, tuple(range(1, N + 1)))
    M = basis.mass(a)
    diag = np.maximum(M.diagonal().real, 0.0)
    logs = np.empty(N)
    for k in range(N):
        t = tau(basis.lams[k], basis.lams[k], T)
        la = t.log_abs()
        logs[k] = la + (math.log(diag[k]) if diag[k] > 0 else -math.inf)
    k = int(np.argmin(logs))
    if logs[k] == -math.inf:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.exp(logs[k]))


def quadratic_decomposition(model: SpectralModel, grid: Grid, a, T: float, N: int,
                            eps: float, c_head, c_tail) -> tuple[float, float, float]:
    """Split the Gram form into head (J1) / tail blocks plus cross term.

    With b = (sqrt(eps) c_head, sqrt(1-eps) c_tail) the full quadratic
    form equals eps*A + (1-eps)*B + 2 sqrt(eps(1-eps)) D; the identity is
    verified internally against a direct assembly to 1e-10 relative.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    head = [j for j in model.J1 if j <= N]
    tail = [j for j in range(1, N + 1) if j not in model.J1]
    c_head = np.asarray(c_head, dtype=complex)
    c_tail = np.asarray(c_tail, dtype=complex)
    if len(c_head) != len(head) or len(c_tail) != len(tail):
        raise ValueError("coefficient blocks must match J1 and its complement up to N")
    for name, c in (("head", c_head), ("tail", c_tail)):
        if abs(np.linalg.norm(c) - 1.0) > 1e-10:
            raise ValueError(f"{name} coefficients must have unit norm")

    form = GramForm(model, grid, T, N)
    G = form.reconstruct(form.mantissa(a))
    hidx = np.array([j - 1 for j in head])
    tidx = np.array([j - 1 for j in tail])

    def block_form(ci, cj, ii, jj):
        # sum_{i,j} c_i conj(c_j) G_ij over the index blocks
        return np.einsum("i,j,ij->", ci, cj.conj(), G[np.ix_(ii, jj)])

    A = float(block_form(c_head, c_head, hidx, hidx).real)
    B = float(block_form(c_tail, c_tail, tidx, tidx).real)
    D = float(block_form(c_head, c_tail, hidx, tidx).real)

    # internal consistency: the recombined form must match direct assembly
    b = np.zeros(N, dtype=complex)
    b[hidx] = np.sqrt(eps) * c_head
    b[tidx] = np.sqrt(1.0 - eps) * c_tail
    direct = float(np.einsum("i,j,ij->", b, b.conj(), G).real)
    split = eps * A + (1.0 - eps) * B + 2.0 * math.sqrt(eps * (1.0 - eps)) * D
    if abs(direct - split) > 1e-10 * max(1.0, abs(direct)):
        raise AssertionError("A/B/D decomposition failed internal verification")
    return A, B, D

