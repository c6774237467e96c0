"""Observability Gram forms: assembly, stabilized smallest eigenvalue,
randomized constant, HUM norm, and the A/B/D diagnostic decomposition.

Overflow policy: every Gram entry is stored as mantissa * e^{e_i + e_j}
with per-mode exponents e_j = Re(lambda_j) T. Modes with 2 e_j > theta
(the H-block) are eliminated by a Schur complement on the mantissa
matrix; the remaining L-block eigenvalue problem is solved through the
factored inverse (lambda_min(D S D) = e^{2 e_min} / lambda_max of the
rescaled inverse), which keeps full relative accuracy where a direct
eigensolve of the reconstructed matrix loses everything to the exponent
spread.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .geometry import DensityField, Grid, SpatialFunction
from .spectral import OVERFLOW_THETA, SpectralModel, tau

CLUSTER_ETA = 1e-8          # relative width of the minimal eigenvalue cluster
TIE_ETA = 1e-12             # relative width of a multiple eigenvalue in line-search slopes


class ContractViolation(ValueError):
    """An operation received input outside its documented contract."""


class ModeBasis:
    """Eigenfunction values of a mode subset at the grid's Gauss nodes.

    Keeps V (nmodes, npts, q) and reduces it once into the per-cell Gram
    tensor (`_kernels.CellGram`), through which every density-dependent
    quantity is one matrix-vector product; reused across all assemblies
    on one (model, grid, modes) triple.
    """

    def __init__(self, model: SpectralModel, grid: Grid, modes):
        self.model = model
        self.grid = grid
        self.modes = tuple(int(j) for j in modes)
        vals = [model.phi(j, grid.quad_x) for j in self.modes]
        self.V = np.ascontiguousarray(np.stack(vals, axis=0))
        self.lams = np.array([model.eigenvalues[j - 1] for j in self.modes])
        self.gram = _kernels.CellGram(self.V, grid.quad_w, grid.pts_per_cell)

    def mass(self, a) -> np.ndarray:
        """Hermitian mass matrix M_ij = integral a phi_i . conj(phi_j)."""
        avals = a.values if isinstance(a, DensityField) else np.asarray(a, dtype=float)
        return self.gram.mass(avals)

    def form_cells(self, W: np.ndarray) -> np.ndarray:
        """Per-cell integrals of the spatial form Re sum_ij W_ij phi_i conj(phi_j)."""
        return self.gram.form(W)

    def form_cell_average(self, W: np.ndarray) -> SpatialFunction:
        vals = self.form_cells(W) / self.grid.cell_measures
        return SpatialFunction(self.grid, vals)

    def cluster_form(self, B: np.ndarray, weights=None, mask=None) -> np.ndarray:
        """Cellwise max(Re form(conj(B B^H) / m * weights), 0) of an eigen-cluster.

        B holds the m cluster eigenvectors of a Hermitian matrix in this
        basis (or in the modes selected by mask). The Rayleigh weights of
        an eigenvector v are b = conj(v), so this is the uniform average
        of the member forms: a supergradient of lambda_min at the cluster.
        """
        W = (B @ B.conj().T).conj() / B.shape[1]
        if weights is not None:
            W = W * weights
        if mask is not None:
            full = np.zeros((len(self.modes), len(self.modes)), dtype=complex)
            full[np.ix_(mask, mask)] = W
            W = full
        return np.maximum(self.form_cell_average(W).values.real, 0.0)


_basis_cache: dict = {}


def get_basis(model: SpectralModel, grid: Grid, modes) -> ModeBasis:
    # id-keys are safe here: each cached ModeBasis keeps its model and grid
    # alive, so their ids cannot be reused while the entry exists
    key = (id(model), id(grid), tuple(modes))
    basis = _basis_cache.get(key)
    if basis is None:
        basis = ModeBasis(model, grid, modes)
        if len(_basis_cache) > 32:
            _basis_cache.clear()
        _basis_cache[key] = basis
    return basis


@dataclass
class MassMatrix:
    indices: tuple[int, ...]
    matrix: np.ndarray   # complex Hermitian


def mass_matrix(model: SpectralModel, grid: Grid, a, I) -> MassMatrix:
    """M_ij = integral a phi_i . conj(phi_j) over the index set I."""
    I = tuple(I)
    if not I:
        raise ValueError("index set must be nonempty")
    return MassMatrix(I, get_basis(model, grid, I).mass(a))


@dataclass
class ObsMatrix:
    """Factored truncated Gram form G_ij = e^{e_i + e_j} Ghat_ij."""

    modes: tuple[int, ...]
    Ghat: np.ndarray          # bounded Hermitian mantissa matrix
    exps: np.ndarray          # per-mode real exponents e_j = Re(lambda_j) T
    theta: float

    @property
    def lblock(self) -> np.ndarray:
        return 2.0 * self.exps <= self.theta

    @property
    def hblock(self) -> np.ndarray:
        return 2.0 * self.exps > self.theta

    def reconstruct(self) -> np.ndarray:
        """Plain G; raises OverflowError if any entry exceeds the double range."""
        E = np.add.outer(self.exps, self.exps)
        if E.max() > 700.0:
            raise OverflowError("Gram entries exceed the double range; use the factored path")
        return np.exp(E) * self.Ghat


class GramForm:
    """The truncated Gram form over modes 1..N at horizon T, linear in a.

    G(a) = D mantissa(a) D with D = diag(e^{e_j}), e_j = Re(lambda_j) T,
    and mantissa(a) = sym(hhat * M(a)), where hhat holds the bounded tau
    mantissas. Built once per (model, grid, T, N); every density then
    costs one mass assembly.
    """

    def __init__(self, model: SpectralModel, grid: Grid, T: float, N: int,
                 theta: float = OVERFLOW_THETA):
        if not 1 <= N <= model.n_max:
            raise ValueError(f"N must be in 1..{model.n_max}")
        if T <= 0:
            raise ValueError("T must be positive")
        self.basis = get_basis(model, grid, tuple(range(1, N + 1)))
        lams = self.basis.lams
        hhat = np.empty((N, N), dtype=complex)
        for i in range(N):
            for j in range(i + 1):
                hhat[i, j] = tau(lams[i], lams[j], T).mantissa
                hhat[j, i] = np.conj(hhat[i, j])
        self.hhat = hhat
        self.exps = lams.real * T
        self.theta = theta

    def mantissa(self, a) -> np.ndarray:
        Ghat = self.hhat * self.basis.mass(a)
        return 0.5 * (Ghat + Ghat.conj().T)

    def obs(self, Ghat: np.ndarray) -> ObsMatrix:
        return ObsMatrix(self.basis.modes, Ghat, self.exps, self.theta)


def assemble(model: SpectralModel, grid: Grid, a, T: float, N: int,
             theta: float = OVERFLOW_THETA) -> ObsMatrix:
    """Truncated Gram form over modes 1..N at horizon T, factored."""
    form = GramForm(model, grid, T, N, theta)
    return form.obs(form.mantissa(a))


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


def _factored_spectrum(obs: ObsMatrix):
    """(lambda_min, eig(C), eigvecs(C), L-block mask, X) of the Gram form.

    The H-block is removed by a Schur complement S = Gll - Glh X on the
    mantissa matrix, X = Ghh^-1 Ghl (ridge-regularized when needed; None
    without an H-block); dropping the e^{-2 e_j} constraint weights of
    stiff modes perturbs the Rayleigh quotient by <= e^{-theta}.
    On the L-block, C = e^{2 e0} D^-1 S^-1 D^-1 with D = diag(e^exps) and
    e0 = min(exps): the eigenvalues of D S D are e^{2 e0} / eig(C) with
    the same eigenvectors, and C is graded downward, so the top of its
    spectrum (the bottom of the Gram form's) carries full relative accuracy.
    """
    lmask = obs.lblock
    if not lmask.any():
        raise OverflowError("T too large for N at this precision; reduce N or T")
    S, X = obs.Ghat, None
    if not lmask.all():
        hmask = ~lmask
        Gll = obs.Ghat[np.ix_(lmask, lmask)]
        Glh = obs.Ghat[np.ix_(lmask, hmask)]
        Ghh = obs.Ghat[np.ix_(hmask, hmask)]
        try:
            X = np.linalg.solve(Ghh, Glh.conj().T)
        except np.linalg.LinAlgError:
            ridge = 1e-14 * max(np.trace(Ghh).real, 1e-300)
            X = np.linalg.solve(Ghh + ridge * np.eye(Ghh.shape[0]), Glh.conj().T)
        S = Gll - Glh @ X
    exps = obs.exps[lmask]
    e0 = float(exps.min())
    w, U = np.linalg.eigh(0.5 * (S + S.conj().T))
    if w[-1] <= 0.0:                 # vanishing form (e.g. a == 0): lambda_min ~ 0
        wc, Uc = np.full(len(w), np.inf), np.eye(len(w), dtype=S.dtype)
    else:
        w = np.maximum(w, w[-1] * 1e-300)  # clamp: singular directions give lambda_min ~ 0
        Sinv = (U / w) @ U.conj().T
        C = Sinv * np.exp(-(np.add.outer(exps, exps) - 2.0 * e0))
        wc, Uc = np.linalg.eigh(0.5 * (C + C.conj().T))
    return float(np.exp(2.0 * e0) / wc[-1]), wc, Uc, lmask, X


def reduce_min_eig(obs: ObsMatrix) -> float:
    """Smallest eigenvalue of the full Gram form from its factored parts."""
    return _factored_spectrum(obs)[0]


class EigCluster(NamedTuple):
    """The smallest eigenvalue of a Hermitian form and its eigen-cluster.

    B holds the m cluster eigenvectors, orthonormal, in the coordinates
    of the form's eigenproblem (for a Gram form: its L-block), lams their
    eigenvalues; lmask selects those modes (None: all of them). Z holds
    the same vectors in the coordinates of the matrix Ghat the form is
    linear in, scaled so that scale * Z^H Ghat Z = diag(lams): for a Gram
    form Z_L = e^{-e0} D B and, on the H-block, the Schur-eliminated
    Z_H = -X Z_L, with scale = e^{2 e0}; no entry overflows for
    2 e_j <= theta.
    """

    lam: float
    lams: np.ndarray
    B: np.ndarray
    lmask: np.ndarray | None
    Z: np.ndarray
    scale: float = 1.0

    def slopes(self, dGhat: np.ndarray) -> tuple[float, float]:
        """One-sided derivatives (phi'(0+), phi'(0-)) of lambda_min along Ghat + t dGhat.

        Envelope theorem: at a simple eigenvalue both are scale * z^H dGhat z.
        Eigenvalues tied within TIE_ETA * (1 + |lambda_min|) are one
        multiple eigenvalue, whose one-sided derivatives are the smallest
        and the largest eigenvalue of the projected direction
        scale * Z^H dGhat Z (Overton, SIAM J. Optim. 1992). The tie is
        tighter than the cluster so that a line search resolves a crossing
        of two eigenvalues to TIE_ETA, not to CLUSTER_ETA.
        """
        Z = self.Z[:, self.lams <= self.lam + TIE_ETA * (1.0 + abs(self.lam))]
        P = Z.conj().T @ dGhat @ Z
        w = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
        return self.scale * float(w[0]), self.scale * float(w[-1])


def min_eig_cluster(obs: ObsMatrix) -> EigCluster:
    """lambda_min of the Gram form with its eigen-cluster.

    The cluster collects eigenvalues within CLUSTER_ETA * (1 + |lambda_min|)
    of the smallest; its eigenvectors (L-block coordinates) come from the
    factored inverse spectrum, so they stay accurate under extreme
    exponent grading.
    """
    lam, wc, Uc, lmask, X = _factored_spectrum(obs)
    e0 = float(obs.exps[lmask].min())
    scale = float(np.exp(2.0 * e0))
    members = wc >= scale / (lam + CLUSTER_ETA * (1.0 + abs(lam)))
    if not members.any():
        members[-1] = True
    B = Uc[:, members]
    Z = np.empty((len(lmask), B.shape[1]), dtype=np.result_type(B, obs.Ghat))
    Z[lmask] = B * np.exp(obs.exps[lmask] - e0)[:, None]
    if X is not None:
        Z[~lmask] = -X @ Z[lmask]
    return EigCluster(lam, scale / wc[members], B, lmask, Z, scale)


def obs_constant(model: SpectralModel, grid: Grid, a, T: float, N: int,
                 theta: float = OVERFLOW_THETA) -> float:
    """Truncated observability constant C_T^{(N)}(a)."""
    return reduce_min_eig(assemble(model, grid, a, T, N, theta))


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


def hum_norm(model: SpectralModel, grid: Grid, a, T: float, N: int,
             theta: float = OVERFLOW_THETA) -> float:
    """HUM operator norm 1 / C_T^{(N)}(a); +inf when the constant vanishes."""
    c = obs_constant(model, grid, a, T, N, theta)
    if c <= 1e-300:
        return math.inf
    return 1.0 / c


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

    obs = assemble(model, grid, a, T, N)
    G = obs.reconstruct()
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


def write_matrix_csv(path, obs: ObsMatrix) -> None:
    """Debug export: rows (i, j, re, im, exponent_i, exponent_j)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["i", "j", "re", "im", "exponent_i", "exponent_j"])
        n = len(obs.modes)
        for i in range(n):
            for j in range(n):
                wr.writerow([obs.modes[i], obs.modes[j],
                             f"{obs.Ghat[i, j].real:.16g}", f"{obs.Ghat[i, j].imag:.16g}",
                             f"{obs.exps[i]:.16g}", f"{obs.exps[j]:.16g}"])
