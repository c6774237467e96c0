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

import numpy as np

from . import _kernels
from .geometry import DensityField, Grid, SpatialFunction
from .spectral import OVERFLOW_THETA, SpectralModel, tau


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


def assemble(model: SpectralModel, grid: Grid, a, T: float, N: int,
             theta: float = OVERFLOW_THETA) -> ObsMatrix:
    """Truncated Gram form over modes 1..N at horizon T, factored."""
    if not 1 <= N <= model.n_max:
        raise ValueError(f"N must be in 1..{model.n_max}")
    if T <= 0:
        raise ValueError("T must be positive")
    modes = tuple(range(1, N + 1))
    basis = get_basis(model, grid, modes)
    M = basis.mass(a)
    lams = basis.lams
    hhat = np.empty((N, N), dtype=complex)
    for i in range(N):
        for j in range(i + 1):
            hhat[i, j] = tau(lams[i], lams[j], T).mantissa
            hhat[j, i] = np.conj(hhat[i, j])
    Ghat = hhat * M
    Ghat = 0.5 * (Ghat + Ghat.conj().T)
    exps = lams.real * T
    return ObsMatrix(modes, Ghat, exps, theta)


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


def _inverse_spectrum(S: np.ndarray, exps: np.ndarray):
    """Eigendecomposition of C = e^{2 min(exps)} D^-1 S^-1 D^-1, D = diag(e^exps).

    The eigenvalues of D S D are e^{2 min(exps)} / eig(C) with the same
    eigenvectors; C is graded downward, so the top of its spectrum (the
    bottom of the Gram form's) carries full relative accuracy.
    """
    w, U = np.linalg.eigh(0.5 * (S + S.conj().T))
    e0 = float(exps.min())
    if w[-1] <= 0.0:                 # vanishing form (e.g. a == 0): lambda_min ~ 0
        wc = np.full(len(w), np.inf)
        return e0, wc, np.eye(len(w), dtype=S.dtype)
    w = np.maximum(w, w[-1] * 1e-300)  # clamp: singular directions give lambda_min ~ 0
    Sinv = (U / w) @ U.conj().T
    C = Sinv * np.exp(-(np.add.outer(exps, exps) - 2.0 * e0))
    wc, Uc = np.linalg.eigh(0.5 * (C + C.conj().T))
    return e0, wc, Uc


def _min_eig_factored(S: np.ndarray, exps: np.ndarray) -> tuple[float, np.ndarray]:
    """lambda_min and eigenvector of D S D, D = diag(e^exps), stably."""
    e0, wc, Uc = _inverse_spectrum(S, exps)
    lam = float(np.exp(2.0 * e0) / wc[-1])
    v = Uc[:, -1]
    k = int(np.argmax(np.abs(v)))
    if v[k] != 0:
        v = v / (v[k] / abs(v[k]))
    return lam, v


def reduce_min_eig(obs: ObsMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Smallest eigenvalue of the full Gram form from its factored parts.

    Returns (lambda_min, eigenvector on the L-block, L-block mask). The
    H-block is removed by a Schur complement on the mantissa matrix
    (ridge-regularized when needed); dropping the e^{-2 e_j} constraint
    weights of stiff modes perturbs the Rayleigh quotient by <= e^{-theta}.
    """
    S, lmask = _schur_lblock(obs)
    lam, v = _min_eig_factored(S, obs.exps[lmask])
    return lam, v, lmask


def _schur_lblock(obs: ObsMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Mantissa matrix on the L-block after Schur elimination of the H-block."""
    lmask = obs.lblock
    if not lmask.any():
        raise OverflowError("T too large for N at this precision; reduce N or T")
    if lmask.all():
        return obs.Ghat, lmask
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
    return 0.5 * (S + S.conj().T), lmask


def min_eig_cluster(obs: ObsMatrix, eta: float = 1e-8):
    """(lambda_min, cluster eigenvector block, L-block mask).

    The cluster collects eigenvalues within eta * (1 + |lambda_min|) of
    the smallest; its eigenvectors (L-block coordinates) come from the
    factored inverse spectrum, so they stay accurate under extreme
    exponent grading.
    """
    S, lmask = _schur_lblock(obs)
    e0, wc, Uc = _inverse_spectrum(S, obs.exps[lmask])
    lam = float(np.exp(2.0 * e0) / wc[-1])
    lam_cut = lam + eta * (1.0 + abs(lam))
    wc_cut = np.exp(2.0 * e0) / lam_cut
    members = wc >= wc_cut
    if not members.any():
        members[-1] = True
    return lam, Uc[:, members], lmask


def obs_constant(model: SpectralModel, grid: Grid, a, T: float, N: int,
                 theta: float = OVERFLOW_THETA) -> float:
    """Truncated observability constant C_T^{(N)}(a)."""
    lam, _, _ = reduce_min_eig(assemble(model, grid, a, T, N, theta))
    return lam


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
