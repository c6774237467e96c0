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

    V (nmodes, npts, q) holds the values as the model returns them
    (complex dtype); it is reduced once into the per-cell Gram tensor
    (`_kernels.CellGram`), through which every density-dependent quantity
    is one matrix-vector product, real when every value of V is real.
    Reused across all assemblies on one (model, grid, modes) triple.
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

    def cluster_form(self, Z: np.ndarray, weights=None) -> np.ndarray:
        """Cellwise max(Re form(conj(Z Z^H) / m * weights), 0) of an eigen-cluster.

        Z holds the m cluster eigenvectors of a Hermitian matrix in this
        basis, each column scaled alike. The Rayleigh weights of an
        eigenvector v are conj(v), so this is the uniform average of the
        member forms: a supergradient of lambda_min at the cluster.
        """
        W = (Z @ Z.conj().T).conj() / Z.shape[1]
        if weights is not None:
            W = W * weights
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
    matrix: np.ndarray   # Hermitian; real symmetric when the modes are real


def mass_matrix(model: SpectralModel, grid: Grid, a, I) -> MassMatrix:
    """M_ij = integral a phi_i . conj(phi_j) over the index set I."""
    I = tuple(I)
    if not I:
        raise ValueError("index set must be nonempty")
    return MassMatrix(I, get_basis(model, grid, I).mass(a))


@dataclass
class ObsMatrix:
    """Factored truncated Gram form G_ij = e^{e_i + e_j} Ghat_ij of one GramForm."""

    form: GramForm
    Ghat: np.ndarray          # bounded Hermitian mantissa matrix

    @property
    def modes(self) -> tuple[int, ...]:
        return self.form.basis.modes

    @property
    def exps(self) -> np.ndarray:
        """Per-mode real exponents e_j = Re(lambda_j) T."""
        return self.form.exps

    @property
    def lblock(self) -> np.ndarray:
        return self.form.lmask

    @property
    def hblock(self) -> np.ndarray:
        return ~self.form.lmask

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
    mantissas. hhat is real when the spectrum is (every imaginary part
    zero), so with real modes every matrix is real.

    Built once per (model, grid, T, N, theta), together with the constants
    of the factored eigensolve: the L-block mask (2 e_j <= theta) and, for
    a nonempty L-block, scale = e^{2 e0} with e0 = min e_l, the grading
    matrix e^{-(e_i + e_j - 2 e0)} of the factored inverse and the row
    scaling e^{e_l - e0} of the eigenvectors. Every density then costs one
    mass assembly. The form is also the Frank-Wolfe objective C_T^{(N)}:
    being linear in the density, it maps a convex combination of densities
    to the same combination of mantissa matrices, so a line search only
    re-solves the small factored eigenproblem (`cluster`).
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
        self.hhat = hhat if hhat.imag.any() else hhat.real.copy()
        self.exps = lams.real * T
        self.lmask = 2.0 * self.exps <= theta
        self.lempty = not self.lmask.any()
        self.lfull = bool(self.lmask.all())
        if not self.lempty:
            el = self.exps[self.lmask]
            e0 = float(el.min())
            self.scale = float(np.exp(2.0 * e0))
            self.grade = np.exp(-(np.add.outer(el, el) - 2.0 * e0))
            self.zrow = np.exp(el - e0)[:, None]

    def mantissa(self, a) -> np.ndarray:
        Ghat = self.hhat * self.basis.mass(a)
        return 0.5 * (Ghat + Ghat.conj().T)

    def obs(self, Ghat: np.ndarray) -> ObsMatrix:
        return ObsMatrix(self, Ghat)

    def cluster(self, Ghat: np.ndarray) -> EigCluster:
        return min_eig_cluster(self.obs(Ghat))

    def supergradient(self, cl: EigCluster) -> np.ndarray:
        # Phi(x) = scale * sum_ij conj(z_i) z_j hhat_ij phi_i(x) conj(phi_j(x))
        # over the full (L and H) eigenvector z, so integral(a Phi) = lam
        return cl.scale * self.basis.cluster_form(cl.Z, self.hhat)


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


class _Factors(NamedTuple):
    """The parts of one factored eigensolve that a cluster keeps.

    C = grade * S^-1 has the ascending eigenvalues wc and eigenvectors Uc;
    X = Ghh^-1 Ghl eliminates the H-block with the Ghh it was solved with
    (both None without an H-block). Sinv is S^-1, None for a vanishing form.
    """

    form: GramForm
    wc: np.ndarray
    Uc: np.ndarray
    X: np.ndarray | None
    Ghh: np.ndarray | None
    Sinv: np.ndarray | None


def _factored_spectrum(obs: ObsMatrix) -> tuple[float, _Factors]:
    """lambda_min of the Gram form and the factors it came from.

    The H-block is removed by a Schur complement S = Gll - Glh X on the
    mantissa matrix, X = Ghh^-1 Ghl (ridge-regularized when needed);
    dropping the e^{-2 e_j} constraint weights of stiff modes perturbs the
    Rayleigh quotient by <= e^{-theta}. Without an H-block S is the
    mantissa matrix itself, exactly Hermitian, as `GramForm.mantissa` and
    every combination of such matrices are. On the L-block,
    C = e^{2 e0} D^-1 S^-1 D^-1 with D = diag(e^exps) and e0 = min(exps):
    the eigenvalues of D S D are e^{2 e0} / eig(C) with the same
    eigenvectors, and C is graded downward, so the top of its spectrum
    (the bottom of the Gram form's) carries full relative accuracy.
    The constants of D and e0 come from `obs.form`.
    """
    form = obs.form
    if form.lempty:
        raise OverflowError("T too large for N at this precision; reduce N or T")
    S, X, Ghh = obs.Ghat, None, None
    if not form.lfull:
        lmask, hmask = form.lmask, ~form.lmask
        Gll = obs.Ghat[np.ix_(lmask, lmask)]
        Glh = obs.Ghat[np.ix_(lmask, hmask)]
        Ghh = obs.Ghat[np.ix_(hmask, hmask)]
        try:
            X = np.linalg.solve(Ghh, Glh.conj().T)
        except np.linalg.LinAlgError:
            ridge = 1e-14 * max(np.trace(Ghh).real, 1e-300)
            Ghh = Ghh + ridge * np.eye(Ghh.shape[0])
            X = np.linalg.solve(Ghh, Glh.conj().T)
        S = Gll - Glh @ X
        S = 0.5 * (S + S.conj().T)
    w, U = np.linalg.eigh(S)
    if w[-1] <= 0.0:                 # vanishing form (e.g. a == 0): lambda_min ~ 0
        wc, Uc, Sinv = np.full(len(w), np.inf), np.eye(len(w), dtype=S.dtype), None
    else:
        w = np.maximum(w, w[-1] * 1e-300)  # clamp: singular directions give lambda_min ~ 0
        Sinv = (U / w) @ U.conj().T
        C = Sinv * form.grade
        wc, Uc = np.linalg.eigh(0.5 * (C + C.conj().T))
    return float(form.scale / wc[-1]), _Factors(form, wc, Uc, X, Ghh, Sinv)


def reduce_min_eig(obs: ObsMatrix) -> float:
    """Smallest eigenvalue of the full Gram form from its factored parts."""
    return _factored_spectrum(obs)[0]


class EigCluster(NamedTuple):
    """The smallest eigenvalue of a Hermitian form and its eigen-cluster.

    lams holds the eigenvalues of the m cluster members (m = len(lams)),
    one of them lam. Z holds their eigenvectors in the coordinates of the
    matrix Ghat the form is linear in, scaled so that
    scale * Z^H Ghat Z = diag(lams); it gives both the line-search
    derivatives (`derivatives`) and the supergradient form
    (`ModeBasis.cluster_form`). For a Gram form G = D Ghat D the L-block
    rows are Z_L = e^{-e0} D B, with B the orthonormal eigenvectors of the
    factored L-block problem, and the H-block rows are the Schur-eliminated
    Z_H = -X Z_L, with scale = e^{2 e0}; no entry overflows for
    2 e_j <= theta. parts holds the factors of that eigensolve, which give
    the curvature; None for other forms.
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
        C = E S^-1 E, E = diag(e^{-(e_l - e0)}) = 1 / zrow. Let z be the
        full cluster vector, h = dGhat z and g = h_L - X^H h_H, the
        first-order change of S applied to z_L. Second-order perturbation
        of mu (Lancaster, Numer. Math. 6, 1964) gives mu' = -mu^2 p with
        p = z^H h, and
            mu'' = 2 mu^2 q + 2 sum_{k < top} |u_k^H y|^2 / (mu - mu_k),
            q = g^H S^-1 g + h_H^H Ghh^-1 h_H,   y = mu E S^-1 g,
        where the Ghh term is the second derivative of the Schur
        complement. So
            phi'' = scale (2 mu'^2 / mu^3 - mu'' / mu^2)
                  = 2 scale (mu p^2 - q - sum_{k < top} |u_k^H E S^-1 g|^2 / (mu - mu_k)).
        Every term lives in the coordinates of C, which keep the exponent
        grading out; the same sum in the coordinates of G loses it.
        """
        f = self.parts
        if f.Sinv is None:
            return None
        form = f.form
        if f.X is None:
            g, q = h, 0.0
        else:
            hh = h[~form.lmask]
            g = h[form.lmask] - f.X.conj().T @ hh
            q = (hh.conj() @ np.linalg.solve(f.Ghh, hh)).real
        Sg = f.Sinv @ g
        q += (g.conj() @ Sg).real
        c = (Sg / form.zrow[:, 0]).conj() @ f.Uc[:, :-1]      # conj(u_k^H E S^-1 g)
        mu = f.wc[-1]
        cross = (c.conj() @ (c / (mu - f.wc[:-1]))).real
        return 2.0 * self.scale * float(mu * p * p - q - cross)


def min_eig_cluster(obs: ObsMatrix) -> EigCluster:
    """lambda_min of the Gram form with its eigen-cluster.

    The cluster collects eigenvalues within CLUSTER_ETA * (1 + |lambda_min|)
    of the smallest; its eigenvectors come from the factored inverse
    spectrum, so they stay accurate under extreme exponent grading.
    """
    lam, f = _factored_spectrum(obs)
    form = obs.form
    # wc ascends, so the cluster (wc >= scale / (lam + width), at least the top) is a suffix
    k = int(np.searchsorted(f.wc, form.scale / (lam + CLUSTER_ETA * (1.0 + abs(lam)))))
    members = slice(min(k, len(f.wc) - 1), None)
    ZL = f.Uc[:, members] * form.zrow
    if f.X is None:
        Z = ZL
    else:
        Z = np.empty((len(form.lmask), ZL.shape[1]), dtype=np.result_type(ZL, obs.Ghat))
        Z[form.lmask] = ZL
        Z[~form.lmask] = -f.X @ ZL
    return EigCluster(lam, form.scale / f.wc[members], Z, form.scale, f)


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
