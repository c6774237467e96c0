"""Concave spectral maximization over relaxed densities.

Frank-Wolfe with the exact bathtub linear oracle is the primary driver:
iterates stay feasible, the duality gap certifies suboptimality, and the
oracle is closed-form. Eigenvalue clusters (nonsmooth points) use the
uniform average of the cluster supergradients; gap stagnation triggers a
seeded restart from a perturbation of the best iterate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DensityField, Grid, SpatialFunction, bathtub,
                       project_box_mean)
from .gram import (CLUSTER_ETA, GramForm, get_basis, mass_matrix,
                   min_eig_cluster, reduce_min_eig)
from .spectral import OVERFLOW_THETA, SpectralModel, gamma_factored

STALL_WINDOW = 50           # iterations of gap stagnation before a restart
MAX_RESTARTS = 3            # seeded restarts per FW solve
LINE_SEARCH_ITERS = 60      # golden-section steps per FW line search
ETA_GAP_FACTOR = 1.5        # eta = factor * gap for the auto nu_T (admissible: (1, 2))


@dataclass
class OptResult:
    a_star: DensityField
    value: float
    fw_gap: float
    iterations: int
    history: list[tuple[int, float, float]] = field(default_factory=list)
    degenerate_flag: bool = False
    converged: bool = True

    def as_dict(self) -> dict:
        """JSON-ready summary (the density itself ships as CSV)."""
        return {"value": self.value, "fw_gap": self.fw_gap,
                "iterations": self.iterations, "converged": self.converged,
                "degenerate": self.degenerate_flag}


@dataclass
class Certificate:
    T: float
    nu: float
    epsilon: float
    branches: tuple[float, float, float]
    lower_bound: float
    upper_bound: float
    sigma1_a1: float

    def as_dict(self) -> dict:
        return {"T": self.T, "nu": self.nu, "epsilon": self.epsilon,
                "branches": list(self.branches), "lower_bound": self.lower_bound,
                "upper_bound": self.upper_bound, "sigma1_a1": self.sigma1_a1}


class _GramObjective(GramForm):
    """C_T^{(N)} restricted to the segment structure Frank-Wolfe needs.

    The Gram form is linear in the density, so a convex combination of
    densities maps to the same combination of mantissa matrices; the
    line search only ever re-solves the small factored eigenproblem.
    """

    def __init__(self, model: SpectralModel, grid: Grid, T: float, N: int,
                 theta: float = OVERFLOW_THETA):
        super().__init__(model, grid, T, N, theta)
        # weight matrix of the supergradient form on the L-block:
        # Phi_b(x) = sum_ij b_i conj(b_j) tau_ij phi_i(x) conj(phi_j(x));
        # H-block weights underflow (< e^-theta) and are dropped.
        lmask = 2.0 * self.exps <= theta
        E = np.add.outer(self.exps[lmask], self.exps[lmask])
        self.tau_l = np.exp(np.minimum(E, 700.0)) * self.hhat[np.ix_(lmask, lmask)]

    def value_from_mantissa(self, Ghat: np.ndarray) -> float:
        return reduce_min_eig(self.obs(Ghat))

    def value_and_supergradient(self, Ghat: np.ndarray):
        """(value, cellwise Phi averages, cluster size) at one density."""
        lam, B, lmask = min_eig_cluster(self.obs(Ghat))
        return lam, self.basis.cluster_form(B, self.tau_l, lmask), B.shape[1]


def supergradient(model: SpectralModel, grid: Grid, a, T: float, N: int,
                  theta: float = OVERFLOW_THETA) -> SpatialFunction:
    """Nonnegative spatial density Phi with integral(a * Phi) = C_T^{(N)}(a).

    At an eigenvalue cluster the uniform average of the cluster member
    forms is returned (a valid supergradient of the concave objective).
    """
    obj = _GramObjective(model, grid, T, N, theta)
    _, vals, _ = obj.value_and_supergradient(obj.mantissa(a))
    return SpatialFunction(grid, vals)


@dataclass
class OptOptions:
    max_iter: int = 2000
    tol: float = 1e-6
    init: DensityField | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")


def _golden_section(h):
    """Maximize a concave scalar function on [0, 1]."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    c1 = hi - gr * (hi - lo)
    c2 = lo + gr * (hi - lo)
    f1, f2 = h(c1), h(c2)
    for _ in range(LINE_SEARCH_ITERS):
        if f1 < f2:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + gr * (hi - lo)
            f2 = h(c2)
        else:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - gr * (hi - lo)
            f1 = h(c1)
    return 0.5 * (lo + hi)


def _frank_wolfe(obj, grid: Grid, L: float, opts: OptOptions) -> OptResult:
    """Generic FW loop over a _GramObjective-like object."""
    rng = np.random.default_rng(opts.seed)
    a = opts.init.values.copy() if opts.init is not None else np.full(grid.ncells, L)
    Ma = obj.mantissa(a)
    best_a, best_val, best_gap = a.copy(), -math.inf, math.inf
    history: list[tuple[int, float, float]] = []
    degenerate = False
    converged = False
    restarts = 0
    stall_anchor = (0, math.inf)     # (iteration, gap) when stagnation window opened
    tentative = False                # restarted run that has not yet beaten best
    it = 0
    while it < opts.max_iter:
        val, f, m = obj.value_and_supergradient(Ma)
        s_field, _ = bathtub(grid, f, L)
        s = s_field.values
        gap = float((s - a) * f @ grid.cell_measures)
        if val >= best_val:
            best_a, best_val, best_gap = a.copy(), val, gap
            tentative = False
            if m > 1:
                degenerate = True
        if not tentative:
            history.append((it, best_val, gap))
        if gap <= opts.tol * max(1.0, abs(val)):
            converged = True
            break
        # stagnation detection: gap not improved by 1% over STALL_WINDOW iters
        anchor_it, anchor_gap = stall_anchor
        stalled = False
        if gap < 0.99 * anchor_gap:
            stall_anchor = (it, gap)
        else:
            stalled = it - anchor_it >= STALL_WINDOW
        if not stalled:
            Ms = obj.mantissa(s)
            theta = _golden_section(
                lambda t: obj.value_from_mantissa(Ma + t * (Ms - Ma)))
            cand = obj.value_from_mantissa(Ma + theta * (Ms - Ma))
            if cand >= val:
                a = a + theta * (s - a)
                Ma = Ma + theta * (Ms - Ma)
                it += 1
                continue
            if tentative:            # failed tentative run: go back to best
                a, Ma = best_a.copy(), obj.mantissa(best_a)
                tentative = False
                it += 1
                continue
        # stalled, or the line search cannot improve (nonsmooth point):
        # restart from a seeded perturbation of the best iterate
        if restarts >= MAX_RESTARTS:
            break
        restarts += 1
        stall_anchor = (it, math.inf)
        noise = rng.uniform(-0.5, 0.5, size=grid.ncells)
        a = project_box_mean(grid, best_a + noise, L).values
        Ma = obj.mantissa(a)
        tentative = True
        it += 1
    return OptResult(DensityField(grid, best_a), best_val, best_gap,
                     iterations=it, history=history,
                     degenerate_flag=degenerate, converged=converged)


def maximize_obs(model: SpectralModel, grid: Grid, L: float, T: float, N: int,
                 opts: OptOptions | None = None,
                 theta: float = OVERFLOW_THETA) -> OptResult:
    """Maximize C_T^{(N)} over the relaxed densities of mean L.

    The returned value is a guaranteed lower estimate of the truncated
    optimum and value + fw_gap an upper estimate (concavity).
    """
    opts = opts or OptOptions()
    obj = _GramObjective(model, grid, T, N, theta)
    return _frank_wolfe(obj, grid, L, opts)


class _Sigma1Objective:
    """lambda_min of the J1 mass matrix as a FW objective."""

    def __init__(self, model: SpectralModel, grid: Grid):
        self.basis = get_basis(model, grid, model.J1)

    def mantissa(self, a) -> np.ndarray:
        return self.basis.mass(a)

    def value_from_mantissa(self, M: np.ndarray) -> float:
        w = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
        return float(w[0])

    def value_and_supergradient(self, M: np.ndarray):
        w, U = np.linalg.eigh(0.5 * (M + M.conj().T))
        lam = float(w[0])
        B = U[:, w <= lam + CLUSTER_ETA * (1.0 + abs(lam))]
        return lam, self.basis.cluster_form(B), B.shape[1]


def maximize_sigma1(model: SpectralModel, grid: Grid, L: float,
                    opts: OptOptions | None = None) -> OptResult:
    """Maximize sigma_1(a) = lambda_min(M_1(a)) over mean-L densities.

    With #J1 = 1 the objective is linear and one bathtub step is exact
    (the result is bitwise the bathtub solution on the same grid).
    """
    opts = opts or OptOptions()
    obj = _Sigma1Objective(model, grid)
    if len(model.J1) == 1:
        basis = obj.basis
        f = basis.form_cell_average(np.ones((1, 1)))
        a, _ = bathtub(grid, f.values.real, L)
        val = float(a.values * f.values.real @ grid.cell_measures)
        return OptResult(a, val, 0.0, 1, [(0, val, 0.0)], False, True)
    res = _frank_wolfe(obj, grid, L, opts)
    # repeated minimal eigenvalue at the optimum marks degeneracy
    w = np.linalg.eigvalsh(obj.mantissa(res.a_star.values))
    if w[1] <= w[0] + CLUSTER_ETA * (1.0 + abs(w[0])):
        res.degenerate_flag = True
    return res


def bang_bang_fraction(a: DensityField, tol: float = 0.01) -> float:
    """Measure fraction of cells with values strictly inside (tol, 1-tol)."""
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must be in (0, 0.5)")
    interior = (a.values > tol) & (a.values < 1.0 - tol)
    return float(interior @ a.grid.cell_measures) / a.grid.measure


def lower_bound_certificate(model: SpectralModel, grid: Grid, a1: DensityField,
                            T: float, nu: float | None = None,
                            L: float | None = None) -> Certificate:
    """Computable lower/upper bounds on the large-time optimum.

    lower = gamma_1(T) * min(nu sigma_1(a1), (1-nu) L gamma_p0 / (2 gamma_1),
    (1-nu)(1-eps) gamma_p0 / gamma_1) with eps = eps_{nu,T,L}; all gamma
    ratios evaluated in factored form. If nu is omitted, nu_T =
    1 - gamma_1 e^{eta T} / gamma_p0 with eta = 1.5 * gap, which must land
    in (0,1) (otherwise T is too small for the auto choice).
    """
    if L is None:
        L = a1.mean()
    lam1 = complex(model.eigenvalues[0])
    lamp = complex(model.eigenvalues[model.p0 - 1])
    g1 = gamma_factored(lam1, T)
    gp = gamma_factored(lamp, T)
    # ratio gamma_1 / gamma_p0 in factored form (always <= 1 here)
    log_ratio = g1.log_abs() - gp.log_abs()
    ratio = math.exp(log_ratio) if log_ratio > -745.0 else 0.0

    if nu is None:
        # 1 - nu_T carried directly (in log form): at large T it underflows
        # next to 1.0, at small T it exceeds 1
        eta = ETA_GAP_FACTOR * model.gap
        log_omn = log_ratio + eta * T
        one_minus_nu = math.exp(log_omn) if log_omn < 0.0 else math.inf
        if not 0.0 < one_minus_nu < 1.0:
            raise ValueError(
                "auto nu_T is not representable inside (0,1) at this T; "
                "pass an explicit nu")
        nu = 1.0 - one_minus_nu
    else:
        if not 0.0 < nu < 1.0:
            raise ValueError("nu must be in (0,1)")
        one_minus_nu = 1.0 - nu

    M1 = mass_matrix(model, grid, a1, model.J1)
    sigma1_a1 = float(np.linalg.eigvalsh(M1.matrix)[0])

    c = (L * one_minus_nu) ** 2
    nu_eff = 1.0 - one_minus_nu
    denom = 16.0 * nu_eff ** 2 * ratio + c
    inv_ratio = math.inf if ratio == 0.0 else 1.0 / ratio
    if denom > 0.0:
        eps = c / denom
        b3 = one_minus_nu * 16.0 * nu_eff ** 2 / denom  # = (1-nu)(1-eps)/ratio, total
    else:                       # both underflow: eps -> 1 faster than ratio -> 0
        eps = 1.0
        b3 = math.inf
    b1 = nu_eff * sigma1_a1
    b2 = one_minus_nu * L * inv_ratio / 2.0
    gamma1 = float(g1.value().real)
    lower = gamma1 * min(b1, b2, b3)
    upper = gamma1 * sigma1_a1
    return Certificate(T, nu, eps, (b1, b2, b3), lower, upper, sigma1_a1)
