"""The spectral limit problem: sigma_1 evaluation, level-set solution,
KKT verification, quantitative-bathtub constant estimation, tube-measure
linearity, and the Cesaro mean driving the small-time limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DensityField, Grid, SpatialFunction, bathtub,
                       cell_average, l1_distance, level_threshold,
                       project_box_mean, tube_measure)
from .gram import CLUSTER_ETA, get_basis, mass_matrix
from .optimize import OptOptions, maximize_sigma1
from .spectral import SpectralModel


@dataclass
class LimitSolution:
    a1: DensityField
    mu_star: float
    psi: SpatialFunction
    alphas: np.ndarray
    degenerate: bool
    sigma1_value: float


def sigma1(model: SpectralModel, grid: Grid, a) -> float:
    """Smallest eigenvalue of the J1-block mass matrix."""
    M = mass_matrix(model, grid, a, model.J1)
    return float(np.linalg.eigvalsh(M.matrix)[0])


def limit_set(model: SpectralModel, grid: Grid, L: float,
              opts: OptOptions | None = None) -> LimitSolution:
    """Solve the limit problem and reconstruct its level-set structure.

    #J1 = 1: Psi = |phi_1|^2 and one bathtub step is the exact solution.
    #J1 > 1: maximize sigma_1, rebuild Psi from the minimal eigen-cluster
    of M_1(a1) with uniform weights, re-bathtub, and flag degeneracy when
    that changes sigma_1 or the optimum has a repeated eigenvalue.
    """
    basis = get_basis(model, grid, model.J1)
    if len(model.J1) == 1:
        psi = basis.form_cell_average(np.ones((1, 1)))
        psi = SpatialFunction(grid, psi.values.real)
        a1, _ = bathtub(grid, psi.values, L)
        mu = level_threshold(grid, psi, L)   # sub-cell refinement of the quantile
        val = float(a1.values * psi.values @ grid.cell_measures)
        return LimitSolution(a1, mu, psi, np.ones(1), False, val)

    res = maximize_sigma1(model, grid, L, opts)
    M = mass_matrix(model, grid, res.a_star, model.J1).matrix
    w, U = np.linalg.eigh(M)
    B = U[:, w <= w[0] + CLUSTER_ETA * (1.0 + abs(w[0]))]
    m = B.shape[1]
    alphas = np.full(m, 1.0 / m)
    psi = SpatialFunction(grid, basis.cluster_form(B))
    a_re, _ = bathtub(grid, psi.values, L)
    rng_psi = float(psi.values.max() - psi.values.min())
    mu = level_threshold(grid, psi, L) if rng_psi > 1e-12 else float(psi.values.mean())
    degenerate = bool(res.degenerate_flag or m > 1)
    s_orig = float(np.linalg.eigvalsh(M)[0])
    s_re = sigma1(model, grid, a_re)
    if abs(s_re - s_orig) > 1e-8 * (1.0 + abs(s_orig)):
        degenerate = True
    elif l1_distance(a_re, res.a_star) > 0.1:
        degenerate = True        # distinct maximizers with equal value
    a_final = a_re if s_re >= s_orig else res.a_star
    return LimitSolution(a_final, mu, psi, alphas, degenerate,
                         max(s_re, s_orig))


@dataclass
class KKTReport:
    min_inside_minus_mu: float
    mu_minus_max_outside: float
    tol: float
    passed: bool


def kkt_check(model: SpectralModel, grid: Grid, sol: LimitSolution,
              tol: float = 1e-3, tol_kkt: float | None = None) -> KKTReport:
    """Level-set optimality: Psi >= mu* on {a1 ~ 1} and Psi <= mu* outside.

    Cells whose interpolated Psi range straddles mu* sit inside the
    discretization uncertainty band and are excluded from the margins;
    a solution without any decided inside/outside cells (no level
    structure, e.g. a == L) fails.
    """
    from .geometry import _cell_value_ranges

    psi = sol.psi.values
    if tol_kkt is None:
        tol_kkt = 1e-6 * max(float(psi.max() - psi.min()), 1e-300)
    inside = sol.a1.values > 1.0 - tol
    outside = sol.a1.values < tol
    if not inside.any() or not outside.any():
        return KKTReport(-math.inf, -math.inf, tol_kkt, False)
    clo, chi = _cell_value_ranges(grid, psi)
    decided = (clo >= sol.mu_star) | (chi <= sol.mu_star)
    ins = inside & decided
    out = outside & decided
    lo = float(psi[ins].min() - sol.mu_star) if ins.any() else math.inf
    hi = float(sol.mu_star - psi[out].max()) if out.any() else math.inf
    passed = lo >= -tol_kkt and hi >= -tol_kkt
    return KKTReport(lo, hi, tol_kkt, passed)


def _shift_density(grid: Grid, vals: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Shift a cellwise profile by h along one axis (linear cell mixing).

    Exact overlap fractions for indicators whose boundary lies on cell
    edges; mass-preserving on uniform tensor grids (periodic wrap).
    """
    n = grid.shape[axis]
    lo, hi = grid.domain.bounds[axis]
    cell = (hi - lo) / n
    k = int(math.floor(h / cell))
    frac = h / cell - k
    arr = vals.reshape(grid.shape)
    a_k = np.roll(arr, k, axis=axis)
    a_k1 = np.roll(arr, k + 1, axis=axis)
    return ((1.0 - frac) * a_k + frac * a_k1).reshape(-1)


@dataclass
class KEstimate:
    k_hat: float
    family_mins: dict = field(default_factory=dict)
    n_used: int = 0
    manifest: dict = field(default_factory=dict)


def estimate_bathtub_constant(model: SpectralModel, grid: Grid, sol: LimitSolution,
                              n_samples: int = 1000, seed: int = 0,
                              families: tuple[str, ...] = ("slide", "bathtub", "project"),
                              ) -> KEstimate:
    """Sampled lower envelope of (sigma1(a1) - sigma1(a)) / ||a - a1||_1^2.

    Families: slid level sets, bathtub sets of random smooth score
    functions, and feasibility-projected random perturbations of a1.
    Deterministic given the seed; degenerate solutions are rejected
    (the quantitative inequality has no content there).
    """
    if sol.degenerate:
        raise ValueError("bathtub-constant estimate needs a non-degenerate solution")
    rng = np.random.default_rng(seed)
    L = sol.a1.mean()
    s1 = sol.sigma1_value
    a1 = sol.a1.values
    diam = min(hi - lo for lo, hi in grid.domain.bounds)

    def sample(kind: str):
        if kind == "slide":
            axis = int(rng.integers(grid.dim))
            h = float(rng.uniform(0.2, 30.0)) * (diam / grid.shape[axis])
            return _shift_density(grid, a1, h, axis)
        if kind == "bathtub":
            # random low-frequency score: a few modes with random weights
            nmodes = 4
            coef = rng.standard_normal(nmodes)
            score = np.zeros(grid.ncells)
            for k in range(nmodes):
                for d in range(grid.dim):
                    lo, hi = grid.domain.bounds[d]
                    x = (grid.centers[:, d] - lo) / (hi - lo)
                    score += coef[k] * np.cos((k + 1) * np.pi * x + rng.uniform(0, 2 * np.pi))
            return bathtub(grid, score, L)[0].values
        if kind == "project":
            scale = float(rng.uniform(0.05, 0.8))
            noise = rng.standard_normal(grid.ncells) * scale
            return project_box_mean(grid, a1 + noise, L).values
        raise ValueError(f"unknown sampler family {kind!r}")

    mins: dict[str, float] = {}
    used = 0
    for i in range(n_samples):
        kind = families[i % len(families)]
        a = sample(kind)
        d1 = float(np.abs(a - a1) @ grid.cell_measures)
        if d1 < 1e-9:
            continue
        drop = s1 - sigma1(model, grid, a)
        ratio = drop / d1 ** 2
        used += 1
        if kind not in mins or ratio < mins[kind]:
            mins[kind] = ratio
    k_hat = min(mins.values())
    manifest = {"n_samples": n_samples, "seed": seed, "families": list(families)}
    return KEstimate(float(k_hat), mins, used, manifest)


def sliding_ratio(model: SpectralModel, grid: Grid, sol: LimitSolution,
                  h: float, axis: int = 0) -> float:
    """Quadratic-drop ratio of the slid level set at shift h."""
    a_h = _shift_density(grid, sol.a1.values, h, axis)
    d1 = float(np.abs(a_h - sol.a1.values) @ grid.cell_measures)
    drop = sol.sigma1_value - sigma1(model, grid, a_h)
    return drop / d1 ** 2


def tube_linearity(model: SpectralModel, grid: Grid, sol: LimitSolution,
                   deltas=None) -> tuple[float, float]:
    """Least-squares slope of tube_measure(delta) vs delta, plus residual.

    The delta range defaults to [4 h max|Psi'|, 0.1 range(Psi)] where h is
    the cell size; a constant Psi (no level structure) is rejected.
    """
    psi = sol.psi.values
    rng_psi = float(psi.max() - psi.min())
    if rng_psi <= 1e-12 * max(1.0, abs(float(psi.max()))):
        raise ValueError("Psi has no level structure (degenerate)")
    if deltas is None:
        h = max((hi - lo) / n for (lo, hi), n in zip(grid.domain.bounds, grid.shape))
        arr = psi.reshape(grid.shape)
        axes = [lo + (hi - lo) / n * (np.arange(n) + 0.5)
                for (lo, hi), n in zip(grid.domain.bounds, grid.shape)]
        grads = np.gradient(arr, *axes)
        gmax = float(np.max(np.abs(grads)))
        lo_d = 4.0 * h * gmax
        hi_d = 0.1 * rng_psi
        if lo_d >= hi_d:
            lo_d = hi_d / 10.0
        deltas = np.geomspace(lo_d, hi_d, 12)
    deltas = np.asarray(deltas, dtype=float)
    meas = np.array([tube_measure(grid, sol.psi, sol.mu_star, d) for d in deltas])
    m_hat = float((meas @ deltas) / (deltas @ deltas))   # through-origin LS
    resid = float(np.max(np.abs(meas - m_hat * deltas) / (m_hat * deltas)))
    return m_hat, resid


def cesaro_mean(model: SpectralModel, grid: Grid, N: int) -> SpatialFunction:
    """(1/N) sum_{j<=N} |phi_j|^2 as cellwise averages."""
    if not 1 <= N <= model.n_max:
        raise ValueError(f"N must be in 1..{model.n_max}")
    # only the diagonal of the Gram tensor: evaluate |phi_j|^2 directly
    # rather than build an N(N+1)/2-row mode basis for one query
    def density(x):
        return sum(np.sum(np.abs(model.phi(j, x)) ** 2, axis=1)
                   for j in range(1, N + 1)) / N

    return SpatialFunction(grid, cell_average(grid, density))
