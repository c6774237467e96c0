"""The spectral limit problem: sigma_1 evaluation, level-set solution,
KKT verification, quantitative-bathtub constant estimation, tube-measure
linearity, and the Cesaro mean driving the small-time limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DensityField, Grid, SpatialFunction, _cell_value_ranges,
                       _measure_below, bathtub, cell_average, l1_distance,
                       level_threshold, project_box_mean)
from .optimize import OptOptions, _Sigma1Objective, maximize_sigma1, sigma1
from .spectral import SpectralModel


@dataclass
class LimitSolution:
    a1: DensityField
    mu_star: float
    psi: SpatialFunction
    alphas: np.ndarray
    degenerate: bool
    sigma1_value: float


def limit_set(model: SpectralModel, grid: Grid, L: float,
              opts: OptOptions | None = None) -> LimitSolution:
    """Solve the limit problem and reconstruct its level-set structure.

    Maximize sigma_1, rebuild Psi from the minimal eigen-cluster of
    M_1(a1) with uniform weights, re-bathtub, and flag degeneracy when
    that changes sigma_1 or the optimum has a repeated eigenvalue. With
    #J1 = 1 the cluster is phi_1 alone, so Psi = |phi_1|^2 (cell
    averages) and its bathtub set is the maximizer itself.
    """
    res = maximize_sigma1(model, grid, L, opts)
    obj = _Sigma1Objective(model, grid)
    cl = obj.cluster(obj.mantissa(res.a_star.values))
    m = len(cl.lams)
    alphas = np.full(m, 1.0 / m)
    psi = SpatialFunction(grid, obj.supergradient(cl))
    a_re, _ = bathtub(grid, psi.values, L)
    rng_psi = float(psi.values.max() - psi.values.min())
    mu = level_threshold(grid, psi, L) if rng_psi > 1e-12 else float(psi.values.mean())
    degenerate = bool(res.degenerate_flag or m > 1)
    s_orig = cl.lam
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


KKT_SATURATION = 1e-3      # a1 within this of 1 is inside the set, of 0 outside


def kkt_check(grid: Grid, sol: LimitSolution) -> KKTReport:
    """Level-set optimality: Psi >= mu* on {a1 ~ 1} and Psi <= mu* outside.

    Cells whose interpolated Psi range straddles mu* sit inside the
    discretization uncertainty band and are excluded from the margins;
    a solution without any decided inside/outside cells (no level
    structure, e.g. a == L) fails. Margins pass down to -tol = -1e-6 range(Psi).
    """
    psi = sol.psi.values
    tol_kkt = 1e-6 * max(float(psi.max() - psi.min()), 1e-300)
    inside = sol.a1.values > 1.0 - KKT_SATURATION
    outside = sol.a1.values < KKT_SATURATION
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


SAMPLER_FAMILIES = ("slide", "bathtub", "project")


@dataclass
class KEstimate:
    k_hat: float
    family_mins: dict = field(default_factory=dict)
    n_used: int = 0
    manifest: dict = field(default_factory=dict)


def estimate_bathtub_constant(model: SpectralModel, grid: Grid, sol: LimitSolution,
                              n_samples: int = 1000, seed: int = 0) -> KEstimate:
    """Sampled upper estimate of k = inf (sigma1(a1) - sigma1(a)) / ||a - a1||_1^2.

    k_hat is the smallest ratio over the samples, so k_hat >= k. Sample i
    is drawn from family SAMPLER_FAMILIES[i % 3]: slid level sets, bathtub
    sets of random smooth score functions, and feasibility-projected
    random perturbations of a1.
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
    # per-axis cell coordinates scaled to [0, 1], shaped to broadcast along
    # their axis of a grid.shape array (C order: neighbours along axis d
    # are prod(shape[d+1:]) cells apart)
    axes = []
    for d, (lo, hi) in enumerate(grid.domain.bounds):
        step = int(np.prod(grid.shape[d + 1:]))
        x = grid.centers[:step * grid.shape[d]:step, d]
        axes.append(((x - lo) / (hi - lo)).reshape((-1,) + (1,) * (grid.dim - 1 - d)))

    def sample(kind: str):
        if kind == "slide":
            axis = int(rng.integers(grid.dim))
            h = float(rng.uniform(0.2, 30.0)) * (diam / grid.shape[axis])
            return _shift_density(grid, a1, h, axis)
        if kind == "bathtub":
            # random low-frequency score: a few modes with random weights.
            # Each term depends on one coordinate, so it is evaluated on
            # that axis and added by broadcasting; every cell gets the same
            # values, draws and order of additions as a per-cell evaluation
            nmodes = 4
            coef = rng.standard_normal(nmodes)
            score = np.zeros(grid.shape)
            for k in range(nmodes):
                for d in range(grid.dim):
                    score += coef[k] * np.cos((k + 1) * np.pi * axes[d]
                                              + rng.uniform(0, 2 * np.pi))
            return bathtub(grid, score.reshape(-1), L)[0].values
        # "project"
        scale = float(rng.uniform(0.05, 0.8))
        noise = rng.standard_normal(grid.ncells) * scale
        return project_box_mean(grid, a1 + noise, L).values

    mins: dict[str, float] = {}
    used = 0
    for i in range(n_samples):
        kind = SAMPLER_FAMILIES[i % len(SAMPLER_FAMILIES)]
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
    manifest = {"n_samples": n_samples, "seed": seed}
    return KEstimate(float(k_hat), mins, used, manifest)


def sliding_ratio(model: SpectralModel, grid: Grid, sol: LimitSolution,
                  h: float) -> float:
    """Quadratic-drop ratio of the level set slid by h along the first axis."""
    a_h = _shift_density(grid, sol.a1.values, h)
    d1 = float(np.abs(a_h - sol.a1.values) @ grid.cell_measures)
    drop = sol.sigma1_value - sigma1(model, grid, a_h)
    return drop / d1 ** 2


def tube_linearity(grid: Grid, sol: LimitSolution, deltas=None) -> tuple[float, float]:
    """Least-squares slope of |{|Psi - mu*| < delta}| vs delta, plus residual.

    Psi is linear in each cell between its corner values, so boundary
    cells count fractionally. The delta range defaults to
    [4 h max|Psi'|, 0.1 range(Psi)] where h is the cell size; a constant
    Psi (no level structure) is rejected.
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
    if (deltas <= 0).any():
        raise ValueError("delta must be positive")
    # the tube measure per delta, with the cell ranges of Psi computed once
    lo, hi = _cell_value_ranges(grid, psi)
    meas = np.array([_measure_below(grid, lo, hi, sol.mu_star + d)
                     - _measure_below(grid, lo, hi, sol.mu_star - d) for d in deltas])
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
