"""The spectral limit problem: sigma_1 evaluation, level-set solution,
KKT verification, the quantitative-bathtub constant (exact from one sort,
or a sampled upper estimate), tube-measure linearity, and the Cesaro mean
driving the small-time limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DensityField, Grid, SpatialFunction, _cell_value_ranges,
                       _measure_below, bathtub, l1_distance, level_threshold,
                       project_box_mean)
from .gram import ModeBasis
from .optimize import OptOptions, maximize_sigma1, sigma1
from .spectral import SpectralModel


def _flat(psi: np.ndarray) -> bool:
    """Psi has no level structure: its range is at most 1e-12 max(1, |max Psi|)."""
    top = float(psi.max())
    return top - float(psi.min()) <= 1e-12 * max(1.0, abs(top))


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

    Maximize sigma_1 and take Psi from the solve: the supergradient of the
    minimal eigen-cluster of M_1(a1) (uniform weights) that its last gap
    was computed from. Re-bathtub, and flag degeneracy when that changes
    sigma_1 or the optimum has a repeated eigenvalue. With
    #J1 = 1 the cluster is phi_1 alone, so Psi = |phi_1|^2 (cell
    averages) and its bathtub set is the maximizer itself.
    """
    res = maximize_sigma1(model, grid, L, opts)
    m = res.cluster_size
    alphas = np.full(m, 1.0 / m)
    psi = SpatialFunction(grid, res.supergradient)
    a_re, _ = bathtub(grid, psi.values, L)
    flat = _flat(psi.values)
    mu = float(psi.values.mean()) if flat else level_threshold(grid, psi, L)
    # a constant Psi has no level structure: every mean-L density maximizes
    degenerate = bool(res.degenerate_flag or m > 1 or flat)
    s_orig = res.value
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


def _straddling(grid: Grid, sol: LimitSolution) -> np.ndarray:
    """Cells whose corner-interpolated Psi range straddles mu*."""
    clo, chi = _cell_value_ranges(grid, sol.psi.values)
    return (clo < sol.mu_star) & (chi > sol.mu_star)


def _k_floor(grid: Grid, sol: LimitSolution) -> float:
    """Least distance k is taken over: the measure of the _straddling cells."""
    return float(grid.cell_measures[_straddling(grid, sol)].sum())


def kkt_check(grid: Grid, sol: LimitSolution) -> KKTReport:
    """Level-set optimality: Psi >= mu* on {a1 ~ 1} and Psi <= mu* outside.

    Cells whose interpolated Psi range straddles mu* sit inside the
    discretization uncertainty band and are excluded from the margins;
    a solution without any decided inside/outside cells or with a flat Psi
    (no level structure, e.g. a == L) fails. Margins pass down to
    -tol = -1e-6 range(Psi).
    """
    psi = sol.psi.values
    tol_kkt = 1e-6 * max(float(psi.max() - psi.min()), 1e-300)
    inside = sol.a1.values > 1.0 - KKT_SATURATION
    outside = sol.a1.values < KKT_SATURATION
    if not inside.any() or not outside.any() or _flat(psi):
        return KKTReport(-math.inf, -math.inf, tol_kkt, False)
    decided = ~_straddling(grid, sol)
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
    k_hat: float | None
    family_mins: dict = field(default_factory=dict)
    n_used: int = 0
    manifest: dict = field(default_factory=dict)


def estimate_bathtub_constant(model: SpectralModel, grid: Grid, sol: LimitSolution,
                              n_samples: int = 1000, seed: int = 0) -> KEstimate:
    """Sampled upper estimate of k = inf (sigma1(a1) - sigma1(a)) / ||a - a1||_1^2.

    k_hat is the smallest ratio over the samples at L1 distance >= the
    floor of exact_bathtub_constant, so k_hat >= k, or None if there is
    none. Sample i is drawn from family SAMPLER_FAMILIES[i % 3]: slid
    level sets, bathtub sets of random smooth score functions, and
    feasibility-projected random perturbations of a1.
    Deterministic given the seed; degenerate solutions are rejected
    (the quantitative inequality has no content there).
    """
    if sol.degenerate:
        raise ValueError("bathtub-constant estimate needs a non-degenerate solution")
    rng = np.random.default_rng(seed)
    L = sol.a1.mean()
    s1 = sol.sigma1_value
    a1 = sol.a1.values
    floor = max(_k_floor(grid, sol), 1e-9)
    diam = min(hi - lo for lo, hi in grid.domain.bounds)
    # per-axis cell coordinates scaled to [0, 1], shaped to broadcast along
    # their axis of a grid.shape array
    axes = [((x - lo) / (hi - lo)).reshape((-1,) + (1,) * (grid.dim - 1 - d))
            for d, ((lo, hi), x) in enumerate(zip(grid.domain.bounds, grid.axis_centers))]

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
        if d1 < floor:
            continue
        drop = s1 - sigma1(model, grid, a)
        ratio = drop / d1 ** 2
        used += 1
        if kind not in mins or ratio < mins[kind]:
            mins[kind] = ratio
    manifest = {"n_samples": n_samples, "seed": seed}
    return KEstimate(min(mins.values(), default=None), mins, used, manifest)


@dataclass
class BathtubConstant:
    """k = inf (sigma1(a1) - sigma1(a)) / ||a - a1||_1^2 over the feasible a
    at L1 distance >= floor from a1, bracketed as [lower, upper].

    D is the distance that attains lower; witness is a density there and
    upper its ratio through sigma1. All four are None when no feasible a
    lies at distance >= floor; upper and witness are None for the
    #J1 > 1 relaxation.
    """
    lower: float | None
    upper: float | None
    floor: float
    D: float | None
    witness: DensityField | None


def _cumulative(caps: np.ndarray) -> np.ndarray:
    """[0, caps[0], caps[0] + caps[1], ...]: where each list entry starts."""
    return np.concatenate(([0.0], np.cumsum(caps)))


def _move_cost(caps: np.ndarray, start: np.ndarray, costs: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """Cost of moving x through a list of cells in order (capacities, their
    _cumulative starts, unit costs).

    Summed from the whole entries before x plus the partial entry at x,
    so nonnegative costs give a nonnegative result.
    """
    i = np.clip(np.searchsorted(start, x) - 1, 0, caps.size - 1)
    return _cumulative(caps * costs)[i] + costs[i] * (x - start[i])


def _min_ratio(psi: np.ndarray, a1: np.ndarray, w: np.ndarray, mu: float,
               floor: float, free: np.ndarray, ties: np.ndarray):
    """Smallest F(D)/D^2 over D >= floor, or None when no D is admissible.

    The cells in free give from a1 down to 0 and receive up to 1, each
    list sorted by its unit cost (Psi - mu to give, mu - Psi to receive);
    of the tie cells the first g give and the others receive, for every
    g. Returns (ratio, D, givers, their capacities and _cumulative starts,
    receivers, theirs).
    """
    give = np.flatnonzero(free & (a1 > 0.0))
    give = give[np.argsort(psi[give] - mu, kind="stable")]
    take = np.flatnonzero(free & (a1 < 1.0))
    take = take[np.argsort(mu - psi[take], kind="stable")]
    best = None
    for g in range(ties.size + 1):
        gi = np.concatenate((ties[:g], give))
        ri = np.concatenate((ties[g:], take))
        gcap, gcost = a1[gi] * w[gi], psi[gi] - mu
        rcap, rcost = (1.0 - a1[ri]) * w[ri], mu - psi[ri]
        gstart, rstart = _cumulative(gcap), _cumulative(rcap)
        d_max = 2.0 * min(gstart[-1], rstart[-1])
        # sorted with repeats: equal D give equal ratios, so argmin picks the
        # same (ratio, D) as over unique D; np.unique imports numpy.ma, which
        # costs 10-15 ms in a fresh process
        D = np.sort(np.concatenate((2.0 * gstart, 2.0 * rstart, [floor, d_max])))
        D = D[(D > 0.0) & (D >= floor) & (D <= d_max)]
        if not D.size:
            continue
        ratio = (_move_cost(gcap, gstart, gcost, 0.5 * D)
                 + _move_cost(rcap, rstart, rcost, 0.5 * D)) / D ** 2
        i = int(np.argmin(ratio))
        if best is None or ratio[i] < best[0]:
            best = (float(ratio[i]), float(D[i]), gi, gcap, gstart, ri, rcap, rstart)
    return best


def exact_bathtub_constant(model: SpectralModel, grid: Grid,
                           sol: LimitSolution) -> BathtubConstant:
    """The bathtub constant of a non-degenerate limit solution from one sort.

    Psi is a supergradient of sigma1 at a1, so for mean(a) = mean(a1) the
    drop sigma1(a1) - sigma1(a) is at least sum_c (a1 - a)_c (Psi_c - mu)
    |c|, with equality when #J1 == 1 (sigma1 is linear). The cheapest
    move of L1 distance D takes D/2 out of the cells with the smallest
    Psi - mu and puts D/2 into those with the smallest mu - Psi (the
    bathtub principle; Lieb and Loss, Analysis, Thm 1.14). Its cost F(D)
    is piecewise linear and convex with F(0) = 0, so F(D)/D^2 is smallest
    at a breakpoint, at the floor or at the largest D, and those points
    are all that is evaluated. mu is the Psi value of a1's tie cells
    (0 < a1 < 1) when they share one, else mu*; for a bathtub a1 the
    former makes every cost term nonnegative.

    The floor on D is the measure of the cells whose Psi range straddles
    mu*, the cells kkt_check leaves undecided. With #J1 == 1 a tie cell
    gives or receives, not both: each split of the tie cells is tried,
    which makes lower exact. With #J1 > 1 every cell may give down to 0
    and receive up to 1 at once. That relaxes the problem, so lower is a
    rigorous lower end; upper and witness are None.
    """
    if sol.degenerate:
        raise ValueError("the bathtub constant needs a non-degenerate solution")
    psi, a1, w = sol.psi.values, sol.a1.values, grid.cell_measures
    floor = _k_floor(grid, sol)
    tie = (a1 > 0.0) & (a1 < 1.0)
    one_level = tie.any() and np.ptp(psi[tie]) == 0.0
    mu = float(psi[tie][0]) if one_level else sol.mu_star
    relaxed = len(model.J1) > 1
    if relaxed:
        best = _min_ratio(psi, a1, w, mu, floor, np.ones_like(tie), np.zeros(0, np.intp))
    elif tie.any() and (not one_level or np.ptp(a1[tie]) != 0.0):
        raise ValueError("a1 is no bathtub density: its tie cells differ")
    else:
        best = _min_ratio(psi, a1, w, mu, floor, ~tie, np.flatnonzero(tie))
    if best is None:
        return BathtubConstant(None, None, floor, None, None)
    lower, D, gi, gcap, gstart, ri, rcap, rstart = best
    if relaxed:
        return BathtubConstant(lower, None, floor, D, None)

    def moved(caps, start):   # how much of D/2 each list entry carries
        return np.clip(0.5 * D - start[:-1], 0.0, caps)

    a = a1.copy()
    a[gi] -= moved(gcap, gstart) / w[gi]
    a[ri] += moved(rcap, rstart) / w[ri]
    witness = DensityField(grid, np.clip(a, 0.0, 1.0))
    d = l1_distance(witness, sol.a1)
    upper = (sol.sigma1_value - sigma1(model, grid, witness)) / d ** 2
    return BathtubConstant(lower, upper, floor, D, witness)


def sliding_ratio(model: SpectralModel, grid: Grid, sol: LimitSolution,
                  h: float) -> float | None:
    """Quadratic-drop ratio of the level set slid by h along the first axis.

    None when the slide changes sigma1 by rounding only (at most 1e-12
    |sigma1(a1)|): a ratio of a rounding-level drop measures nothing. That
    is the case when a1 is constant along the axis up to rounding, and
    when the slide only moves mass between cells whose Psi ties up to
    rounding, which the bathtub splits by their last bits.
    """
    a_h = _shift_density(grid, sol.a1.values, h)
    drop = sol.sigma1_value - sigma1(model, grid, a_h)
    if abs(drop) <= 1e-12 * abs(sol.sigma1_value):
        return None
    d1 = float(np.abs(a_h - sol.a1.values) @ grid.cell_measures)
    return drop / d1 ** 2


def _tube_deltas(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """tube_linearity's 12 deltas, geometric over [4 h max|Psi'|, 0.1 range(Psi)]
    for the cell size h, or over the top decade where that range is empty."""
    h = max((hi - lo) / n for (lo, hi), n in zip(grid.domain.bounds, grid.shape))
    grads = np.gradient(psi.reshape(grid.shape), *grid.axis_centers)
    lo_d = 4.0 * h * float(np.max(np.abs(grads)))
    hi_d = 0.1 * float(psi.max() - psi.min())
    if lo_d >= hi_d:
        lo_d = hi_d / 10.0
    return np.geomspace(lo_d, hi_d, 12)


def tube_linearity(grid: Grid, sol: LimitSolution) -> tuple[float, float]:
    """Least-squares slope of |{|Psi - mu*| < delta}| vs delta, plus residual.

    Psi is linear in each cell between its corner values, so boundary
    cells count fractionally. The deltas are _tube_deltas; a constant
    Psi (no level structure) is rejected.
    """
    psi = sol.psi.values
    if _flat(psi):
        raise ValueError("Psi has no level structure (degenerate)")
    deltas = _tube_deltas(grid, psi)
    # the tube measure per delta, with the cell ranges of Psi computed once
    lo, hi = _cell_value_ranges(grid, psi)
    meas = np.array([_measure_below(grid, lo, hi, sol.mu_star + d)
                     - _measure_below(grid, lo, hi, sol.mu_star - d) for d in deltas])
    m_hat = float((meas @ deltas) / (deltas @ deltas))   # through-origin LS
    resid = float(np.max(np.abs(meas - m_hat * deltas) / (m_hat * deltas)))
    return m_hat, resid


def cesaro_mean(model: SpectralModel, grid: Grid, N: int) -> SpatialFunction:
    """(1/N) sum_{j<=N} |phi_j|^2 as cellwise averages, mode j's from its one-mode
    basis: |u_j|^2 times the outer product of its per-axis Gauss sums."""
    if not 1 <= N <= model.n_max:
        raise ValueError(f"N must be in 1..{model.n_max}")
    cells = sum(ModeBasis(model, grid, (j,)).form_cells(np.ones((1, 1)))
                for j in range(1, N + 1))
    return SpatialFunction(grid, cells / N / grid.cell_measures)
