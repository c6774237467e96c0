"""Concave spectral maximization over relaxed densities.

Frank-Wolfe with the exact bathtub linear oracle is the primary driver:
iterates stay feasible, the duality gap certifies suboptimality, and the
oracle is closed-form. Each step ends in a line search on the concave
objective along the segment to the oracle vertex. One factored eigensolve
gives the objective there and its eigen-cluster (`gram.EigCluster`). The
cluster's scaled eigenvectors Z, with the components of every mode, stiff
ones included, give both the slope along the segment (envelope theorem)
and the supergradient form the oracle reads, so integral(a * Phi) equals
the objective in every regime. At a simple
eigenvalue the same eigensolve gives the exact curvature, so the search
takes Newton steps on the slope, with a safeguarded regula falsi where
they leave the bracket: about 3.1 eigensolves per step. The cluster of
the accepted step serves the next iterate.
Eigenvalue clusters (nonsmooth points) use the uniform average of the
cluster supergradients, and a multiple eigenvalue the one-sided slopes of
the projected direction. Values never decrease, and a solve has no random
input: it stops at the gap tolerance, the budget or the first no-ascent step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import DensityField, Grid, SpatialFunction, bathtub
# bindings perfbench/test_tracer.py checks; the benchmark harness under
# perfbench/ stays fixed so that its runs compare across library changes
from .geometry import project_box_mean  # noqa: F401
from .gram import GramForm, get_basis
from .gram import min_eig_cluster, reduce_min_eig  # noqa: F401
from .spectral import SpectralModel, tau

LINE_SEARCH_XTOL = 1e-13    # final bracket width of the FW step size
ETA_GAP_FACTOR = 1.5        # eta = factor * gap for the auto nu_T (admissible: (1, 2))
BANG_BANG_TOL = 0.01        # bang_bang_fraction: values within this of 0 or 1 are decided


@dataclass
class OptResult:
    a_star: DensityField
    value: float
    fw_gap: float
    iterations: int
    history: list[tuple[int, float, float]] = field(default_factory=list)
    degenerate_flag: bool = False
    converged: bool = True
    line_search_evals: int = 0       # objective evaluations of all line searches
    supergradient: np.ndarray | None = None   # Phi at a_star, of the last gap
    cluster_size: int = 1            # members of its eigen-cluster

    def as_dict(self) -> dict:
        """JSON-ready summary (the density itself ships as CSV)."""
        return {"value": self.value, "fw_gap": self.fw_gap,
                "iterations": self.iterations,
                "line_search_evals": self.line_search_evals,
                "converged": self.converged, "degenerate": self.degenerate_flag}


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


def supergradient(model: SpectralModel, grid: Grid, a, T: float, N: int) -> SpatialFunction:
    """Nonnegative spatial density Phi with integral(a * Phi) = C_T^{(N)}(a).

    At an eigenvalue cluster the uniform average of the cluster member
    forms is returned (a valid supergradient of the concave objective).
    """
    form = GramForm(model, grid, T, N)
    return SpatialFunction(grid, form.supergradient(form.cluster(form.mantissa(a))))


@dataclass
class OptOptions:
    """FW budget, relative gap tolerance and start (the constant L if None)."""

    max_iter: int = 2000
    tol: float = 1e-6
    init: DensityField | None = None

    def __post_init__(self):
        if isinstance(self.max_iter, bool) or not isinstance(
                self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real) \
                or not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")


def _golden_section(h, start):
    """Maximize a concave function phi on [0, 1]; returns (t, phi(t)).

    h(t) returns (phi(t), phi'(t+), phi'(t-), phi''(t)), with phi''(t)
    None where it is unknown (a kink); start is h(0), which the caller
    already holds. The search keeps a bracket [lo, hi] with
    phi'(lo+) > 0 > phi'(hi-). Its next point is the
    Newton step t - phi'(t) / phi''(t) from the last evaluated point t when
    that lands inside the bracket; the right end t = 1 is evaluated only
    when it does not. Otherwise the next point is the secant root of the
    two end slopes: Illinois-type regula falsi, where an end that stays
    twice in a row has its slope scaled down by the Anderson-Bjorck factor
    1 - d_new / d_old of the moving end (by 1/2 when that is not positive).
    Once both ends are evaluated, it bisects instead of either step when
    the bracket did not halve over the last four points; before that,
    every point left of the root only moves lo toward it.

    It returns a point whose one-sided slopes straddle 0 (a root or a
    kink) or whose Newton correction is at most LINE_SEARCH_XTOL / 4, or
    else the better end once the bracket is narrower than
    LINE_SEARCH_XTOL. Newton converges quadratically where phi is smooth,
    so from t = 0 a short smooth step takes about three evaluations of h.

    The name is kept only because perfbench/tracer.py wraps this function
    as optimize.line_search; the rename belongs to ROADMAP item 7.
    """
    vlo, dlo, _, dd = start
    if not dlo > 0.0:
        return 0.0, vlo
    t, d_right = 0.0, dlo
    lo, hi = 0.0, 1.0
    vhi, dhi = None, math.nan        # phi and phi'(1-) until a point lands right of the root
    moved = 0                        # +1: lo moved last, -1: hi moved last
    widths = [math.inf] * 4          # bracket widths one to four points ago
    while hi - lo > LINE_SEARCH_XTOL:
        width = hi - lo
        newton = t - d_right / dd if dd is not None and dd < 0.0 else math.nan
        if vhi is None and not lo < newton < hi:
            t = 1.0
            vhi, d_right, dhi, dd = h(t)
            if not dhi < 0.0:
                return t, vhi
            continue
        if width > 0.5 * widths[-4] and vhi is not None:
            t = 0.5 * (lo + hi)
        elif lo < newton < hi:
            t = newton
        else:
            t = lo + width * dlo / (dlo - dhi)
        t = min(max(t, lo + 0.5 * LINE_SEARCH_XTOL), hi - 0.5 * LINE_SEARCH_XTOL)
        v, d_right, d_left, dd = h(t)
        if d_right > 0.0:
            if moved > 0:
                dhi *= _stale_end_factor(d_right, dlo)
            lo, vlo, dlo, moved = t, v, d_right, 1
        elif d_left < 0.0:
            if moved < 0:
                dlo *= _stale_end_factor(d_left, dhi)
            hi, vhi, dhi, moved = t, v, d_left, -1
        else:
            return t, v
        if dd is not None and abs(d_right) <= 0.25 * LINE_SEARCH_XTOL * -dd:
            return t, v
        widths.append(width)
    return (lo, vlo) if vhi is None or vlo >= vhi else (hi, vhi)


def _stale_end_factor(d_new: float, d_old: float) -> float:
    m = 1.0 - d_new / d_old
    return m if m > 0.0 else 0.5


def _frank_wolfe(form: GramForm, grid: Grid, L: float, opts: OptOptions) -> OptResult:
    """FW loop over the lambda_min of a `gram.GramForm`.

    The form gives mantissa(a), the matrix it is linear in; cluster(M),
    the EigCluster of one eigensolve; and supergradient(cluster). The line
    search solved the eigenproblem at the step it accepts, and that cluster
    serves the next iterate. Steps never lower the value, so the last
    evaluated iterate is the best. The loop stops at gap <= tol * max(1,
    |value|) (converged), once max_iter steps are taken (the gap of the
    last one is the last history entry), or where the search finds no
    ascent (a nonsmooth point).
    """
    a = opts.init.values.copy() if opts.init is not None else np.full(grid.ncells, L)
    Ma = form.mantissa(a)
    cl = form.cluster(Ma)            # EigCluster of Ma
    history: list[tuple[int, float, float]] = []
    degenerate = converged = False
    ls_evals = 0
    it = 0
    while True:
        val, f = cl.lam, form.supergradient(cl)
        degenerate = degenerate or len(cl.lams) > 1
        s = bathtub(grid, f, L)[0].values
        gap = float((s - a) * f @ grid.cell_measures)
        history.append((it, val, gap))
        if gap <= opts.tol * max(1.0, abs(val)):
            converged = True
            break
        if it == opts.max_iter:
            break
        dM = form.mantissa(s) - Ma
        clusters = {}                # t -> EigCluster of Ma + t dM

        def phi(t):
            nonlocal ls_evals
            ls_evals += 1
            c = clusters[t] = form.cluster(Ma + t * dM)
            return (c.lam, *c.derivatives(dM))

        # the eigenvectors at t = 0 give the first slope
        step, cand = _golden_section(phi, (val, *cl.derivatives(dM)))
        if not (step > 0.0 and cand >= val):
            break                    # no ascent direction (nonsmooth point)
        it += 1
        a = a + step * (s - a)
        Ma = Ma + step * dM          # bitwise the matrix clusters[step] solved
        cl = clusters[step]
    return OptResult(DensityField(grid, a), val, gap, iterations=it,
                     history=history, degenerate_flag=degenerate,
                     converged=converged, line_search_evals=ls_evals,
                     supergradient=f, cluster_size=len(cl.lams))


def maximize_obs(model: SpectralModel, grid: Grid, L: float, T: float, N: int,
                 opts: OptOptions | None = None) -> OptResult:
    """Maximize C_T^{(N)} over the relaxed densities of mean L.

    The returned value is a guaranteed lower estimate of the truncated
    optimum and value + fw_gap an upper estimate (concavity).
    """
    opts = opts or OptOptions()
    return _frank_wolfe(GramForm(model, grid, T, N), grid, L, opts)


def sigma1(model: SpectralModel, grid: Grid, a) -> float:
    """sigma_1(a): smallest eigenvalue of the J1-block mass matrix."""
    return float(np.linalg.eigvalsh(get_basis(model, grid, model.J1).mass(a))[0])


def maximize_sigma1(model: SpectralModel, grid: Grid, L: float,
                    opts: OptOptions | None = None) -> OptResult:
    """Maximize sigma_1(a) = lambda_min(M_1(a)) over mean-L densities.

    With #J1 = 1 the objective is linear and one bathtub step is exact
    (the result is bitwise the bathtub solution on the same grid); its
    value is sigma1(a_star), the one definition of sigma_1 that every
    other caller reads.
    """
    opts = opts or OptOptions()
    form = GramForm.sigma1(model, grid)
    if len(model.J1) == 1:
        f = form.basis.form_cell_average(np.ones((1, 1))).values.real
        a, _ = bathtub(grid, f, L)
        val = sigma1(model, grid, a)
        return OptResult(a, val, 0.0, 1, [(0, val, 0.0)], False, True,
                         supergradient=f, cluster_size=1)
    return _frank_wolfe(form, grid, L, opts)


def bang_bang_fraction(a: DensityField) -> float:
    """Fraction of cells strictly inside (BANG_BANG_TOL, 1 - BANG_BANG_TOL)."""
    interior = (a.values > BANG_BANG_TOL) & (a.values < 1.0 - BANG_BANG_TOL)
    # equal cells (see Grid): a count ratio, which a sum of measures rounds above 1
    return np.count_nonzero(interior) / a.grid.ncells


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
    g1 = tau(lam1, lam1, T)
    gp = tau(lamp, lamp, T)
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

    sigma1_a1 = sigma1(model, grid, a1)

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
