import math

import numpy as np
import pytest

from obsgrid.geometry import (_cell_value_ranges, _measure_below, level_threshold,
                              make_grid, project_box_mean)
from obsgrid.limit import LimitSolution
from obsgrid.gram import GramForm
from obsgrid.optimize import sigma1
from obsgrid.spectral import build_model


@pytest.fixture(scope="session")
def d1d():
    return build_model("dirichlet_1d", 16)


@pytest.fixture(scope="session")
def grid1024(d1d):
    return make_grid(d1d.domain, 1024, 3)


@pytest.fixture(scope="session")
def grid512(d1d):
    return make_grid(d1d.domain, 512, 3)


@pytest.fixture(scope="session")
def torus():
    return build_model("torus_1d", 6)


@pytest.fixture(scope="session")
def torus_grid(torus):
    return make_grid(torus.domain, 1024, 3)


def tensor_rule(grid):
    """Every cell's tensor Gauss rule as points and weights (x, w), shapes
    (ncells * g^dim, dim) and (ncells * g^dim,), built here from the
    Gauss-Legendre rule, not from the grid's axis rules: point p of cell c
    holds the tensor node (g_0, ..., g_{d-1}) of that cell, both in C
    order, with the product of the axis weights."""
    order, shape, dim = grid.gauss_order, grid.shape, grid.dim
    gx, gw = np.polynomial.legendre.leggauss(order)
    npts = grid.ncells * order ** dim
    cell, node = np.divmod(np.arange(npts), order ** dim)
    x, w = np.empty((npts, dim)), np.ones(npts)
    for d, ((lo, hi), c, k) in enumerate(zip(grid.domain.bounds,
                                             np.unravel_index(cell, shape),
                                             np.unravel_index(node, (order,) * dim))):
        h = (hi - lo) / shape[d]
        x[:, d] = (lo + h * (c + 0.5)) + (h / 2) * gx[k]
        w = w * ((h / 2) * gw[k])
    return x, w


def interval_indicator(grid, lo, hi):
    """Cell-overlap fractions of the indicator of (lo, hi) on a 1D grid."""
    c = grid.centers[:, 0]
    h = grid.cell_measures[0]
    return np.clip((np.minimum(hi, c + h / 2) - np.maximum(lo, c - h / 2)) / h, 0.0, 1.0)


def simple_cluster_solution(model, grid, a1):
    """A LimitSolution at any density a1 whose J1 mass matrix has a simple
    smallest eigenvalue: Psi from that eigenvector, mu* its level threshold.

    No shipped #J1 > 1 model has a non-degenerate limit set (its optimum
    has a repeated eigenvalue), so this is how the #J1 > 1 path is reached.
    """
    obj = GramForm.sigma1(model, grid)
    cl = obj.cluster(obj.mantissa(a1))
    assert len(cl.lams) == 1
    psi = obj.supergradient(cl)
    return LimitSolution(a1, level_threshold(grid, psi, grid.mean(a1)), psi, np.ones(1),
                         False, sigma1(model, grid, a1))


def tube(grid, psi, mu_star, delta):
    """|{|Psi - mu*| < delta}| with Psi linear in each cell between its
    corner values, the tube measure that tube_linearity fits."""
    lo, hi = _cell_value_ranges(grid, psi)
    return (_measure_below(grid, lo, hi, mu_star + delta)
            - _measure_below(grid, lo, hi, mu_star - delta))


def random_feasible(grid, L, rng, smooth=False):
    """Random density in {0 <= a <= 1, mean = L} via projection."""
    if smooth:
        x = grid.centers[:, 0]
        v = sum(rng.standard_normal() * np.cos((k + 1) * x + rng.uniform(0, 2 * np.pi))
                for k in range(4))
    else:
        v = rng.uniform(-0.5, 1.5, size=grid.ncells)
    return project_box_mean(grid, v, L)


def mp_min_eig(form, Ghat, dGhat=None):
    """Reference lambda_min of the Gram form D Ghat D of a GramForm, and
    its slope along D dGhat D, from an mpmath eigensolve of that matrix.

    Ghat, dGhat and the exponents e enter as the doubles they are; the
    working precision of 40 + ceil(2 max(e) / ln 10) digits covers the
    exponent spread of D Ghat D. Returns (lambda_min, slope) as floats,
    the slope None without dGhat.
    """
    import mpmath

    e = form.exps
    with mpmath.workdps(40 + math.ceil(2.0 * max(e.max(), 0.0) / math.log(10.0))):
        D = [mpmath.exp(float(x)) for x in e]

        def graded(M):
            return mpmath.matrix([[D[i] * mpmath.mpmathify(x) * D[j]
                                   for j, x in enumerate(row)]
                                  for i, row in enumerate(M.tolist())])

        w, Q = mpmath.eigh(graded(Ghat))
        if dGhat is None:
            return float(w[0]), None
        v = Q[:, 0]
        return float(w[0]), float(mpmath.re((v.H * graded(dGhat) * v)[0]))
