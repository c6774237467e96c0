"""Tensor-product grids, quadrature, relaxed densities and the bathtub oracle.

Densities are piecewise constant per cell; the relaxed feasible set
{0 <= a <= 1, mean = L} is closed under that discretization, which makes
the bathtub tie-splitting and the box/mean projection exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import DomainSpec


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid (build it with `make_grid`).

    Every cell has the same measure, and construction rejects anything
    else: the bathtub oracle reads its quantile by selection, which is
    exact only when the measure of the k largest cells does not depend on
    which cells they are.
    """

    domain: DomainSpec
    shape: tuple[int, ...]        # cells per axis
    gauss_order: int
    centers: np.ndarray           # (ncells, dim), cell-major C order
    cell_measures: np.ndarray     # (ncells,), all equal
    quad_x: np.ndarray            # (npts, dim), cell-major blocks of pts_per_cell
    quad_w: np.ndarray            # (npts,)

    def __post_init__(self):
        w = self.cell_measures
        if not (w == w[0]).all():
            raise ValueError("Grid needs equal cell measures")

    @cached_property
    def ncells(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def cumulative_measures(self) -> np.ndarray:
        """cumsum(cell_measures), read-only: entry k-1 is the measure of the
        first k cells."""
        c = np.cumsum(self.cell_measures)
        c.flags.writeable = False
        return c

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def axis_centers(self) -> list[np.ndarray]:
        """Cell-center coordinates per axis, as views into `centers`: the
        centers are their C-order tensor product, so along axis d the next
        coordinate is prod(shape[d+1:]) cells on."""
        return [self.centers[:math.prod(self.shape[d:]):math.prod(self.shape[d + 1:]), d]
                for d in range(self.dim)]

    @property
    def pts_per_cell(self) -> int:
        return self.gauss_order ** self.dim

    @property
    def measure(self) -> float:
        return self.domain.measure


@dataclass
class DensityField:
    grid: Grid
    values: np.ndarray            # (ncells,) in [0, 1]

    def mean(self) -> float:
        return float(self.values @ self.grid.cell_measures) / self.grid.measure


@dataclass
class SpatialFunction:
    grid: Grid
    values: np.ndarray            # (ncells,) cellwise values (cell averages)


def make_grid(domain: DomainSpec, cells_per_axis, gauss_order: int = 3) -> Grid:
    """Uniform tensor grid with per-cell Gauss-Legendre nodes."""
    if not 1 <= gauss_order <= 5:
        raise ValueError("gauss_order must be in 1..5")
    if np.isscalar(cells_per_axis):
        cells_per_axis = (int(cells_per_axis),) * domain.dim
    shape = tuple(int(c) for c in cells_per_axis)
    if len(shape) != domain.dim or min(shape) < 2:
        raise ValueError("need >= 2 cells per axis, one count per domain axis")

    gx, gw = np.polynomial.legendre.leggauss(gauss_order)
    axes_centers, axes_h, axes_nodes, axes_wts = [], [], [], []
    for (lo, hi), n in zip(domain.bounds, shape):
        h = (hi - lo) / n
        c = lo + h * (np.arange(n) + 0.5)
        axes_centers.append(c)
        axes_h.append(h)
        axes_nodes.append(c[:, None] + (h / 2) * gx[None, :])   # (n, g)
        axes_wts.append(np.full(n, 1.0)[:, None] * (h / 2) * gw[None, :])

    mesh = np.meshgrid(*axes_centers, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    cell_meas = np.full(int(np.prod(shape)), float(np.prod(axes_h)))

    # quadrature points cell-major: for each cell, the g^dim tensor nodes,
    # written in place through an (cells..., gauss..., dim) view
    dim, g = len(shape), gauss_order
    quad_x = np.empty((cell_meas.size * g ** dim, dim))
    wts = np.ones(quad_x.shape[0])
    xv = quad_x.reshape(shape + (g,) * dim + (dim,))
    wv = wts.reshape(shape + (g,) * dim)
    for d in range(dim):
        axis_shape = [1] * (2 * dim)
        axis_shape[d], axis_shape[dim + d] = shape[d], g
        xv[..., d] = axes_nodes[d].reshape(axis_shape)
        wv *= axes_wts[d].reshape(axis_shape)

    return Grid(domain, shape, gauss_order, centers, cell_meas, quad_x, wts)


def cell_average(grid: Grid, fn) -> np.ndarray:
    """Cell averages of a callable via the per-cell Gauss rule."""
    vals = np.asarray(fn(grid.quad_x)).reshape(grid.ncells, grid.pts_per_cell)
    w = grid.quad_w.reshape(grid.ncells, grid.pts_per_cell)
    return (vals * w).sum(axis=1) / grid.cell_measures


def bathtub(grid: Grid, f, L: float) -> tuple[DensityField, float]:
    """Maximize integral(a*f) over {0 <= a <= 1, mean = L}.

    Returns the superlevel-set density (1 above the threshold, 0 below,
    a uniform fraction on the tie set {f == mu}) and the threshold mu,
    the L-quantile of f under the cell measure.

    The cells have equal measure (see Grid), so the k largest values fill
    cumsum(w)[k-1] whichever cells hold them: the threshold index k comes
    from cumsum(w) alone (`Grid.cumulative_measures`, computed once per
    grid), and mu, the (k+1)-th largest value, by selection (np.partition,
    introselect) instead of a sort.
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must be in (0,1)")
    f = f.values if isinstance(f, SpatialFunction) else np.asarray(f, dtype=float)
    w = grid.cell_measures
    target = L * grid.measure
    k = int(np.searchsorted(grid.cumulative_measures, target * (1 - 1e-15)))
    j = max(grid.ncells - 1 - k, 0)         # k == ncells: the smallest value
    mu = float(np.partition(f, j)[j])
    a = np.zeros(grid.ncells)
    above = f > mu
    a[above] = 1.0
    filled = float(w[above].sum())
    tie = f == mu
    tie_meas = float(w[tie].sum())
    if tie_meas > 0:
        a[tie] = (target - filled) / tie_meas
    return DensityField(grid, a), mu


def project_box_mean(grid: Grid, v, L: float) -> DensityField:
    """Measure-weighted Euclidean projection onto {0 <= a <= 1, mean = L}.

    KKT form a = clip(v + s, 0, 1) with the scalar shift s found by
    bisection of at most 200 steps, stopped once the mean residual is at
    most 1e-13 (or the bracket is down to rounding).
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must be in (0,1)")
    v = v.values if isinstance(v, DensityField) else np.asarray(v, dtype=float)

    def mean_at(s):
        return float(np.clip(v + s, 0.0, 1.0) @ grid.cell_measures) / grid.measure

    lo, hi = float(-v.max()), float(1.0 - v.min())
    if mean_at(lo) > L or mean_at(hi) < L:      # safety; cannot happen for L in (0,1)
        raise ValueError("projection bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = mean_at(mid)
        if abs(m - L) <= 1e-13:
            lo = hi = mid
            break
        lo, hi = (mid, hi) if m < L else (lo, mid)
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    return DensityField(grid, np.clip(v + 0.5 * (lo + hi), 0.0, 1.0))


def l1_distance(a: DensityField, b: DensityField) -> float:
    """L1(Omega) distance between two cellwise densities on one grid."""
    if a.grid is not b.grid and (a.grid.shape != b.grid.shape
                                 or a.grid.domain != b.grid.domain):
        raise ValueError("grid mismatch")
    return float(np.abs(a.values - b.values) @ a.grid.cell_measures)


def _corner_values(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """Nodal values at cell corners by averaging adjacent cell values."""
    arr = vals.reshape(grid.shape)
    for ax in range(grid.dim):
        padded = np.concatenate([arr.take([0], axis=ax), arr,
                                 arr.take([-1], axis=ax)], axis=ax)
        lo = padded.take(range(0, padded.shape[ax] - 1), axis=ax)
        hi = padded.take(range(1, padded.shape[ax]), axis=ax)
        arr = 0.5 * (lo + hi)
    return arr


def _cell_value_ranges(grid: Grid, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (min, max) of the corner-interpolated profile."""
    arr = _corner_values(grid, vals)
    slices = np.stack([arr[tuple(slice(o, o + s) for o, s in zip(off, grid.shape))]
                       for off in np.ndindex(*(2,) * grid.dim)], axis=-1)
    flat = slices.reshape(grid.ncells, -1)
    return flat.min(axis=1), flat.max(axis=1)


def _measure_below(grid: Grid, lo: np.ndarray, hi: np.ndarray, t: float) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        fr = (t - lo) / (hi - lo)
    fr = np.where(hi > lo, fr, np.where(lo < t, 1.0, 0.0))
    return float(np.clip(fr, 0.0, 1.0) @ grid.cell_measures)


def level_threshold(grid: Grid, psi, L: float) -> float:
    """Threshold mu with |{Psi > mu}| = L |Omega| under cellwise linear
    interpolation of Psi (sub-cell refinement of the bathtub quantile).

    Bisection of at most 100 steps, stopped at the first step that moves
    neither end: from there on every step repeats it, so mu is bit for bit
    that of all 100 steps.
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must be in (0,1)")
    vals = psi.values if isinstance(psi, SpatialFunction) else np.asarray(psi, dtype=float)
    lo, hi = _cell_value_ranges(grid, vals)
    target = (1.0 - L) * grid.measure       # measure below the threshold
    a, b = float(lo.min()), float(hi.max())
    for _ in range(100):
        mid = 0.5 * (a + b)
        below = _measure_below(grid, lo, hi, mid) < target
        if mid == (a if below else b):
            break       # a fixed point: every later step would repeat this one
        if below:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


CSV_BLOCK = 64        # cells whose values are formatted together


def _center_text(grid: Grid):
    """Comma-joined "%.16g" center coordinates per cell, in the C order of
    `Grid.centers`. Each axis value is formatted once; only the strings of
    the axes after the first are held."""
    first, *rest = grid.axis_centers
    rest = [["%.16g" % c for c in x.tolist()] for x in rest]
    for x in first:
        yield from map(",".join, itertools.product(["%.16g" % x], *rest))


def _value_text(vals: np.ndarray):
    """The "%.16g" text of each value. Each distinct value is formatted once
    per block of CSV_BLOCK cells, keyed by its bit pattern so that -0.0
    keeps its sign; the blocks keep the strings held few at any cell count."""
    for i in range(0, vals.size, CSV_BLOCK):
        part = vals[i:i + CSV_BLOCK]
        bits = part.view(np.uint64).tolist()
        text = {b: "%.16g" % v for b, v in dict(zip(bits, part.tolist())).items()}
        yield from map(text.__getitem__, bits)


def write_density_csv(path, field: DensityField) -> None:
    """CSV layout shared by all density outputs: index, center coords, value.

    Every number is written as "%.16g" in csv.writer's dialect (comma
    separated, \\r\\n line ends, unquoted). Rows are built as they are
    written, so no copy of the file is held.
    """
    g = field.grid
    cols = ["cell"] + [f"center_{ax}" for ax in ("x", "y", "z")[:g.dim]] + ["value"]
    rows = zip(range(g.ncells), _center_text(g),
               _value_text(np.asarray(field.values, dtype=float)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        fh.writelines(f"{i},{c},{v}\r\n" for i, c, v in rows)
