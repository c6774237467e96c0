"""Tensor grids with per-axis quadrature, relaxed densities and the bathtub oracle.

A cellwise field (a density, Psi, a Cesaro mean) is a float array of the
grid's ncells values in C cell order; a function that reads one takes the
grid too. Densities are piecewise constant per cell; the relaxed feasible
set {0 <= a <= 1, mean = L} is closed under that discretization, which
makes the bathtub tie-splitting and the box/mean projection exact.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import DomainSpec


CSV_BLOCK = 128       # cells per density CSV template


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid (build it with `make_grid`).

    Every cell has the same measure, and construction rejects anything
    else: the bathtub oracle reads its quantile by selection, which is
    exact only when the measure of the k largest cells does not depend on
    which cells they are. Its one quadrature rule is the Gauss rule on
    each axis's cells; a cell's rule is their tensor product, never stored.
    """

    domain: DomainSpec
    shape: tuple[int, ...]        # cells per axis
    gauss_order: int
    centers: np.ndarray           # (ncells, dim), cell-major C order
    cell_measures: np.ndarray     # (ncells,), all equal
    # per axis d: the Gauss nodes and weights on its cells, cell-major (shape[d] * g,)
    axis_quad_x: tuple[np.ndarray, ...]
    axis_quad_w: tuple[np.ndarray, ...]

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

    @cached_property
    def csv_templates(self) -> tuple[bytes, ...]:
        """The density CSV text of each block of CSV_BLOCK cells (C order)
        with b"%s" for each value: the cell index and its "%.16g" center
        coordinates, comma separated, \\r\\n line ends. Each axis value is
        formatted once, and the text once per grid, for every field
        `write_density_csv` writes on it."""
        *outer, last = ([b"%.16g" % c for c in x.tolist()] for x in self.axis_centers)
        heads = [b"".join(b"," + c for c in coords) + b"," for coords in itertools.product(*outer)]
        tails = [c + b",%s\r\n" for c in last]
        # index + head + tail per cell, by C-level iterators
        cells = map(operator.add, map(b"%d".__mod__, itertools.count()),
                    itertools.starmap(operator.add, itertools.product(heads, tails)))
        templates = []
        while block := b"".join(itertools.islice(cells, CSV_BLOCK)):
            templates.append(block)
        return tuple(templates)

    @property
    def measure(self) -> float:
        return self.domain.measure

    def mean(self, a: np.ndarray) -> float:
        """Measure-weighted mean of a cellwise field (not numpy's unweighted a.mean())."""
        return float(a @ self.cell_measures) / self.measure


def make_grid(domain: DomainSpec, cells_per_axis, gauss_order: int = 3) -> Grid:
    """Uniform tensor grid with a Gauss-Legendre rule on each axis's cells;
    a cell count that is not an integer raises ValueError."""
    if not 1 <= gauss_order <= 5:
        raise ValueError("gauss_order must be in 1..5")
    if np.isscalar(cells_per_axis):
        cells_per_axis = (cells_per_axis,) * domain.dim
    if not all(isinstance(c, numbers.Integral) for c in cells_per_axis):
        raise ValueError(f"cell counts must be integers, got {cells_per_axis!r}")
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
        axes_nodes.append((c[:, None] + (h / 2) * gx).reshape(-1))    # cell-major
        axes_wts.append(np.tile((h / 2) * gw, n))

    mesh = np.meshgrid(*axes_centers, indexing="ij", copy=False)    # views, no copies
    centers = np.stack(mesh, axis=-1).reshape(-1, len(shape))
    cell_meas = np.full(int(np.prod(shape)), float(np.prod(axes_h)))

    return Grid(domain, shape, gauss_order, centers, cell_meas,
                tuple(axes_nodes), tuple(axes_wts))


def bathtub(grid: Grid, f, L: float) -> tuple[np.ndarray, float]:
    """Maximize integral(a*f) over {0 <= a <= 1, mean = L} for a cellwise f.

    Returns (a, mu): the superlevel-set density array a (1 above the
    threshold, 0 below, a uniform fraction on the tie set {f == mu}) and
    the threshold mu, the L-quantile of f under the cell measure.

    The cells have equal measure (see Grid), so the k largest values fill
    cumsum(w)[k-1] whichever cells hold them: the threshold index k comes
    from cumsum(w) alone (`Grid.cumulative_measures`, computed once per
    grid), and mu, the (k+1)-th largest value, by selection (np.partition,
    introselect) instead of a sort. A non-finite score raises ValueError.
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must be in (0,1)")
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise ValueError("bathtub scores must be finite")
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
    return a, mu


def project_box_mean(grid: Grid, v, L: float) -> np.ndarray:
    """Measure-weighted Euclidean projection onto {0 <= a <= 1, mean = L}.

    KKT form a = clip(v + s, 0, 1) with the scalar shift s found by
    bisection of at most 200 steps, stopped once the mean residual is at
    most 1e-13 (or the bracket is down to rounding). A non-finite value
    raises ValueError.
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must be in (0,1)")
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("projected values must be finite")

    def mean_at(s):
        return grid.mean(np.clip(v + s, 0.0, 1.0))

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
    return np.clip(v + 0.5 * (lo + hi), 0.0, 1.0)


def l1_distance(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """L1(Omega) distance between two cellwise densities on grid; a
    density of another cell count raises ValueError."""
    if a.shape != (grid.ncells,) or b.shape != (grid.ncells,):
        raise ValueError("grid mismatch")
    return float(np.abs(a - b) @ grid.cell_measures)


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
    """Per-cell (min, max) of the corner-interpolated profile.

    Reduced elementwise over the 2^dim corner views, one view at a time,
    in the order of np.ndindex: the values of a min/max over the stacked
    corners (a nan aside, whose sign neither fixes), without the copy."""
    arr = _corner_values(grid, vals)
    first, *rest = (arr[tuple(slice(o, o + s) for o, s in zip(off, grid.shape))]
                    for off in np.ndindex(*(2,) * grid.dim))
    lo, hi = first.copy(), first.copy()
    for view in rest:
        np.minimum(lo, view, out=lo)
        np.maximum(hi, view, out=hi)
    return lo.reshape(-1), hi.reshape(-1)


def _fraction_below(lo: np.ndarray, hi: np.ndarray, t: float) -> np.ndarray:
    """Per cell, the fraction of a linear profile from lo to hi lying below t:
    clipped to [0, 1]; a constant cell (lo == hi) is 1 if lo < t, else 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fr = (t - lo) / (hi - lo)
    fr = np.where(hi > lo, fr, np.where(lo < t, 1.0, 0.0))
    return np.clip(fr, 0.0, 1.0)


def _measure_below(grid: Grid, lo: np.ndarray, hi: np.ndarray, t: float) -> float:
    return float(_fraction_below(lo, hi, t) @ grid.cell_measures)


def level_threshold(grid: Grid, psi, L: float) -> float:
    """Threshold mu with |{Psi > mu}| = L |Omega| under cellwise linear
    interpolation of Psi (sub-cell refinement of the bathtub quantile).

    Bisection of at most 100 steps, stopped at the first step that moves
    neither end: from there on every step repeats it, so mu is bit for bit
    that of all 100 steps.

    Each step evaluates _fraction_below only on the cells whose range
    [lo, hi] still meets the bracket [a, b]. Every later midpoint lies in
    [a, b], so a cell with hi < a is below it whole (fraction 1) and one
    with lo >= b not at all (0); a cell with lo == hi == a stays, as it is 0
    at t = a and 1 above. The fractions are kept in one array over all
    cells, so the dot with cell_measures sums the values of _measure_below
    in its order, and mu is that of the bisection over every cell.
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must be in (0,1)")
    lo, hi = _cell_value_ranges(grid, np.asarray(psi, dtype=float))
    target = (1.0 - L) * grid.measure       # measure below the threshold
    a, b = float(lo.min()), float(hi.max())
    # a finite corner value is half a finite sum, so no a + b overflows
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Psi and its corner values must be finite")
    fr = np.empty(grid.ncells)
    cells = np.arange(grid.ncells)           # the cells that meet the bracket
    for _ in range(100):
        mid = 0.5 * (a + b)
        fr[cells] = _fraction_below(lo, hi, mid)
        below = float(fr @ grid.cell_measures) < target
        if mid == (a if below else b):
            break       # a fixed point: every later step would repeat this one
        if below:
            a = mid
            done, value = hi < a, 1.0
        else:
            b = mid
            done, value = lo >= b, 0.0
        if done.any():
            fr[cells[done]] = value
            keep = ~done
            cells, lo, hi = cells[keep], lo[keep], hi[keep]
    return 0.5 * (a + b)


def write_density_csv(path, grid: Grid, values) -> None:
    """CSV layout shared by all density outputs: index, center coords, value,
    one row per cell of grid.

    Every number is written as "%.16g" in csv.writer's dialect (comma
    separated, \\r\\n line ends, unquoted). Each block of CSV_BLOCK cells
    is one of `Grid.csv_templates` filled with its value text; a distinct
    value is formatted once per block, keyed by its bit pattern so that
    -0.0 stays -0. The file is written one block at a time.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.size != grid.ncells:
        raise ValueError(f"density has {vals.size} values for a grid of {grid.ncells} cells")
    cols = ["cell"] + [f"center_{ax}" for ax in ("x", "y", "z")[:grid.dim]] + ["value"]
    with open(path, "wb") as fh:
        fh.write(",".join(cols).encode() + b"\r\n")
        for k, template in enumerate(grid.csv_templates):
            part = vals[k * CSV_BLOCK:(k + 1) * CSV_BLOCK]
            bits = part.view(np.uint64).tolist()
            text = {b: b"%.16g" % v for b, v in dict(zip(bits, part.tolist())).items()}
            fh.write(template % tuple(map(text.__getitem__, bits)))
