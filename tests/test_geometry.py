import csv
import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from obsgrid import cli, geometry
from obsgrid.geometry import (_cell_value_ranges, _measure_below, bathtub, l1_distance,
                              level_threshold, make_grid, project_box_mean,
                              write_density_csv)
from obsgrid.gram import get_basis
from obsgrid.limit import cesaro_mean, exact_bathtub_constant, limit_set
from obsgrid.optimize import maximize_obs, supergradient
from obsgrid.spectral import DomainSpec, build_model

from conftest import interval_indicator, random_feasible, tensor_rule, tube

PI = np.pi


def quad(grid, f):
    """Gauss rule of make_grid applied to a callable of the nodes."""
    x, w = tensor_rule(grid)
    return w @ f(x)


@pytest.fixture(scope="module")
def unit3():
    return make_grid(DomainSpec(((0.0, 3.0),)), 3, 2)


class TestMakeGrid:
    def test_interval_measures(self):
        g = make_grid(DomainSpec(((0.0, PI),)), 4, 2)
        assert np.allclose(g.cell_measures, PI / 4)

    def test_rectangle_measures(self):
        g = make_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (8, 8), 2)
        assert g.ncells == 64
        assert np.allclose(g.cell_measures, 1.0 / 64)

    def test_quadrature_sin2(self):
        g = make_grid(DomainSpec(((0.0, PI),)), 512, 3)
        val = quad(g, lambda x: np.sin(x[:, 0]) ** 2)
        assert val == pytest.approx(PI / 2, abs=1e-10)

    def test_weights_positive_and_sum(self):
        g = make_grid(DomainSpec(((0.0, 2.0), (0.0, 3.0))), (5, 7), 3)
        w = tensor_rule(g)[1]
        assert (w > 0).all()
        assert w.sum() == pytest.approx(6.0, rel=1e-12)
        assert g.cell_measures.sum() == pytest.approx(6.0, rel=1e-12)

    def test_nodes_and_weights_cell_major(self):
        # axis d's rule holds the Gauss nodes and weights of each of its
        # cells in turn, and every cell's tensor rule (tensor_rule, built
        # independently) is their product: point (k_0, k_1) of cell
        # (c_0, c_1) at node k_d of cell c_d on each axis, with the product
        # of the axis weights
        lo, hi, shape, order = (0.0, -1.0), (2.0, 3.0), (5, 7), 3
        g = make_grid(DomainSpec(tuple(zip(lo, hi))), shape, order)
        x, w = tensor_rule(g)
        x, w = x.reshape(shape + (order,) * 2 + (2,)), w.reshape(shape + (order,) * 2)
        ax, ay = (t.reshape(n, order) for t, n in zip(g.axis_quad_x, shape))
        wx, wy = (t.reshape(n, order) for t, n in zip(g.axis_quad_w, shape))
        assert np.array_equal(x[..., 0], np.broadcast_to(ax[:, None, :, None], w.shape))
        assert np.array_equal(x[..., 1], np.broadcast_to(ay[None, :, None, :], w.shape))
        assert np.array_equal(w, wx[:, None, :, None] * wy[None, :, None, :])

    @pytest.mark.parametrize("bounds, shape", [
        (((0.0, 1.0), (0.0, 1.0)), (96, 96)),
        (((0.0, 1.0), (0.0, 2.0)), (7, 5)),
        (((0.0, PI),), (1024,)),
        (((0.0, 2 * PI),), (1024,)),
    ], ids=["96x96", "7x5", "1024", "torus1024"])
    def test_axis_centers(self, bounds, shape):
        # the midpoint formula per axis, bitwise, and its C-order tensor
        # product is `centers`
        dom = DomainSpec(bounds)
        g = make_grid(dom, shape, 1)
        axes = g.axis_centers
        for (lo, hi), n, x in zip(bounds, shape, axes):
            assert np.array_equal(x, lo + (hi - lo) / n * (np.arange(n) + 0.5))
        assert np.array_equal(np.array(list(itertools.product(*axes))), g.centers)

    def test_build_peak_memory(self):
        # nodes and weights are written in place: the build allocates little
        # beyond the grid it returns (meshgrids and transposed copies of every
        # node and weight peaked at 3.5 times that)
        dom = DomainSpec(((0.0, 1.0), (0.0, 1.0)))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            g = make_grid(dom, (96, 96), 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        kept = sum(a.nbytes for a in (g.centers, g.cell_measures))
        assert peak <= 1.5 * kept
        # the grid's one rule is per axis: it holds no per-point array
        held = [a for v in vars(g).values()
                for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
        assert len(held) == 2 + 2 * g.dim
        assert all(len(a) != g.ncells * g.gauss_order ** g.dim for a in held)

    def test_cumulative_measures_cached(self):
        g = make_grid(DomainSpec(((0.0, 1.0), (0.0, 2.0))), (48, 40), 2)
        c = g.cumulative_measures
        assert np.array_equal(c, np.cumsum(g.cell_measures))
        assert g.cumulative_measures is c
        assert not c.flags.writeable

    def test_unequal_cell_measures_rejected(self):
        # the bathtub oracle reads its quantile by selection, which needs
        # equal cells
        g = make_grid(DomainSpec(((0.0, 1.0),)), 4, 2)
        w = g.cell_measures.copy()
        w[1] = np.nextafter(w[1], 1.0)
        with pytest.raises(ValueError, match="equal cell measures"):
            dataclasses.replace(g, cell_measures=w)

    def test_bad_args(self):
        dom = DomainSpec(((0.0, 1.0),))
        with pytest.raises(ValueError):
            make_grid(dom, 1, 3)
        with pytest.raises(ValueError):
            make_grid(dom, 8, 7)
        with pytest.raises(ValueError):
            make_grid(dom, (4, 4), 2)      # axis-count mismatch

    @pytest.mark.parametrize("dom, cells", [
        (DomainSpec(((0.0, 1.0),)), 16.7),
        (DomainSpec(((0.0, 1.0),)), 16.0),
        (DomainSpec(((0.0, 1.0),)), "16"),
        (DomainSpec(((0.0, 1.0), (0.0, 2.0))), (8, 4.5)),
    ], ids=["fraction", "float", "str", "2d"])
    def test_non_integer_cell_count_rejected(self, dom, cells):
        # 16.7 used to build 16 cells
        with pytest.raises(ValueError, match="integers"):
            make_grid(dom, cells, 2)

    def test_numpy_integer_cell_counts(self):
        g = make_grid(DomainSpec(((0.0, 1.0), (0.0, 2.0))), (np.int32(8), np.int64(5)), 2)
        assert g.shape == (8, 5) and all(type(n) is int for n in g.shape)
        assert make_grid(DomainSpec(((0.0, 1.0),)), np.int64(16), 2).shape == (16,)


# every cellwise result of the library, from a model and a grid
CELLWISE = {
    "bathtub": lambda m, g: bathtub(g, np.sin(3 * g.centers[:, 0]), 0.3)[0],
    "project_box_mean": lambda m, g: project_box_mean(g, np.cos(g.centers[:, 0]), 0.3),
    "supergradient": lambda m, g: supergradient(m, g, np.full(g.ncells, 0.3), 1.0, 4),
    "cesaro_mean": lambda m, g: cesaro_mean(m, g, [1, 4])[1],
    "form_cell_average": lambda m, g: get_basis(m, g, (1, 2)).form_cell_average(
        np.eye(2)).real,
    "OptResult.a_star": lambda m, g: maximize_obs(m, g, 0.3, 1.0, 4).a_star,
    "OptResult.supergradient": lambda m, g: maximize_obs(m, g, 0.3, 1.0, 4).supergradient,
    "LimitSolution.a1": lambda m, g: limit_set(m, g, 0.3).a1,
    "LimitSolution.psi": lambda m, g: limit_set(m, g, 0.3).psi,
    "BathtubConstant.witness": lambda m, g: exact_bathtub_constant(
        m, g, limit_set(m, g, 0.3)).witness,
}


class TestCellwiseArrays:
    @pytest.mark.parametrize("name", CELLWISE)
    @pytest.mark.parametrize("model, cells", [("dirichlet_1d", 512),
                                              ("dirichlet_rect_2d", (12, 9))])
    def test_results_are_float_arrays_over_the_cells(self, name, model, cells):
        m = build_model(model, 4)
        g = make_grid(m.domain, cells, 2)
        x = CELLWISE[name](m, g)
        assert type(x) is np.ndarray
        assert x.dtype == np.float64 and x.shape == (g.ncells,)

    def test_grid_mean_is_the_weighted_mean(self):
        # float(a @ cell_measures) / measure bit for bit; numpy's unweighted
        # a.mean() rounds differently
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (37, 23), 3)
        a = np.random.default_rng(5).uniform(0.0, 1.0, g.ncells)
        assert g.mean(a) == float(a @ g.cell_measures) / g.measure


class TestIntegrate:
    def test_constant(self):
        g = make_grid(DomainSpec(((0.0, PI),)), 64, 2)
        assert quad(g, lambda x: np.ones(len(x))) == pytest.approx(PI, rel=1e-13)

    def test_normalized_mode(self):
        g = make_grid(DomainSpec(((0.0, PI),)), 512, 3)
        val = quad(g, lambda x: (2 / PI) * np.sin(x[:, 0]) ** 2)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_cross_mode_antiderivative(self):
        # int_{pi/4}^{3pi/4} sin x sin 3x dx = -1/2 (closed form)
        g = make_grid(DomainSpec(((0.0, PI),)), 1024, 3)
        ind = interval_indicator(g, PI / 4, 3 * PI / 4)
        x, w = tensor_rule(g)
        vals = np.sin(x[:, 0]) * np.sin(3 * x[:, 0])
        w = w * np.repeat(ind, g.gauss_order)
        assert vals @ w == pytest.approx(-0.5, abs=1e-8)


def bathtub_by_sort(grid, f, L):
    """The bathtub oracle by a stable sort of -f and the sorted cumulative
    measure: the definition the selection-based oracle must match."""
    w = grid.cell_measures
    target = L * grid.measure
    order = np.argsort(-f, kind="stable")
    cum = np.cumsum(w[order])
    k = int(np.searchsorted(cum, target * (1 - 1e-15)))
    mu = float(f[order[k]]) if k < grid.ncells else float(f[order[-1]])
    a = np.zeros(grid.ncells)
    a[f > mu] = 1.0
    filled = float(w[f > mu].sum())
    tie = f == mu
    tie_meas = float(w[tie].sum())
    if tie_meas > 0:
        a[tie] = (target - filled) / tie_meas
    return a, mu


def project_by_bisection(grid, v, L):
    """The box/mean projection by plain bisection on the shift, written
    out independently: the definition project_box_mean must match."""
    w = grid.cell_measures

    def mean_at(s):
        return float(np.clip(v + s, 0.0, 1.0) @ w) / grid.measure

    lo, hi = float(-v.max()), float(1.0 - v.min())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = mean_at(mid)
        if abs(m - L) <= 1e-13:
            lo = hi = mid
            break
        if m < L:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    return np.clip(v + 0.5 * (lo + hi), 0.0, 1.0)


def ranges_by_stacked_corners(grid, vals):
    """_cell_value_ranges as a min and a max over the stacked 2^dim corner
    views: the reduction the elementwise one must match."""
    arr = geometry._corner_values(grid, vals)
    corners = np.stack([arr[tuple(slice(o, o + s) for o, s in zip(off, grid.shape))]
                        for off in np.ndindex(*(2,) * grid.dim)], axis=-1)
    flat = corners.reshape(grid.ncells, -1)
    return flat.min(axis=1), flat.max(axis=1)


def threshold_by_full_bisection(grid, psi, L):
    """level_threshold's bisection run for all of its 100 steps: the
    definition the early-stopping threshold must match."""
    lo, hi = _cell_value_ranges(grid, psi)
    target = (1.0 - L) * grid.measure
    a, b = float(lo.min()), float(hi.max())
    for _ in range(100):
        mid = 0.5 * (a + b)
        if _measure_below(grid, lo, hi, mid) < target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


SMALL_GRIDS = {
    "1d-7": (DomainSpec(((0.0, PI),)), 7),
    "1d-512": (DomainSpec(((0.0, PI),)), 512),
    "2d-5x4": (DomainSpec(((0.0, 1.0), (0.0, 2.0))), (5, 4)),
    "2d-48x40": (DomainSpec(((0.0, 1.0), (0.0, 2.0))), (48, 40)),
}


@pytest.fixture(scope="module", params=sorted(SMALL_GRIDS))
def any_grid(request):
    dom, cells = SMALL_GRIDS[request.param]
    return make_grid(dom, cells, 2)


class TestBathtub:
    @pytest.mark.parametrize("kind", ["random", "ties", "few_levels", "constant"])
    def test_bitwise_equal_to_sort(self, any_grid, kind):
        rng = np.random.default_rng(11)
        n = any_grid.ncells
        for L in (1e-9, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-9):
            f = {"random": lambda: rng.standard_normal(n),
                 "ties": lambda: np.round(rng.standard_normal(n), 1),
                 "few_levels": lambda: rng.integers(0, 3, n).astype(float),
                 "constant": lambda: np.full(n, 2.5)}[kind]()
            a, mu = bathtub(any_grid, f, L)
            a_ref, mu_ref = bathtub_by_sort(any_grid, f, L)
            assert mu == mu_ref
            assert np.array_equal(a, a_ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, any_grid, bad):
        f = np.cos(any_grid.centers[:, 0])
        f[any_grid.ncells // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            bathtub(any_grid, f, 0.5)

    @pytest.mark.parametrize("f", [[np.nan, 1.0, 2.0, 3.0], [np.nan] * 4],
                             ids=["one_nan", "all_nan"])
    def test_nan_scores_rejected(self, f):
        # one nan gave [0, 0, 0, 2], a cell outside the box; all nans gave
        # zeros of mean 0 and mu nan
        g = make_grid(DomainSpec(((0.0, 1.0),)), 4, 2)
        with pytest.raises(ValueError, match="finite"):
            bathtub(g, np.array(f), 0.5)

    def test_three_cells(self, unit3):
        a, mu = bathtub(unit3, np.array([3.0, 1.0, 2.0]), 1 / 3)
        assert np.allclose(a, [1, 0, 0])
        assert 2.0 < mu <= 3.0

    def test_constant_score_full_tie(self, unit3):
        a, _ = bathtub(unit3, np.full(3, 7.0), 0.4)
        assert np.allclose(a, 0.4)

    def test_mode_square_quantile(self, d1d):
        for n in (256, 1024):
            g = make_grid(d1d.domain, n, 3)
            f = (2 / PI) * np.sin(g.centers[:, 0]) ** 2
            a, mu = bathtub(g, f, 0.5)
            ind = interval_indicator(g, PI / 4, 3 * PI / 4)
            assert l1_distance(g, a, ind) <= 2.1 * g.cell_measures[0]
            assert abs(mu - 1 / PI) <= 2 / n
        assert abs(mu - 1 / PI) <= 2 / 1024

    def test_mean_exact(self, grid512):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = rng.standard_normal(grid512.ncells)
            a, _ = bathtub(grid512, f, 0.37)
            assert abs(grid512.mean(a) - 0.37) <= 1e-12
            assert (a >= 0).all() and (a <= 1).all()

    def test_hardy_littlewood_optimality(self, grid512):
        rng = np.random.default_rng(1)
        f = np.sin(3 * grid512.centers[:, 0]) + 0.3 * grid512.centers[:, 0]
        a_star, _ = bathtub(grid512, f, 0.5)
        best = float(a_star * f @ grid512.cell_measures)
        for _ in range(1000):
            a = random_feasible(grid512, 0.5, rng)
            val = float(a * f @ grid512.cell_measures)
            assert val <= best + 1e-10

    def test_tie_set_variations_are_equal_optimal(self):
        # redistributions supported on the tie set keep the value exact;
        # any off-tie deviation strictly loses
        g = make_grid(DomainSpec(((0.0, 1.0),)), 8, 2)
        f = np.array([5.0, 4.0, 3.0, 3.0, 3.0, 3.0, 1.0, 0.0])
        a, mu = bathtub(g, f, 0.5)     # ties on the 3.0 block
        assert mu == 3.0
        best = float(a * f @ g.cell_measures)
        tie = f == mu
        redistributed = a.copy()
        redistributed[tie] = [0.9, 0.5, 0.3, 0.3]   # same tie-set mass
        alt = float(redistributed * f @ g.cell_measures)
        assert alt == pytest.approx(best, abs=1e-14)
        off_tie = a.copy()                   # move mass across levels
        off_tie[1] -= 0.2
        off_tie[6] += 0.2
        worse = float(off_tie * f @ g.cell_measures)
        assert worse < best - 1e-12

    def test_exhaustive_vertex_oracle_small_grid(self):
        # linear objective attains its max at a polytope vertex: all cells
        # 0/1 except at most one fractional; enumerate every such vertex
        n, L = 12, 0.5
        g = make_grid(DomainSpec(((0.0, 1.0),)), n, 2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = rng.standard_normal(n)
            a, _ = bathtub(g, f, L)
            got = float(a * f @ g.cell_measures)
            target_cells = L * n
            k = int(np.floor(target_cells))
            frac = target_cells - k
            best = -np.inf
            for full in itertools.combinations(range(n), k):
                rest = [i for i in range(n) if i not in full]
                base = f[list(full)].sum()
                if frac > 1e-12:
                    for extra in rest:
                        best = max(best, base + frac * f[extra])
                else:
                    best = max(best, base)
            best /= n  # cell measure
            assert got == pytest.approx(best, abs=1e-9)


class TestProjectBoxMean:
    @pytest.mark.parametrize("kind", ["normal", "wide", "near_feasible"])
    def test_bitwise_equal_to_bisection(self, any_grid, kind):
        rng = np.random.default_rng(12)
        n = any_grid.ncells
        for L in (1e-9, 0.05, 0.3, 0.5, 0.9, 1 - 1e-9):
            v = {"normal": lambda: rng.standard_normal(n),
                 "wide": lambda: rng.uniform(-50.0, 50.0, n),
                 "near_feasible": lambda: (rng.uniform(size=n) < L)
                 + 0.3 * rng.standard_normal(n)}[kind]()
            a = project_box_mean(any_grid, v, L)
            assert np.array_equal(a, project_by_bisection(any_grid, v, L))

    def test_bitwise_on_a_flat_mean(self, any_grid):
        # +-5 on alternating cells: the mean is flat in the shift over
        # [-4, 5], at 1/2 on an even cell count
        v = np.where(np.arange(any_grid.ncells) % 2 == 0, 5.0, -5.0)
        for L in (0.25, 0.5, 0.75):
            a = project_box_mean(any_grid, v, L)
            assert np.array_equal(a, project_by_bisection(any_grid, v, L))

    def test_idempotent(self, grid512):
        rng = np.random.default_rng(2)
        a = random_feasible(grid512, 0.5, rng)
        b = project_box_mean(grid512, a, 0.5)
        assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, any_grid, bad):
        # one nan among the values used to give nans in every cell
        v = np.cos(any_grid.centers[:, 0])
        v[any_grid.ncells // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            project_box_mean(any_grid, v, 0.5)

    def test_constant_shift(self, unit3):
        a = project_box_mean(unit3, np.full(3, 0.8), 0.5)
        assert np.allclose(a, 0.5, atol=1e-12)

    def test_two_cell_example(self):
        g = make_grid(DomainSpec(((0.0, 2.0),)), 2, 2)
        a = project_box_mean(g, np.array([2.0, -1.0]), 0.5)
        assert np.allclose(a, [1.0, 0.0], atol=1e-12)

    def test_mean_residual(self, grid512):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.uniform(-2, 3, grid512.ncells)
            a = project_box_mean(grid512, v, 0.3)
            assert abs(grid512.mean(a) - 0.3) <= 1e-12

    def test_lattice_oracle_small_grid(self):
        # brute-force weighted-distance minimization over a fine lattice
        n, L, res = 4, 0.5, 50
        g = make_grid(DomainSpec(((0.0, 1.0),)), n, 2)
        rng = np.random.default_rng(4)
        for _ in range(3):
            v = rng.uniform(-1, 2, n)
            a = project_box_mean(g, v, L)
            d_proj = float((a - v) ** 2 @ g.cell_measures)
            target = L * n
            levels = np.linspace(0, 1, res + 1)
            best = np.inf
            for c0 in levels:
                for c1 in levels:
                    for c2 in levels:
                        c3 = target - c0 - c1 - c2
                        if not -1e-9 <= c3 <= 1 + 1e-9:
                            continue
                        cand = np.array([c0, c1, c2, min(max(c3, 0), 1)])
                        best = min(best, float((cand - v) ** 2 @ g.cell_measures))
            assert d_proj <= best + 1e-9
            # lattice resolution bound: projection must be near-optimal
            assert best <= d_proj + 4 * (1 / res) ** 2


class TestL1Distance:
    def test_identical(self, grid512):
        a = np.full(grid512.ncells, 0.5)
        assert l1_distance(grid512, a, a) == 0.0

    def test_full_vs_empty(self, grid512):
        a = np.ones(grid512.ncells)
        b = np.zeros(grid512.ncells)
        assert l1_distance(grid512, a, b) == pytest.approx(PI, rel=1e-12)

    def test_shifted_indicator(self, grid1024):
        h = 0.05
        a = interval_indicator(grid1024, PI / 4, 3 * PI / 4)
        b = interval_indicator(grid1024, PI / 4 + h, 3 * PI / 4 + h)
        assert l1_distance(grid1024, a, b) == pytest.approx(
            2 * h, abs=2 * grid1024.cell_measures[0])

    def test_metric_properties(self, grid512):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b, c = (random_feasible(grid512, 0.5, rng) for _ in range(3))
            dab = l1_distance(grid512, a, b)
            assert dab == pytest.approx(l1_distance(grid512, b, a), rel=1e-12)
            assert dab <= l1_distance(grid512, a, c) + l1_distance(grid512, c, b) + 1e-12

    def test_grid_mismatch(self, grid512, grid1024):
        a = np.zeros(grid512.ncells)
        b = np.zeros(grid1024.ncells)
        with pytest.raises(ValueError):
            l1_distance(grid512, a, b)


class TestTubeMeasure:
    def test_two_crossings_slope(self, grid1024):
        # Psi = (2/pi) sin^2 x, mu* = 1/pi: two crossings with |Psi'| = 2/pi
        psi = (2 / PI) * np.sin(grid1024.centers[:, 0]) ** 2
        for delta in (1e-3, 3e-3, 1e-2):
            m = tube(grid1024, psi, 1 / PI, delta)
            assert m == pytest.approx(2 * PI * delta, rel=0.02)

    def test_saturates_at_full_measure(self, grid512):
        psi = np.sin(grid512.centers[:, 0])
        assert tube(grid512, psi, 0.5, 10.0) == pytest.approx(PI, rel=1e-12)

    def test_constant_psi(self, grid512):
        psi = np.full(grid512.ncells, 0.7)
        assert tube(grid512, psi, 0.7, 1e-6) == pytest.approx(PI, rel=1e-12)


class TestCellValueRanges:
    @pytest.mark.parametrize("bounds, cells", [
        (((0.0, PI),), 37),
        (((0.0, 1.0), (0.0, 2.0)), (7, 5)),
        (((0.0, 0.5), (-1.0, 3.0)), (9, 23)),
    ], ids=["1d", "2d", "tall"])
    def test_bitwise_equal_to_stacked_reduction(self, bounds, cells):
        grid = make_grid(DomainSpec(bounds), cells, 2)
        rng = np.random.default_rng(5)
        special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
        for trial in range(40):
            vals = special[rng.integers(0, special.size, grid.ncells)]
            if trial % 2:           # half of the cells smooth values
                vals = np.where(rng.random(grid.ncells) < 0.5, vals,
                                rng.standard_normal(grid.ncells))
            with np.errstate(invalid="ignore"):     # inf - inf in the corners
                got, ref = _cell_value_ranges(grid, vals), ranges_by_stacked_corners(grid, vals)
            for x, y in zip(got, ref):
                # the same bits, -0.0 and +-inf included; a nan stays a nan,
                # whose sign numpy's min and max do not fix
                nan = np.isnan(y)
                assert np.array_equal(np.isnan(x), nan)
                assert np.array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64))


class TestLevelThreshold:
    def test_sin2_quantile(self, grid1024):
        psi = (2 / PI) * np.sin(grid1024.centers[:, 0]) ** 2
        mu = level_threshold(grid1024, psi, 0.5)
        assert mu == pytest.approx(1 / PI, abs=1e-8)

    @staticmethod
    def assert_full_bisection(grid, kind):
        rng = np.random.default_rng(13)
        n = grid.ncells
        x = grid.centers[:, 0]
        for L in (1e-9, 0.05, 0.3, 0.5, 0.9, 1 - 1e-9):
            psi = {"random": lambda: rng.standard_normal(n),
                   "smooth": lambda: np.cos(3.0 * x + rng.uniform(0.0, 6.0)),
                   "few_levels": lambda: rng.integers(0, 3, n).astype(float)}[kind]()
            assert level_threshold(grid, psi, L) == threshold_by_full_bisection(grid, psi, L)

    @pytest.mark.parametrize("kind", ["random", "smooth", "few_levels"])
    def test_bitwise_equal_to_full_bisection(self, any_grid, kind):
        self.assert_full_bisection(any_grid, kind)

    @pytest.mark.parametrize("kind", ["random", "smooth", "few_levels"])
    def test_bitwise_equal_on_96x96(self, kind):
        # the size of the shipped 2D limit config, where most cells leave
        # the bracket in the first steps
        self.assert_full_bisection(
            make_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (96, 96), 1), kind)

    @pytest.mark.parametrize("name", ["dirichlet1d_limit", "rect2d_limit"])
    def test_bitwise_equal_on_limit_configs(self, name, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        cfg = cli.validate_config(json.loads(path.read_text()))
        model, grid = cli._build(cfg)
        sol = limit_set(model, grid, cfg["L"], cli._opts(cfg))
        steps = []
        fraction_below = geometry._fraction_below
        monkeypatch.setattr(geometry, "_fraction_below",
                            lambda *args: steps.append(1) or fraction_below(*args))
        mu = level_threshold(grid, sol.psi, cfg["L"])
        assert 0 < len(steps) < 100      # one evaluation a step, to its fixed point
        monkeypatch.undo()
        assert mu == sol.mu_star
        assert mu == threshold_by_full_bisection(grid, sol.psi, cfg["L"])

    def test_constant_cells_on_bracket_ends(self):
        # Psi constant on blocks of cells at the levels 0, 1/4, 1/2, 3/4, 1:
        # bisection midpoints of [0, 1], so cells with lo == hi sit on a
        # bracket end, where their fraction is 0 at t = lo and 1 above it
        grid = make_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (40, 40), 1)
        x, y = grid.centers.T
        psi = np.floor(5.0 * x) / 4.0
        lo, hi = _cell_value_ranges(grid, psi)
        assert set(lo[lo == hi]) == {0.0, 0.25, 0.5, 0.75, 1.0}
        for L in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.15, 0.55):
            mu = level_threshold(grid, psi, L)
            assert mu == threshold_by_full_bisection(grid, psi, L)
            # and with a second level set that cuts across the blocks
            psi2 = psi + np.where(y < 0.5, 0.0, 0.25)
            assert level_threshold(grid, psi2, L) == threshold_by_full_bisection(grid, psi2, L)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_psi_rejected(self, any_grid, bad):
        psi = np.cos(any_grid.centers[:, 0])
        psi[any_grid.ncells // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            level_threshold(any_grid, psi, 0.5)

    def test_rectangular_nonsquare_grid(self):
        # Psi = x on (0,2)x(0,3): {Psi > mu} has measure (2-mu)*3
        dom = DomainSpec(((0.0, 2.0), (0.0, 3.0)))
        g = make_grid(dom, (64, 48), 2)
        psi = g.centers[:, 0]
        for L in (0.25, 0.5, 0.7):
            mu = level_threshold(g, psi, L)
            assert mu == pytest.approx(2 * (1 - L), abs=1e-6)
        m = tube(g, psi, 1.0, 0.05)
        assert m == pytest.approx(6 * 0.05, rel=1e-6)


class TestDensityCSV:
    def test_roundtrip(self, tmp_path, grid512):
        rng = np.random.default_rng(7)
        a = random_feasible(grid512, 0.5, rng)
        path = tmp_path / "density.csv"
        write_density_csv(path, grid512, a)
        header = path.read_text().splitlines()[0]
        assert header == "cell,center_x,value"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cell", "center_x", "value"]
        b = np.array([float(r[-1]) for r in rows[1:]])
        assert np.abs(a - b).max() <= 1e-15

    @pytest.mark.parametrize("bounds, cells", [
        (((0.0, PI),), 37),
        (((0.0, 1.0), (0.0, 2.0)), (7, 5)),
        (((0.0, 0.5), (-1.0, 3.0)), (9, 23)),       # more cells along y
    ], ids=["1d", "2d", "tall"])
    def test_bytes_match_csv_writer(self, tmp_path, bounds, cells):
        dim = len(bounds)
        grid = make_grid(DomainSpec(bounds), cells, 2)
        rng = np.random.default_rng(dim)
        vals = rng.uniform(0.0, 1.0, grid.ncells)
        # integral, tiny, signed-zero, non-finite and repeated fractional
        # values
        special = (0.0, 1.0, 1e-300, 1.0 / 3.0, -0.0, 0.0, -0.0, np.nan, np.inf,
                   -np.inf, 0.3, 1.0 / 3.0, 0.3, 1.0, -0.0, np.nan)
        vals[:len(special)] = special
        vals[-3:] = (0.3, -0.0, 1.0 / 3.0)
        if grid.ncells > geometry.CSV_BLOCK + len(special):   # across a template edge
            vals[geometry.CSV_BLOCK - 5:][:len(special)] = special
        path = tmp_path / "density.csv"
        write_density_csv(path, grid, vals)
        assert path.read_bytes() == csv_writer_bytes(tmp_path, grid, vals)
        assert b",-0\r\n" in path.read_bytes() and b",nan\r\n" in path.read_bytes()

    def test_fields_share_a_grid(self, tmp_path):
        # the templates are built once per grid and filled per file: two
        # fields on one grid, and fields on two grids of one shape whose
        # domains differ, each give the csv.writer bytes
        shape = (6, 11)
        grids = [make_grid(DomainSpec(b), shape, 2)
                 for b in (((0.0, 1.0), (0.0, 2.0)), ((-1.0, 3.0), (0.5, 0.75)))]
        rng = np.random.default_rng(3)
        for k, grid in enumerate(grids):
            for vals in (rng.uniform(0.0, 1.0, grid.ncells),
                         rng.integers(0, 2, grid.ncells).astype(float)):
                path = tmp_path / f"density{k}.csv"
                write_density_csv(path, grid, vals)
                assert path.read_bytes() == csv_writer_bytes(tmp_path, grid, vals)
        assert grids[0].csv_templates != grids[1].csv_templates

    @pytest.mark.parametrize("count", [5, 12])
    def test_value_count_must_match_cells(self, tmp_path, count):
        # used to write min(count, ncells) rows without a word
        grid = make_grid(DomainSpec(((0.0, 1.0),)), 8, 2)
        path = tmp_path / "density.csv"
        with pytest.raises(ValueError, match=f"{count} values for a grid of 8 cells"):
            write_density_csv(path, grid, np.zeros(count))

    def test_limit_run_files(self, tmp_path, monkeypatch, capsys):
        # the shipped 96x96 limit run's two density files, against the
        # csv.writer bytes of the fields that the run wrote
        written = {}

        def keep(path, grid, field):
            written[Path(path).name] = grid, field
            write_density_csv(path, grid, field)

        monkeypatch.setattr(cli, "write_density_csv", keep)
        config = Path(__file__).resolve().parents[1] / "configs" / "rect2d_limit.json"
        out = tmp_path / "out"
        assert cli.main(["limit", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(written) == ["density_a1.csv", "density_k_witness.csv"]
        for name, (grid, field) in written.items():
            ref = csv_writer_bytes(tmp_path, grid, field)
            assert (out / name).read_bytes() == ref


def csv_writer_bytes(tmp_path, grid, vals):
    """The density CSV of vals on grid as csv.writer writes it, row by row."""
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["cell"] + [f"center_{ax}" for ax in "xy"[:grid.dim]] + ["value"])
        for i in range(grid.ncells):
            wr.writerow([i, *(f"{c:.16g}" for c in grid.centers[i]), f"{vals[i]:.16g}"])
    return ref.read_bytes()
