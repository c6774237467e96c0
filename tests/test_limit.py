import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from obsgrid.cli import load_config
from obsgrid.geometry import (_cell_value_ranges, bathtub, l1_distance, level_threshold,
                              make_grid)
from obsgrid.gram import get_basis
import obsgrid.limit as limit_mod
from obsgrid.limit import (LimitSolution, _min_ratio, _tube_deltas, cesaro_mean,
                           estimate_bathtub_constant, exact_bathtub_constant,
                           kkt_check, limit_set, sigma1, sliding_ratio, tube_linearity)
from obsgrid.optimize import OptOptions, maximize_sigma1
from obsgrid.spectral import build_model

from conftest import (interval_indicator, random_feasible, simple_cluster_solution,
                      tensor_rule, tube)

PI = np.pi
INV_2PI = 0.1591549430918953357688837633725143620345
ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


@pytest.fixture(scope="module")
def grid2048(d1d):
    return make_grid(d1d.domain, 2048, 3)


@pytest.fixture(scope="module")
def sol05(d1d, grid2048):
    return limit_set(d1d, grid2048, 0.5)


class TestSigma1:
    def test_constant(self, d1d, grid512):
        a = np.full(grid512.ncells, 0.5)
        assert sigma1(d1d, grid512, a) == pytest.approx(0.5, abs=1e-9)

    def test_indicator(self, d1d, grid1024):
        a = interval_indicator(grid1024, PI / 4, 3 * PI / 4)
        assert sigma1(d1d, grid1024, a) == pytest.approx(0.81830988618379067, abs=1e-8)

    def test_torus_perturbation_invariance(self, torus, torus_grid):
        # perturbations orthogonal to {1, cos 2x, sin 2x} leave sigma_1 at L
        x = torus_grid.centers[:, 0]
        base = np.full(torus_grid.ncells, 0.5)
        s0 = sigma1(torus, torus_grid, base)
        for eta, mix in ((0.05, np.cos(x) + np.cos(3 * x)),
                         (0.08, np.sin(x) - 0.5 * np.sin(4 * x))):
            a = 0.5 + eta * mix / np.abs(mix).max()
            assert sigma1(torus, torus_grid, a) == pytest.approx(s0, abs=1e-9)


class TestLimitSet:
    def test_dirichlet_closed_forms(self, d1d, grid2048):
        for L in (0.3, 0.5, 0.7):
            sol = limit_set(d1d, grid2048, L)
            mu_exp = (2 / PI) * np.sin(PI * (1 - L) / 2) ** 2
            val_exp = L + np.sin(PI * L) / PI
            assert sol.mu_star == pytest.approx(mu_exp, abs=1e-6)
            assert sol.sigma1_value == pytest.approx(val_exp, abs=1e-6)
            assert not sol.degenerate
            assert kkt_check(grid2048, sol).passed

    def test_dirichlet_maximizer_is_centered_interval(self, d1d, grid2048):
        sol = limit_set(d1d, grid2048, 0.5)
        ind = interval_indicator(grid2048, PI / 4, 3 * PI / 4)
        assert l1_distance(grid2048, sol.a1, ind) <= 2 * grid2048.cell_measures[0]

    def test_rect_2d_blob(self):
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (96, 96), 3)
        sol = limit_set(m, g, 0.3)
        assert g.mean(sol.a1) == pytest.approx(0.3, abs=1e-12)
        # superlevel set of sin^2(pi x) sin^2(pi y): a centered blob
        inside = sol.a1 > 0.5
        centers = g.centers[inside]
        assert np.abs(centers.mean(axis=0) - 0.5).max() <= 1e-3
        psi_c = 4 * (np.sin(PI * centers[:, 0]) * np.sin(PI * centers[:, 1])) ** 2
        assert psi_c.min() >= sol.mu_star - 0.05 * sol.mu_star
        assert kkt_check(g, sol).passed

    def test_rect_2d_within_one_cell_layer(self):
        # deviation from the exact continuum superlevel set is confined to
        # a one-cell boundary layer: L1 distance <= perimeter * cell size
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (96, 96), 3)
        sol = limit_set(m, g, 0.3)
        psi_exact = 4 * (np.sin(PI * g.centers[:, 0])
                         * np.sin(PI * g.centers[:, 1])) ** 2
        exact = (psi_exact > sol.mu_star).astype(float)
        # the blob at L=0.3 has perimeter ~ 2, cell size 1/96
        assert l1_distance(g, sol.a1, exact) <= 2.5 * (1 / 96)

    @pytest.mark.parametrize("L", [0.1, 0.3, 0.5, 0.8])
    @pytest.mark.parametrize("name,cells", [("dirichlet_1d", 1024),
                                            ("dirichlet_rect_2d", (96, 96))])
    def test_single_mode_head_is_the_bathtub_solution(self, name, cells, L):
        # #J1 = 1: the cluster reconstruction gives Psi = |phi_1|^2 (cell
        # averages) and the maximizer as its own bathtub set, bit for bit
        m = build_model(name, 4)
        g = make_grid(m.domain, cells, 3)
        assert len(m.J1) == 1
        sol = limit_set(m, g, L)
        psi = get_basis(m, g, m.J1).form_cell_average(np.ones((1, 1))).real
        assert (sol.a1 == maximize_sigma1(m, g, L).a_star).all()
        assert (sol.psi == psi).all()
        assert sol.mu_star == level_threshold(g, psi, L)
        assert sol.sigma1_value == sigma1(m, g, sol.a1)
        assert sol.alphas.tolist() == [1.0]
        assert not sol.degenerate

    def test_torus_degenerate(self, torus, torus_grid):
        sol = limit_set(torus, torus_grid, 0.5)
        assert sol.degenerate
        assert sol.sigma1_value == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("L", [0.25, 0.5])
    @pytest.mark.parametrize("name, cells", [("torus_1d", 2), ("torus_1d", 3),
                                             ("torus_1d", 64),
                                             ("coupled_rect_2d", (8, 8))])
    def test_multi_mode_heads_are_degenerate(self, name, cells, L):
        # M_J1(a) is a multiple of I for every FW iterate of these models,
        # so the limit run never needs an upper end for k with #J1 > 1
        if name == "torus_1d":
            m = build_model(name, 4)
        else:
            u = np.linalg.qr(np.arange(1, 10).reshape(3, 3).astype(complex)
                             + 1j * np.eye(3))[0].conj().T
            m = build_model(name, 6, mu=[1 + 2j, 1 - 2j, 3.0], u=u)
        assert len(m.J1) > 1
        sol = limit_set(m, make_grid(m.domain, cells, 3), L)
        assert sol.degenerate, (
            f"{name} on {cells} cells reaches a non-degenerate #J1 > 1 limit at "
            f"L={L}: run_limit needs an upper end for k again (the relaxed "
            f"exact_bathtub_constant gives only the lower end)")

    @pytest.mark.parametrize("name, cells", [("dirichlet_1d", 2),
                                             ("dirichlet_rect_2d", (2, 2))])
    def test_constant_psi_degenerate(self, name, cells):
        # by symmetry every cell holds the same mass of |phi_1|^2: Psi has
        # no level structure and every mean-L density is a maximizer
        m = build_model(name, 4)
        g = make_grid(m.domain, cells, 3)
        sol = limit_set(m, g, 0.5)
        assert np.ptp(sol.psi) <= 1e-12
        assert sol.degenerate
        assert not kkt_check(g, sol).passed

    def test_uniqueness_witness_two_starts(self, d1d, grid1024):
        # different optimizer initializations land on the same maximizer
        rng = np.random.default_rng(0)
        sol_a = limit_set(d1d, grid1024, 0.4)
        init = random_feasible(grid1024, 0.4, rng)
        sol_b = limit_set(d1d, grid1024, 0.4, OptOptions(init=init))
        assert l1_distance(grid1024, sol_a.a1, sol_b.a1) <= grid1024.cell_measures[0]

    @pytest.mark.parametrize("cells", [8, 64, 96])
    def test_psi_transpose_symmetric_on_square_grids(self, cells):
        # sigma_1's one-mode form has the cluster vector 1, so Psi(cx, cy) is
        # the one product A_x[cx] A_y[cy] of the axes' tables of phi_1, and
        # on a square grid these differ by the exact factor 4 of the 2 in
        # phi_1's x factor: Psi is bitwise invariant under
        # (cx, cy) -> (cy, cx), and so are the bathtub's exact ties. A
        # per-cell tensor summed over each cell's 2D Gauss points in C
        # order is not
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (cells, cells), 3)
        psi = limit_set(m, g, 0.3).psi.reshape(cells, cells)
        assert np.array_equal(psi, psi.T)


class TestKKT:
    def test_pass_on_solution(self, grid2048, sol05):
        rep = kkt_check(grid2048, sol05)
        assert rep.passed
        assert rep.min_inside_minus_mu >= -rep.tol
        assert rep.mu_minus_max_outside >= -rep.tol

    def test_fail_on_shifted_interval(self, grid2048, sol05):
        from obsgrid.limit import LimitSolution
        shifted = interval_indicator(grid2048, PI / 4 + 0.1, 3 * PI / 4 + 0.1)
        bad = LimitSolution(shifted, sol05.mu_star, sol05.psi,
                            sol05.alphas, False, 0.0)
        assert not kkt_check(grid2048, bad).passed

    def test_large_nearly_constant_psi_is_flat(self, grid512):
        # range 1e-10 at level 1e4 is below the relative rule: kkt_check
        # used to pass it (absolute 1e-12) and tube_linearity then raised
        x = grid512.centers[:, 0]
        psi = 1e4 + 1e-10 * np.sin(x)
        a1 = bathtub(grid512, psi, 0.5)[0]
        sol = LimitSolution(a1, level_threshold(grid512, psi, 0.5), psi, np.ones(1),
                            False, 0.0)
        assert np.ptp(psi) > 1e-12
        assert not kkt_check(grid512, sol).passed
        with pytest.raises(ValueError, match="no level structure"):
            tube_linearity(grid512, sol)

    def test_fail_on_constant_density(self, grid2048, sol05):
        from obsgrid.limit import LimitSolution
        flat = np.full(grid2048.ncells, 0.5)
        bad = LimitSolution(flat, sol05.mu_star, sol05.psi,
                            sol05.alphas, False, 0.0)
        assert not kkt_check(grid2048, bad).passed


class TestBathtubConstant:
    def test_numerators_nonnegative(self, d1d, grid1024):
        sol = limit_set(d1d, grid1024, 0.5)
        rng = np.random.default_rng(1)
        s1 = sol.sigma1_value
        for _ in range(200):
            a = random_feasible(grid1024, 0.5, rng)
            assert s1 - sigma1(d1d, grid1024, a) >= -1e-10

    def test_sliding_ratio_matches_taylor_oracle(self, d1d, grid2048, sol05):
        # second-order Taylor: sigma drop = (2/pi) h^2 (1 - h^2/3), |.|_1 = 2h
        for h in (0.01, 0.03, 0.05):
            got = sliding_ratio(d1d, grid2048, sol05, h)
            oracle = (2 / PI) * h ** 2 * (1 - h ** 2 / 3) / (2 * h) ** 2
            assert got == pytest.approx(oracle, rel=0.05)
            assert got == pytest.approx(INV_2PI, rel=0.2)

    @pytest.mark.parametrize("h", [0.01, 0.03, 0.05])
    def test_sliding_ratio_none_when_a1_is_constant_up_to_an_ulp(self, h):
        # a1 is a band along y, constant along the slide axis x but for one
        # cell one ulp below 1: the slide moves it by rounding only, and a
        # rounding-level drop over a rounding-level distance squared
        # measures nothing
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (8, 8), 3)
        arr = np.zeros((8, 8))
        arr[:, 2:5] = 1.0
        arr[3, 3] = np.nextafter(1.0, 0.0)
        sol = simple_cluster_solution(m, g, arr.reshape(-1))
        assert sliding_ratio(m, g, sol, h) is None

    def test_khat_positive_over_seeded_samples(self, d1d, grid1024):
        sol = limit_set(d1d, grid1024, 0.5)
        ke = estimate_bathtub_constant(d1d, grid1024, sol,
                                       n_samples=1000, seed=42)
        assert ke.k_hat > 0
        assert ke.n_used >= 900
        assert set(ke.family_mins) == {"slide", "bathtub", "project"}

    def test_deterministic_given_seed(self, d1d, grid1024):
        sol = limit_set(d1d, grid1024, 0.5)
        a = estimate_bathtub_constant(d1d, grid1024, sol, n_samples=150, seed=7)
        b = estimate_bathtub_constant(d1d, grid1024, sol, n_samples=150, seed=7)
        assert a.k_hat == b.k_hat

    def test_out_of_sample_quadratic_bound(self, d1d, grid1024):
        # fresh batch obeys the halved sampled constant
        sol = limit_set(d1d, grid1024, 0.5)
        ke = estimate_bathtub_constant(d1d, grid1024, sol,
                                       n_samples=1000, seed=0)
        rng = np.random.default_rng(10_001)
        s1 = sol.sigma1_value
        for _ in range(300):
            a = random_feasible(grid1024, 0.5, rng, smooth=bool(rng.integers(2)))
            d = l1_distance(grid1024, a, sol.a1)
            if d < 1e-9:
                continue
            drop = s1 - sigma1(d1d, grid1024, a)
            assert drop >= 0.5 * ke.k_hat * d ** 2 - 1e-12

    def test_shift_density_preserves_mass_2d(self):
        from obsgrid.limit import _shift_density
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (24, 24), 2)
        rng = np.random.default_rng(5)
        vals = rng.uniform(0, 1, g.ncells)
        mass0 = vals @ g.cell_measures
        for axis in (0, 1):
            for h in (0.013, 0.2, 0.777):
                shifted = _shift_density(g, vals, h, axis)
                assert shifted @ g.cell_measures == pytest.approx(mass0, rel=1e-12)
                assert shifted.min() >= -1e-15 and shifted.max() <= 1 + 1e-15

    def test_khat_2d(self):
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (48, 48), 2)
        sol = limit_set(m, g, 0.3)
        ke = estimate_bathtub_constant(m, g, sol, n_samples=120, seed=1)
        assert ke.k_hat > 0

    def test_family_mins_pinned_2d(self):
        # recorded from the per-cell score evaluation, the sorting bathtub
        # and the plain bisection projection; a non-square grid on a
        # non-square domain, so each separable score axis is exercised
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (20, 16), 2)
        sol = limit_set(m, g, 0.3)
        ke = estimate_bathtub_constant(m, g, sol, n_samples=24, seed=7)
        assert ke.family_mins == {"bathtub": 2.2301209644957876,
                                  "project": 4.328210227765387,
                                  "slide": 2.190186200140813}
        assert ke.n_used == 19      # 5 draws lie closer to a1 than the floor

    def test_counts_only_draws_at_or_above_the_floor(self, monkeypatch):
        # record every draw of the three families, then redo the count
        # and the minimum over those at distance >= the exact constant's floor
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (20, 16), 2)
        sol = limit_set(m, g, 0.3)
        draws = []

        def recorded(fn, values):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                draws.append(values(out))
                return out
            return wrapped

        monkeypatch.setattr(limit_mod, "_shift_density",
                            recorded(limit_mod._shift_density, np.asarray))
        monkeypatch.setattr(limit_mod, "bathtub",
                            recorded(limit_mod.bathtub, lambda out: out[0]))
        monkeypatch.setattr(limit_mod, "project_box_mean",
                            recorded(limit_mod.project_box_mean, lambda out: out))
        ke = estimate_bathtub_constant(m, g, sol, n_samples=24, seed=7)
        assert len(draws) == 24
        floor = exact_bathtub_constant(m, g, sol).floor
        ratios = []
        for a in draws:
            d = float(np.abs(a - sol.a1) @ g.cell_measures)
            if d >= floor:
                ratios.append((sol.sigma1_value - sigma1(m, g, a)) / d ** 2)
        assert ke.n_used == len(ratios) < len(draws)
        assert ke.k_hat == min(ratios)

    def test_no_draw_beyond_the_floor_gives_none(self):
        # 8 cells at L=0.05: the floor exceeds every feasible distance
        m = build_model("dirichlet_1d", 4)
        g = make_grid(m.domain, 8, 3)
        sol = limit_set(m, g, 0.05)
        assert exact_bathtub_constant(m, g, sol).lower is None
        ke = estimate_bathtub_constant(m, g, sol, n_samples=30, seed=0)
        assert ke.k_hat is None and ke.n_used == 0 and ke.family_mins == {}

    def test_degenerate_rejected(self, torus, torus_grid):
        sol = limit_set(torus, torus_grid, 0.5)
        with pytest.raises(ValueError):
            estimate_bathtub_constant(torus, torus_grid, sol)


# k, and the L1 distance D that attains it, of the shipped #J1 == 1 limit
# configs: 1D moves all of a1 = [pi/4, 3pi/4] onto its complement,
# k = (2/pi) / pi^2, its one tie cell (a1 just below 1) giving; in 2D
# all four tie cells (a1 = 0.2, two transposed pairs) receive
SHIPPED_K = {"dirichlet1d_limit": (0.0645030689, PI),
             "rect2d_limit": (1.42658119, 0.1517361111)}


@pytest.fixture(scope="module", params=sorted(SHIPPED_K))
def shipped(request):
    cfg = load_config(str(CONFIGS / f"{request.param}.json"))
    m = build_model(cfg["model"]["name"], cfg["model"]["n_max"])
    g = make_grid(m.domain, cfg["grid"]["cells"], cfg["grid"]["gauss_order"])
    sol = limit_set(m, g, cfg["L"])
    return request.param, cfg, m, g, sol, exact_bathtub_constant(m, g, sol)


class TestExactBathtubConstant:
    def test_pinned(self, shipped):
        name, _, _, _, _, bc = shipped
        k, D = SHIPPED_K[name]
        assert bc.lower == pytest.approx(k, rel=1e-9)
        assert bc.D == pytest.approx(D, rel=1e-9)

    def test_floor_is_the_undecided_band(self, shipped):
        # the cells kkt_check leaves out: their Psi range straddles mu*
        name, _, _, g, sol, bc = shipped
        lo, hi = _cell_value_ranges(g, sol.psi)
        band = (lo < sol.mu_star) & (hi > sol.mu_star)
        assert bc.floor == float(g.cell_measures[band].sum())
        floor = {"dirichlet1d_limit": 0.0061359232, "rect2d_limit": 0.025607639}[name]
        assert bc.floor == pytest.approx(floor, rel=1e-8)

    def test_witness_attains_lower(self, shipped):
        _, cfg, m, g, sol, bc = shipped
        assert bc.upper == pytest.approx(bc.lower, rel=1e-12)
        w = bc.witness
        assert w.min() >= 0.0 and w.max() <= 1.0
        d = l1_distance(g, bc.witness, sol.a1)
        assert d == pytest.approx(bc.D, rel=1e-12)
        assert g.mean(bc.witness) == pytest.approx(cfg["L"], abs=1e-12)
        assert (sol.sigma1_value - sigma1(m, g, bc.witness)) / d ** 2 == bc.upper

    def test_sampler_never_below_lower(self, shipped):
        name, cfg, m, g, sol, bc = shipped
        k_hats = [estimate_bathtub_constant(m, g, sol, cfg["sampler"]["n_samples"],
                                            seed).k_hat for seed in range(5)]
        assert min(k_hats) >= bc.lower
        seed0 = {"dirichlet1d_limit": 0.06912284, "rect2d_limit": 1.87241045}[name]
        assert k_hats[0] == pytest.approx(seed0, rel=1e-7)

    def test_relaxation_never_above_exact(self, shipped):
        # the #J1 > 1 relaxation, every cell giving and receiving at once,
        # undercuts k in 2D, where the tie cells would do both
        name, _, _, g, sol, bc = shipped
        psi, a1 = sol.psi, sol.a1
        tie = (a1 > 0.0) & (a1 < 1.0)
        relaxed = _min_ratio(psi, a1, g.cell_measures, float(psi[tie][0]), bc.floor,
                             np.ones_like(tie), np.zeros(0, np.intp))
        assert relaxed[0] <= bc.lower
        if name == "rect2d_limit":
            assert relaxed[0] == pytest.approx(1.423166017, rel=1e-9)

    def test_quadratic_bound_on_random_densities(self, shipped):
        _, cfg, m, g, sol, bc = shipped
        rng = np.random.default_rng(10_002)
        checked = 0
        for _ in range(300):
            a = random_feasible(g, cfg["L"], rng, smooth=bool(rng.integers(2)))
            d = l1_distance(g, a, sol.a1)
            if d < bc.floor:
                continue
            checked += 1
            assert sol.sigma1_value - sigma1(m, g, a) >= bc.lower * d ** 2 - 1e-12
        assert checked >= 250

    def test_matches_linear_programs(self):
        # independent oracle: with sigma1 linear (sigma1(a) = K @ a), the
        # smallest drop at L1 distance D for one giver/receiver pattern of
        # the tie cells is a linear program in delta = a1 - a. 8x8 cells
        # at L=0.3 have four tie cells at a1 = 0.3; all 16 patterns are
        # solved on 12 distances and at k_D
        from itertools import product
        from scipy.optimize import linprog
        m = build_model("dirichlet_rect_2d", 4)
        g = make_grid(m.domain, (8, 8), 2)
        sol = limit_set(m, g, 0.3)
        bc = exact_bathtub_constant(m, g, sol)
        a1, w = sol.a1, g.cell_measures
        K = get_basis(m, g, m.J1).form_cells(np.ones((1, 1))).real
        tie = np.flatnonzero((a1 > 0.0) & (a1 < 1.0))
        assert tie.size == 4
        sign = np.where(a1 >= 1.0, 1.0, -1.0)
        lo, hi = np.where(sign > 0, 0.0, -1.0), np.where(sign > 0, 1.0, 0.0)

        def smallest_drop(D):
            best = np.inf
            for pattern in product((1.0, -1.0), repeat=tie.size):
                s, l, h = sign.copy(), lo.copy(), hi.copy()
                s[tie] = pattern
                l[tie] = np.where(s[tie] > 0, 0.0, a1[tie] - 1.0)
                h[tie] = np.where(s[tie] > 0, a1[tie], 0.0)
                res = linprog(K, A_eq=np.stack([w, s * w]), b_eq=[0.0, D],
                              bounds=list(zip(l, h)), method="highs")
                if res.status == 0:
                    best = min(best, res.fun)
            return best

        for D in np.linspace(bc.floor, 2 * 0.3 * g.measure, 12):
            assert smallest_drop(D) >= bc.lower * D ** 2 * (1 - 1e-9)
        assert smallest_drop(bc.D) / bc.D ** 2 == pytest.approx(bc.lower, rel=1e-9)

    def test_no_admissible_distance(self):
        # the floor (two cells) exceeds the largest move of the one tie cell
        m = build_model("dirichlet_1d", 4)
        g = make_grid(m.domain, 8, 3)
        sol = limit_set(m, g, 0.05)
        bc = exact_bathtub_constant(m, g, sol)
        assert (bc.lower, bc.upper, bc.D, bc.witness) == (None, None, None, None)
        assert bc.floor == pytest.approx(2 * PI / 8, rel=1e-15)

    def test_degenerate_rejected(self, torus, torus_grid):
        sol = limit_set(torus, torus_grid, 0.5)
        with pytest.raises(ValueError, match="non-degenerate"):
            exact_bathtub_constant(torus, torus_grid, sol)

    def test_imports_no_numpy_ma(self):
        # np.unique imports numpy.ma (10-15 ms in a fresh process); scipy
        # imports it in the test process, so this runs in a new interpreter
        code = textwrap.dedent("""
            import sys
            from conftest import interval_indicator, simple_cluster_solution
            from obsgrid.geometry import make_grid
            from obsgrid.limit import exact_bathtub_constant, limit_set
            from obsgrid.spectral import build_model
            m = build_model("dirichlet_1d", 4)
            g = make_grid(m.domain, 64, 3)
            single = exact_bathtub_constant(m, g, limit_set(m, g, 0.3))
            t = build_model("torus_1d", 4)
            tg = make_grid(t.domain, 256, 3)
            sol = simple_cluster_solution(t, tg, interval_indicator(tg, 0.3, 1.8))
            relaxed = exact_bathtub_constant(t, tg, sol)
            print(len(m.J1), single.upper is not None, len(t.J1), relaxed.upper is None,
                  "numpy.ma" in sys.modules)
        """)
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                                os.environ.get("PYTHONPATH", "")])
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "True", "2", "True", "False"]

    def test_two_mode_cluster_gets_the_relaxation(self, torus, torus_grid):
        # #J1 == 2: the relaxation bounds every drop at distance >= floor
        a1 = interval_indicator(torus_grid, 0.3, 0.3 + PI / 2)
        sol = simple_cluster_solution(torus, torus_grid, a1)
        bc = exact_bathtub_constant(torus, torus_grid, sol)
        assert bc.upper is None and bc.witness is None
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = random_feasible(torus_grid, 0.25, rng, smooth=bool(rng.integers(2)))
            d = l1_distance(torus_grid, a, a1)
            if d >= bc.floor:
                drop = sol.sigma1_value - sigma1(torus, torus_grid, a)
                assert drop >= bc.lower * d ** 2 - 1e-12


class TestTubeLinearity:
    def test_dirichlet_slope(self, grid2048, sol05):
        m_hat, resid = tube_linearity(grid2048, sol05)
        assert m_hat == pytest.approx(2 * PI, rel=0.05)
        assert resid <= 0.05

    @pytest.mark.parametrize("case", ["1d", "2d"])
    def test_bitwise_equal_to_tube_formula(self, grid2048, sol05, case):
        if case == "1d":
            grid, sol = grid2048, sol05
        else:
            model = build_model("dirichlet_rect_2d", 4)
            grid = make_grid(model.domain, (40, 32), 2)
            sol = limit_set(model, grid, 0.3)
        deltas = _tube_deltas(grid, sol.psi)
        meas = np.array([tube(grid, sol.psi, sol.mu_star, d) for d in deltas])
        m_ref = float((meas @ deltas) / (deltas @ deltas))
        resid_ref = float(np.max(np.abs(meas - m_ref * deltas) / (m_ref * deltas)))
        assert tube_linearity(grid, sol) == (m_ref, resid_ref)

    def test_deltas_span_the_documented_range(self, grid2048, sol05):
        deltas = _tube_deltas(grid2048, sol05.psi)
        psi = sol05.psi
        assert deltas.size == 12 and (np.diff(deltas) > 0).all()
        assert deltas[-1] == pytest.approx(0.1 * (psi.max() - psi.min()), rel=1e-14)
        assert 0 < deltas[0] < deltas[-1] / 10

    def test_constant_psi_rejected(self, grid512):
        from obsgrid.limit import LimitSolution
        flat_psi = np.full(grid512.ncells, 1.0)
        a = np.full(grid512.ncells, 0.5)
        bad = LimitSolution(a, 1.0, flat_psi, np.ones(1), False, 0.5)
        with pytest.raises(ValueError):
            tube_linearity(grid512, bad)


class TestCesaroMean:
    def test_single_mode(self, d1d, grid512):
        ces = cesaro_mean(d1d, grid512, [1])[0]
        ref = (2 / PI) * np.sin(grid512.centers[:, 0]) ** 2
        assert np.abs(ces - ref).max() <= 1e-4

    def test_midpoint_trend(self):
        m = build_model("dirichlet_1d", 64)
        g = make_grid(m.domain, 1024, 3)
        mid = np.argmin(np.abs(g.centers[:, 0] - PI / 2))
        dev64 = abs(cesaro_mean(m, g, [64])[0][mid] - 1 / PI)
        assert dev64 <= 0.02

    def test_compact_deviation_at_64(self):
        m = build_model("dirichlet_1d", 64)
        g = make_grid(m.domain, 1024, 3)
        mask = (g.centers[:, 0] >= PI / 4) & (g.centers[:, 0] <= 3 * PI / 4)
        dev = np.abs(cesaro_mean(m, g, [64])[0][mask] - 1 / PI).max()
        assert dev <= 0.02

    def test_monotone_interior_l1_trend(self):
        m = build_model("dirichlet_1d", 64)
        g = make_grid(m.domain, 1024, 3)
        mask = (g.centers[:, 0] >= PI / 4) & (g.centers[:, 0] <= 3 * PI / 4)
        devs = []
        for N in (8, 16, 32, 64):
            ces = cesaro_mean(m, g, [N])[0]
            devs.append(float(np.abs(ces[mask] - 1 / PI)
                              @ g.cell_measures[mask]))
        assert all(b < a for a, b in zip(devs, devs[1:]))

    @pytest.mark.parametrize("name, N, cells", [("dirichlet_1d", 64, 1024),
                                                ("torus_1d", 12, 1024),
                                                ("dirichlet_rect_2d", 20, (37, 23))])
    def test_running_sums_equal_one_sum_per_N(self, name, N, cells):
        # one call for several N adds the modes in the order of one call per N
        m = build_model(name, N)
        g = make_grid(m.domain, cells, 3)
        Ns = sorted({1, 3, N // 2, N})
        for one, each in zip(cesaro_mean(m, g, Ns), Ns):
            assert np.array_equal(one, cesaro_mean(m, g, [each])[0])

    @pytest.mark.parametrize("Ns", [[], [0, 4], [4, 2], [2, 2], [4, 65]])
    def test_bad_N_lists_raise(self, Ns):
        m = build_model("dirichlet_1d", 64)
        g = make_grid(m.domain, 16, 2)
        with pytest.raises(ValueError, match="ascend strictly within 1..64"):
            cesaro_mean(m, g, Ns)

    @pytest.mark.parametrize("name, N, cells", [("torus_1d", 12, 1024),
                                                ("dirichlet_rect_2d", 20, (37, 23)),
                                                ("coupled_rect_2d", 9, (17, 13))])
    def test_matches_point_quadrature(self, name, N, cells):
        # the per-axis sums against the cell averages of (1/N) sum_j |phi_j|^2
        # over every Gauss point of each cell; coupled_rect_2d with complex u
        if name == "coupled_rect_2d":
            u = np.linalg.qr(np.arange(1, 10).reshape(3, 3).astype(complex)
                             + 1j * np.eye(3))[0].conj().T
            m = build_model(name, N, mu=[1 + 2j, 1 - 2j, 3.0], u=u)
        else:
            m = build_model(name, N)
        g = make_grid(m.domain, cells, 3)
        x, w = tensor_rule(g)
        dens = sum(np.sum(np.abs(m.phi(j, x)) ** 2, axis=1) for j in range(1, N + 1)) / N
        ref = (dens * w).reshape(g.ncells, -1).sum(axis=1) / g.cell_measures
        assert np.max(np.abs(cesaro_mean(m, g, [N])[0] - ref) / ref) <= 1e-13


class TestSigma1Properties:
    def test_concavity(self, d1d, grid512):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_feasible(grid512, 0.5, rng)
            b = random_feasible(grid512, 0.5, rng)
            sa, sb = sigma1(d1d, grid512, a), sigma1(d1d, grid512, b)
            for th in (0.3, 0.5, 0.8):
                mix = th * a + (1 - th) * b
                assert sigma1(d1d, grid512, mix) >= th * sa + (1 - th) * sb - 1e-9

    def test_torus_two_distinct_maximizers(self, torus, torus_grid):
        x = torus_grid.centers[:, 0]
        base = np.full(torus_grid.ncells, 0.5)
        pert = 0.5 + 0.3 * np.cos(x)
        s0, s1v = sigma1(torus, torus_grid, base), sigma1(torus, torus_grid, pert)
        assert abs(s0 - s1v) <= 1e-9
        assert l1_distance(torus_grid, base, pert) > 0.1
