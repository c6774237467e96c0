"""Acceptance suite: one test per stated criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them all).

Criteria 2 (optimizer value inside the certificate sandwich), 3 (final
ratio >= 0.97) and 4 (rate slope <= -1.2) encode bounds that the
implemented system measurably does not attain; they are asserted exactly
as stated and fail honestly. The analysis lives in the project notes:
the certified Frank-Wolfe optimum at T=2 is 18.7248 (duality gap below
1e-6 relative), strictly below the claimed 21.711 lower bound, because
cross-mode couplings contribute an O(1) fraction of the constant at
every horizon. All other criteria pass.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from obsgrid.geometry import bathtub, l1_distance, make_grid, project_box_mean
from obsgrid.gram import (GramForm, min_eigpair, obs_constant, obs_constant_rand,
                          quadratic_decomposition)
from obsgrid.limit import (estimate_bathtub_constant, kkt_check, limit_set,
                           sigma1, sliding_ratio, tube_linearity)
from obsgrid.optimize import (OptOptions, bang_bang_fraction,
                              lower_bound_certificate, maximize_obs,
                              maximize_sigma1)
from obsgrid.cli import _cesaro_deviations, fit_rate
from obsgrid.spectral import build_model, gamma_from_lambda

from conftest import interval_indicator, random_feasible

PI = np.pi

# 40-digit mpmath oracles
L_GAMMA1 = {0.25: 0.1621803176750320367121626969535408929,
            1.0: 1.597264024732662556807606865143751953,
            2.0: 13.39953750828605976952756530071521960}
CERT_LOWER = 21.71064854637557925222268098355465283307
CERT_UPPER = 21.92994802664199924466937473086328568997
INV_2PI = 0.1591549430918953357688837633725143620345


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def model16():
    return build_model("dirichlet_1d", 16)


@pytest.fixture(scope="module")
def g1024(model16):
    return make_grid(model16.domain, 1024, 3)


@pytest.fixture(scope="module")
def g2048(model16):
    return make_grid(model16.domain, 2048, 3)


@pytest.fixture(scope="module")
def sweep(model16, g1024):
    """Shared sweep at T in {0.5..2.5}, N=8, grid 1024 (criteria 2, 3, 4)."""
    t0 = time.perf_counter()
    s1 = maximize_sigma1(model16, g1024, 0.5)
    points = {}
    t2_seconds = None
    for T in (0.5, 1.0, 1.5, 2.0, 2.5):
        t_pt = time.perf_counter()
        res = maximize_obs(model16, g1024, 0.5, T, 8, OptOptions(tol=1e-6))
        if T == 2.0:
            t2_seconds = time.perf_counter() - t_pt
        g1 = gamma_from_lambda(1.0, T)
        points[T] = {
            "res": res,
            "ratio": res.value / (g1 * s1.value),
            "dist": l1_distance(g1024, res.a_star, s1.a_star),
        }
    return {"a1": s1, "points": points, "t2_seconds": t2_seconds,
            "total_seconds": time.perf_counter() - t0}


class TestCriterion1:
    def test_constant_density_anchor(self, model16, g1024):
        t0 = time.perf_counter()
        a = np.full(g1024.ncells, 0.5)
        worst = 0.0
        for T, expected in L_GAMMA1.items():
            for N in (2, 4, 8):
                val = obs_constant(model16, g1024, a, T, N)
                worst = max(worst, abs(val - expected) / expected)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and elapsed < 5.0
        assert report(1, ok,
                      f"obs_constant(a=L) vs L*gamma_1: worst rel err "
                      f"{worst:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 5s)")


class TestCriterion2:
    def test_certificate_values(self, model16, g1024, sweep):
        cert = lower_bound_certificate(model16, g1024, sweep["a1"].a_star,
                                       2.0, nu=0.99)
        ok = (cert.lower_bound == pytest.approx(CERT_LOWER, rel=1e-6)
              and cert.upper_bound == pytest.approx(CERT_UPPER, rel=1e-6))
        assert report("2 (certificate values)", ok,
                      f"lower {cert.lower_bound:.6f} (expect 21.71065), "
                      f"upper {cert.upper_bound:.6f} (expect 21.92995)")

    def test_gap_and_runtime(self, sweep):
        res = sweep["points"][2.0]["res"]
        ok = res.fw_gap <= 1e-4 * res.value and sweep["t2_seconds"] < 60.0
        assert report("2 (gap, runtime)", ok,
                      f"fw_gap {res.fw_gap:.2e} <= 1e-4 * value "
                      f"{res.value:.4f}; T=2 solve {sweep['t2_seconds']:.1f}s (< 60s)")

    def test_value_inside_sandwich(self, sweep):
        # stated bound is not attainable: the certified optimum is ~18.72
        # (see module docstring and the project analysis notes)
        res = sweep["points"][2.0]["res"]
        lo, hi = 21.711 * (1 - 1e-3), 21.930 * (1 + 1e-3)
        ok = lo <= res.value <= hi
        assert report("2 (value in sandwich)", ok,
                      f"value {res.value:.4f} vs stated [{lo:.3f}, {hi:.3f}]; "
                      f"certified optimum (value+gap) {res.value + res.fw_gap:.4f}")


class TestSandwichInfeasibilityWitness:
    """Executable form of the blocking analysis for criterion 2.

    By concavity, value + fw_gap is a rigorous upper bound on the
    truncated optimum, and truncation only overestimates the full
    constant. The witness shows this certified ceiling sits strictly
    below the stated 21.711 sandwich floor, so no implementation of the
    stated quantities can place the optimizer value inside the sandwich.
    """

    def test_certified_ceiling_below_sandwich_floor(self, sweep):
        res = sweep["points"][2.0]["res"]
        ceiling = res.value + res.fw_gap
        assert res.fw_gap <= 1e-4 * res.value          # tight certificate
        assert ceiling < 21.711 * (1 - 1e-3)           # floor unreachable
        report("2-witness", True,
               f"certified optimum ceiling {ceiling:.4f} < sandwich floor "
               f"{21.711 * (1 - 1e-3):.4f}; the stated bound is infeasible")


class TestCriterion3:
    def test_ratio_nondecreasing(self, sweep):
        rs = [sweep["points"][T]["ratio"] for T in sorted(sweep["points"])]
        ok = all(b >= a - 1e-9 for a, b in zip(rs, rs[1:]))
        assert report("3 (r nondecreasing)", ok,
                      "r(T) = " + ", ".join(f"{r:.5f}" for r in rs))

    def test_final_ratio(self, sweep):
        # stated bound not attainable: r(T) saturates near 0.855
        r_final = sweep["points"][2.5]["ratio"]
        ok = r_final >= 0.97 and sweep["total_seconds"] < 300.0
        assert report("3 (r(2.5) >= 0.97)", ok,
                      f"r(2.5) = {r_final:.5f}; sweep runtime "
                      f"{sweep['total_seconds']:.1f}s (< 300s)")


class TestCriterion4:
    def test_distance_nonincreasing(self, sweep):
        ds = [sweep["points"][T]["dist"] for T in sorted(sweep["points"])]
        ok = all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))
        assert report("4 (d nonincreasing)", ok,
                      "d(T) = " + ", ".join(f"{d:.4f}" for d in ds))

    def test_rate_slope(self, sweep, g1024):
        # stated bound not attainable: d(T) plateaus near 0.57
        pts = [(T, sweep["points"][T]["dist"]) for T in sorted(sweep["points"])]
        floor = 3.0 * float(g1024.cell_measures.max())
        slope, _, window, saturated = fit_rate(pts, floor)
        ok = (not saturated) and slope is not None and slope <= -1.2
        assert report("4 (slope <= -1.2)", ok,
                      f"fitted slope {slope if slope is None else round(slope, 4)} "
                      f"over window {window}, floor {floor:.4f}")


class TestCriterion5:
    def test_limit_closed_forms(self, model16, g2048):
        worst_mu = worst_val = 0.0
        kkt_all = True
        for L in (0.3, 0.5, 0.7):
            sol = limit_set(model16, g2048, L)
            mu_exp = (2 / PI) * np.sin(PI * (1 - L) / 2) ** 2
            val_exp = L + np.sin(PI * L) / PI
            worst_mu = max(worst_mu, abs(sol.mu_star - mu_exp))
            worst_val = max(worst_val, abs(sol.sigma1_value - val_exp))
            kkt_all &= kkt_check(g2048, sol).passed
        ok = worst_mu <= 1e-6 and worst_val <= 1e-6 and kkt_all
        assert report(5, ok,
                      f"limit problem closed forms: |value err| {worst_val:.2e}, "
                      f"|mu* err| {worst_mu:.2e} (tol 1e-6), KKT pass={kkt_all}")


class TestCriterion6:
    def test_quantitative_bathtub(self, model16, g2048):
        sol = limit_set(model16, g2048, 0.5)
        ke = estimate_bathtub_constant(model16, g2048, sol,
                                       n_samples=1000, seed=42)
        ratios = [sliding_ratio(model16, g2048, sol, h)
                  for h in (0.01, 0.02, 0.03, 0.04, 0.05)]
        worst = max(abs(r - INV_2PI) / INV_2PI for r in ratios)
        ok = ke.k_hat > 0 and worst <= 0.20
        assert report(6, ok,
                      f"K_hat {ke.k_hat:.5f} > 0 over 1000 samples; sliding "
                      f"ratios within {worst * 100:.1f}% of 1/(2 pi) (tol 20%)")


class TestCriterion7:
    def test_tube_linearity(self, model16, g2048):
        sol = limit_set(model16, g2048, 0.5)
        m_hat, resid = tube_linearity(g2048, sol)
        ok = abs(m_hat - 2 * PI) <= 0.05 * 2 * PI and resid <= 0.05
        assert report(7, ok,
                      f"M_hat {m_hat:.4f} vs 2 pi = {2 * PI:.4f} "
                      f"({abs(m_hat - 2 * PI) / (2 * PI) * 100:.2f}%), "
                      f"max residual {resid * 100:.2f}% (tol 5%)")


class TestCriterion8:
    def test_torus_degeneracy(self, torus, torus_grid):
        x = torus_grid.centers[:, 0]
        L = 0.5
        base = np.full(torus_grid.ncells, L)
        s_base = sigma1(torus, torus_grid, base)
        rng = np.random.default_rng(0)
        spread = 0.0
        members = []
        for _ in range(20):
            vals = np.zeros(torus_grid.ncells)
            for k in (1, 3, 4, 5):
                vals += rng.uniform(-1, 1) * np.cos(k * x) \
                    + rng.uniform(-1, 1) * np.sin(k * x)
            a = L + 0.4 * vals / np.abs(vals).max()
            members.append(a)
            spread = max(spread, abs(sigma1(torus, torus_grid, a) - s_base))
        far = max(l1_distance(torus_grid, a, base) for a in members)
        res = maximize_sigma1(torus, torus_grid, L)
        bb = bang_bang_fraction(base)
        attained = abs(s_base - res.value) <= 1e-8
        ok = spread <= 1e-9 and far >= 0.1 and bb > 0.5 and attained
        assert report(8, ok,
                      f"sigma_1 spread {spread:.2e} (tol 1e-9); max L1 between "
                      f"maximizers {far:.3f} (>= 0.1); constant maximizer "
                      f"bang-bang fraction {bb:.2f} attains max within 1e-8: {attained}")


class TestCriterion9:
    def test_randomized_dominates(self, model16, grid512):
        rng = np.random.default_rng(9)
        worst = -np.inf
        for T in (0.5, 2.0):
            for _ in range(50):
                a = random_feasible(grid512, 0.5, rng)
                rnd = obs_constant_rand(model16, grid512, a, T, 8)
                det = obs_constant(model16, grid512, a, T, 8)
                worst = max(worst, det - rnd)
        ok = worst <= 1e-10
        assert report(9, ok,
                      f"max(det - rand) over 100 densities x T in (0.5, 2): "
                      f"{worst:.2e} (tol 1e-10)")


class TestCriterion10:
    def test_small_time(self, model16, g1024):
        L, T = 0.5, 1e-3
        values = {}
        init = None
        for N in (16, 8, 4):      # descending warm starts (see notes)
            res = maximize_obs(model16, g1024, L, T, N, OptOptions(init=init))
            values[N] = res.value / T
            init = res.a_star
        vs = [values[N] for N in (4, 8, 16)]
        chain = vs[0] >= vs[1] >= vs[2] >= L
        floor_ok = all(v >= L - 1e-6 for v in vs)
        margin_ok = vs[2] <= L + 0.1
        ces_model = build_model("dirichlet_1d", 64)
        devs = _cesaro_deviations(ces_model, g1024, [8, 16, 32, 64])
        ces_ok = all(b < a for a, b in zip(devs, devs[1:]))
        ok = chain and floor_ok and margin_ok and ces_ok
        assert report(10, ok,
                      f"v(4,8,16) = {vs[0]:.5f} >= {vs[1]:.5f} >= {vs[2]:.5f} "
                      f">= {L}; v(16) <= {L + 0.1}; Cesaro devs "
                      + "->".join(f"{d:.4f}" for d in devs))


class TestCriterion11:
    def test_oracle_equivalence(self, model16, g1024):
        rng = np.random.default_rng(11)
        # bathtub vs exhaustive vertices on 12 cells
        grid12 = make_grid(model16.domain, 12, 2)
        ok_bath = True
        for _ in range(3):
            f = rng.standard_normal(12)
            a, _ = bathtub(grid12, f, 0.5)
            got = float(a * f @ grid12.cell_measures)
            best = -np.inf
            for full in itertools.combinations(range(12), 6):
                best = max(best, f[list(full)].sum())
            best *= grid12.cell_measures[0]
            ok_bath &= abs(got - best) <= 1e-9

        # projection vs lattice on 4 cells
        grid4 = make_grid(model16.domain, 4, 2)
        ok_proj = True
        levels = np.linspace(0, 1, 41)
        for _ in range(3):
            v = rng.uniform(-1, 2, 4)
            a = project_box_mean(grid4, v, 0.5)
            d_proj = float((a - v) ** 2 @ grid4.cell_measures)
            best = np.inf
            for c in itertools.product(levels, repeat=3):
                last = 2.0 - sum(c)
                if -1e-9 <= last <= 1 + 1e-9:
                    cand = np.array([*c, min(max(last, 0), 1)])
                    best = min(best, float((cand - v) ** 2 @ grid4.cell_measures))
            ok_proj &= d_proj <= best + 1e-9

        # min_eigpair vs inertia-bisection root bracketing up to 8x8
        def count_below(H, x):
            _, D, _ = scipy.linalg.ldl(H - x * np.eye(H.shape[0]))
            return int((np.linalg.eigvalsh(D) < 0).sum())

        ok_eig = True
        for n in (4, 8):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H = (A + A.conj().T) / 2
            radius = np.abs(H).sum(axis=1).max()
            lo, hi = -radius, radius
            for _ in range(80):
                mid = (lo + hi) / 2
                if count_below(H, mid) >= 1:
                    hi = mid
                else:
                    lo = mid
            lam, _ = min_eigpair(H)
            ok_eig &= abs(lam - (lo + hi) / 2) <= 1e-9 * max(1.0, radius)

        # graded eigensolve vs naive eigensolve where both accurate
        ind = interval_indicator(g1024, PI / 4, 3 * PI / 4)
        form = GramForm(model16, g1024, 0.3, 8)
        naive = float(np.linalg.eigvalsh(form.reconstruct(form.mantissa(ind)))[0])
        graded = obs_constant(model16, g1024, ind, 0.3, 8)
        ok_graded = abs(graded - naive) <= 1e-9 * naive

        ok = ok_bath and ok_proj and ok_eig and ok_graded
        assert report(11, ok,
                      f"bathtub vs exhaustive: {ok_bath}; projection vs "
                      f"lattice: {ok_proj}; min_eigpair vs root-bracketing: "
                      f"{ok_eig}; graded vs naive (1e-9): {ok_graded}")


class TestCriterion12:
    def test_cauchy_schwarz_diagnostic(self, model16, g1024):
        rng = np.random.default_rng(12)
        a_const = np.full(g1024.ncells, 0.5)
        worst_cs = -np.inf
        worst_d0 = 0.0
        for _ in range(100):
            c_tail = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            c_tail /= np.linalg.norm(c_tail)
            eps = float(rng.uniform(0, 1))
            a = random_feasible(g1024, 0.5, rng)
            A, B, D = quadratic_decomposition(model16, g1024, a, 0.4, 4,
                                              eps, [1.0], c_tail)
            worst_cs = max(worst_cs, abs(D) - math.sqrt(A * B))
            _, _, D0 = quadratic_decomposition(model16, g1024, a_const, 0.4, 4,
                                               eps, [1.0], c_tail)
            worst_d0 = max(worst_d0, abs(D0))
        ok = worst_cs <= 1e-10 and worst_d0 <= 1e-12
        assert report(12, ok,
                      f"max(|D| - sqrt(AB)) = {worst_cs:.2e} (tol 1e-10); "
                      f"max |D_(T,L)| = {worst_d0:.2e} (tol 1e-12)")
