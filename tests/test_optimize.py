import itertools

import numpy as np
import pytest

from obsgrid.geometry import DensityField, bathtub, make_grid
from obsgrid.gram import obs_constant
from obsgrid.optimize import (OptOptions, bang_bang_fraction,
                              lower_bound_certificate, maximize_obs,
                              maximize_sigma1, supergradient)
from obsgrid.spectral import (DomainSpec, SpectralModel, build_model,
                               gamma_from_lambda)

from conftest import interval_indicator, random_feasible

PI = np.pi
SIGMA1_MAX = 0.8183098861837906715377675267450287240689   # 1/2 + 1/pi

# frozen certificate oracle at dirichlet_1d, L=0.5, T=2, nu=0.99 (40-digit mpmath)
CERT_EPS = 0.06198161091606104799351030226419153357
CERT_BRANCHES = (0.8101267873219527648223898514775784368,
                 103.6195922225492458261418170369640829514,
                 388.7883318965211720860124623944583811388)
CERT_LOWER = 21.71064854637557925222268098355465283307
CERT_UPPER = 21.92994802664199924466937473086328568997


def _mode1_sq_cell_avg(grid, scale):
    # closed-form cell averages of scale * (2/pi) sin^2 x
    h = grid.cell_measures[0]
    lo = grid.centers[:, 0] - h / 2
    hi = grid.centers[:, 0] + h / 2
    integral = (hi - lo) / 2 - (np.sin(2 * hi) - np.sin(2 * lo)) / 4
    return scale * (2 / PI) * integral / h


class TestSupergradient:
    def test_single_mode_independent_of_density(self, d1d, grid512):
        rng = np.random.default_rng(0)
        ref = _mode1_sq_cell_avg(grid512, gamma_from_lambda(1.0, 1.0))
        for _ in range(3):
            a = random_feasible(grid512, 0.5, rng)
            phi = supergradient(d1d, grid512, a, 1.0, 1)
            assert np.abs(phi.values - ref).max() <= 1e-9 * ref.max()

    def test_constant_density_picks_first_mode(self, d1d, grid512):
        a = np.full(grid512.ncells, 0.5)
        phi = supergradient(d1d, grid512, a, 1.0, 2)
        ref = _mode1_sq_cell_avg(grid512, gamma_from_lambda(1.0, 1.0))
        assert np.abs(phi.values - ref).max() <= 1e-9 * ref.max()

    def test_rayleigh_identity(self, d1d, grid512):
        rng = np.random.default_rng(1)
        for T, N in ((0.5, 4), (1.0, 6), (2.0, 8)):
            a = random_feasible(grid512, 0.5, rng)
            phi = supergradient(d1d, grid512, a, T, N)
            lhs = float(a.values * phi.values @ grid512.cell_measures)
            rhs = obs_constant(d1d, grid512, a, T, N)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_nonnegative(self, d1d, grid512):
        rng = np.random.default_rng(2)
        a = random_feasible(grid512, 0.5, rng)
        phi = supergradient(d1d, grid512, a, 1.5, 8)
        assert (phi.values >= 0).all()


class TestMaximizeObs:
    def test_single_mode_closed_form(self, d1d, grid1024):
        res = maximize_obs(d1d, grid1024, 0.5, 1.0, 1)
        expected = gamma_from_lambda(1.0, 1.0) * (0.5 + np.sin(PI * 0.5) / PI)
        assert res.value == pytest.approx(expected, rel=1e-7)
        assert res.iterations <= 2
        assert res.converged

    def test_history_nondecreasing(self, d1d, grid512):
        res = maximize_obs(d1d, grid512, 0.5, 1.5, 6)
        vals = [h[1] for h in res.history]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert res.fw_gap >= -1e-12

    def test_gap_bounds_true_optimum_on_tiny_grid(self):
        # exhaustive lattice over the relaxed feasible set on 6 cells,
        # batch-evaluated through the per-cell Gram contributions
        model = build_model("dirichlet_1d", 3)
        grid = make_grid(model.domain, 6, 3)
        L, T, N = 0.5, 0.8, 3
        res = maximize_obs(model, grid, L, T, N, OptOptions(tol=1e-9))

        from obsgrid.gram import get_basis
        from obsgrid.spectral import tau
        basis = get_basis(model, grid, (1, 2, 3))
        pc = grid.pts_per_cell
        V = basis.V                     # (3, npts, 1)
        W = grid.quad_w.reshape(grid.ncells, pc)
        P = np.einsum("icpq,jcpq,cp->cij",
                      V.reshape(3, grid.ncells, pc, 1),
                      V.conj().reshape(3, grid.ncells, pc, 1), W)
        lam = basis.lams
        taumat = np.array([[tau(lam[i], lam[j], T).value() for j in range(3)]
                           for i in range(3)])
        levels = np.linspace(0.0, 1.0, 11)
        cand = []
        for combo in itertools.product(levels, repeat=5):
            last = 6 * L - sum(combo)
            if -1e-9 <= last <= 1 + 1e-9:
                cand.append(list(combo) + [min(max(last, 0.0), 1.0)])
        A = np.array(cand)
        G = np.einsum("kc,cij->kij", A, P) * taumat[None, :, :]
        G = 0.5 * (G + np.conj(np.swapaxes(G, 1, 2)))
        best = float(np.linalg.eigvalsh(G)[:, 0].max())
        assert best <= res.value + res.fw_gap + 1e-9
        assert res.value <= best + 1e-3   # coarse lattice cannot beat FW by much

    def test_warm_start_respects_init(self, d1d, grid512):
        rng = np.random.default_rng(3)
        a0 = random_feasible(grid512, 0.5, rng)
        v0 = obs_constant(d1d, grid512, a0, 1.0, 4)
        res = maximize_obs(d1d, grid512, 0.5, 1.0, 4,
                           OptOptions(init=a0, max_iter=1000))
        assert res.value >= v0 - 1e-12

    @pytest.mark.parametrize("bad", [{"max_iter": 0}, {"max_iter": -5},
                                     {"max_iter": 2.5}, {"tol": 0.0},
                                     {"tol": -1e-6}, {"tol": float("nan")}])
    def test_bad_options_rejected(self, bad):
        # max_iter 0 would return value -inf and gap +inf, which
        # report.json cannot carry as strict JSON
        with pytest.raises(ValueError, match=next(iter(bad))):
            OptOptions(**bad)


class TestMaximizeSigma1:
    def test_dirichlet_closed_form(self, d1d, grid1024):
        res = maximize_sigma1(d1d, grid1024, 0.5)
        assert res.value == pytest.approx(SIGMA1_MAX, abs=1e-6)
        ind = interval_indicator(grid1024, PI / 4, 3 * PI / 4)
        assert np.abs(res.a_star.values - ind.values).max() <= 1.0  # same support
        from obsgrid.geometry import l1_distance
        assert l1_distance(res.a_star, ind) <= 2 * grid1024.cell_measures[0]

    def test_matches_bathtub_bitwise(self, d1d, grid512):
        from obsgrid.gram import get_basis
        res = maximize_sigma1(d1d, grid512, 0.4)
        basis = get_basis(d1d, grid512, (1,))
        f = basis.form_cell_average(np.ones((1, 1)))
        a_bt, _ = bathtub(grid512, f.values.real, 0.4)
        assert (res.a_star.values == a_bt.values).all()

    def test_torus_degenerate(self, torus, torus_grid):
        res = maximize_sigma1(torus, torus_grid, 0.5)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.degenerate_flag

    def test_constant_density_value(self, d1d, grid512):
        from obsgrid.limit import sigma1
        a = DensityField(grid512, np.full(grid512.ncells, 0.5))
        assert sigma1(d1d, grid512, a) == pytest.approx(0.5, abs=1e-9)

    def test_supergradient_identity_complex_modes(self):
        # sum_c a_c |c| Phi_c = sigma1(a) needs the Rayleigh weights
        # conj(v); real modes cannot tell v from conj(v), so phi_2 is complex
        from obsgrid.limit import sigma1
        from obsgrid.optimize import _Sigma1Objective
        c = np.sqrt(2.0 / PI)

        def ev(j, x):
            v = c * np.sin(j * x[:, 0]) * (np.exp(1j * x[:, 0]) if j == 2 else 1.0)
            return v.astype(complex)[:, None]

        model = SpectralModel("complex_test", 1, DomainSpec("interval", ((0.0, PI),)),
                              np.array([1.0, 1.0, 4.0], dtype=complex), ev)
        assert model.J1 == (1, 2)
        grid = make_grid(model.domain, 256, 3)
        a = interval_indicator(grid, 0.3, 1.7)
        obj = _Sigma1Objective(model, grid)
        lam, vals, m = obj.value_and_supergradient(obj.mantissa(a.values))
        assert m == 1
        lhs = float(a.values * vals @ grid.cell_measures)
        assert lhs == pytest.approx(sigma1(model, grid, a), rel=1e-14)


class TestBangBangFraction:
    def test_indicator(self, grid512):
        a = interval_indicator(grid512, PI / 4, 3 * PI / 4)
        assert bang_bang_fraction(a, 0.01) <= 2 / 512   # boundary cells only

    def test_constant(self, grid512):
        a = DensityField(grid512, np.full(grid512.ncells, 0.5))
        assert bang_bang_fraction(a, 0.01) == pytest.approx(1.0)

    def test_single_tie_cell(self):
        # target mass cuts one distinct-valued cell in half: one tie cell
        model = build_model("dirichlet_1d", 2)
        grid = make_grid(model.domain, 100, 2)
        f = np.linspace(1.0, 0.0, 100)
        a, _ = bathtub(grid, f, 0.255)
        frac = bang_bang_fraction(a, 1e-6)
        assert frac == pytest.approx(0.01, abs=1e-12)

    def test_tie_block_splits_evenly(self):
        model = build_model("dirichlet_1d", 2)
        grid = make_grid(model.domain, 100, 2)
        f = np.linspace(1.0, 0.0, 100)
        f[30:] = f[30]            # tie block of 70 cells; target cuts inside it
        a, _ = bathtub(grid, f, 0.5)
        frac = bang_bang_fraction(a, 1e-6)
        assert frac == pytest.approx(0.70, abs=1e-12)

    def test_tol_validation(self, grid512):
        a = DensityField(grid512, np.full(grid512.ncells, 0.5))
        with pytest.raises(ValueError):
            bang_bang_fraction(a, 0.7)


class TestCertificate:
    def test_frozen_oracle_values(self, d1d, grid1024):
        s1 = maximize_sigma1(d1d, grid1024, 0.5)
        cert = lower_bound_certificate(d1d, grid1024, s1.a_star, 2.0, nu=0.99)
        assert cert.epsilon == pytest.approx(CERT_EPS, rel=1e-6)
        for got, exp in zip(cert.branches, CERT_BRANCHES):
            assert got == pytest.approx(exp, rel=1e-6)
        assert cert.lower_bound == pytest.approx(CERT_LOWER, rel=1e-6)
        assert cert.upper_bound == pytest.approx(CERT_UPPER, rel=1e-6)

    def test_small_nu_kills_bound(self, d1d, grid1024):
        s1 = maximize_sigma1(d1d, grid1024, 0.5)
        lows = [lower_bound_certificate(d1d, grid1024, s1.a_star, 2.0, nu=nu).lower_bound
                for nu in (1e-2, 1e-4, 1e-6)]
        assert all(b < a for a, b in zip(lows, lows[1:]))
        assert lows[-1] < 1e-4

    def test_auto_nu(self, d1d, grid1024):
        s1 = maximize_sigma1(d1d, grid1024, 0.5)
        cert = lower_bound_certificate(d1d, grid1024, s1.a_star, 2.0)
        # nu_T = 1 - gamma_1 e^{1.5 gap T} / gamma_p0 at T = 2
        g1 = gamma_from_lambda(1.0, 2.0)
        gp = gamma_from_lambda(4.0, 2.0)
        assert cert.nu == pytest.approx(1 - g1 * np.exp(9.0) / gp, rel=1e-12)

    def test_auto_nu_too_small_T(self, d1d, grid1024):
        s1 = maximize_sigma1(d1d, grid1024, 0.5)
        with pytest.raises(ValueError, match="nu"):
            lower_bound_certificate(d1d, grid1024, s1.a_star, 0.3)

    def test_nu_out_of_range(self, d1d, grid1024):
        s1 = maximize_sigma1(d1d, grid1024, 0.5)
        with pytest.raises(ValueError):
            lower_bound_certificate(d1d, grid1024, s1.a_star, 2.0, nu=1.5)

    def test_lower_bound_valid_where_theory_holds(self, d1d, grid512):
        # at T=1 with nu=0.99 the certificate must sit below value + gap
        s1 = maximize_sigma1(d1d, grid512, 0.5)
        cert = lower_bound_certificate(d1d, grid512, s1.a_star, 1.0, nu=0.99)
        res = maximize_obs(d1d, grid512, 0.5, 1.0, 8)
        assert cert.lower_bound <= res.value + res.fw_gap + 1e-9
        assert res.value <= cert.upper_bound * (1 + 1e-9)


class TestTorusObjective:
    def test_constant_density_anchor(self, torus, torus_grid):
        from obsgrid.gram import obs_constant as oc
        a = np.full(torus_grid.ncells, 0.5)
        val = oc(torus, torus_grid, a, 1.0, 6)
        assert val == pytest.approx(0.5 * gamma_from_lambda(1.0, 1.0), rel=1e-9)

    def test_maximize_with_degenerate_cluster(self, torus, torus_grid):
        # J1 = {1,2}: the optimizer must run through the cluster-averaged
        # supergradient without error and certify with a valid gap
        res = maximize_obs(torus, torus_grid, 0.5, 0.5, 6,
                           OptOptions(max_iter=300, tol=1e-5))
        assert res.value >= 0.5 * gamma_from_lambda(1.0, 0.5) - 1e-9
        assert res.fw_gap >= -1e-12


class TestOtherGeometries:
    def test_rect_2d_maximize(self):
        model = build_model("dirichlet_rect_2d", 5)
        grid = make_grid(model.domain, (32, 32), 2)
        res = maximize_obs(model, grid, 0.3, 0.05, 5,
                           OptOptions(max_iter=300, tol=1e-6))
        lam1 = model.eigenvalues[0]
        assert res.value >= 0.3 * gamma_from_lambda(lam1, 0.05) - 1e-12
        assert res.fw_gap >= -1e-12
        # maximizer concentrates around the domain center
        inside = res.a_star.values > 0.5
        centers = grid.centers[inside]
        assert np.abs(centers.mean(axis=0) - 0.5).max() <= 0.05

    def test_coupled_complex_maximize(self):
        u = np.linalg.qr(np.arange(1, 10).reshape(3, 3).astype(complex)
                         + 1j * np.eye(3))[0].conj().T
        model = build_model("coupled_rect_2d", 6, mu=[1 + 2j, 1 - 2j, 3.0], u=u)
        grid = make_grid(model.domain, (24, 24), 2)
        res = maximize_obs(model, grid, 0.4, 0.03, 6,
                           OptOptions(max_iter=200, tol=1e-5))
        lam1 = model.eigenvalues[0]
        assert res.value >= 0.4 * gamma_from_lambda(lam1, 0.03) - 1e-12
        assert res.fw_gap >= -1e-12
        assert np.isfinite(res.value)


class TestRestartDeterminism:
    def test_identical_runs_with_restarts(self, d1d, grid512):
        # the small-T clustered regime exercises line-search stalls and
        # seeded restarts; two runs must agree bitwise
        opts = OptOptions(max_iter=150, tol=1e-9, seed=3)
        r1 = maximize_obs(d1d, grid512, 0.5, 1e-3, 8, opts)
        r2 = maximize_obs(d1d, grid512, 0.5, 1e-3, 8, opts)
        assert r1.value == r2.value
        assert r1.fw_gap == r2.fw_gap
        assert (r1.a_star.values == r2.a_star.values).all()
        assert r1.history == r2.history


class TestScalingInvariance:
    def test_bathtub_argmax_scale_free(self, grid512):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(grid512.ncells)
        a1, mu1 = bathtub(grid512, f, 0.3)
        a2, mu2 = bathtub(grid512, 5.0 * f, 0.3)
        assert (a1.values == a2.values).all()
        assert mu2 == pytest.approx(5.0 * mu1, rel=1e-12)


def _fd_slope(f, h=1e-5):
    return (f(h) - f(-h)) / (2 * h)


class TestValueAndSlope:
    # (T, N, H-block size) on 1024 cells: the L-only path and the three
    # Schur (H-block) cases, where the slope needs the eliminated components
    @pytest.mark.parametrize("T,N,nh", [(2.0, 8, 0), (2.0, 16, 4), (2.5, 12, 2),
                                        (5.0, 16, 9)])
    def test_matches_central_difference(self, d1d, grid1024, T, N, nh):
        from obsgrid.gram import reduce_min_eig
        from obsgrid.optimize import _GramObjective
        obj = _GramObjective(d1d, grid1024, T, N)
        rng = np.random.default_rng(int(10 * T) + N)
        for _ in range(3):
            Ga = obj.mantissa(random_feasible(grid1024, 0.5, rng))
            dG = obj.mantissa(random_feasible(grid1024, 0.5, rng)) - Ga
            assert obj.obs(Ga).hblock.sum() == nh
            val, right, left = obj.value_and_slope(Ga, dG)
            assert val == reduce_min_eig(obj.obs(Ga))
            assert right == left
            fd = _fd_slope(lambda h: reduce_min_eig(obj.obs(Ga + h * dG)))
            assert right == pytest.approx(fd, rel=1e-6)

    def test_sigma1_objective_on_torus(self, torus, torus_grid):
        from obsgrid.optimize import _Sigma1Objective
        obj = _Sigma1Objective(torus, torus_grid)
        assert len(torus.J1) == 2
        rng = np.random.default_rng(5)
        for _ in range(3):
            M = obj.mantissa(random_feasible(torus_grid, 0.5, rng).values)
            dM = obj.mantissa(random_feasible(torus_grid, 0.5, rng).values) - M
            val, right, left = obj.value_and_slope(M, dM)
            assert right == left
            fd = _fd_slope(lambda h: np.linalg.eigvalsh(M + h * dM)[0])
            assert right == pytest.approx(fd, rel=1e-6)

    def test_multiple_eigenvalue_gives_one_sided_slopes(self, torus, torus_grid):
        # at the constant density M_1 = L I: lambda_min(M + t dM) = L + t
        # lambda_min(dM) for t > 0 and L + t lambda_max(dM) for t < 0
        from obsgrid.optimize import _Sigma1Objective
        obj = _Sigma1Objective(torus, torus_grid)
        M = obj.mantissa(np.full(torus_grid.ncells, 0.5))
        b = random_feasible(torus_grid, 0.5, np.random.default_rng(6)).values
        dM = obj.mantissa(b) - M
        _, right, left = obj.value_and_slope(M, dM)
        w = np.linalg.eigvalsh(dM)
        assert right == pytest.approx(w[0], rel=1e-9)
        assert left == pytest.approx(w[-1], rel=1e-9)
        assert right < left


class TestLineSearch:
    """The FW line search on concave functions with known maximizers."""

    @staticmethod
    def _search(phi, dphi):
        # h(t) = (phi, phi'(t+), phi'(t-)) from one-sided slope functions
        calls = []

        def h(t):
            calls.append(t)
            return phi(t), dphi(t, +1), dphi(t, -1)

        from obsgrid.optimize import _golden_section
        t, v = _golden_section(h, h(0.0))
        return t, v, len(calls)

    @pytest.mark.parametrize("phi,dphi,t_star", [
        (lambda t: -np.cosh(3 * (t - 0.37)), lambda t: -3 * np.sinh(3 * (t - 0.37)), 0.37),
        (lambda t: np.log1p(4 * t) - 2 * t, lambda t: 4 / (1 + 4 * t) - 2, 0.25),
        (lambda t: np.sqrt(t + 0.01) - t, lambda t: 0.5 / np.sqrt(t + 0.01) - 1, 0.24),
        # a short FW step: the maximizer ln(1.001) sits near t = 0
        (lambda t: 1.001 * t - np.expm1(t), lambda t: 1.001 - np.exp(t), np.log(1.001)),
    ])
    def test_smooth_interior_maximum(self, phi, dphi, t_star):
        t, v, n = self._search(phi, lambda t, side: dphi(t))
        assert abs(t - t_star) <= 1e-12
        assert v == phi(t)
        assert n <= 12

    def test_maximum_at_zero(self):
        t, v, n = self._search(lambda t: -t - t * t, lambda t, side: -1 - 2 * t)
        assert (t, v) == (0.0, 0.0)
        assert n == 1              # the start value only

    def test_maximum_at_one(self):
        t, v, n = self._search(lambda t: 2 * t - t * t / 4, lambda t, side: 2 - t / 2)
        assert (t, v) == (1.0, 1.75)
        assert n == 2

    def test_kink(self):
        # min(2t, 1 - t): the one-sided slopes jump from 2 to -1 at 1/3
        def dphi(t, side):
            if t == 1 / 3:
                return -1.0 if side > 0 else 2.0
            return 2.0 if t < 1 / 3 else -1.0

        t, v, _ = self._search(lambda t: min(2 * t, 1 - t), dphi)
        assert abs(t - 1 / 3) <= 1e-12
        assert v == min(2 * t, 1 - t)

    def test_crossing_eigenvalues_of_a_hermitian_pencil(self):
        # A + t B with eigenvalues 2t and 1 - t in a complex eigenbasis:
        # lambda_min crosses over at t = 1/3 with one-sided slopes 2 and -1
        from obsgrid.gram import CLUSTER_ETA, EigCluster
        Q = np.linalg.qr(np.array([[1, 2j], [3, 1 - 1j]]))[0]
        A = Q @ np.diag([0.0, 1.0]) @ Q.conj().T
        B = Q @ np.diag([2.0, -1.0]) @ Q.conj().T

        def h(t):
            w, U = np.linalg.eigh(A + t * B)
            members = w <= w[0] + CLUSTER_ETA * (1 + abs(w[0]))
            cl = EigCluster(w[0], w[members], U[:, members], None, U[:, members])
            return (w[0], *cl.slopes(B))

        from obsgrid.optimize import _golden_section
        t, v = _golden_section(h, h(0.0))
        assert abs(t - 1 / 3) <= 1e-12
        assert v == pytest.approx(2 / 3, abs=1e-12)


class TestLineSearchWork:
    def test_dirichlet_1d_regression(self, d1d, grid1024):
        # the search returns the value at its step, so no extra eigensolve
        # follows it; a smooth step takes about 7 evaluations
        res = maximize_obs(d1d, grid1024, 0.5, 2.0, 8)
        assert res.converged
        assert res.iterations == 84
        assert res.value == pytest.approx(18.7248761988238, rel=1e-10)
        assert res.line_search_evals / res.iterations <= 12
        assert res.as_dict()["line_search_evals"] == res.line_search_evals
