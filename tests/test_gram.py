import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from obsgrid.geometry import make_grid
from obsgrid.gram import (ContractViolation, GramForm, get_basis, min_eig_cluster,
                          min_eigpair, obs_constant, obs_constant_rand,
                          quadratic_decomposition, reduce_min_eig)
from obsgrid.spectral import build_model, gamma_from_lambda

from conftest import interval_indicator, mp_min_eig, random_feasible

PI = np.pi

# frozen oracles (40-digit mpmath evaluation of the closed forms)
M11 = 0.8183098861837906715377675267450287240689       # 1/2 + 1/pi
M13 = -0.3183098861837906715377675267450287240689      # -1/pi
M33 = 0.3938967046054031094874108244183237586437       # 1/2 - 1/(3 pi)
G11_T05 = 0.7030435037389985166800754992886960711      # gamma_1(1/2) * M11
G22_T05 = 3.349884377071514942381891325178804900       # gamma_2(1/2) * 1/2
L_GAMMA1 = {0.25: 0.1621803176750320367121626969535408929,
            1.0: 1.597264024732662556807606865143751953,
            2.0: 13.39953750828605976952756530071521960}


@pytest.fixture(scope="module")
def indicator(grid1024):
    return interval_indicator(grid1024, PI / 4, 3 * PI / 4)


class TestIdentity:
    def test_grid_and_model_compare_by_identity(self):
        # the generated __eq__ compared numpy fields (ValueError) and left
        # both types unhashable
        model, twin_model = build_model("dirichlet_1d", 4), build_model("dirichlet_1d", 4)
        grid, twin_grid = make_grid(model.domain, 64, 3), make_grid(model.domain, 64, 3)
        for x, twin in ((grid, twin_grid), (model, twin_model)):
            assert x == x and not x != x
            assert x != twin and not x == twin
            assert hash(x) == hash(x)
            assert len({x, twin}) == 2

    def test_get_basis_keyed_by_identity(self):
        get_basis.cache_clear()
        model = build_model("dirichlet_1d", 4)
        grid, twin = make_grid(model.domain, 64, 3), make_grid(model.domain, 64, 3)
        basis = get_basis(model, grid, (1, 2))
        assert get_basis(model, grid, (1, 2)) is basis
        assert get_basis(model, twin, (1, 2)) is not basis
        info = get_basis.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (1, 2, 32)

    def test_recently_used_basis_outlives_33_new_ones(self):
        # least recently used eviction: a clear-all of the whole cache once
        # it held more than 32 entries used to drop it
        get_basis.cache_clear()
        model = build_model("dirichlet_1d", 40)
        grid = make_grid(model.domain, 8, 1)
        kept = get_basis(model, grid, (1,))
        for j in range(2, 35):
            assert get_basis(model, grid, (1,)) is kept
            get_basis(model, grid, (j,))
        assert get_basis(model, grid, (1,)) is kept


class TestMassMatrix:
    def test_identity_for_full_density(self, d1d, grid1024):
        M = get_basis(d1d, grid1024, tuple(range(1, 9))).mass(np.ones(grid1024.ncells))
        assert np.abs(M - np.eye(8)).max() <= 1e-8

    def test_constant_density(self, d1d, grid1024):
        M = get_basis(d1d, grid1024, tuple(range(1, 5))).mass(np.full(grid1024.ncells, 0.3))
        assert np.abs(M - 0.3 * np.eye(4)).max() <= 1e-8

    def test_indicator_closed_forms(self, d1d, grid1024, indicator):
        M = get_basis(d1d, grid1024, (1, 2, 3)).mass(indicator)
        assert M[0, 0].real == pytest.approx(M11, abs=1e-8)
        assert abs(M[0, 1]) <= 1e-8
        assert M[0, 2].real == pytest.approx(M13, abs=1e-8)
        assert M[1, 1].real == pytest.approx(0.5, abs=1e-8)
        assert M[2, 2].real == pytest.approx(M33, abs=1e-8)

    def test_against_adaptive_quadrature(self, d1d, grid1024, indicator):
        # independent oracle: scipy adaptive quadrature of the exact integrand
        M = get_basis(d1d, grid1024, (2, 4)).mass(indicator)
        for (i, j), entry in np.ndenumerate(M):
            mi, mj = (2, 4)[i], (2, 4)[j]
            val, _ = scipy.integrate.quad(
                lambda x, mi=mi, mj=mj: (2 / PI) * np.sin(mi * x) * np.sin(mj * x),
                PI / 4, 3 * PI / 4, epsabs=1e-12)
            assert entry.real == pytest.approx(val, abs=1e-7)

    def test_hermitian_and_psd(self, d1d, grid512):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = random_feasible(grid512, 0.4, rng)
            M = get_basis(d1d, grid512, tuple(range(1, 7))).mass(a)
            assert np.abs(M - M.conj().T).max() <= 1e-13
            w = np.linalg.eigvalsh(M)
            assert w[0] >= -1e-10 * max(w[-1], 1.0)


class TestAssemble:
    def test_single_mode(self, d1d, grid512, ):
        a = np.full(grid512.ncells, 0.5)
        form = GramForm(d1d, grid512, 1.0, 1)
        G = form.reconstruct(form.mantissa(a))
        expected = gamma_from_lambda(1.0, 1.0) * 0.5
        assert G[0, 0].real == pytest.approx(expected, rel=1e-9)

    def test_constant_density_diagonal(self, d1d, grid1024):
        a = np.full(grid1024.ncells, 0.5)
        form = GramForm(d1d, grid1024, 0.5, 4)
        G = form.reconstruct(form.mantissa(a))
        for j in range(4):
            expected = 0.5 * gamma_from_lambda((j + 1) ** 2, 0.5)
            assert G[j, j].real == pytest.approx(expected, rel=1e-9)
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() <= 1e-6   # quadrature-level off-diagonals

    def test_indicator_diagonal_case(self, d1d, grid1024, indicator):
        form = GramForm(d1d, grid1024, 0.5, 2)
        G = form.reconstruct(form.mantissa(indicator))
        assert G[0, 0].real == pytest.approx(G11_T05, rel=1e-8)
        assert G[1, 1].real == pytest.approx(G22_T05, rel=1e-8)
        assert abs(G[0, 1]) <= 1e-7


class TestMinEigpair:
    def test_diagonal(self):
        lam, v = min_eigpair(np.diag([3.0, 1.0, 2.0]))
        assert lam == pytest.approx(1.0)
        assert np.allclose(np.abs(v), [0, 1, 0])

    def test_two_by_two(self):
        lam, v = min_eigpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lam == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_phase_convention(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        H = A + A.conj().T
        lam, v = min_eigpair(H)
        k = np.argmax(np.abs(v))
        assert v[k].imag == pytest.approx(0.0, abs=1e-12)
        assert v[k].real >= 0

    def test_residual_contract(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 8):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H = A + A.conj().T
            lam, v = min_eigpair(H)
            r = np.linalg.norm(H @ v - lam * v)
            assert r <= 1e-10 * (1 + np.linalg.norm(H, 2))

    def test_against_inertia_bisection_oracle(self):
        # independent root-bracketing oracle: count eigenvalues below x via
        # the inertia of the LDL^H factorization of H - x I
        def count_below(H, x):
            _, D, _ = scipy.linalg.ldl(H - x * np.eye(H.shape[0]))
            w = np.linalg.eigvalsh(D)   # block-diagonal, tiny blocks
            return int((w < 0).sum())

        rng = np.random.default_rng(3)
        for n in (3, 5, 8):
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
            assert lam == pytest.approx((lo + hi) / 2, abs=1e-9 * max(1, radius))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolation):
            min_eigpair(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestObsConstant:
    def test_constant_density_anchor(self, d1d, grid1024):
        # obs_constant(a=L) = L gamma_1(T) at 1e-10 relative for all (T, N)
        a = np.full(grid1024.ncells, 0.5)
        for T, expected in L_GAMMA1.items():
            for N in (2, 4, 8):
                val = obs_constant(d1d, grid1024, a, T, N)
                assert val == pytest.approx(expected, rel=1e-10), (T, N)

    def test_indicator_diagonal_min(self, d1d, grid1024, indicator):
        val = obs_constant(d1d, grid1024, indicator, 0.5, 2)
        assert val == pytest.approx(G11_T05, rel=1e-8)

    def test_graded_solve_matches_naive_eigensolve(self, d1d, grid1024, indicator):
        # window where the naive dense eigensolve is trustworthy: mild
        # grading at T=0.3
        form = GramForm(d1d, grid1024, 0.3, 8)
        naive = float(np.linalg.eigvalsh(form.reconstruct(form.mantissa(indicator)))[0])
        graded = obs_constant(d1d, grid1024, indicator, 0.3, 8)
        assert graded == pytest.approx(naive, rel=1e-9)

    @pytest.mark.parametrize("T,N", [(0.5, 8), (2.0, 16)])
    def test_cluster_value_is_reduce_value(self, d1d, grid512, T, N):
        a = random_feasible(grid512, 0.5, np.random.default_rng(7))
        form = GramForm(d1d, grid512, T, N)
        Ghat = form.mantissa(a)
        assert reduce_min_eig(form, Ghat) == min_eig_cluster(form, Ghat)[0]

    def test_overflow_past_theta_raises(self, d1d, grid512):
        a = np.full(grid512.ncells, 0.5)
        with pytest.raises(OverflowError):
            obs_constant(d1d, grid512, a, 400.0, 2)

    def test_reconstruct_past_double_range_raises(self, d1d, grid512):
        # the form builds (2 e_1 = 4), but e_16 + e_16 = 1024 leaves the doubles
        form = GramForm(d1d, grid512, 2.0, 16)
        Ghat = form.mantissa(np.full(grid512.ncells, 0.5))
        with pytest.raises(OverflowError, match="double range"):
            form.reconstruct(Ghat)

    # (T, N) with the exponent spread 2 (e_N - e_1) at 1020, 715 and 2550
    @pytest.mark.parametrize("T,N", [(2.0, 16), (2.5, 12), (5.0, 16)])
    def test_stiff_spread_matches_mpmath(self, d1d, grid1024, T, N):
        rng = np.random.default_rng(int(10 * T) + N)
        for _ in range(2):
            form = GramForm(d1d, grid1024, T, N)
            Ghat = form.mantissa(random_feasible(grid1024, 0.5, rng))
            assert reduce_min_eig(form, Ghat) == pytest.approx(mp_min_eig(form, Ghat)[0],
                                                               rel=1e-13)

    def test_monotone_truncation(self, d1d, grid512):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = random_feasible(grid512, 0.5, rng)
            vals = [obs_constant(d1d, grid512, a, 1.0, N) for N in (2, 4, 6, 8)]
            assert all(b <= a_ + 1e-10 for a_, b in zip(vals, vals[1:]))

    def test_concavity(self, d1d, grid512):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = random_feasible(grid512, 0.5, rng)
            b = random_feasible(grid512, 0.5, rng)
            ca = obs_constant(d1d, grid512, a, 1.0, 6)
            cb = obs_constant(d1d, grid512, b, 1.0, 6)
            for th in (0.25, 0.5, 0.75):
                mix = th * a + (1 - th) * b
                cmix = obs_constant(d1d, grid512, mix, 1.0, 6)
                assert cmix >= th * ca + (1 - th) * cb - 1e-9

    def test_j1_upper_bound(self, d1d, grid512):
        rng = np.random.default_rng(6)
        g1 = gamma_from_lambda(1.0, 1.5)
        for _ in range(10):
            a = random_feasible(grid512, 0.5, rng)
            sigma1 = get_basis(d1d, grid512, (1,)).mass(a)[0, 0].real
            val = obs_constant(d1d, grid512, a, 1.5, 8)
            assert val <= g1 * sigma1 + 1e-9

    def test_exact_at_every_N_for_constant(self, d1d, grid1024):
        a = np.full(grid1024.ncells, 0.37)
        for N in range(1, 9):
            val = obs_constant(d1d, grid1024, a, 1.0, N)
            assert val == pytest.approx(0.37 * gamma_from_lambda(1.0, 1.0), rel=1e-10)


class TestObsConstantRand:
    def test_constant_density(self, d1d, grid1024):
        a = np.full(grid1024.ncells, 0.5)
        val = obs_constant_rand(d1d, grid1024, a, 1.0, 8)
        assert val == pytest.approx(L_GAMMA1[1.0], rel=1e-10)

    def test_indicator_three_modes(self, d1d, grid1024, indicator):
        val = obs_constant_rand(d1d, grid1024, indicator, 0.5, 3)
        assert val == pytest.approx(G11_T05, rel=1e-8)

    def test_dominates_deterministic(self, d1d, grid512):
        rng = np.random.default_rng(7)
        for T in (0.5, 2.0):
            for _ in range(20):
                a = random_feasible(grid512, 0.5, rng)
                rnd = obs_constant_rand(d1d, grid512, a, T, 8)
                det = obs_constant(d1d, grid512, a, T, 8)
                assert rnd >= det - 1e-10


class TestQuadraticDecomposition:
    def test_orthogonality_kills_cross_term(self, d1d, grid1024):
        # T small enough that tau amplification keeps quadrature rounding
        # below the 1e-12 bar (tau_1j ~ e^{(1+lambda_j)T}/(1+lambda_j))
        rng = np.random.default_rng(11)
        a = np.full(grid1024.ncells, 0.5)
        for _ in range(10):
            c_tail = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            c_tail /= np.linalg.norm(c_tail)
            eps = float(rng.uniform(0, 1))
            _, _, D = quadratic_decomposition(d1d, grid1024, a, 0.4, 4, eps,
                                              [1.0], c_tail)
            assert abs(D) <= 1e-12

    def test_eps_one_reduces_to_head(self, d1d, grid512, ):
        rng = np.random.default_rng(8)
        a = random_feasible(grid512, 0.5, rng)
        A, B, D = quadratic_decomposition(d1d, grid512, a, 1.0, 4, 1.0,
                                          [1.0], np.ones(3) / np.sqrt(3))
        g1 = gamma_from_lambda(1.0, 1.0)
        m11 = get_basis(d1d, grid512, (1,)).mass(a)[0, 0].real
        assert A == pytest.approx(g1 * m11, rel=1e-10)

    def test_cauchy_schwarz(self, d1d, grid512):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = random_feasible(grid512, 0.5, rng)
            c_tail = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            c_tail /= np.linalg.norm(c_tail)
            eps = float(rng.uniform(0, 1))
            A, B, D = quadratic_decomposition(d1d, grid512, a, 0.8, 6, eps,
                                              [1.0], c_tail)
            assert abs(D) <= math.sqrt(A * B) + 1e-10

    def test_unnormalized_coefficients_rejected(self, d1d, grid512):
        a = np.full(grid512.ncells, 0.5)
        with pytest.raises(ValueError):
            quadratic_decomposition(d1d, grid512, a, 1.0, 4, 0.5,
                                    [2.0], np.ones(3) / np.sqrt(3))


@pytest.fixture(scope="module")
def coupled():
    u = np.linalg.qr(np.arange(1, 10).reshape(3, 3).astype(complex)
                     + 1j * np.eye(3))[0].conj().T
    model = build_model("coupled_rect_2d", 9, mu=[1 + 2j, 1 - 2j, 3.0], u=u)
    from obsgrid.geometry import make_grid
    grid = make_grid(model.domain, (48, 48), 3)
    return model, grid


class TestCoupledModel:
    """End-to-end complex path: vector modes, complex eigenvalues."""

    def test_constant_density_anchor(self, coupled):
        model, grid = coupled
        a = np.full(grid.ncells, 0.5)
        val = obs_constant(model, grid, a, 0.2, 6)
        g1 = gamma_from_lambda(model.eigenvalues[0], 0.2)
        assert val == pytest.approx(0.5 * g1, rel=1e-8)

    def test_rand_dominates_det(self, coupled):
        model, grid = coupled
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = random_feasible(grid, 0.5, rng)
            rnd = obs_constant_rand(model, grid, a, 0.2, 6)
            det = obs_constant(model, grid, a, 0.2, 6)
            assert rnd >= det - 1e-10

    def test_hermitian_kernel_consistency(self, coupled):
        model, grid = coupled
        rng = np.random.default_rng(14)
        a = random_feasible(grid, 0.5, rng)
        Ghat = GramForm(model, grid, 0.2, 6).mantissa(a)
        assert np.abs(Ghat - Ghat.conj().T).max() <= 1e-13

