import warnings

import numpy as np
import pytest

from obsgrid.geometry import make_grid
from obsgrid.gram import get_basis, obs_constant_rand
from obsgrid.spectral import (ConfigurationError, SpectralModel, build_model,
                              gamma_from_lambda, tau)

# frozen oracle: (e^2 - 1)/2 at 40 digits
GAMMA_1_1 = 3.19452804946532511361521373028750390659


def cross_gram(model, grid, nmodes):
    basis = get_basis(model, grid, tuple(range(1, nmodes + 1)))
    return basis.mass(np.ones(grid.ncells))


class TestBuildModel:
    def test_dirichlet_1d_spectrum(self):
        m = build_model("dirichlet_1d", 3)
        assert np.allclose(m.eigenvalues.real, [1, 4, 9])
        assert m.J1 == (1,)
        assert m.p0 == 2
        assert m.gap == pytest.approx(3.0)

    def test_torus_spectrum(self):
        m = build_model("torus_1d", 4)
        assert np.allclose(m.eigenvalues.real, [1, 1, 4, 4])
        assert m.J1 == (1, 2)
        assert m.p0 == 3

    def test_rect_2d_ordering(self):
        m = build_model("dirichlet_rect_2d", 6)
        lam = m.eigenvalues.real / np.pi ** 2
        assert np.allclose(lam, [2, 5, 5, 8, 10, 10])
        # phi_j = 2 sin(m pi x) sin(n pi y) at (1/4, 1/2) is sqrt(2) for
        # (m, n) = (1, 1), 0 for (1, 2) and (2, 2) and 2 for (2, 1): the
        # lexicographic tie-break of lambda_2 = lambda_3 puts (1, 2) first
        x = np.array([[0.25, 0.5]])
        vals = [m.phi(j, x)[0, 0] for j in range(1, 5)]
        assert vals == pytest.approx([np.sqrt(2.0), 0.0, 2.0, 0.0], abs=1e-15)

    @pytest.mark.parametrize("key,value", [("J1", (1,)), ("p0", 2), ("gap", 3.0)])
    def test_metadata_is_derived_not_passed(self, key, value):
        m = build_model("dirichlet_1d", 3)
        with pytest.raises(TypeError):
            SpectralModel(m.name, m.domain, m.eigenvalues, m.factors, m.u,
                          **{key: value})

    def test_phi_bitwise_equal_to_closed_forms(self):
        # phi is the product of a mode's per-axis factors and its constant
        # vector, bit for bit the closed form of each built-in model
        rng = np.random.default_rng(0)
        x1, x2 = rng.uniform(0.0, 2 * np.pi, (40, 1)), rng.uniform(0.0, 1.0, (40, 2))
        c, ct = np.sqrt(2.0 / np.pi), 1.0 / np.sqrt(np.pi)
        u = np.linalg.qr(np.arange(1, 10).reshape(3, 3) + 1j * np.eye(3))[0].T
        coupled = build_model("coupled_rect_2d", 3, mu=[1 + 2j, 1 - 2j, 3.0], u=u)
        rect = build_model("dirichlet_rect_2d", 6)
        torus = build_model("torus_1d", 4)
        dirichlet = build_model("dirichlet_1d", 4)

        def sines(m, n):
            return 2.0 * np.sin(m * np.pi * x2[:, 0]) * np.sin(n * np.pi * x2[:, 1])

        cases = [(dirichlet.phi(j, x1), (c * np.sin(j * x1[:, 0]))[:, None])
                 for j in range(1, 5)]
        cases += [(torus.phi(j, x1), (ct * f(k * x1[:, 0]))[:, None])
                  for j, (k, f) in enumerate([(1, np.cos), (1, np.sin), (2, np.cos),
                                              (2, np.sin)], 1)]
        cases += [(rect.phi(j, x2), sines(m, n)[:, None])
                  for j, (m, n) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3),
                                              (3, 1)], 1)]
        cases += [(coupled.phi(j, x2), sines(1, 1)[:, None] * u[j - 1][None, :])
                  for j in range(1, 4)]
        for got, ref in cases:
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_coupled_structure(self):
        mu = [1.0 + 2.0j, 1.0 - 2.0j, 3.0]
        m = build_model("coupled_rect_2d", 6, mu=mu, u=np.eye(3))
        assert m.J1 == (1, 2)
        assert m.p0 == 3
        assert m.q == 3
        assert m.gap == pytest.approx(2.0)

    def test_axis_index(self):
        # largest per-axis frequency of each mode's |phi_j|^2 oscillation,
        # which sets the CLI's resolution warning
        coupled = build_model("coupled_rect_2d", 6, mu=[1 + 2j, 1 - 2j, 3.0],
                              u=np.eye(3))
        assert build_model("dirichlet_1d", 4).axis_index == (1, 2, 3, 4)
        assert build_model("dirichlet_rect_2d", 6).axis_index == (1, 2, 2, 2, 3, 3)
        assert build_model("torus_1d", 6).axis_index == (2, 2, 4, 4, 6, 6)
        assert coupled.axis_index == (1, 1, 1, 2, 2, 2)
        assert max(build_model("dirichlet_rect_2d", 4).axis_index[:4]) == 2
        assert max(build_model("torus_1d", 4).axis_index[:3]) == 4

    def test_coupled_bad_ordering_rejected(self):
        with pytest.raises(ConfigurationError):
            build_model("coupled_rect_2d", 4, mu=[1.0, 2.0, 3.0], u=np.eye(3))

    def test_coupled_nonorthonormal_rejected(self):
        u = np.eye(3)
        u[0, 1] = 1e-6
        with pytest.raises(ConfigurationError):
            build_model("coupled_rect_2d", 4, mu=[1 + 1j, 1 - 1j, 2.0], u=u)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            build_model("robin_1d", 4)


class TestOrthonormality:
    def test_dirichlet_1d_reference_resolution(self, d1d):
        grid = make_grid(d1d.domain, 1024, 3)
        M = cross_gram(d1d, grid, 16)
        assert np.abs(M - np.eye(16)).max() <= 1e-8

    def test_torus_reference_resolution(self, torus, torus_grid):
        M = cross_gram(torus, torus_grid, 6)
        assert np.abs(M - np.eye(6)).max() <= 1e-8

    def test_rect_2d_reference_resolution(self):
        m = build_model("dirichlet_rect_2d", 10)
        grid = make_grid(m.domain, (256, 256), 2)
        M = cross_gram(m, grid, 10)
        assert np.abs(M - np.eye(10)).max() <= 1e-8

    def test_coupled_orthonormal(self):
        u = np.linalg.qr(np.arange(1, 10).reshape(3, 3)
                         + 1j * np.eye(3))[0].conj().T
        m = build_model("coupled_rect_2d", 8, mu=[1 + 1j, 1 - 1j, 2.5], u=u)
        grid = make_grid(m.domain, (128, 128), 2)
        M = cross_gram(m, grid, 8)
        assert np.abs(M - np.eye(8)).max() <= 1e-8


class TestGamma:
    def test_value(self):
        assert gamma_from_lambda(1.0, 1.0) == pytest.approx(GAMMA_1_1, rel=1e-14)

    def test_zero_real_part(self):
        assert gamma_from_lambda(3.0j, 2.5) == pytest.approx(2.5, rel=1e-14)

    def test_small_T_limit(self):
        assert gamma_from_lambda(1.0, 1e-12) == pytest.approx(1e-12, rel=1e-6)

    def test_model_indexing(self, d1d):
        assert gamma_from_lambda(d1d.eigenvalues[1], 0.5) == pytest.approx((np.e ** 4 - 1) / 8, rel=1e-13)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            gamma_from_lambda(100.0, 4.0)
        fac = tau(100.0, 100.0, 4.0)
        assert fac.exponent == pytest.approx(800.0)
        assert fac.mantissa == pytest.approx(1.0 / 200.0)

    def test_overflowing_value_is_inf_without_warning(self):
        # the mantissa is complex with a zero imaginary part, which times
        # the overflowed e^800 is nan: neither may warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tau(100.0, 100.0, 4.0).value().real == np.inf

    def test_strictly_increasing_in_T(self):
        Ts = np.linspace(0.1, 3.0, 30)
        vals = [gamma_from_lambda(2.0, t) for t in Ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_mode(self, d1d):
        vals = [gamma_from_lambda(d1d.eigenvalues[j - 1], 0.7) for j in range(1, 9)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestTau:
    def test_matches_gamma_on_diagonal(self):
        t = tau(1.0, 1.0, 1.0)
        assert t.value().real == pytest.approx(GAMMA_1_1, rel=1e-14)
        assert abs(t.value().imag) < 1e-14

    def test_pure_imaginary_cancellation(self):
        t = tau(2.0j, 2.0j, 1.7)
        assert t.value() == pytest.approx(1.7, rel=1e-14)

    def test_complex_pair_against_trapezoid(self):
        # oracle: 1e4-point composite trapezoid of int_0^1 e^{(2+2i)t} dt
        ts = np.linspace(0.0, 1.0, 10_001)
        vals = np.exp((2 + 2j) * ts)
        oracle = np.trapezoid(vals, ts)
        got = tau(1 + 1j, 1 - 1j, 1.0).value()
        assert abs(got - oracle) / abs(oracle) <= 1e-8

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            li = complex(rng.uniform(0, 5), rng.uniform(-3, 3))
            lj = complex(rng.uniform(0, 5), rng.uniform(-3, 3))
            T = rng.uniform(0.1, 2.0)
            a = tau(li, lj, T)
            b = tau(lj, li, T)
            va, vb = a.value(), b.value()
            assert va == pytest.approx(np.conj(vb), rel=1e-12)

    def test_continuity_at_vanishing_exponent(self):
        # lam_i + conj(lam_j) -> 0: value tends to T
        T = 1.3
        exact = tau(1.0j, 1.0j, T).value()
        for s in (1e-10, -1e-10):
            v = tau(1.0j + s, 1.0j, T).value()
            assert abs(v - exact) <= 1e-9 * abs(exact)

    def test_factored_never_overflows(self):
        t = tau(400.0, 500.0, 2.0)
        assert t.exponent == pytest.approx(1800.0)
        assert abs(t.mantissa) < 2.0 + 1.0 / 3.0

    @pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_horizon(self, d1d, grid1024, T):
        # a NaN horizon gave a NaN tau, and so a zero randomized constant
        with pytest.raises(ValueError, match="T must be finite and positive"):
            tau(1.0, 1.0, T)
        with pytest.raises(ValueError, match="T must be finite and positive"):
            obs_constant_rand(d1d, grid1024, np.ones(grid1024.ncells), T, 4)
