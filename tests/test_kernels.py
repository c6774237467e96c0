"""The per-cell Gram operator behind ModeBasis.mass and form_cells.

Both maps are checked against a direct quadrature over every Gauss point,
written here from the definitions, on a real 1D, a real 2D and the
complex q=3 coupled model, and on random complex mode values.
"""

import numpy as np
import pytest

from obsgrid._kernels import CellGram
from obsgrid.geometry import make_grid
from obsgrid.gram import ModeBasis
from obsgrid.spectral import build_model

REL = 1e-13
MODELS = ("dirichlet_1d", "dirichlet_rect_2d", "coupled_rect_2d")


def _model(name):
    if name == "dirichlet_1d":
        return build_model(name, 8), 64
    if name == "dirichlet_rect_2d":
        return build_model(name, 16), (12, 10)
    u = np.linalg.qr(np.arange(1, 10).reshape(3, 3).astype(complex)
                     + 1j * np.eye(3))[0].conj().T
    return build_model(name, 9, mu=[1 + 2j, 1 - 2j, 3.0], u=u), (8, 8)


@pytest.fixture(scope="module")
def bases():
    out = {}
    for name in MODELS:
        model, cells = _model(name)
        grid = make_grid(model.domain, cells, 3)
        out[name] = ModeBasis(model, grid, tuple(range(1, model.n_max + 1)))
    return out


def _density(basis, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, basis.grid.ncells)


def _weights(basis, seed, hermitian):
    n = len(basis.modes)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A + A.conj().T if hermitian else A


def _point_mass(V, quad_w, pc, a):
    """M_ij = sum_p a(cell(p)) w_p V_i(p) . conj(V_j(p))."""
    wa = quad_w * np.repeat(a, pc)
    return np.einsum("ipc,jpc,p->ij", V, V.conj(), wa)


def _point_form_cells(V, quad_w, pc, W):
    """Per-cell sum of w_p Re sum_ij W_ij V_i(p) . conj(V_j(p))."""
    F = np.einsum("ij,ipc,jpc->p", W, V, V.conj()).real
    return (F * quad_w).reshape(-1, pc).sum(axis=1)


def _rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("name", MODELS)
def test_mass_matches_point_quadrature(bases, name):
    basis = bases[name]
    a = _density(basis, 0)
    g = basis.grid
    ref = _point_mass(basis.V, g.quad_w, g.pts_per_cell, a)
    assert _rel_err(basis.mass(a), ref) <= REL


@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
@pytest.mark.parametrize("name", MODELS)
def test_form_cells_matches_point_quadrature(bases, name, hermitian):
    basis = bases[name]
    W = _weights(basis, 1, hermitian)
    g = basis.grid
    ref = _point_form_cells(basis.V, g.quad_w, g.pts_per_cell, W)
    assert _rel_err(basis.form_cells(W), ref) <= REL


@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
@pytest.mark.parametrize("name", MODELS)
def test_adjoint_identity(bases, name, hermitian):
    basis = bases[name]
    # sum_c a_c form_cells(W)_c = Re sum_ij W_ij M(a)_ij
    a, W = _density(basis, 2), _weights(basis, 3, hermitian)
    lhs = a @ basis.form_cells(W)
    rhs = np.sum(W * basis.mass(a)).real
    assert abs(lhs - rhs) <= REL * np.abs(W).sum() * np.abs(basis.mass(a)).max()


def test_complex_gram_matches_point_quadrature():
    # the coupled model's cross-mode integrals are real (orthonormal u), so
    # random complex mode values exercise the conjugations of the packing
    rng = np.random.default_rng(7)
    n, nc, pc, q = 5, 40, 6, 2
    V = rng.standard_normal((n, nc * pc, q)) + 1j * rng.standard_normal((n, nc * pc, q))
    quad_w = rng.uniform(0.5, 1.0, nc * pc)
    gram = CellGram(V, quad_w, pc)
    assert np.abs(gram.K.imag).max() > 0.1 * np.abs(gram.K).max()
    a = rng.uniform(0.0, 1.0, nc)
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert _rel_err(gram.mass(a), _point_mass(V, quad_w, pc, a)) <= REL
    assert _rel_err(gram.form(W), _point_form_cells(V, quad_w, pc, W)) <= REL


def test_mass_is_hermitian(bases):
    # real modes give a real symmetric matrix, so every eigensolve on it
    # runs in real arithmetic; only complex modes give a complex one
    for name, basis in bases.items():
        M = basis.mass(_density(basis, 4))
        if name == "coupled_rect_2d":
            assert M.dtype == np.complex128 and np.abs(M.imag).max() > 0.0
        else:
            assert M.dtype == np.float64
        assert (M == M.conj().T).all()


def test_tensor_real_exactly_for_real_modes(bases):
    for name, basis in bases.items():
        real_modes = not basis.V.imag.any()
        assert real_modes == (name != "coupled_rect_2d")
        assert np.isrealobj(basis.gram.K) == real_modes
        n = len(basis.modes)
        assert basis.gram.K.shape == (n * (n + 1) // 2, basis.grid.ncells)


def test_results_stable_across_calls(bases):
    for basis in bases.values():
        a, W = _density(basis, 5), _weights(basis, 6, False)
        assert (basis.mass(a) == basis.mass(a)).all()
        assert (basis.form_cells(W) == basis.form_cells(W)).all()
