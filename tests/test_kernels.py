"""The separable Gram operator behind ModeBasis.mass and form_cells.

Both maps are checked against a direct quadrature over every Gauss point,
written here from the definitions, on the real 1D Dirichlet and torus, the
real 2D and the complex q=3 coupled model, and on random complex mode
values. The per-axis tables are checked bit for bit against a reduction
of whole-table copies of complex-stacked factor tables (on a 1D grid the
one table is the per-cell tensor of the whole mode table), and
`axis_table` on whole mode tables against that reduction. The reference
tables are evaluated here from `model.phi` and `model.factors`.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from obsgrid._kernels import SeparableGram, axis_table
from obsgrid.geometry import make_grid
from obsgrid.gram import ContractViolation, ModeBasis
from obsgrid.spectral import DomainSpec, SpectralModel, build_model

from conftest import tensor_rule

REL = 1e-13
MODELS = ("dirichlet_1d", "torus_1d", "dirichlet_rect_2d", "coupled_rect_2d")


def _model(name):
    if name in ("dirichlet_1d", "torus_1d"):
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


def _table(model, grid, modes):
    """The whole mode table (nmodes, npts, q), evaluated from model.phi."""
    return np.stack([model.phi(j, tensor_rule(grid)[0]) for j in modes])


def _basis_table(basis):
    return _table(basis.model, basis.grid, basis.modes)


def _axis_table(model, grid, modes, d):
    """Axis d's factor table (nmodes, points on the axis, 1), from model.factors."""
    t = grid.axis_quad_x[d]
    return np.stack([model.factors(j)[d](t) for j in modes])[:, :, None]


def _cell_major(V, quad_w, pc):
    """A table (nmodes, npts, q) and its point weights as `axis_table`
    takes them: the pc * q values of each cell outermost, cells inner."""
    n, npts, q = V.shape
    nc, m = npts // pc, pc * q
    X = np.ascontiguousarray(V.reshape(n, nc, m).transpose(0, 2, 1))
    return X, np.repeat(quad_w, q).reshape(nc, m).T


def _point_mass(V, quad_w, pc, a):
    """M_ij = sum_p a(cell(p)) w_p V_i(p) . conj(V_j(p))."""
    wa = quad_w * np.repeat(a, pc)
    return np.einsum("ipc,jpc,p->ij", V, V.conj(), wa)


def _point_form_cells(V, quad_w, pc, W):
    """Per-cell sum of w_p Re sum_ij W_ij V_i(p) . conj(V_j(p))."""
    F = np.einsum("ij,ipc,jpc->p", W, V, V.conj()).real
    return (F * quad_w).reshape(-1, pc).sum(axis=1)


def _rule_weights(grid):
    """The point weights of `tensor_rule` and the points per cell."""
    return tensor_rule(grid)[1], grid.gauss_order ** grid.dim


def _rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("name", MODELS)
def test_mass_matches_point_quadrature(bases, name):
    basis = bases[name]
    a = _density(basis, 0)
    g = basis.grid
    ref = _point_mass(_basis_table(basis), *_rule_weights(g), a)
    assert _rel_err(basis.mass(a), ref) <= REL


@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
@pytest.mark.parametrize("name", MODELS)
def test_form_cells_matches_point_quadrature(bases, name, hermitian):
    basis = bases[name]
    W = _weights(basis, 1, hermitian)
    g = basis.grid
    ref = _point_form_cells(_basis_table(basis), *_rule_weights(g), W)
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
    n, nc, pc = 5, 40, 6
    V = rng.standard_normal((n, nc * pc, 1)) + 1j * rng.standard_normal((n, nc * pc, 1))
    quad_w = rng.uniform(0.5, 1.0, nc * pc)
    # the separable operator of one axis: its table with unit coefficients
    gram = SeparableGram((axis_table(*_cell_major(V, quad_w, pc)),), np.ones((n, 1)), (nc,))
    K, = gram.tables
    assert np.abs(K.imag).max() > 0.1 * np.abs(K).max()
    a = rng.uniform(0.0, 1.0, nc)
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert _rel_err(gram.mass(a), _point_mass(V, quad_w, pc, a)) <= REL
    assert _rel_err(gram.form(W), _point_form_cells(V, quad_w, pc, W)) <= REL


def test_complex_factors_and_vectors_match_point_quadrature():
    # complex per-axis factors and complex constant vectors on a 2D grid:
    # complex tables and coefficients both enter the two products
    rng = np.random.default_rng(12)
    n, q = 5, 2
    kx, ky = rng.uniform(0.5, 3.0, (2, n))
    u = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))

    def factors(j):
        return (lambda t: np.exp(1j * kx[j - 1] * t) * (1.0 + t),
                lambda t: np.exp(-1j * ky[j - 1] * t) + 0.5)

    model = SpectralModel("complex_2d", DomainSpec(((0.0, 1.0), (0.0, 2.0))),
                          np.arange(1, n + 1, dtype=complex), factors, u)
    grid = make_grid(model.domain, (7, 9), 3)
    basis = ModeBasis(model, grid, range(1, n + 1))
    assert all(np.iscomplexobj(A) for A in basis.gram.tables)
    V, g = _basis_table(basis), basis.grid
    a, W = _density(basis, 13), _weights(basis, 14, False)
    assert _rel_err(basis.mass(a), _point_mass(V, *_rule_weights(g), a)) <= REL
    assert _rel_err(basis.form_cells(W), _point_form_cells(V, *_rule_weights(g), W)) <= REL


def test_three_axes_rejected():
    # the products cover one or two axes; a third table would be ignored
    A = np.ones((3, 4))
    with pytest.raises(ValueError, match="one or two axes, not 3"):
        SeparableGram((A, A, A), np.ones((2, 1)), (4, 4, 4))


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


@pytest.mark.parametrize("name", MODELS)
def test_tables_bitwise_equal_to_complex_stacked_tables(bases, name):
    # each axis's table is the whole-table reduction of its factors, every
    # one cast to complex and stacked into one table
    basis = bases[name]
    g = basis.grid
    assert len(basis.gram.tables) == g.dim
    for d, A in enumerate(basis.gram.tables):
        F = _axis_table(basis.model, g, basis.modes, d).astype(complex)
        ref = _full_copy_K(F, g.axis_quad_w[d], g.gauss_order)
        if d == 0 and name == "coupled_rect_2d":
            # the first table carries the coefficients u_i . conj(u_j)
            iu, ju = np.triu_indices(len(basis.modes))
            U = basis.model.u[[j - 1 for j in basis.modes]]
            ref = (U @ U.conj().T)[iu, ju][:, None] * ref
            assert A.dtype == ref.dtype and _rel_err(A, ref) <= 1e-15
        else:
            assert A.dtype == ref.dtype and np.array_equal(A, ref)


@pytest.mark.parametrize("name", ["dirichlet_1d", "torus_1d"])
def test_1d_table_is_the_per_cell_tensor(bases, name):
    # on one axis the table is the per-cell tensor of the whole mode table,
    # reduced from every mode cast to complex, bit for bit (the unit
    # coefficients scale it exactly), and mass and form_cells are that
    # tensor's GEMVs
    basis = bases[name]
    g = basis.grid
    K = _full_copy_K(_basis_table(basis).astype(complex), *_rule_weights(g))
    A, = basis.gram.tables
    assert A.dtype == K.dtype and np.array_equal(A, K)
    a, W = _density(basis, 10), _weights(basis, 11, True)
    iu, ju = np.triu_indices(len(basis.modes))
    w = np.where(iu == ju, W[iu, ju], W[iu, ju] + W[ju, iu].conj())
    assert np.array_equal(basis.mass(a)[iu, ju], K @ a)
    assert np.array_equal(basis.form_cells(W), w.real @ K)


def test_tables_real_exactly_for_real_factors(bases):
    for name, basis in bases.items():
        real_modes = name != "coupled_rect_2d"
        # the mode table keeps the dtype the model's modes have; the
        # coupled model's complex part is all in its constant vectors, so in
        # the coefficients that scale the first table
        V = _basis_table(basis)
        assert V.dtype == (np.float64 if real_modes else np.complex128)
        assert V.imag.any() != real_modes
        n = len(basis.modes)
        for d, (A, cells) in enumerate(zip(basis.gram.tables, basis.grid.shape)):
            assert np.isrealobj(A) == (real_modes or d > 0)
            assert A.shape == (n * (n + 1) // 2, cells)


def test_results_stable_across_calls(bases):
    for basis in bases.values():
        a, W = _density(basis, 5), _weights(basis, 6, False)
        assert (basis.mass(a) == basis.mass(a)).all()
        assert (basis.form_cells(W) == basis.form_cells(W)).all()


def _full_copy_K(V, quad_w, pc):
    """K reduced from whole-table copies: the transposed table, its weighted
    conjugate and one einsum per mode row over all cells at once."""
    real = np.isrealobj(V) or not V.imag.any()
    X, w = _cell_major(V.real if real else V, quad_w, pc)
    Xw = np.conj(X * w)
    n, _, nc = X.shape
    iu, ju = np.triu_indices(n)
    K = np.empty((len(iu), nc), dtype=X.dtype)
    k = 0
    for i in range(n):
        np.einsum("mc,jmc->jc", X[i], Xw[i:], out=K[k:k + n - i])
        k += n - i
    if not real:
        K[iu == ju] = K[iu == ju].real
    return K


@pytest.mark.parametrize("name", MODELS)
def test_tensor_bitwise_equal_to_full_copy_reduction(name):
    # whole mode tables on prime cell counts; weights that differ from cell
    # to cell, so a value reduced at another cell's weights shows
    model = _model(name)[0]
    cells = 97 if model.domain.dim == 1 else (37, 23)
    grid = make_grid(model.domain, cells, 3)
    V = _table(model, grid, range(1, model.n_max + 1))
    w, pc = _rule_weights(grid)
    quad_w = w * np.random.default_rng(8).uniform(0.5, 1.5, w.size)
    ref = _full_copy_K(V, quad_w, pc)
    K = axis_table(*_cell_major(V, quad_w, pc))
    assert K.dtype == ref.dtype and np.array_equal(K, ref)


MIXED = {"complex": lambda v: v.astype(complex), "column": lambda v: v[:, None],
         "wide": lambda v: np.repeat(v, 2)}


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("modes", [(1, 2), (2, 1)], ids=["other-second", "other-first"])
@pytest.mark.parametrize("other", MIXED)
def test_mixed_dtype_modes_raise(other, modes, axis):
    # mode 2's factor along one axis has values of another dtype or shape:
    # neither is cast nor broadcast
    base = build_model("dirichlet_rect_2d", 4)

    def mixed(j):
        fs = list(base.factors(j))
        if j == 2:
            f = fs[axis]
            fs[axis] = lambda t: MIXED[other](f(t))
        return tuple(fs)

    model = dataclasses.replace(base, factors=mixed)
    grid = make_grid(model.domain, (6, 5), 3)
    with pytest.raises(ContractViolation, match=f"axis-{axis} .* one dtype and shape"):
        ModeBasis(model, grid, modes)


@pytest.mark.parametrize("modes", [(), (1, 1), (2, 1, 2), (0,), (-1, 1), (5,),
                                   (1.5, 2.7)],
                         ids=["empty", "repeated", "repeated-apart", "zero", "negative",
                              "above-n-max", "non-integer"])
def test_empty_or_repeated_modes_raise(modes):
    # an empty basis has no table; a repeated mode makes every mass singular;
    # a mode outside 1..n_max would alias another mode's factors or
    # eigenvalue, and a non-integer one names no mode
    model = build_model("dirichlet_1d", 4)
    grid = make_grid(model.domain, 16, 3)
    with pytest.raises(ContractViolation, match=re.escape(f"modes {modes}")):
        ModeBasis(model, grid, modes)


@pytest.mark.parametrize("name, n, cells", [("dirichlet_rect_2d", 16, (64, 64)),
                                           ("dirichlet_1d", 16, 1024)],
                         ids=["solve2d", "smallt"])
def test_mode_table_build_peak_memory(name, n, cells):
    # 64x64 cells, 16 real modes: the per-cell tensor K (4.25 MiB) made the
    # build's peak 6.8 MiB; a resident table V (4.5 MiB) 11.4 MiB, two
    # whole-table copies 18.0 MiB, and a list of complex modes stacked into
    # a complex V 31.3 MiB. The separable build keeps only its tables and
    # the packing indices; its peak is twice the tables (SeparableGram
    # scales a copy of the first) plus one axis's factor values and their
    # weighted conjugate, so no whole-grid array is built and no factor
    # values are alive during that copy. In 1D the one table is the
    # per-cell tensor (smallt's largest basis: 1.1 MB).
    model = build_model(name, n)
    grid = make_grid(model.domain, cells, 3)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        basis = ModeBasis(model, grid, range(1, n + 1))
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    tables = basis.gram.tables
    assert [A.shape for A in tables] == [(n * (n + 1) // 2, c) for c in grid.shape]
    table_bytes = sum(A.nbytes for A in tables)
    assert held <= table_bytes + 2 ** 14
    assert peak <= 2 * table_bytes + n * grid.gauss_order * sum(grid.shape) * 8
    basis.mass(np.full(grid.ncells, 0.5))
    basis.form_cells(np.eye(n))
    assert "V" not in vars(basis)


def _coupled_real_u():
    u = np.linalg.qr(np.arange(1, 10).reshape(3, 3) + np.eye(3))[0].T
    return build_model("coupled_rect_2d", 9, mu=[1 + 2j, 1 - 2j, 3.0], u=u)


def test_complex_values_without_imaginary_parts_reduce_real():
    # coupled_rect_2d with a real orthonormal u: the basis's coefficients,
    # complex with zero imaginary parts, reduce to real ones, and so do its
    # first table and M(a)
    model = _coupled_real_u()
    grid = make_grid(model.domain, (17, 13), 3)
    assert model.u.dtype == np.complex128 and not model.u.imag.any()
    basis = ModeBasis(model, grid, range(1, 10))
    assert basis.gram.tables[0].dtype == np.float64
    assert basis.mass(np.full(grid.ncells, 0.5)).dtype == np.float64
