import tracemalloc

import numpy as np
import pytest

from stodesign.fem import (
    DensityField,
    GridSpec,
    assemble_elements,
    assemble_load,
    assemble_stiffness,
    cell_centers,
    cell_gradients,
    cell_grad_dot,
    integrate_cells,
    reference_stiffness,
)

from oracles import (
    add_at_load,
    bincount_stiffness,
    cell_node_ids,
    einsum_grad_dot,
    inner_cells,
    interior_node_ids,
    l2_error,
    map_assemble_elements,
    nodal,
    same_bits,
    sample_cells,
    sample_nodes,
    table_cell_gradients,
    table_grad_dot,
)


def test_grid_counts():
    g = GridSpec(4, 3)
    assert g.n_cells == 12
    assert g.n_nodes == 20
    assert g.n_interior == 6
    assert g.hx == 0.25
    assert g.hy == pytest.approx(1.0 / 3.0)


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        GridSpec(1, 4)


@pytest.mark.parametrize("nx", [64.0, "8", True, None], ids=["float", "str", "bool", "none"])
def test_grid_rejects_non_integer_size(nx):
    for args in ((nx, 8), (8, nx)):
        with pytest.raises(ValueError, match=f"grid size must be an integer, got {nx!r}"):
            GridSpec(*args)


def test_grid_accepts_numpy_integers():
    g = GridSpec(np.int64(4), np.int32(3))
    assert g == GridSpec(4, 3) and g.n_interior == 6


def test_stiffness_single_interior_node():
    # 2x2 unit-coefficient grid: one interior node, hand-assembled value 8/3
    g = GridSpec(2, 2)
    K = assemble_stiffness(DensityField.constant(g, 1.0))
    assert K.shape[0] == 1
    assert K.toarray()[0, 0] == pytest.approx(8.0 / 3.0, abs=1e-14)


def test_stiffness_constant_scaling():
    g = GridSpec(5, 4)
    K1 = assemble_stiffness(DensityField.constant(g, 1.0)).toarray()
    Kc = assemble_stiffness(DensityField.constant(g, 3.5)).toarray()
    assert np.allclose(Kc, 3.5 * K1, rtol=0, atol=1e-14)


def test_stiffness_checkerboard_mean():
    g = GridSpec(2, 2)
    a = DensityField(g, np.array([1.0, 2.0, 1.0, 2.0]))
    K = assemble_stiffness(a)
    # per-element additivity: diagonal is (2/3) * sum of the four coefficients
    assert K.toarray()[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_stiffness_rejects_nonpositive():
    g = GridSpec(3, 3)
    a = DensityField.constant(g, 1.0)
    a.values[4] = 0.0
    with pytest.raises(ValueError):
        assemble_stiffness(a)


def test_stiffness_rejects_non_finite():
    g = GridSpec(3, 3)
    for bad in (np.inf, np.nan):
        a = DensityField.constant(g, 1.0)
        a.values[4] = bad
        with pytest.raises(ValueError, match="finite"):
            assemble_stiffness(a)


def test_stiffness_exact_symmetry():
    g = GridSpec(9, 7)
    rng = np.random.default_rng(11)
    a = DensityField(g, rng.uniform(0.5, 3.0, g.n_cells))
    K = assemble_stiffness(a).toarray()
    assert np.max(np.abs(K - K.T)) == 0.0


def test_stiffness_bitwise_symmetric_and_matches_dense_assembly():
    rng = np.random.default_rng(17)
    for nx, ny in ((9, 7), (16, 16), (5, 12), (2, 2), (2, 9), (9, 2), (3, 5)):
        g = GridSpec(nx, ny)
        K = assemble_stiffness(DensityField(g, rng.uniform(0.5, 3.0, g.n_cells))).toarray()
        assert np.array_equal(K, K.T)

    # dense reference: add each cell's 4x4 block, then drop boundary nodes
    g = GridSpec(5, 4)
    a = rng.uniform(0.5, 3.0, g.n_cells)
    kref = reference_stiffness(g.hx, g.hy)
    dense = np.zeros((g.n_nodes, g.n_nodes))
    for c, ids in enumerate(cell_node_ids(g)):
        dense[np.ix_(ids, ids)] += a[c] * kref
    inner = interior_node_ids(g)
    K = assemble_stiffness(DensityField(g, a)).toarray()
    assert np.max(np.abs(K - dense[np.ix_(inner, inner)])) <= 1e-15


# 2x2, 2x9, 9x2 and 3x5 have nx <= 3, where stencil neighbours share a diagonal
@pytest.mark.parametrize(
    "nx, ny", [(5, 4), (9, 7), (16, 16), (37, 23), (256, 96), (2, 2), (2, 9), (9, 2), (3, 5)]
)
def test_stiffness_matches_entrywise_assembly_bitwise(nx, ny):
    g = GridSpec(nx, ny)
    rng = np.random.default_rng(nx * ny)
    a = DensityField(g, rng.uniform(0.5, 3.0, g.n_cells))
    K, ref = assemble_stiffness(a), bincount_stiffness(a)
    assert K.shape == ref.shape
    if g.n_interior <= 4096:
        assert np.array_equal(K.toarray(), ref.toarray())
    assert (K.tocsr() != ref).nnz == 0
    for _ in range(3):
        x = rng.standard_normal(g.n_interior)
        assert np.array_equal(K @ x, ref @ x)


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (9, 2), (16, 16), (37, 23)])
def test_stiffness_slots_outside_the_matrix_are_zero(nx, ny):
    # the Jacobi weights sum |K| down the stored diagonals, padding included
    g = GridSpec(nx, ny)
    K = assemble_stiffness(DensityField(g, np.random.default_rng(3).uniform(0.5, 3.0, g.n_cells)))
    n = g.n_interior
    assert np.array_equal(K.offsets, np.unique(K.offsets))
    for offset, diagonal in zip(K.offsets, K.data):
        inside = np.zeros(n, dtype=bool)
        inside[max(0, offset) : max(0, n + min(0, offset))] = True
        assert not np.any(diagonal[~inside])


def test_stiffness_assembly_peak_memory():
    # the nine diagonals, one scratch entry and nothing grid-sized besides
    g = GridSpec(128, 128)
    a = DensityField(g, np.random.default_rng(5).uniform(0.5, 3.0, g.n_cells))
    assemble_stiffness(a)  # the cached reference matrix and offsets
    tracemalloc.start()
    try:
        assemble_stiffness(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * g.n_interior * np.dtype(float).itemsize


def _dia_dense(A):
    """A as a dense array, each stored slot inside the matrix copied: signed zeros survive."""
    n = A.shape[0]
    dense = np.zeros((n, n))
    for offset, diagonal in zip(A.offsets, A.data):
        j = np.arange(max(0, offset), n + min(0, offset))
        dense[j - offset, j] = diagonal[j]
    return dense


@pytest.mark.parametrize("nx, ny", [(7, 5), (16, 16), (2, 9), (3, 5)])
def test_element_assembly_sums_signed_zeros_from_zero(nx, ny):
    # an entry whose terms are all -0.0 sums to +0.0 from zero, where copying
    # the first term would keep -0.0
    g = GridSpec(nx, ny)
    elements = np.random.default_rng(nx * ny).choice([-0.0, 0.0, -1.5, 2.25], (g.n_cells, 16))
    A = assemble_elements(g, elements)
    ref = map_assemble_elements(g, elements).tocoo()
    dense = np.zeros(ref.shape)
    dense[ref.row, ref.col] = ref.data
    negative_zero = lambda x: (x == 0.0) & np.signbit(x)
    assert negative_zero(elements).any() and not negative_zero(dense).any()
    assert same_bits(_dia_dense(A), dense)


def test_stiffness_positive_definite():
    g = GridSpec(6, 5)
    rng = np.random.default_rng(7)
    a = DensityField(g, rng.uniform(0.2, 4.0, g.n_cells))
    K = assemble_stiffness(a)
    for _ in range(100):
        x = rng.standard_normal(K.shape[0])
        assert x @ (K @ x) > 0.0


def test_stiffness_linear_in_coefficient():
    g = GridSpec(5, 6)
    rng = np.random.default_rng(13)
    a1 = DensityField(g, rng.uniform(0.5, 2.0, g.n_cells))
    a2 = DensityField(g, rng.uniform(0.5, 2.0, g.n_cells))
    a12 = DensityField(g, a1.values + a2.values)
    K = assemble_stiffness(a12).toarray()
    K_sum = assemble_stiffness(a1).toarray() + assemble_stiffness(a2).toarray()
    assert np.max(np.abs(K - K_sum)) < 1e-13


def test_load_zero():
    g = GridSpec(4, 4)
    assert np.all(assemble_load(g, np.zeros(g.n_cells)) == 0.0)


def test_load_unit_interior_entry():
    # partition of unity: an interior node surrounded by four cells gets hx*hy
    g = GridSpec(8, 8)
    b = assemble_load(g, np.ones(g.n_cells))
    assert np.allclose(b, g.hx * g.hy, rtol=0, atol=1e-16)


def test_load_indicator_support():
    g = GridSpec(8, 8)
    c = cell_centers(g)
    chi = (
        (c[:, 0] >= 0.25) & (c[:, 0] <= 0.75) & (c[:, 1] >= 0.25) & (c[:, 1] <= 0.75)
    ).astype(float)
    b = assemble_load(g, chi)
    full = np.zeros(g.n_nodes)
    full[interior_node_ids(g)] = b
    b_grid = full.reshape(g.ny + 1, g.nx + 1)
    # support is exactly the nodes touching the 4x4 center block of cells
    nz = np.argwhere(b_grid != 0.0)
    assert nz[:, 0].min() == 2 and nz[:, 0].max() == 6
    assert nz[:, 1].min() == 2 and nz[:, 1].max() == 6


@pytest.mark.parametrize("nx, ny", [(2, 2), (2, 9), (9, 2), (3, 5), (37, 23), (64, 64)])
def test_slices_match_index_tables_bitwise(nx, ny):
    g = GridSpec(nx, 4 * ny)  # stretched cells, hx/hy = 4*ny/nx
    rng = np.random.default_rng(nx * 100 + ny)
    load = rng.standard_normal(g.n_cells)
    load.reshape(g.ny, nx)[:2, :2] = -0.0  # np.add.at sums node (1, 1)'s shares from +0.0
    assert same_bits(assemble_load(g, load), add_at_load(g, load))
    # the kernels take interior values and pad the zero boundary themselves;
    # the oracles gather corners from the padded nodal array
    x = rng.standard_normal(g.n_interior)
    x[::3] = -0.0  # the sums must match down to the sign of a zero
    u = nodal(g, x)
    assert same_bits(cell_gradients(g, x), table_cell_gradients(g, u))
    assert same_bits(cell_grad_dot(g, x), table_grad_dot(g, u, u))


# A state is zero on the boundary: the fields below are checked on the cells
# that do not touch it, where the interpolant is the sampled field's
def test_gradients_exact_for_linear():
    g = GridSpec(7, 5)
    inner = inner_cells(g)
    grads = cell_gradients(g, sample_nodes(g, lambda x, y: x)[interior_node_ids(g)])
    assert grads.shape == (g.n_cells, 2)
    assert np.allclose(grads[inner, 0], 1.0, rtol=0, atol=1e-14)
    assert np.allclose(grads[inner, 1], 0.0, rtol=0, atol=1e-14)


def test_gradients_bilinear_exact_at_centers():
    g = GridSpec(6, 9)
    inner = inner_cells(g)
    grads = cell_gradients(g, sample_nodes(g, lambda x, y: x * y)[interior_node_ids(g)])
    c = cell_centers(g)
    assert np.allclose(grads[inner, 0], c[inner, 1], rtol=0, atol=1e-14)
    assert np.allclose(grads[inner, 1], c[inner, 0], rtol=0, atol=1e-14)


def test_integrate_area_and_mass():
    g = GridSpec(16, 16)
    assert integrate_cells(g, np.ones(g.n_cells)) == pytest.approx(1.0, abs=1e-15)
    assert integrate_cells(g, np.full(g.n_cells, 1.5)) == pytest.approx(1.5, abs=1e-15)


def test_integrate_indicator_region():
    g = GridSpec(8, 8)
    c = cell_centers(g)
    chi = (
        (c[:, 0] >= 0.25) & (c[:, 0] <= 0.75) & (c[:, 1] >= 0.25) & (c[:, 1] <= 0.75)
    ).astype(float)
    assert integrate_cells(g, chi) == pytest.approx(0.25, abs=1e-15)


def test_cell_grad_dot_matches_stiffness_quadratic_form():
    # sum_c a_c * area * cell_grad_dot(u)_c must equal u^T K u
    g = GridSpec(6, 7)
    rng = np.random.default_rng(21)
    a = DensityField(g, rng.uniform(0.5, 2.5, g.n_cells))
    x = rng.standard_normal(g.n_interior)
    K = assemble_stiffness(a)
    direct = x @ (K @ x)
    energy = float(a.values @ cell_grad_dot(g, x)) * g.cell_area
    assert energy == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("nx, ny", [(6, 7), (37, 23), (64, 64)])
def test_cell_grad_dot_matches_three_operand_contraction(nx, ny):
    g = GridSpec(nx, 4 * ny)  # stretched cells, hx/hy = 4*ny/nx
    rng = np.random.default_rng(nx + ny)
    for x in (rng.standard_normal(g.n_interior) for _ in range(2)):
        ref = einsum_grad_dot(g, nodal(g, x), nodal(g, x))
        assert np.max(np.abs(cell_grad_dot(g, x) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_field_size_validation():
    g = GridSpec(3, 3)
    with pytest.raises(ValueError):
        DensityField(g, np.ones(5))
    with pytest.raises(ValueError):
        cell_gradients(g, np.ones(g.n_nodes))  # a nodal array is not a state
    with pytest.raises(ValueError, match="load must hold one real per cell"):
        assemble_load(g, np.ones(g.n_nodes))
    with pytest.raises(ValueError, match="integrand must hold one real per cell"):
        integrate_cells(g, np.ones(g.n_cells + 1))


def _manufactured_l2(n: int) -> float:
    from stodesign.scenarios import make_deterministic
    from stodesign.solve import load_basis, solve_state

    g = GridSpec(n, n)
    f = sample_cells(g, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    s = solve_state(DensityField.constant(g, 1.0), load_basis(make_deterministic(g, f)))
    return l2_error(g, s.states[0], lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))


def test_manufactured_solution_second_order():
    ratio = _manufactured_l2(16) / _manufactured_l2(32)
    assert 3.6 <= ratio <= 4.4
