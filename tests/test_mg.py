import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stodesign
from stodesign.cg import cg_solve
from stodesign import mg
from stodesign.fem import (
    DensityField,
    GridSpec,
    assemble_elements,
    assemble_load,
    assemble_stiffness,
)
from stodesign.mg import VCycle, coarsenings
from stodesign.scenarios import make_case1

from oracles import (
    kron_restriction,
    map_assemble_elements,
    matmul_v_cycle,
    prolongation_oracle,
    reduceat_jacobi_weights,
    same_bits,
    scipy_matrix,
    table_coarse_elements,
)


def _density(g: GridSpec, kind: str, seed: int = 0) -> DensityField:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return DensityField(g, rng.uniform(1.0, 2.0, g.n_cells))
    if kind == "contrast":  # bang-bang at beta/alpha = 1e6
        return DensityField(g, rng.choice([1.0, 1e6], g.n_cells))
    return DensityField(g, rng.choice([1.0, 2.0], g.n_cells))  # bang-bang


@pytest.mark.parametrize("nx, ny", [(16, 16), (9, 9), (37, 23), (64, 8), (128, 16)])
def test_coarse_operators_are_galerkin(nx, ny):
    g = GridSpec(nx, ny)
    a = _density(g, "random")
    K = assemble_stiffness(a)
    M = VCycle(a, K)
    oracle = prolongation_oracle(g)
    assert len(M.operators) == len(oracle) + 1
    A = scipy_matrix(K)
    for P, step, coarse in zip(oracle, coarsenings(g), M.operators[1:]):
        assert (P != scipy_matrix(step.P)).nnz == 0
        A = (P.T @ A @ P).tocsr()
        assert coarse.shape == A.shape
        assert abs(scipy_matrix(coarse) - A).max() <= 1e-13 * abs(A).max()
    assert max(M.operators[-1].shape) <= 7 * 7


# the seven grids of test_semicoarsening_hierarchies_terminate, an odd
# non-square one and one that keeps x whole
@pytest.mark.parametrize(
    "nx, ny",
    [(256, 32), (128, 16), (256, 96), (16, 400), (400, 16), (64, 1600), (1024, 8), (37, 23), (2, 9)],
)
def test_restrictions_match_scipy_kron_arrays(nx, ny):
    # P^T is built with numpy: its three CSR arrays are scipy's, dtypes included
    steps = coarsenings(GridSpec(nx, ny))
    ref = kron_restriction(GridSpec(nx, ny))
    assert len(steps) == len(ref) >= 1
    for step, PT in zip(steps, ref):
        assert step.PT.shape == PT.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(step.PT, name), getattr(PT, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("nx, ny", [(16, 16), (37, 23), (64, 8), (128, 16), (8, 64)])
def test_one_stored_transfer_per_level(nx, ny):
    # the prolongation is the CSC view of the stored restriction: one copy of
    # each level's transfer, whose products are a CSR copy's bit for bit
    rng = np.random.default_rng(nx * ny)
    for step in coarsenings(GridSpec(nx, ny)):
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(step.P, name), getattr(step.PT, name)), name
        coarse = rng.standard_normal(step.P.shape[1])
        P = scipy_matrix(step.P)
        assert same_bits(P @ coarse, P.tocsr() @ coarse)


@pytest.mark.parametrize("nx, ny", [(16, 16), (37, 23), (64, 8), (128, 16)])
def test_coarse_operators_match_map_assembly_bitwise(nx, ny, monkeypatch):
    g = GridSpec(nx, ny)
    a = _density(g, "random")
    levels = []

    def recorded(grid, elements):
        levels.append((grid, elements.copy()))
        return assemble_elements(grid, elements)

    monkeypatch.setattr(mg, "assemble_elements", recorded)
    M = VCycle(a, assemble_stiffness(a))
    assert len(levels) == len(M.operators) - 1
    rng = np.random.default_rng(2)
    for (grid, elements), A in zip(levels, M.operators[1:]):
        ref = map_assemble_elements(grid, elements)
        assert np.array_equal(A.toarray(), ref.toarray())
        for _ in range(3):
            x = rng.standard_normal(grid.n_interior)
            assert np.array_equal(A @ x, ref @ x)
    coarsest = M.operators[-1]
    assert np.array_equal(coarsest.toarray(), scipy_matrix(coarsest).toarray())


@pytest.mark.parametrize("nx, ny", [(16, 16), (37, 23), (64, 8), (255, 257), (2, 9), (128, 16)])
def test_coarse_elements_match_child_table_gather_bitwise(nx, ny, monkeypatch):
    g = GridSpec(nx, ny)
    a = _density(g, "random")
    levels = []

    def recorded(grid, elements):
        levels.append(elements.copy())
        return assemble_elements(grid, elements)

    monkeypatch.setattr(mg, "assemble_elements", recorded)
    VCycle(a, assemble_stiffness(a))
    ref = table_coarse_elements(a)
    assert len(levels) == len(ref) >= 1
    for elements, expected in zip(levels, ref):
        assert same_bits(elements, expected)


@pytest.mark.parametrize("nx, ny", [(16, 16), (37, 23), (64, 8), (256, 96)])
@pytest.mark.parametrize("kind", ["random", "bang-bang"])
def test_jacobi_weights_match_csr_row_sums(nx, ny, kind):
    g = GridSpec(nx, ny)
    a = _density(g, kind)
    M = VCycle(a, assemble_stiffness(a))
    for A, w in zip(M.operators, M.weights):
        ref = reduceat_jacobi_weights(scipy_matrix(A).tocsr())
        assert np.max(np.abs(w - ref) / ref) <= 1e-15


@pytest.mark.parametrize("nx, ny", [(16, 16), (37, 23), (64, 8), (8, 64)])
@pytest.mark.parametrize("kind", ["random", "bang-bang", "contrast"])
def test_jacobi_weight_keeps_its_safety_margin(nx, ny, kind):
    # omega * lambda_max(D^-1 A) <= 16/9 < 2 on every level keeps the
    # symmetric cycle positive definite
    g = GridSpec(nx, ny)
    a = _density(g, kind)
    M = VCycle(a, assemble_stiffness(a))
    assert len(M.weights) >= 1
    for A, w in zip(M.operators, M.weights):
        A = A.toarray()
        d = np.sqrt(np.diag(A))
        lam_max = np.linalg.eigvalsh(A / np.outer(d, d))[-1]
        omega = np.max(w * np.diag(A))
        assert omega * lam_max <= (16.0 / 9.0) * (1.0 + 1e-10)


@pytest.mark.parametrize("nx, ny", [(16, 16), (37, 23), (64, 8), (256, 96)])
@pytest.mark.parametrize("kind", ["random", "bang-bang"])
def test_v_cycle_is_symmetric_positive_definite(nx, ny, kind):
    g = GridSpec(nx, ny)
    a = _density(g, kind)
    M = VCycle(a, assemble_stiffness(a))
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, y = rng.standard_normal((2, g.n_interior))
        x_in = x.copy()
        Mx, My = M(x), M(y)
        assert np.array_equal(x, x_in)
        assert abs(Mx @ y - x @ My) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)
        assert Mx @ x > 0.0


@pytest.mark.parametrize("nx, ny", [(64, 64), (37, 23), (256, 32)])
def test_kernel_products_match_matmul_bitwise(nx, ny):
    # the cycle's products run scipy's private _sparsetools kernels: each
    # level's A x, P^T r and P e must be `@`'s bit for bit, on this scipy too
    g = GridSpec(nx, ny)
    a = _density(g, "random")
    M = VCycle(a, assemble_stiffness(a))
    rng = np.random.default_rng(nx + ny)
    products = [(A, mg._product(A)) for A in M.operators]
    products += [(T, mg._product(T)) for step in M.steps for T in (step.PT, step.P)]
    assert len(products) == 3 * len(M.steps) + 1
    for A, product in products:
        x = rng.standard_normal(A.shape[1])
        y = np.zeros(A.shape[0])
        product(x, y)
        assert same_bits(y, scipy_matrix(A) @ x)


@pytest.mark.parametrize("nx, ny", [(64, 64), (256, 256), (37, 23), (256, 32), (8, 8)])
def test_v_cycle_matches_matmul_cycle_bitwise(nx, ny):
    g = GridSpec(nx, ny)
    a = _density(g, "bang-bang")
    M = VCycle(a, assemble_stiffness(a))
    r = np.random.default_rng(3).standard_normal(g.n_interior)
    assert same_bits(M(r), matmul_v_cycle(M, r))


def test_reused_v_cycle_repeats_and_returns_its_own_z():
    # the work arrays carry nothing from one call to the next, and the z a
    # call returns is not one of them
    g = GridSpec(37, 23)
    a = _density(g, "random")
    M = VCycle(a, assemble_stiffness(a))
    r1, r2 = np.random.default_rng(4).standard_normal((2, g.n_interior))
    z1 = M(r1)
    want = z1.copy()
    z1[:] = np.nan
    z2 = M(r2)
    assert same_bits(z2, VCycle(a, assemble_stiffness(a))(r2))
    assert same_bits(M(r1), want)
    assert not np.shares_memory(z2, M(r1))


def test_keep_rule_is_the_spacing_rule():
    # coarsenings keeps x whole when ny >= 2*nx: on the unit square that is
    # hx >= 2*hy in floats, for every grid up to 1024 cells a side
    nx, ny = np.meshgrid(np.arange(2, 1025), np.arange(2, 1025), indexing="ij")
    assert np.array_equal(1.0 / nx >= 2.0 * (1.0 / ny), ny >= 2 * nx)


def test_semicoarsening_hierarchies_terminate():
    # a direction at least twice as coarse as the other stays whole while the
    # other is coarsened: at aspect ratio 25 the long cells' direction is
    # coarsened once the other is no longer twice as fine, so the loop ends
    code = """
from stodesign.fem import GridSpec
from stodesign.mg import coarsenings
grids = [GridSpec(256, 32), GridSpec(128, 16), GridSpec(256, 96), GridSpec(16, 400),
         GridSpec(400, 16), GridSpec(64, 1600), GridSpec(1024, 8)]
for g in grids:
    print([(s.coarse.nx, s.coarse.ny) for s in coarsenings(g)])
"""
    src = str(Path(stodesign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "[(128, 32), (64, 32), (32, 32), (16, 16), (8, 8)]",
        "[(64, 16), (32, 16), (16, 16), (8, 8)]",
        "[(128, 96), (64, 48), (32, 24), (16, 12), (8, 6)]",
        "[(16, 200), (16, 100), (16, 50), (16, 25), (8, 13), (8, 7)]",
        "[(200, 16), (100, 16), (50, 16), (25, 16), (13, 8), (7, 8)]",
        "[(64, 800), (64, 400), (64, 200), (64, 100), (32, 50), (16, 25), (8, 13), (8, 7)]",
        "[(512, 8), (256, 8), (128, 8), (64, 8), (32, 8), (16, 8), (8, 8)]",
    ]


@pytest.mark.parametrize(
    "nx, ny, cap",
    [
        (64, 64, 12),
        (256, 256, 12),
        (256, 96, 30),
        (37, 23, 24),
        (255, 255, 17),
        (257, 257, 17),
        (256, 32, 27),
        (128, 16, 26),
        (1024, 8, 27),
        (8, 1024, 27),
    ],
)
@pytest.mark.parametrize("kind", ["random", "bang-bang"])
def test_cold_solve_iteration_caps(nx, ny, cap, kind):
    g = GridSpec(nx, ny)
    a = _density(g, kind)
    K = assemble_stiffness(a)
    sset = make_case1(g)
    b = assemble_load(g, sset.f + sset.scenarios[0].xi)
    tol = 1e-10
    x, report = cg_solve(K, b, tol=tol, M=VCycle(a, K))
    assert report.converged
    assert report.iterations <= cap
    assert np.linalg.norm(K @ x - b) <= tol * np.linalg.norm(b)


def test_solves_import_no_dense_or_sparse_linalg(tmp_path):
    # importing scipy.linalg alone adds several MB of resident memory, and
    # scipy.sparse 17-18 MB: of scipy, only the compiled kernels load
    code = """
import sys
import stodesign
from stodesign import cli
from stodesign.objective import Objective
from stodesign.scenarios import make_case1
g = stodesign.GridSpec(37, 23)
stodesign.solve_state(stodesign.DensityField.constant(g, 1.5), stodesign.load_basis(make_case1(g)))
stodesign.run(stodesign.OptimizerConfig(max_iters=2), make_case1(g), Objective.COMPLIANCE)
cli.run_cli(["run", "--preset", "case1", "--nx", "37", "--ny", "23", "--max-iters", "2",
             "--out", sys.argv[1]])
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "linalg"]
             or m.split(".")[:3] == ["scipy", "sparse", "linalg"]))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(stodesign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["[]", "['scipy.sparse._sparsetools']"]
