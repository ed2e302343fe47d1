"""Test-only oracles and helpers: slow, direct forms of quantities the library computes.

`expected_decomposition_check` re-solves the state equation under the mean
load and each perturbation alone; `loop_optimality_residual` is the per-cell
reference form of `stodesign.gclosure.optimality_residual`, over the
per-scenario states that `scenario_fields` forms from a basis' states;
`prolongation_oracle` builds the multigrid prolongations from hat functions,
so that P^T A P checks the element-wise coarse operators, and
`matmul_v_cycle` is the V-cycle with every product an `@`. `bisect_project`
is the mass projection by bisection over the sorted kinks. `eager_pcg`,
`bincount_stiffness`, `map_assemble_elements`, `reduceat_jacobi_weights` and
`einsum_grad_dot` are the earlier, CSR-based forms of the state solve's
kernels, which the library's must match. `cell_node_ids` and
`interior_node_ids` are the index tables the library once kept;
`add_at_load`, `table_cell_gradients`, `table_grad_dot` and
`table_coarse_elements` are the forms that read fields through them, which
the library's slices must match bit for bit; `table_cell_averages` is the
decomposition check's own cell mean of a state. These field oracles take a
nodal array, (n_nodes,) values boundary included, which `nodal` pads from an
interior-node state and `sample_nodes` samples from a function. The
sampling, error-norm, tensor and log-reading helpers below them are
used only by the tests, as is `pm_pair_set`, a seeded set of +- scenario pairs,
and `property_settings`, the settings every hypothesis property test runs under.
"""
import math
import os
from bisect import bisect_left
from pathlib import Path
from typing import Callable

import numpy as np
from hypothesis import seed, settings
from scipy import sparse

from stodesign.cg import SolveReport, cg_solve, dot
from stodesign.fem import (
    _ETA,
    _GAUSS,
    _XI,
    DensityField,
    GridSpec,
    assemble_load,
    assemble_stiffness,
    cell_centers,
    cell_gradients,
    integrate_cells,
    reference_stiffness,
)
from stodesign.gclosure import PhasePair, SymmetricTensor2, rank_one_laminate, volume_fraction
from stodesign.mg import _CX, _CY, _HALVES, _WHOLE, VCycle
from stodesign.objective import Objective
from stodesign.optimizer import ConvergenceRecord
from stodesign.scenarios import Scenario, ScenarioSet, validate


def cell_node_ids(grid: GridSpec) -> np.ndarray:
    """(n_cells, 4) node indices per cell, corners ordered SW, SE, NE, NW."""
    i = np.arange(grid.nx)
    j = np.arange(grid.ny)
    jj, ii = np.meshgrid(j, i, indexing="ij")
    sw = (jj * (grid.nx + 1) + ii).ravel()
    return np.stack([sw, sw + 1, sw + grid.nx + 2, sw + grid.nx + 1], axis=1)


def interior_node_ids(grid: GridSpec) -> np.ndarray:
    """Indices of nodes with 0 < i < nx and 0 < j < ny, row-major."""
    i = np.arange(1, grid.nx)
    j = np.arange(1, grid.ny)
    jj, ii = np.meshgrid(j, i, indexing="ij")
    return (jj * (grid.nx + 1) + ii).ravel()


def nodal(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """The (n_nodes,) nodal array of interior-node values x, zero on the boundary."""
    full = np.zeros(grid.n_nodes)
    full[interior_node_ids(grid)] = x
    return full


def inner_cells(grid: GridSpec) -> np.ndarray:
    """Indices of the cells none of whose corners lies on the boundary."""
    return np.flatnonzero(np.isin(cell_node_ids(grid), interior_node_ids(grid)).all(axis=1))


def expected_decomposition_check(
    a: DensityField,
    sset: ScenarioSet,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Linearity identity of the expected compliance.

    Returns (lhs, rhs) where lhs is the expected compliance of f + xi and
    rhs = compliance(f) + sum_k w_k * integral xi_k u(xi_k), with u(xi_k)
    solving the state equation under the perturbation alone. With zero-mean
    perturbations the cross terms cancel and both sides agree up to solver
    error.
    """
    problems = validate(sset)
    if problems:
        raise ValueError("invalid scenario set: " + "; ".join(problems))
    grid = a.grid
    K = assemble_stiffness(a)
    area = grid.cell_area

    def compliance_of(load: np.ndarray) -> float:
        b = assemble_load(grid, load)
        x, report = cg_solve(K, b, tol=tol)
        if not report.converged:
            raise RuntimeError("CG did not converge in decomposition check")
        return float(load @ table_cell_averages(grid, nodal(grid, x))) * area

    lhs = sum(s.weight * compliance_of(sset.f + s.xi) for s in sset.scenarios)
    rhs = compliance_of(sset.f) + sum(
        s.weight * compliance_of(s.xi) if np.any(s.xi != 0.0) else 0.0
        for s in sset.scenarios
    )
    return lhs, rhs


def _principal_direction(g_outer: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the dominant eigenvalue of a 2x2 PSD matrix."""
    g11, g22, g12 = g_outer[0, 0], g_outer[1, 1], g_outer[0, 1]
    mid = 0.5 * (g11 + g22)
    rad = float(np.hypot(0.5 * (g11 - g22), g12))
    lam_max = mid + rad
    # pick the better-conditioned eigenvector formula
    v1 = np.array([g12, lam_max - g11])
    v2 = np.array([lam_max - g22, g12])
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.array([1.0, 0.0])
    return v / norm


def scenario_fields(basis, states: np.ndarray) -> list[np.ndarray]:
    """Each scenario's interior-node state, coefficients[k] @ the stacked basis states."""
    return [c @ states for c in basis.coefficients]


def loop_optimality_residual(
    a_final: DensityField,
    states: list[np.ndarray],
    weights,
    kind: Objective,
    phases: PhasePair,
) -> np.ndarray:
    """Cell-by-cell alignment residual of interior-node scenario states of the
    given weights, one 2x2 eigenproblem per cell; 0 where every gradient is zero."""
    grid = a_final.grid
    n_cells = grid.n_cells
    grads = [cell_gradients(grid, x) for x in states]

    residual = np.zeros(n_cells)
    for c in range(n_cells):
        outer = np.zeros((2, 2))
        norm_sum = 0.0
        for w, gv in zip(weights, grads):
            v = gv[c]
            outer += w * np.outer(v, v)
            norm_sum += w * float(np.hypot(v[0], v[1]))
        dominant = _principal_direction(outer)
        if kind is Objective.COMPLIANCE:
            normal = np.array([-dominant[1], dominant[0]])
        else:
            normal = dominant
        theta = volume_fraction(float(a_final.values[c]), kind, phases)
        M = rank_one_laminate(theta, phases, normal / float(np.hypot(*normal)))
        num = 0.0
        for w, gv in zip(weights, grads):
            v = gv[c]
            err = as_array(M) @ v - a_final.values[c] * v
            num += w * float(np.hypot(err[0], err[1]))
        residual[c] = num / norm_sum if norm_sum > 0.0 else 0.0
    return residual


def _kept(nx: int, ny: int) -> tuple[bool, bool]:
    """Whether the x and y directions of an nx-by-ny grid on the unit square
    stay whole: one of at most 8 cells does, and so does one whose cells are at
    least twice as long as the other direction's."""
    hx, hy = 1.0 / nx, 1.0 / ny
    return nx <= 8 or hx >= 2.0 * hy, ny <= 8 or hy >= 2.0 * hx


def _coarse_node_list(n: int, keep: bool) -> list[int]:
    """Fine node index of each coarse node along a direction of n cells: every
    node when the direction is kept whole, else the even nodes plus node n."""
    return list(range(n + 1)) if keep else sorted(set(range(0, n + 1, 2)) | {n})


def _hat_prolongation(n: int, keep: bool) -> np.ndarray:
    """Interior-to-interior linear interpolation along a direction of n cells.

    A coarsened direction keeps the even fine nodes, plus node n when n is
    odd; a kept one every node. Column k - 1 is the hat function of coarse
    node k, sampled at the interior fine nodes.
    """
    coarse = _coarse_node_list(n, keep)
    P = np.zeros((n - 1, len(coarse) - 2))
    for k in range(1, len(coarse) - 1):
        left, mid, right = coarse[k - 1], coarse[k], coarse[k + 1]
        for f in range(left + 1, right):
            P[f - 1, k - 1] = (f - left) / (mid - left) if f <= mid else (right - f) / (right - mid)
    return P


def prolongation_oracle(grid: GridSpec) -> list[sparse.csr_matrix]:
    """P = kron(P1y, P1x) of each coarsening step, finest first, until both
    directions have at most 8 cells."""
    steps = []
    nx, ny = grid.nx, grid.ny
    while nx > 8 or ny > 8:
        keep_x, keep_y = _kept(nx, ny)
        P1x, P1y = _hat_prolongation(nx, keep_x), _hat_prolongation(ny, keep_y)
        steps.append(sparse.kron(sparse.csr_matrix(P1y), sparse.csr_matrix(P1x), format="csr"))
        nx, ny = P1x.shape[1] + 1, P1y.shape[1] + 1
    return steps


def eager_pcg(
    K: sparse.csr_matrix,
    b: np.ndarray,
    tol: float,
    max_iter: int,
    M: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned CG that applies M to every residual, also to the one
    that passes the test, which it then throws away. Its inner products are
    `cg_solve`'s fixed-order `dot`, so that the two agree bit for bit."""
    b_norm = math.sqrt(dot(b, b))
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
    r = b - (K @ x)
    z = M(r)
    p = z.copy()
    rz = dot(r, z)
    r_norm = math.sqrt(dot(r, r))
    converged = r_norm <= tol * b_norm
    if converged or not np.isfinite(r_norm):
        return x, SolveReport(0, r_norm / b_norm, converged)
    it = 0
    for it in range(1, max_iter + 1):
        Kp = K @ p
        alpha = rz / dot(p, Kp)
        x += alpha * p
        r -= alpha * Kp
        z = M(r)
        rz_new = dot(r, z)
        r_norm = math.sqrt(dot(r, r))
        if r_norm <= tol * b_norm:
            converged = True
            break
        if not np.isfinite(r_norm):
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, SolveReport(it, r_norm / b_norm, converged)


def matmul_v_cycle(M: VCycle, r: np.ndarray, level: int = 0) -> np.ndarray:
    """The V-cycle of `M` applied to r recursively, every product an `@` into
    a fresh array: what `VCycle.__call__` computes into its work arrays."""
    if level == len(M.weights):
        return M.coarsest_inverse @ r
    A, w = M.operators[level], M.weights[level]
    P, PT = M.steps[level].P, M.steps[level].PT
    x = w * r
    x += P @ matmul_v_cycle(M, PT @ (r - A @ x), level + 1)
    x += w * (r - A @ x)
    return x


def bincount_stiffness(a: DensityField) -> sparse.csr_matrix:
    """The stiffness matrix summed entry by entry: each element entry a_c * kref
    that couples two interior nodes is added, in cell order, into its CSR
    nonzero."""
    grid = a.grid
    imap = np.full(grid.n_nodes, -1)
    imap[interior_node_ids(grid)] = np.arange(grid.n_interior)
    li, lj = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    rows = imap[cell_node_ids(grid)[:, li.ravel()]].ravel()
    cols = imap[cell_node_ids(grid)[:, lj.ravel()]].ravel()
    keep = np.flatnonzero((rows >= 0) & (cols >= 0))
    n = grid.n_interior
    nonzeros, slot = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    kref = reference_stiffness(grid.hx, grid.hy).ravel()
    weights = (a.values[:, None] * kref).ravel()[keep]
    data = np.bincount(slot, weights=weights, minlength=len(nonzeros))
    indptr = np.searchsorted(nonzeros // n, np.arange(n + 1))
    return sparse.csr_matrix((data, nonzeros % n, indptr), shape=(n, n))


def map_assemble_elements(grid: GridSpec, elements: np.ndarray) -> sparse.csr_matrix:
    """Per-cell element matrices, (n_cells, 16) row-major, summed into the
    interior CSR pattern by a 0/1 assembly map: the element entries that
    couple two interior nodes are grouped by their nonzero with one stable
    sort, so each nonzero sums its entries in cell order, and the map's
    product adds them from zero."""
    n = grid.n_interior
    imap = np.full(grid.n_nodes, -1)
    imap[interior_node_ids(grid)] = np.arange(n)
    corners = imap[cell_node_ids(grid)]
    li, lj = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    rows, cols = corners[:, li.ravel()].ravel(), corners[:, lj.ravel()].ravel()
    entries = np.flatnonzero((rows >= 0) & (cols >= 0))
    keys = rows[entries] * n + cols[entries]
    order = np.argsort(keys, kind="stable")
    entries, keys = entries[order], keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1, append=n * n))
    nonzeros = keys[starts[:-1]]
    S = sparse.csr_matrix(
        (np.ones(len(entries)), entries, starts), shape=(len(nonzeros), 16 * grid.n_cells)
    )
    indptr = np.searchsorted(nonzeros // n, np.arange(n + 1))
    return sparse.csr_matrix((S @ elements.ravel(), nonzeros % n, indptr), shape=(n, n))


def reduceat_jacobi_weights(A: sparse.csr_matrix) -> np.ndarray:
    """omega / diag(A), omega = (16/9) / max_i (sum_j |A_ij|) / A_ii, from CSR row sums."""
    diag = A.diagonal()
    row_sums = np.add.reduceat(np.abs(A.data), A.indptr[:-1])
    return (16.0 / 9.0) / (diag * np.max(row_sums / diag))


def einsum_grad_dot(grid: GridSpec, u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-cell u_c^T kref p_c / |cell| of nodal arrays as one three-operand contraction."""
    kref = reference_stiffness(grid.hx, grid.hy)
    cu = u[cell_node_ids(grid)]
    cp = p[cell_node_ids(grid)]
    return np.einsum("ci,ij,cj->c", cu, kref, cp) / grid.cell_area


def add_at_load(grid: GridSpec, g_cells: np.ndarray) -> np.ndarray:
    """The interior load vector scattered with np.add.at: each node sums its
    corner shares from zero in cell order."""
    contrib = g_cells * (grid.cell_area / 4.0)
    nodal = np.zeros(grid.n_nodes)
    np.add.at(nodal, cell_node_ids(grid).ravel(), np.repeat(contrib, 4))
    return nodal[interior_node_ids(grid)]


def table_cell_averages(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Per-cell corner mean of a nodal array, the corners gathered through the
    table: the exact cell mean of the bilinear interpolant."""
    return u[cell_node_ids(grid)].sum(axis=1) / 4.0


def table_cell_gradients(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """(n_cells, 2) center gradients of a nodal array from table-gathered corners."""
    c = u[cell_node_ids(grid)]  # (n_cells, 4): SW SE NE NW
    gx = ((c[:, 1] + c[:, 2]) - (c[:, 0] + c[:, 3])) / (2.0 * grid.hx)
    gy = ((c[:, 3] + c[:, 2]) - (c[:, 0] + c[:, 1])) / (2.0 * grid.hy)
    return np.stack([gx, gy], axis=1)


def table_grad_dot(grid: GridSpec, u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-cell u_c^T kref p_c / |cell| of nodal arrays, one matmul and a row
    dot over table-gathered corners."""
    kref = reference_stiffness(grid.hx, grid.hy)
    cu = u[cell_node_ids(grid)]
    cp = p[cell_node_ids(grid)]
    return np.einsum("ci,ci->c", cu @ kref, cp) / grid.cell_area


def _child_groups(nodes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(R, fine cells, coarse cells) for each child position along one
    direction: the whole children first, then the two halves."""
    width = np.diff(nodes)
    whole, split = np.flatnonzero(width == 1), np.flatnonzero(width == 2)
    groups = [(_WHOLE, nodes[whole], whole)] if whole.size else []
    if split.size:
        groups += [(R, nodes[split] + i, split) for i, R in enumerate(_HALVES)]
    return groups


def table_coarse_elements(a: DensityField) -> list[np.ndarray]:
    """Each coarse level's (n_cells, 16) element matrices, finest first.

    A (coarse cells, positions) child table names the fine cell at each
    position of each coarse cell, or the fine cell count when there is none,
    which points at a zero row appended to the fine elements; the gathered
    rows, laid side by side, times the stacked kron(R, R) are the coarse
    element matrices. On the finest level a_c stands in for a_c * kref."""
    grid = a.grid
    nx, ny = grid.nx, grid.ny
    elements = np.append(a.values, 0.0)[:, None]
    kref = reference_stiffness(grid.hx, grid.hy).ravel()
    levels = []
    while nx > 8 or ny > 8:
        keep_x, keep_y = _kept(nx, ny)
        xn, yn = np.array(_coarse_node_list(nx, keep_x)), np.array(_coarse_node_list(ny, keep_y))
        cnx, cny = len(xn) - 1, len(yn) - 1
        pairs = [(x, y) for x in _child_groups(xn) for y in _child_groups(yn)]
        children = np.full((cnx * cny, len(pairs)), nx * ny)
        T = np.empty((len(pairs), 16, 16))
        for q, ((Rx, fx, cx), (Ry, fy, cy)) in enumerate(pairs):
            R = Rx[np.ix_(_CX, _CX)] * Ry[np.ix_(_CY, _CY)]
            children[(cy[:, None] * cnx + cx).ravel(), q] = (fy[:, None] * nx + fx).ravel()
            T[q] = np.kron(R, R)
        T = T.reshape(-1, 16) if levels else kref @ T
        coarse = np.zeros((cnx * cny + 1, 16))
        np.matmul(elements[children].reshape(cnx * cny, -1), T, out=coarse[:-1])
        levels.append(coarse[:-1])
        elements, nx, ny = coarse, cnx, cny
    return levels


def bisect_project(
    a: DensityField, g: np.ndarray, eta: np.ndarray, m: float, alpha: float, beta: float
) -> tuple[DensityField, float] | None:
    """`stodesign.optimizer.project` by bisection over all 2n kinks, sorted: the
    first whose mass is at most m is hi, the one before it lo, and m is solved
    on that piece as `project` solves it."""
    moving = eta > 0.0
    if not moving.any():
        return None
    with np.errstate(over="ignore"):
        to_beta = g - np.divide(beta - a.values, eta, out=np.full_like(eta, np.inf), where=moving)
        to_alpha = g + np.divide(a.values - alpha, eta, out=np.full_like(eta, np.inf), where=moving)
    kinks = np.sort(np.concatenate([to_beta[moving], to_alpha[moving]]))

    def step(gamma: float) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.clip(a.values + eta * (g - gamma), alpha, beta)

    j = bisect_left(kinks, True, key=lambda k: integrate_cells(a.grid, step(k)) <= m)
    if j == len(kinks) or (j == 0 and integrate_cells(a.grid, step(kinks[0])) < m):
        return None
    lo, hi = kinks[max(j, 1) - 1], kinks[max(j, 1)]
    at_beta, at_alpha = to_beta >= hi, to_alpha <= lo
    inner = ~(at_beta | at_alpha)
    defect = integrate_cells(a.grid, np.where(at_beta, beta, np.where(at_alpha, alpha, a.values))) - m
    weight = integrate_cells(a.grid, np.where(inner, eta, 0.0))
    gamma = lo
    if weight > 0.0:
        gamma = (defect + integrate_cells(a.grid, np.where(inner, eta * g, 0.0))) / weight
    return DensityField(a.grid, step(gamma)), float(gamma)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Same shape, dtype and bytes: signed zeros must match too."""
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def node_coords(grid: GridSpec) -> np.ndarray:
    x = np.linspace(0.0, 1.0, grid.nx + 1)
    y = np.linspace(0.0, 1.0, grid.ny + 1)
    yy, xx = np.meshgrid(y, x, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def l2_error(
    grid: GridSpec, x: np.ndarray, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> float:
    """L2 norm of (interpolant of the interior-node state x) - fn over the
    domain, 2x2 Gauss per cell.

    This is a function-space norm: it sees the in-cell interpolation error,
    not just nodal mismatch, so it decays at the order of the element.
    """
    corners = nodal(grid, x)[cell_node_ids(grid)]
    centers = cell_centers(grid)
    total = 0.0
    det_j = grid.cell_area / 4.0
    for gx in (-_GAUSS, _GAUSS):
        for gy in (-_GAUSS, _GAUSS):
            shape = (1.0 + _XI * gx) * (1.0 + _ETA * gy) / 4.0
            uh = corners @ shape
            x = centers[:, 0] + gx * grid.hx / 2.0
            y = centers[:, 1] + gy * grid.hy / 2.0
            diff = uh - np.asarray(fn(x, y), dtype=float)
            total += float(diff @ diff) * det_j
    return float(np.sqrt(total))


def sample_cells(grid: GridSpec, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Sample a function of (x, y) at all cell centers."""
    centers = cell_centers(grid)
    return np.asarray(fn(centers[:, 0], centers[:, 1]), dtype=float)


def sample_nodes(grid: GridSpec, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Sample a function of (x, y) at all nodes, an (n_nodes,) nodal array."""
    pts = node_coords(grid)
    return np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float)


def sine_modes(grid: GridSpec, count: int) -> np.ndarray:
    """sin(m pi x) sin(n pi y) at the cell centers, for the first `count` of (1, 2), (2, 1), (2, 2)."""
    c = cell_centers(grid)
    mn = [(1, 2), (2, 1), (2, 2)][:count]
    x, y = c[:, 0], c[:, 1]
    return np.stack([np.sin(m * np.pi * x) * np.sin(n * np.pi * y) for m, n in mn])


def pm_pair_set(grid: GridSpec, pairs: int, rank: int, seed: int) -> ScenarioSet:
    """f = 1 plus +-pairs of seeded combinations of `rank` sine modes: load rank 1 + rank."""
    rng = np.random.default_rng(seed)
    xis = rng.standard_normal((pairs, rank)) @ sine_modes(grid, rank)
    w = rng.uniform(0.5, 1.5, pairs)
    w /= w.sum()
    scenarios = []
    for wp, xi in zip(w, xis):
        scenarios += [Scenario(xi, 0.5 * wp), Scenario(-xi, 0.5 * wp)]
    return ScenarioSet(grid, np.ones(grid.n_cells), scenarios)


def as_array(t: SymmetricTensor2) -> np.ndarray:
    """The 2x2 matrix of a scalar symmetric tensor."""
    return np.array([[t.a11, t.a12], [t.a12, t.a22]])


def read_convergence_log(path: Path) -> list[ConvergenceRecord]:
    """The records of a `convergence.log`, header skipped.

    Its penalized_cost column must repeat the cost column character for character.
    """
    lines = path.read_text().splitlines()
    records = []
    for line in lines[1:]:
        parts = line.split()
        assert parts[2] == parts[1], f"penalized_cost {parts[2]} is not the cost {parts[1]}"
        records.append(
            ConvergenceRecord(
                iter=int(parts[0]),
                cost=float(parts[1]),
                mass=float(parts[3]),
                gamma=float(parts[4]),
                step_eps=float(parts[5]),
                stationarity=float(parts[6]),
            )
        )
    return records


def property_settings(max_examples: int) -> Callable:
    """The settings of a hypothesis property test, applied above its @given.

    The test draws max_examples examples, derandomized and with no example
    database, so it draws the same ones on every run of the same test
    modules. With the environment variable STODESIGN_EXPLORE_SEED set to an
    integer, it draws ten times as many from that seed instead: exploration
    goes on, and a failure it finds replays from the seed.
    """
    explore = os.environ.get("STODESIGN_EXPLORE_SEED")
    if explore is None:
        return settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)
    wider = settings(max_examples=10 * max_examples, deadline=None, database=None)
    return lambda test: seed(int(explore))(wider(test))
