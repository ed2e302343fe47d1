"""Geometric multigrid V-cycle, the preconditioner of every state solve.

One symmetric V(2,2) cycle (Briggs, Henson & McCormick, *A Multigrid
Tutorial*, SIAM 2000): two weighted-Jacobi sweeps, the residual restricted by
P^T, the cycle on the next coarser level, the correction prolonged by P, two
more sweeps; a dense inverse on the coarsest level. Each direction is
coarsened while it has more than COARSEST cells, with coarse nodes at the
even fine nodes plus the last node when the cell count is odd, so the last
coarse cell of an odd direction spans one fine cell. P is bilinear
interpolation between interior nodes, kron(P1y, P1x).

The coarse operators are Galerkin, P^T A P, formed element by element: the
coarse element matrix of a cell is sum over its children of R^T E R, with E
the child's element matrix and R the interpolation from the coarse cell's
corners to the child's, and the coarse elements are summed into the coarse
grid's stiffness pattern. Everything that depends only on the grid (level
sizes, child maps, P) is built once per grid; the operators, the Jacobi
weights and the coarsest inverse once per assembly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .fem import DensityField, GridSpec, assemble_elements, reference_stiffness

COARSEST = 8  # a direction with more cells than this is coarsened
SWEEPS = 2  # weighted-Jacobi sweeps before and after each coarse correction

# 1D interpolation from a coarse cell's (left, right) node values to a child's
_HALVES = (np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[0.5, 0.5], [0.0, 1.0]]))
_WHOLE = np.eye(2)
# (x, y) position of the corners SW, SE, NE, NW in a cell
_CX = np.array([0, 1, 1, 0])
_CY = np.array([0, 0, 1, 1])


@dataclass(frozen=True)
class Coarsening:
    """One grid-to-grid step of the hierarchy, fixed by the fine grid alone.

    `coarse` carries the coarse cell counts (its spacing is nominal: the last
    cell of an odd direction is half as wide). `P` prolongs coarse interior
    values to fine interior ones. Each group is (T, fine cells, coarse cells):
    the children that sit at the same position in their parent, with
    T = kron(R, R), so that a fine element matrix flattened row-major, times
    T, is R^T E R flattened.
    """

    coarse: GridSpec
    P: sparse.csr_matrix
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _coarse_nodes(n: int) -> np.ndarray:
    """Fine node index of each coarse node along a direction of n cells."""
    if n <= COARSEST:
        return np.arange(n + 1)
    nodes = np.arange(0, n + 1, 2)
    return nodes if n % 2 == 0 else np.append(nodes, n)


def _prolongation_1d(nodes: np.ndarray) -> sparse.csr_matrix:
    """Linear interpolation from the interior coarse nodes to the interior fine ones."""
    n = int(nodes[-1])
    f = np.arange(1, n)
    k = np.searchsorted(nodes, f, side="right") - 1  # nodes[k] <= f < nodes[k + 1]
    t = (f - nodes[k]) / (nodes[k + 1] - nodes[k])
    rows = np.concatenate([f - 1, f - 1])
    cols = np.concatenate([k - 1, k])  # interior coarse node k is column k - 1
    vals = np.concatenate([1.0 - t, t])
    keep = (cols >= 0) & (cols < len(nodes) - 2) & (vals != 0.0)
    return sparse.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(n - 1, len(nodes) - 2)
    )


def _children_1d(nodes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(R, fine cells, coarse cells) for each child position along one direction."""
    width = np.diff(nodes)
    whole, split = np.flatnonzero(width == 1), np.flatnonzero(width == 2)
    groups = [(_WHOLE, nodes[whole], whole)] if whole.size else []
    if split.size:
        groups += [(R, nodes[split] + i, split) for i, R in enumerate(_HALVES)]
    return groups


@lru_cache(maxsize=64)
def coarsenings(grid: GridSpec) -> tuple[Coarsening, ...]:
    """The steps from `grid` down to the coarsest level, built once per grid."""
    steps = []
    while grid.nx > COARSEST or grid.ny > COARSEST:
        xn, yn = _coarse_nodes(grid.nx), _coarse_nodes(grid.ny)
        coarse = GridSpec(len(xn) - 1, len(yn) - 1, grid.x0, grid.y0, grid.x1, grid.y1)
        groups = []
        for Rx, fx, cx in _children_1d(xn):
            for Ry, fy, cy in _children_1d(yn):
                R = Rx[np.ix_(_CX, _CX)] * Ry[np.ix_(_CY, _CY)]
                fine = (fy[:, None] * grid.nx + fx).ravel()
                parent = (cy[:, None] * coarse.nx + cx).ravel()
                groups.append((np.kron(R, R), fine, parent))
        P = sparse.kron(_prolongation_1d(yn), _prolongation_1d(xn), format="csr")
        steps.append(Coarsening(coarse, P, tuple(groups)))
        grid = coarse
    return tuple(steps)


def _jacobi_weights(A: sparse.csr_matrix) -> np.ndarray:
    """omega / diag(A), with omega = 1 / the Gershgorin bound of D^-1 A.

    The bound is at least lambda_max(D^-1 A), so the sweep contracts in the A
    norm and the cycle stays positive definite, on any cell aspect ratio.
    """
    diag = A.diagonal()
    row_sums = np.add.reduceat(np.abs(A.data), A.indptr[:-1])
    return 1.0 / (diag * np.max(row_sums / diag))


class VCycle:
    """The V(2,2) preconditioner r -> z for the stiffness matrix K of `a`.

    `operators[0]` is K itself; `operators[l + 1]` is the Galerkin operator
    of `coarsenings(a.grid)[l].coarse`.
    """

    def __init__(self, a: DensityField, K: sparse.csr_matrix):
        grid = a.grid
        kref = reference_stiffness(grid.hx, grid.hy).ravel()
        self.operators = [K]
        self.prolongations = []  # (P, P^T) from each level to the next finer one
        elements = None  # finest level: the element matrix of cell c is a_c * kref
        for step in coarsenings(grid):
            coarse = np.zeros((step.coarse.n_cells, 16))
            for T, fine, parent in step.groups:
                if elements is None:
                    coarse[parent] += np.outer(a.values[fine], kref @ T)
                else:
                    coarse[parent] += elements[fine] @ T
            elements = coarse
            self.operators.append(assemble_elements(step.coarse, coarse))
            self.prolongations.append((step.P, step.P.T))
        self.weights = [_jacobi_weights(A) for A in self.operators[:-1]]
        inverse = np.linalg.inv(self.operators[-1].toarray())
        self.coarsest_inverse = 0.5 * (inverse + inverse.T)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.weights):
            return self.coarsest_inverse @ b
        A, w = self.operators[level], self.weights[level]
        P, PT = self.prolongations[level]
        x = w * b
        for _ in range(SWEEPS - 1):
            x += w * (b - A @ x)
        x += P @ self._cycle(level + 1, PT @ (b - A @ x))
        for _ in range(SWEEPS):
            x += w * (b - A @ x)
        return x
