"""Geometric multigrid V-cycle, the preconditioner of every state solve.

One symmetric V(1,1) cycle (Briggs, Henson & McCormick, *A Multigrid
Tutorial*, SIAM 2000): one weighted-Jacobi sweep, the residual restricted by
P^T, the cycle on the next coarser level, the correction prolonged by P, one
more sweep; a dense inverse on the coarsest level. The Jacobi weight is 8/9
on square cells, the smoothing-optimal one for the Q1 stencil (Trottenberg,
Oosterlee & Schueller, *Multigrid*, 2001), and a Gershgorin bound scales it
so that the cycle stays positive definite on any cell aspect ratio and
contrast (OMEGA_G). Each direction is coarsened while it has more than
COARSEST cells, with coarse nodes at the even fine nodes plus the last node
when the cell count is odd, so the last coarse cell of an odd direction
spans one fine cell. On stretched cells the point smoother leaves errors
smooth only along the strongly coupled direction, the one of shorter
spacing, so a direction whose spacing is at least twice the other's (x when
ny >= 2*nx) stays whole and the other is coarsened (semicoarsening,
Trottenberg et al.); that also makes the coarse cells squarer. P is
bilinear interpolation between interior nodes, kron(P1y, P1x).

The coarse operators are Galerkin, P^T A P, formed element by element: the
coarse element matrix of a cell is sum over its children of R^T E R, with E
the child's element matrix and R the interpolation from the coarse cell's
corners to the child's, and the coarse elements are summed into the coarse
grid's nine stencil diagonals, a `Stencil` like the fine one; the Jacobi
weights and the coarsest dense matrix are read off those diagonals.
Everything that depends only on the grid (level sizes, the slices that
pick each child position's cells, the stacked T = kron(R, R), P and P^T) is
built once per grid; per assembly each level is one slice copy per child
position of the element matrices and one matrix product with the stacked T,
then the operators, the Jacobi weights and the coarsest inverse, and the
cycle's work arrays. Applying the cycle allocates only the z it returns:
each product is the compiled scipy kernel that scipy's `@` runs
(`_product`), into a work array zeroed first, so z is bit for bit that of
the cycle written with scipy matrices and `@`, at a fraction of the per-call
overhead on small grids. The transfers are held as scipy's CSR and CSC
arrays (`Compressed`), built here with numpy: no scipy matrix is made.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .fem import (
    DensityField,
    GridSpec,
    Stencil,
    assemble_elements,
    reference_stiffness,
    sparsetools,
)

COARSEST = 8  # a direction with more cells than this is coarsened
# The Jacobi weight is OMEGA_G / G, with G the Gershgorin bound of D^-1 A.
# On square Q1 cells G = 2 and the high-frequency eigenvalues of D^-1 A fill
# [3/4, 3/2], so omega = 8/9 minimizes max |1 - omega*lambda| there (to 1/3).
# G >= lambda_max(D^-1 A) on any grid, so omega*lambda_max <= 16/9 < 2: that
# keeps 2D/omega - A positive definite, and the symmetric cycle SPD, at any
# aspect ratio or contrast.
OMEGA_G = 16.0 / 9.0

# 1D interpolation from a coarse cell's (left, right) node values to a child's
_HALVES = (np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[0.5, 0.5], [0.0, 1.0]]))
_WHOLE = np.eye(2)
# (x, y) position of the corners SW, SE, NE, NW in a cell
_CX = np.array([0, 1, 1, 0])
_CY = np.array([0, 0, 1, 1])


@dataclass(frozen=True, eq=False)
class Compressed:
    """A sparse matrix as scipy's CSR (or CSC) arrays: row (column) i holds
    data[indptr[i]:indptr[i + 1]] in the columns (rows) indices[...]."""

    format: str  # "csr" or "csc"
    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


@dataclass(frozen=True)
class Coarsening:
    """One grid-to-grid step of the hierarchy, fixed by the fine grid alone.

    `coarse` carries the coarse cell counts (its spacing is nominal: the last
    cell of an odd direction is half as wide). `PT` (CSR) restricts fine
    interior values to coarse ones; `P`, the prolongation, is its CSC view,
    whose products add each row in column order, as CSR's do. A child
    position is where a fine cell sits in its parent (whole, or one of two
    halves, per direction). `slices[q]` = (cy, cx, fy, fx): coarse cells
    [cy, cx] have at position q the fine cells [fy, fx], the others none.
    `T[q]` = kron(R, R) for the interpolation R of position q, so that the
    children's element matrices flattened row-major and laid side by side
    (zero for none), times T stacked to (positions * 16, 16), are the coarse
    element matrix sum_q R^T E R flattened.
    """

    coarse: GridSpec
    P: Compressed
    PT: Compressed
    slices: tuple[tuple[slice, slice, slice, slice], ...]
    T: np.ndarray


def _coarse_nodes(n: int, keep: bool) -> np.ndarray:
    """Fine node index of each coarse node along a direction of n cells, kept whole if `keep`."""
    return np.arange(n + 1) if keep else np.append(np.arange(0, n, 2), n)


def _prolongation_1d(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear interpolation from the interior coarse nodes to the interior fine
    ones: the fine node, coarse node and weight of each nonzero."""
    n = int(nodes[-1])
    f = np.arange(1, n)
    k = np.searchsorted(nodes, f, side="right") - 1  # nodes[k] <= f < nodes[k + 1]
    t = (f - nodes[k]) / (nodes[k + 1] - nodes[k])
    rows = np.concatenate([f - 1, f - 1])
    cols = np.concatenate([k - 1, k])  # interior coarse node k is column k - 1
    vals = np.concatenate([1.0 - t, t])
    keep = (cols >= 0) & (cols < len(nodes) - 2) & (vals != 0.0)
    return rows[keep], cols[keep], vals[keep]


def _restriction(xn: np.ndarray, yn: np.ndarray) -> Compressed:
    """P^T in CSR, for P = kron(P1y, P1x) between the grids of fine node
    indices xn and yn: each coarse node lists its fine nodes in ascending
    order, each weighted wy * wx."""
    fy, cy, wy = _prolongation_1d(yn)
    fx, cx, wx = _prolongation_1d(xn)
    mf, mc = int(xn[-1]) - 1, len(xn) - 2  # interior nodes per fine and per coarse row
    fine = (fy[:, None] * mf + fx).ravel()
    coarse = (cy[:, None] * mc + cx).ravel()
    order = np.lexsort((fine, coarse))
    n_coarse = mc * (len(yn) - 2)
    indptr = np.zeros(n_coarse + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(coarse, minlength=n_coarse))
    shape = (n_coarse, mf * (int(yn[-1]) - 1))
    return Compressed(
        "csr", shape, indptr, fine[order].astype(np.int32), (wy[:, None] * wx).ravel()[order]
    )


def _children_1d(n: int, keep: bool) -> list[tuple[np.ndarray, slice, slice]]:
    """(R, fine cells, coarse cells) per child position along n cells, whole first."""
    if keep:
        return [(_WHOLE, slice(None), slice(None))]
    split = n // 2  # as in _coarse_nodes: coarse cells 0 .. split - 1 span two fine cells
    whole = [(_WHOLE, slice(n - 1, n), slice(split, split + 1))] if n % 2 else []
    return whole + [(R, slice(i, 2 * split, 2), slice(split)) for i, R in enumerate(_HALVES)]


@lru_cache(maxsize=64)
def coarsenings(grid: GridSpec) -> tuple[Coarsening, ...]:
    """The steps from `grid` down to the coarsest level, built once per grid.

    x stays whole when nx <= COARSEST or ny >= 2*nx, hx >= 2*hy on the unit
    square; then ny > COARSEST and y is coarsened, so every step coarsens a
    direction. y likewise.
    """
    steps = []
    while grid.nx > COARSEST or grid.ny > COARSEST:
        keep_x = grid.nx <= COARSEST or grid.ny >= 2 * grid.nx
        keep_y = grid.ny <= COARSEST or grid.nx >= 2 * grid.ny
        xn, yn = _coarse_nodes(grid.nx, keep_x), _coarse_nodes(grid.ny, keep_y)
        coarse = GridSpec(len(xn) - 1, len(yn) - 1)
        pairs = [
            (x, y) for x in _children_1d(grid.nx, keep_x) for y in _children_1d(grid.ny, keep_y)
        ]
        slices = tuple((cy, cx, fy, fx) for (_, fx, cx), (_, fy, cy) in pairs)
        Rs = [Rx[np.ix_(_CX, _CX)] * Ry[np.ix_(_CY, _CY)] for (Rx, _, _), (Ry, _, _) in pairs]
        T = np.stack([np.kron(R, R) for R in Rs])
        PT = _restriction(xn, yn)
        P = Compressed("csc", PT.shape[::-1], PT.indptr, PT.indices, PT.data)
        T.flags.writeable = False
        steps.append(Coarsening(coarse, P, PT, slices, T))
        grid = coarse
    return tuple(steps)


def _jacobi_weights(A: Stencil) -> np.ndarray:
    """omega / diag(A), with omega = OMEGA_G / G for a Gershgorin bound G of D^-1 A.

    G, the largest column sum of |A D^-1| (similar to D^-1 A), is 2 on square
    cells, where omega is the smoothing-optimal 8/9, and at least
    lambda_max(D^-1 A) on any grid, so omega*lambda_max <= 16/9 < 2: the sweep
    contracts in the A norm and the cycle stays positive definite, on any
    cell aspect ratio. Column j of A is data[:, j]: `stodesign.fem` leaves the
    slots outside the matrix at 0.
    """
    diag = A.data[np.searchsorted(A.offsets, 0)]
    return OMEGA_G / (diag * np.max(np.abs(A.data).sum(axis=0) / diag))


def _product(A: Stencil | Compressed) -> Callable[[np.ndarray, np.ndarray], None]:
    """y += A x, called as f(x, y), for a `Stencil` or a CSR or CSC `Compressed` A.

    It is the compiled kernel that scipy's `@` runs on a zeroed y for the
    scipy matrix of the same arrays, with the same arguments, so a y zeroed
    first holds that product bit for bit, with no array allocated and no
    dispatch on the way.
    """
    m, n = A.shape
    if A.format == "dia":
        L = A.data.shape[1]
        return partial(sparsetools.dia_matvec, m, n, len(A.offsets), L, A.offsets, A.data)
    return partial(getattr(sparsetools, A.format + "_matvec"), m, n, A.indptr, A.indices, A.data)


class VCycle:
    """The V(1,1) preconditioner r -> z for the stiffness matrix K of `a`.

    K is the `Stencil` of `stodesign.fem.assemble_stiffness`; the cycle
    only multiplies by it, the weights and the coarsest matrix read its
    diagonals. `operators[0]` is K itself; `operators[l + 1]` is the Galerkin
    operator of `coarsenings(a.grid)[l].coarse`, in the same format.

    Each level but the finest owns its x and b, where the finest has z and
    r, and each but the coarsest a work array t; every step but the products
    is an `out=` ufunc. A call reads r, writes nothing the caller holds and
    returns a fresh z.
    """

    def __init__(self, a: DensityField, K: Stencil):
        grid = a.grid
        self.steps = coarsenings(grid)
        self.operators = [K]
        # each level's element matrices as a (ny, nx, width) cell array; on
        # the finest level the element matrix of cell c is a_c * kref, so a_c
        # stands in for it and kref joins T
        elements = a.values.reshape(grid.ny, grid.nx, 1)
        kref = reference_stiffness(grid.hx, grid.hy).ravel()
        for level, step in enumerate(self.steps):
            T = step.T.reshape(-1, 16) if level else kref @ step.T
            c = step.coarse
            children = np.zeros((c.ny, c.nx, len(step.slices), elements.shape[-1]))
            for q, (cy, cx, fy, fx) in enumerate(step.slices):
                children[cy, cx, q] = elements[fy, fx]
            elements = (children.reshape(c.n_cells, -1) @ T).reshape(c.ny, c.nx, 16)
            self.operators.append(assemble_elements(c, elements.reshape(-1, 16)))
        self.weights = [_jacobi_weights(A) for A in self.operators[:-1]]
        inverse = np.linalg.inv(self.operators[-1].toarray())
        self.coarsest_inverse = 0.5 * (inverse + inverse.T)
        self._A = [_product(A) for A in self.operators[:-1]]
        self._PT = [_product(step.PT) for step in self.steps]
        self._P = [_product(step.P) for step in self.steps]
        sizes = [A.shape[0] for A in self.operators]
        self._x = [np.empty(n) for n in sizes[1:]]
        self._b = [np.empty(n) for n in sizes[1:]]
        self._t = [np.empty(n) for n in sizes[:-1]]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        levels = range(len(self.weights))
        z = np.empty(len(r))
        xs, bs = [z, *self._x], [r, *self._b]
        # down: x = w b, then the next level's b = P^T (b - A x)
        for level in levels:
            x, b, t = xs[level], bs[level], self._t[level]
            np.multiply(self.weights[level], b, out=x)
            t.fill(0.0)
            self._A[level](x, t)
            np.subtract(b, t, out=t)
            bs[level + 1].fill(0.0)
            self._PT[level](t, bs[level + 1])
        np.dot(self.coarsest_inverse, bs[-1], out=xs[-1])
        # up: x += P e with e the next level's x, then x += w (b - A x)
        for level in reversed(levels):
            x, b, t = xs[level], bs[level], self._t[level]
            t.fill(0.0)
            self._P[level](xs[level + 1], t)
            x += t
            t.fill(0.0)
            self._A[level](x, t)
            np.subtract(b, t, out=t)
            x += np.multiply(self.weights[level], t, out=t)
        return z
