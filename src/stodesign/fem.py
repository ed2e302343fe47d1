"""Bilinear quadrilateral finite elements on a uniform rectangular grid.

The diffusion coefficient is piecewise constant per cell, solution fields are
nodal. Cells are indexed row-major as j*nx + i, nodes as j*(nx+1) + i, with i
running fastest. Cell corners are ordered counterclockwise SW, SE, NE, NW.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

_GAUSS = 1.0 / np.sqrt(3.0)
# reference-square corner signs, order SW SE NE NW
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of nx*ny rectangular cells on [x0, x1] x [y0, y1]."""

    nx: int
    ny: int
    x0: float = 0.0
    y0: float = 0.0
    x1: float = 1.0
    y1: float = 1.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 cells per direction")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("domain corners must satisfy x1 > x0 and y1 > y0")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_interior(self) -> int:
        return (self.nx - 1) * (self.ny - 1)

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


@dataclass
class DensityField:
    """Cell-wise coefficient field, the design variable."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError("values must hold one real per cell")

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "DensityField":
        return cls(grid, np.full(grid.n_cells, float(value)))

    def copy(self) -> "DensityField":
        return DensityField(self.grid, self.values.copy())

    def mass(self) -> float:
        return integrate_cells(self.grid, self.values)


@dataclass
class NodalField:
    """Node-wise scalar field; state and adjoint solutions live here."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("values must hold one real per node")

    @classmethod
    def from_interior(cls, grid: GridSpec, interior: np.ndarray) -> "NodalField":
        """Scatter an interior-node vector onto the full grid, zero boundary."""
        full = np.zeros(grid.n_nodes)
        full[interior_node_ids(grid)] = interior
        return cls(grid, full)

    def interior(self) -> np.ndarray:
        return self.values[interior_node_ids(self.grid)]


@lru_cache(maxsize=64)
def cell_node_ids(grid: GridSpec) -> np.ndarray:
    """(n_cells, 4) node indices per cell, corners ordered SW, SE, NE, NW."""
    i = np.arange(grid.nx)
    j = np.arange(grid.ny)
    jj, ii = np.meshgrid(j, i, indexing="ij")
    sw = (jj * (grid.nx + 1) + ii).ravel()
    ids = np.stack([sw, sw + 1, sw + grid.nx + 2, sw + grid.nx + 1], axis=1)
    ids.flags.writeable = False
    return ids


@lru_cache(maxsize=64)
def interior_node_ids(grid: GridSpec) -> np.ndarray:
    """Indices of nodes with 0 < i < nx and 0 < j < ny, row-major."""
    i = np.arange(1, grid.nx)
    j = np.arange(1, grid.ny)
    jj, ii = np.meshgrid(j, i, indexing="ij")
    ids = (jj * (grid.nx + 1) + ii).ravel()
    ids.flags.writeable = False
    return ids


@lru_cache(maxsize=64)
def _interior_index_map(grid: GridSpec) -> np.ndarray:
    """Full node index -> interior index, -1 for boundary nodes."""
    m = np.full(grid.n_nodes, -1, dtype=np.int64)
    m[interior_node_ids(grid)] = np.arange(grid.n_interior)
    m.flags.writeable = False
    return m


@lru_cache(maxsize=64)
def cell_centers(grid: GridSpec) -> np.ndarray:
    cx = grid.x0 + (np.arange(grid.nx) + 0.5) * grid.hx
    cy = grid.y0 + (np.arange(grid.ny) + 0.5) * grid.hy
    yy, xx = np.meshgrid(cy, cx, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    pts.flags.writeable = False
    return pts


@lru_cache(maxsize=64)
def reference_stiffness(hx: float, hy: float) -> np.ndarray:
    """4x4 element stiffness for a unit coefficient on an hx-by-hy cell.

    2x2 Gauss quadrature, exact for the bilinear basis on rectangles.
    """
    K = np.zeros((4, 4))
    det_j = hx * hy / 4.0
    for gx in (-_GAUSS, _GAUSS):
        for gy in (-_GAUSS, _GAUSS):
            dndx = _XI * (1.0 + _ETA * gy) / 4.0 * (2.0 / hx)
            dndy = _ETA * (1.0 + _XI * gx) / 4.0 * (2.0 / hy)
            K += (np.outer(dndx, dndx) + np.outer(dndy, dndy)) * det_j
    K.flags.writeable = False
    return K


def _pattern(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR structure of the interior stiffness matrix and where its entries come from.

    Returns (entries, starts, indices, indptr). `entries` are the flat
    (cell * 16 + 4x4 entry) positions of the element entries that couple two
    interior nodes, grouped by the CSR nonzero they add into, in cell order
    within each group: nonzero s sums entries[starts[s]:starts[s + 1]].
    `indices` and `indptr` are the CSR column indices and row pointers.
    Raises if the pattern is not symmetric.
    """
    n = grid.n_interior
    corners = _interior_index_map(grid)[cell_node_ids(grid)]  # -1 on the boundary
    li, lj = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    rows, cols = corners[:, li.ravel()].ravel(), corners[:, lj.ravel()].ravel()
    entries = np.flatnonzero((rows >= 0) & (cols >= 0))
    keys = rows[entries] * n + cols[entries]
    del rows, cols  # freed before the sort, the peak of a grid's first assembly
    order = np.argsort(keys, kind="stable")
    entries, keys = entries[order], keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1, append=n * n))
    nonzeros = keys[starts[:-1]]
    indices = nonzeros % n
    indptr = np.searchsorted(nonzeros // n, np.arange(n + 1))
    if not np.array_equal(np.sort(indices * n + nonzeros // n), nonzeros):
        raise ValueError("stiffness pattern is not symmetric")
    # scipy's own index type for this size, so that no matrix copies them
    index = np.int32 if len(nonzeros) <= np.iinfo(np.int32).max else np.int64
    return entries, starts, indices.astype(index), indptr.astype(index)


@lru_cache(maxsize=128)
def _assembly_map(
    grid: GridSpec, per_cell: bool
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """(S, indices, indptr) with the stiffness nonzeros K.data = S @ x, built once per grid.

    S has one row per CSR nonzero of the interior stiffness matrix; row s
    holds the `_pattern` entries that nonzero s sums, in cell order, so the
    matrix-vector product sums them exactly as adding the element matrices
    cell by cell does. With `per_cell`, x is one coefficient per cell and S
    holds the unit-coefficient element entries kref; otherwise x is the
    (n_cells, 16) element matrices flattened and S holds ones. The pattern's
    own arrays are not kept.
    """
    entries, starts, indices, indptr = _pattern(grid)
    if per_cell:
        kref = reference_stiffness(grid.hx, grid.hy).ravel()
        values, columns, width = kref[entries % 16], entries // 16, grid.n_cells
    else:
        values, columns, width = np.ones(len(entries)), entries, 16 * grid.n_cells
    S = sparse.csr_matrix((values, columns, starts), shape=(len(indices), width))
    for arr in (S.data, S.indices, S.indptr, indices, indptr):
        arr.flags.writeable = False
    return S, indices, indptr


def assemble_stiffness(a: DensityField) -> sparse.csr_matrix:
    """Assemble the interior-node stiffness matrix of -div(a grad u).

    The coefficient is held constant per cell; boundary rows and columns are
    eliminated (homogeneous Dirichlet). The nonzeros are one sparse product
    S @ a with the per-grid assembly map S (`_assembly_map`), which sums each
    nonzero's element entries a_c * kref in cell order.
    """
    if not np.all((a.values > 0.0) & (a.values < np.inf)):
        raise ValueError("coefficient values must be finite and strictly positive")
    grid = a.grid
    S, indices, indptr = _assembly_map(grid, per_cell=True)
    n = grid.n_interior
    return sparse.csr_matrix((S @ a.values, indices, indptr), shape=(n, n))


def assemble_elements(grid: GridSpec, elements: np.ndarray) -> sparse.csr_matrix:
    """Sum per-cell element matrices into the interior CSR pattern.

    `elements` holds one row-major 4x4 matrix per cell, (n_cells, 16).
    Duplicate entries are summed in cell order.
    """
    S, indices, indptr = _assembly_map(grid, per_cell=False)
    n = grid.n_interior
    return sparse.csr_matrix((S @ elements.ravel(), indices, indptr), shape=(n, n))


def assemble_load(grid: GridSpec, g_cells: np.ndarray) -> np.ndarray:
    """Interior load vector for a source held constant per cell.

    Each cell spreads g_c * cell_area / 4 to its four corner nodes, the exact
    integral of the bilinear basis against a cell-wise constant.
    """
    g_cells = np.asarray(g_cells, dtype=float)
    if g_cells.shape != (grid.n_cells,):
        raise ValueError("load must hold one real per cell")
    contrib = g_cells * (grid.cell_area / 4.0)
    nodal = np.zeros(grid.n_nodes)
    np.add.at(nodal, cell_node_ids(grid).ravel(), np.repeat(contrib, 4))
    return nodal[interior_node_ids(grid)]


def cell_gradients(u: NodalField) -> np.ndarray:
    """(n_cells, 2) gradient of the bilinear interpolant at each cell center."""
    grid = u.grid
    corners = u.values[cell_node_ids(grid)]  # (n_cells, 4): SW SE NE NW
    gx = ((corners[:, 1] + corners[:, 2]) - (corners[:, 0] + corners[:, 3])) / (
        2.0 * grid.hx
    )
    gy = ((corners[:, 3] + corners[:, 2]) - (corners[:, 0] + corners[:, 1])) / (
        2.0 * grid.hy
    )
    return np.stack([gx, gy], axis=1)


def cell_grad_dot(u: NodalField, p: NodalField) -> np.ndarray:
    """Per-cell mean of grad(u).grad(p), consistent with assembly quadrature.

    Returns (1/|cell|) * integral of grad(u).grad(p) over each cell, so that
    sum_c a_c * area * cell_grad_dot(u, p)_c reproduces the assembled bilinear
    form exactly. This is what makes the descent gradient match finite
    differences of the discrete cost to solver precision.
    """
    grid = u.grid
    if p.grid != grid:
        raise ValueError("fields live on different grids")
    kref = reference_stiffness(grid.hx, grid.hy)
    cu = u.values[cell_node_ids(grid)]
    cp = p.values[cell_node_ids(grid)]
    return np.einsum("ci,ci->c", cu @ kref, cp) / grid.cell_area


def cell_averages(u: NodalField) -> np.ndarray:
    """Per-cell average of corner values; exact cell mean of the interpolant."""
    corners = u.values[cell_node_ids(u.grid)]
    return corners.sum(axis=1) / 4.0


def integrate_cells(grid: GridSpec, w: np.ndarray) -> float:
    """Integral over the domain of a cell-wise constant field."""
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n_cells,):
        raise ValueError("integrand must hold one real per cell")
    return float(np.sum(w)) * grid.cell_area
