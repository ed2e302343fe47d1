"""Bilinear quadrilateral finite elements on a uniform grid of the unit square.

The diffusion coefficient is piecewise constant per cell; a state is the
vector of its values at the interior nodes, the unknowns of the assembled
system, and is zero on the boundary (homogeneous Dirichlet), which only this
module pads in. Cells are indexed row-major as j*nx + i, nodes as
j*(nx+1) + i and interior nodes as (j-1)*(nx-1) + (i-1), with i running
fastest: fields are (ny, nx), (ny+1, nx+1) and (ny-1, nx-1) arrays, and
corners, neighbours and interior nodes are slices. Corners run SW, SE, NE, NW.

The assembled matrices are `Stencil`s: scipy's DIA arrays, multiplied by
scipy's compiled `dia_matvec` kernel. `sparsetools` is that kernel's
extension module, loaded from its file alone: importing `scipy.sparse` would
cost about ten times its time and 17–18 MB of peak resident memory.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import ClassVar

import numpy as np


def _load_sparsetools():
    """scipy's compiled `_sparsetools` extension, without importing any of scipy.

    It is found in scipy's package directory, which `find_spec` reports
    without importing scipy, and registered under its own name, so that a
    later `import scipy.sparse` reuses this module.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("stodesign needs scipy's compiled sparse kernels: scipy is not installed")
    where = Path(scipy.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if (where / f"_sparsetools{suffix}").is_file():
            spec = importlib.util.spec_from_file_location(name, where / f"_sparsetools{suffix}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return sys.modules.setdefault(name, module)
    from importlib.metadata import version

    raise ImportError(
        f"no _sparsetools extension in {where} (scipy {version('scipy')}): "
        "this scipy's file layout is not the one stodesign loads its kernels from"
    )


sparsetools = _load_sparsetools()

_GAUSS = 1.0 / np.sqrt(3.0)
# reference-square corner signs, order SW SE NE NW
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of nx*ny cells on the unit square; nx != ny stretches the cells."""

    nx: int
    ny: int

    def __post_init__(self):
        for n in (self.nx, self.ny):  # a bool is no size
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"grid size must be an integer, got {n!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 cells per direction")

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

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


def cell_centers(grid: GridSpec) -> np.ndarray:
    cx = (np.arange(grid.nx) + 0.5) * grid.hx
    cy = (np.arange(grid.ny) + 0.5) * grid.hy
    yy, xx = np.meshgrid(cy, cx, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


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


@dataclass(frozen=True, eq=False)
class Stencil:
    """A square matrix held as diagonals, in scipy's DIA layout.

    data[d, j] holds A[j - offsets[d], j], for the sorted int32 `offsets`;
    a slot whose row lies outside the matrix is never read by a product.
    `A @ x` runs scipy's `dia_matvec` kernel into a zeroed y, as scipy's
    `dia_matrix @` does, so the two agree bit for bit.
    """

    offsets: np.ndarray
    data: np.ndarray
    format: ClassVar[str] = "dia"

    @property
    def shape(self) -> tuple[int, int]:
        n = self.data.shape[1]
        return n, n

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.data.shape[1]
        x = np.asarray(x)
        if x.shape != (n,):  # the kernel reads n values of x unchecked
            raise ValueError(f"cannot multiply a {n}x{n} stencil by an array of shape {x.shape}")
        y = np.zeros(n)
        sparsetools.dia_matvec(n, n, len(self.offsets), n, self.offsets, self.data, x, y)
        return y

    def toarray(self) -> np.ndarray:
        """The matrix as a C-ordered dense array, written one diagonal at a time."""
        n = self.data.shape[1]
        dense = np.zeros(n * n)
        for offset, values in zip(self.offsets.tolist(), self.data):
            start = max(0, offset)
            stop = max(start, n + min(0, offset))
            # A[j - offset, j] is flat entry j*(n + 1) - offset*n
            flat = slice(start * (n + 1) - offset * n, stop * (n + 1) - offset * n, n + 1)
            dense[flat] = values[start:stop]
        return dense.reshape(n, n)


# The corner (SW, SE, NE, NW = 0..3) a node is of the cell at [sy][sx] from
# it, above it when sy = 1 and right of it when sx = 1; `_CELLS` lists those
# cells by increasing cell index.
_NODE_CORNER = ((2, 3), (1, 0))
_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


@lru_cache(maxsize=64)
def _offsets(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct diagonals of the 9-point stencil, m interior nodes
    per row, and where[3*dy + dx + 4], the one of the neighbour dy*m + dx; for
    m <= 2 some neighbours share a diagonal."""
    k = np.arange(-1, 2)
    offsets, where = np.unique((k[:, None] * m + k).ravel(), return_inverse=True)
    offsets = offsets.astype(np.int32)  # the kernel's index type: not copied per product
    offsets.flags.writeable = where.flags.writeable = False
    return offsets, where


def _stencil(grid: GridSpec, entry) -> Stencil:
    """Sum element matrices into the nine diagonals of the interior matrix.

    Interior node (q, p) is column q*m + p, m = nx - 1. entry(sy, sx, by, bx)
    is the (ny - 1, m) array whose [q, p] is the entry (row corner
    _NODE_CORNER[by][bx], column corner _NODE_CORNER[sy][sx]) of the cell at
    (sy, sx) from node (q, p), which couples it to the node dy = by - sy rows
    up and dx = bx - sx right; it is added before the next call. Each entry is
    summed from zero in `_CELLS` order, as adding the element matrices cell by
    cell does. data[d, j] holds A[j - offsets[d], j]; a slot whose row lies
    off the grid or wraps to another grid row is exactly 0.
    """
    m, r = grid.nx - 1, grid.ny - 1
    data = np.zeros((3, 3, r, m))  # [dy + 1, dx + 1, q, p]
    for sy, sx in _CELLS:
        for by, bx in _CELLS:
            data[1 + by - sy, 1 + bx - sx] += entry(sy, sx, by, bx)
    # neighbours off the grid: these sums read cells the two nodes do not share
    data[:, 0, :, -1] = data[:, 2, :, 0] = 0.0
    data[0, :, -1, :] = data[2, :, 0, :] = 0.0
    data = data.reshape(9, r * m)
    offsets, where = _offsets(m)
    if len(offsets) < 9:  # neighbours that share a diagonal fill disjoint slots
        merged = np.zeros((len(offsets), r * m))
        np.add.at(merged, where, data)
        data = merged
    return Stencil(offsets, data)


def assemble_stiffness(a: DensityField) -> Stencil:
    """Assemble the interior-node stiffness matrix of -div(a grad u).

    The coefficient is held constant per cell; boundary rows and columns are
    eliminated (homogeneous Dirichlet). The result is a `Stencil` of the
    nine diagonals (`_stencil`), filled from the cell array by slicing;
    callers multiply by it, as by any SPD sparse matrix.
    """
    # a NaN makes min() NaN, which fails the test too
    if not (a.values.min() > 0.0 and a.values.max() < np.inf):
        raise ValueError("coefficient values must be finite and strictly positive")
    grid = a.grid
    m, r = grid.nx - 1, grid.ny - 1
    cells = a.values.reshape(grid.ny, grid.nx)
    windows = [[cells[sy : sy + r, sx : sx + m] for sx in (0, 1)] for sy in (0, 1)]
    kref = reference_stiffness(grid.hx, grid.hy)
    scratch = np.empty((r, m))

    def entry(sy, sx, by, bx):  # a_c * kref entry of the cells at (sy, sx)
        # numpy buffers a strided operand: scaling a contiguous copy is faster
        scratch[...] = windows[sy][sx]
        return np.multiply(scratch, kref[_NODE_CORNER[by][bx], _NODE_CORNER[sy][sx]], scratch)

    return _stencil(grid, entry)


def assemble_elements(grid: GridSpec, elements: np.ndarray) -> Stencil:
    """Sum per-cell element matrices, (n_cells, 16) row-major, into a
    `Stencil` of the interior stencil's nine diagonals (`_stencil`)."""
    m, r = grid.nx - 1, grid.ny - 1
    entries = elements.reshape(grid.ny, grid.nx, 4, 4)  # [cell y, cell x, row, column]
    return _stencil(
        grid,
        lambda sy, sx, by, bx: entries[
            sy : sy + r, sx : sx + m, _NODE_CORNER[by][bx], _NODE_CORNER[sy][sx]
        ],
    )


def assemble_load(grid: GridSpec, g_cells: np.ndarray) -> np.ndarray:
    """Interior load vector for a source held constant per cell.

    Each cell spreads g_c * cell_area / 4 to its four corner nodes, the exact
    integral of the bilinear basis; a node sums its shares in cell order.
    """
    g_cells = np.asarray(g_cells, dtype=float)
    if g_cells.shape != (grid.n_cells,):
        raise ValueError("load must hold one real per cell")
    shares = (g_cells * (grid.cell_area / 4.0)).reshape(grid.ny, grid.nx)
    nodal = np.zeros((grid.ny - 1, grid.nx - 1))
    for sy, sx in _CELLS:
        nodal += shares[sy : sy + grid.ny - 1, sx : sx + grid.nx - 1]
    return nodal.ravel()


def _corners(grid: GridSpec, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The SW, SE, NE, NW corner values of every cell, (ny, nx) views of the
    interior-node values x padded with the zero boundary."""
    nodes = np.zeros((grid.ny + 1, grid.nx + 1))
    nodes[1:-1, 1:-1] = np.reshape(x, (grid.ny - 1, grid.nx - 1))
    return nodes[:-1, :-1], nodes[:-1, 1:], nodes[1:, 1:], nodes[1:, :-1]


def cell_gradients(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """(n_cells, 2) gradient at each cell center of the bilinear interpolant
    of the interior-node values x, zero on the boundary."""
    sw, se, ne, nw = _corners(grid, x)
    gx = ((se + ne) - (sw + nw)) / (2.0 * grid.hx)
    gy = ((nw + ne) - (sw + se)) / (2.0 * grid.hy)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def cell_grad_dot(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Per-cell mean of |grad(u)|^2, consistent with assembly quadrature.

    u is the bilinear interpolant of the interior-node values x, zero on the
    boundary. Returns (1/|cell|) * integral of grad(u).grad(u) over each cell,
    so that sum_c a_c * area * cell_grad_dot(grid, x)_c reproduces the
    assembled quadratic form x.K x exactly. This is what makes the descent
    gradient match finite differences of the discrete cost to solver precision.
    """
    kref = reference_stiffness(grid.hx, grid.hy)
    cu = np.stack(_corners(grid, x), axis=-1).reshape(-1, 4)
    return np.einsum("ci,ci->c", cu @ kref, cu) / grid.cell_area


def integrate_cells(grid: GridSpec, w: np.ndarray) -> float:
    """Integral over the domain of a cell-wise constant field."""
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n_cells,):
        raise ValueError("integrand must hold one real per cell")
    return float(np.sum(w)) * grid.cell_area
