"""Finite weighted scenario sets for the randomly perturbed right-hand side.

The load is f(x) plus a perturbation that takes finitely many values
xi_k with probabilities w_k. The perturbation must have zero mean,
sum_k w_k * xi_k = 0 cell-wise, so the mean load stays f.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .fem import GridSpec, cell_centers

INVARIANT_TOL = 1e-12  # on the weight sum and the perturbation mean
FILE_INVARIANT_TOL = 1e-9  # looser: decimal round-trip noise


@dataclass
class Scenario:
    """One perturbation realization: cell-wise field xi and probability weight."""

    xi: np.ndarray
    weight: float

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"scenario weight must lie in (0, 1], got {self.weight}")


@dataclass
class ScenarioSet:
    """Deterministic load plus a finite list of weighted perturbations."""

    grid: GridSpec
    f: np.ndarray
    scenarios: list[Scenario] = field(default_factory=list)

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        if self.f.shape != (self.grid.n_cells,):
            raise ValueError("f must hold one real per cell")
        for s in self.scenarios:
            if s.xi.shape != self.f.shape:
                raise ValueError("scenario field size does not match the grid")

    def weights(self) -> np.ndarray:
        return np.array([s.weight for s in self.scenarios])


def make_deterministic(grid: GridSpec, f_cells: np.ndarray) -> ScenarioSet:
    """Single-scenario set with no perturbation."""
    f = np.asarray(f_cells, dtype=float)
    return ScenarioSet(grid, f, [Scenario(np.zeros(grid.n_cells), 1.0)])


def center_square_mask(grid: GridSpec) -> np.ndarray:
    """Cells whose center lies in the center square [1/4, 3/4]^2."""
    c = cell_centers(grid)
    x, y = c[:, 0], c[:, 1]
    return (x >= 0.25) & (x <= 0.75) & (y >= 0.25) & (y <= 0.75)


def make_case1(grid: GridSpec) -> ScenarioSet:
    """Unit load with a +-1 perturbation on the center square, weight 1/2 each."""
    chi = center_square_mask(grid).astype(float)
    f = np.ones(grid.n_cells)
    return ScenarioSet(grid, f, [Scenario(chi, 0.5), Scenario(-chi, 0.5)])


def make_case2(grid: GridSpec) -> ScenarioSet:
    """Unit load with a +-1 perturbation on the complement of the center square."""
    chi = (~center_square_mask(grid)).astype(float)
    f = np.ones(grid.n_cells)
    return ScenarioSet(grid, f, [Scenario(chi, 0.5), Scenario(-chi, 0.5)])


def validate(sset: ScenarioSet, tol: float = INVARIANT_TOL) -> list[str]:
    """Check finiteness and the probability-sum and zero-mean invariants, within tol.

    Returns a list of violation messages; an empty list means the set is valid.
    Violations are data, not exceptions.
    """
    violations = []
    if not sset.scenarios:
        violations.append("scenario set is empty")
        return violations
    if not np.all(np.isfinite(sset.f)):
        violations.append("f holds non-finite values")
    for k, s in enumerate(sset.scenarios):
        if not np.all(np.isfinite(s.xi)):
            violations.append(f"scenario {k} holds non-finite values")
    wsum = float(sum(s.weight for s in sset.scenarios))
    if abs(wsum - 1.0) > tol:
        violations.append(f"weights sum to {wsum!r}, expected 1 within {tol}")
    mean = np.zeros(sset.grid.n_cells)
    for s in sset.scenarios:
        mean += s.weight * s.xi
    worst = float(np.max(np.abs(mean))) if mean.size else 0.0
    if worst > tol:
        violations.append(f"perturbation mean reaches {worst:.3e}, expected 0 within {tol}")
    return violations


def save_scenario_file(sset: ScenarioSet, path: str | Path) -> None:
    """Write a scenario set as whitespace-separated text.

    Layout: a `grid nx ny` line, an `f` line followed by nx*ny cell values
    (row-major, one line per cell row), then for each scenario a
    `scenario <weight>` line followed by its cell values. Lines starting
    with '#' are comments.
    """
    grid = sset.grid
    lines = [f"grid {grid.nx} {grid.ny}", "f"]
    lines += _format_cell_rows(grid, sset.f)
    for s in sset.scenarios:
        lines.append(f"scenario {float(s.weight)!r}")
        lines += _format_cell_rows(grid, s.xi)
    Path(path).write_text("\n".join(lines) + "\n")


def _format_cell_rows(grid: GridSpec, values: np.ndarray) -> list[str]:
    rows = values.reshape(grid.ny, grid.nx)
    return [" ".join(repr(float(v)) for v in row) for row in rows]


def load_scenario_file(path: str | Path) -> ScenarioSet:
    """Read a scenario set written by save_scenario_file.

    The zero-mean property is enforced at load time with a tolerance of
    1e-9; the tiny residual mean left by decimal round-trip is subtracted
    so downstream validation at the strict tolerance passes.
    """
    tokens: list[str] = []
    # line_starts[k]: tokens before line k + 1; an array, as a list's int objects
    # among the tokens kept a 1 MB allocator arena resident through a design run
    line_starts = array("q")
    for line in Path(path).read_text().splitlines():
        line_starts.append(len(tokens))
        tokens.extend(line.split("#", 1)[0].split())
    pos = 0

    def error(i: int, message: object) -> ValueError:
        """An error naming the file and the line of token i."""
        return ValueError(f"{path}:{bisect_right(line_starts, i)}: {message}")

    def take(n: int, convert: Callable[[str], Any] = str) -> list:
        nonlocal pos
        if pos + n > len(tokens):
            raise ValueError(f"scenario file {path} ended unexpectedly")
        out = []
        try:
            for token in tokens[pos : pos + n]:
                out.append(convert(token))
        except ValueError as exc:
            raise error(pos + len(out), exc) from None
        pos += n
        return out

    if take(1) != ["grid"]:
        raise error(0, f"scenario file must start with 'grid', got {tokens[0]!r}")
    nx, ny = take(2, int)
    try:
        grid = GridSpec(nx, ny)
    except ValueError as exc:
        raise error(1, exc) from None
    n_cells = grid.n_cells

    if take(1) != ["f"]:
        raise error(pos - 1, "expected 'f' section after the grid line")
    f = np.array(take(n_cells, float))

    scenarios = []
    while pos < len(tokens):
        if take(1) != ["scenario"]:
            raise error(pos - 1, "expected 'scenario <weight>' section")
        (weight,) = take(1, float)
        xi = np.array(take(n_cells, float))
        try:
            scenarios.append(Scenario(xi, weight))
        except ValueError as exc:
            raise error(pos - n_cells - 1, exc) from None  # the weight's line
    if not scenarios:
        raise ValueError(f"scenario file {path} declares no scenarios")

    sset = ScenarioSet(grid, f, scenarios)
    problems = validate(sset, FILE_INVARIANT_TOL)
    if problems:
        raise ValueError(f"invalid scenario file {path}: " + "; ".join(problems))

    # remove round-trip residue so the strict in-memory invariants hold
    wsum = float(sum(s.weight for s in sset.scenarios))
    if wsum != 1.0:
        for s in sset.scenarios:
            s.weight = s.weight / wsum
    residual = np.zeros(n_cells)
    for s in sset.scenarios:
        residual += s.weight * s.xi
    if np.any(residual != 0.0):
        for s in sset.scenarios:
            s.xi = s.xi - residual
    return sset
