"""Finite weighted scenario sets for the randomly perturbed right-hand side.

The load is f(x) plus a perturbation that takes finitely many values
xi_k with probabilities w_k. The perturbation must have zero mean,
sum_k w_k * xi_k = 0 cell-wise, so the mean load stays f.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TextIO

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

    The weight sum must be 1 within tol; the perturbation mean must vanish
    within tol times the largest |xi_k| entry, so the test holds at any scale.

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
    largest = np.finfo(float).tiny
    for s in sset.scenarios:
        mean += s.weight * s.xi
        largest = max(largest, float(np.max(np.abs(s.xi), initial=0.0)))
    worst = float(np.max(np.abs(mean), initial=0.0))
    if worst > tol * largest:
        violations.append(
            f"perturbation mean reaches {worst:.3e}, "
            f"expected 0 within {tol} of the largest perturbation"
        )
    return violations


def save_scenario_file(sset: ScenarioSet, path: str | Path) -> None:
    """Write a scenario set as whitespace-separated text.

    Layout: a `grid nx ny` line, an `f` line followed by nx*ny cell values
    (row-major, one line per cell row), then for each scenario a
    `scenario <weight>` line followed by its cell values. Lines starting
    with '#' are comments.
    """
    grid = sset.grid
    with open(path, "w") as file:
        file.write(f"grid {grid.nx} {grid.ny}\nf\n")
        _write_cell_rows(file, grid, sset.f)
        for s in sset.scenarios:
            file.write(f"scenario {float(s.weight)!r}\n")
            _write_cell_rows(file, grid, s.xi)


def _write_cell_rows(file: TextIO, grid: GridSpec, values: np.ndarray) -> None:
    for row in values.reshape(grid.ny, grid.nx):
        file.write(" ".join(map(repr, row.tolist())) + "\n")


def load_scenario_file(path: str | Path) -> ScenarioSet:
    """Read a scenario set written by save_scenario_file.

    The file is read one line at a time, lines numbered as str.splitlines()
    numbers them, and each section's values go straight into their array.
    The zero-mean property is enforced at load time with a tolerance of
    1e-9; the tiny residual mean left by decimal round-trip is subtracted
    so downstream validation at the strict tolerance passes.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as file:
        tokens = _Tokens(file, path)
        tokens.expect("grid", "scenario file must start with 'grid', got {!r}")
        # both read before either is converted: a file ending here says so first
        (nx, nx_line), (ny, ny_line) = tokens.word(), tokens.word()
        nx, ny = tokens.at(nx_line, int, nx), tokens.at(ny_line, int, ny)
        grid = tokens.at(nx_line, GridSpec, nx, ny)
        tokens.expect("f", "expected 'f' section after the grid line")
        f = tokens.values(grid.n_cells)
        scenarios = []
        while tokens.more():
            tokens.expect("scenario", "expected 'scenario <weight>' section")
            weight, line = tokens.word()
            weight = tokens.at(line, float, weight)
            # the weight's range is checked once its values are read
            scenarios.append(tokens.at(line, Scenario, tokens.values(grid.n_cells), weight))
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
    residual = np.zeros(grid.n_cells)
    for s in sset.scenarios:
        residual += s.weight * s.xi
    if np.any(residual != 0.0):
        for s in sset.scenarios:
            s.xi = s.xi - residual
    return sset


class _Tokens:
    """The whitespace-separated tokens of an open scenario file, one line at a time.

    '#' comments out the rest of its line. Errors name the file and a line,
    also for bytes that are not UTF-8: the file is decoded with surrogateescape,
    and each line is checked as it is read.
    """

    def __init__(self, file: TextIO, path: str | Path):
        self.path = path
        self.lines = enumerate((part for raw in file for part in raw.splitlines()), 1)
        self.line, self.tokens, self.i = 0, [], 0  # tokens[i:] are unread
        # a file holds no more tokens than bytes, so a grid too large for it
        # ends it before its arrays are allocated (size 0: a pipe, unknown)
        self.room = os.fstat(file.fileno()).st_size or np.inf

    def more(self) -> bool:
        """Whether a token is left, moving on to the next line that holds one."""
        while self.i == len(self.tokens):
            self.line, text = next(self.lines, (self.line, None))
            if text is None:
                return False
            if not text.isascii():
                self.at(self.line, bytes.decode, text.encode("utf-8", "surrogateescape"))
            self.tokens, self.i = text.split("#", 1)[0].split(), 0
        return True

    def take(self, n: int) -> list[str]:
        """The next tokens of the current line, at most n of them."""
        if not self.more():
            raise ValueError(f"scenario file {self.path} ended unexpectedly")
        chunk = self.tokens[self.i : self.i + n]
        self.i += len(chunk)
        return chunk

    def word(self) -> tuple[str, int]:
        """The next token and its line."""
        return self.take(1)[0], self.line

    def expect(self, keyword: str, message: str) -> None:
        """Read keyword, or raise message formatted with the token found."""
        word, line = self.word()
        if word != keyword:
            raise ValueError(f"{self.path}:{line}: {message.format(word)}")

    def at(self, line: int, convert: Callable[..., Any], *args: Any) -> Any:
        """convert(*args), a ValueError it raises naming the line."""
        try:
            return convert(*args)
        except ValueError as exc:
            raise ValueError(f"{self.path}:{line}: {exc}") from None

    def values(self, n: int) -> np.ndarray:
        """The next n tokens as floats; running out of them is reported before a bad one."""
        if n > self.room:
            raise ValueError(f"scenario file {self.path} ended unexpectedly")
        out = np.empty(n)
        done, bad = 0, None
        while done < n:
            chunk = self.take(n - done)
            try:
                out[done : done + len(chunk)] = list(map(float, chunk))
            except ValueError as exc:
                bad = bad or ValueError(f"{self.path}:{self.line}: {exc}")
            done += len(chunk)
        if bad:
            raise bad
        return out
