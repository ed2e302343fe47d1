"""Expected cost and the descent gradient density.

The expectation over scenarios is a sum over state solutions; nothing is sampled.
"""
from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from .cg import dot
from .fem import DensityField

if TYPE_CHECKING:
    from .solve import ScenarioSolution


class Objective(enum.Enum):
    """Cost kind: compliance pairs the load with u, energy is its negation."""

    COMPLIANCE = "compliance"
    ENERGY = "energy"

    @classmethod
    def parse(cls, name: str) -> "Objective":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown objective {name!r}; expected 'compliance' or 'energy'"
            ) from None

    @property
    def sign(self) -> float:
        return 1.0 if self is Objective.COMPLIANCE else -1.0


def cost(a: DensityField, sols: list["ScenarioSolution"], kind: Objective) -> float:
    """Expected cost over scenarios, from the solutions of a `LoadBasis`.

    Compliance is sum_k w_k * integral (f + xi_k) u_k, the sum of b.x over the
    basis' unit-weight loads and interior states; energy is its negation.
    The load-pairing value is cross-checked against the stiffness-energy form
    sum_i integral a |grad u_i|^2, which must agree within 10x the solver
    tolerance; a larger gap, or a side that is not finite, indicates an
    assembly or bookkeeping bug or an overflow.
    """
    area = a.grid.cell_area
    pairing = sum(dot(sol.load, sol.u.interior()) for sol in sols)
    energy = sum(dot(a.values, sol.energy) * area for sol in sols)
    tol = 10.0 * max(sol.solve_tol for sol in sols)
    gap = abs(pairing - energy)
    if not np.isfinite(gap) or gap > tol * max(abs(pairing), abs(energy)) + 1e-14:
        raise ArithmeticError(
            f"load-pairing cost {pairing!r} and stiffness-energy cost {energy!r} "
            f"disagree by {gap:.3e}; assembly and solutions are inconsistent"
        )
    return kind.sign * pairing


def gradient_density(sols: list["ScenarioSolution"], kind: Objective) -> np.ndarray:
    """Cell-wise expected grad(u).grad(p), with the adjoint p = kind.sign * u.

    Uses the same 2x2 Gauss quadrature as the stiffness assembly (per-cell
    mean of the product), so that the directional derivative of the discrete
    cost along a cell indicator is exactly -area * g_c.
    """
    if not sols:
        raise ValueError("no scenario solutions given")
    g = np.zeros(sols[0].u.grid.n_cells)
    for sol in sols:
        g += sol.energy
    return kind.sign * g
