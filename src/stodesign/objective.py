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
    from .solve import BasisSolve


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


def cost(a: DensityField, s: "BasisSolve", kind: Objective) -> float:
    """Expected cost over scenarios, from the states of a `LoadBasis`.

    Compliance is sum_k w_k * integral (f + xi_k) u_k, which at the exact
    states is both the load pairing sum_i b_i.x_i over the basis'
    unit-weight loads and the stiffness energy integral a sum_i |grad u_i|^2
    = sum_i x_i.K x_i; energy is its negation. The value returned is
    kind.sign times the energy functional 2 * pairing - stiffness energy,
    which at states x_i = x_i* + d_i is the exact compliance minus
    sum_i d_i.K d_i: its error is second order in the solve error, where
    the pairing's is first order. The two forms are cross-checked, and must
    agree within 10x the solver tolerance, relative at any scale; a larger gap
    or a non-finite side means a bookkeeping bug, or an under- or overflow: a
    subnormal cost's two sums can keep too few digits to pass.
    """
    pairing = s.pairing
    energy = dot(a.values, s.energy) * a.grid.cell_area
    gap = abs(pairing - energy)
    if not np.isfinite(gap) or gap > 10.0 * s.tol * max(abs(pairing), abs(energy)):
        raise ArithmeticError(
            f"load-pairing cost {pairing!r} and stiffness-energy cost {energy!r} "
            f"disagree by {gap:.3e}: inconsistent assembly and solutions, or an under- or overflow"
        )
    return kind.sign * (2.0 * pairing - energy)


def gradient_density(s: "BasisSolve", kind: Objective) -> np.ndarray:
    """Cell-wise expected grad(u).grad(p), with the adjoint p = kind.sign * u.

    This is kind.sign times the solve's energy sum, formed under the same 2x2
    Gauss quadrature as the stiffness assembly (per-cell mean of the product),
    so that the directional derivative of the discrete cost along a cell
    indicator is exactly -area * g_c.
    """
    return kind.sign * s.energy
