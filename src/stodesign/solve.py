"""State solves per scenario.

The stiffness matrix depends only on the coefficient field, so it is
assembled once and reused across scenarios. For the two supported cost
kinds the adjoint is the state itself up to sign (p = u for compliance,
p = -u for energy), so both the energy form of the cost and the gradient
density are weighted sums of one per-cell field, grad(u).grad(u), which each
state carries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cg import cg_solve
from .fem import (
    DensityField,
    NodalField,
    assemble_load,
    assemble_stiffness,
    cell_grad_dot,
)
from .scenarios import ScenarioSet, validate


@dataclass
class ScenarioSolution:
    """State solution of one scenario and its per-cell energy density.

    `load` is the per-cell right-hand side f + xi_k, kept so cost evaluation
    does not need the scenario set again. `energy` is the per-cell mean of
    grad(u).grad(u) under the assembly quadrature.
    """

    u: NodalField
    weight: float
    load: np.ndarray
    solve_tol: float
    energy: np.ndarray


def solve_state(
    a: DensityField,
    sset: ScenarioSet,
    tol: float = 1e-10,
    warm_starts: list[np.ndarray] | None = None,
) -> list[ScenarioSolution]:
    """Solve the state equation for every scenario of the set.

    Raises RuntimeError naming the scenario if CG does not converge.
    """
    problems = validate(sset)
    if problems:
        raise ValueError("invalid scenario set: " + "; ".join(problems))
    grid = a.grid
    if sset.grid != grid:
        raise ValueError("scenario set and coefficient live on different grids")

    K = assemble_stiffness(a)
    solutions = []
    for k, scenario in enumerate(sset.scenarios):
        load = sset.f + scenario.xi
        b = assemble_load(grid, load)
        x0 = warm_starts[k] if warm_starts is not None else None
        x, report = cg_solve(K, b, tol=tol, x0=x0)
        if not report.converged:
            raise RuntimeError(
                f"CG did not converge for scenario {k} "
                f"(relative residual {report.relative_residual:.3e} "
                f"after {report.iterations} iterations)"
            )
        u = NodalField.from_interior(grid, x)
        solutions.append(
            ScenarioSolution(
                u=u,
                weight=scenario.weight,
                load=load,
                solve_tol=tol,
                energy=cell_grad_dot(u, u),
            )
        )
    return solutions
