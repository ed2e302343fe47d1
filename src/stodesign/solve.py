"""State solves per scenario.

The stiffness matrix depends only on the coefficient field, so it and its
multigrid hierarchy (`stodesign.mg.VCycle`, the CG preconditioner) are built
once per call and shared by all scenarios. The state map is linear, so only
linearly independent loads need a CG solve from the caller's warm start; a
load within the solver tolerance of the span of earlier loads starts from the
same combination of their states, which CG then certifies in zero or a few
iterations. For the two supported cost kinds the adjoint is the state itself
up to sign (p = u for compliance, p = -u for energy), so both the energy form
of the cost and the gradient density are weighted sums of one per-cell field,
grad(u).grad(u), which each state carries.
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
from .mg import VCycle
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

    Loads are taken in scenario order. A load b_k whose distance to the span
    of the earlier independent loads is at most tol * ||b_k|| is dependent:
    CG starts from the same combination of their states and its warm start is
    not used. Every other load starts from warm_starts[k]. Either way each
    state meets the relative residual tol.

    Raises RuntimeError naming the scenario if CG does not converge.
    """
    problems = validate(sset)
    if problems:
        raise ValueError("invalid scenario set: " + "; ".join(problems))
    grid = a.grid
    if sset.grid != grid:
        raise ValueError("scenario set and coefficient live on different grids")
    if warm_starts is not None and len(warm_starts) != len(sset.scenarios):
        raise ValueError(
            f"got {len(warm_starts)} warm starts for {len(sset.scenarios)} scenarios"
        )

    K = assemble_stiffness(a)
    M = VCycle(a, K)
    n = K.shape[0]
    # Rows of Q: orthonormal basis of the independent loads so far (incremental
    # Gram-Schmidt, reorthogonalized once). Rows of Y: the matching
    # combinations of their states, so K @ Y[i] ~= Q[i].
    Q = np.empty((0, n))
    Y = np.empty((0, n))
    solutions = []
    for k, scenario in enumerate(sset.scenarios):
        load = sset.f + scenario.xi
        b = assemble_load(grid, load)
        h = Q @ b
        w = b - h @ Q
        h2 = Q @ w
        w -= h2 @ Q
        h += h2
        w_norm = float(np.linalg.norm(w))
        dependent = w_norm <= tol * float(np.linalg.norm(b))
        if dependent:
            x0 = h @ Y
        else:
            x0 = warm_starts[k] if warm_starts is not None else None
        x, report = cg_solve(K, b, tol=tol, x0=x0, M=M)
        if not report.converged:
            raise RuntimeError(
                f"CG did not converge for scenario {k} "
                f"(relative residual {report.relative_residual:.3e} "
                f"after {report.iterations} iterations)"
            )
        if not dependent:
            Q = np.vstack([Q, w / w_norm])
            Y = np.vstack([Y, (x - h @ Y) / w_norm])
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
