"""State solves for the loads that carry a scenario set's expectations.

Both supported costs are quadratic in the state and the perturbations have
zero mean, so the expected cost and its gradient depend on the scenarios only
through the mean load f and the weighted covariance sum_k w_k xi_k xi_k^T.
`load_basis` factors the covariance once per set (the Karhunen-Loeve view), and
a design costs 1 + r solves whatever the number of scenarios. They share one
stiffness matrix and its multigrid hierarchy (`stodesign.mg.VCycle`, the CG
preconditioner). For both cost kinds the adjoint is the state up to sign, so
the cost and its gradient read two sums over the loads, which `solve_state`
forms once: the load pairing sum_i b_i.x_i and the per-cell energy
sum_i grad(u_i).grad(u_i). Only the laminate residual, not quadratic in
grad(u), forms scenario k's state, coefficients[k] @ the states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cg import cg_solve, dot
from .fem import (
    DensityField,
    GridSpec,
    assemble_load,
    assemble_stiffness,
    cell_grad_dot,
)
from .mg import VCycle
from .scenarios import ScenarioSet, validate


@dataclass
class BasisSolve:
    """The states of every load of a `LoadBasis` under one density, and the sums the cost reads.

    Row i of `states` is the interior-node solution x_i of K x_i = loads[i],
    to relative residual `tol`, after iterations[i] CG iterations. `pairing`
    is sum_i loads[i].x_i, the compliance; `energy` is the per-cell sum over
    i of the mean of grad(u_i).grad(u_i) under the assembly quadrature
    (`cell_grad_dot`), so that a.energy * cell_area is the same cost in
    energy form.
    """

    states: np.ndarray  # (1 + r, n_interior)
    pairing: float
    energy: np.ndarray  # (n_cells,)
    iterations: list[int]
    tol: float


@dataclass(frozen=True)
class LoadBasis:
    """Unit-weight loads whose states sum to a scenario set's expectations.

    Row 0 of `loads` is f, row j >= 1 is sigma_j U_j of the thin SVD
    [sqrt(w_k) xi_k] = U diag(sigma) V^T with sigma_j > 1e-10 sigma_1, the
    directions kept, each assembled once (`assemble_load`). Scenario k's
    load f + xi_k is coefficients[k] @ loads.
    """

    grid: GridSpec
    loads: np.ndarray  # (1 + r, n_interior)
    coefficients: np.ndarray  # (K, 1 + r)
    weights: np.ndarray  # (K,)


def _load_name(i: int, r: int) -> str:
    return f"perturbation direction {i} of {r}" if i else "the mean load f"


def load_basis(sset: ScenarioSet) -> LoadBasis:
    """Validate a scenario set, factor its weighted perturbations and assemble the loads.

    Raises ValueError, naming the load, where an assembled load's norm
    overflows.
    """
    problems = validate(sset)
    if problems:
        raise ValueError("invalid scenario set: " + "; ".join(problems))
    root_w = np.sqrt(sset.weights())[:, None]
    # rows: sqrt(w_k) xi_k = sum_j v[k, j] sigma_j U_j, with U_j = u_t[j]
    weighted = np.stack([s.xi for s in sset.scenarios])
    weighted *= root_w
    v, sigma, u_t = np.linalg.svd(weighted, full_matrices=False)
    r = int(np.count_nonzero(sigma > 1e-10 * sigma[0]))
    loads = np.empty((1 + r, sset.grid.n_interior))
    for i, g in enumerate([sset.f, *(sigma[:r, None] * u_t[:r])]):
        loads[i] = b = assemble_load(sset.grid, g)
        if not np.isfinite(dot(b, b)):
            raise ValueError(f"{_load_name(i, r)} is too large: its assembled norm overflows")
    coefficients = np.hstack([np.ones_like(root_w), v[:, :r] / root_w])
    return LoadBasis(sset.grid, loads, coefficients, sset.weights())


def solve_state(
    a: DensityField,
    basis: LoadBasis,
    tol: float = 1e-10,
    warm_starts: np.ndarray | list[np.ndarray] | None = None,
    max_iter: list[int] | None = None,
) -> BasisSolve:
    """Solve the state equation for every load of the basis, to relative residual tol.

    Load i starts from the state warm_starts[i], `cg_solve`'s x0, and its CG
    stops after max_iter[i] iterations (`cg_solve`'s cap when omitted).
    Raises RuntimeError naming the load if CG does not converge, and
    ValueError (`cg_solve`) for a tol that is not a finite number in (0, 1).
    The solve records `tol`, which bounds `cost`'s cross-check; the design
    loop solves its iterates and trials to its looser `ITERATE_TOL`, 1e-4,
    which the cost, second order in the solve error, reads to about 1e-11
    relative, and only its final design to this default.
    """
    if basis.grid != a.grid:
        raise ValueError("load basis and coefficient live on different grids")
    n = len(basis.loads)
    if warm_starts is not None and len(warm_starts) != n:
        raise ValueError(f"got {len(warm_starts)} warm starts for {n} loads")
    if max_iter is not None and len(max_iter) != n:
        raise ValueError(f"got {len(max_iter)} iteration caps for {n} loads")

    K = assemble_stiffness(a)
    M = VCycle(a, K)
    solved, iterations = [], []
    for i, load in enumerate(basis.loads):
        x0 = warm_starts[i] if warm_starts is not None else None
        cap = max_iter[i] if max_iter is not None else None
        x, report = cg_solve(K, load, tol=tol, max_iter=cap, x0=x0, M=M)
        if not report.converged:
            raise RuntimeError(
                f"CG did not converge for {_load_name(i, n - 1)} (relative residual "
                f"{report.relative_residual:.3e} after {report.iterations} iterations)"
            )
        solved.append(x)
        iterations.append(report.iterations)
    del K, M  # the stack and the energies' temporaries need not coexist with the operators
    states = np.stack(solved)
    with np.errstate(over="ignore"):  # inf below a coefficient of ~1e-154: `run` checks
        pairing = sum(dot(b, x) for b, x in zip(basis.loads, states))
        energy = sum(cell_grad_dot(a.grid, x) for x in states)
    return BasisSolve(states, pairing, energy, iterations, tol)
