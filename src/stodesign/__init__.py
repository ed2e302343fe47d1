"""Optimal two-phase coefficient distribution under load uncertainty.

A descent optimizer for the scalar diffusion coefficient of an elliptic
problem whose right-hand side carries a finite set of zero-mean weighted
perturbations, plus tools to test effective-tensor bounds and laminate
optimality of converged designs.
"""

from .cg import SolveReport, cg_solve
from .fem import (
    DensityField,
    GridSpec,
    assemble_load,
    assemble_stiffness,
    cell_gradients,
    integrate_cells,
)
from .gclosure import (
    PhasePair,
    SymmetricTensor2,
    arithmetic_mean,
    harmonic_mean,
    in_gclosure,
    optimality_residual,
    rank_one_laminate,
    volume_fraction,
)
from .objective import Objective, cost, gradient_density
from .optimizer import (
    ConvergenceRecord,
    OptimizerConfig,
    RunResult,
    barrier_eta,
    project,
    run,
    update,
)
from .scenarios import (
    Scenario,
    ScenarioSet,
    load_scenario_file,
    make_case1,
    make_case2,
    make_deterministic,
    save_scenario_file,
    validate,
)
from .solve import BasisSolve, LoadBasis, load_basis, solve_state

__version__ = "0.1.0"
