"""Projected gradient descent on the coefficient field.

Each iteration solves all scenarios, forms the expected gradient density g,
picks the multiplier that keeps the update mass-neutral, and moves

    a_new = clamp(a + eta * (g - gamma)),   eta = eps * (a - alpha) * (beta - a).

The barrier factor eta vanishes at the phase bounds, which keeps iterates in
[alpha, beta]. The step scale eps is halved until the merit function
decreases; clamping is followed by a mass repair pass in constrained mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem import DensityField, GridSpec, integrate_cells
from .objective import Objective, cost, gradient_density
from .scenarios import ScenarioSet
from .solve import ScenarioSolution, solve_state

MAX_HALVINGS = 30
MASS_REL_TOL = 1e-10
DEGENERATE_ETA = 1e-14
SOLVE_TOL = 1e-10  # relative CG residual of every state solve


@dataclass
class OptimizerConfig:
    """Phase bounds, mass target or penalty, and loop controls.

    Exactly one of `mass` (constrained mode) and `gamma_pen` (penalized mode)
    must be set. `eps` is the base step scale, restarted every iteration and
    halved by backtracking; `eps1` is the relative stopping tolerance on the
    merit decrease.
    """

    alpha: float = 1.0
    beta: float = 2.0
    mass: float | None = 1.5
    gamma_pen: float | None = None
    eps: float = 64.0
    eps1: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        given = (self.alpha, self.beta, self.eps, self.eps1, self.mass, self.gamma_pen)
        if not all(np.isfinite(v) for v in given if v is not None):
            raise ValueError("alpha, beta, eps, eps1, mass and gamma_pen must be finite")
        if not 0.0 < self.alpha <= self.beta:
            raise ValueError("phase bounds must satisfy 0 < alpha <= beta")
        if (self.mass is None) == (self.gamma_pen is None):
            raise ValueError("set exactly one of mass (constrained) and gamma_pen (penalized)")
        if self.gamma_pen is not None and self.gamma_pen < 0.0:
            raise ValueError("gamma_pen must be nonnegative")
        if self.eps <= 0.0 or self.eps1 <= 0.0:
            raise ValueError("eps and eps1 must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    @property
    def constrained(self) -> bool:
        return self.mass is not None

    def check_grid(self, grid: GridSpec) -> None:
        # the barrier weight eps*(a-alpha)*(beta-a) and the mass-repair capacity
        # (a-alpha)*(beta-a), summed over the cells, must stay finite; Python
        # floats overflow to inf here without a warning
        span = float(self.beta) - float(self.alpha)
        if not np.isfinite(max(float(self.eps), 1.0) * span * span * grid.n_cells):
            raise ValueError(
                f"phase bounds [{self.alpha}, {self.beta}] are too wide: "
                f"max(eps, 1)*(beta-alpha)^2 summed over {grid.n_cells} cells overflows"
            )
        if self.constrained:
            lo, hi = self.alpha * grid.area, self.beta * grid.area
            if not lo < self.mass < hi:
                raise ValueError(
                    f"mass target {self.mass} must lie strictly inside ({lo}, {hi})"
                )


@dataclass
class ConvergenceRecord:
    """Snapshot of one accepted iterate.

    `step_eps` is the step scale accepted when leaving this iterate, 0.0 for
    the final record. `stationarity` is integral eta*(g-gamma)^2 at the base
    step scale; it tends to zero at a constrained stationary point.
    """

    iter: int
    cost: float
    penalized_cost: float
    mass: float
    gamma: float
    step_eps: float
    stationarity: float


@dataclass
class RunResult:
    density: DensityField
    history: list[ConvergenceRecord]
    stop_reason: str  # converged | stagnated | max_iters
    solutions: list[ScenarioSolution]


def barrier_eta(a: DensityField, eps: float, alpha: float, beta: float) -> np.ndarray:
    """Multiplicative step weight eps*(a-alpha)*(beta-a), zero at the bounds."""
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return eps * (a.values - alpha) * (beta - a.values)


def multiplier_gamma(a: DensityField, g: np.ndarray, eta: np.ndarray, m: float) -> float:
    """Multiplier making the barrier-weighted update mass-neutral.

    gamma = [ (mass(a) - m) + integral eta*g ] / integral eta. Raises when the
    barrier has vanished everywhere (design pinned at the bounds).
    """
    total = integrate_cells(a.grid, eta)
    if total <= DEGENERATE_ETA:
        raise ValueError(
            "degenerate design: barrier weight vanishes everywhere, "
            "all cells are pinned at the phase bounds"
        )
    return ((a.mass() - m) + integrate_cells(a.grid, eta * g)) / total


def _repair_mass(
    values: np.ndarray, alpha: float, beta: float, m: float, area: float
) -> np.ndarray | None:
    """Redistribute the post-clamp mass defect over unsaturated cells.

    The correction is proportional to the barrier capacity (v-alpha)*(beta-v),
    so saturated cells stay put. Returns None when the defect cannot be
    absorbed (design effectively saturated); the caller then rejects the step.
    """
    v = values
    tol = MASS_REL_TOL * abs(m)
    for _ in range(60):
        defect = m - float(np.sum(v)) * area
        if abs(defect) <= 0.5 * tol:
            return v
        w = (v - alpha) * (beta - v)
        w_total = float(np.sum(w)) * area
        if w_total <= 1e-300:
            return None
        v = np.clip(v + defect * (w / w_total), alpha, beta)
    return v if abs(m - float(np.sum(v)) * area) <= tol else None


def update(
    a: DensityField,
    g: np.ndarray,
    cfg: OptimizerConfig,
    evaluate: Callable[[DensityField], float],
    current_value: float,
) -> tuple[DensityField, float, float]:
    """One backtracked descent step.

    `evaluate` must return the merit value of a trial density (it is expected
    to run the scenario solves; an infinite value rejects the trial). Halves the step scale up to MAX_HALVINGS
    times until the merit strictly decreases. Returns (new density, multiplier
    used, accepted eps); accepted eps 0.0 signals stagnation, with the
    original density returned unchanged.
    """
    gamma = cfg.gamma_pen if not cfg.constrained else 0.0
    for halving in range(MAX_HALVINGS + 1):
        eps_try = cfg.eps * 0.5**halving
        eta = barrier_eta(a, eps_try, cfg.alpha, cfg.beta)
        if cfg.constrained:
            try:
                gamma = multiplier_gamma(a, g, eta, cfg.mass)
            except ValueError:
                break  # barrier numerically gone at this scale
        trial = np.clip(a.values + eta * (g - gamma), cfg.alpha, cfg.beta)
        if cfg.constrained:
            repaired = _repair_mass(
                trial, cfg.alpha, cfg.beta, cfg.mass, a.grid.cell_area
            )
            if repaired is None:
                continue
            trial = repaired
        trial_field = DensityField(a.grid, trial)
        if evaluate(trial_field) < current_value:
            return trial_field, gamma, eps_try
    return a, gamma, 0.0


def run(
    cfg: OptimizerConfig,
    sset: ScenarioSet,
    kind: Objective,
    a0: DensityField | None = None,
) -> RunResult:
    """Full descent loop.

    Starts from a0 (default: the uniform density meeting the mass target) and
    iterates until the merit decrease falls below eps1 times the initial merit
    magnitude, until no decreasing step exists (stagnation), or until
    max_iters. A constrained design saturated at the phase bounds cannot move
    and counts as converged. In constrained mode the merit is the plain cost:
    the mass term of the penalized functional is constant on the mass manifold
    the iterates stay on, so the recorded penalized cost equals the cost. In
    penalized mode the merit is cost + gamma_pen * mass.
    """
    grid = sset.grid
    cfg.check_grid(grid)
    if a0 is None:
        if cfg.constrained:
            a = DensityField.constant(grid, cfg.mass / grid.area)
        else:
            a = DensityField.constant(grid, 0.5 * (cfg.alpha + cfg.beta))
    else:
        if not np.all((a0.values >= cfg.alpha) & (a0.values <= cfg.beta)):
            raise ValueError("initial density violates the phase bounds")
        a = a0.copy()

    def solve(
        field: DensityField, warm: list[np.ndarray] | None = None
    ) -> tuple[list[ScenarioSolution], float, float]:
        """States, cost and merit of a density."""
        s = solve_state(field, sset, tol=SOLVE_TOL, warm_starts=warm)
        c = cost(field, s, kind)
        return s, c, c if cfg.constrained else c + cfg.gamma_pen * field.mass()

    def evaluate(field: DensityField) -> float:
        """Merit of a trial density; keeps its solve in `trial` for acceptance."""
        nonlocal trial
        try:
            trial = solve(field, warm)
        except RuntimeError:
            return np.inf  # CG failed on this trial: reject it, the step is halved
        return trial[2]

    sols, cost_now, merit_now = trial = solve(a)
    merit_scale = abs(merit_now)
    history: list[ConvergenceRecord] = []
    converged = False
    for k in range(cfg.max_iters + 1):
        g = gradient_density(sols, kind)
        eta = barrier_eta(a, cfg.eps, cfg.alpha, cfg.beta)
        saturated = False
        if cfg.constrained:
            try:
                gamma = multiplier_gamma(a, g, eta, cfg.mass)
            except ValueError:
                gamma, saturated = 0.0, True
        else:
            gamma = cfg.gamma_pen
        stationarity = integrate_cells(grid, eta * (g - gamma) ** 2)

        step_eps, stop_reason = 0.0, None
        if converged:
            stop_reason = "converged"
        elif k == cfg.max_iters:
            stop_reason = "max_iters"
        elif saturated:
            stop_reason = "converged"  # every cell sits at a bound: nothing can move
        else:
            warm = [s.u.interior() for s in sols]
            a_next, gamma_step, step_eps = update(a, g, cfg, evaluate, merit_now)
            if step_eps == 0.0:
                stop_reason = "stagnated"
            else:
                gamma = gamma_step
        history.append(
            ConvergenceRecord(k, cost_now, merit_now, a.mass(), gamma, step_eps, stationarity)
        )
        if stop_reason is not None:
            break
        a = a_next
        converged = abs(trial[2] - merit_now) <= cfg.eps1 * merit_scale
        sols, cost_now, merit_now = trial

    return RunResult(a, history, stop_reason, sols)
