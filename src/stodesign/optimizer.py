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
    to run the scenario solves). Halves the step scale up to MAX_HALVINGS
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
    solve_tol: float = 1e-10,
) -> RunResult:
    """Full descent loop.

    Starts from a0 (default: the uniform density meeting the mass target) and
    iterates until the merit decrease falls below eps1 times the initial merit
    magnitude, until no decreasing step exists (stagnation), or until
    max_iters. In constrained mode the merit is the plain cost: the mass term
    of the penalized functional is constant on the mass manifold the iterates
    stay on, so the recorded penalized cost equals the cost. In penalized mode
    the merit is cost + gamma_pen * mass.
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

    def measure(field: DensityField, sols: list[ScenarioSolution]) -> tuple[float, float]:
        c = cost(field, sols, kind)
        if cfg.constrained:
            return c, c
        return c, c + cfg.gamma_pen * field.mass()

    sols = solve_state(a, sset, tol=solve_tol)
    cost_now, merit_now = measure(a, sols)
    merit_scale = abs(merit_now)

    history: list[ConvergenceRecord] = []
    stop_reason = "max_iters"

    def snapshot(it: int, field, sols_k, cost_k, merit_k, step_eps: float):
        g_k = gradient_density(sols_k, kind)
        eta_b = barrier_eta(field, cfg.eps, cfg.alpha, cfg.beta)
        if cfg.constrained:
            try:
                gam = multiplier_gamma(field, g_k, eta_b, cfg.mass)
            except ValueError:
                gam = 0.0
        else:
            gam = cfg.gamma_pen
        stat = integrate_cells(grid, eta_b * (g_k - gam) ** 2)
        history.append(
            ConvergenceRecord(
                iter=it,
                cost=cost_k,
                penalized_cost=merit_k,
                mass=field.mass(),
                gamma=gam,
                step_eps=step_eps,
                stationarity=stat,
            )
        )
        return g_k

    k = 0
    while k < cfg.max_iters:
        g = snapshot(k, a, sols, cost_now, merit_now, step_eps=0.0)
        rec = history[-1]

        capacity = integrate_cells(grid, (a.values - cfg.alpha) * (cfg.beta - a.values))
        if cfg.constrained and cfg.eps * capacity <= DEGENERATE_ETA:
            # design fully saturated: nothing can move, treat as converged
            stop_reason = "converged"
            break

        warm = [s.u.interior() for s in sols]
        last_trial: dict = {}

        def evaluate(trial: DensityField) -> float:
            tsols = solve_state(trial, sset, tol=solve_tol, warm_starts=warm)
            c, val = measure(trial, tsols)
            last_trial["sols"] = tsols
            last_trial["cost"] = c
            last_trial["merit"] = val
            return val

        a_new, gamma_used, eps_acc = update(a, g, cfg, evaluate, merit_now)
        rec.step_eps = eps_acc
        rec.gamma = gamma_used if eps_acc > 0.0 else rec.gamma
        if eps_acc == 0.0:
            stop_reason = "stagnated"
            break

        a = a_new
        sols = last_trial["sols"]
        merit_prev = merit_now
        cost_now, merit_now = last_trial["cost"], last_trial["merit"]
        k += 1

        if abs(merit_now - merit_prev) <= cfg.eps1 * merit_scale:
            snapshot(k, a, sols, cost_now, merit_now, step_eps=0.0)
            stop_reason = "converged"
            break
    else:
        snapshot(cfg.max_iters, a, sols, cost_now, merit_now, step_eps=0.0)

    return RunResult(a, history, stop_reason, sols)
