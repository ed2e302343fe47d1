"""Projected gradient descent on the coefficient field.

Each iteration solves the 1 + r loads of a `LoadBasis`, forms the gradient g
and moves a_new = clip(a + eta * (g - gamma), alpha, beta) with the barrier
factor eta = eps * (a - alpha) * (beta - a) / (beta - alpha), which vanishes
at the phase bounds, and gamma the exact root of the mass equation
integral a_new = m (`project`). The step scale eps is halved until the cost
decreases.

Iterates and trials are solved to the relative residual ITERATE_TOL, which
moves a cost far less than the stop rule's eps1 resolves. The final design
is solved once more, to `solve_state`'s default of 1e-10, and the reported
cost and basis states are that solve's (inexact gradients in projected methods:
Birgin, Martinez & Raydan, IMA J. Numer. Anal. 23, 2003).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem import DensityField, GridSpec, integrate_cells
from .gclosure import PhasePair
from .objective import Objective, cost, gradient_density
from .scenarios import ScenarioSet
from .solve import BasisSolve, LoadBasis, load_basis, solve_state

MAX_HALVINGS = 30
MASS_REL_TOL = 1e-10  # a trial misses the mass target by at most this, relative
ITERATE_TOL = 1e-6  # relative residual of the solves of iterates and trials
# A trial's solve of a load stops after TRIAL_ITER_FACTOR times the CG
# iterations the accepted iterate's solve of that load took, and at least
# TRIAL_ITER_FLOOR: a trial that needs more is rejected, as at extreme contrast
TRIAL_ITER_FACTOR = 4
TRIAL_ITER_FLOOR = 50


@dataclass
class OptimizerConfig:
    """Phase bounds, mass target and loop controls.

    Every iterate holds the integral of a at `mass`. `eps` is the base step
    scale, restarted every iteration and halved by backtracking; `eps1` is the
    relative stopping tolerance on the cost decrease.
    """

    alpha: float = 1.0
    beta: float = 2.0
    mass: float = 1.5
    eps: float = 64.0
    eps1: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.alpha, self.beta, self.eps, self.eps1, self.mass)):
            raise ValueError("alpha, beta, eps, eps1 and mass must be finite")
        PhasePair(self.alpha, self.beta)  # the one phase-bound rule, and its message
        if not self.alpha < self.mass < self.beta:  # the mean of a on the unit square
            raise ValueError(
                f"mass target {self.mass} must lie strictly inside ({self.alpha}, {self.beta})"
            )
        if self.eps <= 0.0 or self.eps1 <= 0.0:
            raise ValueError("eps and eps1 must be positive")
        if type(self.max_iters) is not int or self.max_iters < 1:  # a bool is no count
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")

    def check_grid(self, grid: GridSpec) -> None:
        # barrier_eta forms eps*(a-alpha)*(beta-a), up to eps*(beta-alpha)^2/4,
        # before it divides by beta-alpha: keep that product finite, also summed
        # over the cells. Python floats overflow to inf here without a warning
        span = float(self.beta) - float(self.alpha)
        if not np.isfinite(max(float(self.eps), 1.0) * span * span * grid.n_cells):
            raise ValueError(
                f"phase bounds [{self.alpha}, {self.beta}] are too wide: "
                f"max(eps, 1)*(beta-alpha)^2 summed over {grid.n_cells} cells overflows"
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
    mass: float
    gamma: float
    step_eps: float
    stationarity: float


@dataclass
class RunResult:
    """The final design, its records and stop reason, and the states of its 1e-10 solve."""

    density: DensityField
    history: list[ConvergenceRecord]
    stop_reason: str  # converged | stagnated | max_iters
    basis: LoadBasis
    states: np.ndarray  # (1 + r, n_interior): row i solves basis.loads[i]


def barrier_eta(a: DensityField, eps: float, alpha: float, beta: float) -> np.ndarray:
    """Step weight eps*(a-alpha)*(beta-a)/(beta-alpha), zero at the bounds.

    Dividing by the span keeps the step scale, and so the number of halvings
    that find a decrease, independent of how wide the bounds are.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return eps * (a.values - alpha) * (beta - a.values) / (beta - alpha)


def project(
    a: DensityField,
    g: np.ndarray,
    eta: np.ndarray,
    m: float,
    alpha: float,
    beta: float,
    start: float = 0.0,
) -> tuple[DensityField, float] | None:
    """The barrier step clip(a + eta*(g - gamma), alpha, beta) of mass exactly m.

    Returns the stepped density and gamma, or None when no cell has eta > 0 or
    m is out of the reach of the cells that can move. The mass is piecewise
    linear and nonincreasing in gamma, with kinks where a cell reaches beta
    (gamma = g - (beta-a)/eta) or alpha (gamma = g + (a-alpha)/eta). m lies on
    the piece from lo to hi, hi the least kink whose mass is at most m and lo
    the greatest kink below it, and is solved for there (a continuous
    quadratic knapsack; Brucker, Oper. Res. Lett. 3, 1984).

    hi and lo are found by a safeguarded Newton search from `start`, the
    caller's last gamma (Cominetti, Mascarenhas & Silva, Math. Program.
    Comput. 6, 2014). Each round steps to the root of the linear piece at the
    last kink probed (at `start` first), probes the least undecided kink at or
    above that root, then the undecided neighbour on the side the mass points
    to. A mass of at most m decides every kink above the probed one, a larger
    mass every kink below, so a round whose root lies on m's piece ends the
    search. A round that does not end it is followed by one that probes the
    median undecided kink in place of the root's. `start` sets the number of
    probes, never the result.
    """
    moving = eta > 0.0
    if not moving.any():
        return None
    # cells with eta = 0 get infinite kinks: they never clamp and carry no weight.
    # A subnormal eta overflows a quotient to inf, the same answer: that cell
    # cannot reach the bound at any finite gamma.
    with np.errstate(over="ignore"):
        to_beta = g - np.divide(beta - a.values, eta, out=np.full_like(eta, np.inf), where=moving)
        to_alpha = g + np.divide(a.values - alpha, eta, out=np.full_like(eta, np.inf), where=moving)
    kinks = np.concatenate([to_beta[moving], to_alpha[moving]])

    def step(gamma: float) -> np.ndarray:
        # an overflowing step is +-inf: clipped to its bound. A cell with eta = 0
        # stays put also at an infinite kink, where eta*(g - gamma) is nan
        with np.errstate(over="ignore", invalid="ignore"):
            return np.clip(a.values + np.where(moving, eta * (g - gamma), 0.0), alpha, beta)

    def piece_root(lo: float, hi: float) -> float:
        """The gamma of mass m with the cells of to_beta >= hi at beta, of to_alpha <= lo at alpha.

        lo where no cell is inner: the mass is flat there up to rounding. The
        defect is summed before the inner eta*g, which keeps gamma exact when
        eta*g is tiny next to a.
        """
        at_beta, at_alpha = to_beta >= hi, to_alpha <= lo
        inner = ~(at_beta | at_alpha)
        defect = integrate_cells(a.grid, np.where(at_beta, beta, np.where(at_alpha, alpha, a.values))) - m
        weight = integrate_cells(a.grid, np.where(inner, eta, 0.0))
        if weight > 0.0:
            return (defect + integrate_cells(a.grid, np.where(inner, eta * g, 0.0))) / weight
        return lo

    undecided = kinks
    lo = hi = hi_mass = None

    def probe(k: float) -> bool:
        """Whether the mass at kink k is at most m; decides the kinks on one side of k."""
        nonlocal undecided, lo, hi, hi_mass
        mass = integrate_cells(a.grid, step(k))
        if mass <= m:
            undecided, hi, hi_mass = undecided[undecided < k], k, mass
        else:
            undecided, lo = undecided[undecided > k], k
        return mass <= m

    gamma, newton = start, True
    while undecided.size:
        root = piece_root(gamma, gamma) if newton else np.nan
        if np.isfinite(root):
            above = undecided[undecided >= root]
            gamma = above.min() if above.size else undecided.max()
        else:
            gamma = np.partition(undecided, undecided.size // 2)[undecided.size // 2]
        passes = probe(gamma)
        if undecided.size:
            gamma = undecided.max() if passes else undecided.min()
            probe(gamma)
        newton = not newton
    if hi is None:
        return None  # even the greatest kink's mass is above m
    if lo is None:  # hi is the least kink
        if hi_mass < m:
            return None
        # m is the mass with every moving cell at beta: solve on the first piece
        lo, hi = hi, np.partition(kinks, 1)[1]
    gamma = piece_root(lo, hi)
    return DensityField(a.grid, step(gamma)), float(gamma)


def update(
    a: DensityField,
    g: np.ndarray,
    cfg: OptimizerConfig,
    evaluate: Callable[[DensityField], float],
    current_value: float,
    first: tuple[DensityField, float] | None = None,
) -> tuple[DensityField, float, float]:
    """One backtracked descent step.

    `evaluate` must return the cost of a trial density (it is expected to run
    the scenario solves; an infinite value rejects the trial). Halves the step
    scale up to MAX_HALVINGS times until the cost strictly decreases. A trial
    whose mass misses the target by more than MASS_REL_TOL is rejected
    unevaluated, as when eps*|g| is so large that no float gamma meets the
    mass. `first`, when given, is the first trial and its multiplier:
    `project` at the base step scale, which the caller has already computed.
    Each halving's `project` starts from the last halving's multiplier.
    Returns (new density, multiplier used, accepted eps); accepted eps 0.0
    signals stagnation, with the original density returned unchanged.
    """
    gamma = 0.0
    for halving in range(MAX_HALVINGS + 1):
        eps_try = cfg.eps * 0.5**halving
        if halving == 0 and first is not None:
            trial, gamma = first
        else:
            eta = barrier_eta(a, eps_try, cfg.alpha, cfg.beta)
            projected = project(a, g, eta, cfg.mass, cfg.alpha, cfg.beta, gamma)
            if projected is None:
                break  # nothing can move at this scale or below
            trial, gamma = projected
        if abs(trial.mass() - cfg.mass) > MASS_REL_TOL * cfg.mass:
            continue  # a cell's two kinks rounded to one float: halve
        if evaluate(trial) < current_value:
            return trial, gamma, eps_try
    return a, gamma, 0.0


def run(cfg: OptimizerConfig, sset: ScenarioSet, kind: Objective) -> RunResult:
    """Full descent loop.

    Starts from the uniform density a = mass, which meets the mass target.
    Iterates until the cost decrease falls below eps1 times the initial cost
    magnitude, until no decreasing step exists (stagnation), or until
    max_iters. A design whose cells cannot move toward the mass target, as at
    the phase bounds, counts as converged. Raises ValueError, before any
    solve, for phase bounds too wide for this grid (`check_grid`) and for a
    load whose assembled norm overflows (`load_basis`).

    Raises ArithmeticError, naming the iterate and beta/alpha, when the
    energy density or the stationarity of an iterate is not finite, as a tiny
    alpha or beta makes them. A trial whose solve fails or needs more CG
    iterations than its cap (TRIAL_ITER_FACTOR, TRIAL_ITER_FLOOR), whose
    energy density is not finite or whose cost cross-check fails is rejected
    and the step halved.

    Each load's trials start from the linear extrapolation 2 x_k - x_(k-1) of
    that load's last two accepted states, iterate 0's from x_0 itself;
    rejected trials leave both as they were. The run holds two states per
    load: x_k, and the extrapolation written over x_(k-1).

    Every iterate and trial is solved to ITERATE_TOL. After the loop, whatever
    the stop reason, the final design is solved once more to `solve_state`'s
    default of 1e-10, starting from its own states x_k: that solve gives the
    last record's cost and the returned basis states, and its cost
    cross-check holds at that tolerance's bound. A CG or cross-check failure
    of that solve raises RuntimeError or ArithmeticError naming the final
    solve.
    """
    grid = sset.grid
    cfg.check_grid(grid)
    a = DensityField.constant(grid, cfg.mass)
    basis = load_basis(sset)

    def solve(field: DensityField, **kwargs) -> tuple[BasisSolve, float]:
        """States and cost of a density (`solve_state` with `kwargs`); inf where the energy overflows."""
        s = solve_state(field, basis, **kwargs)
        if not np.isfinite(s.energy).all():
            return s, np.inf
        return s, cost(field, s, kind)

    def evaluate(field: DensityField) -> float:
        """Cost of a trial density; keeps its solve in `trial` for acceptance."""
        nonlocal trial
        trial = None  # a rejected trial's solve is freed before the next one's
        try:
            trial = solve(field, tol=ITERATE_TOL, warm_starts=warm, max_iter=caps)
        except (RuntimeError, ArithmeticError):
            # CG failed or hit its trial cap, or a phase contrast too wide for the
            # solve tolerance broke the cost cross-check: reject the trial, the
            # step is halved
            return np.inf
        return trial[1]  # inf, and so rejected, where the energy overflowed

    def require_finite(name: str, value: np.ndarray | float, k: int) -> None:
        """Stop with an error where a tiny coefficient overflows the arithmetic."""
        if not np.all(np.isfinite(value)):
            raise ArithmeticError(
                f"{name} is not finite at iterate {k}: the phase contrast "
                f"beta/alpha = {cfg.beta / cfg.alpha:.3g} overflows the arithmetic"
            )

    s, cost_now = trial = solve(a, tol=ITERATE_TOL)
    cost_scale = abs(cost_now)
    history: list[ConvergenceRecord] = []
    converged = False
    gamma = 0.0  # each iterate's projection starts from the last record's multiplier
    for k in range(cfg.max_iters + 1):
        require_finite("the energy density", cost_now, k)
        g = gradient_density(s, kind)
        # the trials' starts: 2 x_k - x_(k-1), written over x_(k-1)
        warm = s.states if k == 0 else np.subtract(2.0 * s.states, states, out=states)
        states = s.states
        caps = [max(TRIAL_ITER_FLOOR, TRIAL_ITER_FACTOR * n) for n in s.iterations]
        s = trial = None  # `states` is now the one copy of the accepted states
        eta = barrier_eta(a, cfg.eps, cfg.alpha, cfg.beta)
        projected = project(a, g, eta, cfg.mass, cfg.alpha, cfg.beta, gamma)
        saturated = projected is None
        gamma = 0.0 if saturated else projected[1]
        with np.errstate(over="ignore", invalid="ignore"):
            stationarity = integrate_cells(grid, eta * (g - gamma) ** 2)
        del eta  # `update` forms its own for each halving
        require_finite("the stationarity", stationarity, k)

        step_eps, stop_reason = 0.0, None
        if converged:
            stop_reason = "converged"
        elif k == cfg.max_iters:
            stop_reason = "max_iters"
        elif saturated:
            stop_reason = "converged"  # no cell can move toward the mass
        else:
            a_next, gamma_step, step_eps = update(a, g, cfg, evaluate, cost_now, projected)
            if step_eps == 0.0:
                stop_reason = "stagnated"
            else:
                gamma = gamma_step
        history.append(ConvergenceRecord(k, cost_now, a.mass(), gamma, step_eps, stationarity))
        if stop_reason is not None:
            break
        a = a_next
        converged = abs(trial[1] - cost_now) <= cfg.eps1 * cost_scale
        s, cost_now = trial

    trial = warm = None  # a stagnated run's last rejected trial, and the trials' starts
    try:
        s, cost_now = solve(a, warm_starts=states)
    except (RuntimeError, ArithmeticError) as exc:
        raise type(exc)(f"the final solve, of iterate {k}: {exc}") from None
    require_finite("the final solve's energy density", cost_now, k)
    history[-1].cost = cost_now
    return RunResult(a, history, stop_reason, basis, s.states)
