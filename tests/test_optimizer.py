import numpy as np
import pytest

from stodesign.fem import DensityField, GridSpec, integrate_cells
from stodesign.objective import Objective, cost
from stodesign.optimizer import (
    OptimizerConfig,
    barrier_eta,
    multiplier_gamma,
    run,
    update,
)
from stodesign.scenarios import make_case1, make_deterministic
from stodesign.solve import solve_state


def _grid(n=8):
    return GridSpec(n, n)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(mass=1.5, gamma_pen=0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(mass=None, gamma_pen=None)
    with pytest.raises(ValueError):
        OptimizerConfig(eps=-1.0)
    cfg = OptimizerConfig(mass=None, gamma_pen=0.5)
    assert not cfg.constrained


@pytest.mark.parametrize(
    "alpha, beta, mass, eps",
    [(1e-300, 1e300, 1.0, 64.0), (1.0, 1e200, 1.5, 1e-300), (1.0, 2.0, 1.5, 1e308)],
)
def test_overflowing_barrier_rejected(alpha, beta, mass, eps):
    cfg = OptimizerConfig(alpha=alpha, beta=beta, mass=mass, eps=eps)
    with pytest.raises(ValueError, match="too wide"):
        cfg.check_grid(_grid())


def test_mass_target_inside_range():
    cfg = OptimizerConfig(mass=2.5)  # beta*|D| = 2 on the unit square
    with pytest.raises(ValueError, match="mass target"):
        cfg.check_grid(_grid())


def test_barrier_values():
    g = _grid()
    assert np.all(barrier_eta(DensityField.constant(g, 1.0), 0.1, 1.0, 2.0) == 0.0)
    assert np.all(barrier_eta(DensityField.constant(g, 2.0), 0.1, 1.0, 2.0) == 0.0)
    eta = barrier_eta(DensityField.constant(g, 1.5), 0.1, 1.0, 2.0)
    assert np.allclose(eta, 0.025, rtol=0, atol=1e-16)


def test_multiplier_trivial_cases():
    g = _grid()
    a = DensityField.constant(g, 1.5)  # mass 1.5 on the unit square
    eta = barrier_eta(a, 0.1, 1.0, 2.0)
    zero_g = np.zeros(g.n_cells)
    assert multiplier_gamma(a, zero_g, eta, 1.5) == pytest.approx(0.0, abs=1e-14)
    ones_g = np.ones(g.n_cells)
    assert multiplier_gamma(a, ones_g, eta, 1.5) == pytest.approx(1.0, rel=1e-13)


def test_multiplier_degenerate_design():
    g = _grid()
    a = DensityField.constant(g, 1.0)  # pinned at alpha, eta vanishes
    eta = barrier_eta(a, 0.1, 1.0, 2.0)
    with pytest.raises(ValueError, match="degenerate"):
        multiplier_gamma(a, np.ones(g.n_cells), eta, 1.5)


def test_preclamp_mass_identity():
    # substituting the multiplier makes the update mass-neutral before clamping
    g = _grid()
    rng = np.random.default_rng(17)
    a = DensityField(g, rng.uniform(1.05, 1.95, g.n_cells))
    m = a.mass()
    gd = rng.standard_normal(g.n_cells)
    eta = barrier_eta(a, 0.2, 1.0, 2.0)
    gamma = multiplier_gamma(a, gd, eta, m)
    updated = a.values + eta * (gd - gamma)
    assert integrate_cells(g, updated) == pytest.approx(m, abs=1e-13)


def test_penalized_descent_derivative_identity():
    # moving along eta*(g - gamma) changes the penalized cost at rate
    # -integral eta*(g - gamma)^2, to first order
    g = GridSpec(8, 8)
    sset = make_deterministic(g, np.ones(g.n_cells))
    a = DensityField.constant(g, 1.5)
    kind = Objective.COMPLIANCE
    sols = solve_state(a, sset, tol=1e-12)
    from stodesign.objective import gradient_density

    gd = gradient_density(sols, kind)
    eta = barrier_eta(a, 0.1, 1.0, 2.0)
    gamma = multiplier_gamma(a, gd, eta, a.mass())
    direction = eta * (gd - gamma)
    expected_rate = -integrate_cells(g, eta * (gd - gamma) ** 2)
    assert expected_rate <= 0.0

    def penalized(field):
        s = solve_state(field, sset, tol=1e-12)
        return cost(field, s, kind) + gamma * field.mass()

    step = 1e-6
    plus = DensityField(g, a.values + step * direction)
    minus = DensityField(g, a.values - step * direction)
    fd_rate = (penalized(plus) - penalized(minus)) / (2 * step)
    assert fd_rate == pytest.approx(expected_rate, rel=1e-4)


def test_update_fixed_point_stagnates():
    g = _grid()
    a = DensityField.constant(g, 1.5)
    gd = np.full(g.n_cells, 0.3)
    cfg = OptimizerConfig(eps=1.0)
    calls = []

    def evaluate(field):
        calls.append(field)
        return 1.0  # equal to current, never a strict decrease

    a_new, gamma, eps_acc = update(a, gd, cfg, evaluate, 1.0)
    assert eps_acc == 0.0
    assert a_new is a
    assert gamma == pytest.approx(0.3, rel=1e-13)


def test_update_moves_only_unpinned_cell():
    g = _grid(4)
    values = np.full(g.n_cells, 2.0)
    values[5] = 1.5
    a = DensityField(g, values)
    m = a.mass()
    gd = np.linspace(0.0, 1.0, g.n_cells)
    cfg = OptimizerConfig(eps=0.5, mass=m)
    a_new, gamma, eps_acc = update(a, gd, cfg, lambda f: -1.0, 0.0)
    assert eps_acc == cfg.eps
    moved = np.nonzero(a_new.values != a.values)[0]
    assert list(moved) <= [5]


def test_update_conserves_mass_under_clamping():
    g = _grid()
    rng = np.random.default_rng(23)
    a = DensityField(g, rng.uniform(1.0, 2.0, g.n_cells))
    m = a.mass()
    gd = 5.0 * rng.standard_normal(g.n_cells)
    cfg = OptimizerConfig(eps=10.0, mass=m)  # aggressive step forces saturation
    a_new, _, eps_acc = update(a, gd, cfg, lambda f: -1.0, 0.0)
    assert eps_acc > 0.0
    assert np.all(a_new.values >= cfg.alpha) and np.all(a_new.values <= cfg.beta)
    assert abs(a_new.mass() - m) <= 1e-10 * m


def test_run_saturated_design_declares_convergence():
    # a bang-bang initial design has zero barrier everywhere: nothing can move
    g = _grid()
    values = np.where(np.arange(g.n_cells) % 2 == 0, 1.0, 2.0)
    a0 = DensityField(g, values.astype(float))
    sset = make_deterministic(g, np.ones(g.n_cells))
    res = run(OptimizerConfig(mass=a0.mass()), sset, Objective.COMPLIANCE, a0=a0)
    assert res.stop_reason == "converged"
    assert len(res.history) == 1
    assert np.array_equal(res.density.values, a0.values)


def test_run_zero_load_stagnates_immediately():
    g = _grid()
    sset = make_deterministic(g, np.zeros(g.n_cells))
    res = run(OptimizerConfig(), sset, Objective.COMPLIANCE)
    assert res.stop_reason == "stagnated"
    assert len(res.history) == 1
    assert np.all(res.density.values == 1.5)


def test_run_invalid_a0_rejected():
    g = _grid()
    sset = make_deterministic(g, np.ones(g.n_cells))
    bad = DensityField.constant(g, 2.5)
    with pytest.raises(ValueError, match="bounds"):
        run(OptimizerConfig(), sset, Objective.COMPLIANCE, a0=bad)


def test_run_nan_a0_rejected_before_any_solve():
    g = _grid()
    sset = make_deterministic(g, np.ones(g.n_cells))
    bad = DensityField.constant(g, 1.5)
    bad.values[3] = np.nan
    with pytest.raises(ValueError, match="bounds"):
        run(OptimizerConfig(), sset, Objective.COMPLIANCE, a0=bad)


def _small_run(kind=Objective.COMPLIANCE, sset=None, **kw):
    g = GridSpec(16, 16)
    if sset is None:
        sset = make_deterministic(g, np.ones(g.n_cells))
    cfg = OptimizerConfig(eps=64.0, eps1=1e-5, **kw)
    return run(cfg, sset, kind), cfg


def test_run_invariants_constrained():
    res, cfg = _small_run()
    h = res.history
    assert res.stop_reason == "converged"
    for rec in h:
        assert abs(rec.mass - 1.5) <= 1e-10 * 1.5
    pc = [r.penalized_cost for r in h]
    assert all(b <= a for a, b in zip(pc, pc[1:]))
    assert np.all(res.density.values >= cfg.alpha - 1e-15)
    assert np.all(res.density.values <= cfg.beta + 1e-15)
    assert h[-1].stationarity < h[0].stationarity


def test_run_rotation_equivariance():
    res, _ = _small_run()
    g = res.density.grid
    arr = res.density.values.reshape(g.ny, g.nx)
    assert integrate_cells(g, np.abs(arr - np.rot90(arr)).ravel()) <= 1e-9 * 1.5


def test_run_case1_converges():
    g = GridSpec(16, 16)
    res, cfg = _small_run(sset=make_case1(g))
    assert res.stop_reason == "converged"
    assert abs(res.history[-1].mass - 1.5) <= 1e-10 * 1.5


def test_run_penalized_mode():
    g = GridSpec(16, 16)
    sset = make_deterministic(g, np.ones(g.n_cells))
    cfg = OptimizerConfig(mass=None, gamma_pen=0.02, eps=64.0, eps1=1e-5)
    res = run(cfg, sset, Objective.COMPLIANCE)
    h = res.history
    pc = [r.penalized_cost for r in h]
    assert all(b <= a for a, b in zip(pc, pc[1:]))
    for rec in h:
        assert rec.gamma == 0.02
        assert rec.penalized_cost == pytest.approx(rec.cost + 0.02 * rec.mass, rel=1e-12)
    # mass is free to move in penalized mode
    assert h[-1].mass != pytest.approx(h[0].mass, abs=1e-6)


def test_history_step_eps_bookkeeping():
    res, cfg = _small_run()
    h = res.history
    assert h[-1].step_eps == 0.0
    for rec in h[:-1]:
        assert rec.step_eps > 0.0
        assert rec.step_eps <= cfg.eps


def test_record_gamma_is_accepted_multiplier(monkeypatch):
    import stodesign.optimizer

    returned = []

    def spy(*args):
        result = update(*args)
        returned.append(result[1])
        return result

    monkeypatch.setattr(stodesign.optimizer, "update", spy)
    g = GridSpec(16, 16)
    res, _ = _small_run(sset=make_case1(g))
    h = res.history
    assert res.stop_reason == "converged"
    assert len(returned) == len(h) - 1
    assert [r.gamma.hex() for r in h[:-1]] == [float(x).hex() for x in returned]


def test_max_iters_records_every_iterate():
    g = GridSpec(16, 16)
    res = run(OptimizerConfig(max_iters=3), make_case1(g), Objective.COMPLIANCE)
    assert res.stop_reason == "max_iters"
    assert [r.iter for r in res.history] == [0, 1, 2, 3]
    assert res.history[-1].step_eps == 0.0
    assert all(r.step_eps > 0.0 for r in res.history[:-1])


def test_trial_cg_failure_rejects_only_that_trial(monkeypatch):
    from stodesign.cg import SolveReport, cg_solve

    g = GridSpec(16, 16)
    sset = make_case1(g)
    starts = []

    def first_trial_fails(K, b, tol, x0=None):
        starts.append(x0)
        if len(starts) == len(sset.scenarios) + 1:  # first solve of the first trial
            return np.zeros(K.shape[0]), SolveReport(1, 0.5, False)
        return cg_solve(K, b, tol=tol, x0=x0)

    monkeypatch.setattr("stodesign.solve.cg_solve", first_trial_fails)
    cfg = OptimizerConfig(eps1=1e-5)
    res = run(cfg, sset, Objective.COMPLIANCE)
    assert starts[len(sset.scenarios)] is not None  # the failed solve was warm-started
    assert res.stop_reason == "converged"
    assert res.history[0].step_eps == cfg.eps / 2


def test_initial_cg_failure_aborts_run(monkeypatch):
    from stodesign.cg import SolveReport

    def stalled(K, b, tol, x0=None):
        return np.zeros(K.shape[0]), SolveReport(1, 0.5, False)

    monkeypatch.setattr("stodesign.solve.cg_solve", stalled)
    g = GridSpec(16, 16)
    with pytest.raises(RuntimeError, match="scenario 0"):
        run(OptimizerConfig(), make_case1(g), Objective.COMPLIANCE)
