import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stodesign.cli import run_cli
from stodesign.fem import DensityField, GridSpec, assemble_stiffness, integrate_cells
from stodesign.gclosure import PhasePair, optimality_residual
from stodesign.mg import coarsenings
from stodesign.objective import Objective, cost, gradient_density
from stodesign import optimizer
from stodesign.optimizer import (
    TRIAL_ITER_FACTOR,
    TRIAL_ITER_FLOOR,
    OptimizerConfig,
    barrier_eta,
    optimality_gap,
    project,
    run,
    update,
)
from stodesign.scenarios import make_case1, make_deterministic
from stodesign.solve import load_basis, solve_state

from oracles import bisect_project, pm_pair_set, property_settings, same_bits


def _grid(n=8):
    return GridSpec(n, n)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(eps=-1.0)
    with pytest.raises(ValueError, match="phase bounds.*alpha = 2.0, beta = 2.0"):
        OptimizerConfig(alpha=2.0, beta=2.0)
    with pytest.raises(ValueError, match="phase bounds.*alpha = 1e-310"):
        OptimizerConfig(alpha=1e-310)


@pytest.mark.parametrize("max_iters", [1e3, 3.0, True, "3"])
def test_max_iters_must_be_an_integer(max_iters):
    # a float or a bool would pass the range check and fail in `run`'s `range`
    with pytest.raises(ValueError, match=r"^max_iters must be an integer of at least 1, got "):
        OptimizerConfig(max_iters=max_iters)


@pytest.mark.parametrize(
    "alpha, beta, mass, eps",
    [(1e-300, 1e300, 1.0, 64.0), (1.0, 1e200, 1.5, 1e-300), (1.0, 2.0, 1.5, 1e308)],
)
def test_overflowing_barrier_rejected(alpha, beta, mass, eps):
    cfg = OptimizerConfig(alpha=alpha, beta=beta, mass=mass, eps=eps)
    with pytest.raises(ValueError, match="too wide"):
        cfg.check_grid(_grid())


def test_mass_target_inside_range():
    with pytest.raises(ValueError, match="mass target"):
        OptimizerConfig(mass=2.5)  # beta*|D| = 2 on the unit square


def test_barrier_values():
    g = _grid()
    assert np.all(barrier_eta(DensityField.constant(g, 1.0), 0.1, 1.0, 2.0) == 0.0)
    assert np.all(barrier_eta(DensityField.constant(g, 2.0), 0.1, 1.0, 2.0) == 0.0)
    eta = barrier_eta(DensityField.constant(g, 1.5), 0.1, 1.0, 2.0)
    assert np.allclose(eta, 0.025, rtol=0, atol=1e-16)
    eta = barrier_eta(DensityField.constant(g, 2.0), 0.1, 1.0, 5.0)  # divided by the span 4
    assert np.allclose(eta, 0.075, rtol=1e-15, atol=0)


def test_barrier_rejects_negative_step_scale():
    with pytest.raises(ValueError, match="eps must be nonnegative"):
        barrier_eta(DensityField.constant(_grid(), 1.5), -1e-300, 1.0, 2.0)


def test_multiplier_trivial_cases():
    g = _grid()
    a = DensityField.constant(g, 1.5)  # mass 1.5 on the unit square
    eta = barrier_eta(a, 0.1, 1.0, 2.0)
    zero_g = np.zeros(g.n_cells)
    assert project(a, zero_g, eta, 1.5, 1.0, 2.0)[1] == pytest.approx(0.0, abs=1e-14)
    ones_g = np.ones(g.n_cells)
    assert project(a, ones_g, eta, 1.5, 1.0, 2.0)[1] == pytest.approx(1.0, rel=1e-13)


def test_multiplier_degenerate_design():
    g = _grid()
    a = DensityField.constant(g, 1.0)  # pinned at alpha, eta vanishes
    eta = barrier_eta(a, 0.1, 1.0, 2.0)
    assert project(a, np.ones(g.n_cells), eta, 1.5, 1.0, 2.0) is None


def test_project_mass_reach():
    # every moving cell at beta is the most mass a step can reach, at alpha the least
    g = _grid()
    a = DensityField.constant(g, 1.5)
    eta = barrier_eta(a, 0.1, 1.0, 2.0)
    for gd in (np.linspace(-1.0, 1.0, g.n_cells), np.zeros(g.n_cells)):  # distinct, equal kinks
        for m in (1.0, 2.0):
            out, _ = project(a, gd, eta, m, 1.0, 2.0)
            assert np.allclose(out.values, m, rtol=0.0, atol=1e-15)
        assert project(a, gd, eta, 1.0 - 1e-9, 1.0, 2.0) is None
        assert project(a, gd, eta, 2.0 + 1e-9, 1.0, 2.0) is None


def test_preclamp_mass_identity():
    # substituting the multiplier makes the update mass-neutral before clamping
    g = _grid()
    rng = np.random.default_rng(17)
    a = DensityField(g, rng.uniform(1.05, 1.95, g.n_cells))
    m = a.mass()
    gd = rng.standard_normal(g.n_cells)
    eta = barrier_eta(a, 0.2, 1.0, 2.0)
    _, gamma = project(a, gd, eta, m, 1.0, 2.0)
    updated = a.values + eta * (gd - gamma)
    assert integrate_cells(g, updated) == pytest.approx(m, abs=1e-13)


@property_settings(100)
@given(data=st.data())
def test_project_is_exact_property(data):
    # random small grids and bounds, densities in [alpha, beta] with some cells
    # pinned at a bound, and mass targets anywhere the moving cells can reach
    g = GridSpec(data.draw(st.integers(2, 9)), data.draw(st.integers(2, 9)))
    alpha = data.draw(st.floats(0.1, 10.0))
    beta = alpha * data.draw(st.floats(1.01, 100.0))
    t = data.draw(arrays(float, g.n_cells, elements=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
    values = np.clip(alpha + t * (beta - alpha), alpha, beta)
    values[t == 1.0] = beta
    a = DensityField(g, values)
    gd = data.draw(arrays(float, g.n_cells, elements=st.floats(-10.0, 10.0)))
    eta = barrier_eta(a, 10.0 ** data.draw(st.floats(-3.0, 4.0)), alpha, beta)
    moving = eta > 0.0
    reach_up = integrate_cells(g, np.where(moving, beta - values, 0.0))
    reach_down = integrate_cells(g, np.where(moving, values - alpha, 0.0))
    shift = data.draw(st.just(0.0) | st.floats(-0.99, 0.99))
    m = a.mass() + shift * (reach_up if shift > 0.0 else reach_down)

    projected = project(a, gd, eta, m, alpha, beta)
    assert _same_projection(projected, bisect_project(a, gd, eta, m, alpha, beta))
    if not moving.any():
        assert projected is None
        return
    out, gamma = projected
    assert np.all((out.values >= alpha) & (out.values <= beta))
    # gamma is one float, and each of its ulps moves the mass by the integral of
    # eta over the inner cells: no gamma hits m closer than a few of those
    inner = moving & (out.values > alpha) & (out.values < beta)
    gamma_ulp_mass = integrate_cells(g, np.where(inner, eta, 0.0)) * np.spacing(abs(gamma))
    assert abs(out.mass() - m) <= 1e-13 * m + 8.0 * gamma_ulp_mass
    assert np.array_equal(out.values[~moving], values[~moving])
    unclamped = values + eta * (gd - gamma)
    if np.all((unclamped >= alpha) & (unclamped <= beta)):
        expected = ((a.mass() - m) + integrate_cells(g, eta * gd)) / integrate_cells(g, eta)
        assert gamma == pytest.approx(expected, rel=1e-12)


def _same_projection(got, want) -> bool:
    """Both None, or the same density and multiplier bit for bit."""
    if got is None or want is None:
        return got is want
    same_gamma = same_bits(np.float64(got[1]), np.float64(want[1]))
    return same_gamma and same_bits(got[0].values, want[0].values)


def _project_as_bisection(a, gd, eta, m, alpha, beta):
    """project from every start gives the bisection oracle's result; returns it."""
    want = bisect_project(a, gd, eta, m, alpha, beta)
    starts = [0.0, 1e300, -1e300] + ([] if want is None else [want[1]])
    for start in starts:
        assert _same_projection(project(a, gd, eta, m, alpha, beta, start), want), start
    return want


def _kink_masses(a, gd, eta, alpha, beta):
    """The mass of the step at each kink of the moving cells, least kink first."""
    moving = eta > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        kinks = np.sort(np.concatenate([
            gd[moving] - (beta - a.values[moving]) / eta[moving],
            gd[moving] + (a.values[moving] - alpha) / eta[moving],
        ]))
        steps = [np.where(moving, eta * (gd - k), 0.0) for k in kinks]
    return [integrate_cells(a.grid, np.clip(a.values + s, alpha, beta)) for s in steps]


def test_project_matches_bisection_on_random_inputs():
    # random grids, bounds, pinned cells, step scales and mass targets, among
    # them the mass at a kink itself and targets just out of reach
    rng = np.random.default_rng(12)
    nones = 0
    for _ in range(150):
        g = GridSpec(*rng.integers(2, 13, size=2))
        alpha = 10.0 ** rng.uniform(-2.0, 2.0)
        beta = alpha * 10.0 ** rng.uniform(0.01, 3.0)
        t = np.clip(rng.uniform(-0.25, 1.25, g.n_cells), 0.0, 1.0)  # a sixth at each bound
        a = DensityField(g, np.clip(alpha + t * (beta - alpha), alpha, beta))
        gd = rng.standard_normal(g.n_cells) * 10.0 ** rng.uniform(-3.0, 3.0)
        eta = barrier_eta(a, 10.0 ** rng.uniform(-3.0, 4.0), alpha, beta)
        masses = _kink_masses(a, gd, eta, alpha, beta) or [a.mass()]
        m = float(rng.choice([
            rng.uniform(min(masses), max(masses)),
            rng.choice(masses),
            max(masses) * (1.0 + 1e-12),
            min(masses) * (1.0 - 1e-12),
        ]))
        nones += _project_as_bisection(a, gd, eta, m, alpha, beta) is None
    assert 0 < nones < 150


@pytest.mark.parametrize(
    "case",
    ["pinned", "top", "bottom", "above-top", "below-bottom", "duplicate", "subnormal", "subnormal-pinned"],
)
def test_project_matches_bisection_on_degenerate_inputs(case):
    # unless named otherwise, every fourth cell sits at alpha and every fourth
    # at beta, where eta = 0, and m is the density's own mass
    g = _grid()
    rng = np.random.default_rng(5)
    values = rng.uniform(1.05, 1.95, g.n_cells)
    if case != "subnormal":
        values[::4], values[1::4] = 1.0, 2.0
    gd = rng.standard_normal(g.n_cells)
    if case == "duplicate":  # every cell shares its two kinks with the next
        values, gd = np.repeat(values[::2], 2), np.repeat(gd[::2], 2)
    a = DensityField(g, values)
    eta = barrier_eta(a, 0.5, 1.0, 2.0)
    if case.startswith("subnormal"):  # a quotient overflows: kinks at +-inf
        eta[2::4] = 5e-324
    masses = _kink_masses(a, gd, eta, 1.0, 2.0)
    m = {
        "top": masses[0],  # every moving cell at beta: the least kink's mass is m
        "bottom": masses[-1],  # every moving cell at alpha
        "above-top": masses[0] * (1.0 + 1e-12),
        "below-bottom": masses[-1] * (1.0 - 1e-12),
    }.get(case, a.mass())
    want = _project_as_bisection(a, gd, eta, m, 1.0, 2.0)
    assert (want is None) == case.endswith(("-top", "-bottom"))


def test_project_matches_bisection_on_pieces_with_no_inner_cell():
    # two groups of cells whose kinks leave a gap in which every cell is
    # clamped, the first at alpha and the second at beta, and m the mass
    # there: at its ends a step rounds off its bound, so m can fall between
    # two kinks of the gap, where no cell is inner and gamma is the lower one
    g = _grid()
    flat = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a = DensityField(g, rng.uniform(1.1, 1.9, g.n_cells))
        eta = rng.uniform(0.1, 1.0, g.n_cells)
        half = g.n_cells // 2
        gd = np.repeat([0.0, 10.0], half) + rng.uniform(-0.1, 0.1, g.n_cells)
        m = integrate_cells(g, np.clip(a.values + eta * (gd - 5.0), 1.0, 2.0))
        _, gamma = _project_as_bisection(a, gd, eta, m, 1.0, 2.0)
        to_beta, to_alpha = gd - (2.0 - a.values) / eta, gd + (a.values - 1.0) / eta
        flat += gamma == to_alpha[:half].max() and gamma < to_beta[half:].min()
    assert flat >= 1


def test_penalized_descent_derivative_identity():
    # moving along eta*(g - gamma) changes the penalized cost at rate
    # -integral eta*(g - gamma)^2, to first order
    g = GridSpec(8, 8)
    sset = make_deterministic(g, np.ones(g.n_cells))
    a = DensityField.constant(g, 1.5)
    kind = Objective.COMPLIANCE
    s = solve_state(a, load_basis(sset), tol=1e-12)
    gd = gradient_density(s, kind)
    eta = barrier_eta(a, 0.1, 1.0, 2.0)
    _, gamma = project(a, gd, eta, a.mass(), 1.0, 2.0)
    direction = eta * (gd - gamma)
    expected_rate = -integrate_cells(g, eta * (gd - gamma) ** 2)
    assert expected_rate <= 0.0

    def penalized(field):
        s = solve_state(field, load_basis(sset), tol=1e-12)
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


def test_update_stops_halving_once_nothing_can_move(monkeypatch):
    # eps = 1e-320 turns eta to 0 in every cell after a few halvings: update
    # stops there, and the run stagnates without a warning
    results = []

    def spy(*args):
        results.append(project(*args))
        return results[-1]

    monkeypatch.setattr(optimizer, "project", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(OptimizerConfig(eps=1e-320), make_case1(GridSpec(16, 16)), Objective.COMPLIANCE)
    assert res.stop_reason == "stagnated"
    assert results[-1] is None and len(results) < optimizer.MAX_HALVINGS


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
    assert abs(a_new.mass() - m) <= 1e-13 * m


def test_run_saturated_design_declares_convergence(monkeypatch):
    # a huge step scale drives every cell to a bound in one step; there the
    # barrier is zero everywhere and nothing can move. Which cells land on a
    # bound hangs on the gradient's last digits: with iterates solved to
    # 1e-6, 2 of the 256 cells land inside and the run stagnates, so this run
    # solves its iterates to 1e-10
    monkeypatch.setattr(optimizer, "ITERATE_TOL", 1e-10)
    calls = []

    def spy(*args):
        calls.append(project(*args))
        return calls[-1]

    monkeypatch.setattr(optimizer, "project", spy)
    g = GridSpec(16, 16)
    sset = make_deterministic(g, np.ones(g.n_cells))
    res = run(OptimizerConfig(eps=1e6), sset, Objective.COMPLIANCE)
    assert res.stop_reason == "converged"
    assert len(res.history) == 2
    assert np.all((res.density.values == 1.0) | (res.density.values == 2.0))
    assert [c is None for c in calls] == [False, True]  # iterate 0's step, then iterate 1


def _edge_cases(n: int) -> list[tuple[Objective, dict]]:
    """n cost kinds with phase bounds, step scale and mass, log-uniform over the
    float range, drawn from a fixed seed: the same cases in every run."""
    rng = np.random.default_rng(2010)
    cases = []
    for _ in range(n):
        kind = (Objective.COMPLIANCE, Objective.ENERGY)[rng.integers(2)]
        alpha = 10.0 ** float(rng.uniform(-300, 100))
        beta = alpha * 10.0 ** float(rng.uniform(0, 300))
        eps = 10.0 ** float(rng.uniform(-300, 300))
        mass = alpha + float(rng.random()) * (beta - alpha)  # the unit square's area is 1
        cases.append((kind, {"alpha": alpha, "beta": beta, "mass": mass, "eps": eps}))
    return cases


_EDGE_EXAMPLES = [
    # grad(u).grad(u) overflows in the initial solve
    (Objective.COMPLIANCE, {"alpha": 1e-200, "beta": 1e-156, "mass": 5e-157, "eps": 64.0}),
    # CG's curvature p.Kp overflows in a backtracking trial
    (
        Objective.COMPLIANCE,
        {
            "alpha": 4.6141420726839634e-237,
            "beta": 3.21216822443908e-52,
            "mass": 1.63173803611735e-53,
            "eps": 3.6571470571898835e-98,
        },
    ),
    # the initial energy density overflows
    (
        Objective.ENERGY,
        {
            "alpha": 2.9585901550409207e-159,
            "beta": 1.1066398638507436e-155,
            "mass": 5e-156,
            "eps": 8.80063882775729e257,
        },
    ),
    # 48 of the 64 final cells sit at beta, and alpha is below beta's last
    # bit: there the laminate gap's (beta - a)/(alpha + beta - a) is 0/0
    # unless beta - a is formed first
    (
        Objective.COMPLIANCE,
        {
            "alpha": 9.698944737069603e-234,
            "beta": 1.3582248192621786e-71,
            "mass": 1.2197162969611238e-71,
            "eps": 4.3430462032249536e-132,
        },
    ),
]


def test_edge_case_sweep_fails_cleanly_or_holds_the_contract():
    for kind, params in _EDGE_EXAMPLES + _edge_cases(400):
        try:
            _edge_case_holds_the_contract(kind, params)
        except Exception as exc:
            raise AssertionError(f"edge case {kind.value} {params}") from exc


def _edge_case_holds_the_contract(kind, params):
    # every case is rejected as a config, stops with an error naming the
    # iterate and beta/alpha, or ends in a finite, feasible history whose
    # laminate residual is finite and non-negative
    g = _grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = OptimizerConfig(max_iters=20, **params)
            cfg.check_grid(g)
        except ValueError:
            return
        try:
            res = run(cfg, make_case1(g), kind)
        except ArithmeticError as exc:
            assert re.search(r"not finite at iterate \d+: the phase contrast beta/alpha = ", str(exc))
            return
        phases = PhasePair(cfg.alpha, cfg.beta)
        residual = optimality_residual(res.density, res.basis, res.states, kind, phases)
    assert np.all(np.isfinite(residual) & (residual >= 0.0))
    for r in res.history:
        assert np.all(np.isfinite([r.cost, r.mass, r.gamma, r.step_eps, r.stationarity]))
        assert abs(r.mass - cfg.mass) <= 1e-10 * cfg.mass
    assert np.all((res.density.values >= cfg.alpha) & (res.density.values <= cfg.beta))


@pytest.mark.parametrize("beta", [1e20, 1e40, 1e80, 1e150])
def test_run_wide_bounds_converges(beta):
    # the barrier is divided by the phase span, so the base step does not grow
    # with beta and backtracking finds a decrease within MAX_HALVINGS
    g = GridSpec(16, 16)
    sset = make_deterministic(g, np.ones(g.n_cells))
    res = run(OptimizerConfig(alpha=1.0, beta=beta, mass=1.5), sset, Objective.COMPLIANCE)
    assert res.stop_reason == "converged"
    assert res.history[-1].cost == pytest.approx(0.019674633, rel=1e-7)


def test_run_zero_load_stagnates_immediately():
    g = _grid()
    sset = make_deterministic(g, np.zeros(g.n_cells))
    res = run(OptimizerConfig(), sset, Objective.COMPLIANCE)
    assert res.stop_reason == "stagnated"
    assert len(res.history) == 1
    assert np.all(res.density.values == 1.5)


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
    c = [r.cost for r in h]
    assert all(b <= a for a, b in zip(c, c[1:]))
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

    def first_trial_fails(K, b, tol, max_iter=None, x0=None, M=None):
        starts.append(x0)
        if len(starts) == len(sset.scenarios) + 1:  # first solve of the first trial
            return np.zeros(K.shape[0]), SolveReport(1, 0.5, False)
        return cg_solve(K, b, tol=tol, max_iter=max_iter, x0=x0, M=M)

    monkeypatch.setattr("stodesign.solve.cg_solve", first_trial_fails)
    cfg = OptimizerConfig(eps1=1e-5)
    res = run(cfg, sset, Objective.COMPLIANCE)
    assert starts[len(sset.scenarios)] is not None  # the failed solve was warm-started
    assert res.stop_reason == "converged"
    assert res.history[0].step_eps == cfg.eps / 2


def test_trial_cost_cross_check_failure_rejects_only_that_trial(monkeypatch):
    # as with a CG failure: a phase contrast too wide for the solve tolerance
    # breaks the cross-check of a trial, not the run
    import stodesign.optimizer

    calls = []

    def second_call_disagrees(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # the first trial
            raise ArithmeticError("load-pairing and stiffness-energy costs disagree")
        return cost(*args, **kwargs)

    monkeypatch.setattr(stodesign.optimizer, "cost", second_call_disagrees)
    cfg = OptimizerConfig(eps1=1e-5)
    res = run(cfg, make_case1(GridSpec(16, 16)), Objective.COMPLIANCE)
    assert res.stop_reason == "converged"
    assert res.history[0].step_eps == cfg.eps / 2


def test_initial_cg_failure_aborts_run(monkeypatch):
    from stodesign.cg import SolveReport

    def stalled(K, b, tol, max_iter=None, x0=None, M=None):
        return np.zeros(K.shape[0]), SolveReport(1, 0.5, False)

    monkeypatch.setattr("stodesign.solve.cg_solve", stalled)
    g = GridSpec(16, 16)
    with pytest.raises(RuntimeError, match=r"^CG did not converge for the mean load f \("):
        run(OptimizerConfig(), make_case1(g), Objective.COMPLIANCE)


def _spy_cg(monkeypatch):
    """Record each state solve's start (copied: the run reuses its buffer), result and report."""
    from stodesign.cg import cg_solve

    calls = []

    def spy(K, b, tol, max_iter=None, x0=None, M=None):
        x, report = cg_solve(K, b, tol=tol, max_iter=max_iter, x0=x0, M=M)
        calls.append((None if x0 is None else np.array(x0), x, report))
        return x, report

    monkeypatch.setattr("stodesign.solve.cg_solve", spy)
    return calls


def test_history_starts_cut_cg_iterations(monkeypatch):
    # case1 37x23 compliance at the defaults: 74 records and 150 solves, the
    # final re-solve's two included, and 834 CG iterations when each load
    # started from its last state alone (600 from the extrapolation
    # 2 x_k - x_(k-1) of its two-state history), both with iterates solved
    # to 1e-6
    calls = _spy_cg(monkeypatch)
    res = run(OptimizerConfig(), make_case1(GridSpec(37, 23)), Objective.COMPLIANCE)
    assert (res.stop_reason, len(res.history), len(calls)) == ("converged", 74, 150)
    assert sum(report.iterations for _, _, report in calls) <= 0.8 * 834


def test_case1_37x23_run_takes_at_most_300_cg_iterations(monkeypatch):
    # solves to ITERATE_TOL = 1e-4 take 234 CG iterations over the whole
    # run, the final 1e-10 solve included; at 1e-6 they took 600
    calls = _spy_cg(monkeypatch)
    run(OptimizerConfig(), make_case1(GridSpec(37, 23)), Objective.COMPLIANCE)
    assert sum(report.iterations for _, _, report in calls) <= 300


def test_rejected_trial_state_never_enters_the_history(monkeypatch):
    costs = []

    def second_call_disagrees(*args, **kwargs):
        costs.append(1)
        if len(costs) == 2:  # the first trial
            raise ArithmeticError("load-pairing and stiffness-energy costs disagree")
        return cost(*args, **kwargs)

    ends = []  # len(calls) when each `update` returned: its last solves are the accepted trial's
    real_update = optimizer.update

    def spy_update(*args):
        out = real_update(*args)
        ends.append(len(calls))
        return out

    monkeypatch.setattr(optimizer, "cost", second_call_disagrees)
    monkeypatch.setattr(optimizer, "update", spy_update)
    calls = _spy_cg(monkeypatch)
    cfg = OptimizerConfig(eps1=1e-5)
    res = run(cfg, make_case1(GridSpec(16, 16)), Objective.COMPLIANCE)
    assert res.stop_reason == "converged" and res.history[0].step_eps == cfg.eps / 2
    assert all(r.step_eps > 0.0 for r in res.history[:-1])  # every `update` accepted
    # two loads per design, solved in turn: calls 0-1 solve the initial design
    # and 2-3 the rejected first trial. Iterate k's trials start from
    # 2 x_k - x_(k-1) of the accepted states, iterate 0's from x_0, and the
    # final solve from the last x_k
    n = 2
    assert [x0 is None for x0, _, _ in calls[:n]] == [True] * n
    bounds = [n, *ends]  # calls[bounds[k]:bounds[k + 1]] solve iterate k's trials
    accepted = [[x for _, x, _ in calls[end - n : end]] for end in bounds]
    rejected = [x for _, x, _ in calls[2:4]]
    assert not any(same_bits(r, x) for r in rejected for xs in accepted for x in xs)
    for k in range(len(ends)):
        for c in range(bounds[k], bounds[k + 1]):
            x_k = accepted[k][c % n]
            start = x_k if k == 0 else 2.0 * x_k - accepted[k - 1][c % n]
            assert same_bits(calls[c][0], start)
    assert len(calls) == bounds[-1] + n
    for (x0, _, _), x_k in zip(calls[-n:], accepted[-1]):
        assert same_bits(x0, x_k)


def test_trial_solve_stops_at_its_cap_and_is_rejected(monkeypatch):
    # at beta/alpha = 1e20 a trial's CG stalls on rounding: it stops at
    # TRIAL_ITER_FLOOR iterations, not at cg_solve's 20n = 980, and the
    # trial is rejected. Every trial's caps follow the accepted iterate's solves
    events = []
    real_solve_state, real_update = optimizer.solve_state, optimizer.update

    def spy_solve(field, basis, tol=1e-10, warm_starts=None, max_iter=None):
        try:
            s = real_solve_state(field, basis, tol, warm_starts, max_iter)
        except RuntimeError as exc:
            events.append(("failed", field.values.copy(), max_iter, str(exc)))
            raise
        events.append(("solved", field.values.copy(), max_iter, s.iterations))
        return s

    def spy_update(*args, **kwargs):
        out = real_update(*args, **kwargs)
        events.append(("accepted", out[0].values.copy(), None, None))
        return out

    monkeypatch.setattr(optimizer, "solve_state", spy_solve)
    monkeypatch.setattr(optimizer, "update", spy_update)
    cfg = OptimizerConfig(alpha=1e-20, beta=1.0, mass=0.5 * (1e-20 + 1.0), max_iters=20)
    res = run(cfg, make_case1(_grid()), Objective.COMPLIANCE)
    assert res.stop_reason == "max_iters"
    for r in res.history:
        assert np.all(np.isfinite([r.cost, r.mass, r.step_eps]))
        assert abs(r.mass - cfg.mass) <= 1e-10 * cfg.mass

    kind, _, caps, iterations = events[0]
    assert kind == "solved" and caps is None
    solved = {}  # density bytes -> iterations of its solve
    accepted_iterations, failed = iterations, []
    for kind, values, caps, result in events:
        if kind == "accepted":
            accepted_iterations = solved[values.tobytes()]
            continue
        if caps is not None:
            assert caps == [max(TRIAL_ITER_FLOOR, TRIAL_ITER_FACTOR * i) for i in accepted_iterations]
        if kind == "solved":
            solved[values.tobytes()] = result
        else:
            failed.append(values)
            assert caps is not None and f"after {TRIAL_ITER_FLOOR} iterations" in result
    assert failed
    accepted = [values for kind, values, _, _ in events if kind == "accepted"]
    assert not any(np.array_equal(f, a) for f in failed for a in accepted)


# a converged, a capped and two stagnated runs: every stop reason ends with the final solve
FINAL_RUNS = pytest.mark.parametrize(
    "sset, kind, cfg, stop_reasons",
    [
        (make_case1(_grid(16)), Objective.COMPLIANCE, OptimizerConfig(eps1=1e-5), ["converged"]),
        (make_case1(_grid(16)), Objective.COMPLIANCE, OptimizerConfig(max_iters=3), ["max_iters"]),
        # at 1e-20 the last free cell may clip to alpha on other builds: converged
        (
            make_deterministic(_grid(16), np.ones(256)),
            Objective.ENERGY,
            OptimizerConfig(alpha=1e-20),
            ["stagnated", "converged"],
        ),
        (
            make_deterministic(_grid(16), np.ones(256)),
            Objective.ENERGY,
            OptimizerConfig(alpha=1e-200),
            ["stagnated"],
        ),
    ],
    ids=["converged", "max-iters", "alpha-1e-20", "stagnated-1e-200"],
)


@FINAL_RUNS
def test_final_states_are_the_last_accepted_solves(monkeypatch, sset, kind, cfg, stop_reasons):
    # the returned states are the last solve of the returned density, the
    # final re-solve: bit for bit its states, stacked in the basis' load order
    solves = []
    real_solve_state = optimizer.solve_state

    def spy_solve(field, *args, **kwargs):
        s = real_solve_state(field, *args, **kwargs)
        solves.append((field, s))
        return s

    monkeypatch.setattr(optimizer, "solve_state", spy_solve)
    res = run(cfg, sset, kind)
    assert res.stop_reason in stop_reasons
    final = [s for field, s in solves if field is res.density][-1]
    assert same_bits(res.states, final.states)
    basis = load_basis(sset)
    for name in ("loads", "coefficients", "weights"):
        assert same_bits(getattr(res.basis, name), getattr(basis, name))


@FINAL_RUNS
def test_only_the_final_design_is_solved_to_1e_10(monkeypatch, sset, kind, cfg, stop_reasons):
    # iterates and trials are solved to ITERATE_TOL; whatever the stop
    # reason, the final design is solved once more to 1e-10, from its own
    # states, and that solve gives the reported cost and states
    from stodesign.cg import cg_solve

    calls = []

    def spy(K, b, tol, max_iter=None, x0=None, M=None):
        calls.append((tol, None if x0 is None else np.ndim(x0)))
        return cg_solve(K, b, tol=tol, max_iter=max_iter, x0=x0, M=M)

    monkeypatch.setattr("stodesign.solve.cg_solve", spy)
    res = run(cfg, sset, kind)
    assert res.stop_reason in stop_reasons
    basis = load_basis(sset)
    n = len(basis.loads)
    assert len(calls) > n and calls[-n:] == [(1e-10, 1)] * n
    assert all(tol == optimizer.ITERATE_TOL for tol, _ in calls[:-n])
    cold = cost(res.density, solve_state(res.density, basis), kind)
    assert res.history[-1].cost == pytest.approx(cold, rel=1e-9, abs=0.0)
    # the returned states solve their loads to 1e-10, up to the drift of the
    # recurrence residual that CG tests from the true one
    K = assemble_stiffness(res.density)
    for x, b in zip(res.states, basis.loads):
        assert np.linalg.norm(K @ x - b) <= 2e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("kind", list(Objective))
def test_iterate_tolerance_resolves_the_cost_below_the_stop_rule(kind):
    # the cost is second order in the solve error, so a solve to ITERATE_TOL
    # reads it a thousand times finer than the default eps1, and the gradient
    # to ITERATE_TOL of its size. Cold, CG's Galerkin property makes the
    # pairing second order too; only the warm starts, the accepted states
    # perturbed by 1e-3, would tell a first-order cost apart
    sset = make_case1(GridSpec(64, 64))
    res = run(OptimizerConfig(max_iters=5), sset, kind)
    exact = solve_state(res.density, res.basis, tol=1e-12)
    c_exact, g_exact = cost(res.density, exact, kind), gradient_density(exact, kind)
    noise = np.random.default_rng(35).standard_normal(res.states.shape)
    perturbed = res.states + 1e-3 * np.abs(res.states).max(axis=1, keepdims=True) * noise
    for warm in (None, perturbed):
        s = solve_state(res.density, res.basis, tol=optimizer.ITERATE_TOL, warm_starts=warm)
        assert abs(cost(res.density, s, kind) - c_exact) <= 1e-3 * OptimizerConfig().eps1 * abs(c_exact)
        g = gradient_density(s, kind)
        assert np.abs(g - g_exact).max() <= optimizer.ITERATE_TOL * np.abs(g_exact).max()


def test_final_solve_cross_check_failure_stops_the_run(monkeypatch):
    # a trial's cross-check failure rejects the trial; the final solve's,
    # checked at 1e-10's bound, stops the run naming that solve
    def final_disagrees(a, s, kind):
        if s.tol < optimizer.ITERATE_TOL:
            raise ArithmeticError("load-pairing and stiffness-energy costs disagree")
        return cost(a, s, kind)

    monkeypatch.setattr(optimizer, "cost", final_disagrees)
    with pytest.raises(ArithmeticError, match=r"^the final solve, of iterate 3: load-pairing"):
        run(OptimizerConfig(max_iters=3), make_case1(_grid(16)), Objective.COMPLIANCE)


def test_trials_hold_no_accepted_solutions_and_no_base_step(monkeypatch):
    # the run holds two states per load, x_k and the extrapolation written
    # over x_(k-1) (at iterate 0, x_0 alone), and `update` forms its own eta
    # for each halving: when the trials start, no earlier solve, no earlier
    # eta and no other solve's states are alive
    refs, states, updates = [], [], []
    real_solve_state, real_barrier_eta, real_update = (
        optimizer.solve_state,
        optimizer.barrier_eta,
        optimizer.update,
    )

    def spy_solve(*args, **kwargs):
        s = real_solve_state(*args, **kwargs)
        refs.append(weakref.ref(s))
        states.append(weakref.ref(s.states))
        return s

    def spy_eta(*args):
        eta = real_barrier_eta(*args)
        refs.append(weakref.ref(eta))
        return eta

    def spy_update(*args):
        assert refs and all(ref() is None for ref in refs)
        assert sum(ref() is not None for ref in states) == min(len(updates) + 1, 2)
        updates.append(1)
        return real_update(*args)

    monkeypatch.setattr(optimizer, "solve_state", spy_solve)
    monkeypatch.setattr(optimizer, "barrier_eta", spy_eta)
    monkeypatch.setattr(optimizer, "update", spy_update)
    res = run(OptimizerConfig(max_iters=3), make_case1(_grid(16)), Objective.COMPLIANCE)
    assert res.stop_reason == "max_iters"


def test_run_peak_memory_holds_each_grid_sized_array_once():
    # each multigrid level stores one transfer, the run holds two states per
    # load through the trials, x_k and the extrapolation written over
    # x_(k-1), and the energies are formed after the stiffness matrix is
    # freed: about 37 interior-node vectors at the peak. A five-state start
    # history makes it 43; a second copy of each transfer and the accepted
    # solutions held through the trials, 57
    g = GridSpec(128, 128)
    sset = make_case1(g)
    coarsenings.cache_clear()  # the run builds its multigrid hierarchy
    tracemalloc.start()
    try:
        run(OptimizerConfig(max_iters=3), sset, Objective.COMPLIANCE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * g.n_interior * np.dtype(float).itemsize


def test_run_holds_no_per_scenario_records():
    # a run returns the 1 + r interior-node basis states of its final solve,
    # not one state, load and energy per scenario: with K = 16 scenarios of rank 3 at 64^2
    # the traced peak is about 46 interior-node vectors; a five-state start
    # history makes it 58, and K records at the end of the run about 100
    g = GridSpec(64, 64)
    sset = pm_pair_set(g, 8, 3, 3)
    coarsenings.cache_clear()  # the run builds its multigrid hierarchy
    tracemalloc.start()
    try:
        res = run(OptimizerConfig(max_iters=3), sset, Objective.COMPLIANCE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * g.n_interior * np.dtype(float).itemsize
    assert res.states.shape == (1 + 3, g.n_interior)


def _brute_force_gap(a, g, cfg):
    """The gap's maximum over every vertex of {alpha <= b <= beta, integral b = mass}:
    each cell at alpha or beta but at most one, which the mass fixes."""
    n, area = g.size, a.grid.cell_area
    best = -np.inf
    for free in range(n):
        others = [c for c in range(n) if c != free]
        for bits in range(2 ** (n - 1)):
            b = np.full(n, cfg.alpha)
            b[[c for i, c in enumerate(others) if bits >> i & 1]] = cfg.beta
            b[free] = cfg.mass / area - (b.sum() - b[free])
            if cfg.alpha - 1e-12 <= b[free] <= cfg.beta + 1e-12:
                best = max(best, area * float(np.sum((b - a.values) * g)))
    return best


@pytest.mark.parametrize("nx, ny", [(3, 3), (2, 4), (2, 2)])
@pytest.mark.parametrize("mass", [1.05, 1.5, 1.9])
def test_optimality_gap_is_the_brute_force_maximum(nx, ny, mass):
    grid = GridSpec(nx, ny)
    rng = np.random.default_rng(nx * ny + int(100 * mass))
    cfg = OptimizerConfig(alpha=1.0, beta=2.0, mass=mass)
    for g in (rng.standard_normal(grid.n_cells), rng.choice([-1.0, 0.5, 2.0], grid.n_cells)):
        a = DensityField(grid, rng.uniform(1.0, 2.0, grid.n_cells))
        want = _brute_force_gap(a, g, cfg)
        assert optimality_gap(a, g, cfg) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_gap_of_a_converged_compliance_run_is_nonnegative(tmp_path):
    # compliance is convex in a: the gap bounds c(a) - c* >= 0, and at a
    # converged design it is small but, up to rounding, not negative
    res = run(OptimizerConfig(), make_case1(GridSpec(16, 16)), Objective.COMPLIANCE)
    assert res.stop_reason == "converged"
    assert -1e-12 <= res.gap_rel < 1e-2
    out = tmp_path / "run"
    assert run_cli(["run", "--preset", "case1", "--nx", "16", "--ny", "16", "--out", str(out)]) == 0
    lines = dict(line.split(" ", 1) for line in (out / "diagnostics.txt").read_text().splitlines())
    assert float(lines["gap_rel"]) == res.gap_rel
