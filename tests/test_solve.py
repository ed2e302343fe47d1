from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import stodesign.solve as solve_module
from stodesign.fem import DensityField, GridSpec, cell_centers
from stodesign.fem import assemble_load, assemble_stiffness, cell_grad_dot
from stodesign.objective import Objective, cost, gradient_density
from stodesign.scenarios import (
    Scenario,
    ScenarioSet,
    make_case1,
    make_case2,
    make_deterministic,
)
from stodesign.solve import solve_state

from oracles import boundary_node_ids, sample_cells


def _center_node(g: GridSpec) -> int:
    return (g.ny // 2) * (g.nx + 1) + g.nx // 2


def test_manufactured_center_value():
    g = GridSpec(64, 64)
    f = sample_cells(g, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    sols = solve_state(DensityField.constant(g, 1.0), make_deterministic(g, f))
    assert abs(sols[0].u.values[_center_node(g)] - 1.0) < 1e-3


def _poisson_center_series() -> float:
    # eigenfunction expansion of the unit-load solution at the domain center
    total = 0.0
    for m in range(1, 200, 2):
        for n in range(1, 200, 2):
            total += (
                16.0
                / np.pi**4
                * np.sin(m * np.pi / 2)
                * np.sin(n * np.pi / 2)
                / (m * n * (m**2 + n**2))
            )
    return total


def test_unit_load_center_value_vs_series():
    g = GridSpec(128, 128)
    sols = solve_state(DensityField.constant(g, 1.0), make_deterministic(g, np.ones(g.n_cells)))
    oracle = _poisson_center_series()
    assert oracle == pytest.approx(0.07367135, abs=1e-6)
    assert abs(sols[0].u.values[_center_node(g)] - oracle) < 5e-4


def test_zero_load_zero_solution():
    g = GridSpec(8, 8)
    sols = solve_state(DensityField.constant(g, 1.0), make_deterministic(g, np.zeros(g.n_cells)))
    assert np.all(sols[0].u.values == 0.0)


def test_boundary_values_exactly_zero():
    g = GridSpec(16, 16)
    sols = solve_state(DensityField.constant(g, 1.5), make_case1(g))
    for sol in sols:
        assert np.all(sol.u.values[boundary_node_ids(g)] == 0.0)


def test_adjoint_compliance_is_state():
    # compliance is self-adjoint: its gradient is built from p = u
    g = GridSpec(16, 16)
    sols = solve_state(DensityField.constant(g, 1.5), make_case1(g))
    g_comp = gradient_density(sols, Objective.COMPLIANCE)
    expected = np.zeros(g.n_cells)
    for sol in sols:
        expected += sol.weight * cell_grad_dot(sol.u, sol.u)
    assert np.array_equal(g_comp, expected)


def test_adjoint_energy_is_negated_state():
    # the energy adjoint is p = -u, so its gradient is the exact negation
    g = GridSpec(16, 16)
    sols = solve_state(DensityField.constant(g, 1.5), make_case1(g))
    g_comp = gradient_density(sols, Objective.COMPLIANCE)
    g_en = gradient_density(sols, Objective.ENERGY)
    assert np.array_equal(g_en, -g_comp)


def test_compliance_gradient_product_nonnegative():
    g = GridSpec(16, 16)
    sols = solve_state(
        DensityField.constant(g, 1.0),
        make_deterministic(g, np.ones(g.n_cells)),
    )
    assert np.all(gradient_density(sols, Objective.COMPLIANCE) >= 0.0)


def test_linearity_in_load():
    g = GridSpec(16, 16)
    a = DensityField.constant(g, 1.3)
    f = np.ones(g.n_cells)
    xi = np.zeros(g.n_cells)
    xi[:40] = 0.7
    xi[40:80] = -0.7
    u_f = solve_state(a, make_deterministic(g, f), tol=1e-12)[0].u.values
    u_xi = solve_state(a, make_deterministic(g, xi), tol=1e-12)[0].u.values
    u_sum = solve_state(a, make_deterministic(g, f + xi), tol=1e-12)[0].u.values
    assert np.max(np.abs(u_sum - u_f - u_xi)) < 1e-11


def test_sign_symmetry_exact():
    # same matrix, negated rhs: CG produces exactly negated iterates
    g = GridSpec(12, 12)
    a = DensityField.constant(g, 1.5)
    xi = np.zeros(g.n_cells)
    xi[10:30] = 2.0
    u_plus = solve_state(a, make_deterministic(g, xi))[0].u.values
    u_minus = solve_state(a, make_deterministic(g, -xi))[0].u.values
    assert np.max(np.abs(u_plus + u_minus)) == 0.0


def test_coefficient_scaling():
    g = GridSpec(16, 16)
    sset = make_deterministic(g, np.ones(g.n_cells))
    u1 = solve_state(DensityField.constant(g, 1.0), sset, tol=1e-12)[0].u.values
    u3 = solve_state(DensityField.constant(g, 3.0), sset, tol=1e-12)[0].u.values
    assert np.max(np.abs(u3 - u1 / 3.0)) < 1e-11


def test_stiffness_shared_across_scenarios():
    g = GridSpec(16, 16)
    sols = solve_state(DensityField.constant(g, 1.5), make_case1(g))
    assert len(sols) == 2
    assert sols[0].weight == sols[1].weight == 0.5


def test_cg_failure_names_scenario(monkeypatch):
    from stodesign.cg import SolveReport

    def stalled(K, b, tol, x0=None, M=None):
        return np.zeros(K.shape[0]), SolveReport(1, 0.5, False)

    monkeypatch.setattr("stodesign.solve.cg_solve", stalled)
    g = GridSpec(16, 16)
    with pytest.raises(RuntimeError, match="scenario 0"):
        solve_state(DensityField.constant(g, 1.0), make_case1(g))


def test_non_finite_load_rejected_before_cg():
    g = GridSpec(8, 8)
    sset = make_case1(g)
    sset.scenarios[0].xi[3] = np.nan
    with pytest.raises(ValueError, match="scenario 0 holds non-finite"):
        solve_state(DensityField.constant(g, 1.0), sset)


def test_invalid_set_rejected():
    g = GridSpec(4, 4)
    xi = np.ones(g.n_cells)
    bad = ScenarioSet(g, np.ones(g.n_cells), [Scenario(xi, 1.0)])
    with pytest.raises(ValueError, match="invalid scenario set"):
        solve_state(DensityField.constant(g, 1.0), bad)


def test_warm_start_count_must_match_scenarios():
    g = GridSpec(8, 8)
    a = DensityField.constant(g, 1.0)
    x = np.zeros((g.nx - 1) * (g.ny - 1))
    with pytest.raises(ValueError, match="got 1 warm starts for 2 scenarios"):
        solve_state(a, make_case1(g), warm_starts=[x])
    with pytest.raises(ValueError, match="got 3 warm starts for 2 scenarios"):
        solve_state(a, make_case1(g), warm_starts=[x, x, x])


def _true_relative_residual(a: DensityField, sol) -> float:
    K = assemble_stiffness(a)
    b = assemble_load(a.grid, sol.load)
    return float(np.linalg.norm(K @ sol.u.interior() - b) / np.linalg.norm(b))


def _sine_modes(g: GridSpec, count: int) -> np.ndarray:
    c = cell_centers(g)
    mn = [(1, 2), (2, 1), (2, 2)][:count]
    x, y = c[:, 0], c[:, 1]
    return np.stack([np.sin(m * np.pi * x) * np.sin(n * np.pi * y) for m, n in mn])


def _pm_pair_set(g: GridSpec, pairs: int, rank: int, seed: int) -> ScenarioSet:
    # f = 1 plus +-pairs of random combinations of `rank` sine modes: load rank 1 + rank
    rng = np.random.default_rng(seed)
    xis = rng.standard_normal((pairs, rank)) @ _sine_modes(g, rank)
    w = rng.uniform(0.5, 1.5, pairs)
    w /= w.sum()
    scenarios = []
    for wp, xi in zip(w, xis):
        scenarios += [Scenario(xi, 0.5 * wp), Scenario(-xi, 0.5 * wp)]
    return ScenarioSet(g, np.ones(g.n_cells), scenarios)


def _duplicated_set(g: GridSpec) -> ScenarioSet:
    # scenario 1 repeats scenario 0
    xi = _sine_modes(g, 1)[0]
    return ScenarioSet(
        g, np.ones(g.n_cells), [Scenario(xi, 0.25), Scenario(xi, 0.25), Scenario(-xi, 0.5)]
    )


def _scaled_copy_set(g: GridSpec) -> ScenarioSet:
    # load 1 is exactly twice load 0: f + (f + 2 phi) = 2 (f + phi)
    f = np.ones(g.n_cells)
    phi = _sine_modes(g, 1)[0]
    xis = [phi, f + 2.0 * phi, -f - 4.0 * phi]
    weights = [0.5, 0.25, 0.25]
    return ScenarioSet(g, f, [Scenario(xi, w) for xi, w in zip(xis, weights)])


def _spy_cg(monkeypatch) -> list[tuple]:
    """Record (x0, SolveReport) of every cg_solve call made by solve_state."""
    calls = []
    real = solve_module.cg_solve

    def spy(K, b, tol, x0=None, M=None):
        x, report = real(K, b, tol=tol, x0=x0, M=M)
        calls.append((x0, report))
        return x, report

    monkeypatch.setattr("stodesign.solve.cg_solve", spy)
    return calls


def _rel(x, ref) -> float:
    return float(np.linalg.norm(np.asarray(x) - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize(
    "make_set",
    [
        _duplicated_set,
        _scaled_copy_set,
        lambda g: _pm_pair_set(g, 3, 2, 1),
        lambda g: _pm_pair_set(g, 6, 3, 2),
    ],
    ids=["duplicate", "scaled-copy", "pm-pairs-rank2", "pm-pairs-rank3"],
)
def test_dependent_loads_match_cold_solves(make_set):
    g = GridSpec(16, 16)
    rng = np.random.default_rng(7)
    a = DensityField(g, rng.uniform(1.0, 2.0, g.n_cells))
    sset = make_set(g)
    tol = 1e-10
    sols = solve_state(a, sset, tol=tol)
    cold = [
        replace(solve_state(a, make_deterministic(g, sol.load), tol=tol)[0], weight=sol.weight)
        for sol in sols
    ]
    for sol, ref in zip(sols, cold):
        assert _true_relative_residual(a, sol) <= tol
        assert _rel(sol.energy, ref.energy) <= 1e-8
    for kind in Objective:
        c, c_ref = cost(a, sols, kind), cost(a, cold, kind)  # both cross-checks pass
        assert abs(c - c_ref) <= 1e-8 * abs(c_ref)
        assert _rel(gradient_density(sols, kind), gradient_density(cold, kind)) <= 1e-8


@pytest.mark.parametrize(
    "make_set", [lambda g: make_deterministic(g, np.ones(g.n_cells)), make_case1, make_case2]
)
def test_independent_loads_get_caller_warm_starts_bitwise(monkeypatch, make_set):
    g = GridSpec(16, 16)
    a = DensityField.constant(g, 1.5)
    sset = make_set(g)
    calls = _spy_cg(monkeypatch)
    solve_state(a, sset)
    assert [x0 for x0, _ in calls] == [None] * len(sset.scenarios)
    rng = np.random.default_rng(0)
    warm = [rng.standard_normal((g.nx - 1) * (g.ny - 1)) for _ in sset.scenarios]
    calls.clear()
    solve_state(a, sset, warm_starts=warm)
    assert len(calls) == len(warm)
    for (x0, _), w in zip(calls, warm):
        assert x0.tobytes() == w.tobytes()


def test_dependent_loads_cost_no_iterations_at_rank():
    # 16 loads of rank 1 + 3: loads 0, 1, 2 and 4 span them; the rest start
    # from the combination of those states, so each needs fewer iterations
    # than any independent load's full solve. On a non-uniform coefficient the
    # combination can miss tol by a little; CG then runs a few iterations
    g = GridSpec(16, 16)
    sset = _pm_pair_set(g, 8, 3, 3)
    coefficients = [
        DensityField.constant(g, 1.5),
        DensityField(g, np.random.default_rng(0).uniform(1.0, 2.0, g.n_cells)),
    ]
    for a in coefficients:
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_cg(mp)
            sols = solve_state(a, sset)
        independent = [k for k, (x0, _) in enumerate(calls) if x0 is None]
        assert independent == [0, 1, 2, 4]
        iters = [report.iterations for _, report in calls]
        dependent = [it for k, it in enumerate(iters) if k not in independent]
        assert max(dependent) < min(iters[k] for k in independent)
        assert max(dependent) <= 5
        assert all(_true_relative_residual(a, sol) <= 1e-10 for sol in sols)


def test_load_near_the_span_is_solved_as_independent(monkeypatch):
    # load 2 lies 1e-6 (relative) off the span of loads 0 and 1; load 3 is in
    # the span of loads 0, 1 and 2
    g = GridSpec(16, 16)
    a = DensityField(g, np.random.default_rng(1).uniform(1.0, 2.0, g.n_cells))
    phi, eta = _sine_modes(g, 2)
    f = np.ones(g.n_cells)
    eps = 1e-6 * np.linalg.norm(f + phi) / np.linalg.norm(eta)
    xi2 = phi + eps * eta
    sset = ScenarioSet(g, f, [Scenario(xi, 0.25) for xi in (phi, -phi, xi2, -xi2)])
    b = [assemble_load(g, load) for load in sset.loads()]
    q, _ = np.linalg.qr(np.stack(b[:2], axis=1))
    off = np.linalg.norm(b[2] - q @ (q.T @ b[2])) / np.linalg.norm(b[2])
    assert 1e-7 < off < 1e-5

    calls = _spy_cg(monkeypatch)
    sols = solve_state(a, sset)
    assert [x0 is None for x0, _ in calls] == [True, True, True, False]
    assert calls[2][1].converged and calls[2][1].iterations > 0
    assert all(_true_relative_residual(a, sol) <= 1e-10 for sol in sols)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_energy_is_cell_grad_dot_of_state_property(data):
    # random small grids, densities in [1, 2] and +-pair scenario sets, some
    # scenarios duplicated (the weight split in two), so some loads are
    # dependent and start from a combination of earlier states
    g = GridSpec(data.draw(st.integers(2, 9)), data.draw(st.integers(2, 9)))
    a = DensityField(g, data.draw(arrays(float, g.n_cells, elements=st.floats(1.0, 2.0))))
    f = data.draw(arrays(float, g.n_cells, elements=st.floats(-2.0, 2.0)))
    pairs = data.draw(st.integers(1, 3))
    xis = data.draw(arrays(float, (pairs, g.n_cells), elements=st.floats(-2.0, 2.0)))
    w = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=pairs, max_size=pairs)))
    w /= w.sum()
    scenarios = []
    for wp, xi in zip(w, xis):
        scenarios += [Scenario(xi, 0.5 * wp), Scenario(-xi, 0.5 * wp)]
    for k in data.draw(st.lists(st.integers(0, 2 * pairs - 1), max_size=3)):
        s = scenarios[k]
        scenarios[k] = Scenario(s.xi, 0.5 * s.weight)
        scenarios.append(Scenario(s.xi.copy(), 0.5 * s.weight))
    sols = solve_state(a, ScenarioSet(g, f, scenarios))
    for sol in sols:
        assert np.array_equal(sol.energy, cell_grad_dot(sol.u, sol.u))
    cost(a, sols, Objective.COMPLIANCE)  # raises if the cross-check fails
