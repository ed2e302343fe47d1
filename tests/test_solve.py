import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stodesign.fem import DensityField, GridSpec, sample_cells
from stodesign.fem import cell_grad_dot
from stodesign.objective import Objective, cost, gradient_density
from stodesign.scenarios import Scenario, ScenarioSet, make_case1, make_deterministic
from stodesign.solve import solve_state


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
    from stodesign.fem import boundary_node_ids

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

    def stalled(K, b, tol, x0=None):
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


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_energy_is_cell_grad_dot_of_state_property(data):
    # random small grids, densities in [1, 2] and +-pair scenario sets
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
    sols = solve_state(a, ScenarioSet(g, f, scenarios))
    for sol in sols:
        assert np.array_equal(sol.energy, cell_grad_dot(sol.u, sol.u))
    cost(a, sols, Objective.COMPLIANCE)  # raises if the cross-check fails
