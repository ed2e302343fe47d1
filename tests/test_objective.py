import numpy as np
import pytest

from stodesign.cg import dot
from stodesign.fem import DensityField, GridSpec, assemble_stiffness, cell_grad_dot
from stodesign.objective import Objective, cost, gradient_density
from stodesign.scenarios import make_case1, make_case2, make_deterministic
from stodesign.solve import BasisSolve, load_basis, solve_state

from oracles import expected_decomposition_check, sample_cells


def _compliance(a, sset, tol=1e-10):
    return cost(a, solve_state(a, load_basis(sset), tol=tol), Objective.COMPLIANCE)


def test_objective_parse():
    assert Objective.parse("compliance") is Objective.COMPLIANCE
    assert Objective.parse(" Energy ") is Objective.ENERGY
    with pytest.raises(ValueError):
        Objective.parse("torsion")


def test_manufactured_compliance_value():
    g = GridSpec(64, 64)
    f = sample_cells(g, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    value = _compliance(DensityField.constant(g, 1.0), make_deterministic(g, f))
    assert value == pytest.approx(np.pi**2 / 2.0, rel=0.01)


def test_zero_load_zero_cost():
    g = GridSpec(8, 8)
    assert _compliance(DensityField.constant(g, 1.0), make_deterministic(g, np.zeros(g.n_cells))) == 0.0


def test_cost_scales_inversely_with_coefficient():
    g = GridSpec(16, 16)
    sset = make_deterministic(g, np.ones(g.n_cells))
    c1 = _compliance(DensityField.constant(g, 1.0), sset, tol=1e-12)
    c2 = _compliance(DensityField.constant(g, 2.0), sset, tol=1e-12)
    assert c2 == pytest.approx(c1 / 2.0, rel=1e-10)


def test_energy_is_negated_compliance():
    g = GridSpec(16, 16)
    a = DensityField.constant(g, 1.5)
    sset = make_case1(g)
    s = solve_state(a, load_basis(sset))
    assert cost(a, s, Objective.ENERGY) == -cost(a, s, Objective.COMPLIANCE)


@pytest.mark.parametrize("kind", list(Objective))
def test_cost_is_the_energy_functional(kind):
    # at states x_i* + d_i the cost is kind.sign * (c* - sum_i d_i.K d_i), c*
    # the exact cost: second order in the solve error, where the load
    # pairing's error, sum_i b_i.d_i, is first order
    g = GridSpec(16, 16)
    rng = np.random.default_rng(7)
    a = DensityField(g, rng.uniform(1.0, 2.0, g.n_cells))
    basis = load_basis(make_case1(g))
    K = assemble_stiffness(a)
    exact = np.linalg.solve(K.toarray(), basis.loads.T).T
    d = 1e-3 * np.abs(exact).max() * rng.standard_normal(exact.shape)
    states = exact + d
    s = BasisSolve(
        states,
        sum(dot(b, x) for b, x in zip(basis.loads, states)),
        sum(cell_grad_dot(g, x) for x in states),
        [0] * len(states),
        1e-2,  # the pairing's first-order error is far above 1e-10's cross-check bound
    )
    c_exact = float(np.sum(basis.loads * exact))
    second_order = float(np.sum(d * (K @ d.T).T))
    assert cost(a, s, kind) == pytest.approx(kind.sign * (c_exact - second_order), rel=1e-12, abs=0.0)
    assert abs(s.pairing - c_exact) > 1e-6 * c_exact  # the pairing alone is far off


@pytest.mark.parametrize("scale", [1.0, 1e-8])
def test_cross_check_catches_corrupted_solution(scale):
    # the check is relative: a cost 1e-16 times smaller is checked alike
    g = GridSpec(8, 8)
    a = DensityField.constant(g, 1.5)
    s = solve_state(a, load_basis(make_deterministic(g, np.full(g.n_cells, scale))))
    assert cost(a, s, Objective.COMPLIANCE) > 0.0
    s.pairing *= 1.001  # breaks the pairing/energy identity
    with pytest.raises(ArithmeticError, match="disagree"):
        cost(a, s, Objective.COMPLIANCE)


def test_cross_check_fails_on_a_subnormal_cost():
    # f = 1e-157 gives a cost near 2e-316, below the smallest normal float,
    # where the pairing and the energy keep too few digits to agree to 1e-9
    g = GridSpec(8, 8)
    a = DensityField.constant(g, 1.5)
    s = solve_state(a, load_basis(make_deterministic(g, np.full(g.n_cells, 1e-157))))
    assert 0.0 < s.pairing < np.finfo(float).tiny
    with pytest.raises(ArithmeticError, match="under- or overflow"):
        cost(a, s, Objective.COMPLIANCE)


@pytest.mark.parametrize("cells", [slice(None), slice(5, 6)], ids=["every-cell", "one-cell"])
@pytest.mark.parametrize("kind", list(Objective))
def test_cross_check_rejects_non_finite_energy(cells, kind):
    # inf > tol * inf is false: the check must not pass on an overflowed side
    g = GridSpec(8, 8)
    a = DensityField.constant(g, 1.5)
    s = solve_state(a, load_basis(make_case1(g)))
    s.energy[cells] = np.inf
    with pytest.raises(ArithmeticError, match="disagree"):
        cost(a, s, kind)


def test_gradient_density_requires_adjoint():
    # the adjoint is kind.sign * u, so the cost kind must be given
    g = GridSpec(8, 8)
    basis = load_basis(make_deterministic(g, np.ones(g.n_cells)))
    s = solve_state(DensityField.constant(g, 1.5), basis)
    with pytest.raises(TypeError):
        gradient_density(s)


def test_gradient_density_signs():
    g = GridSpec(16, 16)
    a = DensityField.constant(g, 1.5)
    sset = make_case1(g)
    s = solve_state(a, load_basis(sset))
    g_comp = gradient_density(s, Objective.COMPLIANCE)
    g_en = gradient_density(s, Objective.ENERGY)
    assert np.all(g_comp >= 0.0)
    assert np.all(g_en <= 0.0)
    assert np.array_equal(g_en, -g_comp)


def test_gradient_zero_for_zero_load():
    g = GridSpec(8, 8)
    s = solve_state(
        DensityField.constant(g, 1.0),
        load_basis(make_deterministic(g, np.zeros(g.n_cells))),
    )
    assert np.all(gradient_density(s, Objective.COMPLIANCE) == 0.0)


def test_adjoint_gradient_matches_finite_differences():
    # spot check on 5 random cells; the acceptance suite runs the full 20
    g = GridSpec(8, 8)
    sset = make_deterministic(g, np.ones(g.n_cells))
    a0 = DensityField.constant(g, 1.5)
    grad = gradient_density(solve_state(a0, load_basis(sset), tol=1e-12), Objective.COMPLIANCE)
    delta = 1e-5
    rng = np.random.default_rng(42)
    for c in rng.choice(g.n_cells, 5, replace=False):
        ap, am = a0.copy(), a0.copy()
        ap.values[c] += delta
        am.values[c] -= delta
        fd = (_compliance(ap, sset, tol=1e-12) - _compliance(am, sset, tol=1e-12)) / (
            2 * delta
        )
        adjoint = -g.cell_area * grad[c]
        assert abs(adjoint - fd) <= 1e-4 * abs(fd)


def test_gradient_monotone_under_stiffening():
    # compliance cannot increase when the coefficient increases cell-wise
    g = GridSpec(12, 12)
    sset = make_deterministic(g, np.ones(g.n_cells))
    rng = np.random.default_rng(3)
    low = DensityField(g, rng.uniform(1.0, 1.5, g.n_cells))
    high = DensityField(g, low.values + rng.uniform(0.0, 0.5, g.n_cells))
    assert _compliance(high, sset, tol=1e-12) <= _compliance(low, sset, tol=1e-12)


def test_decomposition_case1():
    g = GridSpec(32, 32)
    lhs, rhs = expected_decomposition_check(DensityField.constant(g, 1.5), make_case1(g))
    assert abs(lhs - rhs) <= 1e-8


def test_decomposition_case2():
    g = GridSpec(16, 16)
    lhs, rhs = expected_decomposition_check(DensityField.constant(g, 1.2), make_case2(g))
    assert abs(lhs - rhs) <= 1e-8


def test_decomposition_deterministic_degenerates():
    g = GridSpec(16, 16)
    sset = make_deterministic(g, np.ones(g.n_cells))
    lhs, rhs = expected_decomposition_check(DensityField.constant(g, 1.5), sset)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_expected_compliance_dominates_mean_load():
    g = GridSpec(16, 16)
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = DensityField(g, rng.uniform(1.0, 2.0, g.n_cells))
        det = _compliance(a, make_deterministic(g, np.ones(g.n_cells)), tol=1e-12)
        for sset in (make_case1(g), make_case2(g)):
            assert _compliance(a, sset, tol=1e-12) >= det - 1e-12
