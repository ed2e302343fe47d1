import re

import numpy as np
import pytest

from stodesign.fem import DensityField, GridSpec
from stodesign.gclosure import (
    PhasePair,
    SymmetricTensor2,
    arithmetic_mean,
    harmonic_mean,
    in_gclosure,
    optimality_residual,
    rank_one_laminate,
    volume_fraction,
)
from stodesign.objective import Objective
from stodesign.scenarios import make_case1

from oracles import (
    as_array,
    cell_node_ids,
    inner_cells,
    interior_node_ids,
    loop_optimality_residual,
    nodal,
    pm_pair_set,
    same_bits,
    sample_nodes,
    scenario_fields,
)

PHASES = PhasePair(1.0, 2.0)


def _basis_states(a: DensityField, sset):
    """The load basis of a set and its stacked states at density a, as `run` returns them."""
    from stodesign.solve import load_basis, solve_state

    basis = load_basis(sset)
    return basis, solve_state(a, basis).states


def test_phase_validation():
    with pytest.raises(ValueError):
        PhasePair(2.0, 1.0)
    with pytest.raises(ValueError):
        PhasePair(0.0, 1.0)
    with pytest.raises(ValueError, match="phase bounds.*alpha = 1e-310"):
        PhasePair(1e-310, 2.0)  # subnormal: 1/alpha overflows
    # equal bounds leave no span: the rule and message OptimizerConfig applies
    tiny = np.finfo(float).tiny
    message = f"phase bounds must satisfy {tiny} <= alpha < beta, got alpha = 2.0, beta = 2.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        PhasePair(2.0, 2.0)


def test_mean_endpoint_values():
    for mean in (harmonic_mean, arithmetic_mean):
        assert mean(0.0, PHASES) == 2.0
        assert mean(1.0, PHASES) == 1.0
    with pytest.raises(ValueError):
        harmonic_mean(-0.1, PHASES)
    with pytest.raises(ValueError):
        arithmetic_mean(1.1, PHASES)


def test_mean_midpoint_values():
    assert harmonic_mean(0.5, PHASES) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert arithmetic_mean(0.5, PHASES) == pytest.approx(1.5, abs=1e-15)


def test_harmonic_below_arithmetic():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(0.0, 1.0, 100):
        lo, hi = harmonic_mean(theta, PHASES), arithmetic_mean(theta, PHASES)
        assert lo <= hi + 1e-15
        if 0.0 < theta < 1.0:
            assert lo < hi


def test_arithmetic_monotone_decreasing():
    thetas = np.linspace(0.0, 1.0, 11)
    vals = [arithmetic_mean(t, PHASES) for t in thetas]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_eigenvalues_closed_form():
    t = SymmetricTensor2(2.0, 1.0, 0.5)
    lo, hi = t.eigenvalues()
    ref = np.linalg.eigvalsh(as_array(t))
    assert lo == pytest.approx(ref[0], abs=1e-14)
    assert hi == pytest.approx(ref[1], abs=1e-14)


def test_membership_laminate_boundary_point():
    # diag(harmonic, arithmetic) saturates both trace bounds at theta = 1/2
    M = SymmetricTensor2.diag(4.0 / 3.0, 1.5)
    assert in_gclosure(M, 0.5, PHASES)
    lam = M.eigenvalues()
    lower = sum(1.0 / (li - 1.0) for li in lam)
    upper = sum(1.0 / (2.0 - li) for li in lam)
    assert lower == pytest.approx(5.0, abs=1e-10)
    assert upper == pytest.approx(3.5, abs=1e-10)


def test_membership_rejects_isotropic_extremes():
    assert not in_gclosure(SymmetricTensor2.isotropic(4.0 / 3.0), 0.5, PHASES)
    assert not in_gclosure(SymmetricTensor2.isotropic(1.5), 0.5, PHASES)


def test_membership_interior_isotropic_excluded_generally():
    for theta in (0.25, 0.5, 0.75):
        lo = harmonic_mean(theta, PHASES)
        hi = arithmetic_mean(theta, PHASES)
        assert not in_gclosure(SymmetricTensor2.isotropic(lo), theta, PHASES)
        assert not in_gclosure(SymmetricTensor2.isotropic(hi), theta, PHASES)


def test_membership_endpoint_fractions():
    assert in_gclosure(SymmetricTensor2.isotropic(2.0), 0.0, PHASES)
    assert in_gclosure(SymmetricTensor2.isotropic(1.0), 1.0, PHASES)
    assert not in_gclosure(SymmetricTensor2.isotropic(1.5), 0.0, PHASES)


def test_membership_eigenvalue_bracket():
    assert not in_gclosure(SymmetricTensor2.diag(0.9, 1.5), 0.5, PHASES)
    assert not in_gclosure(SymmetricTensor2.diag(1.4, 2.1), 0.5, PHASES)


def test_laminate_axis_aligned():
    M = rank_one_laminate(0.5, PHASES, np.array([1.0, 0.0]))
    assert M.a11 == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert M.a22 == pytest.approx(1.5, abs=1e-15)
    assert M.a12 == 0.0


def test_laminate_single_phase():
    for angle in (0.0, 0.3, 1.2):
        n = np.array([np.cos(angle), np.sin(angle)])
        M = rank_one_laminate(0.0, PHASES, n)
        assert np.allclose(as_array(M), 2.0 * np.eye(2), atol=1e-14)


def test_laminate_rejects_non_unit_normal():
    with pytest.raises(ValueError):
        rank_one_laminate(0.5, PHASES, np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        rank_one_laminate(0.5, PHASES, np.array([1.0, 1.0]))
    for normal in ([1.0, 0.0, 0.0], [1.0], 1.0):
        with pytest.raises(ValueError, match="lamination normal must be a 2-vector"):
            rank_one_laminate(0.5, PHASES, np.array(normal))


def test_array_errors_report_first_value_and_count():
    with pytest.raises(ValueError) as err:
        harmonic_mean(np.full(65536, 1.5), PhasePair(1, 2))
    assert len(str(err.value)) < 200
    assert "1.5 (first of 65536 bad values)" in str(err.value)
    normals = np.tile([1.0, 1.0], (65536, 1))
    with pytest.raises(ValueError) as err:
        rank_one_laminate(np.full(65536, 0.5), PHASES, normals)
    assert len(str(err.value)) < 200


def test_laminate_membership_and_saturation_property():
    rng = np.random.default_rng(12)
    for _ in range(100):
        theta = float(rng.uniform(0.0, 1.0))
        angle = float(rng.uniform(0.0, 2 * np.pi))
        n = np.array([np.cos(angle), np.sin(angle)])
        M = rank_one_laminate(theta, PHASES, n)
        assert in_gclosure(M, theta, PHASES)
        if 0.0 < theta < 1.0:
            lam = sorted(M.eigenvalues())
            assert lam[0] == pytest.approx(harmonic_mean(theta, PHASES), abs=1e-12)
            assert lam[1] == pytest.approx(arithmetic_mean(theta, PHASES), abs=1e-12)


def test_volume_fraction_round_trip():
    thetas = np.linspace(0.0, 1.0, 101)
    for theta in thetas:
        a_plus = arithmetic_mean(theta, PHASES)
        assert volume_fraction(a_plus, Objective.COMPLIANCE, PHASES) == pytest.approx(
            theta, abs=1e-12
        )
        a_minus = harmonic_mean(theta, PHASES)
        assert volume_fraction(a_minus, Objective.ENERGY, PHASES) == pytest.approx(
            theta, abs=1e-12
        )


def test_volume_fraction_bounds():
    assert volume_fraction(2.0, Objective.COMPLIANCE, PHASES) == 0.0
    assert volume_fraction(2.0, Objective.ENERGY, PHASES) == 0.0
    assert volume_fraction(1.5, Objective.COMPLIANCE, PHASES) == pytest.approx(0.5)
    assert volume_fraction(4.0 / 3.0, Objective.ENERGY, PHASES) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        volume_fraction(0.5, Objective.COMPLIANCE, PHASES)


def test_residual_zero_for_deterministic_scenario():
    from stodesign.scenarios import make_deterministic

    g = GridSpec(16, 16)
    a = DensityField.constant(g, 1.5)
    basis, states = _basis_states(a, make_deterministic(g, np.ones(g.n_cells)))
    res = optimality_residual(a, basis, states, Objective.COMPLIANCE, PHASES)
    assert np.max(res) < 1e-10


def test_residual_zero_gradient_cells():
    from stodesign.scenarios import make_deterministic

    g = GridSpec(8, 8)
    a = DensityField.constant(g, 1.5)
    basis, states = _basis_states(a, make_deterministic(g, np.zeros(g.n_cells)))
    res = optimality_residual(a, basis, states, Objective.COMPLIANCE, PHASES)
    assert np.all(res == 0.0)


def test_residual_finite_for_two_scenarios():
    from stodesign.scenarios import make_case1

    g = GridSpec(16, 16)
    a = DensityField.constant(g, 1.5)
    basis, states = _basis_states(a, make_case1(g))
    res = optimality_residual(a, basis, states, Objective.COMPLIANCE, PHASES)
    assert np.all(np.isfinite(res))
    assert np.all(res >= 0.0)


def test_residual_matches_loop_oracle_four_scenarios():
    from stodesign.scenarios import Scenario, ScenarioSet

    g = GridSpec(16, 12)
    rng = np.random.default_rng(21)
    xi1, xi2 = rng.standard_normal((2, g.n_cells))
    sset = ScenarioSet(
        g,
        np.ones(g.n_cells),
        [Scenario(xi1, 0.3), Scenario(-xi1, 0.3), Scenario(xi2, 0.2), Scenario(-xi2, 0.2)],
    )
    a = DensityField(g, rng.uniform(1.0, 2.0, g.n_cells))
    a.values[:3] = [1.0, 2.0, 1.0]  # pure-phase cells
    basis, states = _basis_states(a, sset)
    zero = [0, 17, 100]
    # equal corner values in every basis state give every scenario a zero cell gradient
    full = np.stack([nodal(g, x) for x in states])
    full[:, cell_node_ids(g)[zero]] = 0.0
    states = full[:, interior_node_ids(g)]
    fields = scenario_fields(basis, states)
    for kind in Objective:
        res = optimality_residual(a, basis, states, kind, PHASES)
        ref = loop_optimality_residual(a, fields, basis.weights, kind, PHASES)
        assert np.max(np.abs(res - ref)) <= 1e-14
        assert np.all(res[zero] == 0.0)


@pytest.mark.parametrize(
    "states, share",
    [
        # u = 30x and u = 30y at weight 1/2 each: d = (0, 1) would give the same
        (((30.0, 0.0, 0.5), (0.0, 30.0, 0.5)), 0.5),
        # u = 60x at weight 1/4 and u = 30y at weight 1: d = (0, 1) gives 1/3
        (((60.0, 0.0, 0.25), (0.0, 30.0, 1.0)), 2.0 / 3.0),
    ],
    ids=["x-and-y", "unequal"],
)
def test_residual_isotropic_second_moment_tie_break(states, share):
    # the nodal values are integers, so every cell gradient off the zero
    # boundary is exact and S is exactly isotropic in those cells: with no
    # dominant direction both residuals must fall back to d = (1, 0), leaving
    # |gap| times the share of the gradient norm along y
    # (the basis' unit coefficients make each scenario state one row exactly)
    from stodesign.fem import cell_gradients
    from stodesign.solve import LoadBasis

    g = GridSpec(6, 5)
    inner = inner_cells(g)
    fields = []
    for gx, gy, _ in states:
        u = sample_nodes(g, lambda x, y: np.rint(gx * x + gy * y))[interior_node_ids(g)]
        assert np.all(cell_gradients(g, u)[inner] == [gx, gy])
        fields.append(u)
    weights = np.array([w for _, _, w in states])
    basis = LoadBasis(g, np.zeros((len(fields), g.n_interior)), np.eye(len(fields)), weights)
    a = DensityField(g, np.random.default_rng(5).uniform(1.0, 2.0, g.n_cells))
    for kind in Objective:
        res = optimality_residual(a, basis, np.stack(fields), kind, PHASES)
        ref = loop_optimality_residual(a, fields, weights, kind, PHASES)
        assert np.max(np.abs(res - ref)) <= 1e-14
        theta = volume_fraction(a.values, kind, PHASES)
        gap = arithmetic_mean(theta, PHASES) - harmonic_mean(theta, PHASES)
        np.testing.assert_allclose(res[inner], share * gap[inner], rtol=1e-12)


@pytest.mark.parametrize(
    "make_set",
    [make_case1, lambda g: pm_pair_set(g, 8, 3, 3)],
    ids=["case1", "pm-pairs-k16"],
)
def test_residual_is_scale_free(make_set):
    # powers of two scale every product exactly: loads x 2^p leave the residual
    # bit for bit, phases and design x 2^q scale it by 2^q bit for bit
    from stodesign.solve import LoadBasis, load_basis, solve_state

    g = GridSpec(16, 16)
    a = DensityField(g, np.random.default_rng(8).uniform(1.0, 2.0, g.n_cells))
    basis = load_basis(make_set(g))
    states = solve_state(a, basis).states
    for kind in Objective:
        unit = optimality_residual(a, basis, states, kind, PHASES)
        assert np.max(unit) > 0.0
        for p in (-300, -40, 40, 300):
            scaled = LoadBasis(g, np.ldexp(basis.loads, p), basis.coefficients, basis.weights)
            got = optimality_residual(a, scaled, solve_state(a, scaled).states, kind, PHASES)
            assert same_bits(got, unit), p
        for q in (-60, 60):
            aq = DensityField(g, np.ldexp(a.values, q))
            phases = PhasePair(np.ldexp(PHASES.alpha, q), np.ldexp(PHASES.beta, q))
            got = optimality_residual(aq, basis, solve_state(aq, basis).states, kind, phases)
            assert same_bits(got, np.ldexp(unit, q)), q


@pytest.mark.parametrize("s", [1e-20, 1e-6, 1e6, 1e20])
def test_membership_is_scale_free(s):
    # the tolerance is relative: at any size of the phases every rank-one
    # laminate is a member, and the isotropic extremes are not
    phases = PhasePair(s, 2.0 * s)
    rng = np.random.default_rng(40)
    for theta, angle in rng.uniform((0.0, 0.0), (1.0, 2 * np.pi), (200, 2)):
        n = np.array([np.cos(angle), np.sin(angle)])
        assert in_gclosure(rank_one_laminate(theta, phases, n), theta, phases), theta
    for theta in (0.25, 0.5, 0.75):
        for mean in (harmonic_mean, arithmetic_mean):
            assert not in_gclosure(SymmetricTensor2.isotropic(mean(theta, phases)), theta, phases)
