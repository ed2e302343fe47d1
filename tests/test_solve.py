import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import stodesign.solve as solve_module
from stodesign.cg import dot
from stodesign.fem import DensityField, GridSpec
from stodesign.fem import assemble_load, assemble_stiffness, cell_grad_dot, cell_gradients
from stodesign.gclosure import PhasePair, optimality_residual
from stodesign.objective import Objective, cost, gradient_density
from stodesign.optimizer import OptimizerConfig, run
from stodesign.scenarios import (
    Scenario,
    ScenarioSet,
    make_case1,
    make_case2,
    make_deterministic,
)
from stodesign.solve import load_basis, solve_state

from oracles import (
    loop_optimality_residual,
    pm_pair_set,
    property_settings,
    same_bits,
    sample_cells,
    sine_modes,
)


def _center_node(g: GridSpec) -> int:
    """The interior index of the node at the domain center."""
    return (g.ny // 2 - 1) * (g.nx - 1) + g.nx // 2 - 1


def test_manufactured_center_value():
    g = GridSpec(64, 64)
    f = sample_cells(g, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    s = solve_state(DensityField.constant(g, 1.0), load_basis(make_deterministic(g, f)))
    assert abs(s.states[0, _center_node(g)] - 1.0) < 1e-3


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
    basis = load_basis(make_deterministic(g, np.ones(g.n_cells)))
    s = solve_state(DensityField.constant(g, 1.0), basis)
    oracle = _poisson_center_series()
    assert oracle == pytest.approx(0.07367135, abs=1e-6)
    assert abs(s.states[0, _center_node(g)] - oracle) < 5e-4


def test_zero_load_zero_solution():
    g = GridSpec(8, 8)
    basis = load_basis(make_deterministic(g, np.zeros(g.n_cells)))
    s = solve_state(DensityField.constant(g, 1.0), basis)
    assert np.all(s.states == 0.0)


def test_boundary_values_exactly_zero():
    # a state holds the interior nodes only, and the kernels pad the boundary
    # with exact zeros: the SW corner cell sees its NE corner alone
    g = GridSpec(16, 16)
    s = solve_state(DensityField.constant(g, 1.5), load_basis(make_case1(g)))
    assert s.states.shape == (2, g.n_interior)
    for x in s.states:
        gx, gy = cell_gradients(g, x)[0]
        assert (gx, gy) == (x[0] / (2.0 * g.hx), x[0] / (2.0 * g.hy))


def test_adjoint_compliance_is_state():
    # compliance is self-adjoint: its gradient is built from p = u
    g = GridSpec(16, 16)
    s = solve_state(DensityField.constant(g, 1.5), load_basis(make_case1(g)))
    g_comp = gradient_density(s, Objective.COMPLIANCE)
    expected = np.zeros(g.n_cells)
    for x in s.states:  # the basis loads carry unit weight
        expected += cell_grad_dot(g, x)
    assert np.array_equal(g_comp, expected)


def test_adjoint_energy_is_negated_state():
    # the energy adjoint is p = -u, so its gradient is the exact negation
    g = GridSpec(16, 16)
    s = solve_state(DensityField.constant(g, 1.5), load_basis(make_case1(g)))
    g_comp = gradient_density(s, Objective.COMPLIANCE)
    g_en = gradient_density(s, Objective.ENERGY)
    assert np.array_equal(g_en, -g_comp)


def test_compliance_gradient_product_nonnegative():
    g = GridSpec(16, 16)
    s = solve_state(
        DensityField.constant(g, 1.0),
        load_basis(make_deterministic(g, np.ones(g.n_cells))),
    )
    assert np.all(gradient_density(s, Objective.COMPLIANCE) >= 0.0)


def test_linearity_in_load():
    g = GridSpec(16, 16)
    a = DensityField.constant(g, 1.3)
    f = np.ones(g.n_cells)
    xi = np.zeros(g.n_cells)
    xi[:40] = 0.7
    xi[40:80] = -0.7
    u_f = solve_state(a, load_basis(make_deterministic(g, f)), tol=1e-12).states[0]
    u_xi = solve_state(a, load_basis(make_deterministic(g, xi)), tol=1e-12).states[0]
    u_sum = solve_state(a, load_basis(make_deterministic(g, f + xi)), tol=1e-12).states[0]
    assert np.max(np.abs(u_sum - u_f - u_xi)) < 1e-11


def test_sign_symmetry_exact():
    # same matrix, negated rhs: CG produces exactly negated iterates
    g = GridSpec(12, 12)
    a = DensityField.constant(g, 1.5)
    xi = np.zeros(g.n_cells)
    xi[10:30] = 2.0
    u_plus = solve_state(a, load_basis(make_deterministic(g, xi))).states[0]
    u_minus = solve_state(a, load_basis(make_deterministic(g, -xi))).states[0]
    assert np.max(np.abs(u_plus + u_minus)) == 0.0


def test_coefficient_scaling():
    g = GridSpec(16, 16)
    sset = make_deterministic(g, np.ones(g.n_cells))
    u1 = solve_state(DensityField.constant(g, 1.0), load_basis(sset), tol=1e-12).states[0]
    u3 = solve_state(DensityField.constant(g, 3.0), load_basis(sset), tol=1e-12).states[0]
    assert np.max(np.abs(u3 - u1 / 3.0)) < 1e-11


def test_load_and_coefficient_scales_are_exact():
    # loads scaled by 2**-300 and the coefficient by 2**600 put CG's inner
    # products far below the float range at the load's own scale; the solve
    # is the unscaled one, scaled by 2**-900 bit for bit
    g = GridSpec(16, 16)
    a = DensityField(g, np.random.default_rng(0).uniform(1.0, 2.0, g.n_cells))
    sset = make_case1(g)
    tiny = ScenarioSet(
        g, np.ldexp(sset.f, -300), [Scenario(np.ldexp(s.xi, -300), s.weight) for s in sset.scenarios]
    )
    ref = solve_state(a, load_basis(sset))
    got = solve_state(DensityField(g, np.ldexp(a.values, 600)), load_basis(tiny))
    assert got.iterations == ref.iterations
    assert same_bits(got.states, np.ldexp(ref.states, -900))


def test_grid_mismatch_is_rejected():
    basis = load_basis(make_case1(GridSpec(8, 8)))
    with pytest.raises(ValueError, match="load basis and coefficient live on different grids"):
        solve_state(DensityField.constant(GridSpec(8, 6), 1.0), basis)


def test_stiffness_shared_across_scenarios():
    # case1's two loads f +- chi are carried by f and one direction; the
    # scenarios keep their weights 1/2 and combine the two states
    g = GridSpec(16, 16)
    basis = load_basis(make_case1(g))
    s = solve_state(DensityField.constant(g, 1.5), basis)
    assert s.states.shape == (2, g.n_interior)
    assert basis.coefficients.shape == (2, 2)
    assert list(basis.weights) == [0.5, 0.5]


def test_cg_failure_names_scenario(monkeypatch):
    from stodesign.cg import SolveReport, cg_solve

    def stalled(K, b, tol, max_iter=None, x0=None, M=None):
        return np.zeros(K.shape[0]), SolveReport(1, 0.5, False)

    monkeypatch.setattr("stodesign.solve.cg_solve", stalled)
    g = GridSpec(16, 16)
    with pytest.raises(RuntimeError, match=r"^CG did not converge for the mean load f \("):
        solve_state(DensityField.constant(g, 1.0), load_basis(make_case1(g)))

    calls = []

    def second_stalls(K, b, tol, max_iter=None, x0=None, M=None):
        calls.append(b)
        if len(calls) == 2:
            return stalled(K, b, tol)
        return cg_solve(K, b, tol=tol, max_iter=max_iter, x0=x0, M=M)

    monkeypatch.setattr("stodesign.solve.cg_solve", second_stalls)
    sset = pm_pair_set(g, 3, 2, 1)  # f and two directions
    with pytest.raises(RuntimeError, match=r"^CG did not converge for perturbation direction 1 of 2 \("):
        solve_state(DensityField.constant(g, 1.0), load_basis(sset))


def test_non_finite_load_rejected_before_cg():
    g = GridSpec(8, 8)
    sset = make_case1(g)
    sset.scenarios[0].xi[3] = np.nan
    with pytest.raises(ValueError, match="scenario 0 holds non-finite"):
        solve_state(DensityField.constant(g, 1.0), load_basis(sset))


def test_invalid_set_rejected():
    g = GridSpec(4, 4)
    xi = np.ones(g.n_cells)
    bad = ScenarioSet(g, np.ones(g.n_cells), [Scenario(xi, 1.0)])
    with pytest.raises(ValueError, match="invalid scenario set"):
        solve_state(DensityField.constant(g, 1.0), load_basis(bad))


def test_scenario_set_is_not_a_basis():
    # a design loop factors its set once with load_basis; a set has no loads
    g = GridSpec(8, 8)
    with pytest.raises(AttributeError, match="loads"):
        solve_state(DensityField.constant(g, 1.0), make_case1(g))


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 1.0, 2.0])
def test_unusable_tol_is_rejected(tol):
    # a tol of 1 or more would pass x = 0 as every load's state, at cost 0,
    # and nan would fail as "CG did not converge ... after 0 iterations"
    g = GridSpec(8, 8)
    with pytest.raises(ValueError, match=r"^tol must be a finite number in \(0, 1\), got "):
        solve_state(DensityField.constant(g, 1.0), load_basis(make_case1(g)), tol=tol)


def test_warm_start_count_must_match_scenarios():
    g = GridSpec(8, 8)
    a = DensityField.constant(g, 1.0)
    x = np.zeros((g.nx - 1) * (g.ny - 1))
    with pytest.raises(ValueError, match="got 1 warm starts for 2 loads"):
        solve_state(a, load_basis(make_case1(g)), warm_starts=[x])
    with pytest.raises(ValueError, match="got 3 warm starts for 2 loads"):
        solve_state(a, load_basis(make_case1(g)), warm_starts=[x, x, x])


def _true_relative_residual(a: DensityField, b: np.ndarray, x: np.ndarray) -> float:
    K = assemble_stiffness(a)
    return float(np.linalg.norm(K @ x - b) / np.linalg.norm(b))


def _duplicated_set(g: GridSpec) -> ScenarioSet:
    # scenario 1 repeats scenario 0
    xi = sine_modes(g, 1)[0]
    return ScenarioSet(
        g, np.ones(g.n_cells), [Scenario(xi, 0.25), Scenario(xi, 0.25), Scenario(-xi, 0.5)]
    )


def _scaled_copy_set(g: GridSpec) -> ScenarioSet:
    # load 1 is exactly twice load 0: f + (f + 2 phi) = 2 (f + phi)
    f = np.ones(g.n_cells)
    phi = sine_modes(g, 1)[0]
    xis = [phi, f + 2.0 * phi, -f - 4.0 * phi]
    weights = [0.5, 0.25, 0.25]
    return ScenarioSet(g, f, [Scenario(xi, w) for xi, w in zip(xis, weights)])


def _spy_cg(monkeypatch) -> list[tuple]:
    """Record (x0, SolveReport) of every cg_solve call made by solve_state."""
    calls = []
    real = solve_module.cg_solve

    def spy(K, b, tol, max_iter=None, x0=None, M=None):
        x, report = real(K, b, tol=tol, max_iter=max_iter, x0=x0, M=M)
        calls.append((x0, report))
        return x, report

    monkeypatch.setattr("stodesign.solve.cg_solve", spy)
    return calls


def _rel(x, ref) -> float:
    return float(np.linalg.norm(np.asarray(x) - ref) / np.linalg.norm(ref))


def _cold_states(a: DensityField, sset: ScenarioSet, tol: float) -> list:
    """Each scenario's `BasisSolve` of its own cold solve of f + xi_k, of unit weight."""
    return [
        solve_state(a, load_basis(make_deterministic(a.grid, sset.f + s.xi)), tol=tol)
        for s in sset.scenarios
    ]


@pytest.mark.parametrize(
    "make_set",
    [
        _duplicated_set,
        _scaled_copy_set,
        lambda g: pm_pair_set(g, 3, 2, 1),
        lambda g: pm_pair_set(g, 6, 3, 2),
    ],
    ids=["duplicate", "scaled-copy", "pm-pairs-rank2", "pm-pairs-rank3"],
)
def test_dependent_loads_match_cold_solves(make_set):
    # the basis carries rank-deficient sets: its 1 + r states give the cost and
    # gradient of the K per-scenario solves, and combine into their states
    g = GridSpec(16, 16)
    rng = np.random.default_rng(7)
    a = DensityField(g, rng.uniform(1.0, 2.0, g.n_cells))
    sset = make_set(g)
    tol = 1e-10
    basis = load_basis(sset)
    assert len(basis.loads) < len(sset.scenarios) + 1
    s = solve_state(a, basis, tol=tol)
    cold = _cold_states(a, sset, tol)
    for b, x in zip(basis.loads, s.states):
        assert _true_relative_residual(a, b, x) <= tol
    for c, scenario, ref in zip(basis.coefficients, sset.scenarios, cold):
        u = c @ s.states
        assert _rel(c @ basis.loads, assemble_load(g, sset.f + scenario.xi)) <= 1e-12
        assert _rel(u, ref.states[0]) <= 1e-8
        assert _rel(cell_grad_dot(g, u), ref.energy) <= 1e-8
    w = sset.weights()
    for kind in Objective:
        # both cross-checks pass, the basis' and each cold solve's
        c = cost(a, s, kind)
        c_ref = sum(w_k * cost(a, ref, kind) for w_k, ref in zip(w, cold))
        assert abs(c - c_ref) <= 1e-8 * abs(c_ref)
        g_ref = sum(w_k * gradient_density(ref, kind) for w_k, ref in zip(w, cold))
        assert _rel(gradient_density(s, kind), g_ref) <= 1e-8


@pytest.mark.parametrize(
    "make_set", [lambda g: make_deterministic(g, np.ones(g.n_cells)), make_case1, make_case2]
)
def test_independent_loads_get_caller_warm_starts_bitwise(monkeypatch, make_set):
    g = GridSpec(16, 16)
    a = DensityField.constant(g, 1.5)
    basis = load_basis(make_set(g))
    assert len(basis.loads) == len(basis.weights)  # the presets keep their solve counts
    calls = _spy_cg(monkeypatch)
    solve_state(a, basis)
    assert [x0 for x0, _ in calls] == [None] * len(basis.loads)
    rng = np.random.default_rng(0)
    warm = [rng.standard_normal((g.nx - 1) * (g.ny - 1)) for _ in basis.loads]
    calls.clear()
    solve_state(a, basis, warm_starts=warm)
    assert len(calls) == len(warm)
    for (x0, _), w in zip(calls, warm):
        assert x0.tobytes() == w.tobytes()


@pytest.mark.parametrize(
    "pairs, rank",
    [(1, 1), (10, 1), (10, 3), (100, 1), (100, 3)],
    ids=["K2-r1", "K20-r1", "K20-r3", "K200-r1", "K200-r3"],
)
def test_solves_per_call_are_one_plus_rank(monkeypatch, pairs, rank):
    # K = 2 * pairs scenarios of perturbation rank r cost 1 + r CG solves per
    # call, cold or warm-started, whatever K
    g = GridSpec(16, 16)
    a = DensityField(g, np.random.default_rng(4).uniform(1.0, 2.0, g.n_cells))
    basis = load_basis(pm_pair_set(g, pairs, rank, 5))
    calls = _spy_cg(monkeypatch)
    s = solve_state(a, basis)
    assert len(calls) == 1 + rank
    calls.clear()
    solve_state(a, basis, warm_starts=s.states)
    assert len(calls) == 1 + rank


def test_zero_perturbations_cost_one_solve(monkeypatch):
    g = GridSpec(16, 16)
    zero = np.zeros(g.n_cells)
    sset = ScenarioSet(g, np.ones(g.n_cells), [Scenario(zero, 0.5), Scenario(zero, 0.5)])
    calls = _spy_cg(monkeypatch)
    s = solve_state(DensityField.constant(g, 1.5), load_basis(sset))
    assert len(calls) == len(s.states) == 1


@pytest.mark.parametrize(
    "ratio, kept", [(1e-6, True), (1e-14, False)], ids=["kept-1e-6", "dropped-1e-14"]
)
def test_direction_cutoff(monkeypatch, ratio, kept):
    # two orthonormal perturbation directions with sigma_2 = ratio * sigma_1:
    # kept above the cutoff 1e-10 * sigma_1, dropped below it
    g = GridSpec(16, 16)
    q, _ = np.linalg.qr(sine_modes(g, 2).T)
    phi, eta = q.T
    f = np.ones(g.n_cells)
    xis = (phi, -phi, ratio * eta, -ratio * eta)
    sset = ScenarioSet(g, f, [Scenario(xi, 0.25) for xi in xis])
    basis = load_basis(sset)
    assert len(basis.loads) == (3 if kept else 2)
    # the directions, assembled: sigma_1 U_1 = +-sqrt(0.5) phi, sigma_2 U_2 = +-ratio sqrt(0.5) eta
    for load, direction, rel in zip(
        basis.loads[1:], [np.sqrt(0.5) * phi, ratio * np.sqrt(0.5) * eta], [1e-14, 1e-8]
    ):
        ref = assemble_load(g, direction)
        assert _rel(np.copysign(1.0, load @ ref) * load, ref) <= rel
    combined = basis.coefficients @ basis.loads
    dropped = 2 * ratio * np.max(np.abs(assemble_load(g, eta)))  # what a cut direction leaves out
    for c, s in zip(combined, sset.scenarios):
        ref = assemble_load(g, sset.f + s.xi)
        assert np.max(np.abs(c - ref)) <= (1e-14 * np.max(np.abs(ref)) if kept else dropped)
    calls = _spy_cg(monkeypatch)
    solve_state(DensityField(g, np.random.default_rng(1).uniform(1.0, 2.0, g.n_cells)), basis)
    assert len(calls) == len(basis.loads)


def test_loads_are_assembled_once_per_basis(monkeypatch):
    g = GridSpec(16, 16)
    calls = []
    real = solve_module.assemble_load

    def spy(grid, g_cells):
        calls.append(g_cells)
        return real(grid, g_cells)

    monkeypatch.setattr("stodesign.solve.assemble_load", spy)
    basis = load_basis(pm_pair_set(g, 6, 3, 2))
    assert len(calls) == len(basis.loads) == 1 + 3
    calls.clear()
    a = DensityField(g, np.random.default_rng(3).uniform(1.0, 2.0, g.n_cells))
    s = solve_state(a, basis)
    solve_state(a, basis, warm_starts=s.states)
    assert calls == []


@pytest.mark.parametrize(
    "make_set", [make_case1, lambda g: pm_pair_set(g, 6, 3, 2)], ids=["case1", "pm-pairs-rank3"]
)
def test_basis_solve_holds_what_cg_returned(monkeypatch, make_set):
    # CG solves each row of basis.loads as it is, not a copy; the solve keeps
    # the x CG returned for it as that row of its states, and forms the two
    # sums the cost reads from them in load order
    g = GridSpec(16, 16)
    basis = load_basis(make_set(g))
    seen = []
    real = solve_module.cg_solve

    def spy(K, b, **kwargs):
        x, report = real(K, b, **kwargs)
        seen.append((b, x.copy(), report))
        return x, report

    monkeypatch.setattr("stodesign.solve.cg_solve", spy)
    a = DensityField(g, np.random.default_rng(3).uniform(1.0, 2.0, g.n_cells))
    s = solve_state(a, basis, tol=1e-8)
    assert len(seen) == len(basis.loads)
    assert s.states.shape == (len(basis.loads), g.n_interior)
    for (b, x, _), row, state in zip(seen, basis.loads, s.states):
        assert np.shares_memory(b, row)
        assert same_bits(state, x)
    pairing = 0
    energy = np.zeros(g.n_cells)
    for b, x, _ in seen:
        pairing += dot(b, x)
        energy += cell_grad_dot(g, x)
    assert type(s.pairing) is float and s.pairing == pairing
    assert same_bits(s.energy, energy)
    assert s.iterations == [report.iterations for *_, report in seen]
    assert s.tol == 1e-8


@pytest.mark.parametrize(
    "make_set, name",
    [
        (lambda g: make_deterministic(g, np.full(g.n_cells, 1e200)), "the mean load f"),
        (
            lambda g: ScenarioSet(
                g,
                np.ones(g.n_cells),
                [Scenario(np.full(g.n_cells, s * 1e160), 0.5) for s in (1.0, -1.0)],
            ),
            "perturbation direction 1 of 1",
        ),
    ],
    ids=["mean-1e200", "perturbation-1e160"],
)
def test_load_whose_norm_overflows_is_rejected(make_set, name):
    # every entry is finite, but ||b||^2 overflows: a run would "converge" to
    # x = 0 or to the design without the perturbation
    sset = make_set(GridSpec(8, 8))
    message = f"^{name} is too large: its assembled norm overflows$"
    with pytest.raises(ValueError, match=message):
        load_basis(sset)
    with pytest.raises(ValueError, match=message):
        run(OptimizerConfig(), sset, Objective.COMPLIANCE)


@pytest.mark.parametrize(
    "make_set",
    [make_case1, make_case2, lambda g: pm_pair_set(g, 8, 3, 3)],
    ids=["case1", "case2", "pm-pairs-k16"],
)
def test_residual_from_combined_states_matches_cold_solves(make_set):
    g = GridSpec(16, 16)
    a = DensityField(g, np.random.default_rng(11).uniform(1.0, 2.0, g.n_cells))
    sset = make_set(g)
    basis = load_basis(sset)
    states = solve_state(a, basis).states
    cold = [ref.states[0] for ref in _cold_states(a, sset, 1e-10)]
    phases = PhasePair(1.0, 2.0)
    for kind in Objective:
        res = optimality_residual(a, basis, states, kind, phases)
        ref = loop_optimality_residual(a, cold, sset.weights(), kind, phases)
        assert np.max(np.abs(res - ref)) <= 1e-8


@property_settings(25)
@given(data=st.data())
def test_energy_is_cell_grad_dot_of_state_property(data):
    # random small grids, densities in [1, 2] and +-pair scenario sets, some
    # scenarios duplicated (the weight split in two), so the set has fewer
    # covariance directions than scenarios
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
    _energy_and_cost_hold(a, ScenarioSet(g, f, scenarios))


@pytest.mark.parametrize("n, xi", [(9, 3.34e-155), (2, 1.1e-308)], ids=["9x9", "2x2"])
def test_energy_is_cell_grad_dot_of_state_on_tiny_loads(n, xi):
    # f = 0 and +-xi, loads the property test once drew: near 1e-155 CG's
    # curvature underflowed, and scaling a subnormal load up overflowed
    g = GridSpec(n, n)
    a = DensityField(g, np.random.default_rng(6).uniform(1.0, 2.0, g.n_cells))
    pm = [Scenario(np.full(g.n_cells, s * xi), 0.5) for s in (1.0, -1.0)]
    _energy_and_cost_hold(a, ScenarioSet(g, np.zeros(g.n_cells), pm))


def _energy_and_cost_hold(a: DensityField, sset: ScenarioSet):
    g = a.grid
    basis = load_basis(sset)
    s = solve_state(a, basis)
    energy = np.zeros(g.n_cells)
    for x in s.states:
        energy += cell_grad_dot(g, x)
    assert np.array_equal(s.energy, energy)
    try:
        cost(a, s, Objective.COMPLIANCE)
    except ArithmeticError:
        # the cross-check may fail only on a subnormal cost, whose sums keep few digits
        both = max(abs(s.pairing), abs(dot(a.values, s.energy) * g.cell_area))
        assert both < np.finfo(float).tiny


def test_solve_state_caps_each_load_and_counts_its_iterations():
    g = GridSpec(16, 16)
    a = DensityField(g, np.random.default_rng(4).uniform(1.0, 2.0, g.n_cells))
    basis = load_basis(make_case1(g))
    its = solve_state(a, basis).iterations
    assert len(its) >= 2 and min(its) >= 2
    assert solve_state(a, basis, max_iter=its).iterations == its
    short = its[:-1] + [its[-1] - 1]
    with pytest.raises(RuntimeError, match=rf"after {its[-1] - 1} iterations\)$"):
        solve_state(a, basis, max_iter=short)
    with pytest.raises(ValueError, match=rf"^got 1 iteration caps for {len(its)} loads$"):
        solve_state(a, basis, max_iter=[5])
