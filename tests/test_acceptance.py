"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The six reference optimizations (both cost kinds, three load cases,
64x64) are shared through a session fixture.
"""
import time

import numpy as np
import pytest

from stodesign.cli import compare_runs, region_masks, write_cell_csv
from stodesign.fem import (
    DensityField,
    GridSpec,
    integrate_cells,
)
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
from stodesign.objective import (
    Objective,
    cost,
    gradient_density,
)
from stodesign.optimizer import OptimizerConfig, run
from stodesign.scenarios import (
    make_case1,
    make_case2,
    make_deterministic,
    validate,
)
from stodesign.solve import load_basis, solve_state

from oracles import (
    expected_decomposition_check,
    l2_error,
    loop_optimality_residual,
    sample_cells,
    scenario_fields,
)

PHASES = PhasePair(1.0, 2.0)
MASS = 1.5


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS: {detail}")


@pytest.fixture(scope="session")
def reference_runs():
    """The six 64x64 optimizations at default settings."""
    grid = GridSpec(64, 64)
    sets = {
        "deterministic": make_deterministic(grid, np.ones(grid.n_cells)),
        "case1": make_case1(grid),
        "case2": make_case2(grid),
    }
    results = {}
    for kind in (Objective.COMPLIANCE, Objective.ENERGY):
        for name, sset in sets.items():
            start = time.perf_counter()
            result = run(OptimizerConfig(eps=64.0), sset, kind)
            elapsed = time.perf_counter() - start
            results[(kind, name)] = (result, elapsed)
    return grid, results


def test_criterion_01_discretization_order():
    start = time.perf_counter()

    def l2_at(n):
        g = GridSpec(n, n)
        f = sample_cells(
            g, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        s = solve_state(DensityField.constant(g, 1.0), load_basis(make_deterministic(g, f)))
        return l2_error(g, s.states[0], lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))

    ratio = l2_at(32) / l2_at(64)
    elapsed = time.perf_counter() - start
    assert 3.6 <= ratio <= 4.4
    assert elapsed < 10.0
    _report(1, f"L2 error ratio 32->64 is {ratio:.4f} in [3.6, 4.4] ({elapsed:.2f}s)")


def test_criterion_02_compliance_value():
    start = time.perf_counter()
    g = GridSpec(64, 64)
    f = sample_cells(
        g, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    a = DensityField.constant(g, 1.0)
    value = cost(a, solve_state(a, load_basis(make_deterministic(g, f))), Objective.COMPLIANCE)
    elapsed = time.perf_counter() - start
    exact = np.pi**2 / 2.0
    rel = abs(value - exact) / exact
    assert rel <= 0.01
    assert elapsed < 10.0
    _report(2, f"compliance {value:.6f} vs pi^2/2 within {rel:.2e} ({elapsed:.2f}s)")


def test_criterion_03_adjoint_gradient():
    start = time.perf_counter()
    g = GridSpec(8, 8)
    sset = make_deterministic(g, np.ones(g.n_cells))
    a0 = DensityField.constant(g, 1.5)
    tol = 1e-12
    grad = gradient_density(solve_state(a0, load_basis(sset), tol=tol), Objective.COMPLIANCE)

    def compliance(a):
        return cost(a, solve_state(a, load_basis(sset), tol=tol), Objective.COMPLIANCE)

    delta = 1e-5
    rng = np.random.default_rng(2024)
    worst = 0.0
    for c in rng.choice(g.n_cells, 20, replace=False):
        ap, am = a0.copy(), a0.copy()
        ap.values[c] += delta
        am.values[c] -= delta
        fd = (compliance(ap) - compliance(am)) / (2 * delta)
        adjoint = -g.cell_area * grad[c]
        rel = abs(adjoint - fd) / abs(fd)
        worst = max(worst, rel)
        assert rel <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"20 directions, worst relative error {worst:.2e} <= 1e-4 ({elapsed:.2f}s)")


def test_criterion_04_mass_conservation(reference_runs):
    _, results = reference_runs
    result, _ = results[(Objective.COMPLIANCE, "deterministic")]
    worst = max(abs(rec.mass - MASS) for rec in result.history)
    assert worst <= 1e-10
    _report(4, f"all {len(result.history)} iterates within {worst:.2e} of mass 1.5")


def test_criterion_05_monotone_descent(reference_runs):
    _, results = reference_runs
    checked = 0
    for (kind, name), (result, _) in results.items():
        c = [rec.cost for rec in result.history]
        assert all(b <= a for a, b in zip(c, c[1:])), (kind, name)
        checked += len(c)
    _report(5, f"cost non-increasing across {checked} records in 6 logs")


def test_criterion_06_zero_mean_scenarios():
    worst = 0.0
    for grid in (GridSpec(64, 64), GridSpec(32, 32), GridSpec(8, 8)):
        for sset in (make_case1(grid), make_case2(grid)):
            assert validate(sset) == []
            mean = np.zeros(grid.n_cells)
            for s in sset.scenarios:
                mean += s.weight * s.xi
            worst = max(worst, float(np.max(np.abs(mean))))
    assert worst <= 1e-12
    _report(6, f"case builders zero-mean to {worst:.1e} <= 1e-12")


def test_criterion_07_linearity_decomposition():
    g = GridSpec(32, 32)
    a = DensityField.constant(g, 1.5)
    lhs, rhs = expected_decomposition_check(a, make_case1(g))
    gap = abs(lhs - rhs)
    assert gap <= 1e-8
    det = cost(
        a,
        solve_state(a, load_basis(make_deterministic(g, np.ones(g.n_cells)))),
        Objective.COMPLIANCE,
    )
    assert lhs >= det
    _report(
        7,
        f"decomposition gap {gap:.2e} <= 1e-8; expected {lhs:.8f} >= deterministic {det:.8f}",
    )


def test_criterion_08_gclosure_suite():
    start = time.perf_counter()
    assert harmonic_mean(0.5, PHASES) == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert arithmetic_mean(0.5, PHASES) == pytest.approx(1.5, abs=1e-14)

    M = SymmetricTensor2.diag(4.0 / 3.0, 1.5)
    assert in_gclosure(M, 0.5, PHASES)
    lam = M.eigenvalues()
    assert sum(1.0 / (li - 1.0) for li in lam) == pytest.approx(5.0, abs=1e-10)
    assert sum(1.0 / (2.0 - li) for li in lam) == pytest.approx(3.5, abs=1e-10)
    assert not in_gclosure(SymmetricTensor2.isotropic(4.0 / 3.0), 0.5, PHASES)

    for theta in np.linspace(0.0, 1.0, 101):
        assert volume_fraction(
            arithmetic_mean(theta, PHASES), Objective.COMPLIANCE, PHASES
        ) == pytest.approx(theta, abs=1e-12)
        assert volume_fraction(
            harmonic_mean(theta, PHASES), Objective.ENERGY, PHASES
        ) == pytest.approx(theta, abs=1e-12)

    rng = np.random.default_rng(7)
    for _ in range(100):
        theta = float(rng.uniform(0.0, 1.0))
        angle = float(rng.uniform(0.0, 2 * np.pi))
        M = rank_one_laminate(theta, PHASES, np.array([np.cos(angle), np.sin(angle)]))
        assert in_gclosure(M, theta, PHASES)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(8, f"bounds, membership, round trip and laminates pass ({elapsed:.2f}s)")


def test_criterion_09_qualitative_reproduction(reference_runs, tmp_path):
    grid, results = reference_runs
    for (kind, name), (_, elapsed) in results.items():
        assert elapsed <= 300.0, f"{kind} {name} took {elapsed:.0f}s"
    masks = region_masks(grid)

    def mass_in(result, region):
        return integrate_cells(grid, result.density.values * masks[region])

    # (a) quarter-turn invariance of the deterministic compliance optimum
    det_c, _ = results[(Objective.COMPLIANCE, "deterministic")]
    arr = det_c.density.values.reshape(grid.ny, grid.nx)
    rot_l1 = integrate_cells(grid, np.abs(arr - np.rot90(arr)).ravel())
    assert rot_l1 <= 1e-6 * MASS

    # (b) center-square mass grows under the center perturbation
    case1_c, _ = results[(Objective.COMPLIANCE, "case1")]
    gain_d0 = mass_in(case1_c, "d0") - mass_in(det_c, "d0")
    assert gain_d0 > 0.0

    # (c) boundary-region mass grows under the boundary perturbation
    case2_c, _ = results[(Objective.COMPLIANCE, "case2")]
    gain_d1 = mass_in(case2_c, "d1") - mass_in(det_c, "d1")
    assert gain_d1 > 0.0

    # (d) energy: corner mass up in case1, down in case2
    det_e, _ = results[(Objective.ENERGY, "deterministic")]
    case1_e, _ = results[(Objective.ENERGY, "case1")]
    case2_e, _ = results[(Objective.ENERGY, "case2")]
    gain_corner = mass_in(case1_e, "corners") - mass_in(det_e, "corners")
    drop_corner = mass_in(det_e, "corners") - mass_in(case2_e, "corners")
    assert gain_corner > 0.0
    assert drop_corner > 0.0

    # same directions through the run-directory comparison surface
    for name, result in (("det", det_c), ("case2", case2_c)):
        d = tmp_path / name
        d.mkdir()
        write_cell_csv(d / "density.csv", result.density.grid, result.density.values)
    report = compare_runs(tmp_path / "det", tmp_path / "case2")
    assert report["mass_d1_delta"] > 0.0
    assert report["l1_distance"] > 0.0
    _report(
        9,
        f"rotation L1 {rot_l1:.2e} <= 1.5e-6; d0 +{gain_d0:.4f}; d1 +{gain_d1:.4f}; "
        f"corners +{gain_corner:.4f} (case1) / -{drop_corner:.4f} (case2)",
    )


def test_criterion_10_stationarity_decrease(reference_runs):
    _, results = reference_runs
    result, _ = results[(Objective.COMPLIANCE, "deterministic")]
    first = result.history[0].stationarity
    final = result.history[-1].stationarity
    ratio = first / final
    assert ratio >= 1e3
    _report(10, f"stationarity {first:.3e} -> {final:.3e}, reduction {ratio:.1e} >= 1e3")


def test_criterion_11_mesh_convergence():
    # compliance b^T x of a unit load on a fixed smooth coefficient: Q1 energy
    # converges at order 2, so successive differences shrink by 4
    start = time.perf_counter()
    costs = []
    for n in (64, 128, 256, 512):
        g = GridSpec(n, n)
        a = DensityField(
            g, sample_cells(g, lambda x, y: 1.5 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
        )
        s = solve_state(a, load_basis(make_deterministic(g, np.ones(g.n_cells))))
        costs.append(cost(a, s, Objective.COMPLIANCE))
    c = np.array(costs)
    orders = np.log2((c[:-2] - c[1:-1]) / (c[1:-1] - c[2:]))
    elapsed = time.perf_counter() - start
    assert np.all((1.9 <= orders) & (orders <= 2.1))
    _report(
        11,
        "compliance "
        + ", ".join(f"c({n})={v:.10f}" for n, v in zip((64, 128, 256, 512), costs))
        + f"; observed order {orders[0]:.4f}, {orders[1]:.4f} in [1.9, 2.1] ({elapsed:.2f}s)",
    )


def test_residual_matches_loop_oracle_on_reference_designs(reference_runs):
    _, results = reference_runs
    worst = 0.0
    for (kind, _), (result, _) in results.items():
        basis, states = result.basis, result.states
        res = optimality_residual(result.density, basis, states, kind, PHASES)
        fields = scenario_fields(basis, states)
        ref = loop_optimality_residual(result.density, fields, basis.weights, kind, PHASES)
        worst = max(worst, float(np.max(np.abs(res - ref))))
    assert worst <= 1e-14
