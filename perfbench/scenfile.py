"""Seeded generator for the `scenfile-64-k16` scenario file.

The set has K = 16 scenarios in 8 pairs (+xi_p, -xi_p) of equal weight, so
the weighted perturbation mean is exactly zero in floating point: the running
sum returns to 0.0 after each pair, in the loader and in `validate` alike.
Each xi_p is a combination of RANK smooth sine modes. The seed draws the pair
weights and the mode coefficients, which are then whitened so that the
weighted covariance sum_k w_k xi_k xi_k^T equals sum_j s_j^2 phi_j phi_j^T
for fixed mode amplitudes s_j.

With zero-mean perturbations the expected compliance and its gradient depend
on the scenarios only through f and that covariance, so every seed poses the
same design problem with different input data: the scenario fields, the
weights and the per-scenario solves all change with the seed, the optimum does
not. This lets one stored reference optimum serve any seed.

Run as a script to write a file: python3 perfbench/scenfile.py SEED PATH
"""
from __future__ import annotations

import sys

import numpy as np

N = 64
PAIRS = 8  # K = 2 * PAIRS scenarios
MODES = ((1, 2), (2, 1), (2, 2))  # (m, n) of sin(m pi x) sin(n pi y)
AMPLITUDES = (1.0, 0.8, 0.6)  # s_j, the standard deviation along each mode
RANK = len(MODES)


def mode_fields(n: int = N) -> np.ndarray:
    """(RANK, n*n) sine modes sampled at the cell centers of the unit square."""
    c = (np.arange(n) + 0.5) / n
    yy, xx = np.meshgrid(c, c, indexing="ij")  # row-major cells, x fastest
    return np.stack(
        [(np.sin(m * np.pi * xx) * np.sin(k * np.pi * yy)).ravel() for m, k in MODES]
    )


def pair_coefficients(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pair weights (summing to 1) and whitened (PAIRS, RANK) coefficients.

    The coefficients satisfy C^T diag(w) C = diag(AMPLITUDES)^2.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, PAIRS)
    w /= w.sum()
    c = rng.standard_normal((PAIRS, RANK))
    chol = np.linalg.cholesky(c.T @ (w[:, None] * c))
    c = np.linalg.solve(chol, c.T).T * np.asarray(AMPLITUDES)
    return w, c


def make_scenario_set(seed: int, n: int = N):
    """The scenario set of one seed: f = 1 and 2*PAIRS weighted perturbations."""
    from stodesign import GridSpec, Scenario, ScenarioSet

    grid = GridSpec(n, n)
    w, coef = pair_coefficients(seed)
    xis = coef @ mode_fields(n)
    scenarios = []
    for wp, xi in zip(w, xis):
        scenarios += [Scenario(xi, 0.5 * wp), Scenario(-xi, 0.5 * wp)]
    return ScenarioSet(grid, np.ones(grid.n_cells), scenarios)


def write_scenario_file(seed: int, path, n: int = N) -> None:
    from stodesign import save_scenario_file

    save_scenario_file(make_scenario_set(seed, n), path)


if __name__ == "__main__":
    write_scenario_file(int(sys.argv[1]), sys.argv[2])
