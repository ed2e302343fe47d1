import math
import re

import numpy as np
import pytest
from scipy import sparse

from stodesign.cg import cg_solve
from stodesign.fem import DensityField, GridSpec, assemble_load, assemble_stiffness
from stodesign.mg import VCycle
from stodesign.scenarios import make_case1

from oracles import eager_pcg


def _identity(n):
    return sparse.identity(n, format="csr")


def test_identity_one_iteration():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(12)
    x, report = cg_solve(_identity(12), b)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(x, b, rtol=0, atol=1e-14)


def test_diagonal_solve():
    # with its own inverse as the preconditioner, CG is exact in one step
    n = 50
    K = sparse.diags(np.arange(1.0, n + 1.0), format="csr")
    x, report = cg_solve(K, np.ones(n), M=lambda r: r / K.diagonal())
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(x, 1.0 / np.arange(1.0, n + 1.0), rtol=1e-10, atol=0)


def test_zero_rhs_short_circuits():
    x, report = cg_solve(_identity(8), np.zeros(8))
    assert report.converged
    assert report.iterations == 0
    assert np.all(x == 0.0)


def test_laplacian_matches_dense_oracle():
    g = GridSpec(16, 16)
    K = assemble_stiffness(DensityField.constant(g, 1.0))
    b = assemble_load(g, np.ones(g.n_cells))
    x, report = cg_solve(K, b, tol=1e-12)
    assert report.converged
    x_dense = np.linalg.solve(K.toarray(), b)
    assert np.max(np.abs(x - x_dense)) < 1e-8


def test_nonconvergence_reported_not_raised():
    g = GridSpec(16, 16)
    K = assemble_stiffness(DensityField.constant(g, 1.0))
    b = assemble_load(g, np.ones(g.n_cells))
    x, report = cg_solve(K, b, max_iter=2)
    assert not report.converged
    assert report.iterations == 2
    assert report.relative_residual > 0.0


def test_coefficient_scaling_inverse():
    # K(c*a) x = b has solution (1/c) * solution of K(a) x = b
    g = GridSpec(12, 12)
    b = assemble_load(g, np.ones(g.n_cells))
    K1 = assemble_stiffness(DensityField.constant(g, 1.0))
    K4 = assemble_stiffness(DensityField.constant(g, 4.0))
    x1, _ = cg_solve(K1, b, tol=1e-12)
    x4, _ = cg_solve(K4, b, tol=1e-12)
    assert np.max(np.abs(x4 - x1 / 4.0)) < 1e-10


def test_warm_start_deterministic_and_correct():
    g = GridSpec(12, 12)
    K = assemble_stiffness(DensityField.constant(g, 1.3))
    b = assemble_load(g, np.ones(g.n_cells))
    x_cold, _ = cg_solve(K, b, tol=1e-12)
    x_warm, rep = cg_solve(K, b, tol=1e-12, x0=x_cold * 0.99)
    assert rep.converged
    assert np.max(np.abs(x_warm - x_cold)) < 1e-9
    x_again, _ = cg_solve(K, b, tol=1e-12, x0=x_cold * 0.99)
    assert np.array_equal(x_warm, x_again)


def test_rejects_bad_tol_and_shape():
    K = _identity(4)
    with pytest.raises(ValueError):
        cg_solve(K, np.ones(4), tol=0.0)
    with pytest.raises(ValueError):
        cg_solve(K, np.ones(5))


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 1.0, 2.0])
def test_rejects_unusable_tol(tol):
    # a tol of 1 or more passes x = 0 as converged; nan passes nothing
    with pytest.raises(ValueError, match=re.escape(f"tol must be a finite number in (0, 1), got {tol!r}")):
        cg_solve(_identity(4), np.ones(4), tol=tol)


def test_rejects_non_finite_rhs_and_bad_x0():
    K = _identity(4)
    with pytest.raises(ValueError, match=r"rhs holds 1 non-finite values, first inf at index 2"):
        cg_solve(K, np.array([1.0, 1.0, np.inf, 1.0]))
    # ||b|| overflows, but at unit scale the residual is measurable: solved
    b = np.full(4, 1e200)
    x, report = cg_solve(K, b)
    assert report.converged and np.array_equal(x, b)
    with pytest.raises(ValueError, match=r"x0 has shape \(5,\), expected \(4,\)"):
        cg_solve(K, np.ones(4), x0=np.zeros(5))
    with pytest.raises(ValueError, match=r"x0 holds 4 non-finite values, first nan at index 0"):
        cg_solve(K, np.ones(4), x0=np.full(4, np.nan))


class _NanAfter:
    """Matrix stand-in whose products turn NaN from the `good + 1`-th on."""

    def __init__(self, K, good: int):
        self.K, self.good, self.calls = K, good, 0
        self.shape = K.shape

    def __matmul__(self, x):
        self.calls += 1
        y = self.K @ x
        return y if self.calls <= self.good else np.full_like(y, np.nan)


def test_non_finite_residual_stops_at_once():
    # a NaN entry poisons the initial residual: no iteration is run
    K = sparse.csr_matrix(np.array([[2.0, np.nan], [np.nan, 2.0]]))
    _, report = cg_solve(K, np.ones(2))
    assert (report.iterations, report.converged) == (0, False)
    # a residual that turns NaN mid-solve ends it there, not after 20*n steps
    g = GridSpec(8, 8)
    K = _NanAfter(assemble_stiffness(DensityField.constant(g, 1.0)), good=2)
    _, report = cg_solve(K, assemble_load(g, np.ones(g.n_cells)))
    assert (report.iterations, report.converged) == (2, False)


def test_overflow_is_reported_not_warned():
    # K @ p overflows to inf even at unit scale and the residual turns NaN:
    # the solve must end not converged, not emit a RuntimeWarning (an error
    # in this suite)
    K = sparse.csr_matrix(np.full((4, 4), 1e308))
    _, report = cg_solve(K, np.full(4, 1e10))
    assert (report.iterations, report.converged) == (1, False)


def test_huge_system_is_solved_at_unit_scale():
    # 1e300 * I against 1e10: K @ b overflows, K @ (scaled b) does not
    x, report = cg_solve(1e300 * _identity(4), np.full(4, 1e10))
    assert report.converged and report.iterations == 1
    assert np.allclose(x, 1e-290, rtol=1e-15, atol=0)


class _Counted:
    """Preconditioner stand-in that counts its applications."""

    def __init__(self, M):
        self.M, self.calls = M, 0

    def __call__(self, r):
        self.calls += 1
        return self.M(r)


def _v_cycle_system(nx=37, ny=23):
    g = GridSpec(nx, ny)
    a = DensityField(g, np.random.default_rng(5).uniform(1.0, 2.0, g.n_cells))
    K = assemble_stiffness(a)
    sset = make_case1(g)
    return K, assemble_load(g, sset.f + sset.scenarios[0].xi), VCycle(a, K)


def test_preconditioner_runs_once_per_iteration():
    K, b, M = _v_cycle_system()
    for x0 in (None, np.full(K.shape[0], 0.01)):
        spy = _Counted(M)
        x, report = cg_solve(K, b, tol=1e-10, x0=x0, M=spy)
        assert report.converged and report.iterations > 1
        assert spy.calls == report.iterations
        # a start that already meets tol costs no application at all
        spy = _Counted(M)
        _, again = cg_solve(K, b, tol=1e-10, x0=x, M=spy)
        assert (again.iterations, again.converged, spy.calls) == (0, True, 0)
    spy = _Counted(M)
    _, capped = cg_solve(K, b, max_iter=3, M=spy)
    assert (capped.iterations, capped.converged, spy.calls) == (3, False, 3)


def test_matches_eager_preconditioning_bitwise():
    # applying M only to residuals that fail the test changes no number
    K, b, M = _v_cycle_system()
    x_cold, _ = eager_pcg(K, b, tol=1e-10, max_iter=1000, M=M)
    warm = 0.9 * x_cold + 0.01
    for x0 in (None, warm):
        x, report = cg_solve(K, b, tol=1e-10, x0=x0, M=M)
        x_ref, ref = eager_pcg(K, b, tol=1e-10, max_iter=1000, M=M, x0=x0)
        assert np.array_equal(x, x_ref)
        assert report == ref
        assert report.converged and report.iterations > 1


def test_tiny_rhs_is_solved_as_if_scaled():
    # entries near 1e-157 make products that underflow, dot(p, Kp) to zero
    # among them: the solve must be the unit-scale one, scaled, bit for bit
    K, b, M = _v_cycle_system()
    b = b * 2.0 ** -math.frexp(np.abs(b).max())[1]
    x, report = cg_solve(K, b, M=M)
    tiny = 2.0**-520
    x_tiny, report_tiny = cg_solve(K, b * tiny, M=M)
    assert report.converged and report_tiny == report
    assert x_tiny.tobytes() == (x * tiny).tobytes()
    warm = 0.9 * x + 0.01
    assert cg_solve(K, b * tiny, x0=warm * tiny, M=M)[0].tobytes() == (
        cg_solve(K, b, x0=warm, M=M)[0] * tiny
    ).tobytes()


def test_subnormal_rhs_is_solved():
    # entries below 2**-1022: the factor 2**-e that scales them up overflows,
    # and a start the scaling takes past the float range starts from zero
    K, b, M = _v_cycle_system()
    x, report = cg_solve(K, b / np.abs(b).max(), M=M)
    tiny = 2.0**-1040
    for x0 in (None, np.full(len(b), 1e300)):
        x_tiny, report_tiny = cg_solve(K, b / np.abs(b).max() * tiny, x0=x0, M=M)
        assert report_tiny.converged
        assert np.abs(x_tiny / tiny - x).max() <= 1e-6 * np.abs(x).max()


def test_non_finite_solution_is_not_converged():
    # r -= alpha*Kp lands exactly on zero at unit scale, and x, finite there,
    # overflows to inf when it is scaled back to the load's size
    x, report = cg_solve(1e-300 * _identity(4), np.full(4, 1e10))
    assert not np.isfinite(x).all()
    assert report.relative_residual == 0.0
    assert not report.converged


def _k_error(K, b, x):
    e = x - np.linalg.solve(K.toarray(), b)
    return float(np.sqrt(e @ (K @ e)))


def _stiffness_states(nx=37, ny=23, h=2):
    """K and b of one design, and the states of h designs along a path to it, newest first."""
    g = GridSpec(nx, ny)
    rng = np.random.default_rng(11)
    a0, da = rng.uniform(1.0, 2.0, g.n_cells), rng.uniform(-0.1, 0.1, g.n_cells)
    b = assemble_load(g, make_case1(g).f)
    states = []
    for t in range(h + 1):
        K = assemble_stiffness(DensityField(g, a0 + 0.02 * t * da))
        states.append(cg_solve(K, b, tol=1e-12)[0])
    return K, b, np.array(states[-2::-1])


def test_start_is_used_as_given():
    # no iteration leaves x at the start, bit for bit: cg_solve does not move it
    K, b, X = _stiffness_states()
    x, report = cg_solve(K, b, x0=X[0], max_iter=0)
    assert x.tobytes() == X[0].tobytes() and report.iterations == 0
    residual = np.linalg.norm(b - K @ X[0]) / np.linalg.norm(b)
    assert report.relative_residual == pytest.approx(residual, rel=1e-12)


def test_stacked_start_on_stiffness_states():
    # along a smooth path of designs, the start 2 x_k - x_(k-1) formed from
    # the stack of the last two states predicts the next state far better
    # than x_k alone, and CG needs fewer iterations from it
    K, b, X = _stiffness_states()
    extrapolated = 2.0 * X[0] - X[1]
    assert _k_error(K, b, extrapolated) < 0.01 * _k_error(K, b, X[0])
    its = [cg_solve(K, b, tol=1e-6, x0=x0)[1].iterations for x0 in (X[0], extrapolated)]
    assert 2 * its[1] < its[0]


def test_solution_never_aliases_the_starts():
    # the start is read in place; one that meets tol is returned as a copy, so
    # the caller's start, a design loop's accepted state, never changes under it
    K, b, M = _v_cycle_system()
    x_cold, _ = eager_pcg(K, b, tol=1e-10, max_iter=1000, M=M)
    for x0 in (x_cold, 0.9 * x_cold + 0.01):
        kept = x0.copy()
        x, report = cg_solve(K, b, tol=1e-10, x0=x0, M=M)
        assert report.converged and not np.shares_memory(x, x0)
        x += 1.0
        assert np.array_equal(x0, kept)


def test_rejects_bad_stack_of_starts():
    # x0 is one start: a stack of them, of any shape, is refused
    K = _identity(4)
    for shape in [(1, 4), (2, 4), (2, 5), (0, 4), (1, 2, 4)]:
        expected = re.escape(f"x0 has shape {shape}, expected (4,)")
        with pytest.raises(ValueError, match=expected):
            cg_solve(K, np.ones(4), x0=np.zeros(shape))
