"""Preconditioned conjugate gradient solver for sparse SPD systems.

The state solves pass the multigrid V-cycle of `stodesign.mg` as the
preconditioner; without one, this is plain CG. A design loop starts each
solve from the linear extrapolation of its load's last two accepted states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class SolveReport:
    """Outcome of one linear solve."""

    iterations: int
    relative_residual: float
    converged: bool


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y, summed on one thread in one fixed order.

    A BLAS dot splits long vectors across its threads, so its rounding
    depends on the thread count; this one does not.
    """
    return float(np.einsum("i,i->", x, y))


def _require_finite(name: str, v: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(
            f"{name} holds {bad.size} non-finite values, "
            f"first {float(v[bad[0]])!r} at index {bad[0]}"
        )


def cg_solve(
    K,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
    M: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve K x = b with preconditioned conjugate gradients.

    Args:
        K: SPD system matrix, a `stodesign.fem.Stencil` or any matrix
            object: only K @ x and K.shape are used.
        b: right-hand side.
        tol: relative tolerance on the true residual, ||Kx - b|| <= tol*||b||.
        max_iter: iteration cap, defaults to 20*n.
        x0: optional start, zero if omitted. It is read, never written.
        M: SPD preconditioner r -> z, an approximation of K^-1 r; the
            identity if omitted. z is read, never written, and only before
            M is called again, so M may return an array it reuses.

    Returns:
        (x, SolveReport). A non-converged solve returns the last iterate with
        converged=False; the caller decides how to proceed. A residual norm
        that is not finite ends the solve at once, not converged, and so does
        an x that is not finite. Arithmetic past the float range raises no
        numpy warning: the report shows it.

    x, r and p are updated in place, and K p, once it has updated r, holds
    alpha p for x: an iteration allocates only K p and whatever M allocates.

    M is applied only to a residual that fails the tolerance test, once per
    iteration: a solve of `iterations` steps applies it that many times, and
    an x0 that already meets tol costs no application at all.

    CG is linear in b: it solves b scaled by the power of two that brings its
    largest entry into [0.5, 1), which is exact, so that no product under- or
    overflows for the size of the load alone.

    Raises ValueError for a tol that is not a finite number in (0, 1), or a b
    or an x0 that is not a finite vector of length n.
    """
    if not 0.0 < tol < 1.0:  # nan fails both comparisons
        raise ValueError(f"tol must be a finite number in (0, 1), got {tol!r}")
    n = K.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    _require_finite("rhs", b)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
        _require_finite("x0", x0)
    if max_iter is None:
        max_iter = 20 * n

    if not b.any():  # a subnormal b's norm underflows to 0, but it is no zero load
        return np.zeros(n), SolveReport(0, 0.0, True)
    # ldexp, not a factor 2**e: that factor overflows for a subnormal b. A
    # start that the scaling takes past the float range is dropped
    e = -math.frexp(float(np.abs(b).max()))[1]
    with np.errstate(over="ignore"):
        x = np.zeros(n) if x0 is None else np.ldexp(x0, e)
    if not np.isfinite(x).all():
        x = np.zeros(n)
    if M is None:
        M = np.copy

    r = np.ldexp(b, e)  # the scaled b, until K x is taken off it
    b_norm = math.sqrt(dot(r, r))
    r -= K @ x
    r_norm = math.sqrt(dot(r, r))
    p = rz = None
    it = 0
    # the preconditioner runs only on a residual that failed the test. Past
    # the float range the report shows the failure, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        while r_norm > tol * b_norm and np.isfinite(r_norm) and it < max_iter:
            z = M(r)
            rz_new = dot(r, z)
            if p is None:
                p = z.copy()
            else:  # p = z + beta p, in place: IEEE addition commutes
                p *= rz_new / rz
                p += z
            rz = rz_new
            Kp = K @ p
            alpha = rz / dot(p, Kp)
            r -= np.multiply(alpha, Kp, out=Kp)
            x += np.multiply(alpha, p, out=Kp)
            r_norm = math.sqrt(dot(r, r))
            it += 1
        np.ldexp(x, -e, out=x)
    # x can overflow, stepped or scaled back, while r lands on zero: it solves nothing
    converged = r_norm <= tol * b_norm and bool(np.isfinite(x).all())
    return x, SolveReport(it, r_norm / b_norm, converged)

