"""Preconditioned conjugate gradient solver for sparse SPD systems.

The state solves pass the multigrid V-cycle of `stodesign.mg` as the
preconditioner; without one, this is plain CG. A design loop starts each
solve from the best combination of its load's last accepted states
(projection of previous solutions: Fischer, Comput. Methods Appl. Mech.
Engrg. 163, 1998).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse


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
    K: sparse.spmatrix,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
    M: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve K x = b with preconditioned conjugate gradients.

    Args:
        K: SPD system matrix in any sparse format; only K @ x and K.shape
            are used.
        b: right-hand side.
        tol: relative tolerance on the true residual, ||Kx - b|| <= tol*||b||.
        max_iter: iteration cap, defaults to 20*n.
        x0: optional start (zero if omitted): an (h, n) stack of solutions
            of nearby systems, row 0 the preferred one; a vector is a stack
            of one row. The solve starts from row 0 if that meets tol, else
            from the point of the stack's span nearest the solution in the
            K-norm (`_best_start`), which is never farther than row 0.
        M: SPD preconditioner r -> z, an approximation of K^-1 r; the
            identity if omitted.

    Returns:
        (x, SolveReport). A non-converged solve returns the last iterate with
        converged=False; the caller decides how to proceed. A residual norm
        that is not finite ends the solve at once, not converged, and so does
        an x that is not finite. Arithmetic past the float range raises no
        numpy warning: the report shows it.

    M is applied only to a residual that fails the tolerance test, once per
    iteration: a solve of `iterations` steps applies it that many times, and
    an x0 that already meets tol costs no application at all.

    Raises ValueError for a non-positive tol, a b that is not a finite
    vector of length n or whose norm overflows, or an x0 that is not a
    finite vector or stack of vectors of length n.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = K.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    _require_finite("rhs", b)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape[-1:] != (n,) or x0.ndim > 2 or len(x0) == 0:
            raise ValueError(f"x0 has shape {x0.shape}, expected ({n},) or (h, {n})")
        x0 = x0.reshape(-1, n)
        for j, row in enumerate(x0):
            _require_finite(f"x0 row {j}", row)
    if max_iter is None:
        max_iter = 20 * n

    b_norm = math.sqrt(dot(b, b))
    if not np.isfinite(b_norm):  # no residual could be measured against it
        raise ValueError(f"rhs norm overflows, largest magnitude {float(np.abs(b).max())!r}")
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    if M is None:
        M = np.copy

    x = np.zeros(n) if x0 is None else x0[0]
    r = b - (K @ x)
    r_norm = math.sqrt(dot(r, r))
    # a row 0 that meets tol is kept, copied: an unchanged system keeps its solution
    if x0 is not None and r_norm > tol * b_norm:
        x, r = _best_start(K, b, x0, r)
        r_norm = math.sqrt(dot(r, r))
    elif x0 is not None:
        x = np.array(x)
    p = rz = None
    it = 0
    # the preconditioner runs only on a residual that failed the test. Past
    # the float range the report shows the failure, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        while r_norm > tol * b_norm and np.isfinite(r_norm) and it < max_iter:
            z = M(r)
            rz_new = dot(r, z)
            p = z.copy() if p is None else z + (rz_new / rz) * p
            rz = rz_new
            Kp = K @ p
            alpha = rz / dot(p, Kp)
            x += alpha * p
            r -= alpha * Kp
            r_norm = math.sqrt(dot(r, r))
            it += 1

    # x += alpha*p can overflow while r lands on zero: that x solves nothing
    converged = r_norm <= tol * b_norm and bool(np.isfinite(x).all())
    return x, SolveReport(it, r_norm / b_norm, converged)


def _best_start(
    K: sparse.spmatrix, b: np.ndarray, X: np.ndarray, r0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The point of the span of X's rows nearest K^-1 b in the K-norm, and its residual.

    With Q an orthonormal basis of the span, that point is Q^T c with
    (Q K Q^T) c = Q b; G = Q K Q^T is SPD, its condition no worse than K's up
    to the rounding of Q's orthonormality, even where X's rows are nearly
    parallel. Q = R^-T X, with R from the QR factorization of X^T. X[0] lies
    in the span, so the point is never farther than X[0]: where the
    projection is not finite, G is not positive definite or rounding makes
    the point farther, the start is X[0] with its residual r0.
    """
    with np.errstate(all="ignore"):
        try:
            Q = np.linalg.inv(np.linalg.qr(X.T, mode="r")).T @ X
            G = np.empty((len(Q), len(Q)))
            for j, q in enumerate(Q):  # one row at a time: no (h, n) product
                G[:, j] = np.einsum("hn,n->h", Q, K @ q)
            G = 0.5 * (G + G.T)
            np.linalg.cholesky(G)  # raises unless G is positive definite
            x = np.linalg.solve(G, np.einsum("hn,n->h", Q, b)) @ Q
            r = b - K @ x
            # x.Kx - 2 b.x, the squared K-norm error up to a constant, is -x.(b + r);
            # it is finite only where x is
            gain = dot(x, b + r)
            if np.isfinite(gain) and gain >= dot(X[0], b + r0):
                return x, r
        except np.linalg.LinAlgError:
            pass
    return np.array(X[0]), r0
