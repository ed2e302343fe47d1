"""Effective-tensor bounds for two-phase isotropic mixtures and laminate checks.

For phases alpha*I and beta*I mixed in proportion theta, the achievable
effective tensors are the symmetric matrices whose eigenvalues lie between
the harmonic and arithmetic means of the phases and satisfy two trace
bounds. Rank-one laminates realize the extreme points: eigenvalue equal to
the harmonic mean across the layers, arithmetic mean along them.

The fraction and mean formulas take scalars or per-cell arrays alike; the
optimality residual forms the gap between the means in closed form instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import DensityField, cell_gradients
from .objective import Objective
from .solve import LoadBasis


@dataclass(frozen=True)
class PhasePair:
    """The two isotropic phase conductivities, 0 < alpha < beta.

    alpha must be a normal float: for a subnormal one, 1/alpha overflows.
    Equal bounds leave no span for the barrier or the volume fraction.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not np.finfo(float).tiny <= self.alpha < self.beta:
            raise ValueError(
                f"phase bounds must satisfy {np.finfo(float).tiny} <= alpha < beta, "
                f"got alpha = {self.alpha}, beta = {self.beta}"
            )


@dataclass(frozen=True)
class SymmetricTensor2:
    """2x2 symmetric tensor stored as (a11, a22, a12); the entries may be per-cell arrays."""

    a11: float
    a22: float
    a12: float = 0.0

    @classmethod
    def isotropic(cls, value: float) -> "SymmetricTensor2":
        return cls(value, value, 0.0)

    @classmethod
    def diag(cls, d1: float, d2: float) -> "SymmetricTensor2":
        return cls(d1, d2, 0.0)

    def eigenvalues(self) -> tuple[float, float]:
        """Closed-form eigenvalues, ascending."""
        mid = 0.5 * (self.a11 + self.a22)
        rad = np.hypot(0.5 * (self.a11 - self.a22), self.a12)
        return mid - rad, mid + rad


def _first_bad(values, ok) -> str:
    """The first value failing `ok`, and how many fail when several do."""
    bad = np.extract(np.logical_not(ok), values)
    more = f" (first of {bad.size} bad values)" if bad.size > 1 else ""
    return f"{float(bad[0])}{more}"


def _check_theta(theta):
    t = np.asarray(theta, dtype=float)
    inside = (t >= 0.0) & (t <= 1.0)
    if not np.all(inside):
        raise ValueError(
            f"volume fraction must lie in [0, 1], got {_first_bad(t, inside)}"
        )
    return t if t.ndim else float(t)


def harmonic_mean(theta: float, phases: PhasePair) -> float:
    """Harmonic mean of the phases with weight theta on alpha.

    The smallest achievable effective eigenvalue at this fraction.
    """
    theta = _check_theta(theta)
    return 1.0 / (theta / phases.alpha + (1.0 - theta) / phases.beta)


def arithmetic_mean(theta: float, phases: PhasePair) -> float:
    """Arithmetic mean theta*alpha + (1-theta)*beta, the largest eigenvalue."""
    theta = _check_theta(theta)
    return theta * phases.alpha + (1.0 - theta) * phases.beta


def _inv_or_inf(x: float) -> float:
    return np.inf if x <= 0.0 else 1.0 / x


def in_gclosure(M: SymmetricTensor2, theta: float, phases: PhasePair) -> bool:
    """Membership test for the set of effective tensors at fraction theta.

    Checks the eigenvalue bracket [harmonic, arithmetic] and the two trace
    bounds (d = 2):

        sum_i 1/(lam_i - alpha) <= 1/(lam_minus - alpha) + 1/(lam_plus - alpha)
        sum_i 1/(beta - lam_i)  <= 1/(beta - lam_minus) + 1/(beta - lam_plus)

    within a factor 1 +- 1e-10. A denominator at zero counts as +inf, so tensors
    touching a pure phase fail unless the fraction is the matching endpoint,
    where the set degenerates to that single isotropic tensor.
    """
    tol = 1e-10
    theta = _check_theta(theta)
    lam_minus = harmonic_mean(theta, phases)
    lam_plus = arithmetic_mean(theta, phases)
    lam = M.eigenvalues()

    for li in lam:
        if li < lam_minus * (1.0 - tol) or li > lam_plus * (1.0 + tol):
            return False

    lower_sum = sum(_inv_or_inf(li - phases.alpha) for li in lam)
    lower_cap = _inv_or_inf(lam_minus - phases.alpha) + _inv_or_inf(lam_plus - phases.alpha)
    if lower_sum > lower_cap * (1.0 + tol):
        return False
    upper_sum = sum(_inv_or_inf(phases.beta - li) for li in lam)
    upper_cap = _inv_or_inf(phases.beta - lam_minus) + _inv_or_inf(phases.beta - lam_plus)
    if upper_sum > upper_cap * (1.0 + tol):
        return False
    return True


def rank_one_laminate(
    theta: float, phases: PhasePair, normal: np.ndarray
) -> SymmetricTensor2:
    """Effective tensor of a single-direction layering.

    `normal` must be a unit vector (within 1e-12), or an array of them with
    shape (..., 2) matching theta; the tensor has the harmonic mean along it
    and the arithmetic mean across it.
    """
    theta = _check_theta(theta)
    n = np.asarray(normal, dtype=float)
    if n.shape[-1:] != (2,):
        raise ValueError("lamination normal must be a 2-vector")
    n0, n1 = n[..., 0], n[..., 1]
    norm = np.hypot(n0, n1)
    unit = np.abs(norm - 1.0) <= 1e-12
    if not np.all(unit):
        raise ValueError(
            f"lamination normal must be a unit vector, got |n|={_first_bad(norm, unit)}"
        )
    lam_minus = harmonic_mean(theta, phases)
    lam_plus = arithmetic_mean(theta, phases)
    # lam_minus n nT + lam_plus (I - n nT)
    d = lam_minus - lam_plus
    return SymmetricTensor2(
        a11=lam_plus + d * n0 * n0,
        a22=lam_plus + d * n1 * n1,
        a12=d * n0 * n1,
    )


def _check_coefficient(a, phases: PhasePair) -> None:
    inside = (phases.alpha <= a) & (a <= phases.beta)
    if not np.all(inside):
        raise ValueError(
            f"coefficient {_first_bad(a, inside)} outside [{phases.alpha}, {phases.beta}]"
        )


def volume_fraction(a, kind: Objective, phases: PhasePair):
    """Fraction theta whose optimal mean equals the coefficient a (scalar or array).

    Inverts the arithmetic mean for compliance and the harmonic mean for
    energy, the mean each cost kind realizes at optimality.
    """
    _check_coefficient(a, phases)
    span = phases.beta - phases.alpha
    if kind is Objective.COMPLIANCE:
        return (phases.beta - a) / span
    return (phases.alpha / a) * (phases.beta - a) / span


def optimality_residual(
    a_final: DensityField, basis: LoadBasis, states: np.ndarray, kind: Objective, phases: PhasePair
) -> np.ndarray:
    """Cell-wise alignment residual of the converged design.

    Row i of `states` is the interior-node state of `basis.loads[i]`
    (`RunResult.states`); scenario k's state u_k = coefficients[k] @ states,
    of weight w_k, is formed one at a time.

    Per cell, the best single lamination direction is the dominant direction
    d = (cos phi, sin phi), phi = atan2(2 S12, S11 - S22) / 2, of the weighted
    second moment S = sum_k w_k grad(u_k) grad(u_k)^T (d = (1, 0) when S = 0);
    the layers run along d for compliance and across it for energy. The
    residual of that rank-one laminate M* is

        sum_k w_k ||M* grad(u_k) - a grad(u_k)|| / sum_k w_k ||grad(u_k)||

    in closed form, 0 where every gradient is zero. The fraction makes a one
    of M*'s eigenvalues, so the defect has one component. For compliance a is
    the arithmetic mean, the normal n is orthogonal to d and M* v - a v =
    (lam_minus - a)(n.v) n; for energy a is the harmonic mean, n = d and
    M* v - a v = (lam_plus - a)(v - (d.v) d). Both have norm gap |d_perp . v|,
    gap = (a - alpha)(beta - a)/(alpha + beta - a) or (beta - a)(a - alpha)/a.

    The residual vanishes wherever one direction serves every scenario, in
    particular for a single deterministic scenario. With several scenarios it
    quantifies how far the per-cell gradients are from sharing a direction.
    """
    a, alpha, beta = a_final.values, phases.alpha, phases.beta
    _check_coefficient(a, phases)
    s11 = s22 = s12 = norm_sum = 0.0
    for c, w in zip(basis.coefficients, basis.weights):
        grad = cell_gradients(basis.grid, c @ states)
        gx, gy = grad[:, 0], grad[:, 1]
        s11 += w * (gx * gx)
        s22 += w * (gy * gy)
        s12 += w * (gx * gy)
        norm_sum += w * np.hypot(gx, gy)
    phi = 0.5 * np.arctan2(2.0 * s12, s11 - s22)
    dx, dy = np.cos(phi), np.sin(phi)
    if kind is Objective.COMPLIANCE:
        gap = (a - alpha) * ((beta - a) / (alpha + (beta - a)))
    else:
        gap = (beta - a) * ((a - alpha) / a)
    across = 0.0
    for c, w in zip(basis.coefficients, basis.weights):  # the gradients again, one at a time
        grad = cell_gradients(basis.grid, c @ states)
        across += w * np.abs(dx * grad[:, 1] - dy * grad[:, 0])
    return np.divide(gap * across, norm_sum, out=np.zeros(a.shape), where=norm_sum > 0.0)
