"""Reduced loop-group phase space: symplectic form, Hamiltonians, cocycle,
and the vacuum-vector log-derivatives that feed the tau-function pipelines.

Every contour formula of the current dg g^-1 is one call of one of two
sample-stack kernels: gauge_variation, linear in the direction u, and
quadratic_variation, quadratic in dg g^-1.  Only the cocycle c(u, v) is
read from Fourier coefficients of a loop product.  Conventions frozen here
(and validated by the KdV identity tests downstream): the circle integral
in dlambda is counterclockwise, the group acts on the reduced space by
left multiplication gamma -> exp(eps u) gamma, and consequently the action
vector fields compose with the reversed matrix bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .birkhoff import BirkhoffFactors, factorize
from .loops import (
    MatrixLoop,
    NumericalInvariantError,
    adjugate_2x2,
    check_sample_condition,
    circle_points,
    coeffs_to_samples,
    commutator,
    default_sample_count,
    det_2x2,
    exp_pointwise,
    matmul_2x2,
    multiply,
)

# largest g_plus contour term vacuum_logderiv_diffeo accepts as vanished
GPLUS_TOL = 1e-9
# central-difference step of curvature_mismatch
CURVATURE_EPS = 1e-3
# largest antihermitian or trace defect of a LoopTangent, and largest
# imaginary part of a value checked to be real
DEFECT_TOL = 1e-10


@dataclass
class LoopTangent:
    """Tangent direction at a loop; flags express membership in the compact
    real form (antihermitian on the circle, traceless).  Complexified
    tangents simply drop the flags."""

    loop: MatrixLoop
    antihermitian: bool = True
    traceless: bool = False

    def antihermitian_defect(self) -> float:
        vals = self.loop.samples()
        return float(np.abs(vals + vals.conj().transpose(0, 2, 1)).max())

    def trace_defect(self) -> float:
        vals = self.loop.samples()
        return float(np.abs(np.trace(vals, axis1=1, axis2=2)).max())

    def validate(self) -> "LoopTangent":
        if self.antihermitian:
            bad = self.antihermitian_defect()
            if bad > DEFECT_TOL:
                raise NumericalInvariantError(
                    f"antihermitian defect {bad:.3e} > {DEFECT_TOL:.1e}")
        if self.traceless:
            bad = self.trace_defect()
            if bad > DEFECT_TOL:
                raise NumericalInvariantError(
                    f"trace defect {bad:.3e} > {DEFECT_TOL:.1e}")
        return self


def _as_loop(u) -> MatrixLoop:
    return u.loop if isinstance(u, LoopTangent) else u


def _factors_of(gamma_or_factors) -> BirkhoffFactors:
    if isinstance(gamma_or_factors, BirkhoffFactors):
        return gamma_or_factors
    return factorize(gamma_or_factors)


def _checked_grid(gamma: MatrixLoop, m: int) -> int:
    """m, once every sample of gamma on the M-point circle grid passes
    inverse's condition check (SingularLoopError)."""
    check_sample_condition(gamma.samples(m))
    return m


def reduced_symplectic(gamma: MatrixLoop, u, v, check_real: bool | None = None) -> float:
    """Omega(u gamma, v gamma) = (1/2 pi) contour tr(ubar d vbar), ubar = gamma^-1 u gamma.

    Expanding d vbar gives the Kirillov-Kostant form c(u, v) - H_[u,v](gamma),
    evaluated as (1/2) [c(u, v) - c(v, u)] - H_[u,v](gamma).  [v, u] is
    exactly -[u, v] and H is linear in it, so omega(u, v) == -omega(v, u)
    holds bitwise and omega(u, u) == 0.0.
    """
    u, v = _as_loop(u), _as_loop(v)
    value = (0.5 * (cocycle(u, v) - cocycle(v, u))
             - hamiltonian_gauge(gamma, commutator(u, v), check_real=False))
    return _maybe_real(value, check_real, default=True)


def hamiltonian_gauge(gamma: MatrixLoop, u, check_real: bool | None = None):
    """H_u(gamma) = -(1/2 pi) contour tr(dgamma gamma^-1 u) = i gauge_variation."""
    tangent = u
    u = _as_loop(u)
    m = _checked_grid(gamma, default_sample_count(max(gamma.order, u.order)))
    value = 1j * gauge_variation(gamma.coeffs, u.samples(m))
    default = isinstance(tangent, LoopTangent)
    return _maybe_real(value, check_real, default=default)


def hamiltonian_diffeo(gamma: MatrixLoop, xi: MatrixLoop,
                       check_real: bool = False):
    """H_xi(gamma) = (1/4 pi) contour xi tr((gamma' gamma^-1)^2) dtheta.

    With gamma' = i lambda dgamma/dlambda this is -(1/2) quadratic_variation
    of gamma against lambda xi, which is formed on the samples of a grid
    that meets quadratic_variation's bound M >= 4N + K + 2.
    """
    n = gamma.order
    m = _checked_grid(gamma, default_sample_count(n, 4 * n + xi.order + 2))
    lam_xi = circle_points(m) * xi.samples(m)[:, 0, 0]
    value = -0.5 * quadratic_variation(gamma.coeffs, lam_xi)
    return _maybe_real(value, check_real, default=False)


def cocycle(u, v) -> complex:
    """Central-extension cocycle c(u, v) = (1/2 pi) contour tr(u dv)."""
    u, v = _as_loop(u), _as_loop(v)
    return complex(multiply(u, v.derivative_theta()).trace().coeff(0)[0, 0])


def poisson_anomaly(gamma: MatrixLoop, u, v, eps: float = 1e-4) -> complex:
    """Deviation from the centrally extended Poisson identity, O(eps^2).

    Measures the central difference of H_v along gamma -> exp(eps u) gamma
    minus H_[v,u](gamma) minus c(u, v).  The bracket is reversed relative
    to the matrix commutator because left-action vector fields
    anti-commute; constants then reduce the identity to equivariance.
    """
    u, v = _as_loop(u), _as_loop(v)
    forward = multiply(exp_pointwise(u.scaled(eps)), gamma)
    backward = multiply(exp_pointwise(u.scaled(-eps)), gamma)
    diff = (hamiltonian_gauge(forward, v, check_real=False)
            - hamiltonian_gauge(backward, v, check_real=False)) / (2 * eps)
    bracket_term = hamiltonian_gauge(gamma, commutator(v, u), check_real=False)
    return complex(diff - bracket_term - cocycle(u, v))


def _log_derivative_planes(g, m: int):
    """dg adj(g) and det g of stacked 2x2 loops on the M-point circle grid,
    so that dg g^-1 = dg adj(g) / det g.

    g: (..., 2N+1, 2, 2) coefficients with modes -N..N; any other matrix
    size raises ValueError.
    """
    if g.shape[-2:] != (2, 2):
        raise ValueError(
            f"the phase-space kernels take 2x2 loops, got {g.shape[-2:]}")
    order = (g.shape[-3] - 1) // 2
    ks = np.arange(-order, order + 1)
    g_vals = coeffs_to_samples(g, m)
    # d/dlambda moves mode k to k - 1
    dg_vals = coeffs_to_samples(ks[:, None, None] * g, m,
                                first_mode=-order - 1)
    return matmul_2x2(dg_vals, adjugate_2x2(g_vals)), det_2x2(g_vals)


def _residue(values, m: int):
    """(1/2 pi i) contour f dlambda from f on the M-point grid (last axis).

    A row sum, not @: BLAS rounds a dot and a gemv row differently, and the
    sum gives each loop the same bits in a stack of any size.
    """
    return (values * circle_points(m)).sum(axis=-1) / m


def gauge_variation(g, u_samples):
    """-(1/2 pi i) contour tr(dg g^-1 u) dlambda for stacked 2x2 loops g.

    g: (..., 2N+1, 2, 2) coefficients with modes -N..N; u_samples: (M, 2, 2)
    values of u, of order K, on the M-point circle grid.  With det g
    constant (a unimodular loop) the residue pick is exact for
    M >= 2N + K + 2, the integrand having modes -2N-K-1..2N+K-1, and for
    M >= 2N + K + 1 when g = g_minus (modes <= 0).
    """
    m = len(u_samples)
    a, det = _log_derivative_planes(g, m)
    tr = sum(a[..., i, j] * u_samples[:, j, i]
             for i in range(2) for j in range(2))
    return -_residue(tr / det, m)


def quadratic_variation(g, xi_samples):
    """(1/2 pi i) contour xi tr((dg g^-1)^2) dlambda for stacked 2x2 loops g.

    g: (..., 2N+1, 2, 2) coefficients with modes -N..N; xi_samples: (M,)
    values of xi, of modes -K..K, on the M-point circle grid.  With det g
    constant the residue pick is exact for M >= 4N + K + 2, the integrand
    having modes -4N-K-2..4N+K-2; lambda xi (modes -K+1..K+1) needs
    M >= 4N + K + 1.
    """
    m = len(xi_samples)
    a, det = _log_derivative_planes(g, m)
    tr = (a[..., 0, 0] * a[..., 0, 0] + 2 * a[..., 0, 1] * a[..., 1, 0]
          + a[..., 1, 1] * a[..., 1, 1])
    return _residue(xi_samples * tr / (det * det), m)


def vacuum_logderiv_gauge(gamma_or_factors, u) -> complex:
    """Gauge part of d log tau: -(1/2 pi i) contour tr(dg g^-1 u), g = g_minus.

    gauge_variation of one loop, on the circle grid of the larger order of
    g and u, which meets its exactness bound.  Invariant under the
    factorization normalization (a constant right twist of both factors
    cancels in dg g^-1).
    """
    g = _factors_of(gamma_or_factors).g_minus
    u = _as_loop(u)
    m = default_sample_count(max(g.order, u.order))
    return complex(gauge_variation(g.coeffs, u.samples(m)))


def vacuum_logderiv_diffeo(gamma_or_factors, xi10: MatrixLoop) -> complex:
    """Reparametrization part of d log tau for the lifted field xi10 d/dlambda.

    -(1/4 pi i) contour xi10 [tr((dg g^-1)^2) - tr((dg+ g+^-1)^2)] dlambda,
    that is -(1/2) [quadratic_variation(g_minus) - quadratic_variation(g_plus)].
    When xi10 extends over the unit disc (only nonnegative modes) the
    g_plus term vanishes by Cauchy's theorem; that cancellation is checked
    rather than assumed, and a violation raises NumericalInvariantError.
    """
    factors = _factors_of(gamma_or_factors)
    g_minus, g_plus = factors.g_minus, factors.g_plus
    # quadratic_variation's bound, M >= 4N + K + 2
    n = g_minus.order
    m = default_sample_count(n, 4 * n + xi10.order + 2)
    minus_term, plus_term = quadratic_variation(
        np.stack([g_minus.coeffs, g_plus.coeffs]), xi10.samples(m)[:, 0, 0])
    # the contour integral of the g_plus term is 2 pi i plus_term
    plus_contour = 2 * np.pi * abs(plus_term)
    ks = np.arange(-xi10.order, xi10.order + 1)
    if not np.any(np.abs(xi10.coeffs[ks < 0]) > 0) and plus_contour > GPLUS_TOL:
        raise NumericalInvariantError(
            f"g_plus term {plus_contour:.3e} should vanish for disc-holomorphic xi10")
    return complex(-0.5 * (minus_term - plus_term))


def curvature_mismatch(gamma: MatrixLoop, u, v) -> complex:
    """Exterior derivative of the tau 1-form on two action directions.

    Central-difference measurement, step CURVATURE_EPS, of
    du Fv - dv Fu + F_[u,v] with F_w = vacuum_logderiv_gauge(., w); equals
    -i c(u, v) under the frozen conventions (the prequantum phase between
    the 1-form and the Hamiltonians), and 0 for commuting directions.
    """
    u, v = _as_loop(u), _as_loop(v)
    eps = CURVATURE_EPS

    def flow(direction, sign):
        return multiply(exp_pointwise(direction.scaled(sign * eps)), gamma)

    du_fv = (vacuum_logderiv_gauge(flow(u, +1), v)
             - vacuum_logderiv_gauge(flow(u, -1), v)) / (2 * eps)
    dv_fu = (vacuum_logderiv_gauge(flow(v, +1), u)
             - vacuum_logderiv_gauge(flow(v, -1), u)) / (2 * eps)
    bracket = vacuum_logderiv_gauge(gamma, commutator(u, v))
    return complex(du_fv - dv_fu + bracket)


def _maybe_real(value: complex, check_real: bool | None, default: bool):
    value = complex(value)
    check = default if check_real is None else check_real
    if check:
        if abs(value.imag) > DEFECT_TOL:
            raise NumericalInvariantError(
                f"imaginary part {value.imag:.3e} exceeds {DEFECT_TOL:.1e}")
        return float(value.real)
    return value
