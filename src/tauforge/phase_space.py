"""Reduced loop-group phase space: symplectic form, Hamiltonians, cocycle,
and the vacuum-vector log-derivatives that feed the tau-function pipelines.

Everything is evaluated through Fourier coefficients of loop products; no
raw quadrature enters.  Conventions frozen here (and validated by the KdV
identity tests downstream): the circle integral in dlambda is
counterclockwise, the group acts on the reduced space by left
multiplication gamma -> exp(eps u) gamma, and consequently the action
vector fields compose with the reversed matrix bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .birkhoff import BirkhoffFactors, factorize
from .loops import (
    MatrixLoop,
    NumericalInvariantError,
    ScalarLoop,
    adjugate_2x2,
    adjugate_inverse,
    circle_points,
    coeffs_to_samples,
    commutator,
    contour_integral_dlambda,
    default_sample_count,
    det_2x2,
    exp_pointwise,
    inverse,
    matmul_2x2,
    mean_theta,
    multiply,
)

# largest g_plus contour term vacuum_logderiv_diffeo accepts as vanished
GPLUS_TOL = 1e-9
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
        vals = MatrixLoop.samples(self.loop)
        return float(np.abs(vals + vals.conj().transpose(0, 2, 1)).max())

    def trace_defect(self) -> float:
        vals = MatrixLoop.samples(self.loop)
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


def _loop_inverse(g: MatrixLoop) -> MatrixLoop:
    # adj(g) = g^-1 only when det g = 1: then the 2x2 inverse is exact at
    # coefficient level; any other loop is inverted pointwise
    if g.n == 2 and g.unimodular:
        return adjugate_inverse(g)
    return inverse(g)


def _factors_of(gamma_or_factors) -> BirkhoffFactors:
    if isinstance(gamma_or_factors, BirkhoffFactors):
        return gamma_or_factors
    return factorize(gamma_or_factors)


def reduced_symplectic(gamma: MatrixLoop, u, v, check_real: bool | None = None) -> float:
    """Omega(u gamma, v gamma) = (1/2 pi) contour tr(ubar d vbar), ubar = gamma^-1 u gamma.

    Evaluated in the antisymmetrized form
    (1/2) [(1/2 pi) contour tr(ubar d vbar) - (1/2 pi) contour tr(vbar d ubar)],
    equal to the above by integration by parts on the circle.  A difference
    of the same two floats flips sign exactly and halving is exact, so
    omega(u, v) == -omega(v, u) holds bitwise and omega(u, u) == 0.0.
    """
    u, v = _as_loop(u), _as_loop(v)
    ginv = _loop_inverse(gamma)
    ubar = multiply(multiply(ginv, u), gamma)
    vbar = multiply(multiply(ginv, v), gamma)
    omega_uv = mean_theta(multiply(ubar, vbar.derivative_theta()).trace())
    omega_vu = mean_theta(multiply(vbar, ubar.derivative_theta()).trace())
    return _maybe_real(0.5 * (omega_uv - omega_vu), check_real, default=True)


def hamiltonian_gauge(gamma: MatrixLoop, u, check_real: bool | None = None):
    """H_u(gamma) = -(1/2 pi) contour tr(dgamma gamma^-1 u)."""
    tangent = u
    u = _as_loop(u)
    ginv = _loop_inverse(gamma)
    w = multiply(gamma.derivative_theta(), ginv)
    value = -mean_theta(multiply(w, u).trace())
    default = isinstance(tangent, LoopTangent)
    return _maybe_real(value, check_real, default=default)


def hamiltonian_diffeo(gamma: MatrixLoop, xi: ScalarLoop,
                       check_real: bool = False):
    """H_xi(gamma) = (1/4 pi) contour xi tr((gamma' gamma^-1)^2) dtheta."""
    ginv = _loop_inverse(gamma)
    w = multiply(gamma.derivative_theta(), ginv)
    sq = multiply(w, w).trace()
    value = 0.5 * mean_theta(multiply(xi, sq))
    return _maybe_real(value, check_real, default=False)


def cocycle(u, v) -> complex:
    """Central-extension cocycle c(u, v) = (1/2 pi) contour tr(u dv)."""
    u, v = _as_loop(u), _as_loop(v)
    return complex(mean_theta(multiply(u, v.derivative_theta()).trace()))


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


def gauge_variation(minus, u_samples):
    """-(1/2 pi i) contour tr(dg g^-1 u) dlambda for stacked minus factors.

    minus: (..., 2N+1, 2, 2) coefficients of g = g_minus (modes <= 0);
    u_samples: (M, 2, 2) values of u, of order K, on the M-point circle
    grid.  tr(dg g^-1 u) = tr(dg adj(g) u) / det g from the entry planes;
    with det g constant (a unimodular loop) the residue pick is exact for
    M >= 2N + K + 1, the integrand having modes -2N-K-1..K-1.
    """
    m = len(u_samples)
    order = (minus.shape[-3] - 1) // 2
    ks = np.arange(-order, order + 1)
    g_vals = coeffs_to_samples(minus, m)
    # d/dlambda moves mode k to k - 1
    dg_vals = coeffs_to_samples(ks[:, None, None] * minus, m,
                                first_mode=-order - 1)
    a = matmul_2x2(dg_vals, adjugate_2x2(g_vals))
    tr = sum(a[..., i, j] * u_samples[:, j, i]
             for i in range(2) for j in range(2))
    # a row sum, not @: BLAS rounds a dot and a gemv row differently, and
    # the sum gives each loop the same bits in a stack of any size
    return -(tr / det_2x2(g_vals) * circle_points(m)).sum(axis=-1) / m


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


def _diffeo_terms(factors, xi10: ScalarLoop) -> tuple:
    """Contour values of xi10 tr((dg g^-1)^2) for both factors, minus first."""
    terms = []
    for g in (factors.g_minus, factors.g_plus):
        w = multiply(g.derivative_lambda(), _loop_inverse(g))
        sq = multiply(w, w).trace()
        terms.append(contour_integral_dlambda(multiply(xi10, sq)))
    return tuple(terms)


def vacuum_logderiv_diffeo(gamma_or_factors, xi10: ScalarLoop) -> complex:
    """Reparametrization part of d log tau for the lifted field xi10 d/dlambda.

    -(1/4 pi i) contour xi10 [tr((dg g^-1)^2) - tr((dg+ g+^-1)^2)] dlambda.
    When xi10 extends over the unit disc (only nonnegative modes) the
    g_plus term vanishes by Cauchy's theorem; that cancellation is checked
    rather than assumed, and a violation raises NumericalInvariantError.
    """
    factors = _factors_of(gamma_or_factors)
    minus_term, plus_term = _diffeo_terms(factors, xi10)
    ks = np.arange(-xi10.order, xi10.order + 1)
    if not np.any(np.abs(xi10.coeffs[ks < 0]) > 0) and abs(plus_term) > GPLUS_TOL:
        raise NumericalInvariantError(
            f"g_plus term {abs(plus_term):.3e} should vanish for disc-holomorphic xi10")
    return complex(-(minus_term - plus_term) / (4j * np.pi))


def curvature_mismatch(gamma: MatrixLoop, u, v, eps: float = 1e-3) -> complex:
    """Exterior derivative of the tau 1-form on two action directions.

    Central-difference measurement of du Fv - dv Fu + F_[u,v] with
    F_w = vacuum_logderiv_gauge(., w); equals -i c(u, v) under the frozen
    conventions (the prequantum phase between the 1-form and the
    Hamiltonians), and 0 for commuting directions.
    """
    u, v = _as_loop(u), _as_loop(v)

    def flow(direction, sign):
        return multiply(exp_pointwise(direction.scaled(sign * eps)), gamma)

    def f(w, at):
        return vacuum_logderiv_gauge(at, w)

    du_fv = (f(v, flow(u, +1)) - f(v, flow(u, -1))) / (2 * eps)
    dv_fu = (f(u, flow(v, +1)) - f(u, flow(v, -1))) / (2 * eps)
    bracket = f(commutator(u, v), gamma)
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
