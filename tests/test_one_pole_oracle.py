"""The one-pole KdV tau-function against its exact, truncation-free value.

For the seed P0 = I + s n / (lambda - a), n = [[0, 0], [1, 0]], the
translated loop E(lambda) P0 with E = exp(-mu Phi), mu = lambda x +
lambda^2 t, has the rank-one dressing (Zakharov-Shabat) as its negative
factor, and the Segal-Wilson determinant of a rank-one perturbation is one
plus its trace:

    det T_N -> D(x, t) = 1 + s (E(a)^-1 dE/dlambda(a))_01,
    log tau = -log D,       q = d log tau / dx = -D_x / D.

E is entire in lambda (mu Phi = [[0, x + lambda t], [lambda mu, 0]]), so
dE/dlambda and D_x come from trapezoid Cauchy integrals, exact to rounding.
The oracle itself calls nothing from the program.

The same holds for k poles, P0 = I + (sum_j s_j / (lambda - a_j)) n: the
dressing has rank k (Zakharov-Shabat) and the Fredholm determinant is

    D(x, t) = det_{k x k}(delta_ij + s_j (E(a_i)^-1 [E; a_i, a_j])_01),

with the divided difference [E; a_i, a_j] = (E(a_j) - E(a_i)) / (a_j - a_i)
off the diagonal and dE/dlambda(a_i) on it.
"""

import numpy as np
import pytest

from tauforge import kdv
from tauforge.birkhoff import factorize_slogdet
from tauforge.loops import MatrixLoop

from oracles import widom_det

CAUCHY_POINTS = 64
CAUCHY_RADIUS = 0.1
PRESETS = [(0.25, 0.3), (-0.6, 0.9)]


def _exp_minus_mu_phi(lam, x, t):
    """exp(-mu Phi) = cosh(r) I - (sinh(r) / r) mu Phi, r^2 = mu^2 / lambda."""
    lam = np.asarray(lam, dtype=complex)
    mu = lam * x + lam ** 2 * t
    r2 = mu * mu / lam
    r = np.sqrt(r2)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinhc = np.where(np.abs(r2) < 1e-8, 1 + r2 / 6 + r2 ** 2 / 120,
                         np.sinh(r) / r)
    out = np.zeros(np.shape(mu) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = np.cosh(r)
    out[..., 0, 1] = -sinhc * mu / lam
    out[..., 1, 0] = -sinhc * mu
    return out


def _cauchy_derivative(f, z0):
    """f'(z0) for f holomorphic on a disc of radius CAUCHY_RADIUS."""
    w = np.exp(2j * np.pi * np.arange(CAUCHY_POINTS) / CAUCHY_POINTS)
    h = CAUCHY_RADIUS * w
    vals = f(z0 + h)
    return np.tensordot(1 / h, vals, axes=(0, 0)) / CAUCHY_POINTS


def det_limit(x, t, pole, strength):
    """D(x, t), the N -> infinity limit of det T_N, at complex x and real t."""
    e = _exp_minus_mu_phi(pole, x, t)
    de = _cauchy_derivative(lambda lam: _exp_minus_mu_phi(lam, x, t), pole)
    # det E = 1, so E^-1 is the adjugate; (E^-1 E')_01 = e11 de01 - e01 de11
    return 1 + strength * (e[1, 1] * de[0, 1] - e[0, 1] * de[1, 1])


def oracle_log_tau(x, t, pole, strength):
    return -np.log(det_limit(x, t, pole, strength))


def oracle_q(x, t, pole, strength):
    d = det_limit(x, t, pole, strength)
    d_x = _cauchy_derivative(np.vectorize(
        lambda z: det_limit(z, t, pole, strength), otypes=[complex]), x)
    return -d_x / d


def _wrapped(a, b):
    """|a - b| with the imaginary part taken modulo 2 pi."""
    diff = np.asarray(a) - np.asarray(b)
    return np.abs(diff.real + 1j * np.angle(np.exp(1j * diff.imag)))


def _logdet_errors(pole, strength, points, orders):
    """Worst error of log det T_N over the points, for each order N.

    The seed carries modes down to -64, where |pole|^64 is below rounding,
    so the error is that of the finite section T_N of the exact symbol and
    not of a truncated P0 (which alone moves log det by about
    s |pole|^N / (1 - |pole|)).
    """
    seed = kdv.seed_one_pole(pole=pole, strength=strength, order=64)
    x, t = points.T
    want = np.array([np.log(det_limit(xi, ti, pole, strength))
                     for xi, ti in points])
    errors = {}
    for n in orders:
        sign, logabs = factorize_slogdet(
            kdv.pullback_coeff_batch(seed, x, t, n, tail_tol=None))[4:]
        errors[n] = float(_wrapped(logabs + 1j * np.angle(sign), want).max())
    return errors


# worst error allowed at N = 16; at 40 points the measured worst is
# 3.2e-15 for (0.25, 0.3) and 1.4e-12 for (-0.6, 0.9), whose finite
# sections converge more slowly (2.7e-5 at N = 8, 9.4e-9 at N = 12)
BOUND_AT_16 = {(0.25, 0.3): 1e-12, (-0.6, 0.9): 1e-11}


@pytest.mark.parametrize("pole, strength", PRESETS)
def test_toeplitz_determinant_converges_to_the_exact_value(pole, strength):
    points = np.random.default_rng(17).uniform(-1, 1, size=(40, 2))
    orders = (8, 12, 16, 24, 32)
    errors = _logdet_errors(pole, strength, points, orders)
    assert errors[16] <= BOUND_AT_16[(pole, strength)]
    assert errors[24] <= 1e-12
    assert errors[32] <= 1e-12
    assert errors[32] < errors[8]
    # geometric decay down to the rounding floor: each 4 orders gain at
    # least two digits
    for lo, hi in zip(orders, orders[1:]):
        assert errors[hi] <= max(1e-2 * errors[lo], 1e-13)


def test_oracle_vanishes_at_the_origin():
    for pole, strength in PRESETS:
        assert abs(det_limit(0.0, 0.0, pole, strength) - 1) < 1e-15


@pytest.mark.parametrize("pole, strength", PRESETS)
def test_tau_grid_matches_the_oracle(pole, strength):
    seed = kdv.seed_one_pole(pole=pole, strength=strength)
    xs = np.linspace(-0.4, 0.4, 9)
    ts = np.linspace(-0.1, 0.1, 5)
    grid = kdv.tau_grid(seed, xs, ts)
    want_log_tau = np.array([[oracle_log_tau(x, t, pole, strength)
                              for t in ts] for x in xs])
    want_q = np.array([[oracle_q(x, t, pole, strength) for t in ts]
                       for x in xs])
    assert _wrapped(grid.log_tau, want_log_tau).max() <= 1e-12
    assert np.abs(grid.q - want_q).max() <= 1e-12


# -- k poles ------------------------------------------------------------

# (poles, strengths) with the worst errors allowed at N = 16 and N = 32;
# at the 30 points the measured worst errors are 4.7e-15 and 9.2e-15,
# 3.1e-15 and 6.6e-15, and 2.5e-13 and 1.4e-14 (the poles nearest the
# circle converge most slowly: 2.0e-6 at N = 8, 5.3e-10 at N = 12)
K_POLE_CASES = [
    ((0.25, -0.4), (0.3, 0.5), 5e-14, 1e-13),
    ((0.2 + 0.15j, -0.3 + 0.1j), (0.3, 0.4), 5e-14, 1e-13),
    ((0.5, -0.6), (0.9, 0.7), 2e-12, 1e-13),
]


def seed_k_poles(poles, strengths, order=64):
    """P0 = I + (sum_j s_j / (lambda - a_j)) n, the one-pole series summed."""
    n = np.array([[0.0, 0.0], [1.0, 0.0]])
    modes = {0: np.eye(2)}
    for k in range(1, order + 1):
        modes[-k] = sum(s * a ** (k - 1) for a, s in zip(poles, strengths)) * n
    loop = MatrixLoop.from_modes(modes, order=order)
    return kdv.KdVSeed(loop, "k-pole")


def det_limit_k(x, t, poles, strengths):
    """D(x, t) for k poles, the N -> infinity limit of det T_N."""
    e = [_exp_minus_mu_phi(a, x, t) for a in poles]
    d = np.eye(len(poles), dtype=complex)
    for i, ai in enumerate(poles):
        for j, aj in enumerate(poles):
            if i == j:
                diff = _cauchy_derivative(
                    lambda lam: _exp_minus_mu_phi(lam, x, t), ai)
            else:
                diff = (e[j] - e[i]) / (aj - ai)
            # (E^-1 M)_01 = e11 m01 - e01 m11, E^-1 being the adjugate
            d[i, j] += strengths[j] * (e[i][1, 1] * diff[0, 1]
                                       - e[i][0, 1] * diff[1, 1])
    return np.linalg.det(d)


def test_k_pole_oracle_reduces_to_one_pole():
    for x, t in [(0.3, -0.2), (-0.9, 0.7)]:
        for pole, strength in PRESETS:
            assert abs(det_limit_k(x, t, (pole,), (strength,))
                       - det_limit(x, t, pole, strength)) <= 1e-15


@pytest.mark.parametrize("poles, strengths, bound_16, bound_32",
                         K_POLE_CASES)
def test_toeplitz_determinant_matches_the_k_pole_oracle(
        poles, strengths, bound_16, bound_32):
    points = np.random.default_rng(17).uniform(-1, 1, size=(30, 2))
    seed = seed_k_poles(poles, strengths)
    want = np.array([np.log(det_limit_k(x, t, poles, strengths))
                     for x, t in points])
    for order, bound in ((16, bound_16), (32, bound_32)):
        sign, logabs = factorize_slogdet(kdv.pullback_coeff_batch(
            seed, points[:, 0], points[:, 1], order, tail_tol=None))[4:]
        assert _wrapped(logabs + 1j * np.angle(sign), want).max() <= bound


# -- Widom's E_K against the oracle, with no T_N and no LU ----------------


@pytest.mark.parametrize("poles, strengths",
                         [case[:2] for case in K_POLE_CASES])
def test_widom_determinant_matches_the_k_pole_oracle(poles, strengths):
    # E_K of the translated k-pole loops converges geometrically in K to
    # D; at the 8 points the measured worst errors at K = 24 are 4.8e-15,
    # 2.9e-15 and 9.0e-16, and at K = 8 8.6e-6, 2.8e-7 and 1.4e-5
    points = np.random.default_rng(17).uniform(-1, 1, size=(8, 2))
    stack = kdv.pullback_coeff_batch(
        seed_k_poles(poles, strengths), points[:, 0], points[:, 1], 48,
        tail_tol=None)
    want = np.array([np.log(det_limit_k(x, t, poles, strengths))
                     for x, t in points])
    errors = {k: float(_wrapped(np.log([widom_det(c, k) for c in stack]),
                                want).max())
              for k in (8, 24)}
    assert errors[24] <= 1e-13
    assert errors[8] >= 1e3 * errors[24]


def test_widom_determinant_of_the_vacuum_is_one():
    # the translated vacuum loop exp(-mu Phi) has no negative modes, so
    # H~_K(gamma^-1) vanishes and E_K is 1 with no rounding
    points = np.random.default_rng(17).uniform(-1, 1, size=(8, 2))
    stack = kdv.pullback_coeff_batch(kdv.seed_vacuum(32), points[:, 0],
                                     points[:, 1], 32)
    assert [widom_det(c, 32) for c in stack] == [1.0] * len(stack)
