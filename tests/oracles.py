"""Loop references the tests compare against, kept out of the package.

The package evaluates every contour formula on sample stacks; these
references work at coefficient level (or from samples alone), so they stay
independent of the kernels they check.  The single-point routes for the
KdV potential q and the twistor helpers are the tests' second routes: no
pipeline runs them.  widom_det gives the N -> infinity limit of det T_N
from Hankel blocks alone, with no factorization.
"""

import numpy as np

from tauforge import ernst, kdv
from tauforge.birkhoff import _toeplitz_index, factorize
from tauforge.loops import (
    DEFAULT_ORDER,
    TANGENT_BAND,
    TANGENT_DECAY,
    MatrixLoop,
    adjugate_2x2,
)
from tauforge.phase_space import vacuum_logderiv_gauge


def unimodular_defect(loop: MatrixLoop) -> float:
    """Largest |det - 1| over the loop's circle grid."""
    return float(np.abs(np.linalg.det(loop.samples()) - 1.0).max())


def derivative_lambda(loop: MatrixLoop) -> MatrixLoop:
    """d/dlambda; mode k goes to k c_k at mode k-1 (range grows by one)."""
    order = loop.order + 1
    coeffs = np.zeros((2 * order + 1, loop.n, loop.n), dtype=complex)
    ks = np.arange(-loop.order, loop.order + 1)
    coeffs[ks - 1 + order] = ks[:, None, None] * loop.coeffs
    return type(loop)(coeffs)


def adjugate_inverse(loop: MatrixLoop) -> MatrixLoop:
    """Exact coefficient-level inverse of a 2x2 loop with det = 1: the
    adjugate only permutes and negates coefficients."""
    return MatrixLoop(adjugate_2x2(loop.coeffs))


def toeplitz_matrix(loop: MatrixLoop) -> np.ndarray:
    """Dense T_N, the matrix the LU route factors; block (m, j) holds the
    loop's mode m - j."""
    return loop.coeffs.reshape(-1)[_toeplitz_index(loop.order, loop.n)]


def widom_det(coeffs, K: int) -> complex:
    """E_K = det(I - H_K(gamma) H~_K(gamma^-1)) of a 2x2 loop with det 1,
    from its (2N+1, 2, 2) coefficients.

    Widom's T(a b) = T(a) T(b) + H(a) H~(b) gives T(gamma) T(gamma^-1) =
    I - H(gamma) H~(gamma^-1), whose determinant is the limit of det T_N
    as N grows (Szego-Widom, with G(gamma) = 1).  H_K(gamma) has the 2x2
    blocks gamma_{i+j+1} and H~_K(gamma^-1) the blocks
    adj(gamma)_{-(i+j+1)}, i, j < K: for det gamma = 1 the modes of
    gamma^-1 are the adjugates of gamma's.  A loop of order N has no Hankel
    mode past N, so from K = N on E_K is E itself, with no finite section.
    """
    coeffs = np.asarray(coeffs)
    order = (len(coeffs) - 1) // 2
    ij = np.add.outer(np.arange(K), np.arange(K)) + 1

    def hankel(modes, ks):
        inside = np.abs(ks) <= order
        blocks = np.where(inside[..., None, None],
                          modes[np.where(inside, ks + order, 0)], 0)
        return blocks.transpose(0, 2, 1, 3).reshape(2 * K, 2 * K)

    h = hankel(coeffs, ij)
    h_tilde = hankel(adjugate_2x2(coeffs), -ij)
    return complex(np.linalg.det(np.eye(2 * K) - h @ h_tilde))


# -- random tangents beyond the package's 2x2 traceless ones ----------------


def reference_tangent(rng, n=2, band=TANGENT_BAND, amplitude=0.5,
                      order=DEFAULT_ORDER, antihermitian=False,
                      traceless=True) -> MatrixLoop:
    """One loop, drawn mode by mode: the per-loop generator the stack
    form replaced, kept as the reference for its draw order.  With the
    defaults it draws random_tangent's loop, bit for bit; the options give
    the other sizes, bands and symmetries some tests need."""
    coeffs = np.zeros((2 * order + 1, n, n), dtype=complex)
    for k in range(-band, band + 1):
        block = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coeffs[k + order] = block * TANGENT_DECAY ** abs(k)
    if antihermitian:
        for k in range(1, band + 1):
            coeffs[-k + order] = -coeffs[k + order].conj().T
        coeffs[order] = 0.5 * (coeffs[order] - coeffs[order].conj().T)
    if traceless:
        idx = np.arange(n)
        tr = np.trace(coeffs, axis1=1, axis2=2) / n
        coeffs[:, idx, idx] -= tr[:, None]
    loop = MatrixLoop(coeffs)
    scale = amplitude / max(np.abs(loop.samples()).max(), np.finfo(float).tiny)
    return MatrixLoop(coeffs * scale)


# -- evaluation off the sample grid and mode projections -------------------


def eval_theta(loop: MatrixLoop, theta):
    """sum c_k e^{ik theta} at arbitrary angles, (..., n, n) values also
    for a scalar loop."""
    theta = np.asarray(theta, dtype=float)
    ks = np.arange(-loop.order, loop.order + 1)
    phases = np.exp(1j * np.outer(theta.ravel(), ks))
    vals = np.tensordot(phases, loop.coeffs, axes=(1, 0))
    return vals.reshape(theta.shape + (loop.n, loop.n))


def eval_point(loop: MatrixLoop, z: complex):
    """The Laurent polynomial at a point z off the circle, (n, n)."""
    ks = np.arange(-loop.order, loop.order + 1)
    return np.tensordot(np.asarray(z) ** ks, loop.coeffs, axes=(0, 0))


def project(loop: MatrixLoop, part: str) -> MatrixLoop:
    """Keep one mode range; complementary parts sum to the original."""
    ks = np.arange(-loop.order, loop.order + 1)
    keep = {
        "strictly_positive": ks >= 1,
        "nonnegative": ks >= 0,
        "strictly_negative": ks <= -1,
        "nonpositive": ks <= 0,
    }[part]
    return type(loop)(np.where(keep[:, None, None], loop.coeffs, 0.0))


# -- the KdV potential at one point, by two routes --------------------------


def pullback_patching(seed, x, t, order: int = DEFAULT_ORDER) -> MatrixLoop:
    """Translated patching loop at one point (x, t), from the complex route
    of pullback_coeff_batch."""
    return MatrixLoop(kdv.pullback_coeff_batch(seed, [complex(x)],
                                               [complex(t)], order)[0])


def q_expansion(seed, x, t, order: int = DEFAULT_ORDER) -> complex:
    """q from the expansion of the negative factor of one factorize call:
    tr(P1 Phi0), as tau_grid reads it."""
    factors = factorize(pullback_patching(seed, x, t, order))
    return complex(kdv._q_of(factors.g_minus.coeffs))


def q_contour(seed, x, t, order: int = DEFAULT_ORDER) -> complex:
    """q as the gauge variation of log tau along u = h Phi, the x direction:
    a route independent of the expansion formula."""
    return vacuum_logderiv_gauge(pullback_patching(seed, x, t, order),
                                 kdv._direction_u("x"))


# -- twistor ----------------------------------------------------------------


def incidence(v, x, t, lam):
    """mu = v + lambda x + lambda^2 t; lam may be an array."""
    lam = np.asarray(lam)
    return v + lam * x + lam * lam * t


def poles(f) -> list:
    """Roots of a RationalFunction's denominator."""
    den = np.trim_zeros(np.asarray(f.den, dtype=complex), "b")
    return list(np.roots(den[::-1])) if len(den) > 1 else []


def decomposition_residual(dec, y, x, lams) -> float:
    """Sup residual of Y = f0 V0 + f1 V1 + h X over the points lams, for
    dec = decompose(y, x)."""
    yv, yx, yt = y.translation_components()
    xv, xx, xt = x.translation_components()
    worst = 0.0
    for lam in np.asarray(lams, dtype=complex):
        f0, f1, h = dec.f0.eval(lam), dec.f1.eval(lam), dec.h.eval(lam)
        rv = f0 * (-lam) + h * xv - yv
        rx = f0 + f1 * (-lam) + h * xx - yx
        rt = f1 + h * xt - yt
        worst = max(worst, abs(rv), abs(rx), abs(rt))
    return worst


# -- Ernst ------------------------------------------------------------------


def weyl_log_tau(preset, r, z, **params):
    """log tau = (1/2) log r + G on the (r, z) grid, 0 at (1, 0), from
    Weyl's metric function G = 2 gamma of psi = 2U, written out here:

    flat                      G = 0
    kasner(a), psi = a log r  G = (a^2 / 2) log r
    point_source(s, z0)       G = -s^2 r^2 / (4 R^4), R^2 = r^2 + (z - z0)^2
    non_solution, psi = r     G = r^2 / 4

    each the integral of G_r = (r/2)(psi_r^2 - psi_z^2), G_z = r psi_r psi_z.
    """
    def g(r, z):
        r, z = np.broadcast_arrays(np.asarray(r, dtype=float),
                                   np.asarray(z, dtype=float))
        if preset == "flat":
            return np.zeros(r.shape)
        if preset == "kasner":
            return params["a"] ** 2 / 2 * np.log(r)
        if preset == "point_source":
            rad2 = r ** 2 + (z - params["z0"]) ** 2
            return -params["strength"] ** 2 * r ** 2 / (4 * rad2 ** 2)
        if preset == "non_solution":
            return r ** 2 / 4
        raise ValueError(f"no closed form for {preset}")

    return 0.5 * np.log(r) + g(r, z) - g(1.0, 0.0)


def dense_field_residual(sol, r, z):
    """ernst.field_residual by np.linalg.norm of the assembled (..., 2, 2)
    matrices diag(L, -L): the dense route the closed form replaced."""
    pr, _ = sol.first(r, z)
    prr, pzz = sol.second(r, z)
    lap = np.asarray(prr + pr / np.asarray(r) + pzz)
    mat = np.zeros(lap.shape + (2, 2))
    mat[..., 0, 0] = lap
    mat[..., 1, 1] = -lap
    return np.linalg.norm(mat, axis=(-2, -1))


def shear_solution() -> ernst.ErnstSolution:
    """psi = r z: non-harmonic with a z-dependence, so it fails the field
    equations and d log tau is not closed; the curl of the 1-form works
    out to r z exactly, and no G exists."""

    def first(r, z):
        r, z = np.asarray(r), np.asarray(z)
        return z + 0.0 * r, r + 0.0 * z

    def second(r, z):
        zero = np.zeros(np.broadcast(np.asarray(r), np.asarray(z)).shape)
        return zero, zero

    return ernst.ErnstSolution("shear", first, second, weyl=None)
