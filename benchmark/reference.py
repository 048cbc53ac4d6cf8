"""References for the benchmark's output checks, computed apart from tauforge.

Nothing here imports the program.  Each function rebuilds the quantity a
pipeline reports from its mathematical definition, with plain numpy and
scipy, so that a fault in the program's pullback, factorization or
quadrature cannot hide in the reference.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def wrapped_error(values, reference) -> float:
    """max |values - reference| with imaginary parts compared modulo 2 pi."""
    diff = np.asarray(values, dtype=complex) - np.asarray(reference, dtype=complex)
    im = (diff.imag + np.pi) % (2 * np.pi) - np.pi
    return float(np.max(np.hypot(diff.real, im)))


# -- KdV: tau as a block-Toeplitz determinant -----------------------------


def _one_pole_gamma_modes(x, t, pole, strength, order, samples):
    """Modes -order..order of gamma = exp(-mu Phi) P0 at v = 0, shape (B, 2N+1, 2, 2).

    Phi = [[0, 1/lambda], [1, 0]], mu = lambda x + lambda^2 t, and
    P0 = I + strength/(lambda - pole) [[0, 0], [1, 0]] is evaluated in
    closed form, not from a truncated series.  exp is scipy's expm on every
    sample matrix.
    """
    lam = np.exp(2j * np.pi * np.arange(samples) / samples)
    x = np.asarray(x, dtype=float)[:, None]
    t = np.asarray(t, dtype=float)[:, None]
    mu = lam * x + lam ** 2 * t
    phi = np.zeros((samples, 2, 2), dtype=complex)
    phi[:, 0, 1] = 1.0 / lam
    phi[:, 1, 0] = 1.0
    expo = scipy.linalg.expm(-mu[..., None, None] * phi)
    p0 = np.zeros((samples, 2, 2), dtype=complex)
    p0[:, 0, 0] = p0[:, 1, 1] = 1.0
    p0[:, 1, 0] = strength / (lam - pole)
    spec = np.fft.fft(expo @ p0, axis=1) / samples
    return spec[:, np.arange(-order, order + 1) % samples]


def _log_det_toeplitz(modes):
    """log det of the (N+1)x(N+1) block-Toeplitz matrix, block (m, j) = mode m - j."""
    b, nmodes, n, _ = modes.shape
    order = (nmodes - 1) // 2
    idx = np.arange(order + 1)[:, None] - np.arange(order + 1)[None, :] + order
    mat = modes[:, idx].transpose(0, 1, 3, 2, 4).reshape(
        b, n * (order + 1), n * (order + 1))
    sign, logabs = np.linalg.slogdet(mat)
    return np.log(sign) + logabs


def kdv_log_tau(x, t, pole, strength, order=32, samples=256):
    """Segal-Wilson log tau: -(log det T_N(x, t) - log det T_N(0, 0)), modulo 2 pi i."""
    at = _log_det_toeplitz(_one_pole_gamma_modes(
        x, t, pole, strength, order, samples))
    origin = _log_det_toeplitz(_one_pole_gamma_modes(
        [0.0], [0.0], pole, strength, order, samples))
    return -(at - origin[0])


# -- Birkhoff: factors checked by direct Laurent evaluation ---------------


def laurent_values(coeffs, lam):
    """sum_k c_k lambda^k for (B, 2N+1, n, n) coefficients at points lam, (B, P, n, n)."""
    order = (coeffs.shape[1] - 1) // 2
    powers = np.asarray(lam)[:, None] ** np.arange(-order, order + 1)[None, :]
    return np.einsum("pk,bkij->bpij", powers, coeffs)


def birkhoff_factor_errors(gamma, g_minus, g_plus, lam) -> dict:
    """Worst defect of each factorization property over a stack of loops.

    gamma, g_minus, g_plus: (B, 2N+1, 2, 2) coefficients; lam: circle points.
    """
    order = (gamma.shape[1] - 1) // 2
    gam = laurent_values(gamma, lam)
    recon = laurent_values(g_minus, lam) @ np.linalg.inv(laurent_values(g_plus, lam))
    return {
        "reconstruction": float(np.abs(gam - recon).max()),
        "minus_positive_modes": float(np.abs(g_minus[:, order + 1:]).max()),
        "minus_mode0_identity": float(np.abs(g_minus[:, order] - np.eye(2)).max()),
        "plus_negative_modes": float(np.abs(g_plus[:, :order]).max()),
        "det_gamma": float(np.abs(np.linalg.det(gam) - 1.0).max()),
    }


# -- Ernst: Weyl-class log tau in closed form -----------------------------


def ernst_log_tau(kind, params, r, z):
    """log tau = 1/2 ln r + 2 gamma_Weyl, zero at the base point (r, z) = (1, 0).

    kasner:       psi = a ln r,           log tau = (1 + a^2)/2 ln r
    point_source: psi = s / R,            log tau = 1/2 ln r - s^2 r^2 / (4 R^4) + const
    with R^2 = r^2 + (z - z0)^2.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    if kind == "kasner":
        return 0.5 * (1.0 + params["a"] ** 2) * np.log(r)
    if kind == "point_source":
        s, z0 = params["strength"], params["z0"]

        def weyl(rr, zz):
            return -s * s * rr * rr / (4.0 * (rr * rr + (zz - z0) ** 2) ** 2)

        return 0.5 * np.log(r) + weyl(r, z) - weyl(1.0, 0.0)
    raise ValueError(f"no closed form for preset '{kind}'")
