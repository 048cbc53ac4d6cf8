"""Birkhoff factorization gamma = g_minus g_plus^{-1} on the unit circle.

g_plus extends holomorphically over the unit disc (modes >= 0), g_minus over
its complement including infinity (modes <= 0) with g_minus(infinity) = I.
The factorization is computed as one dense block-Toeplitz solve: requiring
modes 1..N of gamma g_plus to vanish and mode 0 to equal the identity gives
a square system of size n(N+1) whose unknowns are the g_plus coefficients;
g_minus is then the nonpositive part of gamma g_plus.  Loops off the big
cell (nontrivial partial indices) make the system singular and are reported
as BigCellError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loops import (
    DEFAULT_SAMPLES,
    MatrixLoop,
    _fast_len,
    coeffs_to_samples,
    samples_to_coeffs,
)

FACTOR_TOL = 1e-9
COND_LIMIT = 1e12
CHUNK = 512


class BigCellError(RuntimeError):
    """Loop is (numerically) outside the big cell of the Birkhoff decomposition."""


@dataclass
class BirkhoffFactors:
    g_minus: MatrixLoop
    g_plus: MatrixLoop
    residual: float
    condition: float


def toeplitz_matrix(gamma: MatrixLoop) -> np.ndarray:
    """Dense system matrix; block (m, j) holds gamma's mode m - j."""
    return _toeplitz_batch(gamma.coeffs[None], gamma.order, gamma.n)[0]


def _toeplitz_batch(coeffs: np.ndarray, order: int, n: int) -> np.ndarray:
    idx = np.arange(order + 1)[:, None] - np.arange(order + 1)[None, :] + order
    blocks = coeffs[:, idx]                      # (B, m, j, n, n)
    blocks = blocks.transpose(0, 1, 3, 2, 4)     # (B, m, n, j, n)
    b = coeffs.shape[0]
    return blocks.reshape(b, n * (order + 1), n * (order + 1))


def toeplitz_slogdet(coeffs: np.ndarray):
    """(sign, log|det|) of the system matrix T_N for (B, 2N+1, n, n) loops.

    det T_N is the Segal-Wilson tau-function of the loop up to its
    normalization; it vanishes exactly where the solve is singular, so
    |det| measures the distance to the boundary of the big cell.  The
    stack is decomposed in chunks of CHUNK loops to bound the memory of
    the dense matrices.
    """
    b, nmodes, n, _ = coeffs.shape
    order = (nmodes - 1) // 2
    sign = np.empty(b, dtype=complex)
    logabs = np.empty(b)
    for lo in range(0, b, CHUNK):
        sl = slice(lo, lo + CHUNK)
        sign[sl], logabs[sl] = np.linalg.slogdet(
            _toeplitz_batch(coeffs[sl], order, n))
    return sign, logabs


def _rhs(order: int, n: int) -> np.ndarray:
    rhs = np.zeros((n * (order + 1), n), dtype=complex)
    rhs[:n, :n] = np.eye(n)
    return rhs


def factorize_batch(coeffs: np.ndarray, sample_count: int = DEFAULT_SAMPLES,
                    tol: float = FACTOR_TOL):
    """Factor a stack of loops given as (B, 2N+1, n, n) coefficient arrays.

    Returns (g_minus_coeffs (B, 2N+1, n, n), g_plus_coeffs, residuals, ok).
    Nodes whose system is singular or whose reconstruction residual exceeds
    tol are flagged ok = False instead of raising; the coefficient entries
    for failed nodes are zero.  The stack is solved serially in chunks of
    CHUNK loops, like toeplitz_slogdet, to bound the memory of the dense
    matrices; each loop is solved on its own, so a loop's result does not
    depend on the others in its chunk.  An empty stack gives empty arrays.
    """
    b, nmodes, n, _ = coeffs.shape
    order = (nmodes - 1) // 2
    rhs = _rhs(order, n)

    def solve(cs):
        t = _toeplitz_batch(cs, order, n)
        try:
            sol = np.linalg.solve(t, np.broadcast_to(rhs, (len(cs),) + rhs.shape))
            good = np.ones(len(cs), dtype=bool)
        except np.linalg.LinAlgError:
            sol = np.zeros((len(cs),) + rhs.shape, dtype=complex)
            good = np.zeros(len(cs), dtype=bool)
            for j in range(len(cs)):
                try:
                    sol[j] = np.linalg.solve(t[j], rhs)
                    good[j] = True
                except np.linalg.LinAlgError:
                    pass
        plus = sol.reshape(len(cs), order + 1, n, n)
        gm, gp, res = _assemble(cs, plus, order, n, sample_count)
        bad = ~np.isfinite(res)
        res[bad] = np.inf
        good &= ~bad
        good &= res <= tol
        gm[~good] = 0
        gp[~good] = 0
        return gm, gp, res, good

    # an empty stack still makes one (empty) chunk, which fixes the shapes
    parts = [solve(coeffs[lo:lo + CHUNK]) for lo in range(0, max(b, 1), CHUNK)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _assemble(coeffs, plus, order, n, sample_count):
    """Normalize the factors and measure sup |gamma - g_minus g_plus^{-1}|."""
    b = len(coeffs)
    m = _fast_len(max(sample_count, 4 * order + 2))
    gamma_vals = coeffs_to_samples(coeffs, m)
    prod_vals = gamma_vals @ coeffs_to_samples(plus, m, first_mode=0)
    minus = samples_to_coeffs(prod_vals, order)[:, :order + 1]  # modes -N..0

    # normalize: right-multiply both factors so that g_minus mode 0 is
    # exactly the identity; the twist constant is itself mode 0
    with np.errstate(all="ignore"):
        twist = _inv_per_loop(minus[:, -1])
    minus = minus @ twist[:, None]
    plus = plus @ twist[:, None]
    minus[:, -1] = np.eye(n)

    gm = np.zeros((b, 2 * order + 1, n, n), dtype=complex)
    gm[:, :order + 1] = minus
    gp = np.zeros_like(gm)
    gp[:, order:] = plus

    plus_vals = coeffs_to_samples(plus, m, first_mode=0)
    minus_vals = coeffs_to_samples(minus, m, first_mode=-order)
    with np.errstate(all="ignore"):
        recon = minus_vals @ _inv_per_loop(plus_vals)
    res = np.abs(recon - gamma_vals).max(axis=(1, 2, 3))
    return gm, gp, res


def _inv_per_loop(mats):
    """Inverse of a stack over axis 0; a loop holding a singular matrix gets
    NaNs, so it fails alone instead of with every loop in its chunk."""
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        out = np.full_like(mats, np.nan)
        for j, mat in enumerate(mats):
            try:
                out[j] = np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                pass
        return out


def factorize(gamma: MatrixLoop, tol: float = FACTOR_TOL,
              cond_limit: float = COND_LIMIT) -> BirkhoffFactors:
    """Factor a single loop, with a condition estimate of the Toeplitz system.

    Raises BigCellError when the system condition exceeds cond_limit or the
    reconstruction residual exceeds tol.
    """
    t = toeplitz_matrix(gamma)
    condition = float(np.linalg.cond(t))
    if not np.isfinite(condition) or condition > cond_limit:
        raise BigCellError(f"Toeplitz condition {condition:.3e} exceeds {cond_limit:.1e}")
    gm, gp, res, ok = factorize_batch(gamma.coeffs[None], gamma.sample_count, tol=tol)
    if not ok[0]:
        raise BigCellError(f"reconstruction residual {res[0]:.3e} exceeds tol {tol:.1e}")
    g_minus = MatrixLoop(gm[0], gamma.sample_count, unimodular=gamma.unimodular)
    g_plus = MatrixLoop(gp[0], gamma.sample_count, unimodular=gamma.unimodular)
    return BirkhoffFactors(g_minus, g_plus, float(res[0]), condition)

