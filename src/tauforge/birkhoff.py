"""Birkhoff factorization gamma = g_minus g_plus^{-1} on the unit circle.

g_plus extends holomorphically over the unit disc (modes >= 0), g_minus over
its complement including infinity (modes <= 0) with g_minus(infinity) = I.
Requiring modes 1..N of gamma g_plus to vanish and mode 0 to equal the
identity gives a square block-Toeplitz system T_N of size n(N+1) in the
g_plus coefficients; g_minus is the nonpositive part of gamma g_plus.  One
LU factorization of T_N per loop gives both that solve and det T_N, the
Segal-Wilson tau-function.  Loops off the big cell (nontrivial partial
indices) make T_N singular and are reported as BigCellError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .loops import (
    DEFAULT_SAMPLES,
    MatrixLoop,
    _by_block,
    _fast_len,
    coeffs_to_samples,
    inverse_2x2,
    matmul_2x2,
    samples_to_coeffs,
)

FACTOR_TOL = 1e-9
COND_LIMIT = 1e12


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
    return gamma.coeffs.reshape(-1)[_toeplitz_index(gamma.order, gamma.n)]


def _toeplitz_index(order: int, n: int) -> np.ndarray:
    """Flat position, in one (2N+1, n, n) loop, of every entry of T_N:
    row m n + a, column j n + c holds entry (a, c) of mode m - j."""
    blocks = np.arange(order + 1)
    entry = np.arange(n)
    mode = blocks[:, None, None, None] - blocks[None, None, :, None] + order
    idx = (mode * n + entry[None, :, None, None]) * n + entry[None, None, None, :]
    return idx.reshape(n * (order + 1), n * (order + 1))


def _lu_block(cs: np.ndarray, order: int, n: int):
    """(X, ok, sign, log|det T_N|) for a (B, 2N+1, n, n) block from one
    LAPACK zgesv per loop; X solves T_N X = E_0, the identity top block.

    np.take gathers T_N transposed in C order (fancy indexing would put the
    loop axis innermost), so tt[i].T is T_N in Fortran order and zgesv
    overwrites it with its LU factors, whose diagonal and pivot parity give
    the determinant.  A singular T_N gives X = 0, ok False, sign 0 and
    log|det| = -inf, without raising.
    """
    b, size = len(cs), n * (order + 1)
    flat = np.asarray(cs, dtype=complex).reshape(b, (2 * order + 1) * n * n)
    tt = np.take(flat, _toeplitz_index(order, n).T, axis=1)
    rhs = np.eye(size, n, dtype=complex)
    sol = np.empty((b, size, n), dtype=complex)
    piv = np.empty((b, size), dtype=np.int32)
    info = np.empty(b, dtype=int)
    for i in range(b):
        _, piv[i], sol[i], info[i] = lapack.zgesv(tt[i].T, rhs, overwrite_a=1)
    ok = info == 0
    sol[~ok] = 0
    diag = np.diagonal(tt, axis1=1, axis2=2)
    odd = np.count_nonzero(piv != np.arange(size), axis=1) % 2  # 0-based
    with np.errstate(divide="ignore", invalid="ignore"):
        sign = np.prod(diag / np.abs(diag), axis=1) * (1 - 2 * odd)
        logabs = np.log(np.abs(diag)).sum(axis=1)
    return sol, ok, np.where(ok, sign, 0), np.where(ok, logabs, -np.inf)


def toeplitz_slogdet(coeffs: np.ndarray):
    """(sign, log|det|) of the system matrix T_N for (B, 2N+1, n, n) loops.

    det T_N is the Segal-Wilson tau-function of the loop up to its
    normalization; it vanishes exactly where the solve is singular, so
    |det| measures the distance to the boundary of the big cell.  A
    singular T_N gives sign 0 and log|det| = -inf.
    """
    _, nmodes, n, _ = coeffs.shape
    return _by_block(lambda cs: _lu_block(cs, nmodes // 2, n)[2:], coeffs)


def factorize_slogdet(coeffs: np.ndarray, sample_count: int = DEFAULT_SAMPLES,
                      tol: float = FACTOR_TOL):
    """factorize_batch's four arrays, then toeplitz_slogdet's (sign,
    log|det T_N|), both from one LU factorization per loop."""
    _, nmodes, n, _ = coeffs.shape
    if n != 2:
        raise ValueError(f"only 2x2 loops are factored, got {n}x{n}")
    order = (nmodes - 1) // 2

    def block(cs):
        sol, good, sign, logabs = _lu_block(cs, order, 2)
        gm, gp, res = _assemble(cs, sol.reshape(len(cs), order + 1, 2, 2),
                                order, sample_count)
        res[~np.isfinite(res)] = np.inf
        good &= res <= tol
        gm[~good] = gp[~good] = 0
        return gm, gp, res, good, sign, logabs

    return _by_block(block, coeffs)


def factorize_batch(coeffs: np.ndarray, sample_count: int = DEFAULT_SAMPLES,
                    tol: float = FACTOR_TOL):
    """Factor a stack of 2x2 loops given as (B, 2N+1, 2, 2) coefficient arrays.

    Returns (g_minus_coeffs (B, 2N+1, 2, 2), g_plus_coeffs, residuals, ok),
    the first four arrays of factorize_slogdet.  Nodes whose system is
    singular or whose reconstruction residual exceeds tol are flagged
    ok = False instead of raising; the coefficient entries for failed nodes
    are zero.  The stack is solved serially in blocks of loops sized so
    that a block's T_N matrices and samples stay in cache, not to bound
    memory; each loop is LU-factored on its own, so a loop's result does
    not depend on the others in its block.  An empty stack gives empty
    arrays.  Loops of another matrix size raise ValueError.
    """
    return factorize_slogdet(coeffs, sample_count, tol)[:4]


def _assemble(coeffs, plus, order, sample_count):
    """Normalize the factors and measure sup |gamma - g_minus g_plus^{-1}|.

    All sample algebra is the closed 2x2 form; a singular g_plus sample or
    twist makes the residual non-finite, which fails that loop alone.
    """
    m = _fast_len(max(sample_count, 4 * order + 2))
    gamma_vals = coeffs_to_samples(coeffs, m)
    plus_vals = coeffs_to_samples(plus, m, first_mode=0)
    minus = samples_to_coeffs(matmul_2x2(gamma_vals, plus_vals),
                              order)[:, :order + 1]  # modes -N..0

    # normalize: right-multiply both factors so that g_minus mode 0 is
    # exactly the identity; the twist constant is itself mode 0, so it
    # multiplies the g_plus samples as it does the coefficients
    with np.errstate(all="ignore"):
        twist = inverse_2x2(minus[:, -1])[:, None]
        minus = matmul_2x2(minus, twist)
        plus = matmul_2x2(plus, twist)
        plus_vals = matmul_2x2(plus_vals, twist)
    minus[:, -1] = np.eye(2)

    gm = np.zeros(coeffs.shape, dtype=complex)
    gm[:, :order + 1] = minus
    gp = np.zeros_like(gm)
    gp[:, order:] = plus

    minus_vals = coeffs_to_samples(minus, m, first_mode=-order)
    with np.errstate(all="ignore"):
        recon = matmul_2x2(minus_vals, inverse_2x2(plus_vals))
    res = np.abs(recon - gamma_vals).max(axis=(1, 2, 3))
    return gm, gp, res


def factorize(gamma: MatrixLoop, tol: float = FACTOR_TOL) -> BirkhoffFactors:
    """Factor a single loop, with a condition estimate of the Toeplitz system.

    Raises BigCellError when the system condition exceeds COND_LIMIT or the
    reconstruction residual exceeds tol.
    """
    t = toeplitz_matrix(gamma)
    condition = float(np.linalg.cond(t))
    if not np.isfinite(condition) or condition > COND_LIMIT:
        raise BigCellError(f"Toeplitz condition {condition:.3e} exceeds {COND_LIMIT:.1e}")
    gm, gp, res, ok = factorize_batch(gamma.coeffs[None], tol=tol)
    if not ok[0]:
        raise BigCellError(f"reconstruction residual {res[0]:.3e} exceeds tol {tol:.1e}")
    g_minus = MatrixLoop(gm[0], unimodular=gamma.unimodular)
    g_plus = MatrixLoop(gp[0], unimodular=gamma.unimodular)
    return BirkhoffFactors(g_minus, g_plus, float(res[0]), condition)

