"""Birkhoff factorization gamma = g_minus g_plus^{-1} on the unit circle.

g_plus extends holomorphically over the unit disc (modes >= 0), g_minus over
its complement including infinity (modes <= 0) with g_minus(infinity) = I.
Requiring modes 1..N of gamma g_plus to vanish and mode 0 to equal the
identity gives a square block-Toeplitz system T_N of size n(N+1) in the
g_plus coefficients; g_minus is the nonpositive part of gamma g_plus.  One
LU factorization of T_N per loop gives both that solve and det T_N, the
Segal-Wilson tau-function; a real coefficient stack is factored in real
arithmetic on the upper half circle.  Loops off the big cell (nontrivial
partial indices) make T_N singular and are reported as BigCellError.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

from .loops import (
    MatrixLoop,
    _block_loops,
    _by_block,
    coeffs_to_half_samples,
    coeffs_to_samples,
    default_sample_count,
    half_samples_to_coeffs,
    inverse_2x2,
    matmul_2x2,
    samples_to_coeffs,
)

FACTOR_TOL = 1e-9


class BigCellError(RuntimeError):
    """Loop is (numerically) outside the big cell of the Birkhoff decomposition."""


@dataclass
class BirkhoffFactors:
    g_minus: MatrixLoop
    g_plus: MatrixLoop
    residual: float


@lru_cache(maxsize=None)
def _toeplitz_index(order: int, n: int) -> np.ndarray:
    """Flat position, in one (2N+1, n, n) loop, of every entry of T_N:
    row m n + a, column j n + c holds entry (a, c) of mode m - j.  Built
    once per (order, n) and read-only, as every block shares it."""
    blocks = np.arange(order + 1)
    entry = np.arange(n)
    mode = blocks[:, None, None, None] - blocks[None, None, :, None] + order
    idx = (mode * n + entry[None, :, None, None]) * n + entry[None, None, None, :]
    idx = idx.reshape(n * (order + 1), n * (order + 1))
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _flapack():
    """scipy's f2py LAPACK extension, which holds dgesv and zgesv, loaded
    from scipy's linalg directory without importing the scipy.linalg
    package, whose import is mostly modules no run uses and most of a CLI
    process's start-up.  An extension scipy.linalg has loaded already is
    taken as it is; if the file is missing or does not load,
    scipy.linalg.lapack stands in.  The loaded module is not registered
    in sys.modules."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = (Path(find_spec("scipy").origin).parent / "linalg"
            / f"_flapack{EXTENSION_SUFFIXES[0]}")
    try:
        spec = spec_from_file_location(name, path)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        from scipy.linalg import lapack
        return lapack
    return module


def _lu_block(cs: np.ndarray, order: int, n: int):
    """(X, ok, sign, log|det T_N|) for a (B, 2N+1, n, n) block from one
    LAPACK gesv per loop, dgesv for a real block and zgesv otherwise; X
    solves T_N X = E_0, the identity top block.

    np.take gathers T_N transposed in C order (fancy indexing would put the
    loop axis innermost), so tt[i].T is T_N in Fortran order and gesv
    overwrites it with its LU factors, whose diagonal and pivot parity give
    the determinant.  A singular T_N gives X = 0, ok False, sign 0 and
    log|det| = -inf, without raising.
    """
    lapack = _flapack()
    b, size = len(cs), n * (order + 1)
    dtype, gesv = ((complex, lapack.zgesv) if np.iscomplexobj(cs)
                   else (float, lapack.dgesv))
    flat = np.asarray(cs, dtype=dtype).reshape(b, (2 * order + 1) * n * n)
    tt = np.take(flat, _toeplitz_index(order, n).T, axis=1)
    rhs = np.eye(size, n, dtype=dtype)
    sol = np.empty((b, size, n), dtype=dtype)
    piv = np.empty((b, size), dtype=np.int32)
    info = np.empty(b, dtype=int)
    for i in range(b):
        _, piv[i], sol[i], info[i] = gesv(tt[i].T, rhs, overwrite_a=1)
    ok = info == 0
    sol[~ok] = 0
    diag = np.diagonal(tt, axis1=1, axis2=2)
    odd = np.count_nonzero(piv != np.arange(size), axis=1) % 2  # 0-based
    with np.errstate(divide="ignore", invalid="ignore"):
        sign = np.prod(diag / np.abs(diag), axis=1) * (1 - 2 * odd)
        logabs = np.log(np.abs(diag)).sum(axis=1)
    return sol, ok, np.where(ok, sign, 0), np.where(ok, logabs, -np.inf)


def factorize_slogdet(coeffs: np.ndarray, *, tol: float = FACTOR_TOL):
    """factorize_batch's four arrays, then (sign, log|det T_N|), all from
    one LU factorization per loop; a real stack has real factors, from
    real arithmetic (see _assemble).

    det T_N is the Segal-Wilson tau-function of the loop up to its
    normalization; it vanishes exactly where the solve is singular, so
    |det| measures the distance to the boundary of the big cell.  A
    singular T_N gives sign 0 and log|det| = -inf.
    """
    _, nmodes, n, _ = coeffs.shape
    if n != 2:
        raise ValueError(f"only 2x2 loops are factored, got {n}x{n}")
    order = (nmodes - 1) // 2

    def block(cs):
        sol, good, sign, logabs = _lu_block(cs, order, 2)
        gm, gp, res = _assemble(cs, sol.reshape(len(cs), order + 1, 2, 2),
                                order)
        res[~np.isfinite(res)] = np.inf
        good &= res <= tol
        gm[~good] = gp[~good] = 0
        return gm, gp, res, good, sign, logabs

    return _by_block(block, coeffs, _block_loops(order))


def factorize_batch(coeffs: np.ndarray, sample_count: int | None = None,
                    tol: float = FACTOR_TOL):
    """Factor a stack of 2x2 loops given as (B, 2N+1, 2, 2) coefficient arrays.

    Returns (g_minus_coeffs (B, 2N+1, 2, 2), g_plus_coeffs, residuals, ok),
    the first four arrays of factorize_slogdet.  Nodes whose system is
    singular or whose reconstruction residual exceeds tol are flagged
    ok = False instead of raising; the coefficient entries for failed nodes
    are zero.  The stack is solved serially in blocks of _block_loops(N)
    loops, 64 up to the default order, fewer as N grows; each loop is
    LU-factored on its own, so a loop's result does not depend on the
    others in its block.  An empty stack gives empty arrays.  Loops of
    another matrix size raise ValueError.
    sample_count, kept for callers that pass a manifest's "samples", must
    be None or default_sample_count(N), the grid of every residual.
    """
    m = default_sample_count((coeffs.shape[1] - 1) // 2)
    if sample_count not in (None, m):
        raise ValueError(f"sample_count = {sample_count}: these loops are "
                         f"sampled at {m} points, the only value accepted")
    return factorize_slogdet(coeffs, tol=tol)[:4]


def _assemble(coeffs, plus, order):
    """Normalize the factors and measure sup |gamma - g_minus g_plus^{-1}|.

    All sample algebra is the closed 2x2 form; a singular g_plus sample or
    twist makes the residual non-finite, which fails that loop alone.
    Real loops are sampled on the upper half circle, as the lower half
    holds the conjugates, residual included.
    """
    m = default_sample_count(order)
    to_samples, to_coeffs = (
        (coeffs_to_samples, samples_to_coeffs) if np.iscomplexobj(coeffs)
        else (coeffs_to_half_samples, half_samples_to_coeffs))
    gamma_vals = to_samples(coeffs, m)
    plus_vals = to_samples(plus, m, first_mode=0)
    minus = to_coeffs(matmul_2x2(gamma_vals, plus_vals),
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

    # each temporary is dropped once read, so the block's peak holds as
    # few sample stacks as the residual needs
    gm = np.zeros(coeffs.shape, dtype=minus.dtype)
    gm[:, :order + 1] = minus
    gp = np.zeros_like(gm)
    gp[:, order:] = plus
    del plus
    minus_vals = to_samples(minus, m, first_mode=-order)
    del minus
    with np.errstate(all="ignore"):
        plus_inv = inverse_2x2(plus_vals)
        del plus_vals
        recon = matmul_2x2(minus_vals, plus_inv)
    del minus_vals, plus_inv
    res = np.abs(np.subtract(recon, gamma_vals, out=recon)).max(axis=(1, 2, 3))
    return gm, gp, res


def factorize(gamma: MatrixLoop, tol: float = FACTOR_TOL) -> BirkhoffFactors:
    """Factor a single loop: factorize_slogdet on a one-loop stack.

    Raises BigCellError when T_N is singular, the LU's verdict that the
    loop is off the big cell, or when the reconstruction residual exceeds
    tol.
    """
    gm, gp, res, ok, sign, _ = factorize_slogdet(gamma.coeffs[None], tol=tol)
    if sign[0] == 0:
        size = gamma.n * (gamma.order + 1)
        raise BigCellError(f"T_N (N = {gamma.order}, {size}x{size}) is "
                           "singular: the loop is off the big cell")
    if not ok[0]:
        raise BigCellError(f"reconstruction residual {res[0]:.3e} exceeds tol {tol:.1e}")
    return BirkhoffFactors(MatrixLoop(gm[0]), MatrixLoop(gp[0]), float(res[0]))
