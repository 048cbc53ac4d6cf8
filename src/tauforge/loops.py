"""Truncated matrix-valued Fourier series on the unit circle.

A loop is the trigonometric polynomial f(lambda) = sum_{k=-N}^{N} c_k lambda^k
with lambda = exp(i theta), stored by its coefficient stack c_k (each an n x n
complex matrix); its sample grid theta_j = 2 pi j / M has the M that
default_sample_count derives from N: the fewest points, a power of two,
on which the widest product the batch path keeps, gamma g_plus in the
factorization, loses no kept mode to aliasing.  The pipelines' loops are
2x2, and the inverse and the exponential take only those; a scalar loop
(n = 1) enters only as the multiplier of a product.
A loop with real coefficients is fixed by its samples on the upper half
circle, which coeffs_to_half_samples and half_samples_to_coeffs carry.
Products are dealiased by zero-padding to an exact grid; nothing is ever
smoothed or filtered, so every operation is exact up to rounding except where
an explicit truncation with a tail-mass check is requested.
"""

from __future__ import annotations

import numpy as np

DEFAULT_ORDER = 32
DEFAULT_SAMPLES = 128
TAIL_THRESHOLD = 1e-8
TANGENT_BAND = 8
# damping of mode k of a random tangent, TANGENT_DECAY^|k|; it keeps exp of
# the tangent inside the TAIL_THRESHOLD budget at order 32
TANGENT_DECAY = 0.25
# loops per block of every batch stage up to DEFAULT_ORDER (_block_loops):
# a block's 128-point sample stack of 2x2 loops is 0.5 MB, so each stage
# works in L2 cache; 64 was the pick of a timing sweep over 32..512 on the
# 256-point grid, and on the 128-point grid 128 loops gained no resolved
# speed over it at 5-8% more peak RSS
_BLOCK = 64
# largest sample condition number inverse() accepts
INVERSE_COND_MAX = 1e10


class TailMassError(RuntimeError):
    """Raised when discarded or high-mode coefficient mass exceeds the
    threshold.  For a stack, loop is the worst loop's flat index (in C
    order over the loop axes), which the message names "in loop <index>"
    unless the raiser places it by where, in its own terms."""

    def __init__(self, what: str, mass: float, tol: float,
                 loop: int | None = None, where: str | None = None):
        if where is None and loop is not None:
            where = f"in loop {loop}"
        hint = ("increase the truncation order" if np.isfinite(mass)
                else "the loop is not finite")
        super().__init__(f"{what} {mass:.3e}{' ' + where if where else ''} "
                         f"exceeds {tol:.1e}; {hint}")
        self.what, self.mass, self.tol, self.loop = what, mass, tol, loop


class SingularLoopError(RuntimeError):
    """Raised when a pointwise inverse meets a sample matrix with cond > limit."""


class NumericalInvariantError(ValueError):
    """A computed quantity broke an invariant it must hold (reality, a
    vanishing defect); the CLI reports it as a failed check, exit 2."""


def default_sample_count(order: int) -> int:
    """Grid size M for loops of modes -N..N, N = order: the smallest power
    of two with M >= 3N + 2, and at least DEFAULT_SAMPLES; every circle
    grid is this function of the largest order involved.

    Only the modes a product keeps must be free of aliasing (Orszag's
    rule): gamma g_plus in the factorization has modes -N..2N and keeps
    -N..N, exact on M >= 3N + 1, and gauge_variation with a direction of
    order K <= N needs M >= 2N + K + 2 <= 3N + 2.  The floor keeps at
    least 128 - (2N + 1) alias bins under watch at low orders, so that
    the tail checks of exp and of the KdV pullback still see a slowly
    decaying spectrum instead of folding it onto the kept modes.
    """
    # a power of two keeps numpy's FFT on its fastest path
    return max(DEFAULT_SAMPLES, 1 << (3 * int(order) + 1).bit_length())


def circle_points(m: int):
    """lambda_j = exp(2 pi i j / M), the sample grid of every transform."""
    return np.exp(2j * np.pi * np.arange(m) / m)


# -- coefficient stacks (..., K, n, n), modes on axis -3 -----------------
#
# Sample stacks (..., M, n, n) are views of memory laid out entry-major,
# (..., n, n, M): every FFT row and every entry plane is contiguous.


def _entry_major_empty(shape, dtype=complex):
    """Uninitialized (..., M, n, n) array whose memory is (..., n, n, M)."""
    shape = tuple(shape)
    if len(shape) < 3:
        return np.empty(shape, dtype=dtype)
    return np.moveaxis(np.empty(shape[:-3] + shape[-2:] + shape[-3:-2],
                                dtype=dtype), -1, -3)


def _spectrum(coeffs, m: int, first_mode, dtype, negate: bool = False):
    """Zero-padded spectrum (..., n, n, M) of a coefficient stack, mode k
    in bin k mod M, or -k mod M with negate (see coeffs_to_samples)."""
    coeffs = np.asarray(coeffs, dtype=dtype)
    k = coeffs.shape[-3]
    if k > m:
        raise ValueError("sample grid cannot resolve the loop")
    if first_mode is None:
        first_mode = -((k - 1) // 2)
    src = np.moveaxis(coeffs, -3, -1)
    if negate:
        src, first_mode = src[..., ::-1], -(first_mode + k - 1)
    spec = np.zeros(src.shape[:-1] + (m,), dtype=dtype)
    # the modes fill a cyclic run of bins: up to the top, then from bin 0
    start = first_mode % m
    split = min(k, m - start)
    spec[..., start:start + split] = src[..., :split]
    spec[..., :k - split] = src[..., split:]
    return spec


def coeffs_to_samples(coeffs, m: int, first_mode: int | None = None):
    """Values on the M-point circle grid, exact via zero-padded FFT.

    The K modes on axis -3 run first_mode..first_mode+K-1; the default
    centres them on 0, as for a loop with modes -N..N.  The result is an
    entry-major view (see above).
    """
    spec = _spectrum(coeffs, m, first_mode, complex)
    np.fft.ifft(spec, axis=-1, norm="forward", out=spec)
    return np.moveaxis(spec, -1, -3)


def coeffs_to_half_samples(coeffs, m: int, first_mode: int | None = None):
    """coeffs_to_samples for real coefficients, at lambda_j, j = 0..M/2
    (M even): f(conj lambda) = conj f(lambda) gives the other samples.
    With mode k in bin -k, rfft's e^{-2 pi i j n / M} gives lambda_j^k.
    """
    spec = _spectrum(coeffs, m, first_mode, float, negate=True)
    return np.moveaxis(np.fft.rfft(spec, axis=-1), -1, -3)


def _tail_fraction(stack, kept, axis: int = -3):
    """Per-loop share of the mode-norm mass outside the kept modes; the
    modes run along axis, the other two trailing axes are the entries."""
    stack = np.moveaxis(stack, axis, -1)
    # an inf entry overflows the squares and gives a NaN fraction, quietly:
    # _check_tail rejects it as a loop that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((stack.real ** 2 + stack.imag ** 2).sum(axis=(-3, -2)))
        total = norms.sum(axis=-1)
        dropped = norms[..., ~kept].sum(axis=-1)
        return dropped / np.where(total > 0, total, 1.0)


def samples_to_coeffs(samples, order: int, tail_tol: float | None = None):
    """Modes -order..order of loops sampled on the circle grid (axis -3).

    The FFT runs along the grid axis moved last, which is contiguous for
    entry-major stacks.  With tail_tol, the mass in the discarded alias
    bins is checked loop by loop and the worst loop raises TailMassError
    if it exceeds tail_tol.
    """
    coeffs, fraction = _coeffs_and_tail(samples, order, tail_tol is not None)
    if tail_tol is not None:
        _check_tail(fraction, tail_tol)
    return coeffs


def half_samples_to_coeffs(samples, order: int,
                           tail_tol: float | None = None):
    """samples_to_coeffs for real coefficients, from the M/2 + 1 samples
    of coeffs_to_half_samples."""
    coeffs, fraction = _coeffs_and_tail(samples, order, tail_tol is not None,
                                        half=True)
    if tail_tol is not None:
        _check_tail(fraction, tail_tol)
    return coeffs


def _coeffs_and_tail(samples, order: int, tail: bool = True,
                     half: bool = False):
    """samples_to_coeffs without the check, and, with tail, each loop's
    share of mass in the discarded alias bins (else None); with half,
    half_samples_to_coeffs."""
    samples = np.moveaxis(np.asarray(samples, dtype=complex), -3, -1)
    m = 2 * (samples.shape[-1] - 1) if half else samples.shape[-1]
    if 2 * order + 1 > m:
        raise ValueError("sample grid cannot resolve the loop")
    # an inf sample meets inf - inf in the FFT; its tail fraction is NaN,
    # which the tail check rejects, so with tail the transform runs quietly
    quiet = {"over": "ignore", "invalid": "ignore"} if tail else {}
    with np.errstate(**quiet):
        if half:
            # irfft sums with e^{+2 pi i j n / M}: mode k lands in bin -k
            spec = np.fft.irfft(samples, n=m, axis=-1, norm="forward")
            idx = np.arange(order, -order - 1, -1) % m
        else:
            spec = np.fft.fft(samples, axis=-1)
            idx = np.arange(-order, order + 1) % m
        fraction = None
        if tail:
            kept = np.zeros(m, dtype=bool)
            kept[idx] = True
            fraction = _tail_fraction(spec, kept, axis=-1)
        return np.moveaxis(spec[..., idx] / m, -1, -3), fraction


def _check_tail(fraction, tail_tol: float, what="discarded alias mass"):
    """Raise TailMassError when the worst loop's mass fraction exceeds
    tail_tol or is NaN, as for a loop with NaN or inf entries; for a stack
    the error carries that loop's index, the first NaN one if any."""
    fraction = np.asarray(fraction)
    worst = np.max(fraction, initial=-np.inf)
    if not worst <= tail_tol:
        loop = int(fraction.argmax()) if fraction.ndim else None
        raise TailMassError(what, float(worst), tail_tol, loop)


def _block_loops(order: int) -> int:
    """Loops per block of every batch stage at order N: _BLOCK up to
    DEFAULT_ORDER, then as many as keep a block's gathered T_N matrices,
    (N+1)^2 blocks each, at the size of a _BLOCK-loop block at
    DEFAULT_ORDER, so a block's memory does not grow with N: 16 loops at
    N = 64, 4 at 128 and 1 from 256 on."""
    return max(1, min(_BLOCK, _BLOCK * (DEFAULT_ORDER + 1) ** 2
                      // (order + 1) ** 2))


def _by_block(fn, stack, size: int):
    """fn's outputs (a tuple of arrays) over blocks of size loops along
    axis 0, concatenated, the blocks in order; an empty stack still makes
    one (empty) block, which fixes the shapes.  The stack may be a range
    of loop indices, for a stage that makes its loops block by block.  fn
    must treat every loop on its own, so the result does not depend on
    where the blocks are cut."""
    parts = [fn(stack[lo:lo + size])
             for lo in range(0, max(len(stack), 1), size)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _stream_blocks(make, items, order: int, fn, half: bool = False,
                   tail_tol: float | None = TAIL_THRESHOLD) -> tuple:
    """fn's outputs (a tuple of arrays) over loops made one block of
    _block_loops(order) at a time.

    items is a range of loop indices or an array with one row per loop;
    make(items[lo:hi]) returns the block's samples on the circle grid of
    order (with half, on its upper half, for real coefficients).  They go
    back to coefficients while the block is in cache, fn gets those
    (B, 2N+1, n, n) coefficients, and only fn's outputs and the tail
    fractions outlive the block.  Once every block has run, the worst
    tail mass over all loops raises TailMassError, which names its loop,
    unless tail_tol is None; fn must therefore take non-finite loops
    quietly.  A factorization in fn blocks by the same rule: it gets
    each block whole.
    """
    def block(rows):
        coeffs, fraction = _coeffs_and_tail(make(rows), order, half=half)
        return (*fn(coeffs), fraction)

    *out, fraction = _by_block(block, items, _block_loops(order))
    if tail_tol is not None:
        _check_tail(fraction, tail_tol)
    return tuple(out)


class MatrixLoop:
    """Matrix-valued loop with modes -order..order; its circle grid has
    default_sample_count(order) points.  The one loop class: a scalar
    multiplier is its n = 1 case, which 1-D coefficients also give."""

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None, None]
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise ValueError(f"coefficient stack must be (2N+1, n, n), got {coeffs.shape}")
        if coeffs.shape[0] % 2 != 1:
            raise ValueError("coefficient stack must cover modes -N..N")
        self.coeffs = coeffs
        self.order = (coeffs.shape[0] - 1) // 2
        self.n = coeffs.shape[1]

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int = 2, order: int = DEFAULT_ORDER) -> "MatrixLoop":
        coeffs = np.zeros((2 * order + 1, n, n), dtype=complex)
        coeffs[order] = np.eye(n)
        return cls(coeffs)

    @classmethod
    def from_modes(cls, modes: dict, n: int = 2,
                   order: int = DEFAULT_ORDER) -> "MatrixLoop":
        """Build a loop from a {mode: matrix} dict; unspecified modes are zero."""
        coeffs = np.zeros((2 * order + 1, n, n), dtype=complex)
        for k, block in modes.items():
            if abs(k) > order:
                raise ValueError(f"mode {k} outside -{order}..{order}")
            coeffs[k + order] = np.asarray(block, dtype=complex)
        return cls(coeffs)

    @classmethod
    def from_samples(cls, samples, order: int,
                     tail_tol: float | None = None) -> "MatrixLoop":
        """Recover coefficients from values on the equispaced grid.

        The grid must resolve the requested order (M >= 2N+1); mass in the
        discarded alias bins beyond +-order is checked against tail_tol when
        given and raises TailMassError if exceeded.
        """
        return cls(samples_to_coeffs(samples, order, tail_tol))

    # -- basic access -------------------------------------------------

    def coeff(self, k: int):
        if abs(k) > self.order:
            raise ValueError(f"mode {k} outside -{self.order}..{self.order}")
        return self.coeffs[k + self.order]

    def samples(self, m: int | None = None):
        """Values on the grid theta_j = 2 pi j / M, exact via zero-padded FFT;
        M defaults to default_sample_count(order)."""
        return coeffs_to_samples(self.coeffs,
                                 m or default_sample_count(self.order))

    # -- structural operations ----------------------------------------

    def truncate(self, order: int) -> "MatrixLoop":
        """Keep modes -order..order; dropped mass is checked against
        TAIL_THRESHOLD, never filtered."""
        if order >= self.order:
            coeffs = np.zeros((2 * order + 1, self.n, self.n), dtype=complex)
            coeffs[order - self.order:order + self.order + 1] = self.coeffs
            return MatrixLoop(coeffs)
        ks = np.arange(-self.order, self.order + 1)
        dropped = _tail_fraction(self.coeffs, np.abs(ks) <= order)
        _check_tail(dropped, TAIL_THRESHOLD,
                    f"mass dropped by truncation to order {order}")
        sl = slice(self.order - order, self.order + order + 1)
        return MatrixLoop(self.coeffs[sl].copy())

    def derivative_theta(self) -> "MatrixLoop":
        ks = np.arange(-self.order, self.order + 1)
        return MatrixLoop(1j * ks[:, None, None] * self.coeffs)

    def trace(self) -> "MatrixLoop":
        return MatrixLoop(np.trace(self.coeffs, axis1=1, axis2=2))

    def scaled(self, factor: complex) -> "MatrixLoop":
        return MatrixLoop(self.coeffs * factor)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError(f"cannot add a {self.n}x{self.n} loop and a "
                             f"{other.n}x{other.n} loop")
        order = max(self.order, other.order)
        a, b = self.truncate(order), other.truncate(order)
        return MatrixLoop(a.coeffs + b.coeffs)

    def __sub__(self, other):
        return self + other.scaled(-1.0)


def monomial(k: int, block, order: int | None = None) -> MatrixLoop:
    """Single-mode loop block * lambda^k."""
    block = np.atleast_2d(np.asarray(block, dtype=complex))
    order = order if order is not None else max(abs(k), 1)
    return MatrixLoop.from_modes({k: block}, n=block.shape[0], order=order)


# -- pointwise algebra ---------------------------------------------------

def multiply(a: MatrixLoop, b: MatrixLoop) -> MatrixLoop:
    """Dealiased product, exact at truncation order_a + order_b on the grid
    default_sample_count(order_a + order_b); a 1x1 factor broadcasts
    against the other as a scalar multiplier; other pairs must be 2x2, or
    raise ValueError.
    """
    exact_order = a.order + b.order
    m = default_sample_count(exact_order)
    sa = coeffs_to_samples(a.coeffs, m)
    sb = coeffs_to_samples(b.coeffs, m)
    prod = (sa * sb if 1 in (a.n, b.n)
            else matmul_2x2(_require_2x2(sa), _require_2x2(sb)))
    return MatrixLoop(samples_to_coeffs(prod, exact_order))


def inverse(a: MatrixLoop) -> MatrixLoop:
    """Pointwise inverse of a 2x2 loop, transformed back at the loop's own
    truncation; other sizes raise ValueError.

    Raises SingularLoopError when any sample matrix has 2-norm condition
    above INVERSE_COND_MAX.  The result is the order-N best effort; the
    round-trip guarantee multiply(a, inverse(a)) ~ identity holds for loops
    whose inverse has geometrically decaying coefficients.
    """
    vals = a.samples()
    check_sample_condition(vals)
    return MatrixLoop.from_samples(inverse_2x2(vals), a.order)


def check_sample_condition(vals):
    """Raise SingularLoopError when a matrix of the (M, 2, 2) sample stack
    has 2-norm condition above INVERSE_COND_MAX, or is zero or not finite;
    other sizes raise ValueError.

    The singular values of a 2x2 matrix A satisfy s1^2 + s2^2 = |A|_F^2 and
    s1 s2 = |det A|, so its condition s1 / s2 is
    (|A|_F^2 + sqrt(|A|_F^4 - 4 |det A|^2)) / (2 |det A|).
    """
    vals = _require_2x2(vals)
    frob = (vals.real ** 2 + vals.imag ** 2).sum(axis=(-2, -1))
    det = np.abs(det_2x2(vals))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(((frob + np.sqrt(np.maximum(frob ** 2 - 4 * det ** 2, 0)))
                      / (2 * det)).max())
    if not cond <= INVERSE_COND_MAX:  # NaN, from a zero matrix, fails too
        raise SingularLoopError(f"sample condition {cond:.3e} > {INVERSE_COND_MAX:.1e}")


def det_2x2(m):
    """Determinants of a (..., 2, 2) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def adjugate_2x2(m):
    """Adjugates of a (..., 2, 2) stack: m adj(m) = det(m) I."""
    out = _entry_major_empty(m.shape, m.dtype)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out


def inverse_2x2(m):
    """Inverses of a (..., 2, 2) stack, adjugate over determinant, divided
    in place so the result stays entry-major; a singular matrix gives
    non-finite entries instead of raising."""
    out = adjugate_2x2(m)
    np.divide(out, det_2x2(m)[..., None, None], out=out)
    return out


def matmul_2x2(a, b):
    """Products of broadcast (..., 2, 2) stacks, entry by entry."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = _entry_major_empty(np.broadcast_shapes(a.shape, b.shape),
                             np.result_type(a, b))
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def cosh_sinhc(z):
    """(cosh sqrt(z), sinh(sqrt(z)) / sqrt(z)) on an array z, both entire.

    Both are even in sqrt(z), so the square-root branch drops out.  With
    sqrt(z) = a + ib, both share the real cosh a, sinh a, cos b and sin b,
    and the second switches to its series near z = 0.
    """
    z = np.asarray(z, dtype=complex)
    sq = np.sqrt(z)
    ch, sh = np.cosh(sq.real), np.sinh(sq.real)
    cb, sb = np.cos(sq.imag), np.sin(sq.imag)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = (sh * cb + 1j * (ch * sb)) / sq
    small = np.abs(z) < 1e-8
    zs = z[small]
    s[small] = 1.0 + zs / 6.0 + zs * zs / 120.0
    return ch * cb + 1j * (sh * sb), s


def _require_2x2(vals):
    """vals, a (..., n, n) stack, once n is 2; other sizes raise ValueError."""
    if vals.shape[-2:] != (2, 2):
        raise ValueError("only 2x2 loops are multiplied, inverted or "
                         f"exponentiated, got {vals.shape[-2]}x{vals.shape[-1]}")
    return vals


def _exp_samples(vals):
    """exp of stacked 2x2 matrices: e^{tr/2} (cosh s I + sinh(s)/s u0).

    u0 = u - (tr/2) I is traceless, so u0^2 = s^2 I with s^2 = -det u0,
    and cosh_sinhc gives cosh s and sinh(s)/s from s^2.  The result is
    built entry by entry, in the entry-major order of matmul_2x2.  Other
    sizes raise ValueError.
    """
    _require_2x2(vals)
    half_tr = 0.5 * (vals[..., 0, 0] + vals[..., 1, 1])
    u00 = vals[..., 0, 0] - half_tr
    u11 = vals[..., 1, 1] - half_tr
    cosh, sinhc = cosh_sinhc(-(u00 * u11 - vals[..., 0, 1] * vals[..., 1, 0]))
    scale = np.exp(half_tr)
    out = _entry_major_empty(vals.shape, complex)
    # multiply into out: numpy rounds a complex product written over its
    # first operand differently, and `scale * (...)` can elide into that
    np.multiply(scale, cosh + sinhc * u00, out=out[..., 0, 0])
    np.multiply(scale, cosh + sinhc * u11, out=out[..., 1, 1])
    np.multiply(scale, sinhc * vals[..., 0, 1], out=out[..., 0, 1])
    np.multiply(scale, sinhc * vals[..., 1, 0], out=out[..., 1, 0])
    return out


def exp_pointwise(a: MatrixLoop) -> MatrixLoop:
    """Pointwise exponential of a 2x2 loop by the closed form of
    _exp_samples, recovered at the input's truncation; other sizes raise
    ValueError.  Raises TailMassError when exp spreads the spectrum past
    what order N can hold.
    """
    exp_vals = _exp_samples(a.samples())
    return MatrixLoop.from_samples(exp_vals, a.order, tail_tol=TAIL_THRESHOLD)


def commutator(a: MatrixLoop, b: MatrixLoop) -> MatrixLoop:
    return multiply(a, b) - multiply(b, a)


# -- random smooth loops (shared by tests, selftest, CLI) ----------------

def random_tangent_stack(rng: np.random.Generator, count: int,
                         amplitude: float = 0.5,
                         order: int = DEFAULT_ORDER) -> np.ndarray:
    """Coefficients (count, 2N+1, 2, 2) of random smooth traceless loops.

    Modes -band..band are complex Gaussian blocks damped by
    TANGENT_DECAY^|k|, and each loop is scaled to sup norm amplitude on its
    circle grid.  The normals are drawn in one call, loop by loop and mode
    by mode (the real block, then the imaginary one), so the stack equals
    count sequential random_tangent calls, or any stacks drawn in turn
    that add up to count, bit for bit, and leaves rng in the same state.
    Raises ValueError when the band does not fit the order.
    """
    band = TANGENT_BAND
    if band > order:
        raise ValueError(f"tangent band {band} exceeds truncation order {order}")
    weights = np.array([TANGENT_DECAY ** abs(k)
                        for k in range(-band, band + 1)])
    normals = rng.standard_normal((count, 2 * band + 1, 2, 2, 2))
    coeffs = np.zeros((count, 2 * order + 1, 2, 2), dtype=complex)
    coeffs[:, order - band:order + band + 1] = (
        (normals[:, :, 0] + 1j * normals[:, :, 1]) * weights[:, None, None])
    tr = np.trace(coeffs, axis1=-2, axis2=-1) / 2
    coeffs[..., [0, 1], [0, 1]] -= tr[..., None]
    sup = np.abs(coeffs_to_samples(coeffs, default_sample_count(order))).max(
        axis=(1, 2, 3))
    scale = amplitude / np.maximum(sup, np.finfo(float).tiny)
    return coeffs * scale[:, None, None, None]


def random_unimodular_stack(rng: np.random.Generator, count: int,
                            **kw) -> np.ndarray:
    """exp of count random traceless tangents, (count, 2N+1, 2, 2).

    Unimodular by construction; the keywords are random_tangent_stack's.
    The stack is
    random_unimodular_blocks' run with nothing done to its blocks: the
    tail mass of exp is checked loop by loop, and the worst loop of the
    whole stack raises TailMassError, which names its index.
    """
    return random_unimodular_blocks(rng, count, lambda coeffs: (coeffs,),
                                    **kw)[0]


def random_unimodular_blocks(rng: np.random.Generator, count: int, fn,
                             **kw) -> tuple:
    """fn's outputs (a tuple of arrays) over the count loops of
    random_unimodular_stack, made by _stream_blocks one block of
    _block_loops(order) loops at a time.

    Each block is one random_tangent_stack call, which draws its normals
    from rng in turn, and goes through its samples and exp; fn gets its
    (B, 2N+1, 2, 2) coefficients.  Draws in turn equal one draw, so the
    loops are the whole stack's, bit for bit, at any count.  Once every
    block has run, the worst tail mass of exp over the whole stack raises
    TailMassError, which names its loop.
    """
    order = kw.get("order", DEFAULT_ORDER)
    m = default_sample_count(order)

    def samples(span):
        # a huge tangent overflows exp, and inf * 0 gives NaN; such loops
        # are left non-finite, without a warning, for the tail check
        with np.errstate(over="ignore", invalid="ignore"):
            tangent = random_tangent_stack(rng, len(span), **kw)
            return _exp_samples(coeffs_to_samples(tangent, m))

    return _stream_blocks(samples, range(count), order, fn)


def random_tangent(rng: np.random.Generator, **kw) -> MatrixLoop:
    """One random smooth loop: random_tangent_stack with count = 1."""
    return MatrixLoop(random_tangent_stack(rng, 1, **kw)[0])


def random_unimodular_loop(rng: np.random.Generator, **kw) -> MatrixLoop:
    """One random unimodular loop: random_unimodular_stack with count = 1."""
    return MatrixLoop(random_unimodular_stack(rng, 1, **kw)[0])
