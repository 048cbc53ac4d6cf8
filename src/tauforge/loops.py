"""Truncated matrix-valued Fourier series on the unit circle.

A loop is the trigonometric polynomial f(lambda) = sum_{k=-N}^{N} c_k lambda^k
with lambda = exp(i theta), stored by its coefficient stack c_k (each an n x n
complex matrix); its sample grid theta_j = 2 pi j / M has the M that
default_sample_count derives from N.
Products are dealiased by zero-padding to an exact grid; nothing is ever
smoothed or filtered, so every operation is exact up to rounding except where
an explicit truncation with a tail-mass check is requested.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

DEFAULT_ORDER = 32
DEFAULT_SAMPLES = 256
TAIL_THRESHOLD = 1e-8
TANGENT_BAND = 8
# damping of mode k of a random tangent, TANGENT_DECAY^|k|; it keeps exp of
# the tangent inside the TAIL_THRESHOLD budget at order 32
TANGENT_DECAY = 0.25
# loops per block in every batch stage that _by_block runs: a block's
# 256-point sample stack of 2x2 loops is 1 MB, so each stage works in L2
# cache; 64 was the pick of a timing sweep over 32..512
_BLOCK = 64
# largest sample condition number inverse() accepts
INVERSE_COND_MAX = 1e10


class TailMassError(RuntimeError):
    """Raised when discarded or high-mode coefficient mass exceeds the threshold."""


class SingularLoopError(RuntimeError):
    """Raised when a pointwise inverse meets a sample matrix with cond > limit."""


class NumericalInvariantError(ValueError):
    """A computed quantity broke an invariant it must hold (reality, a
    vanishing defect); the CLI reports it as a failed check, exit 2."""


def _fast_len(m: int) -> int:
    # next power of two; keeps numpy's FFT on its fastest path
    return 1 << (int(m) - 1).bit_length()


def default_sample_count(order: int) -> int:
    """Grid size M for modes -order..order: M >= 4N+2, FFT-friendly, >= 256."""
    return max(DEFAULT_SAMPLES, _fast_len(4 * order + 2))


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


def coeffs_to_samples(coeffs, m: int, first_mode: int | None = None):
    """Values on the M-point circle grid, exact via zero-padded FFT.

    The K modes on axis -3 run first_mode..first_mode+K-1; the default
    centres them on 0, as for a loop with modes -N..N.  The result is an
    entry-major view (see above).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    k = coeffs.shape[-3]
    if k > m:
        raise ValueError("sample grid cannot resolve the loop")
    if first_mode is None:
        first_mode = -((k - 1) // 2)
    spec = np.zeros(coeffs.shape[:-3] + coeffs.shape[-2:] + (m,), dtype=complex)
    spec[..., (first_mode + np.arange(k)) % m] = np.moveaxis(coeffs, -3, -1)
    np.fft.ifft(spec, axis=-1, out=spec)
    spec *= m
    return np.moveaxis(spec, -1, -3)


def _tail_fraction(stack, kept, axis: int = -3):
    """Per-loop share of the mode-norm mass outside the kept modes; the
    modes run along axis, the other two trailing axes are the entries."""
    stack = np.moveaxis(stack, axis, -1)
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


def _coeffs_and_tail(samples, order: int, tail: bool = True):
    """samples_to_coeffs without the check, and, with tail, each loop's
    share of mass in the discarded alias bins (else None)."""
    samples = np.asarray(samples, dtype=complex)
    m = samples.shape[-3]
    if 2 * order + 1 > m:
        raise ValueError("sample grid cannot resolve the loop")
    spec = np.fft.fft(np.moveaxis(samples, -3, -1), axis=-1)
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
    the message gives that loop's index (flat, in C order over the loop
    axes), the first NaN one if any."""
    fraction = np.asarray(fraction)
    worst = np.max(fraction, initial=-np.inf)
    if not worst <= tail_tol:
        where = f" in loop {int(fraction.argmax())}" if fraction.ndim else ""
        hint = ("increase the truncation order" if np.isfinite(worst)
                else "the loop is not finite")
        raise TailMassError(
            f"{what} {worst:.3e}{where} exceeds {tail_tol:.1e}; {hint}")


def _by_block(fn, stack):
    """fn's outputs (a tuple of arrays) over blocks of _BLOCK loops along
    axis 0, concatenated; an empty stack still makes one (empty) block,
    which fixes the shapes.  fn must treat every loop on its own, so the
    result does not depend on where the blocks are cut."""
    parts = [fn(stack[lo:lo + _BLOCK])
             for lo in range(0, max(len(stack), 1), _BLOCK)]
    return tuple(np.concatenate(col) for col in zip(*parts))


class MatrixLoop:
    """Matrix-valued loop with modes -order..order; its circle grid has
    default_sample_count(order) points."""

    def __init__(self, coeffs, unimodular: bool = False):
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
        self.unimodular = bool(unimodular)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int = 2, order: int = DEFAULT_ORDER) -> "MatrixLoop":
        coeffs = np.zeros((2 * order + 1, n, n), dtype=complex)
        coeffs[order] = np.eye(n)
        return cls(coeffs, unimodular=True)

    @classmethod
    def from_modes(cls, modes: dict, n: int = 2, order: int = DEFAULT_ORDER,
                   **kw) -> "MatrixLoop":
        """Build a loop from a {mode: matrix} dict; unspecified modes are zero."""
        coeffs = np.zeros((2 * order + 1, n, n), dtype=complex)
        for k, block in modes.items():
            if abs(k) > order:
                raise ValueError(f"mode {k} outside -{order}..{order}")
            coeffs[k + order] = np.asarray(block, dtype=complex)
        return cls(coeffs, **kw)

    @classmethod
    def from_samples(cls, samples, order: int, tail_tol: float | None = None,
                     **kw) -> "MatrixLoop":
        """Recover coefficients from values on the equispaced grid.

        The grid must resolve the requested order (M >= 2N+1); mass in the
        discarded alias bins beyond +-order is checked against tail_tol when
        given and raises TailMassError if exceeded.
        """
        return cls(samples_to_coeffs(samples, order, tail_tol), **kw)

    # -- basic access -------------------------------------------------

    def coeff(self, k: int):
        if abs(k) > self.order:
            return np.zeros((self.n, self.n), dtype=complex)
        return self.coeffs[k + self.order]

    def eval(self, theta):
        """Evaluate sum c_k e^{ik theta} at arbitrary angles."""
        theta = np.asarray(theta, dtype=float)
        ks = np.arange(-self.order, self.order + 1)
        phases = np.exp(1j * np.outer(theta.ravel(), ks))
        vals = np.tensordot(phases, self.coeffs, axes=(1, 0))
        return vals.reshape(theta.shape + (self.n, self.n))

    def eval_point(self, z: complex):
        """Evaluate the Laurent polynomial at a point off the circle."""
        ks = np.arange(-self.order, self.order + 1)
        return np.tensordot(np.asarray(z) ** ks, self.coeffs, axes=(0, 0))

    def samples(self, m: int | None = None):
        """Values on the grid theta_j = 2 pi j / M, exact via zero-padded FFT;
        M defaults to default_sample_count(order)."""
        return coeffs_to_samples(self.coeffs,
                                 m or default_sample_count(self.order))

    def sup_norm(self) -> float:
        return float(np.abs(self.samples()).max())

    def unimodular_defect(self) -> float:
        return float(np.abs(np.linalg.det(self.samples()) - 1.0).max())

    # -- structural operations ----------------------------------------

    def truncate(self, order: int) -> "MatrixLoop":
        """Keep modes -order..order; dropped mass is checked against
        TAIL_THRESHOLD, never filtered."""
        if order >= self.order:
            coeffs = np.zeros((2 * order + 1, self.n, self.n), dtype=complex)
            coeffs[order - self.order:order + self.order + 1] = self.coeffs
            return type(self)(coeffs, unimodular=self.unimodular)
        ks = np.arange(-self.order, self.order + 1)
        dropped = _tail_fraction(self.coeffs, np.abs(ks) <= order)
        _check_tail(dropped, TAIL_THRESHOLD,
                    f"mass dropped by truncation to order {order}")
        sl = slice(self.order - order, self.order + order + 1)
        return type(self)(self.coeffs[sl].copy(), unimodular=self.unimodular)

    def project(self, part: str) -> "MatrixLoop":
        """Keep one mode range; complementary parts sum to the original."""
        ks = np.arange(-self.order, self.order + 1)
        keep = {
            "strictly_positive": ks >= 1,
            "nonnegative": ks >= 0,
            "strictly_negative": ks <= -1,
            "nonpositive": ks <= 0,
        }.get(part)
        if keep is None:
            raise ValueError(f"unknown projection {part!r}")
        coeffs = np.where(keep[:, None, None], self.coeffs, 0.0)
        return type(self)(coeffs)

    def derivative_theta(self) -> "MatrixLoop":
        ks = np.arange(-self.order, self.order + 1)
        return type(self)(1j * ks[:, None, None] * self.coeffs)

    def derivative_lambda(self) -> "MatrixLoop":
        """d/dlambda; mode k goes to k c_k at mode k-1 (range grows by one)."""
        new_order = self.order + 1
        coeffs = np.zeros((2 * new_order + 1, self.n, self.n), dtype=complex)
        ks = np.arange(-self.order, self.order + 1)
        coeffs[ks - 1 + new_order] = ks[:, None, None] * self.coeffs
        return type(self)(coeffs)

    def trace(self) -> "ScalarLoop":
        return ScalarLoop(np.trace(self.coeffs, axis1=1, axis2=2))

    def scaled(self, factor: complex) -> "MatrixLoop":
        return type(self)(self.coeffs * factor)

    def __add__(self, other):
        order = max(self.order, other.order)
        a, b = self.truncate(order), other.truncate(order)
        cls = ScalarLoop if isinstance(self, ScalarLoop) and isinstance(other, ScalarLoop) \
            else MatrixLoop
        return cls(a.coeffs + b.coeffs)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, order={self.order})"


class ScalarLoop(MatrixLoop):
    """Scalar loop (n = 1); eval returns plain numbers, not 1x1 matrices."""

    def __init__(self, coeffs, **kw):
        super().__init__(coeffs, **kw)
        if self.n != 1:
            raise ValueError("ScalarLoop requires n = 1")

    @classmethod
    def from_modes(cls, modes: dict, n: int = 1, order: int = DEFAULT_ORDER,
                   **kw) -> "ScalarLoop":
        wrapped = {k: np.atleast_2d(np.asarray(v, dtype=complex))
                   for k, v in modes.items()}
        return super().from_modes(wrapped, n=1, order=order, **kw)

    def eval(self, theta):
        return super().eval(theta)[..., 0, 0]

    def eval_point(self, z: complex):
        return super().eval_point(z)[0, 0]

    def samples(self, m: int | None = None):
        return super().samples(m)[..., 0, 0]

    def imag_defect(self) -> float:
        return float(np.abs(self.samples().imag).max())

    @classmethod
    def from_scalar_function(cls, fn, order: int = DEFAULT_ORDER,
                             **kw) -> "ScalarLoop":
        m = default_sample_count(order)
        vals = np.asarray(fn(circle_points(m)), dtype=complex)[:, None, None]
        return cls.from_samples(vals, order, tail_tol=TAIL_THRESHOLD, **kw)


def monomial(k: int, block, order: int | None = None) -> MatrixLoop:
    """Single-mode loop block * lambda^k."""
    block = np.atleast_2d(np.asarray(block, dtype=complex))
    order = order if order is not None else max(abs(k), 1)
    cls = ScalarLoop if block.shape == (1, 1) else MatrixLoop
    return cls.from_modes({k: block}, n=block.shape[0], order=order)


# -- pointwise algebra ---------------------------------------------------

def multiply(a: MatrixLoop, b: MatrixLoop) -> MatrixLoop:
    """Dealiased product; exact at truncation order_a + order_b.

    Scalar factors broadcast against matrix factors.
    """
    exact_order = a.order + b.order
    m = _fast_len(4 * exact_order + 2)
    sa = coeffs_to_samples(a.coeffs, m)
    sb = coeffs_to_samples(b.coeffs, m)
    if a.n == 1 and b.n > 1:
        prod = sa[:, 0, 0][:, None, None] * sb
    elif b.n == 1 and a.n > 1:
        prod = sa * sb[:, 0, 0][:, None, None]
    else:
        prod = sa @ sb
    cls = ScalarLoop if prod.shape[1] == 1 else MatrixLoop
    return cls(samples_to_coeffs(prod, exact_order),
               unimodular=a.unimodular and b.unimodular and a.n == b.n)


def inverse(a: MatrixLoop) -> MatrixLoop:
    """Pointwise inverse transformed back at the loop's own truncation.

    Raises SingularLoopError when any sample matrix has 2-norm condition
    above INVERSE_COND_MAX.  The result is the order-N best effort; the
    round-trip guarantee multiply(a, inverse(a)) ~ identity holds for loops
    whose inverse has geometrically decaying coefficients.
    """
    vals = MatrixLoop.samples(a)
    if a.n == 1:
        mags = np.abs(vals[:, 0, 0])
        cond = mags.max() / max(mags.min(), np.finfo(float).tiny)
        if cond > INVERSE_COND_MAX:
            raise SingularLoopError(f"scalar loop condition {cond:.3e} > {INVERSE_COND_MAX:.1e}")
        inv_vals = 1.0 / vals
    else:
        svals = np.linalg.svd(vals, compute_uv=False)
        cond = float((svals[:, 0] / np.maximum(svals[:, -1], np.finfo(float).tiny)).max())
        if cond > INVERSE_COND_MAX:
            raise SingularLoopError(f"sample condition {cond:.3e} > {INVERSE_COND_MAX:.1e}")
        inv_vals = np.linalg.inv(vals)
    out = type(a).from_samples(inv_vals, a.order)
    out.unimodular = a.unimodular
    return out


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
    """Inverses of a (..., 2, 2) stack, adjugate over determinant; a
    singular matrix gives non-finite entries instead of raising."""
    return adjugate_2x2(m) / det_2x2(m)[..., None, None]


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


def adjugate_inverse(a: MatrixLoop) -> MatrixLoop:
    """Exact coefficient-level inverse for 2x2 loops with det = 1.

    The adjugate of a unimodular 2x2 matrix is its inverse, and taking the
    adjugate only permutes and negates coefficients, so no sampling or
    truncation enters.
    """
    if a.n != 2:
        raise ValueError("adjugate inverse is a 2x2 shortcut")
    return MatrixLoop(adjugate_2x2(a.coeffs), unimodular=a.unimodular)


def _expm_2x2(vals):
    """exp of stacked 2x2 matrices: e^{tr/2} (cosh s I + sinh(s)/s u0).

    u0 = u - (tr/2) I is traceless, so u0^2 = s^2 I with s^2 = -det u0;
    cosh s and sinh(s)/s are even in s, so the square-root branch drops
    out, and sinh(s)/s switches to its series near s = 0.  The result is
    built entry by entry, in the entry-major order of matmul_2x2.
    """
    half_tr = 0.5 * (vals[..., 0, 0] + vals[..., 1, 1])
    u00 = vals[..., 0, 0] - half_tr
    u11 = vals[..., 1, 1] - half_tr
    s2 = -(u00 * u11 - vals[..., 0, 1] * vals[..., 1, 0])
    s = np.sqrt(s2)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinhc = np.where(np.abs(s2) < 1e-8,
                         1.0 + s2 / 6.0 + s2 * s2 / 120.0, np.sinh(s) / s)
    scale = np.exp(half_tr)
    cosh = np.cosh(s)
    out = _entry_major_empty(vals.shape, complex)
    # multiply into out: numpy rounds a complex product written over its
    # first operand differently, and `scale * (...)` can elide into that
    np.multiply(scale, cosh + sinhc * u00, out=out[..., 0, 0])
    np.multiply(scale, cosh + sinhc * u11, out=out[..., 1, 1])
    np.multiply(scale, sinhc * vals[..., 0, 1], out=out[..., 0, 1])
    np.multiply(scale, sinhc * vals[..., 1, 0], out=out[..., 1, 0])
    return out


def _exp_samples(vals):
    """exp of every (..., n, n) sample matrix: scalar, closed 2x2 form, or
    batched scaling-and-squaring."""
    n = vals.shape[-1]
    if n == 1:
        return np.exp(vals)
    if n == 2:
        return _expm_2x2(vals)
    return scipy.linalg.expm(vals)


def exp_pointwise(a: MatrixLoop) -> MatrixLoop:
    """Pointwise matrix exponential, recovered at the input's truncation.

    2x2 samples use the closed form of _expm_2x2, larger ones batched
    scaling-and-squaring.  Raises TailMassError when exp spreads the
    spectrum past what order N can hold.
    """
    exp_vals = _exp_samples(MatrixLoop.samples(a))
    out = type(a).from_samples(exp_vals, a.order, tail_tol=TAIL_THRESHOLD)
    # det(exp u) = exp(tr u): traceless input gives a unimodular loop
    if a.n > 1 and np.abs(np.trace(a.coeffs, axis1=1, axis2=2)).max() < 1e-13:
        out.unimodular = True
    return out


def contour_integral_dlambda(f: MatrixLoop):
    """Counterclockwise integral over |lambda| = 1 of f dlambda.

    Equals 2 pi i times the mode -1 coefficient; the orientation is frozen
    by the tau-function identity tests.
    """
    value = 2j * np.pi * f.coeff(-1)
    if f.n == 1:
        return complex(value[0, 0])
    return value


def mean_theta(f: MatrixLoop):
    """(1/2 pi) integral of f dtheta = mode-0 coefficient."""
    value = f.coeff(0)
    if f.n == 1:
        return complex(value[0, 0])
    return value


def commutator(a: MatrixLoop, b: MatrixLoop) -> MatrixLoop:
    return multiply(a, b) - multiply(b, a)


# -- random smooth loops (shared by tests, selftest, CLI) ----------------

def random_tangent_stack(rng: np.random.Generator, count: int, n: int = 2,
                         band: int = TANGENT_BAND, amplitude: float = 0.5,
                         order: int = DEFAULT_ORDER,
                         antihermitian: bool = False,
                         traceless: bool = True) -> np.ndarray:
    """Coefficients (count, 2N+1, n, n) of random smooth loops.

    Modes -band..band are complex Gaussian blocks damped by
    TANGENT_DECAY^|k|, and each loop is scaled to sup norm amplitude on its
    circle grid.  The normals are drawn in one call, loop by loop and mode
    by mode (the real block, then the imaginary one), so the stack equals
    count sequential random_tangent calls and leaves rng in the same state.
    Raises ValueError when the band does not fit the order.
    """
    normals, tangent = _tangent_draw(rng, count, n, band, amplitude,
                                     order, antihermitian, traceless)
    return tangent(normals)


def _tangent_draw(rng, count, n=2, band=TANGENT_BAND, amplitude=0.5,
                  order=DEFAULT_ORDER, antihermitian=False, traceless=True):
    """The normals of random_tangent_stack, drawn in its one call, and the
    per-block core that turns a block of them into tangent coefficients."""
    if band > order:
        raise ValueError(f"tangent band {band} exceeds truncation order {order}")
    normals = rng.standard_normal((count, 2 * band + 1, 2, n, n))
    weights = np.array([TANGENT_DECAY ** abs(k)
                        for k in range(-band, band + 1)])
    m = default_sample_count(order)

    def tangent(block):
        coeffs = np.zeros((len(block), 2 * order + 1, n, n), dtype=complex)
        coeffs[:, order - band:order + band + 1] = (
            (block[:, :, 0] + 1j * block[:, :, 1]) * weights[:, None, None])
        if antihermitian:
            # enforce u(theta)^* = -u(theta): c_{-k} = -c_k^H
            positive = coeffs[:, order + 1:order + band + 1]
            coeffs[:, order - band:order] = (
                -positive[:, ::-1].conj().swapaxes(-1, -2))
            mode0 = coeffs[:, order]
            coeffs[:, order] = 0.5 * (mode0 - mode0.conj().swapaxes(-1, -2))
        if traceless:
            idx = np.arange(n)
            tr = np.trace(coeffs, axis1=-2, axis2=-1) / n
            coeffs[..., idx, idx] -= tr[..., None]
        sup = np.abs(coeffs_to_samples(coeffs, m)).max(axis=(1, 2, 3))
        scale = amplitude / np.maximum(sup, np.finfo(float).tiny)
        return coeffs * scale[:, None, None, None]

    return normals, tangent


def random_unimodular_stack(rng: np.random.Generator, count: int,
                            **kw) -> np.ndarray:
    """exp of count random traceless tangents, (count, 2N+1, n, n).

    Unimodular by construction; the keywords are random_tangent_stack's
    except traceless.  The normals are drawn as random_tangent_stack draws
    them; each block of loops then goes through the tangent, its samples,
    exp and back to coefficients while its arrays are in cache.  The tail
    mass of exp is checked loop by loop, and the worst loop of the whole
    stack raises TailMassError, which names its index.
    """
    order = kw.get("order", DEFAULT_ORDER)
    m = default_sample_count(order)
    normals, tangent = _tangent_draw(rng, count, traceless=True, **kw)
    coeffs, fraction = _by_block(
        lambda block: _coeffs_and_tail(
            _exp_samples(coeffs_to_samples(tangent(block), m)), order),
        normals)
    _check_tail(fraction, TAIL_THRESHOLD)
    return coeffs


def random_tangent(rng: np.random.Generator, **kw) -> MatrixLoop:
    """One random smooth loop: random_tangent_stack with count = 1."""
    return MatrixLoop(random_tangent_stack(rng, 1, **kw)[0])


def random_unimodular_loop(rng: np.random.Generator, **kw) -> MatrixLoop:
    """One random unimodular loop: random_unimodular_stack with count = 1."""
    return MatrixLoop(random_unimodular_stack(rng, 1, **kw)[0],
                      unimodular=True)
