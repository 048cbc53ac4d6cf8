"""Property tests: the 2x2 kernels, the entry-major sample transforms, the
KdV pullback, dealiased products, the factorization, the loop generators,
the CSV writer and its %.17g kernel.

Each property is checked on inputs drawn by hypothesis; the random loops
come from numpy generators seeded by the drawn integers.
"""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import tauforge as tf
from tauforge import birkhoff, cli, kdv
from tauforge.loops import (
    DEFAULT_ORDER,
    TANGENT_BAND,
    circle_points,
    coeffs_to_samples,
    default_sample_count,
    det_2x2,
    inverse_2x2,
    matmul_2x2,
    samples_to_coeffs,
)

from oracles import eval_theta, reference_tangent, unimodular_defect

SETTINGS = settings(max_examples=40, deadline=None)
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny

entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                             allow_infinity=False)


def stacks():
    return array_shapes(min_dims=0, max_dims=2, max_side=4).flatmap(
        lambda lead: arrays(complex, lead + (2, 2), elements=entries))


@st.composite
def broadcast_pairs(draw):
    """Two stacks whose leading shapes broadcast: the second's is a suffix."""
    a = draw(stacks())
    lead = a.shape[:-2]
    tail = lead[draw(st.integers(0, len(lead))):]
    return a, draw(arrays(complex, tail + (2, 2), elements=entries))


# -- 2x2 kernels against numpy ---------------------------------------------

@SETTINGS
@given(broadcast_pairs())
def test_matmul_2x2_matches_matmul(pair):
    a, b = pair
    got = matmul_2x2(a, b)
    want = a @ b
    assert got.shape == want.shape
    scale = np.abs(a) @ np.abs(b)
    assert np.all(np.abs(got - want) <= 4 * EPS * scale + TINY)


def _column_scaled_det(m):
    """np.linalg.det of a (..., 2, 2) stack, each column first scaled by a
    power of two to a peak modulus in [1/2, 1).

    LAPACK's LU of a matrix whose pivot column is subnormal divides by zero
    and returns nan; the power-of-two scalings are exact, and dividing them
    back out rounds only where the result underflows. Each scaling is split
    in two factors because 2**1074 overflows.
    """
    _, e = np.frexp(np.abs(m).max(axis=-2))
    low = np.ldexp(1.0, -(e // 2))
    high = np.ldexp(1.0, -(e - e // 2))
    det = np.linalg.det(m * low[..., None, :] * high[..., None, :])
    for s in (low, high):
        det = det / s[..., 0] / s[..., 1]
    return det


@SETTINGS
@given(stacks())
def test_det_2x2_matches_det(m):
    scale = np.abs(m[..., 0, 0] * m[..., 1, 1]) + np.abs(m[..., 0, 1] * m[..., 1, 0])
    # np.linalg.det returns exp(log|det|), which adds a relative error of
    # about eps |log|det||
    with np.errstate(all="ignore"):
        spread = 1 + np.abs(np.log(scale))
        bound = np.where(scale > 0, 16 * EPS * scale * spread, 0) + TINY
    assert np.all(np.abs(det_2x2(m) - _column_scaled_det(m)) <= bound)


@SETTINGS
@given(stacks())
def test_inverse_2x2_matches_inv(m):
    # both routes lose about cond(m) digits of relative accuracy, so compare
    # where m is well conditioned; adjugate / det squares the entries, so
    # also where they are not so small that det underflows (loop samples
    # are of order one)
    cond = np.linalg.cond(m) if m.size else np.zeros(m.shape[:-2])
    well = (cond < 1e8) & (np.abs(m).max(axis=(-1, -2)) > 1e-100)
    got = inverse_2x2(m[well])
    want = np.linalg.inv(m[well])
    bound = 16 * EPS * cond[well] * np.abs(want).max(axis=(-1, -2))
    assert np.all(np.abs(got - want).max(axis=(-1, -2)) <= bound)


def test_inverse_2x2_of_singular_is_not_finite():
    m = np.array([[[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2))], dtype=complex)
    with np.errstate(all="ignore"):
        inv = inverse_2x2(m)
    assert not np.isfinite(inv).all(axis=(-1, -2)).any()


# -- entry-major sample stacks ---------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _entry_major(a):
    """The same (..., M, n, n) values held in (..., n, n, M) memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -3, -1)), -1, -3)


def _grid_axis_is_fastest(a, axis=-3):
    """The grid axis has the smallest stride; axes of length 1 have none."""
    strides = [abs(step) for step, n in zip(a.strides, a.shape) if n > 1]
    return a.shape[axis] <= 1 or abs(a.strides[axis]) == min(strides)


transform_params = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "lead": array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3),
    "n": st.integers(1, 3),
    "modes": st.integers(1, 9),
    "m": st.sampled_from([9, 16, 20, 32]),
    "first_mode": st.one_of(st.none(), st.integers(-40, 40)),
})


@SETTINGS
@given(transform_params)
def test_coeffs_to_samples_matches_fft_on_c_order(p):
    rng = np.random.default_rng(p["seed"])
    shape = p["lead"] + (p["modes"], p["n"], p["n"])
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m, k, first = p["m"], p["modes"], p["first_mode"]
    got = coeffs_to_samples(coeffs, m, first_mode=first)
    if first is None:
        first = -((k - 1) // 2)
    spec = np.zeros(p["lead"] + (m, p["n"], p["n"]), dtype=complex)
    spec[..., (first + np.arange(k)) % m, :, :] = coeffs
    want = np.fft.ifft(spec, axis=-3, norm="forward")
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))
    assert _grid_axis_is_fastest(got)


@SETTINGS
@given(transform_params)
def test_samples_to_coeffs_matches_fft_on_c_order(p):
    rng = np.random.default_rng(p["seed"])
    m = p["m"]
    order = min(p["modes"], (m - 1) // 2)
    shape = p["lead"] + (m, p["n"], p["n"])
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = (np.fft.fft(samples, axis=-3) / m)[
        ..., np.arange(-order, order + 1) % m, :, :]
    for layout in (samples, _entry_major(samples)):
        got = samples_to_coeffs(layout, order)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


@SETTINGS
@given(broadcast_pairs())
def test_2x2_kernels_do_not_depend_on_layout(pair):
    a, b = pair
    if a.ndim < 3:
        return
    em = _entry_major(a)
    assert np.array_equal(_bits(matmul_2x2(em, b)), _bits(matmul_2x2(a, b)))
    assert np.array_equal(_bits(matmul_2x2(b, em)), _bits(matmul_2x2(b, a)))
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(inverse_2x2(em)), _bits(inverse_2x2(a)))
        assert _grid_axis_is_fastest(inverse_2x2(a))
    assert _grid_axis_is_fastest(matmul_2x2(a, b))


pullback_params = st.fixed_dictionaries({
    "preset": st.sampled_from(["vacuum", "one_pole"]),
    "order": st.sampled_from([8, 16, 32]),
    "points": st.lists(st.tuples(*[st.floats(-1, 1)] * 2), min_size=1,
                       max_size=4),
})


@SETTINGS
@given(pullback_params)
def test_pullback_values_match_generic_product(p):
    order = p["order"]
    seed = (kdv.seed_vacuum(order) if p["preset"] == "vacuum"
            else kdv.seed_one_pole(order=order))
    x, t = (np.array(col) for col in zip(*p["points"]))
    got = kdv._pullback_values(seed, x, t, order)

    lam = circle_points(default_sample_count(order))
    mu = lam * x[:, None] + lam ** 2 * t[:, None]
    c, mu_s = kdv._exp_minus_mu_phi(mu, lam)
    phi = np.zeros(lam.shape + (2, 2), dtype=complex)
    phi[:, 0, 1] = 1 / lam
    phi[:, 1, 0] = 1
    exp_fac = c[..., None, None] * np.eye(2) - mu_s[..., None, None] * phi
    want = exp_fac @ seed.p0.samples()
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert _grid_axis_is_fastest(got)


# -- dealiased products against pointwise products off the grid ------------

product_params = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "orders": st.tuples(st.integers(1, 40), st.integers(1, 40)),
    "sizes": st.sampled_from([(2, 2), (1, 2), (1, 3), (2, 1)]),
    "pad": st.integers(1, 8),
})


def _gaussian_loop(rng, order, n):
    shape = (2 * order + 1, n, n)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return tf.MatrixLoop(coeffs)


@SETTINGS
@given(product_params)
def test_multiply_matches_pointwise_product(p):
    rng = np.random.default_rng(p["seed"])
    a, b = (_gaussian_loop(rng, order, n)
            for order, n in zip(p["orders"], p["sizes"]))
    prod = tf.multiply(a, b)
    assert prod.order == a.order + b.order
    theta = rng.uniform(0, 2 * np.pi, 16)
    av, bv = eval_theta(a, theta), eval_theta(b, theta)
    # sum over modes of |c_k| bounds every partial sum of both routes
    sa, sb = (np.abs(loop.coeffs).sum(axis=0) for loop in (a, b))
    if 1 in p["sizes"]:
        want, scale = av * bv, sa * sb
    else:
        want, scale = av @ bv, sa @ sb
    got = eval_theta(prod, theta)
    bound = 64 * EPS * scale
    assert np.all(np.abs(got - want) <= bound)

    up = prod.truncate(prod.order + p["pad"])
    kept = slice(p["pad"], p["pad"] + 2 * prod.order + 1)
    assert np.array_equal(up.coeffs[kept], prod.coeffs)
    assert not np.delete(up.coeffs, kept, axis=0).any()
    assert np.all(np.abs(eval_theta(up, theta) - got) <= bound)


# -- the factorization on random smooth loops -------------------------------

loop_params = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "count": st.integers(1, 4),
    "order": st.integers(20, DEFAULT_ORDER),
    "amplitude": st.floats(0.05, 0.5),
})


def _stack(p):
    return tf.random_unimodular_stack(
        np.random.default_rng(p["seed"]), p["count"], order=p["order"],
        amplitude=p["amplitude"])


@SETTINGS
@given(loop_params)
def test_factorization_round_trip(p):
    gamma = _stack(p)
    order = p["order"]
    minus, plus, res, ok = birkhoff.factorize_batch(gamma)
    assert ok.all()
    assert res.max() <= 1e-9
    # supports and normalization hold exactly, not to a tolerance
    assert not minus[:, order + 1:].any()
    assert not plus[:, :order].any()
    assert (minus[:, order] == np.eye(2)).all()
    # gamma = g_minus g_plus^-1 off the sample grid
    theta = np.random.default_rng(p["seed"]).uniform(0, 2 * np.pi, 9)
    for g, gm, gp in zip(gamma, minus, plus):
        vals = [eval_theta(tf.MatrixLoop(c), theta) for c in (g, gm, gp)]
        recon = vals[1] @ np.linalg.inv(vals[2])
        assert np.abs(recon - vals[0]).max() <= 1e-9


@SETTINGS
@given(loop_params, st.integers(0, 2 ** 32 - 1))
def test_minus_factor_invariant_under_constant_right_twist(p, twist_seed):
    # gamma C = g_minus (C^-1 g_plus)^-1, so g_minus does not change
    gamma = _stack(p)
    c = tf.exp_pointwise(reference_tangent(np.random.default_rng(twist_seed),
                                           order=1, band=0)).coeffs[1]
    minus, _, _, ok = birkhoff.factorize_batch(gamma)
    twisted, _, _, ok_twisted = birkhoff.factorize_batch(matmul_2x2(gamma, c))
    assert ok.all() and ok_twisted.all()
    assert np.abs(twisted - minus).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 3])
def test_factorize_batch_is_2x2_only(n):
    with pytest.raises(ValueError, match="2x2"):
        birkhoff.factorize_batch(np.zeros((3, 17, n, n), dtype=complex))


# -- the stack generators against the per-loop reference ---------------------

tangent_params = st.fixed_dictionaries({
    "amplitude": st.floats(0.05, 0.5),
    "order": st.integers(TANGENT_BAND, DEFAULT_ORDER),
})


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), tangent_params)
def test_tangent_stack_equals_per_loop_draws(seed, count, kw):
    rng_stack, rng_loop = (np.random.default_rng(seed) for _ in range(2))
    stack = tf.random_tangent_stack(rng_stack, count, **kw)
    loops = [reference_tangent(rng_loop, **kw).coeffs for _ in range(count)]
    assert np.array_equal(stack, np.stack(loops))
    assert rng_stack.bit_generator.state == rng_loop.bit_generator.state


@SETTINGS
@given(loop_params)
def test_unimodular_stack_equals_sequential_loops(p):
    kw = {"order": p["order"], "amplitude": p["amplitude"]}
    rng_stack, rng_loop, rng_ref = (np.random.default_rng(p["seed"])
                                    for _ in range(3))
    stack = tf.random_unimodular_stack(rng_stack, p["count"], **kw)
    loops = [tf.random_unimodular_loop(rng_loop, **kw)
             for _ in range(p["count"])]
    reference = [tf.exp_pointwise(reference_tangent(rng_ref, **kw)).coeffs
                 for _ in range(p["count"])]
    assert np.array_equal(stack, np.stack([lp.coeffs for lp in loops]))
    assert np.array_equal(stack, np.stack(reference))
    assert all(unimodular_defect(lp) <= 1e-10 for lp in loops)
    assert (rng_stack.bit_generator.state == rng_loop.bit_generator.state
            == rng_ref.bit_generator.state)


# -- the CSV writer against np.savetxt ----------------------------------------

BLOCK = cli.CSV_BLOCK_ROWS
# signed zeros, infinities, NaNs with two payloads and both signs, the
# smallest subnormal, a mid-range subnormal and the extreme normals
SPECIAL_FLOATS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308],
    np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
              0x7FF0000000000001], dtype=np.uint64).view(np.float64),
])


def _savetxt_bytes(header, columns) -> bytes:
    fmt = ["%d" if c.dtype.kind in "biu" else "%.17g" for c in columns]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref.csv"
        np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",",
                   header=",".join(header), comments="")
        return path.read_bytes()


def _written_bytes(header, columns) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        cli._write_csv(path, header, columns)
        return path.read_bytes()


@st.composite
def csv_tables(draw):
    """Columns of one length: floats drawn from a pool, so values repeat,
    mixed with fresh values of any exponent; bools; int64 of any size."""
    rows = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                 2 * BLOCK + 3]))
    kinds = draw(st.lists(st.sampled_from("fbi"), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "b":
            columns.append(rng.random(rows) < 0.5)
        elif kind == "i":
            pool = rng.integers(-3, 4, 5)
            fresh = rng.integers(-2 ** 63, 2 ** 63 - 1, rows, endpoint=True)
            columns.append(np.where(rng.random(rows) < 0.5,
                                    pool[rng.integers(0, 5, rows)], fresh))
        else:
            drawn = draw(st.lists(st.floats(width=64), min_size=1, max_size=8))
            pool = np.concatenate([SPECIAL_FLOATS, drawn])
            # products underflow to signed zeros and subnormals at the low end
            fresh = (rng.standard_normal(rows)
                     * 10.0 ** rng.integers(-330, 308, rows))
            share = draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))
            columns.append(np.where(rng.random(rows) < share,
                                    pool[rng.integers(0, len(pool), rows)],
                                    fresh))
    return [f"c{j}" for j in range(len(columns))], columns


@settings(max_examples=60, deadline=None)
@given(csv_tables())
def test_write_csv_matches_savetxt(table):
    header, columns = table
    assert _written_bytes(header, columns) == _savetxt_bytes(header, columns)


def test_write_csv_keeps_signed_zeros_apart_in_one_block():
    column = np.array([0.0, -0.0, 0.0, -0.0])
    assert _written_bytes(["a"], [column]) == b"a\n0\n-0\n0\n-0\n"


@pytest.mark.parametrize("columns", [
    [np.ones(3), np.ones(3, dtype=complex)],
    [np.ones(3), np.ones(4)],
])
def test_write_csv_rejects_complex_and_ragged_columns(columns, tmp_path):
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "x.csv", ["a", "b"], columns)


# -- the %.17g kernel against '%.17g' % ----------------------------------------

def _assert_f17_matches_printf(values):
    values = np.asarray(values, dtype=np.float64)
    want = np.array(["%.17g" % v for v in values.tolist()],
                    dtype=f"S{cli.F17_WIDTH}").view(np.uint8)
    got = cli._format_f17(values)
    assert got.shape == (len(values), cli.F17_WIDTH)
    bad = np.flatnonzero((got != want.reshape(got.shape)).any(axis=1))
    assert bad.size == 0, [("%.17g" % values[i], got[i].tobytes())
                           for i in bad[:5]]


def test_f17_powers_of_ten_and_their_neighbours():
    # the decade edges: the double nearest 10^k and one ulp either side
    nearest = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_f17_matches_printf(np.concatenate([
        nearest, np.nextafter(nearest, np.inf), np.nextafter(nearest, 0.0),
        -nearest]))


def test_f17_random_bit_patterns():
    # uniform bits: every exponent, sign and mantissa, NaN payloads and
    # infinities included
    bits = np.random.default_rng(5).integers(0, 2 ** 64, 50_000,
                                             dtype=np.uint64)
    _assert_f17_matches_printf(bits.view(np.float64))


def test_f17_subnormals():
    rng = np.random.default_rng(6)
    mantissas = np.concatenate([np.arange(1, 1025), 2 ** 52 - np.arange(1, 1025),
                                rng.integers(1, 2 ** 52, 10_000)])
    values = mantissas.astype(np.int64).view(np.float64)
    _assert_f17_matches_printf(np.concatenate([values, -values]))


def test_f17_integers_near_two_to_53_and_ten_to_17():
    around = [np.arange(2 ** 53 - 600, 2 ** 53 + 600),
              np.arange(10 ** 16 - 600, 10 ** 16 + 600),
              np.arange(10 ** 17 - 6000, 10 ** 17 + 6000, 8)]
    _assert_f17_matches_printf(np.concatenate(around).astype(np.float64))


def _f17_fraction(x: float) -> Fraction:
    """|x| 10^(16 - e), e = floor(log10 |x|), exactly."""
    exact = abs(Fraction(x))
    e = math.floor(math.log10(abs(x)))
    scaled = exact * Fraction(10) ** (16 - e)
    if scaled < 10 ** 16:
        scaled *= 10
    elif scaled >= 10 ** 17:
        scaled /= 10
    return scaled


def test_f17_values_half_way_at_the_17th_digit():
    # exact ties, m / 2^k with 18 significant digits ending in 5 ...
    ties = [m / 2 ** k for k in range(20, 64) for m in range(1, 400, 2)
            if _f17_fraction(m / 2 ** k).denominator == 2]
    assert len(ties) > 50
    # ... and doubles whose scaled value lies within 1/200 of a half-way
    # point, about the size of the long double error bound
    rng = np.random.default_rng(7)
    drawn = rng.standard_normal(20_000) * 10.0 ** rng.integers(-300, 300,
                                                                20_000)
    near = [v for v in drawn.tolist()
            if abs(_f17_fraction(v) % 1 - Fraction(1, 2)) < Fraction(1, 200)]
    assert len(near) > 100
    _assert_f17_matches_printf(ties + [-v for v in ties] + near)


def test_f17_power_table_within_the_certified_error():
    powers, rel_err, _ = cli._f17_powers()
    for at, (power, err) in enumerate(zip(powers, rel_err)):
        exact = Fraction(10) ** (16 - (at + cli._EXP_LO))
        if not np.isfinite(power):
            continue  # long double is float64: beyond its range
        assert abs(Fraction(*power.as_integer_ratio()) - exact) \
            <= Fraction(*err.as_integer_ratio()) * exact, at


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0 ** -60,
                    reason="long double is no wider than float64 here, so "
                           "every value takes the '%.17g' fallback")
def test_f17_fast_path_formats_nearly_every_value():
    # the distinct values of one CSV block of a point-source run, as the
    # writer hands them to the kernel
    config = cli.ExperimentConfig("ernst", preset="point_source",
                                  grid="0.5:2:201,-0.5:0.5:201")
    _, _, columns, _ = cli._run_ernst(config)
    values = np.concatenate([np.unique(np.ravel(c)[:cli.CSV_BLOCK_ROWS])
                             for c in columns])
    _, _, certified = cli._f17_scale(values)
    assert (~certified).mean() <= 0.05
