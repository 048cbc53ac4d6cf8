"""Property tests: the 2x2 kernels, the entry-major sample transforms, the
KdV pullback, dealiased products, the factorization, the loop generators
and the CSV writer.

Each property is checked on inputs drawn by hypothesis; the random loops
come from numpy generators seeded by the drawn integers.
"""

import tempfile
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
    TANGENT_DECAY,
    circle_points,
    coeffs_to_samples,
    default_sample_count,
    det_2x2,
    inverse_2x2,
    matmul_2x2,
    samples_to_coeffs,
)

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


@SETTINGS
@given(stacks())
def test_det_2x2_matches_det(m):
    scale = np.abs(m[..., 0, 0] * m[..., 1, 1]) + np.abs(m[..., 0, 1] * m[..., 1, 0])
    # np.linalg.det returns exp(log|det|), which adds a relative error of
    # about eps |log|det||
    with np.errstate(all="ignore"):
        spread = 1 + np.abs(np.log(scale))
        bound = np.where(scale > 0, 16 * EPS * scale * spread, 0) + TINY
    assert np.all(np.abs(det_2x2(m) - np.linalg.det(m)) <= bound)


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
    want = np.fft.ifft(spec, axis=-3) * m
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
    "points": st.lists(st.tuples(*[st.floats(-1, 1)] * 3), min_size=1,
                       max_size=4),
})


@SETTINGS
@given(pullback_params)
def test_pullback_values_match_generic_product(p):
    order = p["order"]
    seed = (kdv.seed_vacuum(order) if p["preset"] == "vacuum"
            else kdv.seed_one_pole(order=order))
    v, x, t = (np.array(col) for col in zip(*p["points"]))
    got = kdv._pullback_values(seed, v, x, t, order)

    lam = circle_points(default_sample_count(order))
    mu = v[:, None] + lam * x[:, None] + lam ** 2 * t[:, None]
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
    "sizes": st.sampled_from([(2, 2), (3, 3), (1, 2), (1, 3), (2, 1)]),
    "pad": st.integers(1, 8),
})


def _gaussian_loop(rng, order, n):
    shape = (2 * order + 1, n, n)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return tf.ScalarLoop(coeffs) if n == 1 else tf.MatrixLoop(coeffs)


def _matrix_values(loop, theta):
    # (..., n, n) values also for a scalar loop, so products broadcast
    return tf.MatrixLoop.eval(loop, theta)


@SETTINGS
@given(product_params)
def test_multiply_matches_pointwise_product(p):
    rng = np.random.default_rng(p["seed"])
    a, b = (_gaussian_loop(rng, order, n)
            for order, n in zip(p["orders"], p["sizes"]))
    prod = tf.multiply(a, b)
    assert prod.order == a.order + b.order
    theta = rng.uniform(0, 2 * np.pi, 16)
    av, bv = _matrix_values(a, theta), _matrix_values(b, theta)
    # sum over modes of |c_k| bounds every partial sum of both routes
    sa, sb = (np.abs(loop.coeffs).sum(axis=0) for loop in (a, b))
    if 1 in p["sizes"]:
        want, scale = av * bv, sa * sb
    else:
        want, scale = av @ bv, sa @ sb
    got = _matrix_values(prod, theta)
    bound = 64 * EPS * scale
    assert np.all(np.abs(got - want) <= bound)

    up = prod.truncate(prod.order + p["pad"])
    kept = slice(p["pad"], p["pad"] + 2 * prod.order + 1)
    assert np.array_equal(up.coeffs[kept], prod.coeffs)
    assert not np.delete(up.coeffs, kept, axis=0).any()
    assert np.all(np.abs(_matrix_values(up, theta) - got) <= bound)


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
        vals = [tf.MatrixLoop(c).eval(theta) for c in (g, gm, gp)]
        recon = vals[1] @ np.linalg.inv(vals[2])
        assert np.abs(recon - vals[0]).max() <= 1e-9


@SETTINGS
@given(loop_params, st.integers(0, 2 ** 32 - 1))
def test_minus_factor_invariant_under_constant_right_twist(p, twist_seed):
    # gamma C = g_minus (C^-1 g_plus)^-1, so g_minus does not change
    gamma = _stack(p)
    c = tf.random_unimodular_stack(np.random.default_rng(twist_seed), 1,
                                   order=1, band=0)[0, 1]
    minus, _, _, ok = birkhoff.factorize_batch(gamma)
    twisted, _, _, ok_twisted = birkhoff.factorize_batch(matmul_2x2(gamma, c))
    assert ok.all() and ok_twisted.all()
    assert np.abs(twisted - minus).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 3])
def test_factorize_batch_is_2x2_only(n):
    with pytest.raises(ValueError, match="2x2"):
        birkhoff.factorize_batch(np.zeros((3, 17, n, n), dtype=complex))


# -- the stack generators against the per-loop reference ---------------------

def _reference_tangent(rng, n=2, band=TANGENT_BAND, amplitude=0.5,
                       order=DEFAULT_ORDER, antihermitian=False,
                       traceless=True):
    """One loop, drawn mode by mode: the per-loop generator the stack
    form replaced, kept as the reference for its draw order."""
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
    loop = tf.MatrixLoop(coeffs)
    scale = amplitude / max(loop.sup_norm(), np.finfo(float).tiny)
    return tf.MatrixLoop(coeffs * scale)


tangent_params = st.fixed_dictionaries({
    "n": st.sampled_from([2, 3]),
    "band": st.integers(0, TANGENT_BAND),
    "amplitude": st.floats(0.05, 0.5),
    "order": st.integers(TANGENT_BAND, DEFAULT_ORDER),
    "antihermitian": st.booleans(),
    "traceless": st.booleans(),
})


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), tangent_params)
def test_tangent_stack_equals_per_loop_draws(seed, count, kw):
    rng_stack, rng_loop = (np.random.default_rng(seed) for _ in range(2))
    stack = tf.random_tangent_stack(rng_stack, count, **kw)
    loops = [_reference_tangent(rng_loop, **kw).coeffs for _ in range(count)]
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
    reference = [tf.exp_pointwise(_reference_tangent(rng_ref, **kw)).coeffs
                 for _ in range(p["count"])]
    assert np.array_equal(stack, np.stack([lp.coeffs for lp in loops]))
    assert np.array_equal(stack, np.stack(reference))
    assert all(lp.unimodular for lp in loops)
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
