"""Birkhoff factorization: residuals, normalization, stratum detection."""

import contextlib
import io
import warnings
from pathlib import Path

import numpy as np
import pytest

import tauforge as tf
from tauforge import birkhoff, cli, kdv, loops
from tauforge.cli import _twist_loop

from oracles import eval_theta, toeplitz_matrix, widom_det


def test_identity_factors_to_identity():
    fac = birkhoff.factorize(tf.MatrixLoop.identity())
    assert np.abs(fac.g_minus.samples() - np.eye(2)).max() <= 1e-12
    assert np.abs(fac.g_plus.samples() - np.eye(2)).max() <= 1e-12
    assert fac.residual <= 1e-12


def test_support_and_normalization(rng):
    gamma = tf.random_unimodular_loop(rng)
    fac = birkhoff.factorize(gamma)
    minus, plus = fac.g_minus, fac.g_plus
    ks_m = np.arange(-minus.order, minus.order + 1)
    ks_p = np.arange(-plus.order, plus.order + 1)
    assert np.abs(minus.coeffs[ks_m > 0]).max() == 0.0
    assert np.abs(plus.coeffs[ks_p < 0]).max() == 0.0
    assert np.array_equal(minus.coeff(0), np.eye(2))


def test_reconstruction_residual(rng):
    for _ in range(5):
        gamma = tf.random_unimodular_loop(rng)
        fac = birkhoff.factorize(gamma)
        assert fac.residual <= 1e-9
        recon = tf.multiply(fac.g_minus, tf.inverse(fac.g_plus))
        assert np.abs(recon.samples(256) - gamma.samples(256)).max() <= 1e-9


def test_uniqueness_under_normalization(rng):
    gamma = tf.random_unimodular_loop(rng)
    fac = birkhoff.factorize(gamma)
    recon = tf.multiply(fac.g_minus, tf.inverse(fac.g_plus))
    again = birkhoff.factorize(recon)
    grid = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    for new, old in ((again.g_minus, fac.g_minus), (again.g_plus, fac.g_plus)):
        diff = eval_theta(new, grid) - eval_theta(old, grid)
        assert np.abs(diff).max() <= 1e-8


def test_determinant_splitting(rng):
    gamma = tf.random_unimodular_loop(rng)
    fac = birkhoff.factorize(gamma)
    sm = fac.g_minus.samples(256)
    sp = fac.g_plus.samples(256)
    dets = np.linalg.det(sm) / np.linalg.det(sp)
    assert np.abs(dets - 1.0).max() <= 1e-9


def test_off_big_cell_raises():
    gamma = tf.MatrixLoop.from_modes(
        {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])}, order=4)
    with pytest.raises(birkhoff.BigCellError):
        birkhoff.factorize(gamma)


@pytest.mark.parametrize("order", [1, 2, 8, 32, 64])
def test_twist_loop_has_a_singular_toeplitz_matrix(order):
    # diag(lambda, 1/lambda) has partial indices (1, -1): the LU of T_N
    # finds it singular at every order, and no other criterion decides
    with pytest.raises(birkhoff.BigCellError,
                       match=rf"T_N \(N = {order}, .*\) is singular"):
        birkhoff.factorize(_twist_loop(order))


def test_no_dense_condition_number_in_src():
    # the LU and the reconstruction residual are the only big-cell
    # criterion; a dense condition number would be a second one
    src = Path(tf.__file__).parent
    assert not [path.name for path in src.glob("*.py")
                if "np.linalg.cond" in path.read_text()]


def test_off_big_cell_toeplitz_rank_deficiency():
    gamma = tf.MatrixLoop.from_modes(
        {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])}, order=4)
    system = toeplitz_matrix(gamma)
    assert np.linalg.matrix_rank(system) < system.shape[0]


def test_smooth_dependence_on_parameter(rng):
    u = tf.random_tangent(rng, amplitude=0.3)
    base = tf.random_unimodular_loop(rng)

    def minus_factor(eps):
        bumped = tf.multiply(tf.exp_pointwise(u.scaled(eps)), base)
        return birkhoff.factorize(bumped).g_minus.coeffs

    def central(eps):
        return (minus_factor(eps) - minus_factor(-eps)) / (2 * eps)

    d1 = central(1e-3)
    d2 = central(5e-4)
    assert np.abs(d1 - d2).max() <= 1e-6


def test_batch_matches_single(rng):
    loops = [tf.random_unimodular_loop(rng) for _ in range(4)]
    coeffs = np.stack([lp.coeffs for lp in loops])
    minus, plus, residuals, ok = birkhoff.factorize_batch(coeffs)
    assert ok.all()
    for i, lp in enumerate(loops):
        # one loop runs the stack's route: the same bits
        fac = birkhoff.factorize(lp)
        assert np.array_equal(minus[i], fac.g_minus.coeffs)
        assert np.array_equal(plus[i], fac.g_plus.coeffs)
        assert residuals[i] == fac.residual <= 1e-9


def test_singular_loop_fails_alone(rng):
    # block + 3 loops span two blocks; each holds one zero (singular) loop
    block = loops._BLOCK
    stack = np.stack([tf.random_unimodular_loop(rng, order=16).coeffs
                      for _ in range(block + 3)])
    zeros = [7, block + 1]
    stack[zeros] = 0
    out = birkhoff.factorize_batch(stack)
    assert np.flatnonzero(~out[3]).tolist() == zeros
    for lo in (0, block):
        span = np.arange(lo, min(lo + block, len(stack)))
        good = span[~np.isin(span, zeros)]
        alone = birkhoff.factorize_batch(stack[good])
        for got, want in zip(out, alone):
            assert np.array_equal(got[good], want)


@pytest.mark.parametrize("cut", [loops._BLOCK, 50, 1])
def test_three_blocks_equal_calls_on_pieces(cut):
    # the stack spans three blocks; pieces of `cut` loops, aligned with the
    # blocks or not, give the same bits
    stack = tf.random_unimodular_stack(np.random.default_rng(cut),
                                       3 * loops._BLOCK, order=16)
    whole = birkhoff.factorize_slogdet(stack)
    pieces = [birkhoff.factorize_slogdet(stack[lo:lo + cut])
              for lo in range(0, len(stack), cut)]
    for got, *want in zip(whole, *pieces):
        assert np.array_equal(got, np.concatenate(want))


def test_real_path_matches_complex_path_on_the_default_kdv_grid():
    # the default kdv grid's 2,601 real loops: real LU on half-circle
    # samples against the complex route on the same loops
    axis = np.linspace(-1, 1, 51)
    x, t = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    stack = kdv.pullback_coeff_batch(kdv.seed_one_pole(), x, t)
    assert stack.dtype == np.float64
    real = birkhoff.factorize_slogdet(stack)
    cplx = birkhoff.factorize_slogdet(stack.astype(complex))
    (gm, gp, res, ok, sign, logabs) = real
    assert gm.dtype == gp.dtype == sign.dtype == np.float64
    assert np.array_equal(ok, cplx[3]) and ok.all()
    for got, want in zip((gm, gp), cplx[:2]):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(res - cplx[2]).max() <= 1e-13
    assert np.abs(sign - cplx[4]).max() <= 1e-14
    # an error in log|det| is a relative error of det T_N
    assert np.abs(logabs - cplx[5]).max() <= 1e-14


def test_batch_peak_memory_stays_in_blocks(peak_mb):
    # 1000 loops at N = 32 (4.2 MB of coefficients) peaked 9.0 MB above
    # what was live to generate and 16.0 MB to factor, in blocks, against
    # 70.5 and 53.1 MB when each stage held the whole stack; the bounds
    # give the blocked peaks 2x and 1.5x
    stack, generate = peak_mb(tf.random_unimodular_stack,
                              np.random.default_rng(1), 1000)
    _, factor = peak_mb(birkhoff.factorize_batch, stack)
    assert generate <= 18.0
    assert factor <= 24.0


def test_lu_block_memory_does_not_grow_with_the_order(peak_mb):
    # 64 loops at N = 256: 64-loop blocks gathered 64 T_N of 514x514 and
    # peaked at 264 MB; one-loop blocks peak at 10.1 MB
    stack = tf.random_unimodular_stack(np.random.default_rng(2), 64,
                                       order=256)
    _, factor = peak_mb(birkhoff.factorize_batch, stack)
    assert factor < 20.0


def test_streamed_run_memory_does_not_grow_with_the_count(peak_mb,
                                                          tmp_path):
    # the whole stacks a run held between its stages made the traced peak
    # 9.3 MB at --count 256 and 51.0 MB at 2560; block by block, both
    # read 7.0 MB.  A first run fills the caches a run keeps.
    def run(count):
        argv = ["birkhoff", "--count", str(count), "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == cli.EXIT_PASS

    run(8)
    _, small = peak_mb(run, 256)
    _, large = peak_mb(run, 2560)
    assert large <= 1.2 * small


def test_lu_blocks_are_sized_by_the_order():
    # the gathered T_N of a block hold what 64 loops hold at N = 32
    assert [loops._block_loops(order)
            for order in (8, 32, 64, 128, 256, 512)] == [64, 64, 16, 4, 1, 1]


@pytest.mark.parametrize("order", [16, 32])
def test_sample_count_is_none_or_the_default_grid(order):
    # the residual's grid is default_sample_count(N); the parameter stays
    # for callers that pass a manifest's "samples" by position
    stack = tf.random_unimodular_stack(np.random.default_rng(order), 5,
                                       order=order)
    default = birkhoff.factorize_batch(stack, None)
    named = birkhoff.factorize_batch(stack, loops.default_sample_count(order))
    for got, want in zip(named, default):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="sample_count = 512"):
        birkhoff.factorize_batch(stack, 512)


@pytest.mark.parametrize("order", [8, 32, 42, 43, 64])
def test_default_grid_factors_as_twice_the_grid(order, monkeypatch):
    # gamma g_plus has modes -N..2N and _assemble keeps -N..N, which take
    # no alias on M >= 3N + 1; 42 and 43 sit either side of the step from
    # 128 to 256 points.  I + flat random modes is not factored to
    # convergence at N, so modes N+1..2N of gamma g_plus are large: on
    # 3N points the factors move by about 1e-3.  tol = inf keeps them.
    # The one-pole pullbacks are real loops, on the half-circle route.
    rng = np.random.default_rng(order)
    flat = 0.3 * (rng.standard_normal((4, 2 * order + 1, 2, 2))
                  + 1j * rng.standard_normal((4, 2 * order + 1, 2, 2)))
    flat /= np.abs(flat).sum(axis=1).max(axis=(1, 2))[:, None, None, None]
    flat[:, order] += np.eye(2)
    seed = kdv.seed_one_pole(pole=-0.6, strength=0.9, order=order)
    pulled = kdv.pullback_coeff_batch(seed, [0.3, -0.4], [0.1, 0.2], order,
                                      tail_tol=None)
    twice = 2 * loops.default_sample_count(order)
    for stack in (flat, pulled):
        default = birkhoff.factorize_slogdet(stack, tol=np.inf)
        with monkeypatch.context() as patch:
            patch.setattr(birkhoff, "default_sample_count", lambda n: twice)
            fine = birkhoff.factorize_slogdet(stack, tol=np.inf)
        assert default[3].all()
        for got, want in zip(default[:2], fine[:2]):
            assert np.abs(got - want).max() <= 1e-13
        assert np.array_equal(default[5], fine[5])


def test_slogdet_takes_tol_by_keyword_only():
    # a caller that passes sample_count by position must fail, not set tol
    stack = tf.random_unimodular_stack(np.random.default_rng(0), 2)
    with pytest.raises(TypeError):
        birkhoff.factorize_slogdet(stack, 1e-9)


def test_toeplitz_index_is_built_once_and_read_only():
    idx = birkhoff._toeplitz_index(16, 2)
    assert birkhoff._toeplitz_index(16, 2) is idx
    with pytest.raises(ValueError, match="read-only"):
        idx[0, 0] = 0


def test_empty_stack_gives_empty_arrays():
    out = birkhoff.factorize_batch(np.zeros((0, 17, 2, 2), dtype=complex))
    assert [a.shape for a in out] == [(0, 17, 2, 2), (0, 17, 2, 2), (0,), (0,)]


# -- the LU route against numpy's dense solve and determinant -------------


def _dense(stack):
    return np.stack([toeplitz_matrix(tf.MatrixLoop(c)) for c in stack])


def _assert_slogdet_matches_numpy(stack):
    _, nmodes, n, _ = stack.shape
    # factorize_slogdet takes 2x2 loops; its LU block takes any size
    sign, logabs = (birkhoff.factorize_slogdet(stack)[4:] if n == 2 else
                    birkhoff._lu_block(stack, nmodes // 2, n)[2:])
    want_sign, want_logabs = np.linalg.slogdet(_dense(stack))
    assert np.abs(logabs - want_logabs).max() <= 1e-12
    assert np.abs(sign - want_sign).max() <= 1e-12


def _assert_plus_matches_numpy(stack):
    order = (stack.shape[1] - 1) // 2
    rhs = np.zeros((2 * (order + 1), 2))
    rhs[:2] = np.eye(2)
    want = np.linalg.solve(_dense(stack), rhs).reshape(-1, order + 1, 2, 2)
    # the normalization twist is the identity up to rounding: block row 0
    # of T_N X = E_0 already makes mode 0 of g_minus the identity; the
    # loops cut down to N = 8 miss the default residual tolerance
    _, plus, _, ok = birkhoff.factorize_batch(stack, tol=np.inf)
    assert ok.all()
    scale = np.abs(want).max(axis=(1, 2, 3))
    err = np.abs(plus[:, order:] - want).max(axis=(1, 2, 3))
    assert (err <= 1e-12 * scale).all()


@pytest.mark.parametrize("order", [8, 16, 32])
def test_lu_route_matches_numpy_on_random_loops(order):
    # order-32 unimodular loops cut down to modes -N..N
    stack = tf.random_unimodular_stack(np.random.default_rng(order), 12)
    stack = stack[:, 32 - order:33 + order]
    _assert_slogdet_matches_numpy(stack)
    _assert_plus_matches_numpy(stack)


def test_lu_route_matches_numpy_on_a_pullback_stack():
    seed = kdv.seed_one_pole(pole=0.25, strength=0.33)
    x = np.linspace(-1, 1, 21)
    stack = kdv.pullback_coeff_batch(seed, x, 0.15 * x[::-1])
    _assert_slogdet_matches_numpy(stack)
    _assert_plus_matches_numpy(stack)


@pytest.mark.parametrize("n", [1, 3])
def test_toeplitz_slogdet_matches_numpy_for_other_sizes(n):
    rng = np.random.default_rng(n)
    decay = 0.7 ** np.abs(np.arange(-16, 17))[:, None, None]
    stack = 0.3 * decay * (rng.standard_normal((10, 33, n, n))
                           + 1j * rng.standard_normal((10, 33, n, n)))
    stack[:, 16] += np.eye(n)
    _assert_slogdet_matches_numpy(stack)


@pytest.mark.parametrize("loop", ["zero", "twist"])
def test_singular_system_gives_zero_determinant_quietly(loop):
    coeffs = (np.zeros((33, 2, 2), dtype=complex) if loop == "zero"
              else _twist_loop(16).coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, _, _, ok, sign, logabs = birkhoff.factorize_slogdet(coeffs[None])
    assert sign.tolist() == [0] and logabs.tolist() == [-np.inf]
    assert ok.tolist() == [False]


# -- the LU determinant against Widom's truncation-free E ----------------


def _widom_errors(stack, ks):
    """Worst |log E_K - log det T_N| over the stack, for each K, with the
    imaginary part taken modulo 2 pi."""
    sign, logabs = birkhoff.factorize_slogdet(stack)[4:]
    want = logabs + 1j * np.angle(sign)
    errors = {}
    for k in ks:
        diff = np.log([widom_det(c, k) for c in stack]) - want
        errors[k] = float(np.abs(diff.real + 1j * np.angle(
            np.exp(1j * diff.imag))).max())
    return errors


def test_lu_determinant_matches_widom_on_random_loops():
    # an order-32 loop has no Hankel mode past 32, so E_32 is exact and
    # det T_32 matches it to rounding: 1.2e-14 measured on these loops
    stack = tf.random_unimodular_stack(np.random.default_rng(32), 5, order=32)
    assert _widom_errors(stack, [32])[32] <= 1e-13


# worst error allowed at K = 16 for each (pole, strength); at the 8 points
# the measured worst is 1.6e-14 for (0.25, 0.3) and 1.0e-11 for
# (-0.6, 0.9), whose Hankel modes decay more slowly (2.8e-5 at K = 8)
WIDOM_BOUND_AT_16 = {(0.25, 0.3): 1e-13, (-0.6, 0.9): 1e-10}


@pytest.mark.parametrize("pole, strength", sorted(WIDOM_BOUND_AT_16))
def test_lu_determinant_matches_widom_on_one_pole_loops(pole, strength):
    # det T_48 of the translated one-pole loops against E_K: the Hankel
    # product converges geometrically in K, to 1.5e-14 at K = 24
    seed = kdv.seed_one_pole(pole=pole, strength=strength, order=64)
    points = np.random.default_rng(17).uniform(-1, 1, size=(8, 2))
    stack = kdv.pullback_coeff_batch(seed, points[:, 0], points[:, 1], 48,
                                     tail_tol=None)
    errors = _widom_errors(stack, [8, 16, 24])
    assert errors[16] <= WIDOM_BOUND_AT_16[(pole, strength)]
    assert errors[24] <= 1e-13
    assert errors[8] >= 1e3 * errors[24]
