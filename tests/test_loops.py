"""Loop algebra: transforms, products, projections, contour extraction."""

import numpy as np
import pytest

import tauforge as tf
from tauforge import loops
from tauforge.loops import MatrixLoop

from oracles import (
    adjugate_inverse,
    derivative_lambda,
    eval_point,
    eval_theta,
    project,
    unimodular_defect,
)


def random_loop(rng, order=8, n=2, scale=0.5):
    """Dense random loop with geometrically decaying modes."""
    ks = np.arange(-order, order + 1)
    decay = np.exp(-0.4 * np.abs(ks))[:, None, None]
    coeffs = scale * decay * (
        rng.standard_normal((2 * order + 1, n, n))
        + 1j * rng.standard_normal((2 * order + 1, n, n)))
    return MatrixLoop(coeffs)


class TestTransforms:
    def test_default_grid_is_the_smallest_exact_power_of_two(self):
        # gamma g_plus keeps modes -N..N of -N..2N: exact on M >= 3N + 1,
        # and 3N + 2 also covers gauge_variation up to a direction of order N
        for order in range(1, 513):
            m = loops.default_sample_count(order)
            assert m & (m - 1) == 0
            assert m >= max(3 * order + 2, 128)
            assert m == 128 or m // 2 < 3 * order + 2
        assert loops.default_sample_count(32) == 128
        assert loops.default_sample_count(64) == 256
        # a caller's own bound, as quadratic_variation's 4N + K + 2
        assert loops.default_sample_count(32, 131) == 256

    def test_sample_coefficient_round_trip(self, rng):
        loop = random_loop(rng)
        vals = loop.samples()
        back = MatrixLoop.from_samples(vals, loop.order)
        rel = np.abs(back.samples() - vals).max() / np.abs(vals).max()
        assert rel <= 1e-12

    @pytest.mark.parametrize("k", [-3, 3])
    def test_coeff_outside_the_modes_rejected(self, k):
        # without the check, k = -3 would wrap round to mode 2
        with pytest.raises(ValueError, match=f"mode {k} outside -2..2"):
            MatrixLoop.identity(order=2).coeff(k)

    def test_eval_identity(self):
        ident = MatrixLoop.identity()
        for theta in (0.0, 1.0, 3.9):
            assert np.allclose(eval_theta(ident, theta), np.eye(2), atol=1e-14)

    def test_eval_single_mode_at_zero(self, rng):
        block = rng.standard_normal((2, 2))
        loop = tf.monomial(1, block)
        assert np.abs(eval_theta(loop, 0.0) - block).max() <= 1e-14

    def test_eval_matches_pointwise_exponential(self, rng):
        u = tf.random_tangent(rng, antihermitian=True)
        loop = tf.exp_pointwise(u)
        theta = 2 * np.pi * np.arange(8) / 8
        from scipy.linalg import expm
        for th in theta:
            want = expm(eval_theta(u, th))
            assert np.abs(eval_theta(loop, th) - want).max() <= 1e-10

    def test_eval_point_off_circle(self):
        loop = tf.monomial(-2, np.diag([1.0, 3.0]))
        z = 1.5 + 0.5j
        want = np.diag([1.0, 3.0]) / z**2
        assert np.abs(eval_point(loop, z) - want).max() <= 1e-13

    def test_tail_mass_error_on_undersampled_data(self):
        m = 64
        theta = 2 * np.pi * np.arange(m) / m
        # mode 20 aliases into a +-8 window
        vals = np.exp(20j * theta)[:, None, None] * np.eye(2)
        with pytest.raises(tf.TailMassError):
            MatrixLoop.from_samples(vals, order=8, tail_tol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tail_mass_error_names_a_non_finite_loop(self, rng, bad):
        # a NaN fraction compares False with the tolerance, yet must fail
        vals = np.stack([random_loop(rng).samples(64) for _ in range(4)])
        vals[2, 5, 0, 1] = bad
        with pytest.raises(tf.TailMassError, match=" in loop 2 exceeds"):
            loops.samples_to_coeffs(vals, 8, tail_tol=1e-8)
        loop = random_loop(rng)
        loop.coeffs[3, 1, 0] = bad
        with pytest.raises(tf.TailMassError, match="truncation to order 4"):
            loop.truncate(4)

    @pytest.mark.parametrize("first_mode", [None, 0, -16, 7])
    def test_half_circle_transforms_match_complex_ones(self, rng,
                                                       first_mode):
        # real coefficients: the rfft pair gives the complex pair's upper
        # half-circle samples, and back, with the same tail fractions
        m = 64
        decay = 0.8 ** np.abs(np.arange(-16, 17))[:, None, None]
        coeffs = decay * rng.standard_normal((3, 33, 2, 2))
        full = loops.coeffs_to_samples(coeffs, m, first_mode)
        scale = np.abs(coeffs).max()
        half = loops.coeffs_to_half_samples(coeffs, m, first_mode)
        assert half.shape == (3, m // 2 + 1, 2, 2)
        assert np.abs(half - full[:, :m // 2 + 1]).max() <= (
            1e-15 * np.abs(full).max())
        for order in (16, 8):
            back, tail = loops._coeffs_and_tail(half, order, half=True)
            want, want_tail = loops._coeffs_and_tail(full, order)
            assert back.dtype == np.float64
            assert np.abs(back - want).max() <= 1e-15 * scale
            # fractions are relative already; the bins they sum are tiny
            assert np.abs(tail - want_tail).max() <= 1e-15
        if first_mode is None:
            assert np.abs(loops.half_samples_to_coeffs(half, 16)
                          - coeffs).max() <= 1e-15 * scale

    def test_half_circle_tail_check_names_the_worst_loop(self, rng):
        decay = 0.8 ** np.abs(np.arange(-16, 17))[:, None, None]
        coeffs = decay * rng.standard_normal((4, 33, 2, 2))
        coeffs[2] *= 0.5 / decay  # no decay: the worst tail
        half = loops.coeffs_to_half_samples(coeffs, 64)
        with pytest.raises(tf.TailMassError, match=" in loop 2 exceeds") as err:
            loops.half_samples_to_coeffs(half, 8, tail_tol=1e-8)
        assert err.value.loop == 2

    def test_unimodular_tag_defect(self, rng):
        assert unimodular_defect(tf.random_unimodular_loop(rng)) <= 1e-10

    def test_imag_defect_of_real_loop(self):
        xi = MatrixLoop.from_modes({0: 0.5, 1: 0.2 - 0.1j, -1: 0.2 + 0.1j},
                                   n=1, order=4)
        assert np.abs(xi.samples().imag).max() <= 1e-12


class TestProducts:
    def test_inverse_powers_cancel(self):
        a = tf.monomial(1, np.eye(2))
        b = tf.monomial(-1, np.eye(2))
        prod = tf.multiply(a, b)
        assert np.abs(prod.samples() - np.eye(2)).max() <= 1e-14

    def test_identity_is_neutral(self, rng):
        a = random_loop(rng)
        prod = tf.multiply(a, MatrixLoop.identity(order=a.order))
        assert np.abs(prod.samples() - a.samples()).max() <= 1e-13

    def test_pointwise_product_agreement(self, rng):
        a, b = random_loop(rng), random_loop(rng)
        prod = tf.multiply(a, b)
        direct = np.einsum("mij,mjk->mik", a.samples(512), b.samples(512))
        assert np.abs(prod.samples(512) - direct).max() <= 1e-12

    def test_associativity(self, rng):
        a, b, c = (random_loop(rng, order=6) for _ in range(3))
        left = tf.multiply(tf.multiply(a, b), c)
        right = tf.multiply(a, tf.multiply(b, c))
        assert np.abs(left.samples(512) - right.samples(512)).max() <= 1e-11

    def test_scalar_matrix_broadcast(self, rng):
        h = MatrixLoop.from_modes({1: 2.0, -1: 0.5}, n=1, order=4)
        a = random_loop(rng, order=4)
        prod = tf.multiply(h, a)
        direct = h.samples(256) * a.samples(256)
        assert np.abs(prod.samples(256) - direct).max() <= 1e-12

    @pytest.mark.parametrize("combine", [MatrixLoop.__add__,
                                         MatrixLoop.__sub__])
    def test_sum_of_different_sizes_rejected(self, combine):
        # numpy would broadcast the 1x1 loop into every entry: identity + 1
        # had mode 0 [[2, 1], [1, 2]]
        square = MatrixLoop.identity(order=2)
        scalar = MatrixLoop.from_modes({0: 1.0}, n=1, order=2)
        with pytest.raises(ValueError, match="2x2 loop and a 1x1"):
            combine(square, scalar)
        with pytest.raises(ValueError, match="1x1 loop and a 2x2"):
            combine(scalar, square)

    def test_retruncation_tail_check(self, rng):
        a = tf.monomial(6, np.eye(2), order=6)
        b = tf.monomial(6, np.eye(2), order=6)
        with pytest.raises(tf.TailMassError):
            tf.multiply(a, b).truncate(8)

    def test_unimodular_tag_preserved(self, rng):
        a = tf.random_unimodular_loop(rng)
        b = tf.random_unimodular_loop(rng)
        assert unimodular_defect(tf.multiply(a, b)) <= 1e-10
        assert unimodular_defect(tf.inverse(a)) <= 1e-10


class TestInverse:
    def test_identity(self):
        inv = tf.inverse(MatrixLoop.identity())
        assert np.abs(inv.samples() - np.eye(2)).max() <= 1e-13

    def test_diagonal_phases_swap(self):
        a = MatrixLoop.from_modes({1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])},
                                  order=4)
        inv = tf.inverse(a)
        expected = MatrixLoop.from_modes(
            {-1: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])}, order=4)
        assert np.abs(inv.samples() - expected.samples()).max() <= 1e-12

    def test_round_trip_residual(self, rng):
        a = tf.random_unimodular_loop(rng)
        prod = tf.multiply(a, tf.inverse(a))
        assert np.abs(prod.samples() - np.eye(2)).max() <= 1e-10

    def test_singular_loop_rejected(self):
        # rank-1 at every sample
        a = MatrixLoop.from_modes({0: np.array([[1.0, 1.0], [1.0, 1.0]])}, order=2)
        with pytest.raises(tf.SingularLoopError):
            tf.inverse(a)

    @pytest.mark.parametrize("log_cond", [0, 4, 9.9, 10.1, 13, 17])
    def test_condition_check_matches_svd(self, rng, log_cond):
        # U diag(1, 10^-log_cond) V^H, with U and V random unitaries: the
        # closed form must reject exactly where the singular values do
        def unitary(count):
            z = rng.standard_normal((count, 2, 2, 2)) @ [1, 1j]
            return np.linalg.qr(z)[0]
        sigma = np.zeros((16, 2, 2))
        sigma[:, 0, 0], sigma[:, 1, 1] = 1.0, 10.0 ** -log_cond
        vals = unitary(16) @ sigma @ unitary(16).conj().swapaxes(-1, -2)
        svals = np.linalg.svd(vals, compute_uv=False)
        assert (svals[:, 0] / svals[:, 1] > loops.INVERSE_COND_MAX).all() \
            == (log_cond > 10)
        if log_cond > 10:
            with pytest.raises(tf.SingularLoopError):
                loops.check_sample_condition(vals)
        else:
            loops.check_sample_condition(vals)

    def test_zero_sample_rejected(self):
        with pytest.raises(tf.SingularLoopError):
            loops.check_sample_condition(np.zeros((4, 2, 2), dtype=complex))

    def test_adjugate_matches_inverse_for_det_one(self, rng):
        a = tf.random_unimodular_loop(rng)
        adj = adjugate_inverse(a)
        inv = tf.inverse(a)
        assert np.abs(adj.samples() - inv.samples()).max() <= 1e-9


class TestProjections:
    def test_negative_power_has_no_nonnegative_part(self):
        a = tf.monomial(-1, np.eye(2))
        proj = project(a, "nonnegative")
        assert np.abs(proj.coeffs).max() == 0.0

    def test_strictly_positive_extraction(self, rng):
        A = rng.standard_normal((2, 2))
        a = MatrixLoop.from_modes({0: np.eye(2), 1: A}, order=4)
        proj = project(a, "strictly_positive")
        expected = tf.monomial(1, A, order=4)
        assert np.array_equal(proj.coeffs, expected.coeffs)

    def test_partition_of_modes(self, rng):
        a = random_loop(rng)
        total = (project(a, "strictly_positive").coeffs
                 + project(a, "nonpositive").coeffs)
        assert np.array_equal(total, a.coeffs)

    def test_idempotent_and_disjoint(self, rng):
        a = random_loop(rng)
        p = project(a, "strictly_negative")
        assert np.array_equal(project(p, "strictly_negative").coeffs, p.coeffs)
        assert np.abs(project(p, "nonnegative").coeffs).max() == 0.0


class TestContourAndDerivatives:
    def test_exactness_of_lambda_derivative(self, rng):
        # the contour integral of da dlambda is 2 pi i times its mode -1
        a = random_loop(rng)
        assert np.abs(derivative_lambda(a).coeff(-1)).max() == 0.0

    def test_theta_derivative_single_mode(self, rng):
        A = rng.standard_normal((2, 2))
        a = tf.monomial(1, A)
        d = a.derivative_theta()
        theta = 0.7
        want = 1j * np.exp(1j * theta) * A
        assert np.abs(eval_theta(d, theta) - want).max() <= 1e-13

    def test_constant_loop_derivatives_vanish(self, rng):
        a = tf.monomial(0, rng.standard_normal((2, 2)))
        assert np.abs(a.derivative_theta().coeffs).max() == 0.0
        assert np.abs(derivative_lambda(a).coeffs).max() == 0.0

    def test_chain_rule_lambda_vs_theta(self, rng):
        a = random_loop(rng)
        dlam = derivative_lambda(a)
        dth = a.derivative_theta()
        theta = 2 * np.pi * np.arange(32) / 32
        lam = np.exp(1j * theta)
        lhs = eval_theta(dlam, theta)
        rhs = eval_theta(dth, theta) / (1j * lam)[:, None, None]
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestExponential:
    def test_zero_gives_identity(self):
        z = MatrixLoop(np.zeros((9, 2, 2), dtype=complex))
        e = tf.exp_pointwise(z)
        assert np.abs(e.samples() - np.eye(2)).max() <= 1e-14

    def test_constant_diagonal(self):
        c = 0.37
        a = tf.monomial(0, np.diag([c, -c]))
        e = tf.exp_pointwise(a)
        expected = np.diag([np.exp(c), np.exp(-c)])
        assert np.abs(eval_theta(e, 1.3) - expected).max() <= 1e-12

    def test_nilpotent_exponential(self, rng):
        # strictly upper triangular per sample: exp = I + a
        f = MatrixLoop.from_modes({1: 0.4, -2: 0.1}, n=1, order=4)
        a = tf.multiply(f, tf.monomial(0, np.array([[0.0, 1.0], [0.0, 0.0]]), order=4))
        e = tf.exp_pointwise(a)
        direct = np.eye(2) + a.samples()
        assert np.abs(e.samples() - direct).max() <= 1e-12

    def test_matches_expm_for_2x2(self, rng):
        from scipy.linalg import expm
        u = tf.random_tangent(rng, traceless=False)
        e = tf.exp_pointwise(u)
        theta = 2 * np.pi * np.arange(7) / 7
        for th in theta:
            want = expm(eval_theta(u, th))
            assert np.abs(eval_theta(e, th) - want).max() <= 1e-10

    def test_other_sizes_rejected(self, rng):
        # the closed 2x2 form would give wrong numbers on a 3x3 stack
        u = tf.random_tangent(rng, n=3, order=16)
        for fn in (tf.exp_pointwise, tf.inverse):
            with pytest.raises(ValueError, match="got 3x3"):
                fn(u)
        for count in (0, 2):  # an empty stack too
            with pytest.raises(ValueError, match="got 3x3"):
                tf.random_unimodular_stack(rng, count, n=3, order=16)
        with pytest.raises(ValueError, match="got 1x1"):
            tf.exp_pointwise(MatrixLoop.from_modes({0: 0.5}, n=1, order=2))

    def test_band_wider_than_order_rejected(self, rng):
        with pytest.raises(ValueError):
            tf.random_tangent(rng, order=3)

    def test_tangent_flags(self, rng):
        u = tf.random_tangent(rng, antihermitian=True, traceless=True)
        vals = u.samples()
        assert np.abs(vals + vals.conj().transpose(0, 2, 1)).max() <= 1e-10
        assert np.abs(np.trace(vals, axis1=1, axis2=2)).max() <= 1e-10
        assert unimodular_defect(tf.exp_pointwise(u)) <= 1e-10


class TestRandomStacks:
    def test_unimodular_stack_crosses_blocks_bit_for_bit(self):
        count = 2 * loops._BLOCK + 5
        rng_stack, rng_loop = (np.random.default_rng(11) for _ in range(2))
        stack = tf.random_unimodular_stack(rng_stack, count)
        sequential = [tf.random_unimodular_loop(rng_loop).coeffs
                      for _ in range(count)]
        assert np.array_equal(stack, np.stack(sequential))
        assert rng_stack.bit_generator.state == rng_loop.bit_generator.state

    def test_tangents_drawn_in_blocks_equal_one_draw(self):
        # stacks drawn in turn, as random_unimodular_blocks draws its
        # blocks, are the stack drawn in one call, and leave rng as it does
        count = 2 * loops._BLOCK + 5
        rng_whole, rng_blocks = (np.random.default_rng(3) for _ in range(2))
        whole = tf.random_tangent_stack(rng_whole, count)
        blocks = [tf.random_tangent_stack(rng_blocks,
                                          min(loops._BLOCK, count - lo))
                  for lo in range(0, count, loops._BLOCK)]
        assert np.array_equal(np.concatenate(blocks), whole)
        assert rng_blocks.bit_generator.state == rng_whole.bit_generator.state

    @pytest.mark.parametrize("n, order, generator", [
        (2, 32, "random_tangent_stack"), (2, 32, "random_unimodular_stack"),
        (3, 16, "random_tangent_stack")])
    def test_empty_stack(self, n, order, generator):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        stack = getattr(tf, generator)(rng, 0, n=n, order=order)
        assert stack.shape == (0, 2 * order + 1, n, n)
        assert rng.bit_generator.state == state

    def test_tail_mass_error_names_the_worst_loop_across_blocks(
            self, monkeypatch):
        # Nyquist-bin mass added after exp: loop 3 of the first block
        # fails, loop 5 of the second fails worse and must be the one named
        count, m = 2 * loops._BLOCK + 5, loops.default_sample_count(32)
        spoil = {3: 5e-4, loops._BLOCK + 5: 1e-3}
        nyquist = (-1.0) ** np.arange(m)[:, None, None]
        exp_samples, seen = loops._exp_samples, []

        def spoiled(vals):
            out = exp_samples(vals)
            lo = sum(seen)
            seen.append(len(vals))
            for i, size in spoil.items():
                if lo <= i < lo + len(vals):
                    out[i - lo] += size * nyquist
            return out

        # the same samples as one whole stack, checked in one call
        vals = exp_samples(loops.coeffs_to_samples(tf.random_tangent_stack(
            np.random.default_rng(4), count), m))
        for i, size in spoil.items():
            vals[i] += size * nyquist
        with pytest.raises(tf.TailMassError) as whole:
            loops.samples_to_coeffs(vals, 32, tail_tol=loops.TAIL_THRESHOLD)

        monkeypatch.setattr(loops, "_exp_samples", spoiled)
        with pytest.raises(tf.TailMassError) as blocked:
            tf.random_unimodular_stack(np.random.default_rng(4), count)
        assert seen == [loops._BLOCK, loops._BLOCK, 5]
        assert str(blocked.value) == str(whole.value)
        assert f" in loop {loops._BLOCK + 5} exceeds" in str(blocked.value)
