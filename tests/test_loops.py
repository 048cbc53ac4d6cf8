"""Loop algebra: transforms, products, projections, contour extraction."""

import numpy as np
import pytest

import tauforge as tf
from tauforge import loops
from tauforge.loops import MatrixLoop, ScalarLoop


def random_loop(rng, order=8, n=2, scale=0.5):
    """Dense random loop with geometrically decaying modes."""
    ks = np.arange(-order, order + 1)
    decay = np.exp(-0.4 * np.abs(ks))[:, None, None]
    coeffs = scale * decay * (
        rng.standard_normal((2 * order + 1, n, n))
        + 1j * rng.standard_normal((2 * order + 1, n, n)))
    return MatrixLoop(coeffs)


class TestTransforms:
    def test_sample_coefficient_round_trip(self, rng):
        loop = random_loop(rng)
        vals = loop.samples()
        back = MatrixLoop.from_samples(vals, loop.order)
        rel = np.abs(back.samples() - vals).max() / np.abs(vals).max()
        assert rel <= 1e-12

    def test_eval_identity(self):
        ident = MatrixLoop.identity()
        for theta in (0.0, 1.0, 3.9):
            assert np.allclose(ident.eval(theta), np.eye(2), atol=1e-14)

    def test_eval_single_mode_at_zero(self, rng):
        block = rng.standard_normal((2, 2))
        loop = tf.monomial(1, block)
        assert np.abs(loop.eval(0.0) - block).max() <= 1e-14

    def test_eval_matches_pointwise_exponential(self, rng):
        u = tf.random_tangent(rng, antihermitian=True)
        loop = tf.exp_pointwise(u)
        theta = 2 * np.pi * np.arange(8) / 8
        from scipy.linalg import expm
        for th in theta:
            assert np.abs(loop.eval(th) - expm(u.eval(th))).max() <= 1e-10

    def test_eval_point_off_circle(self):
        loop = tf.monomial(-2, np.diag([1.0, 3.0]))
        z = 1.5 + 0.5j
        assert np.abs(loop.eval_point(z) - np.diag([1.0, 3.0]) / z**2).max() <= 1e-13

    def test_tail_mass_error_on_undersampled_data(self):
        m = 64
        theta = 2 * np.pi * np.arange(m) / m
        # mode 20 aliases into a +-8 window
        vals = np.exp(20j * theta)[:, None, None] * np.eye(2)
        with pytest.raises(tf.TailMassError):
            MatrixLoop.from_samples(vals, order=8, tail_tol=1e-8)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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

    def test_unimodular_tag_defect(self, rng):
        loop = tf.random_unimodular_loop(rng)
        assert loop.unimodular
        assert loop.unimodular_defect() <= 1e-10

    def test_imag_defect_of_real_loop(self):
        xi = ScalarLoop.from_modes({0: 0.5, 1: 0.2 - 0.1j, -1: 0.2 + 0.1j},
                                   order=4)
        assert xi.imag_defect() <= 1e-12


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
        h = ScalarLoop.from_modes({1: 2.0, -1: 0.5}, order=4)
        a = random_loop(rng, order=4)
        prod = tf.multiply(h, a)
        direct = h.samples(256)[:, None, None] * a.samples(256)
        assert np.abs(prod.samples(256) - direct).max() <= 1e-12

    def test_retruncation_tail_check(self, rng):
        a = tf.monomial(6, np.eye(2), order=6)
        b = tf.monomial(6, np.eye(2), order=6)
        with pytest.raises(tf.TailMassError):
            tf.multiply(a, b).truncate(8)

    def test_unimodular_tag_preserved(self, rng):
        a = tf.random_unimodular_loop(rng)
        b = tf.random_unimodular_loop(rng)
        assert tf.multiply(a, b).unimodular
        assert tf.inverse(a).unimodular


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

    def test_adjugate_matches_inverse_for_det_one(self, rng):
        a = tf.random_unimodular_loop(rng)
        adj = tf.adjugate_inverse(a)
        inv = tf.inverse(a)
        assert np.abs(adj.samples() - inv.samples()).max() <= 1e-9


class TestProjections:
    def test_negative_power_has_no_nonnegative_part(self):
        a = tf.monomial(-1, np.eye(2))
        proj = a.project("nonnegative")
        assert np.abs(proj.coeffs).max() == 0.0

    def test_strictly_positive_extraction(self, rng):
        A = rng.standard_normal((2, 2))
        a = MatrixLoop.from_modes({0: np.eye(2), 1: A}, order=4)
        proj = a.project("strictly_positive")
        expected = tf.monomial(1, A, order=4)
        assert np.array_equal(proj.coeffs, expected.coeffs)

    def test_partition_of_modes(self, rng):
        a = random_loop(rng)
        total = a.project("strictly_positive").coeffs + a.project("nonpositive").coeffs
        assert np.array_equal(total, a.coeffs)

    def test_idempotent_and_disjoint(self, rng):
        a = random_loop(rng)
        p = a.project("strictly_negative")
        assert np.array_equal(p.project("strictly_negative").coeffs, p.coeffs)
        assert np.abs(p.project("nonnegative").coeffs).max() == 0.0


class TestContourAndDerivatives:
    def test_cauchy_residue(self):
        f = tf.monomial(-1, np.eye(1))
        val = tf.contour_integral_dlambda(f)
        assert abs(val - 2j * np.pi) <= 1e-14

    def test_no_residue_for_positive_power(self):
        f = tf.monomial(2, np.eye(1))
        assert abs(tf.contour_integral_dlambda(f)) == 0.0

    def test_exactness_of_lambda_derivative(self, rng):
        a = random_loop(rng)
        val = tf.contour_integral_dlambda(a.derivative_lambda())
        assert np.abs(val).max() == 0.0

    def test_theta_derivative_single_mode(self, rng):
        A = rng.standard_normal((2, 2))
        a = tf.monomial(1, A)
        d = a.derivative_theta()
        theta = 0.7
        assert np.abs(d.eval(theta) - 1j * np.exp(1j * theta) * A).max() <= 1e-13

    def test_constant_loop_derivatives_vanish(self, rng):
        a = tf.monomial(0, rng.standard_normal((2, 2)))
        assert np.abs(a.derivative_theta().coeffs).max() == 0.0
        assert np.abs(a.derivative_lambda().coeffs).max() == 0.0

    def test_chain_rule_lambda_vs_theta(self, rng):
        a = random_loop(rng)
        dlam = a.derivative_lambda()
        dth = a.derivative_theta()
        theta = 2 * np.pi * np.arange(32) / 32
        lam = np.exp(1j * theta)
        lhs = dlam.eval(theta)
        rhs = dth.eval(theta) / (1j * lam)[:, None, None]
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
        assert np.abs(e.eval(1.3) - expected).max() <= 1e-12

    def test_nilpotent_exponential(self, rng):
        # strictly upper triangular per sample: exp = I + a
        f = ScalarLoop.from_modes({1: 0.4, -2: 0.1}, order=4)
        a = tf.multiply(f, tf.monomial(0, np.array([[0.0, 1.0], [0.0, 0.0]]), order=4))
        e = tf.exp_pointwise(a)
        direct = np.eye(2) + a.samples()
        assert np.abs(e.samples() - direct).max() <= 1e-12

    def test_matches_expm_for_2x2_and_3x3(self, rng):
        from scipy.linalg import expm
        for n in (2, 3):
            u = tf.random_tangent(rng, n=n, traceless=False)
            e = tf.exp_pointwise(u)
            theta = 2 * np.pi * np.arange(7) / 7
            for th in theta:
                assert np.abs(e.eval(th) - expm(u.eval(th))).max() <= 1e-10

    def test_band_wider_than_order_rejected(self, rng):
        with pytest.raises(ValueError):
            tf.random_tangent(rng, order=3)

    def test_tangent_flags(self, rng):
        u = tf.random_tangent(rng, antihermitian=True, traceless=True)
        vals = u.samples()
        assert np.abs(vals + vals.conj().transpose(0, 2, 1)).max() <= 1e-10
        assert np.abs(np.trace(vals, axis1=1, axis2=2)).max() <= 1e-10
        assert tf.exp_pointwise(u).unimodular


class TestRandomStacks:
    def test_unimodular_stack_crosses_blocks_bit_for_bit(self):
        count = 2 * loops._BLOCK + 5
        rng_stack, rng_loop = (np.random.default_rng(11) for _ in range(2))
        stack = tf.random_unimodular_stack(rng_stack, count)
        sequential = [tf.random_unimodular_loop(rng_loop).coeffs
                      for _ in range(count)]
        assert np.array_equal(stack, np.stack(sequential))
        assert rng_stack.bit_generator.state == rng_loop.bit_generator.state

    @pytest.mark.parametrize("generator", ["random_tangent_stack",
                                           "random_unimodular_stack"])
    @pytest.mark.parametrize("n, order", [(2, 32), (3, 16)])
    def test_empty_stack(self, generator, n, order):
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
