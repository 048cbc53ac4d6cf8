"""End-to-end acceptance checks, one criterion per test.

Every test prints a single [PASS]/[FAIL] line with the measured values
before asserting, so a verbose run reads as a scorecard.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from tauforge import ernst, kdv
from tauforge.birkhoff import (
    BigCellError,
    BirkhoffFactors,
    factorize,
    factorize_batch,
)
from tauforge.kdv import _direction_u
from tauforge.loops import (
    MatrixLoop,
    monomial,
    multiply,
    random_tangent,
    random_unimodular_loop,
)
from tauforge.phase_space import (
    cocycle,
    gauge_variation,
    poisson_anomaly,
    vacuum_logderiv_gauge,
)
from tauforge.quadrature import derivative

from oracles import pullback_patching, q_contour, q_expansion, shear_solution

AXIS_51 = np.linspace(-0.5, 0.5, 51)
AXIS_101 = np.linspace(-0.5, 0.5, 101)
SAMPLES = 128


@pytest.fixture
def report(capsys):
    """Print one scorecard line per criterion, bypassing output capture."""

    def _line(number: int, ok: bool, detail: str) -> bool:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: "
                  f"{detail}")
        return ok

    return _line


def minus_factors(seed, x, t):
    """Minus factors and big-cell flags of the translated loops at (x, t)."""
    minus, _, _, ok = factorize_batch(kdv.pullback_coeff_batch(seed, x, t))
    return minus, ok


def twist_loop() -> MatrixLoop:
    coeffs = np.zeros((65, 2, 2), dtype=complex)
    coeffs[33, 0, 0] = 1.0
    coeffs[31, 1, 1] = 1.0
    return MatrixLoop(coeffs)


@pytest.fixture(scope="module")
def one_pole_seed():
    return kdv.seed_one_pole()


@pytest.fixture(scope="module")
def one_pole_grid(one_pole_seed):
    return kdv.tau_grid(one_pole_seed, AXIS_51, AXIS_51)


@pytest.fixture(scope="module")
def one_pole_fine(one_pole_seed):
    return kdv.tau_grid(one_pole_seed, AXIS_101, AXIS_101)


@pytest.fixture(scope="module")
def vacuum_grid():
    return kdv.tau_grid(kdv.seed_vacuum(), AXIS_51, AXIS_51)


@pytest.fixture(scope="module")
def one_pole_minus(one_pole_seed):
    gx, gt = np.meshgrid(AXIS_51, AXIS_51, indexing="ij")
    return minus_factors(one_pole_seed, gx.ravel(), gt.ravel())


def test_criterion_1_birkhoff_round_trip(report):
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    stack = np.stack([
        random_unimodular_loop(rng, amplitude=0.5, order=32).coeffs
        for _ in range(100)])
    _, _, residuals, flags = factorize_batch(stack, SAMPLES)
    elapsed = time.perf_counter() - start
    worst = float(residuals.max())

    raised = False
    try:
        factorize(twist_loop())
    except BigCellError:
        raised = True

    ok = bool(flags.all()) and worst <= 1e-9 and raised and elapsed <= 10.0
    assert report(
        1, ok,
        f"100-loop reconstruction residual {worst:.2e} <= 1e-09, "
        f"diag(lambda, 1/lambda) raises BigCellError: {raised}, "
        f"{elapsed:.1f} s <= 10 s")


def test_criterion_2_cocycle_arithmetic(report):
    a = np.array([[0.25, -0.4], [0.3, 0.15]])
    u = monomial(1, a, order=8)
    v = monomial(-1, a, order=8)
    c_err = abs(cocycle(u, v) - (-1j * np.trace(a @ a)))

    rng = np.random.default_rng(7)
    gamma = random_unimodular_loop(rng)
    du = random_tangent(rng)
    dv = random_tangent(rng)
    a1 = abs(poisson_anomaly(gamma, du, dv, 1e-3))
    a2 = abs(poisson_anomaly(gamma, du, dv, 5e-4))
    ratio = a1 / a2

    ok = c_err <= 1e-12 and ratio >= 3.0
    assert report(
        2, ok,
        f"|c(A e^it, A e^-it) + i tr(A^2)| = {c_err:.2e} <= 1e-12, "
        f"anomaly Richardson ratio {ratio:.2f} >= 3 (O(eps^2))")


def test_criterion_3_kdv_headline_identity(report):
    start = time.perf_counter()
    u_x = _direction_u("x").samples(SAMPLES)
    worst_fd = 0.0
    worst_two = 0.0
    gx, gt = np.meshgrid(AXIS_51, AXIS_51, indexing="ij")
    for seed in (kdv.seed_one_pole(), kdv.seed_vacuum()):
        grid = kdv.tau_grid(seed, AXIS_51, AXIS_51)
        fd = derivative(grid.log_tau, AXIS_51, 1)
        worst_fd = max(worst_fd,
                       float(np.abs(fd - grid.q).max()))
        minus, flags = minus_factors(seed, gx.ravel(), gt.ravel())
        q_contour = gauge_variation(minus, u_x)
        worst_two = max(worst_two,
                        float(np.abs(grid.q.ravel() - q_contour)[flags].max()))
    elapsed = time.perf_counter() - start

    ok = worst_fd <= 1e-5 and worst_two <= 1e-8 and elapsed <= 60.0
    assert report(
        3, ok,
        f"51x51 grids, both presets: |d/dx log tau - q| = {worst_fd:.2e} "
        f"<= 1e-05, |q_expansion - q_contour| = {worst_two:.2e} <= 1e-08, "
        f"{elapsed:.1f} s <= 60 s")


def test_criterion_4_kdv_pde_residual(report, one_pole_grid,
                                      one_pole_fine, vacuum_grid):
    coarse = kdv.kdv_residual(one_pole_grid)
    fine = kdv.kdv_residual(one_pole_fine)
    ratio = coarse / fine
    vacuum = kdv.kdv_residual(vacuum_grid)

    ok = coarse <= 1e-4 and ratio >= 8.0 and vacuum <= 1e-7
    assert report(
        4, ok,
        f"|4u_t - u_xxx - 6uu_x| = {coarse:.2e} <= 1e-04 at spacing 0.02, "
        f"halving ratio {ratio:.1f} >= 8 (4th order), "
        f"vacuum {vacuum:.2e} <= 1e-07")


def test_criterion_5_dlogtau_closedness(report, one_pole_grid,
                                        one_pole_minus):
    minus, _ = one_pole_minus
    shape = (len(AXIS_51), len(AXIS_51))
    v_t = gauge_variation(
        minus, _direction_u("t").samples(SAMPLES)).reshape(shape)
    dq_dt = derivative(one_pole_grid.q, AXIS_51, 1, along=1)
    dvt_dx = derivative(v_t, AXIS_51, 1)
    mixed = float(np.abs(dq_dt - dvt_dx)[2:-2, 2:-2].max())

    spans = [((1.0, 1.5), (0.0, 0.5)), ((0.6, 2.1), (-0.8, 0.9))]
    closed = max(
        abs(ernst.rectangle_loop_integral(
            ernst.logtau_field(sol, rspan, zspan)))
        for sol in (ernst.kasner(0.7), ernst.point_source(0.8, -1.5))
        for rspan, zspan in spans)
    broken = abs(ernst.rectangle_loop_integral(ernst.logtau_field(
        shear_solution(), (1.0, 1.5), (0.0, 0.5))))

    ok = mixed <= 1e-6 and closed <= 1e-8 and broken > 1e-2
    assert report(
        5, ok,
        f"KdV mixed partials {mixed:.2e} <= 1e-06, Ernst solution loops "
        f"{closed:.2e} <= 1e-08, non-solution loop {broken:.2e} > 1e-02")


def test_criterion_6_ernst_closed_forms(report):
    source = ernst.point_source(0.8, -1.5)
    route = max(
        ernst.residue_check(sol, r, z)
        for sol in (ernst.flat(), ernst.kasner(0.7), source)
        for r in np.linspace(0.3, 2.7, 5)
        for z in np.linspace(-1.0, 1.0, 5))

    kasner_err = 0.0
    for a in (0.0, 0.3, 0.7, 1.2):
        sol = ernst.kasner(a)
        for r in (0.4, 1.0, 2.3):
            for z in (-0.6, 0.0, 0.8):
                d_w = ernst.dlogtau(sol, r, z, "w")
                d_wb = ernst.dlogtau(sol, r, z, "wbar")
                kasner_err = max(kasner_err, abs(
                    1j * (d_w - d_wb) - (1 + a ** 2) / (2 * r)))

    rs = np.linspace(0.5, 2.0, 12)
    zs = np.linspace(-0.5, 0.5, 9)
    weyl_gap = max(
        ernst.conformal_factor_check(sol, ernst.logtau_field(sol, rs, zs))
        for sol in (ernst.flat(), ernst.kasner(0.7), source,
                    ernst.non_solution()))

    ok = route <= 1e-12 and kasner_err <= 1e-10 and weyl_gap <= 1e-15
    assert report(
        6, ok,
        f"residue route {route:.2e} <= 1e-12, Kasner radial form "
        f"{kasner_err:.2e} <= 1e-10, log tau against Weyl's closed form "
        f"{weyl_gap:.2e} <= 1e-15")


def test_criterion_7_normalization_invariance(report, one_pole_seed):
    const = np.array([[1.2, 0.3], [0.5, (1.0 + 0.15) / 1.2]])  # det 1
    const_loop = monomial(0, const, order=32)
    points = [(0.2, -0.3), (-0.1, 0.25)]
    directions = [_direction_u("x"), _direction_u("t")]

    worst = 0.0
    twisted_seed = kdv.KdVSeed(
        p0=multiply(one_pole_seed.p0, const_loop),
        label="twisted", pole=one_pole_seed.pole,
        strength=one_pole_seed.strength)
    for x, t in points:
        worst = max(worst, abs(q_expansion(one_pole_seed, x, t)
                               - q_expansion(twisted_seed, x, t)))
        worst = max(worst, abs(q_contour(one_pole_seed, x, t)
                               - q_contour(twisted_seed, x, t)))
        factors = factorize(pullback_patching(one_pole_seed, x, t))
        refactored = BirkhoffFactors(
            g_minus=multiply(factors.g_minus, const_loop),
            g_plus=multiply(factors.g_plus, const_loop),
            residual=factors.residual)
        for u in directions:
            worst = max(worst, abs(vacuum_logderiv_gauge(factors, u)
                                   - vacuum_logderiv_gauge(refactored, u)))

    ok = worst <= 1e-9
    assert report(
        7, ok,
        f"constant right-twist of factors and right-multiplied P0 move "
        f"tau-observables by {worst:.2e} <= 1e-09")


def test_criterion_8_selftest_runtime(report):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tauforge", "selftest"],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start

    ok = proc.returncode == 0 and elapsed <= 60.0
    assert report(
        8, ok,
        f"selftest exit code {proc.returncode}, {elapsed:.1f} s <= 60 s")
