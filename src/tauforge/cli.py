"""Batch front-end: experiment configs, CSV + JSON artifacts, self-test.

Configuration is a flat key=value story: an optional seed file provides
defaults, command-line flags override them, and every resolved value is
echoed into the JSON manifest so a CSV can be regenerated from the
manifest alone.  Exit codes: 0 all checks passed, 2 a numerical check
failed, 3 configuration error, 4 factorization left the big cell on a
node the run requires.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, ernst, kdv
from .birkhoff import FACTOR_TOL, BigCellError, factorize, factorize_batch
from .loops import (
    DEFAULT_ORDER,
    MatrixLoop,
    NumericalInvariantError,
    TailMassError,
    default_sample_count,
    inverse,
    monomial,
    multiply,
    random_tangent,
    random_unimodular_blocks,
    random_unimodular_loop,
)
from .phase_space import cocycle, poisson_anomaly
from .quadrature import PathRefinementError, derivative
from .twistor import ernst_frame

EXIT_PASS = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_BIG_CELL = 4

PIPELINES = ("selftest", "kdv", "ernst", "birkhoff")

DEFAULT_GRIDS = {
    "kdv": "-1:1:51",
    "ernst": "0.5:2:16,-0.5:0.5:11",
}
DEFAULT_PRESETS = {
    "kdv": "one_pole",
    "ernst": "kasner:a=0.7",
    "birkhoff": "random",
    "selftest": "",
}
VACUUM_Q_TOL = 1e-8
FIELD_EQUATION_TOL = 1e-10
RESIDUE_ROUTE_TOL = 1e-12
LOOP_CLOSEDNESS_TOL = 1e-8
# at most 2.2e-16 on every preset, 6.6e-11 at --tol-path 1e-3; a 1e-8
# relative error in a preset parameter of the integrand reads >= 1.8e-10
CONFORMAL_CONSTANT_TOL = 1e-10
# rows per block of the CSV writer; bounds what a block holds at once, its
# byte matrix and the %.17g kernel's arrays: 5.4 MB at the peak for eight
# float columns of distinct values, and 7.5 MB of traced peak for a whole
# 201x201 point-source Ernst call.  On those CSVs 1024 rows held 3.5 MB
# but wrote 10-17% slower, and 512 rows 18-26% slower still
CSV_BLOCK_ROWS = 2048
# smallest trunc at which `birkhoff --preset random --count 1000` passes for
# every rng seed 0-9 at the default strength; at 15 three seeds fail
# round_trip_residual, and at 8-14 every seed fails it or tail_mass
RANDOM_TRUNC_MIN = 16
# (largest |strength|, smallest trunc), measured the same way: every seed
# passes from that trunc on (checked up to 32 at 0.8 and 1.0) and some seed
# fails one below it.  Above the last strength its trunc still applies, as
# a necessary bound that no run has shown to suffice.
RANDOM_TRUNC_BY_STRENGTH = ((0.5, RANDOM_TRUNC_MIN), (0.7, 17), (0.9, 18),
                            (1.0, 19), (1.5, 21), (2.0, 24))


class ConfigError(Exception):
    """Invalid experiment configuration; maps to exit code 3."""


@dataclass
class Check:
    """One named invariant with its measured value and threshold."""

    name: str
    value: float
    threshold: float
    op: str = "le"

    @property
    def passed(self) -> bool:
        if self.op == "le":
            return self.value <= self.threshold
        return self.value >= self.threshold


@dataclass
class ExperimentConfig:
    pipeline: str
    preset: str = ""
    seed_file: str = ""
    grid: str = ""
    trunc: int = DEFAULT_ORDER
    out: str = ""
    threads: int = 1
    tol_factor: float = FACTOR_TOL
    tol_path: float | None = None
    tol_residual: float = 2e-2
    tol_headline: float = 1e-4
    rng_seed: int = 0
    count: int = 100
    strength: float = 0.5

    def resolved_tol_path(self) -> float:
        if self.tol_path is not None:
            return self.tol_path
        return (ernst.PATH_TOL if self.pipeline == "ernst"
                else kdv.CROSSCHECK_TOL)

    def resolved_preset(self) -> tuple[str, dict]:
        text = self.preset or DEFAULT_PRESETS[self.pipeline]
        return _parse_preset(text)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        (xa, xb, nx), (ya, yb, ny) = self.grid_spec()
        return np.linspace(xa, xb, nx), np.linspace(ya, yb, ny)

    def grid_spec(self):
        text = self.grid or DEFAULT_GRIDS.get(self.pipeline, "")
        parts = text.split(",")
        if len(parts) == 1:
            parts = parts * 2
        if len(parts) != 2:
            raise ConfigError(f"grid '{text}' needs 1 or 2 min:max:count axes")
        spans = []
        for part in parts:
            bits = part.split(":")
            if len(bits) != 3:
                raise ConfigError(f"grid axis '{part}' is not min:max:count")
            try:
                lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
            except ValueError as err:
                raise ConfigError(f"grid axis '{part}': {err}") from None
            if hi <= lo:
                raise ConfigError(f"grid axis '{part}' must have min < max")
            if n < 2:
                raise ConfigError(f"grid axis '{part}' needs at least 2 nodes")
            spans.append((lo, hi, n))
        return spans

    def _check_finite(self):
        """Every float setting, grid bound and preset parameter is finite:
        NaN passes every comparison below, and inf reaches the numerics."""
        values = {name: getattr(self, name)
                  for name, (kind, _, _) in _SETTINGS.items()
                  if kind is float and getattr(self, name) is not None}
        if self.pipeline in _SETTINGS["grid"][1]:
            for axis, (lo, hi, _) in enumerate(self.grid_spec(), 1):
                values[f"grid axis {axis} min"] = lo
                values[f"grid axis {axis} max"] = hi
        values.update((f"preset {key}", val)
                      for key, val in self.resolved_preset()[1].items())
        bad = [name for name, val in values.items() if not np.isfinite(val)]
        if bad:
            raise ConfigError(f"non-finite value for {', '.join(bad)}")

    def validate(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"unknown pipeline '{self.pipeline}'")
        default = ExperimentConfig(self.pipeline)
        ignored = [name for name, (_, readers, _) in _SETTINGS.items()
                   if self.pipeline not in readers
                   and getattr(self, name) != getattr(default, name)]
        if ignored:
            raise ConfigError(
                f"{self.pipeline} does not take {', '.join(ignored)}")
        self._check_finite()
        if self.trunc < 1:
            raise ConfigError("truncation order must be >= 1")
        for name in ("tol_factor", "tol_residual", "tol_headline"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.tol_path is not None and self.tol_path <= 0:
            raise ConfigError("tol_path must be positive")
        if self.threads != 1:
            raise ConfigError(
                f"threads = {self.threads}: tauforge runs on one thread, "
                "so only threads = 1 is accepted")
        if self.count < 1:
            raise ConfigError("loop count must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")
        if self.pipeline == "kdv":
            for axis, (_, _, n), least in zip("xt", self.grid_spec(),
                                              kdv.MIN_NODES):
                if n < least:
                    raise ConfigError(
                        f"kdv grids need {axis} counts >= {least}")
        if self.pipeline == "ernst":
            spans = self.grid_spec()
            if min(n for _, _, n in spans) < 7:
                raise ConfigError("residual pipelines need grid counts >= 7")
            if spans[0][0] <= 0:
                raise ConfigError("ernst grid must stay in the r > 0 half plane")
        name, params = self.resolved_preset()
        if (self.pipeline, name) not in _PRESETS:
            raise ConfigError(
                f"unknown preset '{name}' for pipeline {self.pipeline}")
        builder = _PRESETS[self.pipeline, name]
        allowed = (set(inspect.signature(builder).parameters) - {"order"}
                   if builder else set())
        for key in params:
            if key not in allowed:
                raise ConfigError(
                    f"preset '{name}' does not take parameter '{key}'")
        if name == "one_pole" and "pole" in params \
                and not 0 < abs(params["pole"]) < 1:
            raise ConfigError("one_pole needs a nonzero pole inside the unit disc")
        if (self.pipeline, name) == ("birkhoff", "random"):
            bound = next((trunc for top, trunc in RANDOM_TRUNC_BY_STRENGTH
                          if abs(self.strength) <= top),
                         RANDOM_TRUNC_BY_STRENGTH[-1][1])
            if self.trunc < bound:
                raise ConfigError(
                    f"random loops at strength {self.strength:g} need "
                    f"trunc >= {bound}: below it their round trip fails")


# (pipeline, preset) -> builder, or None where the runner builds its own
# input; a preset takes its builder's keywords but order, which is --trunc
_PRESETS = {
    ("kdv", "vacuum"): kdv.seed_vacuum,
    ("kdv", "one_pole"): kdv.seed_one_pole,
    ("ernst", "flat"): ernst.flat,
    ("ernst", "kasner"): ernst.kasner,
    ("ernst", "point_source"): ernst.point_source,
    ("ernst", "non_solution"): ernst.non_solution,
    ("birkhoff", "random"): None,
    ("birkhoff", "twist"): None,
    ("selftest", ""): None,
}


def _parse_preset(text: str) -> tuple[str, dict]:
    name, _, tail = text.partition(":")
    params = {}
    if tail:
        for piece in tail.split(","):
            key, sep, val = piece.partition("=")
            if not sep:
                raise ConfigError(f"preset parameter '{piece}' is not key=value")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise ConfigError(
                    f"preset parameter '{piece}' has a non-numeric value") from None
    return name.strip(), params


# setting -> (type, the pipelines that read it, help of its flag); a
# pipeline rejects any other setting away from its default
_SETTINGS = {
    "preset": (str, ("kdv", "ernst", "birkhoff"),
               "preset name, e.g. kasner:a=0.7"),
    "grid": (str, ("kdv", "ernst"), "min:max:count[,min:max:count]"),
    "trunc": (int, ("kdv", "birkhoff"), "Fourier truncation order N"),
    "out": (str, PIPELINES, "directory for CSV and manifest"),
    "threads": (int, PIPELINES,
                "accepted for compatibility; tauforge runs on one thread, "
                "so only 1 is valid"),
    "tol_factor": (float, ("kdv", "birkhoff"),
                   "factorization residual tolerance"),
    "tol_path": (float, ("kdv", "ernst"),
                 "ernst: path refinement tolerance; kdv: per-cell bound of "
                 "the contour cross-check"),
    "tol_residual": (float, ("kdv",), "PDE residual tolerance"),
    "tol_headline": (float, ("kdv",), "d log tau vs q mismatch tolerance"),
    "rng_seed": (int, ("birkhoff", "selftest"), "random generator seed"),
    "count": (int, ("birkhoff",), "birkhoff batch size"),
    "strength": (float, ("birkhoff",), "random tangent amplitude"),
}


def load_seed_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; keys mirror the flags."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read seed file {path}: {err}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            values[key] = _SETTINGS[key][0](val.strip())
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad value for '{key}'") from None
    return values


# -- pipelines -----------------------------------------------------------


def _residual_telemetry(residuals, tol):
    """(worst reconstruction residual, tol over it, near misses).

    The margin says how far the worst loop is from failing (inf when it is
    exact); a near miss is a loop that passed within a factor 10 of tol.
    """
    worst = float(residuals.max())
    margin = tol / worst if worst > 0 else float("inf")
    return worst, margin, int(((residuals > tol / 10) & (residuals <= tol)).sum())


def _run_kdv(config: ExperimentConfig):
    name, params = config.resolved_preset()
    seed = _PRESETS["kdv", name](order=config.trunc, **params)
    xs, ts = config.axes()
    grid = kdv.tau_grid(seed, xs, ts, order=config.trunc,
                        factor_tol=config.tol_factor)
    tol_path = config.resolved_tol_path()
    crosscheck, points = kdv.path_crosscheck(grid)

    fd = derivative(grid.log_tau, xs, 1)
    headline = float(np.abs(fd - grid.q).max())

    # tau_grid raises on a node off the big cell, so coverage is full; the
    # check stays first and the CSV keeps its bigcell column, as manifest
    # readers and the documented header expect them
    checks = [
        Check("bigcell_coverage", 0.0, 0.0),
        Check("logtau_q_consistency", headline, config.tol_headline),
        Check("logtau_path_crosscheck", crosscheck, tol_path),
    ]
    if name == "vacuum":
        checks.append(Check("vacuum_max_q",
                            float(np.abs(grid.q).max()), VACUUM_Q_TOL))
    checks.append(Check("pde_residual",
                        kdv.kdv_residual(grid), config.tol_residual))

    worst, margin, near_misses = _residual_telemetry(grid.factor_residuals,
                                                     config.tol_factor)
    header = ["x", "t", "re_log_tau", "im_log_tau", "re_q", "re_u", "bigcell"]
    columns = [*np.meshgrid(xs, ts, indexing="ij"), grid.log_tau.real,
               grid.log_tau.imag, grid.q.real, grid.u.real,
               np.ones(grid.q.shape, dtype=bool)]
    extra = {
        "seed": {"label": seed.label, **params},
        "summary": {
            "max_abs_q": float(np.nanmax(np.abs(grid.q))),
            "max_abs_u": float(np.nanmax(np.abs(grid.u))),
        },
        "telemetry": {
            "points_factored": grid.points_factored,
            "min_abs_det_on_path": grid.min_abs_det,
            "crosscheck_points": {"x": points[0], "t": points[1]},
            "worst_factor_residual": worst,
            "factor_residual_margin": margin,
            "near_misses": near_misses,
        },
    }
    return checks, header, columns, extra


def _run_ernst(config: ExperimentConfig):
    name, params = config.resolved_preset()
    sol = _PRESETS["ernst", name](**params)
    rs, zs = config.axes()
    field = ernst.logtau_field(sol, rs, zs,
                               tol_path=config.resolved_tol_path())
    residuals = np.atleast_1d(ernst.field_residual(sol, field.r, field.z))
    z_sample = zs[:: max(1, len(zs) // 6)]
    residue_worst = max(ernst.residue_check(sol, r, z_sample)
                        for r in rs[:: max(1, len(rs) // 6)])
    loop = ernst.rectangle_loop_integral(field)

    checks = [
        Check("field_equations", float(residuals.max()), FIELD_EQUATION_TOL),
        Check("residue_route", float(residue_worst), RESIDUE_ROUTE_TOL),
        Check("loop_closedness", abs(loop), LOOP_CLOSEDNESS_TOL),
        Check("conformal_constant", ernst.conformal_factor_check(sol, field),
              CONFORMAL_CONSTANT_TOL),
    ]

    header = ["r", "z", "log_tau", "dlogtau_w_re", "dlogtau_w_im",
              "field_residual"]
    columns = [field.r, field.z, field.log_tau, field.dlogtau_w.real,
               field.dlogtau_w.imag, residuals]
    extra = {
        "solution": {"label": sol.label, **params},
        "telemetry": {
            "points": int(field.log_tau.size),
            "logtau_levels": field.levels,
            "logtau_final_change": field.final_change,
        },
    }
    return checks, header, columns, extra


def _twist_loop(order: int) -> MatrixLoop:
    return MatrixLoop.from_modes({1: np.diag([1, 0]), -1: np.diag([0, 1])},
                                 order=order)


def _run_birkhoff(config: ExperimentConfig):
    name, _ = config.resolved_preset()
    if name == "twist":
        # diag(lambda, 1/lambda) sits outside the big cell by design
        factorize(_twist_loop(config.trunc), tol=config.tol_factor)
        raise NumericalInvariantError(
            "the twist loop diag(lambda, 1/lambda) factored: big-cell "
            "detection missed it")

    # each block of loops is factored as it is made; only the residuals
    # and ok flags outlive it, so memory does not grow with the count
    residuals, ok = random_unimodular_blocks(
        np.random.default_rng(config.rng_seed), config.count,
        lambda coeffs: factorize_batch(coeffs, tol=config.tol_factor)[2:],
        order=config.trunc, amplitude=config.strength)

    worst, margin, near_misses = _residual_telemetry(residuals,
                                                     config.tol_factor)
    checks = [
        Check("round_trip_residual", worst, config.tol_factor),
        Check("big_cell_fraction", float((~ok).mean()), 0.0),
    ]
    extra = {
        "telemetry": {
            "not_ok": int((~ok).sum()),
            "residual_margin": margin,
            "near_misses": near_misses,
        },
    }
    return (checks, ["index", "residual"],
            [np.arange(len(residuals)), residuals], extra)


# runs whose checks selftest makes as <pipeline>_<preset>.<check>; the ernst
# grid reaches from r = 0.3, near the axis, out to r = 2.7
SELFTEST_CONFIGS = (
    ExperimentConfig("birkhoff", preset="random", count=20),
    ExperimentConfig("kdv", preset="vacuum", grid="-0.5:0.5:21"),
    ExperimentConfig("kdv", preset="one_pole", grid="-0.5:0.5:21"),
    *(ExperimentConfig("ernst", preset=preset, grid="0.3:2.7:7,-0.4:1.1:7")
      for preset in ("kasner:a=0.7", "point_source")),
)


def _run_selftest(config: ExperimentConfig):
    """Identities no pipeline checks, then the checks of SELFTEST_CONFIGS."""
    rng = np.random.default_rng(config.rng_seed)
    checks = []

    loop = random_unimodular_loop(rng)
    vals = multiply(loop, inverse(loop)).samples()
    checks.append(Check("loop_inverse_round_trip",
                        float(np.abs(vals - np.eye(2)).max()), 1e-10))

    try:
        factorize(_twist_loop(DEFAULT_ORDER))
        missed = 1.0
    except BigCellError:
        missed = 0.0
    checks.append(Check("big_cell_detected", missed, 0.0))

    a = np.array([[0.3, 0.1], [-0.2, 0.4]])
    u = monomial(1, a, order=8)
    v = monomial(-1, a, order=8)
    expected = -1j * np.trace(a @ a)
    checks.append(Check("cocycle_identity",
                        abs(cocycle(u, v) - expected), 1e-12))

    gamma = random_unimodular_loop(rng)
    du = random_tangent(rng)
    dv = random_tangent(rng)
    a1 = abs(poisson_anomaly(gamma, du, dv, 1e-3))
    a2 = abs(poisson_anomaly(gamma, du, dv, 5e-4))
    checks.append(Check("poisson_anomaly_order", a1 / max(a2, 1e-300),
                        3.0, op="ge"))

    coeff, pole = ernst_frame(0.7, "wbar")
    checks.append(Check("ernst_frame_residue",
                        abs(coeff.residue(pole) - 1j / 0.7), 1e-13))

    worst = 0.0
    for a_k in (0.0, 0.3, 0.7, 1.2):
        sol = ernst.kasner(a_k)
        for r in (0.5, 1.0, 2.3):
            dw = ernst.dlogtau(sol, r, 0.2, "w")
            dwb = ernst.dlogtau(sol, r, 0.2, "wbar")
            worst = max(worst, abs(1j * (dw - dwb) - (1 + a_k ** 2) / (2 * r)))
    checks.append(Check("ernst_kasner_radial", worst, 1e-10))

    for sub in SELFTEST_CONFIGS:
        prefix = f"{sub.pipeline}_{sub.resolved_preset()[0]}."
        checks += [Check(prefix + c.name, c.value, c.threshold, c.op)
                   for c in _DISPATCH[sub.pipeline](sub)[0]]
    return checks, None, None, {}


_DISPATCH = {
    "kdv": _run_kdv,
    "ernst": _run_ernst,
    "birkhoff": _run_birkhoff,
    "selftest": _run_selftest,
}

# exception a pipeline raises -> (check its [FAIL] line names, exit code);
# run takes the first entry the exception is an instance of, so a
# PathCrossesBadCellError is a BigCellError here
_FAILURES = {
    BigCellError: ("big_cell_required_node", EXIT_BIG_CELL),
    PathRefinementError: ("path_refinement", EXIT_CHECK_FAILED),
    TailMassError: ("tail_mass", EXIT_CHECK_FAILED),
    NumericalInvariantError: ("numerical_invariant", EXIT_CHECK_FAILED),
}


# -- artifacts -----------------------------------------------------------


def _manifest(config: ExperimentConfig, checks, extra, csv_name, elapsed,
              exit_code) -> dict:
    name, params = config.resolved_preset()
    # a setting the pipeline does not read is recorded as None
    reads = {key for key, (_, readers, _) in _SETTINGS.items()
             if config.pipeline in readers}
    return {
        "pipeline": config.pipeline,
        "preset": name,
        "preset_params": params,
        "seed_file": config.seed_file,
        "grid": ([list(span) for span in config.grid_spec()]
                 if "grid" in reads else None),
        "trunc": config.trunc if "trunc" in reads else None,
        "samples": (default_sample_count(config.trunc)
                    if "trunc" in reads else None),
        "threads": 1,  # kept in the fixed key set; runs are single-threaded
        "tolerances": {
            key: value if f"tol_{key}" in reads else None
            for key, value in {"factor": config.tol_factor,
                               "path": config.resolved_tol_path(),
                               "residual": config.tol_residual,
                               "headline": config.tol_headline}.items()},
        "rng_seed": config.rng_seed if "rng_seed" in reads else None,
        "count": config.count if "count" in reads else None,
        "strength": config.strength if "strength" in reads else None,
        "versions": {
            "tauforge": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "checks": [{"name": c.name, "value": float(c.value),
                    "threshold": float(c.threshold), "op": c.op,
                    "pass": c.passed} for c in checks],
        "extra": extra,
        "csv": csv_name,
        "elapsed_seconds": round(elapsed, 3),
        "exit_code": exit_code,
    }


# longest '%.17g' text of a float64, as in '-1.2345678901234567e-308'
F17_WIDTH = 24
# decimal exponents e = floor(log10 |x|) of float64 values, with one more
# at each end for the kernel's off-by-one fix
_EXP_LO, _EXP_HI = -325, 309
# offsets in the kernel's 32-byte source row: digit j of the 17 at 3 + j
# (bytes 0-2 are '0'), the 3-digit |exponent| at 21-23, then constants
_DIGIT0, _EXP3, _MINUS, _DOT, _E, _PLUS, _NUL = 3, 21, 24, 25, 26, 27, 28
# layout classes: fixed notation for exponents -4..16, then scientific
# with 'e+dd', 'e+ddd', 'e-dd' and 'e-ddd'
_FIXED_CLASSES = 21
_CLASSES = _FIXED_CLASSES + 4


def _f17_class(exp: int) -> int:
    """Layout class of the values '%.17g' prints with decimal exponent exp."""
    if -4 <= exp < 17:
        return exp + 4
    return _FIXED_CLASSES + (abs(exp) >= 100) + 2 * (exp < 0)


def _f17_template(neg: bool, cls: int, digits: int) -> list[int]:
    """Source-row offsets spelling '%.17g' of a value with the given sign,
    layout class and count of significant digits, padded with _NUL."""
    d = [_DIGIT0 + j for j in range(17)]
    out = [_MINUS] if neg else []
    if cls < _FIXED_CLASSES:
        exp = cls - 4
        if exp < 0:
            out += [0, _DOT] + [0] * (-exp - 1) + d[:digits]
        else:
            out += d[:exp + 1]
            if digits > exp + 1:
                out += [_DOT] + d[exp + 1:digits]
    else:
        big, minus = (cls - _FIXED_CLASSES) % 2, cls - _FIXED_CLASSES >= 2
        out += d[:1] + ([_DOT] + d[1:digits] if digits > 1 else [])
        out += [_E, _MINUS if minus else _PLUS]
        out += list(range(_EXP3 + 1 - big, _EXP3 + 3))
    return out + [_NUL] * (F17_WIDTH - len(out))


@functools.cache
def _f17_powers():
    """(powers, rel_err, tolerance), indexed by e - _EXP_LO.

    powers holds long double 10^(16 - e), correctly rounded by the C
    library's strtold.  rel_err is the relative error the certificate
    assumes of it: none where 10^s = 5^s 2^s fits the significand, else u,
    half an ulp.  With one more rounding, of the product, a scaled value y
    lies within y (u + rel_err) (1 + 5u) of the exact one.  tolerance holds
    (u + rel_err) (1 + 2^-20) as float64, whose slack also covers taking
    the 17-digit n for y and the float64 roundings of the bound.
    """
    eps = np.finfo(np.longdouble).eps
    nmant = np.finfo(np.longdouble).nmant
    exps = range(_EXP_LO, _EXP_HI + 1)
    with np.errstate(over="ignore"):
        powers = np.array([np.longdouble(f"1e{16 - e}") for e in exps])
    exact = [e <= 16 and 5 ** (16 - e) < 2 ** (nmant + 1) for e in exps]
    rel_err = np.where(exact, 0, eps / 2).astype(np.longdouble)
    tolerance = ((eps / 2 + rel_err) * (1 + 2.0 ** -20)).astype(np.float64)
    return powers, rel_err, tolerance


@functools.cache
def _f17_layout():
    """(keys, groups, zeros, templates).

    keys[e - _EXP_LO] is 18 times the layout class of e.  groups[v] is
    v < 10^4 as four ASCII digits in a uint32 and zeros[v] counts their
    trailing zeros.  templates[(neg * _CLASSES + cls) * 18 + digits] is
    _f17_template(neg, cls, digits).
    """
    keys = np.array([18 * _f17_class(e) for e in range(_EXP_LO, _EXP_HI + 1)])
    v = np.arange(10 ** 4)
    text = np.empty((10 ** 4, 4), dtype=np.uint8)
    zeros = np.zeros(10 ** 4, dtype=np.uint8)
    for j in range(4):
        text[:, 3 - j] = v // 10 ** j % 10 + ord("0")
        zeros[::10 ** (j + 1)] += 1
    templates = np.empty((2 * _CLASSES * 18, F17_WIDTH), dtype=np.uint8)
    for key, row in enumerate(itertools.product((0, 1), range(_CLASSES),
                                                range(18))):
        templates[key] = _f17_template(*row)
    return keys, text.view(np.uint32).ravel(), zeros, templates


# built at import, before any run: built by the first CSV write, in among
# a run's freed arrays, they raised the peak RSS of repeated kdv runs by
# about 0.6 MB
_f17_powers()
_f17_layout()


def _f17_scale(x):
    """(n, at, certified) for a float64 array x: n the 17 significant
    digits of |x| as an integer, at = e - _EXP_LO for its decimal exponent
    e, and whether the pair is proven to be what '%.17g' prints.

    |x| is scaled by 10^(16 - e), e = floor(log10 |x|), in long double and
    rounded to n.  The pair is certified when the error bound of the scaled
    value stays clear of the half-way points around it and
    10^16 < n < 10^17: a certified n then lies strictly inside the decade
    (10^17 - 1/2 is itself a half-way point), so e is the exponent '%g'
    prints.  Zeros and non-finite values are never certified; where long
    double is float64 the bound always exceeds 1/2 and nothing is.
    """
    powers, _, tolerance = _f17_powers()
    mag = np.abs(x)
    regular = np.isfinite(mag) & (mag > 0)
    mag = np.where(regular, mag, 1.0)
    at = np.floor(np.log10(mag)).astype(np.intp) - _EXP_LO
    mag = mag.astype(np.longdouble)
    # a long double as narrow as float64 overflows at the ends of the
    # range, and the values there are then not certified
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = mag * powers[at]
        rounded = np.rint(scaled)
        n = rounded.astype(np.int64)
        # log10 may miss the decade by one next to a power of ten
        off = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
        if off.size:
            at[off] += np.where(n[off] < 10 ** 16, -1, 1)
            scaled[off] = mag[off] * powers[at[off]]
            rounded[off] = np.rint(scaled[off])
            n[off] = rounded[off].astype(np.int64)
    # |scaled - rounded| <= 1/2 is exact in long double; the float64 sum
    # errs by far less than the 2^-30 margin
    clearance = np.abs((scaled - rounded).astype(np.float64))
    clearance += n * tolerance[at]
    certified = (clearance < 0.5 - 2.0 ** -30) & regular \
        & (n > 10 ** 16) & (n < 10 ** 17)
    return n, at, certified


def _format_f17(values) -> np.ndarray:
    """'%.17g' % v for each v of a float64 array, as a zero-padded
    (len(values), F17_WIDTH) uint8 matrix.

    Each certified value of _f17_scale is spelled from its digits and
    exponent by the template of its sign, layout class and count of
    significant digits; the others are formatted by '%.17g' itself.
    """
    keys, groups, zeros, templates = _f17_layout()
    x = np.asarray(values, dtype=np.float64)
    n, at, certified = _f17_scale(x)
    # the 17 digits in groups of 1, 4, 4, 4 and 4; every index below stays
    # in its table whatever n is
    hi = n // 10 ** 8
    lo = (n - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    h1, l1 = hi // 10 ** 4, lo // 10 ** 4
    h2, l2 = hi - h1 * 10 ** 4, lo - l1 * 10 ** 4
    src = np.empty((len(x), 8), dtype=np.uint32)
    for j, group in enumerate((lead, h1, h2, l1, l2, np.abs(at + _EXP_LO))):
        src[:, j] = groups.take(group)
    src[:, 6] = np.frombuffer(b"-.e+", dtype=np.uint32)[0]
    src[:, 7] = 0
    trailing = zeros.take(l2) + (l2 == 0) * (zeros.take(l1) + (l1 == 0) * (
        zeros.take(h2) + (h2 == 0) * zeros.take(h1)))
    key = keys[at] + (x < 0) * (_CLASSES * 18) + (17 - trailing)
    index = np.take(templates, key, axis=0).astype(np.intp)
    index += np.arange(0, src.nbytes, src.itemsize * 8)[:, None]
    out = np.take(src.view(np.uint8), index)

    rest = np.flatnonzero(~certified)
    if rest.size:
        out[rest] = np.array(["%.17g" % v for v in x[rest].tolist()],
                             dtype=f"S{F17_WIDTH}").view(np.uint8) \
            .reshape(-1, F17_WIDTH)
    return out


def _write_csv(path, header, columns):
    """Write columns as CSV under a one-line header.

    The bytes are those numpy's savetxt writes for column_stack(columns)
    with delimiter ",", header ",".join(header) and comments "", printing
    bool and integer columns as %d and the rest as %.17g, which
    round-trips every float64; a complex column raises ValueError.

    Rows go out in blocks of CSV_BLOCK_ROWS, and within a block each
    distinct value of a column is formatted once, since grid tables repeat
    their values: the distinct floats of all columns in one _format_f17
    call, integers by Python's %d.  Floats are told apart by their bits, so
    -0.0 and 0.0 (printed -0 and 0) never share a text.  The block is then
    one byte matrix, a zero-padded text and its comma per cell, written
    with the zero bytes dropped.
    """
    cols = [np.ravel(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("CSV columns differ in length")
    # column_stack casts every value to the common dtype before it prints
    common = np.result_type(*cols)
    if common.kind not in "biuf":
        raise ValueError(f"cannot write {common} columns as CSV")
    floats = common.kind == "f"
    if floats:
        # %.17g prints any float through float64, so the cast changes no text
        common = np.dtype(np.float64)
    # float columns first, so that their distinct values lie together
    order = sorted(range(len(cols)), key=lambda j: cols[j].dtype.kind in "biu")
    n_float = sum(c.dtype.kind not in "biu" for c in cols)
    position = np.argsort(order)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(cols[0]), CSV_BLOCK_ROWS):
            block = np.stack([cols[j][start:start + CSV_BLOCK_ROWS]
                              for j in order], dtype=common)
            keys = block.view(np.int64) if floats else block
            # each column sorted, as flat indices into the block
            sort = np.argsort(keys, axis=1)
            sort += np.arange(0, block.size, block.shape[1])[:, None]
            ranked = np.take(keys, sort)
            new = np.ones(block.shape, dtype=bool)
            np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new[:, 1:])
            # the distinct values of every column, numbered in one sequence
            inverse = np.empty(block.size, dtype=np.intp)
            inverse[sort.ravel()] = np.cumsum(new) - 1
            distinct = ranked[new].view(common)
            split = np.count_nonzero(new[:n_float])
            texts = np.empty((len(distinct), F17_WIDTH + 1), dtype=np.uint8)
            texts[:, -1] = ord(",")
            texts[:split, :-1] = _format_f17(distinct[:split])
            # '%d' of an integer column, even cast to float64, is at most
            # 20 characters
            texts[split:, :-1] = np.array(
                ["%d" % v for v in distinct[split:].tolist()],
                dtype=f"S{F17_WIDTH}").view(np.uint8).reshape(-1, F17_WIDTH)
            rows = inverse.reshape(block.shape)[position].T
            mat = np.take(texts, rows, axis=0)
            mat[:, -1, -1] = ord("\n")
            fh.write(mat[mat != 0].tobytes())


def run(config: ExperimentConfig) -> int:
    start = time.perf_counter()
    try:
        config.validate()
    except ConfigError as err:
        print(f"configuration error: {err}")
        return EXIT_CONFIG

    try:
        checks, header, columns, extra = _DISPATCH[config.pipeline](config)
    except tuple(_FAILURES) as err:
        check, code = next(entry for kind, entry in _FAILURES.items()
                           if isinstance(err, kind))
        print(f"[FAIL] {check}: {err}")
        return code

    elapsed = time.perf_counter() - start
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        rel = "<=" if c.op == "le" else ">="
        print(f"[{mark}] {c.name:<26} value {c.value:.3e} {rel} {c.threshold:.3e}")
    n_pass = sum(c.passed for c in checks)
    exit_code = EXIT_PASS if n_pass == len(checks) else EXIT_CHECK_FAILED

    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_name = None
        if columns is not None:
            csv_name = f"{config.pipeline}.csv"
            _write_csv(out_dir / csv_name, header, columns)
        manifest = _manifest(config, checks, extra, csv_name, elapsed,
                             exit_code)
        with open(out_dir / f"{config.pipeline}_manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(f"{config.pipeline}: {n_pass}/{len(checks)} checks passed "
          f"in {elapsed:.1f} s")
    return exit_code


# -- argument handling ---------------------------------------------------


def _preprocess(argv):
    """Glue '--grid -1:1:51' into '--grid=-1:1:51' so argparse keeps it."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--grid":
            nxt = next(it, None)
            out.append(tok if nxt is None else f"--grid={nxt}")
        else:
            out.append(tok)
    return out


@functools.cache  # parse_args leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauforge",
        description="tau-function experiments: factorization, KdV, Ernst")
    sub = parser.add_subparsers(dest="pipeline", required=True)
    helps = {
        "selftest": "run the cross-module invariant suite",
        "kdv": "KdV tau grid with PDE residual checks",
        "ernst": "Ernst closed-form tau field and conformal factor",
        "birkhoff": "random-loop factorization round trips",
    }
    for name in PIPELINES:
        p = sub.add_parser(name, help=helps[name])
        # unread flags still parse, for validate to name, but stay hidden
        for key, (kind, readers, text) in _SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           help=text if name in readers else argparse.SUPPRESS)
        p.add_argument("--seed-file", help="flat key=value config file")
    return parser


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if args.seed_file:
        values.update(load_seed_file(args.seed_file))
    for key in _SETTINGS:
        given = getattr(args, key, None)
        if given is not None:
            values[key] = given
    return ExperimentConfig(pipeline=args.pipeline,
                            seed_file=args.seed_file or "", **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_preprocess(argv))
    except SystemExit as stop:
        # argparse exits 2 on a bad flag; here 2 means a failed check
        return EXIT_PASS if stop.code in (0, None) else EXIT_CONFIG
    try:
        config = build_config(args)
    except ConfigError as err:
        print(f"configuration error: {err}")
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
