"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload yields one round of `tauforge` command lines.  The runner
repeats whole rounds, so every run attempts the same operations in the
same proportions.  A call writes its CSV and manifest under its own key,
and `check` compares what the last round left there with the references
in `reference.py`, which never call the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

KDV_LOGTAU_TOL = 1e-8      # path-integrated log tau vs the Toeplitz determinant
ERNST_LOGTAU_TOL = 1e-8    # path-integrated log tau vs the closed form
MODE_TOL = 1e-12           # modes a factor must not carry, and g_minus mode 0 - I
DET_TOL = 1e-10            # det gamma - 1 at off-grid circle points


@dataclass(frozen=True)
class Call:
    """One pipeline call: its output key, command line and useful items."""

    key: str
    argv: list
    items: int


def manifest_failures(out_dir: Path, pipeline: str) -> list:
    """Every manifest check must pass and the run must have exited 0."""
    path = out_dir / f"{pipeline}_manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        return [f"{path.name}: unreadable ({err})"]
    failures = [f"{path.name}: check {c['name']} failed "
                f"({c['value']:.3e} vs {c['threshold']:.3e})"
                for c in manifest["checks"] if not c["pass"]]
    if manifest["exit_code"] != 0:
        failures.append(f"{path.name}: exit code {manifest['exit_code']}")
    return failures


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _grid_failures(data, axis_a, axis_b, what) -> list:
    ga, gb = np.meshgrid(axis_a, axis_b, indexing="ij")
    if data.shape[0] != ga.size:
        return [f"{what}: {data.shape[0]} rows, expected {ga.size}"]
    if not (np.array_equal(data[:, 0], ga.ravel())
            and np.array_equal(data[:, 1], gb.ravel())):
        return [f"{what}: node coordinates differ from the requested grid"]
    return []


def _axes(spec: str):
    return [np.linspace(float(lo), float(hi), int(n))
            for lo, hi, n in (part.split(":") for part in spec.split(","))]


class KdvWide:
    """One-pole KdV on x in [-1, 1], where path refinement goes deepest.

    The seed moves the pole and its strength a little; the refinement
    levels, and so the work per call, stay the same over that range.
    """

    name = "kdv_wide"

    def __init__(self, seed: int, grid: str = "-1:1:41,-0.15:0.15:7",
                 sample_x: int = 7):
        rng = np.random.default_rng(seed)
        self.pole = round(0.23 + 0.04 * rng.random(), 4)
        self.strength = round(0.31 + 0.04 * rng.random(), 4)
        self.grid = grid
        self.xs, self.ts = _axes(grid)
        # rows checked against the determinant: sample_x x-columns, every t
        cols = np.sort(rng.choice(len(self.xs), sample_x, replace=False))
        self.sample_rows = (cols[:, None] * len(self.ts)
                            + np.arange(len(self.ts))[None, :]).ravel()

    def calls(self, out_root: Path) -> list:
        argv = ["kdv", "--preset",
                f"one_pole:pole={self.pole},strength={self.strength}",
                f"--grid={self.grid}", "--threads", "1",
                "--out", str(out_root / "kdv")]
        return [Call("kdv", argv, len(self.xs) * len(self.ts))]

    def check(self, program, out_root: Path) -> list:
        out = out_root / "kdv"
        failures = manifest_failures(out, "kdv")
        data = read_csv(out / "kdv.csv")
        failures += _grid_failures(data, self.xs, self.ts, "kdv.csv")
        if failures:
            return failures
        rows = data[self.sample_rows]
        ref = reference.kdv_log_tau(rows[:, 0], rows[:, 1],
                                    self.pole, self.strength)
        err = reference.wrapped_error(rows[:, 2] + 1j * rows[:, 3], ref)
        if not err <= KDV_LOGTAU_TOL:
            failures.append(f"kdv.csv: log tau differs from -log det T_N "
                            f"by {err:.3e} > {KDV_LOGTAU_TOL:.0e}")
        return failures


class BirkhoffBatch:
    """Random unimodular loops, generated and factored in one batch.

    The seed is the program's --rng-seed; every loop costs the same, so
    the work per call does not depend on it.
    """

    name = "birkhoff_batch"

    def __init__(self, seed: int, count: int = 1000, sample: int = 12):
        self.seed = seed
        self.count = count
        rng = np.random.default_rng([seed, 1])
        self.sample = np.sort(rng.choice(count, min(sample, count),
                                         replace=False))
        # off-grid circle points for the Laurent evaluation
        self.lam = np.exp(2j * np.pi * (np.arange(61) + rng.uniform(0.1, 0.9))
                          / 61)

    def calls(self, out_root: Path) -> list:
        argv = ["birkhoff", "--preset", "random", "--count", str(self.count),
                "--rng-seed", str(self.seed),
                "--out", str(out_root / "birkhoff")]
        return [Call("birkhoff", argv, self.count)]

    def check(self, program, out_root: Path) -> list:
        out = out_root / "birkhoff"
        failures = manifest_failures(out, "birkhoff")
        if failures:
            return failures
        manifest = json.loads((out / "birkhoff_manifest.json").read_text())
        tol = manifest["tolerances"]["factor"]
        data = read_csv(out / "birkhoff.csv")
        if not np.array_equal(data[:, 0], np.arange(self.count)):
            return ["birkhoff.csv: index column is not 0..count-1"]
        worst = float(np.max(data[:, 1]))
        if not worst <= tol:
            failures.append(f"birkhoff.csv: residual {worst:.3e} > {tol:.0e}")
        gamma = self.loops(program, manifest)
        g_minus, g_plus, _, ok = program.factorize_batch(
            gamma, manifest["samples"], tol)
        if not ok.all():
            failures.append("factorize_batch flagged a sampled loop off the big cell")
        return failures + factor_failures(gamma, g_minus, g_plus, self.lam, tol)

    def loops(self, program, manifest) -> np.ndarray:
        """The sampled loops, regenerated from the seed as the CLI draws them."""
        rng = np.random.default_rng(manifest["rng_seed"])
        drawn = [program.random_unimodular_loop(
            rng, order=manifest["trunc"], amplitude=manifest["strength"]).coeffs
            for _ in range(self.sample[-1] + 1)]
        return np.stack([drawn[i] for i in self.sample])


def factor_failures(gamma, g_minus, g_plus, lam, tol) -> list:
    """gamma = g_minus g_plus^-1 off the grid, mode supports, and det gamma = 1."""
    errors = reference.birkhoff_factor_errors(gamma, g_minus, g_plus, lam)
    limits = {"reconstruction": tol, "minus_positive_modes": MODE_TOL,
              "minus_mode0_identity": MODE_TOL, "plus_negative_modes": MODE_TOL,
              "det_gamma": DET_TOL}
    return [f"factors: {name} defect {errors[name]:.3e} > {limit:.0e}"
            for name, limit in limits.items() if not errors[name] <= limit]


class ErnstSweep:
    """Kasner and point-source presets on a fine (r, z) grid.

    The seed draws every preset parameter from a range on which the
    refinement levels, and so the work per call, stay the same.
    """

    name = "ernst_sweep"

    def __init__(self, seed: int, grid: str = "0.5:2:201,-0.5:0.5:201"):
        rng = np.random.default_rng(seed)
        self.grid = grid
        self.rs, self.zs = _axes(grid)
        self.presets = [("kasner", {"a": round(float(a), 4)})
                        for a in rng.uniform(0.5, 1.2, 3)]
        self.presets += [("point_source",
                          {"strength": round(float(s), 4),
                           "z0": round(float(z0), 4)})
                         for s, z0 in zip(rng.uniform(0.7, 0.8, 3),
                                          rng.uniform(-1.95, -1.8, 3))]

    def calls(self, out_root: Path) -> list:
        items = len(self.rs) * len(self.zs)
        calls = []
        for i, (kind, params) in enumerate(self.presets):
            text = ",".join(f"{k}={v}" for k, v in params.items())
            argv = ["ernst", "--preset", f"{kind}:{text}",
                    f"--grid={self.grid}", "--out", str(out_root / f"ernst{i}")]
            calls.append(Call(f"ernst{i}", argv, items))
        return calls

    def check(self, program, out_root: Path) -> list:
        failures = []
        for i, (kind, params) in enumerate(self.presets):
            out = out_root / f"ernst{i}"
            failures += manifest_failures(out, "ernst")
            data = read_csv(out / "ernst.csv")
            what = f"ernst{i}/ernst.csv ({kind})"
            grid = _grid_failures(data, self.rs, self.zs, what)
            if grid:
                failures += grid
                continue
            ref = reference.ernst_log_tau(kind, params, data[:, 0], data[:, 1])
            err = float(np.max(np.abs(data[:, 2] - ref)))
            if not err <= ERNST_LOGTAU_TOL:
                failures.append(f"{what}: log tau differs from the closed form "
                                f"by {err:.3e} > {ERNST_LOGTAU_TOL:.0e}")
        return failures


WORKLOADS = {cls.name: cls for cls in (KdvWide, BirkhoffBatch, ErnstSweep)}
