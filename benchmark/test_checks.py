"""The benchmark's own tests: every output check rejects a perturbed output.

Run from the root of the repository:

    python3 -m pytest benchmark/test_checks.py

Each test runs a small instance of a workload through tauforge.cli.main,
shows that the check accepts the real output, then perturbs one value and
shows that the check rejects it.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SMALL_KDV = "-0.4:0.4:11,-0.4:0.4:11"
program = run.load_program(ROOT)


def _run_calls(workload, out_root):
    for call in workload.calls(out_root):
        assert program.cli.main(call.argv) == 0


def _edit_csv(path, row, column, change):
    lines = path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = repr(change(float(fields[column])))
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _fail_first_manifest_check(path):
    manifest = json.loads(path.read_text())
    manifest["checks"][0]["pass"] = False
    path.write_text(json.dumps(manifest))


def test_kdv_check_rejects_perturbed_log_tau(tmp_path):
    wl = workloads.KdvWide(seed=3, grid=SMALL_KDV, sample_x=3)
    _run_calls(wl, tmp_path)
    csv = tmp_path / "kdv" / "kdv.csv"
    assert wl.check(program, tmp_path) == []

    # log tau is defined modulo 2 pi i
    row = int(wl.sample_rows[-1])
    _edit_csv(csv, row, 3, lambda v: v + 2 * np.pi)
    assert wl.check(program, tmp_path) == []

    _edit_csv(csv, row, 2, lambda v: v + 1e-7)
    assert any("log det" in f for f in wl.check(program, tmp_path))


def test_kdv_check_rejects_failed_manifest(tmp_path):
    wl = workloads.KdvWide(seed=3, grid=SMALL_KDV, sample_x=3)
    _run_calls(wl, tmp_path)
    _fail_first_manifest_check(tmp_path / "kdv" / "kdv_manifest.json")
    assert any("bigcell_coverage" in f for f in wl.check(program, tmp_path))


def test_birkhoff_check_rejects_large_residual(tmp_path):
    wl = workloads.BirkhoffBatch(seed=4, count=24, sample=4)
    _run_calls(wl, tmp_path)
    assert wl.check(program, tmp_path) == []
    _edit_csv(tmp_path / "birkhoff" / "birkhoff.csv", 5, 1, lambda v: 1e-6)
    assert any("residual" in f for f in wl.check(program, tmp_path))


@pytest.mark.parametrize("defect, perturb", [
    ("reconstruction", lambda g, m, p: (g, m, p * (1 + 1e-7))),
    ("minus_positive_modes", lambda g, m, p: (g, _add_mode(m, +1, 1e-9), p)),
    ("minus_mode0_identity", lambda g, m, p: (g, _add_mode(m, 0, 1e-9), p)),
    ("plus_negative_modes", lambda g, m, p: (g, m, _add_mode(p, -1, 1e-9))),
    ("det_gamma", lambda g, m, p: (g * (1 + 1e-6), m, p)),
])
def test_birkhoff_factor_checks_reject_perturbed_factors(tmp_path, defect, perturb):
    wl = workloads.BirkhoffBatch(seed=4, count=24, sample=4)
    _run_calls(wl, tmp_path)
    manifest = json.loads((tmp_path / "birkhoff" / "birkhoff_manifest.json").read_text())
    gamma = wl.loops(program, manifest)
    g_minus, g_plus, _, ok = program.factorize_batch(gamma, manifest["samples"])
    assert ok.all()
    assert workloads.factor_failures(gamma, g_minus, g_plus, wl.lam, 1e-9) == []
    failures = workloads.factor_failures(*perturb(gamma, g_minus, g_plus),
                                         wl.lam, 1e-9)
    assert any(defect in f for f in failures)


def _add_mode(coeffs, k, size):
    out = coeffs.copy()
    order = (out.shape[1] - 1) // 2
    out[:, order + k, 1, 0] += size
    return out


def test_ernst_check_rejects_perturbed_log_tau(tmp_path):
    wl = workloads.ErnstSweep(seed=5, grid="0.5:2:9,-0.5:0.5:7")
    _run_calls(wl, tmp_path)
    assert wl.check(program, tmp_path) == []
    last = len(wl.presets) - 1
    _edit_csv(tmp_path / f"ernst{last}" / "ernst.csv", 17, 2, lambda v: v + 1e-7)
    failures = wl.check(program, tmp_path)
    assert len(failures) == 1 and "closed form" in failures[0]


def test_repeated_calls_must_write_identical_csv(tmp_path):
    counter = iter(range(100))

    def fake_main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "kdv.csv").write_text(f"x\n{min(next(counter), 1)}\n")
        return 0

    fake = types.SimpleNamespace(cli=types.SimpleNamespace(main=fake_main))
    args = types.SimpleNamespace(seconds=0.0)
    wl = workloads.KdvWide(seed=3, grid=SMALL_KDV, sample_x=3)
    *_, problems = run.run_rounds(fake, wl, tmp_path, args, None)
    assert problems == []
    # a traced run makes two rounds, so the second call writes another CSV
    counter = iter(range(100))
    *_, problems = run.run_rounds(fake, wl, tmp_path, args, tracing.Tracer())
    assert problems == ["kdv: CSV differs between repeated calls"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert declared == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
