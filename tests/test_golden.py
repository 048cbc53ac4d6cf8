"""Output bits of nine CLI runs, pinned against tests/golden.json.

Each run is made in process.  The record holds, per run, the argv, the
exit code, stdout with the run time masked, and the SHA-256 of every file
the run writes; a manifest is hashed without `elapsed_seconds` and with
its keys sorted.  Manifests carry the numpy and scipy versions, so a
version change shows as a moved hash too.  A change that means to move
output bits rewrites the record with

    PYTHONPATH=src python tests/test_golden.py

and lists each moved run.  The failing runs write no file today.  To see
how far a CSV moved, write the runs of one tree under DIR/<run> and
compare another tree's against them, per CSV column, by the worst |delta|
and the count of values that moved:

    PYTHONPATH=<old tree>/src python tests/test_golden.py --out DIR
    PYTHONPATH=src python tests/test_golden.py --against DIR
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tauforge import cli

GOLDEN = Path(__file__).with_name("golden.json")
GRID_201 = "--grid=0.5:2:201,-0.5:0.5:201"
RUNS = {
    "kdv": ["kdv"],
    "kdv_wide": ["kdv", "--preset", "one_pole:pole=0.2505,strength=0.348",
                 "--grid=-1:1:41,-0.15:0.15:7"],
    "birkhoff_1000": ["birkhoff", "--count", "1000", "--rng-seed", "1"],
    "ernst_point_source_201": ["ernst", "--preset", "point_source", GRID_201],
    "ernst_kasner_201": ["ernst", "--preset", "kasner:a=0.9", GRID_201],
    "selftest": ["selftest"],
    "kdv_trunc_16": ["kdv", "--trunc", "16"],
    "birkhoff_twist": ["birkhoff", "--preset", "twist"],
    "ernst_tol_path_1e-30": ["ernst", "--tol-path", "1e-30"],
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        manifest = json.loads(data)
        del manifest["elapsed_seconds"]
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def record(name: str, out: Path) -> dict:
    """The record of run `name`, with its files written under out."""
    argv = RUNS[name]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": re.sub(r" in \d+\.\d s$", " in X.X s", stdout.getvalue(),
                         flags=re.M),
        "sha256": {path.name: _digest(path) for path in files},
    }


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_the_record(name, tmp_path):
    assert record(name, tmp_path / name) == json.loads(GOLDEN.read_text())[name]


def column_moves(path: Path, old: Path):
    """(column, worst |delta|, values moved, values) per column of two
    CSVs of one header."""
    header = path.read_text().partition("\n")[0].split(",")
    if old.read_text().partition("\n")[0].split(",") != header:
        raise ValueError(f"{path.name}: headers differ")
    new, was = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
                for p in (path, old))
    if new.shape != was.shape:
        raise ValueError(f"{path.name}: {new.shape} rows x columns against "
                         f"{was.shape}")
    moved = ~((new == was) | (np.isnan(new) & np.isnan(was)))
    delta = np.where(moved, np.abs(new - was), 0.0)
    return [(name, float(delta[:, j].max(initial=0.0)),
             int(moved[:, j].sum()), len(new))
            for j, name in enumerate(header)]


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--out", type=Path,
                        help="write each run's files under OUT/<run>")
    action.add_argument("--against", type=Path,
                        help="compare each run's CSVs with DIR/<run>")
    args = parser.parse_args()
    if args.out:
        for name in RUNS:
            record(name, args.out / name)
        print(f"wrote the runs under {args.out}")
    elif args.against:
        with tempfile.TemporaryDirectory() as tmp:
            for name in RUNS:
                record(name, Path(tmp) / name)
                for path in sorted((Path(tmp) / name).glob("*.csv")):
                    old = args.against / name / path.name
                    if not old.exists():
                        print(f"{name}/{path.name}: not in {args.against}")
                        continue
                    same = old.read_bytes() == path.read_bytes()
                    print(f"{name}/{path.name}: "
                          f"{'bytes identical' if same else 'bytes differ'}")
                    for column, worst, moved, total in column_moves(path, old):
                        print(f"  {column:<16} worst |delta| {worst:.3e}  "
                              f"moved {moved}/{total}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            golden = {name: record(name, Path(tmp) / name) for name in RUNS}
        GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
        print(f"wrote {GOLDEN}")
