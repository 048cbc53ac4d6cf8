"""Every function in src/tauforge is reached by a CLI run.

A sys.setprofile hook records the Python functions called during a few
small in-process runs; every def of the package must be among them, apart
from ALLOWED.  A route only the tests take belongs in tests/oracles.py.
"""

import ast
import contextlib
import io
import sys
import time
from pathlib import Path

import tauforge
from tauforge import cli

SRC = Path(tauforge.__file__).parent

# functions no run calls yet, by the ROADMAP item that is to reach them
# through a selftest check; one a run reaches leaves the list
ALLOWED = {
    # item 3: the tau 1-form as the derivative of det T_N
    "phase_space._factors_of": 3,
    "phase_space.quadratic_variation": 3,
    "phase_space.vacuum_logderiv_gauge": 3,
    "phase_space.vacuum_logderiv_diffeo": 3,
    # item 11: the exact curvature against the symplectic form
    "phase_space.LoopTangent.antihermitian_defect": 11,
    "phase_space.LoopTangent.trace_defect": 11,
    "phase_space.LoopTangent.validate": 11,
    "phase_space.reduced_symplectic": 11,
    "phase_space.hamiltonian_diffeo": 11,
    "phase_space.curvature_mismatch": 11,
    "phase_space.curvature_mismatch.<locals>.flow": 11,
}


def _defs() -> set:
    """module.qualname of every def in the package."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def _called(runs, out_dir) -> tuple[set, list]:
    """module.qualname of every package function the runs call, and the
    runs' exit codes."""
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(SRC)):
            called.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    # a cached function runs its body only on its first call in a process
    for name, module in list(sys.modules.items()):
        if name.startswith("tauforge."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    codes = []
    sys.setprofile(profile)
    try:
        for i, argv in enumerate(runs):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv + ["--out", str(out_dir / str(i))]))
    finally:
        sys.setprofile(None)
    return called, codes


def test_every_function_is_reached_by_a_run(tmp_path):
    # trunc 16 leaves the default grid's tail-mass budget, so the seed-file
    # run fails the pullback's tail check
    seed_file = tmp_path / "exp.cfg"
    seed_file.write_text("trunc = 16\n")
    runs = [
        ["selftest"],
        ["birkhoff", "--preset", "twist"],
        ["ernst", "--preset", "non_solution"],
        ["ernst", "--preset", "flat"],
        ["kdv", "--trunc", "16", "--grid=-0.4:0.4:11"],
        ["kdv", "--seed-file", str(seed_file)],
    ]
    start = time.perf_counter()
    called, codes = _called(runs, tmp_path)
    elapsed = time.perf_counter() - start

    assert codes == [cli.EXIT_PASS, cli.EXIT_BIG_CELL, cli.EXIT_CHECK_FAILED,
                     cli.EXIT_PASS, cli.EXIT_PASS, cli.EXIT_CHECK_FAILED]
    defs = _defs()
    assert set(ALLOWED) <= defs
    assert sorted(defs - called - set(ALLOWED)) == []
    assert sorted(called & set(ALLOWED)) == []
    assert elapsed <= 5.0
