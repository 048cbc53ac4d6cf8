"""Each owned decision is read in its owning module alone.

loops owns the circle grid (DEFAULT_SAMPLES) and loops per block
(_BLOCK), read elsewhere through default_sample_count and _block_loops; quadrature owns the Gauss refinement cap (MAX_LEVEL, which
refine_path_cells reads).  A second module that imports or reads one of
these names makes a second rule, which can drift from the first.
MatrixLoop is the one loop class, a scalar loop being its n = 1 case: a
subclass would bring back the type picks of its constructors and products.
The package is read with ast, as test_reach.py reads it.
"""

import ast
from pathlib import Path

import tauforge

SRC = Path(tauforge.__file__).parent

OWNERS = {
    "_BLOCK": "loops",
    "DEFAULT_SAMPLES": "loops",
    "MAX_LEVEL": "quadrature",
}


def _readers() -> dict:
    """module -> the owned names it imports or reads off another module,
    other than its own."""
    found = {}
    for path in SRC.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names = {name for name in names
                 if OWNERS.get(name, path.stem) != path.stem}
        if names:
            found[path.stem] = names
    return found


def test_only_the_owner_reads_each_owned_name():
    assert _readers() == {}


def test_no_class_subclasses_matrix_loop():
    subclasses = [f"{path.stem}.{node.name}"
                  for path in SRC.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ClassDef)
                  and any(ast.unparse(base).split(".")[-1] == "MatrixLoop"
                          for base in node.bases)]
    assert subclasses == []
