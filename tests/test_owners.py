"""Each owned decision is read in its owning module alone.

loops owns the batch path's circle grid (DEFAULT_SAMPLES, _fast_len) and
loops per block (_BLOCK), read elsewhere through default_sample_count and
_block_loops; quadrature owns the Gauss refinement cap (MAX_LEVEL, the
default of refine_path_cells' max_level).  A second module that imports or
reads one of these names, or passes max_level, makes a second rule, which
can drift from the first.  The package is read with ast, as test_reach.py
reads it.
"""

import ast
from pathlib import Path

import tauforge

SRC = Path(tauforge.__file__).parent

OWNERS = {
    "_BLOCK": "loops",
    "DEFAULT_SAMPLES": "loops",
    "_fast_len": "loops",
    "MAX_LEVEL": "quadrature",
    "max_level": "quadrature",
}


def _readers() -> dict:
    """module -> the owned names it imports, reads off another module or
    passes as a keyword, other than its own."""
    found = {}
    for path in SRC.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword):
                names.add(node.arg)
        names = {name for name in names
                 if OWNERS.get(name, path.stem) != path.stem}
        if names:
            found[path.stem] = names
    return found


def test_only_the_owner_reads_each_owned_name():
    assert _readers() == {}
