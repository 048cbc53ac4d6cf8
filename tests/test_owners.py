"""The batch path's circle grid and block size are decided in loops alone.

The sample grid (DEFAULT_SAMPLES, _fast_len) and the loops per block
(_BLOCK) are read through default_sample_count and _block_loops; a second
module that reads the constants themselves makes a second rule, which can
drift from the first.  The package is read with ast, as test_reach.py
reads it.
"""

import ast
from pathlib import Path

import tauforge

SRC = Path(tauforge.__file__).parent

OWNED = {"_BLOCK", "DEFAULT_SAMPLES", "_fast_len"}


def _readers() -> dict:
    """module -> the owned names it imports or reads off another module."""
    found = {}
    for path in SRC.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names} & OWNED
            elif isinstance(node, ast.Attribute) and node.attr in OWNED:
                names.add(node.attr)
        if names:
            found[path.stem] = names
    return found


def test_only_loops_reads_the_grid_and_block_constants():
    readers = _readers()
    readers.pop("loops", None)
    assert readers == {}
