"""The library checks itself with exceptions, never with ``assert``.

``python -O`` strips assert statements, so a self-check written as one would
silently vanish; every check in ``src/troprays`` raises a ``TropraysError``
instead.  This walks the syntax tree of each module and fails on any assert.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "troprays")


def test_library_modules_contain_no_assert():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert modules, f"no modules found under {SRC}"
    found = []
    for path in modules:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
