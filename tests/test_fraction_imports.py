"""``Fraction`` only at the edges of the library.

Every layer computes on int numerators over one denominator, and text is
parsed straight into int pairs; a Fraction is built only where ``exp`` is read
(``semifield``).  This walks the syntax tree of each module and fails on any
other import of ``fractions``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "troprays")

ALLOWED = {"semifield.py"}


def imports_fractions(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "fractions" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "fractions"


def test_only_semifield_imports_fractions():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert modules, f"no modules found under {SRC}"
    found = []
    for path in modules:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if imports_fractions(node) and name not in ALLOWED]
    assert not found, f"fractions imported outside semifield: {found}"
