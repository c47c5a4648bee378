"""The library checks itself with exceptions, never with ``assert``, and
takes no hidden option arguments.

``python -O`` strips assert statements, so a self-check written as one would
silently vanish; every check in ``src/troprays`` raises a ``TropraysError``
instead.  A parameter named ``_x`` is an option no caller is meant to pass,
a second path through one operation; state a call shares belongs to an
object instead.  These walk the syntax tree of each module.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "troprays")


def library_trees():
    """(module file name, syntax tree) for each module of the library."""
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert modules, f"no modules found under {SRC}"
    for path in modules:
        with open(path, encoding="utf-8") as handle:
            yield os.path.basename(path), ast.parse(handle.read(), filename=path)


def test_library_modules_contain_no_assert():
    found = [f"{name}:{node.lineno}" for name, tree in library_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_library_functions_take_no_private_parameters():
    found = []
    for name, tree in library_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            found += [f"{name}:{node.lineno} {node.name}({p.arg})"
                      for p in params if p is not None and p.arg.startswith("_")]
    assert not found, f"private parameters in the library: {found}"
