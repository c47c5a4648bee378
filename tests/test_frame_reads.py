"""Gram values outside ``quadspace`` come off one lattice frame.

A call that needs several Gram values reads them off one
``quadspace._Frame``, all on one denominator; ``QuadraticPair._gram``, one
value on its own denominator, serves only the views inside ``quadspace``.
This walks the syntax tree of each module and fails on any other read of the
attribute ``_gram``, and on an import of ``lcm`` in the layers that read
frames (csfun, strata, isotropy, frontier): values on one frame need no lcm
to be put together.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "troprays")

FRAME_READERS = {"csfun.py", "strata.py", "isotropy.py", "frontier.py"}


def uses_lcm(node) -> bool:
    """``from math import lcm`` or a read of ``math.lcm``."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "lcm" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "lcm"


def test_gram_read_only_in_quadspace_and_lcm_not_in_the_frame_readers():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert modules, f"no modules found under {SRC}"
    gram, lcm = [], []
    for path in modules:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "_gram"
                    and name != "quadspace.py"):
                gram.append(f"{name}:{node.lineno}")
            if uses_lcm(node) and name in FRAME_READERS:
                lcm.append(f"{name}:{node.lineno}")
    assert not gram, f"_gram read outside quadspace: {gram}"
    assert not lcm, f"lcm imported by a frame reader: {lcm}"
