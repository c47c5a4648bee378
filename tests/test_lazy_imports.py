"""Import schedule: a CLI subcommand imports only the layers it runs, and only
their public names, and the package resolves its public names on first use
(PEP 562)."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import troprays

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


CLI_EVAL = ("from troprays import cli\n"
            "code = cli.main(['eval', '--model', 'data/m1.json', '--vec', '0,3',"
            " '--vec2', '0,-inf'])\n"
            "assert code == 0, code")
EVERY_LAYER = ("import troprays.frontier, troprays.isotropy, troprays.oracle, "
               "troprays.instances, troprays.serialize")
# the standard library's code-introspection modules, which dataclasses loads
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# hashlib and the OpenSSL binding it loads; fractions and what it imports
OPENSSL = {"hashlib", "_hashlib"}
FRACTIONS = {"fractions", "decimal", "numbers"}


def modules_after(code: str) -> set:
    """The names in sys.modules after `code` runs in a fresh interpreter
    started at the root of the checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    probe = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, cwd=REPO)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def loaded_after(code: str) -> set:
    """The troprays modules in sys.modules after `code` runs."""
    return {m for m in modules_after(code) if m.split(".")[0] == "troprays"}


def test_eval_loads_no_layer_it_does_not_run():
    """No pmfunc, rays, csfun, strata, frontier, isotropy, oracle, sampling
    or instances: eval runs none of them."""
    assert loaded_after(CLI_EVAL) == {
        "troprays", "troprays.cli", "troprays.errors", "troprays.semifield",
        "troprays.quadspace", "troprays.serialize"}


@pytest.mark.parametrize("code", [CLI_EVAL, EVERY_LAYER], ids=["cli-eval", "every-layer"])
def test_records_load_no_introspection_module(code):
    """The records are NamedTuples and slotted classes, so neither the CLI nor
    any layer loads dataclasses or what it imports.  The baseline is what a
    bare interpreter loads here (a site hook may load some of them)."""
    assert (modules_after(code) - modules_after("pass")) & INTROSPECTION == set()


@pytest.mark.parametrize("code", ["import troprays.cli", EVERY_LAYER],
                         ids=["cli", "every-layer"])
def test_import_loads_no_openssl(code):
    """Only ``model_hash`` hashes, and it imports hashlib when it runs, so
    importing the CLI or any layer maps no OpenSSL."""
    assert (modules_after(code) - modules_after("pass")) & OPENSSL == set()


def test_eval_loads_no_fractions():
    """Scalar text is read straight into int pairs, so a CLI run that parses a
    model and vectors loads neither fractions nor decimal nor numbers."""
    assert (modules_after(CLI_EVAL) - modules_after("pass")) & FRACTIONS == set()


def test_cli_imports_no_private_name():
    """The CLI runs the layers through their public entry points: no
    ``from ... import`` in cli.py names an _-prefixed symbol."""
    path = os.path.join(REPO, "src", "troprays", "cli.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    private = [f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"cli.py imports private names: {private}"


def test_bare_import_loads_no_layer():
    assert loaded_after("import troprays") == {"troprays"}
    assert loaded_after("import troprays\ntroprays.t") == {
        "troprays", "troprays.semifield", "troprays.errors"}


def test_each_export_is_its_defining_modules_object():
    for name in troprays.__all__:
        if name == "__version__":
            continue
        obj = getattr(troprays, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("troprays."), name
        assert getattr(home, name) is obj, name


def test_dir_lists_every_export_and_unknown_names_raise():
    assert set(troprays.__all__) <= set(dir(troprays))
    with pytest.raises(AttributeError, match="nope"):
        troprays.nope
    assert not hasattr(troprays, "nope")


def test_star_import_binds_all_exports():
    namespace = {}
    exec("from troprays import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(troprays.__all__)
    assert all(namespace[n] is getattr(troprays, n) for n in troprays.__all__)
