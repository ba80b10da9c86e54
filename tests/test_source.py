"""Source-level checks on src/glblocks."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "glblocks"


def _names(tree):
    """Every name, attribute and imported name under `tree`, one per use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _attributes(tree):
    """Every attribute name (the `name` of `x.name`) under `tree`, one per use."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _public(node, kinds=(ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
    return isinstance(node, kinds) and not node.name.startswith("_")


def test_every_public_definition_is_used_in_src():
    # src/ holds what a command runs: a public top-level function or class,
    # or a public method, that src/ uses only where it is defined serves the
    # tests alone, and belongs in tests/.  A name inside its own definition
    # (a recursive call, a method returning its class) is not a use, and a
    # method counts as used only through an attribute, x.name, outside its
    # own body
    defined, named, attributes, methods = {}, Counter(), Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named.update(_names(tree))
        attributes.update(_attributes(tree))
        for node in tree.body:
            if not _public(node):
                continue
            defined[node.name] = path.name
            named[node.name] -= sum(name == node.name for name in _names(node))
            if isinstance(node, ast.ClassDef):
                methods += [(f"{node.name}.{item.name}", path.name, item) for item in node.body
                            if _public(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = {name: module for name, module in defined.items() if named[name] <= 0}
    unused.update((name, module) for name, module, method in methods
                  if attributes[method.name] - _attributes(method)[method.name] <= 0)
    assert not unused, unused


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so an invariant that carries
    # correctness is an explicit raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not found, found


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_each_module_imports_alone_in_a_fresh_interpreter(module):
    # an import cycle among the modules shows only for an import order that
    # closes it, so each module is imported first, on its own
    name = "glblocks" if module == "__init__" else f"glblocks.{module}"
    run = subprocess.run([sys.executable, "-c", f"import {name}"],
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_readme_layout_names_every_module():
    # the Layout block of README.md is the module map: each module of
    # src/glblocks has its line there
    readme = (SRC.parent.parent / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    named = {line.split()[0] for line in layout.splitlines() if line.startswith("  ")}
    missing = sorted(path.name for path in SRC.glob("*.py") if path.name not in named)
    assert not missing, missing


def _callee(node):
    """The called name of a call node: `f` of f(...) and of x.f(...)."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_no_environment_variable_and_only_cli_opens_a_file():
    # every output is computed from the command line alone: no module reads
    # the environment, and the one file opened is cli's --out-path
    readers, openers = {}, Counter()
    files = {"open", "fdopen", "read_text", "read_bytes", "write_text", "write_bytes"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = {"environ", "environb", "getenv", "getenvb"} & set(_names(tree))
        if found:
            readers[path.name] = sorted(found)
        openers[path.name] = sum(isinstance(node, ast.Call) and _callee(node) in files
                                 for node in ast.walk(tree))
    assert not readers, readers
    assert +openers == Counter({"cli.py": 1})
