"""Source-level checks on src/glblocks."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glblocks"

# Paper statements with no command yet; each is to get a `verify` verb.
UNREFERENCED_ALLOWED = {"sn_l_blocks", "centralizer_blocks", "weight_one_singular_value"}


def _names(tree):
    """Every name, attribute and imported name under `tree`, one per use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_definition_is_used_in_src():
    # a public top-level function or class that src/ names only where it is
    # defined serves the tests alone, and belongs in tests/; a name inside
    # its own definition (a recursive call, a method returning its class)
    # is not a use
    defined, named = {}, Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named.update(_names(tree))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.name
                named[node.name] -= sum(name == node.name for name in _names(node))
    unused = {name: module for name, module in defined.items()
              if named[name] <= 0 and name not in UNREFERENCED_ALLOWED}
    assert not unused, unused
    assert UNREFERENCED_ALLOWED <= set(defined)
