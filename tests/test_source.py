"""Source-level checks on src/glblocks."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glblocks"

# Paper statements with no command yet; each is to get a `verify` verb.
UNREFERENCED_ALLOWED = {"sn_l_blocks", "centralizer_blocks", "weight_one_singular_value"}


def test_every_public_definition_is_used_in_src():
    # a public top-level function or class that src/ names only where it is
    # defined serves the tests alone, and belongs in tests/
    defined, named = {}, Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name] += 1
    unused = {name: module for name, module in defined.items()
              if not named[name] and name not in UNREFERENCED_ALLOWED}
    assert not unused, unused
    assert UNREFERENCED_ALLOWED <= set(defined)
