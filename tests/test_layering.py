"""The package's modules import only modules below them.

obfloer/__init__.py lists its modules bottom-up; each module's relative
imports must name modules listed before it.  __init__ and __main__ sit
above every listed module.
"""

import ast
import pathlib
import re

import obfloer

PACKAGE = pathlib.Path(obfloer.__file__).resolve().parent


def layer_order():
    return re.findall(r"^    (\w+)  ", obfloer.__doc__, re.MULTILINE)


def relative_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_docstring_lists_every_module():
    order = layer_order()
    assert order == ["linalg", "diagram", "domains", "nicefy", "floer", "cli"]
    assert sorted(order + ["__init__", "__main__"]) == sorted(
        p.stem for p in PACKAGE.glob("*.py"))


def test_each_module_imports_only_modules_below_it():
    order = layer_order()
    inversions = []
    for path in sorted(PACKAGE.glob("*.py")):
        rank = (order.index(path.stem) if path.stem in order
                else len(order))
        for name in relative_imports(path):
            assert name in order, (path.stem, name)
            if order.index(name) >= rank:
                inversions.append((path.stem, name))
    assert inversions == []
