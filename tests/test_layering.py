"""The package's modules import only modules below them.

obfloer/__init__.py lists its modules bottom-up; each module's relative
imports must name modules listed before it.  __init__ and __main__ sit
above every listed module.  Importing the command line loads none of the
standard library's record and number machinery.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

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


def test_cli_import_loads_no_record_or_number_machinery():
    # compare sys.modules around the import, so that a module the
    # interpreter's startup already loaded does not count
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import obfloer.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "obfloer.cli" in loaded
    assert loaded & {"ast", "dataclasses", "inspect", "fractions",
                     "decimal"} == set()
