"""Checks on the package's own source."""

import ast
import sys
from pathlib import Path

import bidlab

SOURCES = sorted(Path(bidlab.__file__).resolve().parent.glob("*.py"))


def test_no_invariant_is_checked_by_an_assert_statement():
    # python -O strips assert statements, so an invariant checked by one
    # goes unchecked there; the package raises instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_every_name_in_all_is_defined_in_its_module():
    # a name deleted from a module but left in its __all__ breaks
    # `from module import *` only when that runs; here every entry must be
    # a top-level def, class or assignment of the module itself
    missing = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        defined, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
        missing += [f"{path.name}: {name}" for name in exported if name not in defined]
    assert missing == []


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    # the runtime dependency is numpy only; a relative import is the
    # package's own
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in
                        (*sys.stdlib_module_names, "numpy", "bidlab")]
    assert SOURCES and foreign == []
