"""No module of the library imports a name it never uses, no private
top-level function or class and no public method goes unused, no
public top-level name goes unrun, and no private function has a
parameter it never reads.  The library imports only the standard
library and parses as the oldest Python that pyproject.toml admits.
`fragmentation` builds its steps through the step builders of `tpc`,
leaves the certificate format to that module, and builds its helper
complexes with the constructors of `complexes`."""

import ast
import sys
from pathlib import Path

import fcplx

SRC = Path(fcplx.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{p.name}:{line}: {name}"
              for p in modules for line, name in _unused_imports(p)]
    assert not unused, unused


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_unused_private_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_referenced, trees.values()))
    private = [f"{name}:{node.lineno}: {node.name}"
               for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and _private(node.name) and node.name not in used]
    assert trees and not private, private


def test_every_public_method_is_used():
    """Each public method of a library class is read somewhere in the
    library, the tests, the benchmark or the tools."""
    root = Path(__file__).resolve().parents[1]
    paths = [*SRC.glob("*.py"), *(p for d in ("tests", "perfbench", "tools")
                                  for p in (root / d).rglob("*.py"))]
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    used = set().union(*map(_referenced, trees))
    dead = [f"{p.name}:{node.lineno}: {cls.name}.{node.name}"
            for p in sorted(SRC.glob("*.py"))
            for cls in ast.parse(p.read_text(), filename=str(p)).body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in used]
    assert not dead, dead


def _strings(tree):
    """Every dotted part of every string constant: the names a module
    looks up with getattr, such as the tracer's "verify.gen_complex"."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")}


def test_every_public_name_is_run():
    """Each public top-level function or class of the library is read by
    a library module, exported by the package, a `cli` command handler
    (`cmd_*`) or read by the benchmark (by name or by a string)."""
    root = Path(__file__).resolve().parents[1]
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    package = trees.pop("__init__")
    used = set().union(*map(_referenced, trees.values()))
    exported = {alias.asname or alias.name for node in package.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    for p in (root / "perfbench").rglob("*.py"):
        tree = ast.parse(p.read_text(), filename=str(p))
        used |= _referenced(tree) | _strings(tree)
    dead = [f"{name}.py:{node.lineno}: {node.name}"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in used | exported
            and not (name == "cli" and node.name.startswith("cmd_"))]
    assert trees and not dead, dead


def test_no_unused_parameters_of_private_functions():
    unused = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _private(node.name)):
                continue
            a = node.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if x is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unused += [f"{p.name}:{node.lineno}: {node.name}({name})"
                       for name in params if name not in read]
    assert not unused, unused


STEP_BUILDERS = {"_identity_step", "_inverse_step", "_reanchored"}


def test_fragmentation_leaves_certificates_to_tpc():
    """No underscored name from `tpc` but a step builder, and no
    `_cert` attribute, read directly or by name."""
    path = SRC / "fragmentation.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "tpc":
            found += [f"{node.lineno}: import {alias.name}"
                      for alias in node.names if _private(alias.name)
                      and alias.name not in STEP_BUILDERS]
        elif (isinstance(node, ast.Attribute) and node.attr == "_cert"
              or isinstance(node, ast.Constant) and node.value == "_cert"):
            found.append(f"{node.lineno}: _cert")
    assert not found, found


def test_fragmentation_builds_helpers_from_the_complexes_constructors():
    """No `make_complex` import, no `from_pairs` call and no `.gens`
    read: helper complexes are cones, sums and shifts of `complexes`,
    and their maps are blocks by offset, so no id is spelled out."""
    path = SRC / "fragmentation.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: import {alias.name}"
                      for alias in node.names if alias.name == "make_complex"]
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("from_pairs", "gens")):
            found.append(f"{node.lineno}: .{node.attr}")
    assert not found, found


def test_only_standard_library_imports():
    outside = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{p.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside


def test_modules_parse_as_python_3_10():
    """requires-python = ">=3.10" in pyproject.toml."""
    for p in sorted(SRC.glob("*.py")):
        ast.parse(p.read_text(), filename=str(p), feature_version=(3, 10))
