import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "currentlab"


def unused_imports(source: str) -> list:
    """Names bound by the module's import statements that no other part of
    the module reads (a name listed in __all__ counts as read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def unused_locals(source: str) -> list:
    """Names a function assigns and never reads, in its own body or in a
    function nested in it.  Names declared global or nonlocal belong to
    another scope, and names starting with an underscore are taken as
    deliberately unused."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, scopes):
            continue
        stored, outer, read = {}, set(), set()
        todo = list(ast.iter_child_nodes(fn))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node.ctx, ast.Store):
                    stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
            if isinstance(node, scopes):
                # a nested function's reads may be of this function's names;
                # its own assignments are checked in its own pass
                read |= {n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            else:
                todo.extend(ast.iter_child_nodes(node))
        found += [f"line {line}: {name}" for name, line in stored.items()
                  if name not in read and name not in outer and not name.startswith("_")]
    return sorted(found)


def test_unused_locals_are_found():
    src = ("def f(a):\n"
           "    best = None\n"
           "    n = a\n"
           "    used, _ = a\n"
           "    count = 0\n"
           "    def g():\n"
           "        nonlocal count\n"
           "        count += 1\n"
           "        inner = 2\n"
           "        return count\n"
           "    for k in a:\n"
           "        best = k\n"
           "    return used, g\n")
    assert unused_locals(src) == ["line 2: best", "line 3: n", "line 9: inner"]


def test_package_has_no_unused_locals():
    found = {path.name: unused_locals(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: got for name, got in found.items() if got} == {}


def test_unused_imports_are_found():
    src = "import os\nimport math\nfrom numpy import pi as PI, e\n__all__ = ['e']\nmath.sqrt(2)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: PI"]


def test_package_has_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = {path.name: unused_imports(path.read_text()) for path in paths}
    assert {name: got for name, got in found.items() if got} == {}


# attributes that every array or container has: reading x.copy names no
# method of the package unless x is the defining class itself
_CONTAINER_ATTRS = set(dir(np.ndarray)) | set(dir(list)) | set(dir(dict))


def _references(source: str):
    """What a module names: the names it reads, the identifier strings it
    holds (as in monkeypatch.setattr(module, "name", ...)), and the
    (receiver name or None, attribute) pairs it reads.  Import statements
    and __all__ name nothing."""
    tree = ast.parse(source)
    exported = {id(e) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for e in ast.walk(node.value)}
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            names.add(node.value)
        elif isinstance(node, ast.Attribute):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            attrs.add((receiver, node.attr))
    return names, attrs


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(source: str):
    """(line, name, enclosing class or None) of every function, class and
    method, except dunders and decorated ones, which the interpreter or the
    decorator calls, and of every name a module-level assignment binds,
    except dunders."""
    body = ast.parse(source).body
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield node.lineno, name.id, None
    todo = [(node, None) for node in body]
    while todo:
        node, owner = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not node.decorator_list and not _is_dunder(name):
                yield node.lineno, name, owner
            inner = name if isinstance(node, ast.ClassDef) else None
            todo.extend((child, inner) for child in node.body)
        else:
            todo.extend((child, owner) for child in ast.iter_child_nodes(node))


def dead_definitions(package: dict, others: list) -> list:
    """Functions, classes, methods and module-level names defined in the
    package sources (a map from file name to source) that neither the
    package nor the other sources name."""
    names, attrs = set(), set()
    for source in list(package.values()) + list(others):
        got_names, got_attrs = _references(source)
        names |= got_names
        attrs |= got_attrs
    found = []
    for fname, source in package.items():
        for line, name, owner in _definitions(source):
            if name in names or any(
                    attr == name and (name not in _CONTAINER_ATTRS
                                      or owner is not None and receiver == owner)
                    for receiver, attr in attrs):
                continue
            found.append((fname, line, name))
    return [f"{fname} line {line}: {name}" for fname, line, name in sorted(found)]


def test_dead_definitions_are_found():
    package = {"m.py": ("def used():\n"
                        "    pass\n"
                        "def dead():\n"
                        "    pass\n"
                        "class K:\n"
                        "    def __init__(self):\n"
                        "        pass\n"
                        "    def method(self):\n"
                        "        return used()\n"
                        "    def by_string(self):\n"
                        "        pass\n"
                        "    def copy(self):\n"
                        "        pass\n"
                        "    def mean(self):\n"
                        "        pass\n"
                        "@register\n"
                        "def hook():\n"
                        "    def inner():\n"
                        "        pass\n"
                        "class Unused(K):\n"
                        "    pass\n"
                        "class Exported:\n"
                        "    pass\n"
                        "__all__ = ['Exported']\n"
                        "LIMIT = 3\n"
                        "STEP, SPARE = 1, 2\n"
                        "TABLE: dict = {}\n"
                        "__version__ = '1'\n"
                        "def read():\n"
                        "    return LIMIT * STEP\n"),
               "n.py": "from .m import Exported\n"}
    others = ["from m import K\n"
              "K().method()\n"
              "setattr(K, 'by_string', None)\n"
              "a.copy()\n"          # an array's copy, not K's
              "K.mean(k)\n"
              "m.read()\n"]
    assert dead_definitions(package, others) == [
        "m.py line 3: dead", "m.py line 12: copy", "m.py line 18: inner",
        "m.py line 20: Unused", "m.py line 22: Exported", "m.py line 26: SPARE",
        "m.py line 27: TABLE"]


def test_package_has_no_dead_definitions():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = [path.read_text() for folder in ("tests", "bench", "tools", "demos")
              for path in sorted((ROOT / folder).glob("**/*.py"))]
    assert others
    assert dead_definitions(package, others) == []


def functions_with_try(source: str, prefix: str) -> list:
    """The module-level functions whose name starts with prefix and whose
    body holds a try statement at any depth, nested functions included."""
    return [f"line {node.lineno}: {node.name}" for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith(prefix)
            and any(isinstance(n, (ast.Try, ast.TryStar)) for n in ast.walk(node))]


def test_functions_with_try_are_found():
    src = ("def _cmd_a(args):\n"
           "    try:\n"
           "        return 0\n"
           "    finally:\n"
           "        pass\n"
           "def _cmd_b(args):\n"
           "    def inner():\n"
           "        try:\n"
           "            pass\n"
           "        except ValueError:\n"
           "            pass\n"
           "    return inner\n"
           "def _cmd_c(args):\n"
           "    return 0\n"
           "def main():\n"
           "    try:\n"
           "        pass\n"
           "    except OSError:\n"
           "        pass\n")
    assert functions_with_try(src, "_cmd_") == ["line 1: _cmd_a", "line 6: _cmd_b"]


def test_cli_commands_leave_errors_to_main():
    # cli.main alone turns a failure into `error: ...` and exit status 1
    assert functions_with_try((PACKAGE / "cli.py").read_text(), "_cmd_") == []


def test_quadrature_imports_nothing_from_scipy_integrate():
    # every quadrature of the module is one of its own fixed rules
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "quadrature.py").read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert imported and not any(name.startswith("scipy.integrate") for name in imported)


def _run_python(code: str) -> None:
    """Run code in a fresh interpreter that imports the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_checks_run_without_mpmath():
    # mpmath is a test-only dependency: the specfun suite, whose reference
    # route it used to be, must not import it
    _run_python("import sys\n"
                "from currentlab.suites import RunConfig, run_suite\n"
                "assert all(r.passed for r in run_suite(RunConfig(), 'specfun'))\n"
                "assert 'mpmath' not in sys.modules\n")


def test_cli_import_leaves_scipy_interpolate_out():
    # the jump table's monotone cubic is numpy's: importing scipy.interpolate
    # would cost a cold `check all` about 50 ms and 2.4 MB
    _run_python("import sys\n"
                "import currentlab.cli\n"
                "assert 'scipy.interpolate' not in sys.modules\n")


def test_cli_import_leaves_scipy_integrate_out():
    # truncation_bound imports scipy.integrate when it runs: at import it
    # would load scipy.optimize, scipy.sparse and scipy.linalg too, which
    # nothing else of the package needs
    _run_python("import sys\n"
                "import currentlab.cli\n"
                "loaded = [m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse',\n"
                "                      'scipy.linalg') if m in sys.modules]\n"
                "assert not loaded, loaded\n")
