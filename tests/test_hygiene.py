import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "currentlab"


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


def test_checks_run_without_mpmath():
    # mpmath is a test-only dependency: the specfun suite, whose reference
    # route it used to be, must not import it
    code = ("import sys\n"
            "from currentlab.suites import RunConfig, run_suite\n"
            "assert all(r.passed for r in run_suite(RunConfig(), 'specfun'))\n"
            "assert 'mpmath' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
