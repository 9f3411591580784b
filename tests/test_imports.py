import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import kepdiff

SRC = Path(kepdiff.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def test_no_module_imports_private_names():
    # every ImportFrom, including imports inside functions
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports "
                                     f"{alias.name} from {node.module}")
    assert not offenders, "\n".join(offenders)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports {name}, never used"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports are the package's re-exports
    tests = Path(__file__).resolve().parent
    paths = sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py"))
    offenders = [msg for path in paths if path.name != "__init__.py"
                 for msg in _unused_imports(path)]
    assert not offenders, "\n".join(offenders)


def _referenced_names(tree):
    """Names and attribute names used anywhere in tree."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _definitions(node):
    """(label, name, line, names used beside it) of a top-level function
    or class and of each method and property of a class: a member's
    label is Class.member, and the names beside it are those the rest
    of its class uses."""
    yield node.name, node.name, node.lineno, set()
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                rest = set().union(*(_referenced_names(other)
                                     for other in node.body
                                     if other is not item))
                yield (f"{node.name}.{item.name}", item.name, item.lineno,
                       rest)


def test_every_public_name_has_a_program_caller():
    # a module-level public function or class, and a public method or
    # property of a module-level class, must be used by another kepdiff
    # module, by its own module outside its definition, or by
    # perfbench/; tests and the __init__ re-exports do not count
    bodies = {path: ast.parse(path.read_text(), filename=str(path)).body
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    names = {path: [_referenced_names(stmt) for stmt in body]
             for path, body in bodies.items()}
    # in how many top-level statements of src/kepdiff each name is used
    uses = Counter(name for per_stmt in names.values()
                   for stmt_names in per_stmt for name in stmt_names)
    outside = set()
    for path in sorted(ROOT.glob("perfbench/*.py")):
        outside |= _referenced_names(ast.parse(path.read_text()))
    offenders = []
    for path, body in bodies.items():
        for node, stmt_names in zip(body, names[path]):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            for label, name, line, beside in _definitions(node):
                if name.startswith("_") or name in outside:
                    continue
                if uses[name] - (name in stmt_names) == 0 \
                        and name not in beside:
                    offenders.append(f"{path.name}:{line} {label}")
    assert not offenders, "no program caller:\n" + "\n".join(offenders)


_LAZY_IMPORTS_PROBE = """
import sys
from kepdiff import PhysParams, build_generator, cli, gap_from_matrix
from kepdiff.spectral import production_grid_2d

assert cli.main(["simulate", "--seed", "0", "--n-steps", "100",
                 "--n-paths", "2", "--out-dir", sys.argv[1]]) == 0
p = PhysParams(ecc=0.5, eps=0.3)
assert gap_from_matrix(build_generator(p, production_grid_2d(p, n=80))).gap > 0
print("loaded:", *(m for m in ("scipy.stats", "scipy.integrate")
                   if m in sys.modules))
"""


def test_runs_load_neither_scipy_stats_nor_integrate(tmp_path):
    # each is imported only where it is called (C1's Halton sample, the
    # zero-noise orbit), so a simulation or a matrix gap in a fresh
    # process must load neither
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS_PROBE,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "loaded:"
