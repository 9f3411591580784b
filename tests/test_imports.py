import ast
from pathlib import Path

import kepdiff

SRC = Path(kepdiff.__file__).resolve().parent


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
