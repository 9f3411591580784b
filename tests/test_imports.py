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
