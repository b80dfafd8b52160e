import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "autsign").glob("*.py"))


def test_the_runtime_imports_only_the_standard_library_and_itself():
    assert len(SOURCES) >= 8
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # a relative import stays inside autsign
            for module in modules:
                top = module.split(".")[0]
                if top != "autsign" and top not in sys.stdlib_module_names:
                    outside.append((path.name, module))
    assert outside == []
