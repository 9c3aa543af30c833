"""The package's public surface is what the program itself uses: every
module-level public function and class in ``src/pfsensor`` has a reader in
``src/`` or ``scripts/``, not only in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pfsensor"


def program_references() -> set[str]:
    """Every name that a Name, an Attribute or an import in src/ or scripts/
    refers to. An import in the package's ``__init__`` is a re-export, not a
    use, so it does not count; neither do mentions in docstrings."""
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def public_definitions() -> list[tuple[str, str]]:
    """(module.name, name) of each module-level public def and class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((f"{path.stem}.{node.name}", node.name))
    return found


def test_every_public_definition_has_a_program_reader():
    used = program_references()
    unread = [label for label, name in public_definitions() if name not in used]
    assert not unread, f"public names that only tests use: {unread}"


def test_package_init_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
