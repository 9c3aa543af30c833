"""The package's public surface is what the program itself uses: every
module-level public function and class in ``src/pfsensor`` has a reader in
``src/`` or ``scripts/``, not only in the tests."""

import ast
import os
import subprocess
import sys
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


# Run in a fresh interpreter: the modules loaded by the time a config is
# parsed and its quadrature rule built, for a Gaussian and then a KDE.
IMPORT_PROBE = """
import sys
from pfsensor import cli  # noqa: F401  (the console script's import)
from pfsensor.config import parse_config
from pfsensor.pipeline import make_distribution
from pfsensor.uncertainty import quadrature_rule

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.special")
for path in sys.argv[1:]:
    cfg = parse_config(path)
    quadrature_rule(make_distribution(cfg), cfg.cdf_points)
    print(" ".join(name for name in HEAVY if name in sys.modules))
"""


def test_commands_load_neither_scipy_integrate_nor_optimize(tmp_path):
    (tmp_path / "data.txt").write_text("0.42 0.47 0.5 0.51 0.55 0.61\n")
    configs = []
    for name, distribution in [("gaussian", "gaussian 0.5 0.05"), ("kde", "kde data.txt")]:
        path = tmp_path / f"{name}.cfg"
        path.write_text(
            "dims = 4 4 1\nspacing = 0.1 0.1 0.1\ndt = 0.01\nsteps = 2\n"
            f"family = vortex\ndistribution = {distribution}\ncdf_points = 0 0.5 1\n"
        )
        configs.append(str(path))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *configs],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    gaussian, kde = run.stdout.splitlines()
    assert gaussian == ""
    # the KDE's normalization takes scipy's erf, bit for bit
    assert kde == "scipy.special"
