"""The package's public surface is what the program itself uses: every
module-level public function and class in ``src/pfsensor``, and every public
method, property and dataclass field of its classes, has a reader in
``src/`` or ``scripts/``, not only in the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfsensor import _compiled

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pfsensor"


def program_nodes():
    """(path, node) for every syntax-tree node of src/ and scripts/."""
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def program_references() -> set[str]:
    """Every name that a Name, an Attribute or an import in src/ or scripts/
    refers to. An import in the package's ``__init__`` is a re-export, not a
    use, so it does not count; neither do mentions in docstrings."""
    names = set()
    for path, node in program_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def program_attribute_reads() -> set[str]:
    """Every attribute name that src/ or scripts/ reads (loads)."""
    return {
        node.attr
        for _, node in program_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def public_members() -> list[tuple[str, str]]:
    """(module.Class.name, name) of each public method, property and
    annotated field in the body of a module-level class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    found.append((f"{path.stem}.{cls.name}.{name}", name))
    return found


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


def test_every_public_member_is_read_by_the_program():
    read = program_attribute_reads()
    members = public_members()
    assert "placement.SensorPlan.covered_by" in dict(members)
    unread = [label for label, name in members if name not in read]
    assert not unread, f"public members that only tests read: {unread}"


def test_cli_imports_only_config_and_pipeline_from_the_package():
    # the CLI parses, dispatches and prints; pipeline runs every command
    sources = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            sources.add("." * node.level + (node.module or ""))
    assert {s for s in sources if s.startswith((".", "pfsensor"))} == {".config", ".pipeline"}


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


def probe_env() -> dict:
    """The environment of a fresh interpreter that imports pfsensor from src/."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_commands_load_neither_scipy_integrate_nor_optimize(tmp_path):
    # nor scipy.special: both distributions normalise with math.erf
    (tmp_path / "data.txt").write_text("0.42 0.47 0.5 0.51 0.55 0.61\n")
    configs = []
    for name, distribution in [("gaussian", "gaussian 0.5 0.05"), ("kde", "kde data.txt")]:
        path = tmp_path / f"{name}.cfg"
        path.write_text(
            "dims = 4 4 1\nspacing = 0.1 0.1 0.1\ndt = 0.01\nsteps = 2\n"
            f"family = vortex\ndistribution = {distribution}\ncdf_points = 0 0.5 1\n"
        )
        configs.append(str(path))
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *configs],
        capture_output=True, text=True, env=probe_env(), check=True, timeout=120,
    )
    assert run.stdout.splitlines() == ["", ""]


# Run in a fresh interpreter: the scipy modules loaded by pfsensor's import,
# then by every command that builds operators, patterns or a PDE reference;
# and whether the thread pool's module is loaded after those one-worker runs
# and after a two-worker place.
COMMAND_PROBE = """
import sys
from pfsensor.cli import main

def loaded():
    print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))

def run(*command):
    if main([*command, "--config", sys.argv[1]]) != 0:
        sys.exit(f"{command[0]} failed")

loaded()
runs = (["build"], ["place"], ["validate"], ["converge", "--samples", "3", "5"], ["propagate"])
for command in runs:
    run(*command)
print("pool", "concurrent.futures" in sys.modules)
run("place", "--workers", "2")
print("pool", "concurrent.futures" in sys.modules)
loaded()
"""
# The scipy modules that compiled dqagse imports on its first call: its
# callback check looks up scipy._lib._ccallback.LowLevelCallable.
CALLBACK_PROBE = """
import sys
import scipy._lib._ccallback
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_commands_import_no_scipy_module_but_dqagse_callback_type(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "dims = 10 10 1\nspacing = 0.1 0.1 0.2\ndiffusivity = 1e-4\ndt = 0.02\n"
        "steps = 10\nfamily = vortex\ndistribution = gaussian 0.5 0.05\n"
        "cdf_points = 0 0.5 1\neps_acc = 3e-4\nsensors = 2\nvalidate_tol = 1\n"
        f"out = {tmp_path / 'out'}\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", probe, str(config)],
            capture_output=True, text=True, env=probe_env(), timeout=120,
        )
        for probe in (COMMAND_PROBE, CALLBACK_PROBE)
    ]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    commands, callback = (run.stdout.splitlines() for run in runs)
    assert commands[0] == "[]"
    # one worker runs each scenario in turn; only two import the thread pool
    pool = [line for line in commands if line.startswith("pool ")]
    assert pool == ["pool False", "pool True"]
    assert commands[-1] == callback[-1]


def test_loader_names_a_missing_extension_file():
    with pytest.raises(ImportError, match=r"compiled sparse/_absent not found in .*sparse$"):
        _compiled._load("sparse", "_absent")
