"""pyproject.toml and the package docstring declare only what ships, the
benchmark's layer tracing finds every name it wraps, and no check in the
package is an assert statement."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import frlimits
from frlimits.intlin import Lattice

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
META = tomllib.loads((ROOT / "pyproject.toml").read_text())
SETUPTOOLS = META["tool"]["setuptools"]


def test_script_targets_import():
    for name, target in META["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_data_globs_match_files():
    src = ROOT / SETUPTOOLS["packages"]["find"]["where"][0]
    for package, patterns in SETUPTOOLS.get("package-data", {}).items():
        for pattern in patterns:
            assert list((src / package.replace(".", "/")).glob(pattern)), pattern


def test_docstring_lists_the_submodules():
    _, _, listing = frlimits.__doc__.partition("Submodules:")
    listed = [line.split("--")[0].strip() for line in listing.strip().splitlines()]
    shipped = [m.name for m in pkgutil.iter_modules(frlimits.__path__)]
    assert sorted(listed) == sorted(shipped)


def test_trace_targets_resolve():
    # bench/layertrace.py wraps these names from outside the package; a
    # renamed one would only fail a traced benchmark run
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for _, module, attr in layertrace.SPANS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module, attr)
    # its counters read these with getattr defaults, so a rename would
    # make them silently wrong
    lat = Lattice(2)
    assert lat._canonical is True and lat.big is False


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one
    # vanishes; the package raises explicitly instead
    hits = []
    for path in sorted((ROOT / "src" / "frlimits").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        hits += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not hits, hits
