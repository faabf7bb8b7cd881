"""pyproject.toml declares only what ships."""

import importlib
from pathlib import Path

import pytest

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
