"""Packaging metadata: ``pyproject.toml`` must describe the importable package."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture(scope="module")
def project() -> dict:
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_version_matches_package(project):
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__


def test_runtime_dependencies(project):
    assert sorted(project["dependencies"]) == ["networkx", "numpy"]


def test_console_script_resolves(project):
    module, _, attr = project["scripts"]["repro"].partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert main(["table1"]) == 0
