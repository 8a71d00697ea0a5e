"""The package's version lives in two literals, risim.__version__ and the
[project] version of pyproject.toml; they must name one version."""

from pathlib import Path

import pytest

import risim

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_version_matches_pyproject():
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert risim.__version__ == project["version"]
