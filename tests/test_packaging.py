"""The package installs from its own metadata: ``setup.py`` names it."""

from __future__ import annotations

import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
import setuptools

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_setup_py_reports_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    assert completed.stdout.split() == ["repro", repro.__version__]
    assert repro.__version__ == "1.0.0"


@pytest.fixture(scope="module")
def metadata():
    """The keyword arguments ``setup.py`` hands to ``setuptools.setup``."""
    captured = {}
    patch = pytest.MonkeyPatch()
    patch.setattr(setuptools, "setup", lambda **kwargs: captured.update(kwargs))
    patch.chdir(ROOT)
    try:
        runpy.run_path(str(ROOT / "setup.py"), run_name="__main__")
    finally:
        patch.undo()
    return captured


def test_every_package_directory_is_packaged(metadata):
    assert metadata["package_dir"] == {"": "src"}
    on_disk = {
        ".".join(init.parent.relative_to(SRC).parts)
        for init in SRC.rglob("__init__.py")
    }
    assert set(metadata["packages"]) == on_disk
    assert "repro" in on_disk


def test_package_data_files_exist(metadata):
    for package, patterns in metadata["package_data"].items():
        directory = SRC.joinpath(*package.split("."))
        for pattern in patterns:
            assert list(directory.glob(pattern)), f"{package}: no {pattern}"


def test_console_script_resolves_to_the_cli(metadata):
    (script,) = metadata["entry_points"]["console_scripts"]
    name, target = (part.strip() for part in script.split("="))
    module_name, attribute = target.split(":")
    assert name == "repro"
    assert getattr(importlib.import_module(module_name), attribute) is repro.cli.main


def test_numpy_is_a_declared_requirement(metadata):
    # repro/__init__ imports modelpart, which imports numpy at load time.
    assert "numpy" in metadata["install_requires"]
    assert "numpy" in sys.modules


def test_running_interpreter_satisfies_python_requires(metadata):
    minimum = tuple(int(part) for part in metadata["python_requires"][2:].split("."))
    assert metadata["python_requires"].startswith(">=")
    assert sys.version_info[: len(minimum)] >= minimum
