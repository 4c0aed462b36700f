"""Smoke tests of the demos: each one's ``main()`` runs to the end without error."""

import importlib.util
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["particle_surface", "spectrum_accuracy", "z_saturation"])
def test_demo_main_runs(name, capsys):
    path = DEMO_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"demo_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
