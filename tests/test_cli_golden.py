"""Byte-for-byte CSV output of small CLI commands against committed files.

``test_cli.py`` pins the column formats; these files pin the values.  Each
file under ``tests/golden/`` is the CSV the command wrote when the file was
committed, and it reads the same with one or two OpenBLAS threads.  A change
that alters any printed digit fails here; if the change is intended, announce
it in CHANGES.md and rewrite the file with the command in ``GOLDEN``.
"""

from pathlib import Path

import pytest

from kitaev_chain import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

GRID = ["--n", "8", "--mu-grid", "0,1,3", "--w-grid", "0.5,1"]

GOLDEN = {
    "spectrum_open.csv": ["spectrum", "--n", "12"],
    "spectrum_periodic.csv": ["spectrum", "--n", "12", "--boundary", "periodic"],
    "particles.csv": ["particles", *GRID],
    "energy_accuracy.csv": ["energy-accuracy", *GRID],
    "zscan.csv": ["zscan", "--mu-grid", "0,3", "--two-w-grid", "2,4", "--n-schedule", "8:32:8"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_matches_golden_file(name, tmp_path):
    out = tmp_path / name
    assert cli.main([*GOLDEN[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
