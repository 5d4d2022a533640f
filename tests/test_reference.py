"""Preset rows against the committed reference files in ``tests/reference``.

The files are ``branlab preset <name> --seed 3`` for every
preset; regenerate them with the command in README's "Install and test"
section, never by hand.  The five analytic presets are re-run here.  The
two simulated ones (fig9, fig11) take seconds, so CI compares them byte
for byte instead.
"""

import csv
import math
from pathlib import Path

import pytest

from branlab.scenarios import list_presets, run_preset

REFERENCE = Path(__file__).parent / "reference"

# Numeric cells agree to this relative tolerance; every other cell matches
# exactly.  CI installs unpinned scipy, whose SuperLU may differ from the
# reference machine's in the last bits, and the attack cells are sums of
# libm's lgamma, exp and log, which may differ too.
REL_TOL = 1e-9


def _read(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def _agree(actual: str, expected: str) -> bool:
    if actual == expected:
        return True
    try:
        return math.isclose(float(actual), float(expected), rel_tol=REL_TOL, abs_tol=0.0)
    except ValueError:
        return False


@pytest.mark.parametrize("name", ["fig6", "fig7", "fig8", "fig10", "fig12"])
def test_analytic_preset_matches_reference(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    run_preset(name, out, seed=3)
    (header, *rows), (ref_header, *ref_rows) = _read(out), _read(REFERENCE / f"{name}.csv")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for index, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        assert len(row) == len(ref_row) == len(header)
        for column, actual, expected in zip(header, row, ref_row):
            assert _agree(actual, expected), (index, column, actual, expected)


def test_reference_files_cover_every_preset():
    names = {path.stem for path in REFERENCE.glob("*.csv")}
    assert names == {name for name, _ in list_presets()}
