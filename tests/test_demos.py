"""Every script in ``demos/`` runs to completion against the current API.

Each demo runs in-process through ``runpy`` with stdout captured, from a
temporary working directory, with temporary files kept under it too.
"""

import contextlib
import io
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert [p.name for p in DEMOS] == [
        "circles_classification.py", "csv_workflow.py", "kernel_gallery.py",
        "loss_landscape.py", "peaks_regression.py", "update_rules.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue().strip()
