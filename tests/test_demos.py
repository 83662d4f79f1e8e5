"""Every script in ``demos/`` and the README's library quick start run to
completion against the current API, and the README's model archive table
is the archive's members.

Each demo runs in-process through ``runpy`` with stdout captured, from a
temporary working directory, with temporary files kept under it too.
"""

import contextlib
import io
import re
import runpy
import tempfile
from pathlib import Path

import pytest

from kfpls import KernelSpec, fit_kpls, gen_peaks, save_calibrated_model
from kfpls._serialize import read_array_archive
from kfpls.kpls import _MEMBERS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md (library quick start)", "exec"), {})
    assert (tmp_path / "model.kfpls").exists()


def test_readme_archive_table_is_the_archive_members(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Model archive", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| \(([\w, ]*)\)", section, flags=re.M)
    ds = gen_peaks(12, 0.05, seed=1)
    path = tmp_path / "model.kfpls"
    save_calibrated_model(path, fit_kpls(ds.X_cal, ds.Y_cal, 2, KernelSpec.create("gaussian")),
                          ds)
    assert sorted(name for name, _, _ in rows) == sorted(read_array_archive(path))
    kinds = {"integer": "iu", "boolean": "b", "float": "f", "string": "U"}
    for name, kind, shape in rows:
        assert _MEMBERS[name][:2] == (kinds[kind], tuple(re.findall(r"\w", shape))), name
