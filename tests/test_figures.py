"""Regression net: every artifact of scripts/reproduce_outputs.py, made
afresh into a temporary directory, matches the tracked ``outputs/``.

Only the script's RUNS table is imported; its main() wipes ``outputs/`` and
is never called here.  Numbers are compared at a relative tolerance of
1e-9 (plus an absolute slack of 1e-12 times the file's largest number, for
values at rounding level); all other text must be equal.
"""
import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest

from evolutes.cli import entry

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUTS = ROOT / "outputs"
_NUMBER = re.compile(
    r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b)")


def _runs():
    path = ROOT / "scripts" / "reproduce_outputs.py"
    spec = importlib.util.spec_from_file_location("_reproduce_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [list(run) for run in module.RUNS]


RUNS = _runs()


def _skeleton_and_numbers(text, name):
    if name.endswith(".json"):       # key order and layout are canonical
        text = json.dumps(json.loads(text), indent=1, sort_keys=True)
    return _NUMBER.sub("#", text), np.array(
        [float(x) for x in _NUMBER.findall(text)])


@pytest.mark.parametrize("run", RUNS, ids=[r[r.index("--out") + 1]
                                           for r in RUNS])
def test_artifact_matches_tracked_output(run, tmp_path, capsys):
    name = run[run.index("--out") + 1]
    argv = list(run)
    argv[argv.index("--out") + 1] = str(tmp_path / name)
    assert entry(argv) == 0, capsys.readouterr().err
    got, got_nums = _skeleton_and_numbers(
        (tmp_path / name).read_text(encoding="utf-8"), name)
    want, want_nums = _skeleton_and_numbers(
        (OUTPUTS / name).read_text(encoding="utf-8"), name)
    assert got == want
    scale = max(1.0, float(np.max(np.abs(want_nums), initial=0.0)))
    np.testing.assert_allclose(got_nums, want_nums, rtol=1e-9,
                               atol=1e-12 * scale)
