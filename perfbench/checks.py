"""Output checks.  Each returns None when the output is right, or the cause
of the failure as a short string.

* figures: every number of each artifact against the reference recorded at
  the seed (the committed ``outputs/`` plus the --ktau row), rtol 1e-9.
* dense-sampling: a strided subsample of every output against the
  reference recorded at the seed.
* fresh-curves: the exit-code contract, and for evolutes of expression
  curves a 4-point sphere fit computed from the generator's own numpy
  evaluation of the curve, independent of the package.
"""
from __future__ import annotations

import gzip
import json
import math
import re
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-9
ATOL_SCALE = 1e-12      # absolute slack, relative to the file's largest number

# Causes that mean a written number is wrong, as opposed to a job that did
# not finish or broke the exit-code contract.
WRONG = "wrong numbers"

_NUMBER = re.compile(
    r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def _close(got, want, scale) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    same_special = (np.isnan(got) & np.isnan(want)) | (got == want)
    with np.errstate(invalid="ignore"):
        near = np.abs(got - want) <= RTOL * np.maximum(np.abs(got), np.abs(want)) \
            + ATOL_SCALE * scale
    return bool(np.all(same_special | near))


def _scale(values) -> float:
    values = np.abs(np.asarray(values, dtype=float))
    finite = values[np.isfinite(values)]
    return max(1.0, float(finite.max())) if finite.size else 1.0


# ------------------------------------------------------------------ figures

def load_figures_reference() -> dict:
    with gzip.open(REFERENCE / "figures.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _json_leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _json_leaves(node[key], f"{path}/{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _json_leaves(item, f"{path}/{i}")
    else:
        yield path, node


def compare_text(got: str, want: str, name: str) -> str | None:
    """Every number within rtol of the reference, everything else equal."""
    if name.endswith(".json"):
        got_leaves = list(_json_leaves(json.loads(got)))
        want_leaves = list(_json_leaves(json.loads(want)))
        if [p for p, _ in got_leaves] != [p for p, _ in want_leaves]:
            return WRONG
        nums = [(g, w) for (_, g), (_, w) in zip(got_leaves, want_leaves)
                if isinstance(w, float) or (isinstance(w, int)
                                            and not isinstance(w, bool))]
        others = [(g, w) for (_, g), (_, w) in zip(got_leaves, want_leaves)
                  if not (isinstance(w, (int, float))
                          and not isinstance(w, bool))]
        if any(g != w or type(g) is not type(w) for g, w in others):
            return WRONG
        if nums and not _close([g if isinstance(g, (int, float)) else math.nan
                                for g, _ in nums], [w for _, w in nums],
                               _scale([w for _, w in nums])):
            return WRONG
        return None
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return WRONG
    want_nums = [float(x) for x in _NUMBER.findall(want)]
    got_nums = [float(x) for x in _NUMBER.findall(got)]
    return None if _close(got_nums, want_nums, _scale(want_nums)) else WRONG


def check_figure(outcome, reference: dict) -> str | None:
    cause = contract(outcome, expect_code=0)
    if cause:
        return cause
    want = reference.get(outcome.job.out)
    if want is None:
        return "no reference"
    return compare_text(outcome.path.read_text(encoding="utf-8"), want,
                        outcome.job.out)


# ----------------------------------------------------------- dense-sampling

DENSE_ROWS = 64         # rows kept per output in the reference


def load_dense_reference() -> dict:
    return json.loads((REFERENCE / "dense.json").read_text(encoding="utf-8"))


def dense_sample(outcome) -> dict:
    """The strided subsample of one dense-sampling output that is recorded
    in, and compared with, the reference."""
    if outcome.job.call:
        arr = np.asarray(outcome.value, dtype=float)
        axis = int(np.argmax(arr.shape))        # the sample axis
        n = arr.shape[axis]
        idx = np.linspace(0, n - 1, DENSE_ROWS).astype(int)
        sub = np.take(arr, idx, axis=axis)
        return {"shape": list(arr.shape),
                "values": [None if not math.isfinite(v) else v
                           for v in sub.ravel().tolist()]}
    lines = outcome.path.read_text(encoding="utf-8").splitlines()
    if outcome.job.out.endswith(".obj"):
        head = [ln for ln in lines if not ln.startswith("v ")]
        rows = [ln for ln in lines if ln.startswith("v ")]
        shape = [len(rows), len(head)]
        head = head[:2]
    else:
        head, rows = lines[:1], lines[1:]
        shape = [len(rows)]
    idx = np.linspace(0, len(rows) - 1, DENSE_ROWS).astype(int) if rows else []
    values = [float(x) for i in idx for x in _NUMBER.findall(rows[i])]
    return {"shape": shape, "head": head,
            "values": [None if not math.isfinite(v) else v for v in values]}


def check_dense(outcome, reference: dict) -> str | None:
    cause = contract(outcome, expect_code=None if outcome.job.call else 0)
    if cause:
        return cause
    key = outcome.job.call or outcome.job.out
    want = reference.get(key)
    if want is None:
        return "no reference"
    got = dense_sample(outcome)
    if got["shape"] != want["shape"] or got.get("head") != want.get("head"):
        return WRONG

    def arr(vals):
        return np.array([math.nan if v is None else v for v in vals])

    w = arr(want["values"])
    return None if _close(arr(got["values"]), w, _scale(w)) else WRONG


# ------------------------------------------------------------- fresh-curves

def contract(outcome, expect_code=(0, 3)) -> str | None:
    """The exit-code contract: the job returned, with an allowed code, and
    a success left a non-empty file of finite numbers."""
    if outcome.error:
        kind = outcome.error.split(":", 1)[0]
        return f"runaway ({kind})" if outcome.stopped else f"exception ({kind})"
    if expect_code is None:                      # library call
        return None
    allowed = expect_code if isinstance(expect_code, tuple) else (expect_code,)
    if outcome.code not in allowed:
        return f"exit {outcome.code}"
    if outcome.code != 0:
        return None
    if outcome.path is None or not outcome.path.exists():
        return "no output"
    text = outcome.path.read_text(encoding="utf-8")
    if outcome.job.out.endswith(".csv"):
        rows = text.splitlines()[1:]
        if not rows:
            return "header-only output"
        if not all(math.isfinite(float(v)) for row in rows
                   for v in row.split(",")):
            return "non-finite values"
    elif not text.strip() or text.strip() in ("{}", "[]"):
        return "empty output"
    return None


def _sphere_center(points):
    # |P|^2 = 2 c.P + d is linear in (c, d)
    A = np.hstack([2.0 * points, np.ones((4, 1))])
    return np.linalg.solve(A, np.sum(points * points, axis=1))[:3]


ORACLE_ROWS = 5
ORACLE_TOL = 1e-3       # relative to 1 + radius; the fit's own error is
#                         below 1e-4 on the draws it was tried on


def check_fresh(outcome, lam: float) -> str | None:
    cause = contract(outcome)
    if cause or outcome.code != 0:
        return cause
    job = outcome.job
    if job.argv[0] != "evolute" or job.twin.kind != "expr":
        return None
    rows = np.loadtxt(outcome.path, delimiter=",", skiprows=1, ndmin=2)
    length = lam * (job.twin.domain[1] - job.twin.domain[0])
    for row in rows[np.linspace(0, len(rows) - 1, ORACLE_ROWS).astype(int)]:
        t, center = row[0], row[1:4]
        radius = np.linalg.norm(center - job.twin.points(lam, [t])[0])
        best = math.inf
        for h in (1e-2, 3e-3, 1e-3, 3e-4):
            h *= length
            ts = t + h * np.array([-1.5, -0.5, 0.5, 1.5])
            try:
                with np.errstate(all="ignore"):
                    fit = _sphere_center(job.twin.points(lam, ts))
            except np.linalg.LinAlgError:
                continue
            best = min(best, float(np.linalg.norm(fit - center)))
        if not best <= ORACLE_TOL * (1.0 + radius):
            return WRONG
    return None
