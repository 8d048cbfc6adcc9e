#!/usr/bin/env python3
"""Record the reference outputs the figures and dense-sampling checks compare
against.  Run from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

figures: every artifact of the figures job list, which must match the
committed outputs/ byte for byte (the --ktau row has no committed artifact).
dense-sampling: a strided subsample of every output.
"""
from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from runner import Runner  # noqa: E402


def main() -> int:
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".bench_run"))
    try:
        runner = Runner(work)
        figures = {}
        for job in workloads.figures_jobs(ROOT):
            out = runner.run(job)
            if out.code != 0:
                print(f"exit {out.code}: {job.label}", file=sys.stderr)
                return 1
            text = out.path.read_text(encoding="utf-8")
            committed = ROOT / "outputs" / job.out
            if committed.exists() and committed.read_text(encoding="utf-8") != text:
                print(f"differs from outputs/{job.out}", file=sys.stderr)
                return 1
            figures[job.out] = text
        dense = {}
        for job in workloads.dense_jobs():
            out = runner.run(job)
            if out.error or out.code not in (None, 0):
                print(f"failed: {job.label} {out.error}", file=sys.stderr)
                return 1
            dense[job.call or job.out] = checks.dense_sample(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = checks.REFERENCE
    ref.mkdir(exist_ok=True)
    with gzip.GzipFile(ref / "figures.json.gz", "wb", mtime=0) as fh:
        fh.write(json.dumps(figures, sort_keys=True).encode("utf-8"))
    (ref / "dense.json").write_text(json.dumps(dense, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(f"recorded {len(figures)} figures and {len(dense)} dense outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
