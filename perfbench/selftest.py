#!/usr/bin/env python3
"""Self-tests of the benchmark.  From the repository root:

    python3 perfbench/selftest.py

1. One seed gives one job list, and two traced runs with that seed give
   identical per-layer counts, on every workload.
2. A second seed gives different fresh-curves inputs; the workload's draw
   holds no planar curve, and the census draw keeps its planar ones.
3.Running the benchmark changes no file of the checkout outside the
   directory it is allowed to write (.bench_run) and the bytecode caches.

Exits 1 if any check fails.  Takes a few minutes: six short traced runs.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import COUNT_NAMES, SPAN_NAMES  # noqa: E402

WORKLOADS = ("figures", "dense-sampling", "fresh-curves")
_SKIP = {".git", ".bench_run", "__pycache__"}


def snapshot() -> dict:
    out = {}
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if path.is_file() and not _SKIP.intersection(rel.parts):
            out[str(rel)] = hashlib.sha1(path.read_bytes()).hexdigest()
    return out


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    names = [f"{s}.calls" for s in SPAN_NAMES] + list(COUNT_NAMES)
    return {name: metrics[name]["value"] for name in names}


def main() -> int:
    failures = []

    def check(ok: bool, what: str):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    before = snapshot()

    a, b = workloads.FreshCurves(7), workloads.FreshCurves(7)
    check(all(a.jobs(p) == b.jobs(p) for p in range(3)),
          "fresh-curves: one seed, one job list")
    check(workloads.dense_jobs() == workloads.dense_jobs()
          and workloads.figures_jobs(ROOT) == workloads.figures_jobs(ROOT),
          "figures, dense-sampling: fixed job lists")
    other = workloads.FreshCurves(8)
    fresh_a = {job.argv for job in a.jobs(0)}
    fresh_b = {job.argv for job in other.jobs(0)}
    check(not fresh_a & fresh_b,
          "fresh-curves: a second seed gives different inputs")
    census = workloads.FreshCurves(7, degenerate=True)
    check(not any(twin.planar() for twin in a.twins)
          and any(twin.planar() for twin in census.twins),
          "fresh-curves: space curves only; the census draw keeps planar ones")

    for name in WORKLOADS:
        first, second = traced_counts(name, 7), traced_counts(name, 7)
        diff = sorted(k for k in first if first[k] != second[k])
        check(not diff, f"{name}: per-layer counts repeat across traced runs"
              + (f" (differ: {', '.join(diff)})" if diff else ""))
        check(first["cli.entry.calls"] > 0, f"{name}: spans were recorded")

    after = snapshot()
    changed = sorted(set(before.items()) ^ set(after.items()))
    check(not changed, "no file of the checkout changed"
          + (f" ({', '.join(sorted({p for p, _ in changed}))})"
             if changed else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
