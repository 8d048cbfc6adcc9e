#!/usr/bin/env python3
"""Failure census of the unfiltered fresh-curves draw.

    python3 perfbench/census.py --seed N

The fresh-curves workload of run.py draws only space curves, so that none
of its jobs fails and its timings compare across changes.  This script runs
one pass of the draw without that filter: planar shapes (a constant
component) and nearly planar ones (a proportional component, then perturbed)
are kept, through the same five commands, the same runaway guard and the
same checks.  It prints the fail ratio and the failed jobs by cause; see
perfbench/README.md for the causes at the seed.  It measures no time.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "evolutes" / "__init__.py").is_file():
        print(f"no evolutes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checks
    import run
    import workloads
    from runner import Runner

    draw = workloads.FreshCurves(args.seed, degenerate=True)
    run.WORKDIR.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="census-", dir=run.WORKDIR))
    failed = {}
    try:
        runner = Runner(outdir, run.GUARD_S, run.FRESH_HEADROOM_MB)
        jobs = draw.jobs(0)
        for job in jobs:
            cause = checks.check_fresh(runner.run(job), draw.scale(0))
            if cause is not None:
                failed.setdefault(cause, []).append(job)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    total = sum(len(v) for v in failed.values())
    print(f"fresh-curves census, seed {args.seed}, degenerate shapes kept: "
          f"{total}/{len(jobs)} jobs failed")
    for cause, items in sorted(failed.items()):
        print(f"  {cause}: {len(items)} jobs")
        for job in items:
            print(f"    {job.label}: {' '.join(job.argv)[:200]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
