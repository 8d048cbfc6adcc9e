#!/usr/bin/env python3
"""Benchmark of the evolutes package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (figures, dense-sampling or fresh-curves) in this one
process, checks every output, prints a summary and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 passes with and without
layer tracing alternate and the metrics are the per-layer ones.  See
perfbench/README.md for the workloads and the metrics.
"""
from __future__ import annotations

import os

# one process, no extra threads: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".bench_run"
SETUP_PROBES = 7
GUARD_S = 30.0          # wall-clock limit of any one job
FRESH_HEADROOM_MB = 128  # data-size cap above the process, fresh-curves only

# Time metrics are normalized by a reference kernel run between jobs: the
# speed of a shared machine drifts by a quarter over tens of seconds, and the
# kernel, a fixed mix of interpreter work and small numpy operations like the
# package's own, drifts with it.  A job's seconds are scaled by
# REFERENCE_KERNEL_S / (the median kernel duration over the KERNEL_WINDOW
# runs on either side of the job), so they read as seconds on a machine that
# runs the kernel in REFERENCE_KERNEL_S.  The window smooths the kernel's own
# jitter while following the drift.
KERNEL_WINDOW = 6
REFERENCE_KERNEL_S = 0.005
_KERNEL_ARRAY = np.linspace(0.0, 1.0, 1024)


def reference_kernel() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    x = _KERNEL_ARRAY
    for _ in range(300):
        x = np.sin(x) * 0.5 + np.cumsum(x) * 1e-4
    return time.perf_counter() - start


def normalize(seconds, kernels) -> list:
    """seconds[i] ran between kernels[i] and kernels[i + 1]."""
    out = []
    for i, took in enumerate(seconds):
        near = kernels[max(0, i + 1 - KERNEL_WINDOW):i + 1 + KERNEL_WINDOW]
        out.append(took * REFERENCE_KERNEL_S / statistics.median(near))
    return out


# a fresh interpreter doing what the `evolutes` console script does
_PROBE = ("import sys; sys.path.insert(0, 'src'); "
          "from evolutes.cli import entry; sys.exit(entry(sys.argv[1:]))")


@dataclass
class Workload:
    jobs: Callable[[int], list]                 # pass index -> job list
    check: Callable                             # (outcome, pass) -> cause
    headroom_mb: int | None = None


def make_workload(name: str, seed: int) -> Workload:
    import checks
    import workloads

    if name == "figures":
        jobs = workloads.figures_jobs(ROOT)
        ref = checks.load_figures_reference()
        return Workload(lambda p: jobs,
                        lambda out, p: checks.check_figure(out, ref))
    if name == "dense-sampling":
        jobs = workloads.dense_jobs()
        ref = checks.load_dense_reference()
        return Workload(lambda p: jobs,
                        lambda out, p: checks.check_dense(out, ref))
    if name == "fresh-curves":
        draw = workloads.FreshCurves(seed)
        return Workload(draw.jobs,
                        lambda out, p: checks.check_fresh(out, draw.scale(p)),
                        headroom_mb=FRESH_HEADROOM_MB)
    raise SystemExit(f"unknown workload {name!r}")


def quantile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]) if len(values) > 1 else float(values[0])


class Bench:
    def __init__(self, workload: Workload, outdir: Path, tracer=None):
        from runner import Runner

        self.workload = workload
        self.runner = Runner(outdir, GUARD_S, workload.headroom_mb)
        self.tracer = tracer
        self.attempted = 0
        self.failures = {}          # (cause, label) -> [times seen, argv]
        self.correct = True
        self.job_id = 0

    def run_pass(self, index: int, traced: bool = False,
                 limit: int | None = None) -> tuple:
        """Run one pass; returns the normalized and the raw seconds of each
        job that returned.  A job the guard stopped has no latency of its
        own, only the guard's: it counts as failed and in no time metric."""
        from checks import WRONG

        raw, stopped = [], []
        jobs = self.workload.jobs(index)[:limit]
        if traced:
            self.tracer.install()
            self.tracer.active = True
        kernels = [reference_kernel()]
        for job in jobs:
            self.job_id += 1
            if traced:
                self.tracer.begin_job(self.job_id)
            out = self.runner.run(job)
            cause = self.workload.check(out, index)
            if traced:
                if job.call and out.value is not None:
                    # library results are sampled along their longest axis
                    self.tracer.count("output.points", max(out.value.shape))
                self.tracer.end_job(keep=not out.stopped)
            self.attempted += 1
            if cause is not None:
                seen = self.failures.setdefault((cause, job.label),
                                                [0, " ".join(job.argv)])
                seen[0] += 1
                self.correct &= cause != WRONG
            raw.append(out.seconds)
            stopped.append(out.stopped)
            kernels.append(reference_kernel())
        if traced:
            self.tracer.active = False
            self.tracer.remove()
        seconds = normalize(raw, kernels)
        keep = [i for i, s in enumerate(stopped) if not s]
        return [seconds[i] for i in keep], [raw[i] for i in keep]


def probe_setup(bench: Bench, outdir: Path) -> list:
    """Set-up seconds, SETUP_PROBES times: a fresh interpreter imports the
    package and finishes the workload's first job (a CLI job), minus the
    same job run warm in this process right after it.  Pairing each cold
    run with a warm one cancels the machine's slow drift; both are scaled by
    the median reference kernel time over the probes."""
    first = bench.workload.jobs(0)[0]
    argv = [*first.argv, "--out", str(outdir / f"probe-{first.out}")]
    cold, warm, kernels = [], [], [reference_kernel()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=120, check=False)
        cold.append(time.perf_counter() - start)
        kernels.append(reference_kernel())
        warm += bench.run_pass(0, limit=1)[1]
    scale = REFERENCE_KERNEL_S / statistics.median(kernels)
    return [(c - w) * scale for c, w in zip(cold, warm)]


def measure(bench: Bench, seconds: float, trace: bool):
    """Passes until the time is spent.  Returns the untraced and traced
    passes (lists of per-job seconds), the traced figures and the raw
    seconds of each untraced pass."""
    plain, traced, snapshots, raw = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        use_trace = trace and len(traced) < len(plain)
        start = time.perf_counter()
        times, raw_times = bench.run_pass(index, traced=use_trace)
        (traced if use_trace else plain).append(times)
        if not use_trace:
            raw.append(sum(raw_times))
        if use_trace:
            snapshots.append(bench.tracer.take())
        index += 1
        took = time.perf_counter() - start
        done = plain and (traced or not trace)
        if done and time.perf_counter() + took > deadline:
            return plain, traced, snapshots, raw


def end_to_end(plain, setup) -> dict:
    walls = [sum(p) for p in plain]
    jobs = [t for p in plain for t in p]
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "job_p50_s": (quantile(jobs, 0.5), "s", len(jobs)),
        "job_p90_s": (quantile(jobs, 0.9), "s", len(jobs)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }


def per_layer(plain, traced, snapshots) -> dict:
    from layers import COUNT_NAMES, COUNT_UNITS, SPAN_NAMES

    first_stats, first_counts = snapshots[0]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (first_stats.get(name, (0, 0, 0))[0], "count",
                                1)
        for i, field in ((1, "time_s"), (2, "self_s")):
            out[f"{name}.{field}"] = (statistics.median(
                s.get(name, (0, 0.0, 0.0))[i] for s, _ in snapshots), "s",
                len(snapshots))
    points = first_counts.get("output.points", 0)
    first_counts["curves.evals_per_point"] = (
        first_counts.get("curves.derivatives.points", 0) / points
        if points else 0.0)
    for name in COUNT_NAMES:
        out[name] = (first_counts.get(name, 0), COUNT_UNITS.get(name, "count"),
                     1)
    out["trace.overhead"] = (statistics.median(sum(p) for p in traced)
                             / statistics.median(sum(p) for p in plain),
                             "ratio", len(traced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "dense-sampling", "fresh-curves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evolutes" / "__init__.py").is_file():
        print(f"no evolutes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "scripts" / "reproduce_outputs.py").is_file():
        print("scripts/reproduce_outputs.py is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import evolutes.cli  # noqa: F401  compiles the package once

    # One CPU for the run and the set-up probes it starts: the CPUs of a
    # shared machine run at different speeds, and the reference kernel only
    # normalizes work done on the CPU it ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    WORKDIR.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="out-", dir=WORKDIR))
    try:
        workload = make_workload(args.workload, args.seed)
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
        bench = Bench(workload, outdir, tracer)
        # The warm-up: the first job, which makes the lazy imports the
        # workload needs (figures and fresh-curves start with a
        # curvature/torsion job, which imports scipy.integrate).  The rest
        # of a first pass costs within a few per cent of later ones.
        bench.run_pass(0, limit=1)
        setup = [] if args.trace else probe_setup(bench, outdir)
        plain, traced, snapshots, raw = measure(bench, args.seconds,
                                                bool(args.trace))
        if tracer is not None:
            tracer.write(WORKDIR / f"trace-{args.workload}.tsv")
            metrics = per_layer(plain, traced, snapshots)
        else:
            metrics = end_to_end(plain, setup)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failed = sum(n for n, _ in bench.failures.values())
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(plain)} untraced + {len(traced)} traced"
          f" (after one warm-up job)"
          f"  raw wall seconds per untraced pass: "
          f"{' '.join(f'{w:.3f}' for w in raw)}")
    if setup:
        print(f"  set-up probes (s): {' '.join(f'{v:.3f}' for v in setup)}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={n}")
    print(f"  {'fail_ratio':40s} {failed / bench.attempted:14.6g} "
          f"{'ratio':6s} {failed}/{bench.attempted} jobs")
    by_cause = {}
    for (cause, label), (n, example) in sorted(bench.failures.items()):
        by_cause.setdefault(cause, []).append((label, n, example))
    for cause, items in by_cause.items():
        print(f"  failed: {cause}: {sum(n for _, n, _ in items)} jobs")
        for label, n, example in items:
            print(f"    {n}x {label}: {example[:200]}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
