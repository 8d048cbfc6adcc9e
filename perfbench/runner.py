"""Runs one job, timed, with its output captured and an optional guard.

The guard is a wall-clock limit (SIGALRM) plus a cap on the data part of
the address space (RLIMIT_DATA: heap and private writable mappings, where
numpy arrays live) a fixed headroom above the process's current data size.
Shared libraries mapped by a lazy import do not count against it.  A job that
trips either is stopped and counted as failed; neither limit outlives the
job.
"""
from __future__ import annotations

import contextlib
import io
import os
import resource
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import LIBRARY_CALLS, Job

_PAGE = os.sysconf("SC_PAGE_SIZE")


class Runaway(BaseException):
    """Raised into a job that overran the wall-clock guard.  A BaseException,
    so that no ``except Exception`` inside the program can swallow it."""


@dataclass
class Outcome:
    job: Job
    seconds: float
    code: int | None = None     # exit code of a CLI job that returned
    error: str = ""             # what ended the job, if it did not return
    stopped: bool = False       # the guard stopped it
    value: object = None        # result of a library call
    path: Path | None = None    # output file of a CLI job
    stderr: str = ""


def _data_size() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[5]) * _PAGE


def _alarm(signum, frame):
    raise Runaway("wall-clock guard")


class Runner:
    def __init__(self, outdir: Path, guard_s: float | None = None,
                 headroom_mb: int | None = None):
        self.outdir = outdir
        self.guard_s = guard_s
        self.headroom = None if headroom_mb is None else headroom_mb << 20
        # OpenBLAS allocates its work buffer on the first product and aborts
        # the process, rather than raising, if that allocation fails: make
        # it before any cap is set.
        np.ones((64, 64)) @ np.ones((64, 64))

    @contextlib.contextmanager
    def _guarded(self):
        soft, hard = resource.getrlimit(resource.RLIMIT_DATA)
        if self.headroom is not None:
            resource.setrlimit(resource.RLIMIT_DATA,
                               (_data_size() + self.headroom, hard))
        if self.guard_s is not None:
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, self.guard_s)
        try:
            yield
        finally:
            if self.guard_s is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            resource.setrlimit(resource.RLIMIT_DATA, (soft, hard))

    def run(self, job: Job) -> Outcome:
        from evolutes import cli

        path = self.outdir / job.out if job.out else None
        if path is not None and path.exists():
            path.unlink()
        argv = [*job.argv, "--out", str(path)] if path is not None else None
        err = io.StringIO()
        out = Outcome(job=job, seconds=0.0, path=path)
        start = time.perf_counter()
        try:
            with self._guarded(), contextlib.redirect_stderr(err):
                if argv is not None:
                    out.code = cli.entry(argv)
                else:
                    out.value = LIBRARY_CALLS[job.call]()
        except (Exception, MemoryError, Runaway) as exc:
            out.error = f"{type(exc).__name__}: {exc}"
            out.stopped = isinstance(exc, (MemoryError, Runaway))
        out.seconds = time.perf_counter() - start
        out.stderr = err.getvalue()
        return out
