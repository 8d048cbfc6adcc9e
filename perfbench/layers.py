"""Layer tracing from the benchmark's side of each call.

``install`` replaces every traced public function of the package by a
wrapper, at each place the function is bound: the defining module, every
module that imported it by name, and the shared class objects for methods.
A wrapper records one span (name, start, end, parent, job) and the counts of
work done at that boundary.  Spans stay in memory and are written out when
the benchmark ends.

Per span name the tracer keeps ``calls``, ``time_s`` (inclusive, counting
only the outermost of nested spans of one name, so recursion is not counted
twice) and ``self_s`` (each span minus the spans directly inside it).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# spans whose integrand calls are counted: quadrature and root scans
_INTEGRAND_SPANS = ("quadrature.build", "quadrature.query",
                    "quadrature.inverse", "quadrature.adaptive", "roots.find")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child", "integrand",
                 "scan")

    def __init__(self, name, start, parent, job):
        self.name, self.start, self.parent, self.job = name, start, parent, job
        self.end = start
        self.child = 0.0
        self.integrand = 0
        self.scan = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.depth = defaultdict(int)
        self.job = None
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, time, self
        self.counts = defaultdict(int)
        self._job_stats = None
        self._job_counts = None
        self._restore = []

    # -------------------------------------------------------------- jobs

    def begin_job(self, job_id):
        self.job = job_id
        self.stack.clear()
        self.depth.clear()
        self._job_stats = defaultdict(lambda: [0, 0.0, 0.0])
        self._job_counts = defaultdict(int)

    def end_job(self, keep: bool):
        """Fold the job's figures into the totals.  Drop those of a job the
        runaway guard stopped: where it stopped depends on timing."""
        if keep:
            for name, (calls, total, own) in self._job_stats.items():
                acc = self.stats[name]
                acc[0] += calls
                acc[1] += total
                acc[2] += own
            for name, value in self._job_counts.items():
                self.counts[name] += value
        self.stack.clear()
        self.depth.clear()
        self.job = None

    def count(self, name, value):
        self._job_counts[name] += value

    def take(self):
        """The totals since the last take, as (stats, counts); resets them."""
        expr = sys.modules.get("evolutes.expr")
        self.counts["expr.cache_nodes"] = sum(
            len(getattr(expr, pool, ())) for pool in ("_POOL", "_DIFF"))
        out = ({k: tuple(v) for k, v in self.stats.items()}, dict(self.counts))
        self.stats.clear()
        self.counts.clear()
        return out

    # ------------------------------------------------------------- spans

    def _open(self, name) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.job)
        self.stack.append(span)
        self.depth[name] += 1
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        duration = span.end - span.start
        while self.stack and self.stack.pop() is not span:
            pass
        self.depth[span.name] -= 1
        if span.parent is not None:
            span.parent.child += duration
        acc = self._job_stats[span.name]
        acc[0] += 1
        acc[2] += duration - span.child
        if self.depth[span.name] == 0:
            acc[1] += duration
        self.spans.append(span)

    def integrand_counter(self, f):
        """f, counting its points against the innermost quadrature or root
        span open at each call."""
        def counted(x):
            for span in reversed(self.stack):
                if span.name in _INTEGRAND_SPANS:
                    span.integrand += np.size(x)
                    break
            return f(x)
        return counted

    def wrap(self, name, fn, before=None, after=None):
        sig = inspect.signature(fn) if before else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not tracer.active or tracer._job_stats is None:
                return fn(*args, **kw)
            span = tracer._open(name)
            if before is not None:
                bound = sig.bind(*args, **kw)
                bound.apply_defaults()
                before(tracer, span, bound.arguments)
                args, kw = bound.args, bound.kwargs
            try:
                result = fn(*args, **kw)
            finally:
                tracer._close(span)
            if after is not None:
                after(tracer, span, args, result)
            return result

        return wrapper

    # ---------------------------------------------------- install/remove

    def install(self):
        """Wrap every function of the span table wherever the package binds
        it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "evolutes" or name.startswith("evolutes.")}
        replaced = {}
        for (modname, qualname), (span, before, after) in _spans(modules).items():
            mod = modules.get(f"evolutes.{modname}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                continue                 # a layer a later version removed
            wrapper = self.wrap(span, fn, before, after)
            if owner_name:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                replaced[id(fn)] = (fn, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ output

    def write(self, path):
        """Every span as one tab-separated line: index, name, start, end,
        parent index, job id.  Times are seconds of perf_counter."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i, s in enumerate(self.spans):
                parent = index.get(id(s.parent), -1) if s.parent else -1
                fh.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}"
                         f"\t{parent}\t{s.job}\n")


# ---------------------------------------------------------------- hooks

def _count_integrand(tracer, span, arguments):
    arguments["f"] = tracer.integrand_counter(arguments["f"])


def _integrand_after(tracer, span, args, result):
    tracer.count(f"{span.name}.integrand_points", span.integrand)


def _roots_before(tracer, span, arguments):
    _count_integrand(tracer, span, arguments)
    # points of the grid scans; the rest of the integrand calls refine
    span.scan = (arguments["samples"] + 1) * (2 if arguments["closed"] else 1)


def _roots_after(tracer, span, args, result):
    tracer.count("roots.find.integrand_points", span.integrand)
    tracer.count("roots.find.refine_points", span.integrand - span.scan)
    tracer.count("roots.find.roots", len(result))


def _build_after(tracer, span, args, result):
    edges = getattr(args[0], "edges", None)
    if edges is not None:
        tracer.count("quadrature.build.panels", len(edges) - 1)
    tracer.count("quadrature.build.integrand_points", span.integrand)


def _query_after(tracer, span, args, result):
    tracer.count("quadrature.query.points", np.size(args[1]))
    tracer.count("quadrature.query.integrand_points", span.integrand)


def _points(counter):
    def after(tracer, span, args, result):
        tracer.count(counter, np.size(args[1]))
    return after


def _derivatives_after(tracer, span, args, result):
    tracer.count("curves.derivatives.points", result.shape[0] * result.shape[1])


def _steps(counter):
    def after(tracer, span, args, result):
        tracer.count(counter, len(getattr(args[0], "_segments", ())))
    return after


def _frenet_after(tracer, span, args, result):
    n = len(args[0].t)
    tracer.count("frenet.eval.points", n)
    tracer.count("frenet.eval.scalar_calls", int(n == 1))


def _patch_after(tracer, span, args, result):
    tracer.count("envelope.patch.vertices",
                 result.vertices.shape[0] * result.vertices.shape[1])


def _render_after(points):
    def after(tracer, span, args, result):
        tracer.count("exporters.render.bytes", len(result))
        tracer.count("output.points", points(args))
    return after


def _entry_after(tracer, span, args, result):
    tracer.count("cli.exit3_jobs", int(result == 3))


def _spans(modules) -> dict:
    """(module, qualified name) -> (span, before hook, after hook)."""
    table = {
        ("expr", "parse"): ("expr.parse", None, None),
        ("expr", "parse_curve"): ("expr.parse", None, None),
        ("expr", "differentiate"): ("expr.differentiate", None, None),
        ("expr", "evaluate"): ("expr.evaluate", None,
                               _points("expr.evaluate.points")),
        ("curves", "ExprCurve.derivatives"):
            ("curves.derivatives", None, _derivatives_after),
        ("curves", "FrenetODECurve.derivatives"):
            ("curves.derivatives", None, _derivatives_after),
        ("curves", "FrenetODECurve.__init__"):
            ("curves.ode", None, _steps("curves.ode.steps")),
        ("frenet", "FrenetEval.__init__"): ("frenet.eval", None, _frenet_after),
        ("frenet", "arclength"): ("frenet.totals", None, None),
        ("quadrature", "CumulativeIntegral.__init__"):
            ("quadrature.build", _count_integrand, _build_after),
        ("quadrature", "CumulativeIntegral.__call__"):
            ("quadrature.query", None, _query_after),
        ("quadrature", "CumulativeIntegral.inverse"):
            ("quadrature.inverse", None, None),
        ("quadrature", "adaptive_integral"):
            ("quadrature.adaptive", _count_integrand, _integrand_after),
        ("roots", "find_roots"): ("roots.find", _roots_before,
                                  _roots_after),
        ("rolling", "Development.__init__"): ("rolling.development", None, None),
        ("rolling", "TracedInvoluteCurve.__init__"):
            ("rolling.trace", None, _steps("rolling.trace.steps")),
        ("rolling", "monodromy"): ("rolling.monodromy", None, None),
        ("evolute", "evolute_cusps"): ("evolute.search", None, None),
        ("evolute", "evolute_escapes"): ("evolute.search", None, None),
        ("evolute", "evolute_points"): ("evolute.points", None, None),
        ("evolute", "evolute_point"): ("evolute.points", None, None),
        ("evolute", "EvoluteCurve.derivatives"): ("evolute.points", None, None),
        ("pseudo", "pseudo_escapes"): ("pseudo.search", None, None),
        ("pseudo", "pseudo_cusps"): ("pseudo.search", None, None),
        ("pseudo", "is_cylindrical"): ("pseudo.search", None, None),
        ("pseudo", "pseudo_evolute_points"): ("pseudo.points", None, None),
        ("pseudo", "pseudo_evolute_point"): ("pseudo.points", None, None),
        ("pseudo", "PseudoEvoluteCurve.derivatives"):
            ("pseudo.points", None, None),
        ("monge", "MongeEvoluteCurve.__init__"): ("monge.build", None, None),
        ("monge", "monge_evolute_cusps"): ("monge.search", None, None),
        ("monge", "monge_escapes"): ("monge.search", None, None),
        ("monge", "monge_evolute_point"): ("monge.points", None, None),
        ("monge", "MongeEvoluteCurve.derivatives"): ("monge.points", None, None),
        ("envelope", "developable_patch"): ("envelope.patch", None, _patch_after),
        ("report", "curve_report"): ("report.curve_report", None, None),
        ("exporters", "render_csv"): ("exporters.render", None,
                                      _render_after(lambda a: len(a[0]))),
        ("exporters", "render_obj"): ("exporters.render", None, _render_after(
            lambda a: a[0].vertices.shape[0] * a[0].vertices.shape[1])),
        ("exporters", "render_svg"): ("exporters.render", None, _render_after(
            lambda a: sum(len(b) for b in a[0]))),
        ("exporters", "render_json"): ("exporters.render", None,
                                       _render_after(lambda a: 0)),
        ("exporters", "atomic_write"): ("exporters.write", None, None),
        ("cli", "entry"): ("cli.entry", None, _entry_after),
    }
    frenet = modules.get("evolutes.frenet")
    for attr in vars(frenet) if frenet else ():
        if attr.startswith("total_") and inspect.isfunction(getattr(frenet, attr)):
            table[("frenet", attr)] = ("frenet.totals", None, None)
    # every jet kernel of the package, wherever it is defined
    for modname, mod in modules.items():
        short = modname.partition(".")[2]
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == modname
                    and (attr.startswith("jet_") or attr in (
                        "arclength_derivative", "antiderivative_jet"))):
                table[(short, attr)] = ("taylor.kernels", None, None)
    return table


# Names of the spans and counters reported as per-layer metrics; counters
# are in "count" unless COUNT_UNITS says otherwise.
SPAN_NAMES = (
    "cli.entry", "expr.parse", "expr.differentiate", "expr.evaluate",
    "taylor.kernels", "curves.derivatives", "curves.ode", "frenet.eval",
    "frenet.totals", "quadrature.build", "quadrature.query",
    "quadrature.inverse", "quadrature.adaptive", "roots.find",
    "rolling.development", "rolling.trace", "rolling.monodromy",
    "evolute.search", "evolute.points", "pseudo.search", "pseudo.points",
    "monge.build", "monge.search", "monge.points", "envelope.patch",
    "report.curve_report", "exporters.render", "exporters.write",
)
COUNT_NAMES = (
    "expr.cache_nodes", "expr.evaluate.points", "curves.derivatives.points",
    "curves.evals_per_point", "curves.ode.steps", "frenet.eval.points",
    "frenet.eval.scalar_calls", "quadrature.build.panels",
    "quadrature.build.integrand_points", "quadrature.query.points",
    "quadrature.query.integrand_points", "quadrature.adaptive.integrand_points",
    "roots.find.integrand_points", "roots.find.refine_points",
    "roots.find.roots", "rolling.trace.steps", "envelope.patch.vertices",
    "exporters.render.bytes", "output.points", "cli.exit3_jobs",
)
COUNT_UNITS = {"exporters.render.bytes": "bytes",
               "curves.evals_per_point": "ratio"}
