"""Job lists of the benchmark's three workloads.

``figures`` and ``dense-sampling`` are fixed lists.  ``fresh-curves`` is drawn
from the seed: random space curves, expression triples and curvature/torsion
profiles built from the whole expression grammar.  Every pass of fresh-curves renders the
same curves under a pass-specific uniform scale, so each pass parses and
differentiates expressions the process has not seen while doing comparable
work.
"""
from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI ``entry(argv)`` call or one library call.

    CLI jobs name their output file in ``out``; the runner appends
    ``--out <dir>/<out>``.  Library jobs name a function of LIBRARY_CALLS in
    ``call``.  ``twin`` (fresh-curves only) is the generated curve, used by
    the checks as an independent oracle.
    """

    label: str
    argv: tuple = ()
    out: str = ""
    call: str = ""
    twin: "Twin | None" = None


# ------------------------------------------------------------------ figures

KTAU_ROW = ("evolute", "--ktau", "1/sqrt(t);1/sqrt(t)", "--range", "1:16")


def load_runs(root: Path) -> list:
    """RUNS of scripts/reproduce_outputs.py, imported without running main()."""
    path = root / "scripts" / "reproduce_outputs.py"
    spec = importlib.util.spec_from_file_location("_bench_reproduce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [list(run) for run in module.RUNS]


def _cli_job(argv) -> Job:
    argv = list(argv)
    i = argv.index("--out")
    out = argv[i + 1]
    del argv[i:i + 2]
    return Job(label=" ".join(argv), argv=tuple(argv), out=out)


def figures_jobs(root: Path) -> list:
    # The --ktau row goes first: set-up time is measured on the first job,
    # and this one pays the lazy scipy.integrate import of FrenetODECurve.
    rows = [[*KTAU_ROW, "--out", "ktau_evolute.csv"]] + load_runs(root)
    return [_cli_job(row) for row in rows]


# ----------------------------------------------------------- dense-sampling

DENSE_POINTS = 16384


def _knot_grid():
    from evolutes import preset

    knot = preset("torus-knot")
    a, b = knot.domain
    return knot, np.linspace(a + 1e-3, b - 1e-3, DENSE_POINTS)


def _sigma14():
    from evolutes import FrenetEval

    knot, ts = _knot_grid()
    return FrenetEval(knot, ts, order=14).sigma


def _second_evolute_points():
    from evolutes import EvoluteCurve

    knot, ts = _knot_grid()
    return EvoluteCurve(EvoluteCurve(knot)).point(ts)


def _second_evolute_jets():
    from evolutes import EvoluteCurve

    knot, ts = _knot_grid()
    return EvoluteCurve(EvoluteCurve(knot)).derivatives(ts, 3)


LIBRARY_CALLS = {
    "sigma14": _sigma14,
    "evolute2-points": _second_evolute_points,
    "evolute2-jets": _second_evolute_jets,
}


def dense_jobs() -> list:
    # the cheapest job first: set-up time is measured on it, and a short
    # cold job keeps the probe's own jitter small
    rows = [
        ("developable", "--preset", "helix", "--kind", "tangent",
         "--samples", "4096", "--ruling-extent", "0:1",
         "--out", "helix_tangent.obj"),
        ("developable", "--preset", "torus-knot", "--kind", "polar",
         "--samples", "4096", "--ruling-extent", "0.5",
         "--out", "knot_polar.obj"),
        ("frenet", "--preset", "torus-knot", "--samples", "65536",
         "--out", "knot_frenet.csv"),
        ("evolute", "--preset", "torus-knot", "--samples", "65536",
         "--out", "knot_evolute.csv"),
        ("evolute", "--preset", "elliptical-helix", "--samples", "16384",
         "--out", "ellhelix_evolute.csv"),
    ]
    jobs = [_cli_job(row) for row in rows]
    jobs += [Job(label=name, call=name) for name in LIBRARY_CALLS]
    return jobs


# ------------------------------------------------------------- fresh-curves
#
# A tree is a nested tuple: ("t",), ("c", value), (op, child, ...) for the
# binary operators, ("^", base, exponent), ("neg", child) and one-argument
# functions.  Every construct keeps its argument inside the function's
# domain on t > 0, so no job can fail with a usage error.

FRESH_CURVES = 8
SHAPE_SEED = 0
FRESH_SAMPLES = "256"
KTAU_SHARE = 4          # every fourth curve is a curvature/torsion profile
PERTURB = 0.0025        # the seed moves every constant by up to this share
_COMMANDS = ("frenet", "evolute", "pseudo-evolute", "monge-evolute", "report")


def _coef(rng, lo=0.2, hi=2.0, signed=True):
    value = round(rng.uniform(lo, hi), 3)
    return -value if signed and rng.random() < 0.5 else value


def _square_plus(rng, child):
    return ("+", ("c", _coef(rng, 0.5, 2.0, signed=False)), ("^", child, 2))


def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.45:
            return ("t",)
        if r < 0.8:
            return ("*", ("c", _coef(rng)), ("t",))
        return ("c", _coef(rng))
    op = rng.choice(("+", "-", "*", "/", "^", "neg", "sin", "cos", "tan",
                     "exp", "log", "sqrt"))
    sub = _tree(rng, depth - 1)
    if op in ("+", "-", "*"):
        return (op, sub, _tree(rng, depth - 1))
    if op == "/":
        return ("/", sub, _square_plus(rng, _tree(rng, depth - 1)))
    if op == "^":
        if rng.random() < 0.5:
            return ("^", ("t",), rng.choice((2, 3, 1.5, 0.5, -1, -2)))
        return ("^", _square_plus(rng, sub), rng.choice((0.5, -0.5, 1.5, -1)))
    if op == "neg" or op in ("sin", "cos"):
        return (op, sub)
    if op == "tan":
        return ("tan", ("*", ("c", _coef(rng, 0.2, 1.2)), ("sin", sub)))
    if op == "exp":
        return ("exp", ("*", ("c", _coef(rng, 0.2, 1.0)),
                        (rng.choice(("sin", "cos")), sub)))
    return (op, _square_plus(rng, sub))          # log, sqrt


def _text(tree, var):
    """Source in the evolutes expression grammar."""
    op = tree[0]
    if op == "t":
        return var
    if op == "c":
        return repr(tree[1])
    if op == "neg":
        return f"-({_text(tree[1], var)})"
    if op == "^":
        return f"({_text(tree[1], var)})^{tree[2]!r}"
    if op in ("+", "-", "*", "/"):
        return f"({_text(tree[1], var)}){op}({_text(tree[2], var)})"
    return f"{op}({_text(tree[1], var)})"


def _numpy(tree, var):
    """The same tree as numpy source, for the checks' own evaluation."""
    op = tree[0]
    if op == "t":
        return var
    if op == "c":
        return repr(tree[1])
    if op == "neg":
        return f"-({_numpy(tree[1], var)})"
    if op == "^":
        return f"({_numpy(tree[1], var)})**{tree[2]!r}"
    if op in ("+", "-", "*", "/"):
        return f"({_numpy(tree[1], var)}){op}({_numpy(tree[2], var)})"
    return f"np.{op}({_numpy(tree[1], var)})"


@dataclass(frozen=True)
class Twin:
    """A generated curve: three coordinate trees, or (curvature, torsion)."""

    kind: str           # "expr" or "ktau"
    trees: tuple
    domain: tuple

    def source(self, lam: float):
        """CLI source flags for the curve scaled by lam about the origin,
        reparametrised by t -> t/lam so its geometry is the same up to scale."""
        var = f"(t/{lam!r})"
        a, b = (lam * self.domain[0], lam * self.domain[1])
        if self.kind == "expr":
            text = ", ".join(f"{lam!r}*({_text(tr, var)})" for tr in self.trees)
            flag = "--expr"
        else:
            text = ";".join(f"({_text(tr, var)})/{lam!r}" for tr in self.trees)
            flag = "--ktau"
        return (flag, text, "--range", f"{a!r}:{b!r}")

    def planar(self) -> bool:
        """Whether an expression curve lies in a plane (its torsion vanishes
        and its evolute is at infinity): the smallest singular value of its
        centred points is at rounding level."""
        if self.kind != "expr":
            return False
        pts = self.points(1.0, np.linspace(*self.domain, 64))
        s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        return bool(s[2] <= 1e-9 * s[0])

    def points(self, lam: float, ts) -> np.ndarray:
        """Positions of the scaled expression curve, evaluated by numpy."""
        ts = np.asarray(ts, dtype=float)
        env = {"np": np, "t": ts, "lam": lam}
        cols = [np.broadcast_to(eval(_numpy(tr, "(t/lam)"), env), ts.shape)
                for tr in self.trees]
        return lam * np.stack(cols, axis=-1)


def _draw(rng, index, degenerate):
    """One curve shape; ``degenerate`` lets a share of the expression curves
    have a constant or a proportional component."""
    a = round(rng.uniform(0.25, 1.0), 3)
    domain = (a, round(a + rng.uniform(1.0, 3.0), 3))
    if index % KTAU_SHARE == 0:
        k = ("sqrt", _square_plus(rng, _tree(rng, 1)))
        return Twin("ktau", (k, _tree(rng, 2)), domain)
    trees = [_tree(rng, 2) for _ in range(3)]
    if not degenerate:
        return Twin("expr", tuple(trees), domain)
    r = rng.random()
    # A constant component makes a planar curve.  A proportional one does
    # too in the shape; the seed's perturbation then moves the copy's
    # constants on their own, which leaves the curve nearly planar.
    if r < 0.15:
        trees[rng.randrange(3)] = ("c", _coef(rng))
    elif r < 0.3:
        i, j = rng.sample(range(3), 2)
        trees[j] = ("*", ("c", _coef(rng)), trees[i])
    return Twin("expr", tuple(trees), domain)


def _perturb(tree, rng):
    """The tree with every constant moved by up to PERTURB; signs, exponents
    and the domain guarantees of _tree are kept."""
    if tree[0] == "c":
        moved = tree[1] * rng.uniform(1.0 - PERTURB, 1.0 + PERTURB)
        return ("c", float(f"{moved:.6g}"))
    if tree[0] == "^":
        return ("^", _perturb(tree[1], rng), tree[2])
    return (tree[0], *(_perturb(child, rng) for child in tree[1:]))


class FreshCurves:
    """Seeded curve draw; ``jobs(p)`` renders it at the scale of pass p.

    The curve shapes (trees, domains, which curves are profiles) are drawn
    once from SHAPE_SEED; the run's seed perturbs every constant.  A draw of
    wholly new shapes per seed would make the work of a run vary more
    between seeds than any bound a later change could be held to: job cost
    spans three orders of magnitude.

    The workload's draw (``degenerate=False``) holds space curves only: an
    expression shape whose points lie in a plane is drawn again, since jobs
    on planar and nearly planar curves fail at the seed.  census.py keeps
    them (``degenerate=True``).
    """

    def __init__(self, seed: int, curves: int = FRESH_CURVES,
                 degenerate: bool = False):
        shapes = random.Random(SHAPE_SEED)
        rng = random.Random(seed)
        self.twins = []
        for i in range(curves):
            twin = _draw(shapes, i, degenerate)
            while not degenerate and twin.planar():
                twin = _draw(shapes, i, degenerate)
            trees = tuple(_perturb(tree, rng) for tree in twin.trees)
            self.twins.append(Twin(twin.kind, trees, twin.domain))

    @staticmethod
    def scale(pass_index: int) -> float:
        return 1.0 + (pass_index + 1) / 1024.0

    def jobs(self, pass_index: int) -> list:
        lam = self.scale(pass_index)
        out = []
        for n, twin in enumerate(self.twins):
            src = twin.source(lam)
            for cmd in _COMMANDS:
                argv = (cmd, *src, "--samples", FRESH_SAMPLES)
                if cmd == "monge-evolute":
                    argv += ("--alpha0", "0.3")
                ext = "json" if cmd == "report" else "csv"
                out.append(Job(label=f"c{n:03d} {cmd}", argv=argv,
                               out=f"c{n:03d}_{cmd}.{ext}", twin=twin))
        return out
