"""Command line front end.

Subcommands sample a curve (preset, expression triple, or curvature/torsion
pair), run one geometric construction, and write the result as CSV, OBJ, SVG,
or JSON.  Exit codes: 0 success, 2 usage error, 3 geometric degeneracy with
the degeneracy named on standard error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from functools import cache, partial

import numpy as np

from . import expr as ex
from .catalog import preset, preset_names
from .classify import classify
from .curves import Curve, ExprCurve, FrenetODECurve, branch_grids
from .errors import DomainError, GeometryError, ParseError
from .envelope import developable_patch
from .exporters import atomic_write, render_csv, render_json, render_obj, \
    render_svg
from .frenet import FrenetEval
from .monge import MongeInvoluteCurve
from .report import curve_report, monodromy_block
from .rolling import Development, TracedInvoluteCurve, closed_involute

__all__ = ["RunConfig", "build_curve", "entry"]

_FORMATS = ("csv", "obj", "svg", "json")
# 64 times the densest sampling of the figures and the benchmark (65536); a
# count beyond it is refused before any array is allocated
_MAX_SAMPLES = 2**22


@dataclass
class RunConfig:
    """Validated bundle of everything one invocation needs."""

    source: tuple
    domain: tuple | None = None
    samples: int = 1024
    alpha0: float = 0.0
    length: float | None = None
    delta: float | None = None
    extent: float | tuple = 1.0
    kind: str = "tangent"
    point: tuple | None = None
    signed: bool = False
    svg_scale: float = 100.0
    out: str | None = None
    fmt: str | None = None

    def __post_init__(self):
        if self.samples < 16:
            raise ValueError("--samples must be at least 16")
        if self.samples > _MAX_SAMPLES:
            raise ValueError(f"--samples must be at most {_MAX_SAMPLES}")
        if self.domain is not None:
            a, b = self.domain
            if not b > a:
                raise ValueError("--range must satisfy a < b")
            if not np.isfinite(b - a):
                raise ValueError("--range bounds and width must be finite")
        if self.point is not None and not np.isfinite(self.point).all():
            raise ValueError("--point coordinates must be finite")
        for flag, value in (("--alpha0", self.alpha0), ("--length", self.length),
                            ("--delta", self.delta),
                            ("--ruling-extent", self.extent)):
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{flag} must be finite")
        if not 0.0 < self.svg_scale < np.inf:
            raise ValueError("--svg-scale must be finite and positive")


def build_curve(cfg: RunConfig) -> Curve:
    mode, value = cfg.source
    if mode == "preset":
        curve = preset(value)
        if cfg.domain is not None:
            a, b = cfg.domain
            kept = tuple(c for c in curve.cusps if a <= c <= b)
            curve = ExprCurve(curve.components, cfg.domain, cusps=kept)
        return curve
    if cfg.domain is None:
        raise ValueError(f"--{mode} requires --range")
    if mode == "expr":
        return ExprCurve(value, cfg.domain)
    k_expr, _, tau_expr = value.partition(";")
    if not tau_expr:
        raise ValueError('--ktau takes "k_expr;tau_expr"')
    return FrenetODECurve(k_expr, tau_expr, cfg.domain)


# ---------------------------------------------------------------- emission

def _choose_format(cfg: RunConfig, default: str, offered) -> str:
    fmt = cfg.fmt
    if fmt is None and cfg.out and "." in cfg.out:
        suffix = cfg.out.rsplit(".", 1)[1].lower()
        if suffix in _FORMATS:
            fmt = suffix
    fmt = fmt or default
    if fmt not in offered:
        raise ValueError(f"format {fmt!r} not available here;"
                         f" choose from {', '.join(offered)}")
    return fmt


def _write(cfg: RunConfig, pieces) -> int:
    """Write the str pieces to --out, or to standard output."""
    if cfg.out:
        atomic_write(cfg.out, pieces)
    else:
        for piece in pieces:
            sys.stdout.write(piece)
    return 0


def _require_finite(ts, pts, what: str):
    """Refuse to write positions (one row, or one row of a mesh, per t)
    that are not all finite, naming the first offending t."""
    bad = ~np.isfinite(pts).reshape(len(ts), -1).all(axis=-1)
    if bad.any():
        raise GeometryError(f"{what} is not finite", t=float(ts[bad.argmax()]))


def _emit_polyline(cfg: RunConfig, grids, point,
                   formats=("csv", "svg")) -> int:
    """Each branch grid (already singularity-free) from one point call on
    all of them, as one of formats (the first is the default); a point that
    is not finite is refused."""
    ts = np.concatenate(grids)
    pts = point(ts)
    fmt = _choose_format(cfg, formats[0], formats)
    _require_finite(ts, pts, "output point")
    if fmt == "csv":
        return _write(cfg, render_csv(ts, pts))
    ends = np.cumsum([len(g) for g in grids])[:-1]
    try:
        pieces = render_svg(np.split(pts[:, :2], ends), scale=cfg.svg_scale)
    except ValueError as exc:
        raise ValueError(f"--svg-scale must be smaller: {exc}") from None
    return _write(cfg, pieces)


# ------------------------------------------------------------- subcommands

def _cmd_frenet(cfg: RunConfig, curve: Curve) -> int:
    """Position, k, tau and sigma from one FrenetEval per pass of at most
    expr._SLICE parameters: only the copied values outlive a pass's jets."""
    ts = np.concatenate(branch_grids(curve.domain, curve.cusps, cfg.samples))
    pts = np.empty((len(ts), 3))
    k, tau, sigma = np.empty((3, len(ts)))
    for lo in range(0, len(ts), ex._SLICE):
        fe = FrenetEval(curve, ts[lo:lo + ex._SLICE], order=4)
        hi = lo + len(fe.t)
        with np.errstate(all="ignore"):
            pts[lo:hi], k[lo:hi] = fe.x[0], fe.k[0]
            tau[lo:hi], sigma[lo:hi] = fe.tau[0], fe.sigma[0]
    _require_finite(ts, pts, "curve point")
    extras = [("k", k), ("tau", tau)]
    if np.isfinite(sigma).all():
        extras.append(("sigma", sigma))
    _choose_format(cfg, "csv", ("csv",))
    return _write(cfg, render_csv(ts, pts, extras))


def _cmd_construction(cfg: RunConfig, curve: Curve, construction) -> int:
    """evolute, pseudo-evolute, monge-evolute: branches between singularities."""
    verdict, = classify(curve, (construction,), cfg.samples, cfg.alpha0)
    if verdict.error is not None:
        raise verdict.error
    grids = branch_grids(curve.domain, verdict.cuts, cfg.samples)
    return _emit_polyline(cfg, grids, verdict.point)


def _cmd_monge_involute(cfg: RunConfig, curve: Curve) -> int:
    if cfg.length is None:
        raise ValueError("monge-involute requires --length")
    inv = MongeInvoluteCurve(curve, cfg.length, signed=cfg.signed)
    grids = branch_grids(curve.domain, curve.cusps, cfg.samples)
    return _emit_polyline(cfg, grids, inv.point)


def _cmd_involute(cfg: RunConfig, curve: Curve) -> int:
    gamma = (closed_involute(curve) if cfg.point is None
             else TracedInvoluteCurve(curve, cfg.point))
    return _emit_polyline(cfg, [gamma.grid(cfg.samples)], gamma.point)


def _cmd_developable(cfg: RunConfig, curve: Curve) -> int:
    grids = branch_grids(curve.domain, curve.cusps, cfg.samples)
    _choose_format(cfg, "obj", ("obj",))
    patch = developable_patch(curve, cfg.kind, np.concatenate(grids),
                              extent=cfg.extent)
    _require_finite(patch.ts, patch.vertices, "patch vertex")
    return _write(cfg, render_obj(patch))


def _cmd_develop(cfg: RunConfig, curve: Curve) -> int:
    dev = Development(curve)

    def point(ts):
        return np.column_stack([dev.point(ts), np.zeros(len(ts))])

    return _emit_polyline(cfg, [curve.grid(cfg.samples)], point,
                          ("svg", "csv"))


def _cmd_monodromy(cfg: RunConfig, curve: Curve) -> int:
    payload = monodromy_block(curve)
    # the rotation angle is the end of the turning-angle table
    payload["total_curvature"] = payload["angle"]
    _choose_format(cfg, "json", ("json",))
    return _write(cfg, (render_json(payload),))


def _cmd_report(cfg: RunConfig, curve: Curve) -> int:
    payload = curve_report(curve, cfg.samples, circle_delta=cfg.delta)
    _choose_format(cfg, "json", ("json",))
    return _write(cfg, (render_json(payload),))


_DISPATCH = {
    "frenet": _cmd_frenet,
    **{name: partial(_cmd_construction, construction=name)
       for name in ("evolute", "pseudo-evolute", "monge-evolute")},
    "monge-involute": _cmd_monge_involute,
    "involute": _cmd_involute,
    "developable": _cmd_developable,
    "develop": _cmd_develop,
    "monodromy": _cmd_monodromy,
    "report": _cmd_report,
}


# ------------------------------------------------------------------ parser

def _pair(text: str):
    left, _, right = text.partition(":")
    if not right:
        raise ValueError("expected two values separated by ':'")
    return float(left), float(right)


def _extent(text: str):
    if ":" in text:
        return _pair(text)
    return float(text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=preset_names())
    source.add_argument("--expr", metavar='"x,y,z"')
    source.add_argument("--ktau", metavar='"k;tau"')
    common.add_argument("--range", dest="range_", metavar="a:b", type=_pair)
    common.add_argument("--samples", type=int, default=1024)
    common.add_argument("--out", metavar="PATH")
    common.add_argument("--format", dest="fmt", choices=_FORMATS)
    common.add_argument("--svg-scale", type=float, default=100.0,
                        help="pixels per unit in SVG output")

    parser = argparse.ArgumentParser(
        prog="evolutes",
        description="Evolutes, involutes, and developables of space curves.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("frenet", parents=[common],
                   help="sample position, curvature, torsion, sigma")
    sub.add_parser("evolute", parents=[common],
                   help="osculating-sphere centers")
    sub.add_parser("pseudo-evolute", parents=[common],
                   help="regression edge of the rectifying developable")
    p = sub.add_parser("monge-evolute", parents=[common],
                       help="taut-string evolute for a start angle")
    p.add_argument("--alpha0", type=float, default=0.0)
    p = sub.add_parser("monge-involute", parents=[common],
                       help="taut-string involute for a string length")
    p.add_argument("--length", type=float)
    p.add_argument("--signed", action="store_true",
                   help="flip the length element at declared cusps")
    p = sub.add_parser("involute", parents=[common],
                       help="involute traced by rolling the osculating plane")
    p.add_argument("--point", type=_pair, metavar="x:y",
                   help="start offset in the initial (tangent, normal) frame;"
                        " default: the closed involute through the"
                        " monodromy fixed point")
    p = sub.add_parser("developable", parents=[common],
                       help="ruled patch as an OBJ mesh")
    p.add_argument("--kind", choices=("tangent", "rectifying", "polar"),
                   default="tangent")
    p.add_argument("--ruling-extent", dest="extent", type=_extent,
                   default=1.0, metavar="R|lo:hi")
    sub.add_parser("develop", parents=[common],
                   help="planar development of the curve")
    sub.add_parser("monodromy", parents=[common],
                   help="plane isometry after one rolling circuit")
    p = sub.add_parser("report", parents=[common],
                       help="invariants, singularities, residuals as JSON")
    p.add_argument("--delta", type=float,
                   help="also check osculating-circle disjointness at"
                        " parameter offset delta")
    return parser


_NEGATIVE_OK = {"--range", "--point", "--alpha0", "--length", "--delta",
                "--ruling-extent", "--svg-scale"}


def _absorb_negatives(argv):
    """Let values like -1:1 or -inf follow their flag without '=' syntax."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in _NEGATIVE_OK and nxt.startswith("-") and len(nxt) > 1
                and (nxt[1].isdigit() or nxt[1] == "."
                     or nxt[1:4].lower() in ("inf", "nan"))):
            out.append(tok + "=" + nxt)
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _config_from(ns: argparse.Namespace) -> RunConfig:
    source = next((mode, getattr(ns, mode)) for mode in ("preset", "expr", "ktau")
                  if getattr(ns, mode) is not None)
    names = {f.name for f in fields(RunConfig)}
    given = {k: v for k, v in vars(ns).items() if k in names}
    return RunConfig(source=source, domain=ns.range_, **given)


def entry(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(_absorb_negatives(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from(ns)
        curve = build_curve(cfg)
        return _DISPATCH[ns.command](cfg, curve)
    except (ParseError, DomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())
