#!/usr/bin/env python3
"""Regenerate every figure-class artifact into ./outputs.

Each entry drives the CLI exactly as a user would; the directory is wiped
first, so no file of an earlier run survives.  A fresh run need not match
the tracked files byte for byte: their last bits move with the machine and
with changes to the code.  tests/test_figures.py checks every number of a
fresh run against ``outputs/`` at a relative tolerance of 1e-9, plus an
absolute slack of 1e-12 times the file's largest number, and all other
text for equality.

Each line of the log names an artifact with the sha256 of its bytes, so
two runs (two checkouts, say) are byte-identical exactly when their logs
are: compare them with diff.
"""
import pathlib
import shutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from evolutes.cli import entry

RUNS = [
    # the closed knot of the opening figure and its three evolutes
    ["frenet", "--preset", "torus-knot", "--out", "knot.csv"],
    ["evolute", "--preset", "torus-knot", "--out", "knot_evolute.csv"],
    ["pseudo-evolute", "--preset", "torus-knot", "--out", "knot_pseudo.csv"],
    ["monge-evolute", "--preset", "torus-knot", "--alpha0", "0.0",
     "--out", "knot_monge_0.csv"],
    ["monge-evolute", "--preset", "torus-knot", "--alpha0", "0.6",
     "--out", "knot_monge_06.csv"],
    # cusp curve: closed-form evolute and pseudo-evolute
    ["evolute", "--preset", "cusp-curve", "--range", "-1:1",
     "--samples", "512", "--out", "cusp_evolute.csv"],
    ["pseudo-evolute", "--preset", "cusp-curve", "--out", "cusp_pseudo.csv"],
    # four evolute cusps per turn of the elliptical helix
    ["evolute", "--preset", "elliptical-helix", "--out", "ellhelix_evolute.csv"],
    # figure-eight: the evolute degenerates, the pseudo-evolute branches
    ["pseudo-evolute", "--preset", "fig8", "--format", "svg",
     "--out", "fig8_pseudo.svg"],
    # rolling: development, monodromy, the closed involute, a traced involute
    ["develop", "--preset", "torus-knot", "--out", "knot_development.svg"],
    ["monodromy", "--preset", "torus-knot", "--out", "knot_monodromy.json"],
    ["involute", "--preset", "torus-knot", "--out", "knot_closed_involute.csv"],
    ["involute", "--preset", "helix", "--point", "0.5:0.2",
     "--out", "helix_involute.csv"],
    # developable patches around the helix
    ["developable", "--preset", "helix", "--kind", "tangent",
     "--samples", "128", "--ruling-extent", "0:1", "--out", "helix_tangent.obj"],
    ["developable", "--preset", "helix", "--kind", "rectifying",
     "--samples", "128", "--ruling-extent", "0.75", "--out",
     "helix_rectifying.obj"],
    ["developable", "--preset", "torus-knot", "--kind", "polar",
     "--samples", "128", "--ruling-extent", "0.5", "--out", "knot_polar.obj"],
    # numeric reports for every preset
    ["report", "--preset", "helix", "--out", "report_helix.json"],
    ["report", "--preset", "elliptical-helix", "--out", "report_ellhelix.json"],
    ["report", "--preset", "torus-knot", "--delta", "0.01",
     "--out", "report_knot.json"],
    ["report", "--preset", "cusp-curve", "--out", "report_cusp.json"],
    ["report", "--preset", "fig8", "--out", "report_fig8.json"],
    ["report", "--preset", "spherical", "--out", "report_spherical.json"],
]


def main() -> int:
    # imported here, not with the module: perfbench/workloads.py loads RUNS
    # from this file in the benchmark process, and hashlib maps OpenSSL's
    # libcrypto, about 3.7 MB of resident memory
    import hashlib

    outdir = pathlib.Path(__file__).resolve().parents[1] / "outputs"
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir()
    failures = 0
    for args in RUNS:
        args = list(args)
        i = args.index("--out") + 1
        name, path = args[i], outdir / args[i]
        command = " ".join(args[:i - 1] + args[i + 1:])
        args[i] = str(path)
        code = entry(args)
        if code == 0:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"  [ok] {digest}  {name}  {command}")
        else:
            print(f"  [exit {code}] {name}  {command}")
        failures += code != 0
    print(f"wrote {len(RUNS) - failures}/{len(RUNS)} artifacts to outputs/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
