"""Command-line front end: one subcommand per experiment plus build and run."""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace

from .errors import LabError, OutputCollisionError
from .geometry import Repeller, similarity_dimension
from .lab import (
    _KEY_TYPES,
    ExperimentConfig,
    _config_from_keys,
    parse_experiment_config,
    resolve_shape,
    run_experiment,
)

_SUBCOMMAND_EXPERIMENT = {
    "sample": "measure-scaling",
    "green": "green-comparability",
    "curvature": "curvature-profile",
    "cauchy": "cauchy",
    "dimension": "dimension-gap",
    "regularity": "regularity",
    "lemma-l": "lemma-L",
    "bhp": "bhp",
}


def _add_common(sub: argparse.ArgumentParser, with_samples: bool = True):
    sub.add_argument("shape", help="preset (corner4, middle-thirds, middle-alpha:<r>, circle, segment) or IFS file")
    if with_samples:
        sub.add_argument("--samples", type=int, default=None, help="walk count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorlab",
        description="Numerical potential theory on self-similar Cantor sets",
    )
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="worker threads (default 1)")
    parser.add_argument("--force", action="store_true", help="overwrite outputs")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct a shape and list its atoms")
    _add_common(b, with_samples=False)
    b.add_argument("--depth", type=int, default=4, help="generation to emit")

    s = subs.add_parser("sample", help="harmonic measure + ball-mass scaling")
    _add_common(s)
    s.add_argument("--n-centers", type=int, default=None)

    g = subs.add_parser("green", help="Green function comparability fit")
    _add_common(g)
    g.add_argument("--n-points", type=int, default=None)
    g.add_argument("--depth-lo", type=float, default=None)
    g.add_argument("--depth-hi", type=float, default=None)

    c = subs.add_parser("curvature", help="curvature energy profile over generations")
    _add_common(c, with_samples=False)
    c.add_argument("--kmax", type=int, default=None)
    c.add_argument("--n-triples", type=int, default=None)

    y = subs.add_parser("cauchy", help="truncated Cauchy transforms at boundary atoms")
    _add_common(y)
    y.add_argument("--n-eval", type=int, default=None)

    d = subs.add_parser("dimension", help="entropy/Lyapunov dimension of the measure")
    _add_common(d)
    d.add_argument("--n-boot", type=int, default=None)
    d.add_argument("--kmax", type=int, default=None)

    r = subs.add_parser("regularity", help="covering component counts and growth fit")
    _add_common(r, with_samples=False)
    r.add_argument("--a", type=float, default=None)
    r.add_argument("--kmax", type=int, default=None)

    l = subs.add_parser("lemma-l", help="shell integral sums of a distance power")
    _add_common(l, with_samples=False)
    l.add_argument("--delta", type=float, default=None)
    l.add_argument("--a", type=float, default=None)
    l.add_argument("--kmax", type=int, default=None)
    l.add_argument("--rtol", type=float, default=None)

    h = subs.add_parser("bhp", help="boundary Harnack Holder fit for two poles")
    _add_common(h, with_samples=False)
    h.add_argument("--pole-p", type=complex, default=None)
    h.add_argument("--pole-q", type=complex, default=None)
    h.add_argument("--n-pairs", type=int, default=None)
    h.add_argument("--walks-per-point", type=int, default=None)

    run = subs.add_parser("run", help="run an experiment described by a config file")
    run.add_argument("config", help="path to a key = value config file")
    return parser


def _cmd_build(args) -> int:
    shape = resolve_shape(args.shape)
    codes, centers, radii = shape.atoms(args.depth)
    lines = [f"# shape={args.shape} depth={args.depth}", "code,x,y,radius"]
    for code, c, r in zip(codes, centers, radii):
        word = "".join(str(int(x)) for x in code)
        lines.append(f"{word},{c.real!r},{c.imag!r},{float(r)!r}")
    text = "\n".join(lines) + "\n"
    if isinstance(shape, Repeller):
        print(f"{args.shape}: {len(shape.branches)} branches, "
              f"similarity dimension {similarity_dimension(shape):.6f}, "
              f"{len(centers)} atoms at depth {args.depth}")
    else:
        print(f"{args.shape}: {len(centers)} atoms at depth {args.depth}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "atoms.csv")
        if os.path.exists(path) and not args.force:
            raise OutputCollisionError(f"{path} exists (pass --force to overwrite)")
        with open(path, "w") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"wrote {path} (sha256 {digest[:16]})")
    return 0


def _given(args, keys) -> dict:
    """The config keys among keys that were set on the command line."""
    return {k: v for k in keys if (v := getattr(args, k, None)) is not None}


def _experiment_config(args) -> ExperimentConfig:
    values = {"seed": 0, **_given(args, _KEY_TYPES)}
    values["experiment"] = _SUBCOMMAND_EXPERIMENT[args.command]
    return _config_from_keys(values)


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = parse_experiment_config(fh.read())
    cfg = replace(cfg, **_given(args, ("out", "seed", "threads")))
    return _finish(cfg, args.force)


def _finish(cfg: ExperimentConfig, force: bool) -> int:
    manifest = run_experiment(cfg, force=force)
    out = cfg.out or "."
    with open(os.path.join(out, "summary.txt")) as fh:
        sys.stdout.write(fh.read())
    print(f"wrote {len(manifest.files) + 1} files to {out} "
          f"(config {manifest.config_hash[:12]}, {manifest.wall_clock:.1f}s)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "run":
            return _cmd_run(args)
        return _finish(_experiment_config(args), args.force)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
