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
    _EXPERIMENTS,
    _KEY_TYPES,
    ExperimentConfig,
    _config_from_keys,
    parse_experiment_config,
    resolve_shape,
    run_experiment,
)
from .shapes import code_rows, require_digit_codes

_SHAPE_HELP = "preset (corner4, middle-thirds, middle-alpha:<r>, circle, segment) or IFS file"


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
    b.add_argument("shape", help=_SHAPE_HELP)
    b.add_argument("--depth", type=int, default=4, help="generation to emit")

    # one subcommand per experiment, one flag per key it reads
    for experiment, exp in _EXPERIMENTS.items():
        sub = subs.add_parser(exp.command, help=exp.help)
        sub.set_defaults(experiment=experiment)
        sub.add_argument("shape", help=_SHAPE_HELP)
        for key, default in exp.params.items():
            sub.add_argument(
                "--" + key.replace("_", "-"),
                type=_KEY_TYPES[key],
                default=None,
                help="default: from the shape" if isinstance(default, type)
                else f"default {default}",
            )

    run = subs.add_parser("run", help="run an experiment described by a config file")
    run.add_argument("config", help="path to a key = value config file")
    return parser


def _cmd_build(args) -> int:
    shape = resolve_shape(args.shape)
    if args.out:
        require_digit_codes(shape.fan)
    atoms = shape.atoms(args.depth)
    if isinstance(shape, Repeller):
        print(f"{args.shape}: {len(shape.branches)} branches, "
              f"similarity dimension {similarity_dimension(shape):.6f}, "
              f"{len(atoms)} atoms at depth {args.depth}")
    else:
        print(f"{args.shape}: {len(atoms)} atoms at depth {args.depth}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "atoms.csv")
        if os.path.exists(path) and not args.force:
            raise OutputCollisionError(f"{path} exists (pass --force to overwrite)")
        lines = [f"# shape={args.shape} depth={args.depth}", "code,x,y,radius",
                 *code_rows(atoms.codes, atoms.centers, atoms.radii)]
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"wrote {path} (sha256 {digest[:16]})")
    return 0


def _given(args, keys) -> dict:
    """The config keys among keys that were set on the command line."""
    return {k: v for k in keys if (v := getattr(args, k, None)) is not None}


def _experiment_config(args) -> ExperimentConfig:
    return _config_from_keys({"seed": 0, **_given(args, _KEY_TYPES)})


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
    except (LabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
