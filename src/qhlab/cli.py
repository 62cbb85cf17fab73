"""Command-line entry point.

Sub-commands run slices of the experiment pipeline on one gallery fixture:

  gallery     rasterize the fixture and emit domain.json/domain.svg
  metrics     shortest-path metric: geodesics, thin-triangles estimate
  properties  separation / length- and diameter-shortness / uniformity
  decompose   dyadic cube cover and core/tentacle index sets per level
  approx      smooth approximants: error-decay table and curves
  report      all of the above

Flags mirror the config-file fields; ``--config`` loads a file first and
flags override it.  The output root defaults to $QHLAB_OUT (or ./out).
Exit codes: 0 ok, 1 invariant failure, 2 usage error.  Config-file errors
are usage errors: an unreadable file, a missing section header, an unknown
section or key, or a value of the wrong type exits 2 with the file named.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .grid import DomainError
from .report import ExperimentConfig, UsageError, run

_FLOAT_FLAGS = ("h", "c0", "c", "R", "epsilon", "p")
_INT_FLAGS = ("k", "n_pairs", "n_triangles", "seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhlab",
        description="Boundary-distance metric geometry and smooth "
                    "approximation experiments on rasterized planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("gallery", "emit the rasterized fixture"),
        ("metrics", "geodesics and hyperbolicity estimate"),
        ("properties", "geodesic property checkers"),
        ("decompose", "cube cover and core/tentacle index sets"),
        ("approx", "approximant error decay"),
        ("report", "full pipeline"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", type=Path,
                         help="config file; flags override its values")
        cmd.add_argument("--fixture", help="gallery fixture name")
        cmd.add_argument("--m-list", dest="m_list",
                         help="comma-separated decomposition levels")
        cmd.add_argument("--outdir", help="output directory "
                         "(default: $QHLAB_OUT/<fixture> or ./out/<fixture>)")
        for flag in _FLOAT_FLAGS:
            cmd.add_argument(f"--{flag}", type=float)
        for flag in _INT_FLAGS:
            cmd.add_argument(f"--{flag.replace('_', '-')}",
                             dest=flag, type=int)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    for flag in ("fixture", "outdir") + _FLOAT_FLAGS + _INT_FLAGS:
        val = getattr(args, flag, None)
        if val is not None:
            setattr(cfg, flag, val)
    if args.m_list is not None:
        try:
            cfg.m_list = tuple(int(t) for t in args.m_list.split(",") if t)
        except ValueError as exc:
            raise UsageError(f"m_list: {exc}") from exc
    if args.outdir is None and args.config is None:
        root = os.environ.get("QHLAB_OUT", "out")
        cfg.outdir = str(Path(root) / cfg.fixture)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg, stages=args.command)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
