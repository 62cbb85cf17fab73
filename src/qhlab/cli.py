"""Command-line entry point.

Sub-commands run slices of the experiment pipeline on one gallery fixture:

  gallery     rasterize the fixture and emit domain.json/domain.svg
  metrics     shortest-path metric: geodesics, thin-triangles estimate
  properties  separation / length- and diameter-shortness / uniformity
  decompose   dyadic cube cover and core/tentacle index sets per level
  approx      smooth approximants: error-decay table and curves
  report      all of the above

Each ``ExperimentConfig`` field is one flag, ``--<field>`` with ``_`` written
as ``-`` (so ``m_list`` is ``--m-list``), whose value is parsed as the config
file parses that key; ``--config`` loads a file first and flags override it.
Without ``--outdir`` or ``--config`` the output directory is
$QHLAB_OUT/<fixture> (or ./out/<fixture>).
Exit codes: 0 ok, 1 invariant failure, 2 usage error.  Config-file errors
are usage errors: an unreadable file, a missing section header, an unknown
section or key, or a value of the wrong type exits 2 with the file named;
a flag value of the wrong type exits 2 with the field named.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .grid import DomainError
from .report import ExperimentConfig, UsageError, run


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
        for f in fields(ExperimentConfig):
            cmd.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                             help=f"[{f.metadata['section']}] {f.name}")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    for f in fields(ExperimentConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            setattr(cfg, f.name, ExperimentConfig.parse(f.name, raw))
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
