"""Command-line orchestrator for the staged pipeline.

Verbs: synth | ingest | mi | tmfg | train | eval | report | describe |
gradcheck. Every verb takes ``--config`` and is idempotent given identical
inputs and seed. Exit codes: 0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import pipeline
from .config import RunConfig
from .errors import (
    ConfigError,
    EmptyAfterClean,
    HloblabError,
    InvalidBook,
    MalformedRow,
    RowCountMismatch,
)

log = logging.getLogger(__name__)

USER_ERROR = 1
INTERNAL_ERROR = 2

GRADCHECK_TOLERANCE = 1e-6  # float64 suite

# bad input files: the user's data, not the program, is at fault
INPUT_ERRORS = (MalformedRow, RowCountMismatch, InvalidBook, EmptyAfterClean)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hloblab",
        description="Order book ingestion, MI/TMFG construction, and "
                    "mid-price change classifier training.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("synth", "generate synthetic LOBSTER day files"),
        ("ingest", "parse and clean configured days"),
        ("mi", "compute bootstrap-averaged mutual information matrices"),
        ("tmfg", "build the filtered graph and emit its simplices"),
        ("train", "train the classifier"),
        ("eval", "evaluate the trained classifier on the test days"),
        ("report", "aggregate evaluation reports into CSVs"),
        ("describe", "print the per-layer parameter table"),
        ("gradcheck", "run the finite-difference gradient suite"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name != "gradcheck":
            p.add_argument("--config", required=True, help="run config file")
    return parser


def dispatch(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USER_ERROR

    try:
        if args.command == "gradcheck":
            return _run_gradcheck()
        cfg = RunConfig.load(args.config)
        return _run_verb(args.command, cfg)
    # an OS error names the path it failed on: a missing input file or a
    # directory the config names that is a file
    except (ConfigError, OSError, *INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    except HloblabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except MemoryError as exc:     # a pooled job's too, re-raised here
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def _run_verb(command: str, cfg: RunConfig) -> int:
    if command == "synth":
        days = pipeline.run_synth(cfg)
        print(f"synthesized {len(days)} days into {cfg['data_dir']}")
    elif command == "ingest":
        days = pipeline.run_ingest(cfg)
        print(f"cleaned {len(days)} days into {cfg['out_dir']}/cleaned")
    elif command == "mi":
        path = pipeline.run_mi(cfg)
        print(f"wrote {path}")
    elif command == "tmfg":
        path, complex_ = pipeline.run_tmfg(cfg)
        print(f"wrote {path} "
              f"(tetrahedra {len(complex_.tetrahedra)}, "
              f"triangles {len(complex_.triangles)}, "
              f"edges {len(complex_.edges)})")
    elif command == "train":
        path = pipeline.run_train(cfg)
        print(f"wrote {path}")
    elif command == "eval":
        path = pipeline.run_eval(cfg)
        print(f"wrote {path}")
    elif command == "report":
        for path in pipeline.run_report(cfg):
            print(f"wrote {path}")
    elif command == "describe":
        for name, count in pipeline.describe_model(cfg):
            print(f"{name:28s} {count:>10,d}")
    else:
        raise ConfigError("command", f"unknown command {command!r}")
    return 0


def _run_gradcheck() -> int:
    results = pipeline.gradcheck_suite()
    worst = 0.0
    for name, err in results.items():
        print(f"{name:24s} max rel. error {err:.3e}")
        worst = max(worst, err)
    if worst >= GRADCHECK_TOLERANCE:
        print(f"FAIL: worst error {worst:.3e} >= {GRADCHECK_TOLERANCE:.0e}",
              file=sys.stderr)
        return INTERNAL_ERROR
    print("all gradient checks passed")
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
