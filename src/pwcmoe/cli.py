"""Command-line entry point.

Subcommands: train, train-predictor, eval, sweep-budget, sweep-distance,
target-accuracy, channel-probe. Exit codes: 0 success, 1 user error,
2 internal error. All randomness derives from the single --seed value.

Training and sweeps are deterministic in single-threaded mode: repeating a
run with the same config and seed reproduces every output byte.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .config import ConfigError, ExperimentSpec, load_config
from . import harness


class _UserErrorParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


MODES = ["train", "train-predictor", "eval", "sweep-budget", "sweep-distance",
         "target-accuracy", "channel-probe"]
PLOT_MODES = ("sweep-budget", "sweep-distance", "target-accuracy")


def build_parser() -> argparse.ArgumentParser:
    parser = _UserErrorParser(prog="pwcmoe", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=".", help="output directory")
        if mode in PLOT_MODES:
            p.add_argument("--emit-gnuplot", action="store_true",
                           help="also write gnuplot stubs next to the CSVs")
    return parser


def _spec(args) -> ExperimentSpec:
    spec = load_config(args.config) if args.config else ExperimentSpec()
    if args.seed is not None:
        spec.seed = args.seed
    return spec


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.mode == "train":
            harness.run_train(spec, args.out)
        elif args.mode == "train-predictor":
            harness.run_train_predictor(spec, args.out)
        elif args.mode == "eval":
            acc = harness.run_eval(spec, args.out)
            print(f"test_accuracy = {acc:.4f}")
        elif args.mode == "sweep-budget":
            harness.run_budget_sweep(spec, args.out,
                                     emit_gnuplot=args.emit_gnuplot)
        elif args.mode == "sweep-distance":
            harness.run_distance_sweep(spec, args.out,
                                       emit_gnuplot=args.emit_gnuplot)
        elif args.mode == "target-accuracy":
            harness.run_target_accuracy(spec, args.out,
                                        emit_gnuplot=args.emit_gnuplot)
        elif args.mode == "channel-probe":
            harness.run_channel_probe(spec)
    except (FileNotFoundError, ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
