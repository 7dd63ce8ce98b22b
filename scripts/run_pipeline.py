#!/usr/bin/env python3
"""Run the full experiment pipeline into one output directory: every stage of
the `pwcmoe` CLI but channel-probe, in `cli.MODES` order (train, distill the
predictor, evaluate, then the three sweeps).

Each stage reads what the earlier ones wrote there, exactly as when the CLI
is invoked once per stage. Exits with the first non-zero stage exit code.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pwcmoe import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="runs/pipeline")
    args = parser.parse_args(argv)

    common = ["--out", args.out]
    if args.config:
        common += ["--config", args.config]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    for stage in cli.MODES:
        if stage == "channel-probe":
            continue
        rc = cli.run([stage] + common)
        if rc != 0:
            return rc
    print(f"artifacts written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
