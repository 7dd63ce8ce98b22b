#!/usr/bin/env python3
"""Print one sha256 over the one-request serve path of a trained run.

For every test example of the config's data and every budget in BUDGETS it
runs what a client does per request: predictor scores (`scores_np`), top-k
selection (`select_topk`) and the collaborative forward, or records the
error the forward raises. The digest covers the scores, the selected
positions and the class probabilities bit for bit, so two versions of the
program that print the same line serve every such request identically.
`scripts/compare_runs.py` compares the files a run writes, which the
one-request path does not touch.

    python3 scripts/serve_digest.py --config configs/tiny.cfg --run runs/demo
"""

import argparse
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pwcmoe import harness, scheduler
from pwcmoe.config import ExperimentSpec, load_config

# 0 leaves only the sensitive tokens (an error when there are none); 1000
# uplinks every non-sensitive token
BUDGETS = (0, 1, 2, 3, 5, 8, 1000)


def digest(spec: ExperimentSpec, run_dir: str) -> tuple:
    """(sha256 hex digest, requests served, requests that raised)."""
    bundle, model, predictor = harness._load_artifacts(spec, run_dir, predictor=True)
    h = hashlib.sha256()
    failed = 0
    for seq, _ in bundle.test:
        scores = predictor.scores_np(model.embedding.data[np.asarray(seq.ids)])
        h.update(scores.tobytes())
        for budget in BUDGETS:
            decision = scheduler.select_topk(scores, seq.mask, budget)
            h.update(repr(decision.selected).encode())
            try:
                h.update(harness.collaborative_forward(model, seq, decision).tobytes())
            except ValueError as exc:
                failed += 1
                h.update(f"error: {exc}".encode())
    return h.hexdigest(), len(bundle.test) * len(BUDGETS), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed of the run")
    parser.add_argument("--run", required=True, help="run directory with the checkpoints")
    args = parser.parse_args(argv)
    try:
        spec = load_config(args.config) if args.config else ExperimentSpec()
        if args.seed is not None:
            spec.seed = args.seed
        hexdigest, served, failed = digest(spec, args.run)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(f"{hexdigest}  {served} requests, {failed} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
