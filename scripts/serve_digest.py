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

The seed is the one in the run's `run-manifest.txt`, and the config must be
the one the run was built from: with the seed set, its hash must equal the
manifest's `config_sha256`.

    python3 scripts/serve_digest.py --config configs/tiny.cfg --run runs/demo
"""

import argparse
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pwcmoe import harness, scheduler
from pwcmoe.config import ExperimentSpec, config_hash, load_config

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


def run_spec(config_path, run_dir: str) -> ExperimentSpec:
    """The spec of `config_path` (default: the defaults) with the seed of the
    run's manifest. A config that the run was not built from raises
    ValueError naming both hashes."""
    spec = load_config(config_path) if config_path else ExperimentSpec()
    with open(os.path.join(run_dir, "run-manifest.txt"), encoding="utf-8") as fh:
        manifest = dict(line.rstrip("\n").split(" = ", 1) for line in fh if " = " in line)
    if not {"seed", "config_sha256"} <= manifest.keys():
        raise ValueError(f"{run_dir}/run-manifest.txt lacks the seed or config_sha256")
    spec.seed = int(manifest["seed"])
    if config_hash(spec) != manifest["config_sha256"]:
        raise ValueError(f"config hash {config_hash(spec)} differs from the run's "
                         f"config_sha256 {manifest['config_sha256']}")
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--run", required=True, help="run directory with the checkpoints")
    args = parser.parse_args(argv)
    try:
        hexdigest, served, failed = digest(run_spec(args.config, args.run), args.run)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(f"{hexdigest}  {served} requests, {failed} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
