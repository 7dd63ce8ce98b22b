#!/usr/bin/env python3
"""Compare two run directories file by file.

Prints one line per file that differs or exists on one side only. For a
checkpoint (.pwcm, .pwcp) the line names each array that differs and counts
its differing values. Exits 0 only when both directories hold the same files
with the same bytes, else 1.

    python3 scripts/compare_runs.py runs/a runs/b
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pwcmoe.checkpoint import (MAGIC_MODEL, MAGIC_PREDICTOR, CheckpointError,
                               load_container)

MAGICS = {".pwcm": MAGIC_MODEL, ".pwcp": MAGIC_PREDICTOR}


def checkpoint_diff(path_a: str, path_b: str, magic: bytes) -> str:
    """Which arrays of two checkpoints differ, and in how many values."""
    try:
        cfg_a, arrays_a = load_container(path_a, magic)
        cfg_b, arrays_b = load_container(path_b, magic)
    except CheckpointError as exc:
        return f"bytes differ ({exc})"
    parts = [] if cfg_a == cfg_b else ["config block"]
    changed = total = 0
    for name in list(arrays_a) + [k for k in arrays_b if k not in arrays_a]:
        a, b = arrays_a.get(name), arrays_b.get(name)
        if a is None or b is None:
            parts.append(f"{name} only in {path_a if b is None else path_b}")
        elif a.shape != b.shape:
            parts.append(f"{name} shape {a.shape} vs {b.shape}")
        else:
            n = int(np.count_nonzero(a != b))
            changed, total = changed + n, total + a.size
            if n:
                parts.append(f"{name} {n}/{a.size}")
    head = f"{changed} of {total} values differ"
    return f"{head}: {', '.join(parts)}" if parts else f"{head}; bytes differ"


def differences(dir_a: str, dir_b: str) -> list:
    """One line per file that is not byte-identical in both directories."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    lines = []
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            lines.append(f"{name}: only in {dir_a if name in names_a else dir_b}")
            continue
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                continue
        magic = MAGICS.get(os.path.splitext(name)[1])
        detail = checkpoint_diff(path_a, path_b, magic) if magic else "bytes differ"
        lines.append(f"{name}: {detail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="first run directory")
    parser.add_argument("b", help="second run directory")
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not os.path.isdir(d):
            parser.error(f"not a directory: {d}")
    lines = differences(args.a, args.b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
