#!/usr/bin/env python3
"""Compare two run directories file by file.

Prints one line per file that differs or exists on one side only. For a
checkpoint (.pwcm, .pwcp) the line names each array that differs, counts
its differing values and gives the largest absolute difference, so rounding
noise can be told from a real change. For a CSV it counts the data lines
that differ and shows the first few by their fields before the first one
that differs (such as `3,random`), so the rows that moved can be told
apart. Exits 0 only when both directories hold the same files with the
same bytes, else 1.

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
SHOWN_LINES = 3


def checkpoint_diff(path_a: str, path_b: str, magic: bytes) -> str:
    """Which arrays of two checkpoints differ, in how many values and by
    how much at most."""
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
                parts.append(f"{name} {n}/{a.size} (max |Δ| {np.max(np.abs(a - b)):.2g})")
    head = f"{changed} of {total} values differ"
    return f"{head}: {', '.join(parts)}" if parts else f"{head}; bytes differ"


def csv_diff(path_a: str, path_b: str) -> str:
    """How many data lines of two CSVs differ, and the leading fields the
    first few of them share."""
    with open(path_a, encoding="utf-8", errors="replace") as fa, \
            open(path_b, encoding="utf-8", errors="replace") as fb:
        lines_a, lines_b = fa.read().splitlines(), fb.read().splitlines()
    if lines_a[:1] != lines_b[:1]:
        return "header differs"
    rows_a, rows_b = lines_a[1:], lines_b[1:]
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a)} vs {len(rows_b)} data lines"
    leads = [",".join(os.path.commonprefix([a.split(","), b.split(",")]))
             for a, b in zip(rows_a, rows_b) if a != b]
    if not leads:
        return "bytes differ"
    more = "; ..." if len(leads) > SHOWN_LINES else ""
    return (f"{len(leads)} of {len(rows_a)} data lines differ: "
            f"{'; '.join(leads[:SHOWN_LINES])}{more}")


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
        ext = os.path.splitext(name)[1]
        if ext in MAGICS:
            detail = checkpoint_diff(path_a, path_b, MAGICS[ext])
        elif ext == ".csv":
            detail = csv_diff(path_a, path_b)
        else:
            detail = "bytes differ"
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
