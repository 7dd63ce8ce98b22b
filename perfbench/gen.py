"""Seeded inputs for the benchmark: a text-classification corpus that does not
saturate, and the `key = value` config the program runs on.

The corpus is built so that accuracy depends on how many tokens reach the
classifier:

- each class has a small pool of exclusive keywords, and each pair of
  neighbouring classes shares a second pool, so one keyword is often
  ambiguous and several keywords are needed to be sure;
- sequences hold ~20 tokens, most of them label-free fillers, so a random
  pick of a few tokens often misses every keyword;
- a few labels are wrong, which caps test accuracy below 1;
- digit tokens (account numbers, PINs) make some tokens sensitive. They
  carry no label signal, so accuracy at budget 0 stays near chance.

Everything here uses the standard library only, so the corpus does not
depend on how numpy draws random numbers.
"""

from __future__ import annotations

import csv
import random

NUM_CLASSES = 4
EXCLUSIVE_PER_CLASS = 5
SHARED_PER_PAIR = 5
NUM_FILLERS = 80
SEQ_TOKENS = (18, 22)       # inclusive range of tokens per sequence
KEYWORDS = (3, 6)           # inclusive range of keywords per sequence
P_RELATED = 0.85            # chance that a keyword belongs to the label's pools
P_EXCLUSIVE = 0.15          # chance that such a keyword is exclusive to the label
SENSITIVE_RATE = 0.7        # share of sequences with digit tokens
SENSITIVE_TOKENS = (1, 3)   # inclusive range of digit tokens when present
LABEL_NOISE = 0.03          # share of labels replaced by another class

_ONSETS = "b c d f g h j k l m n p r s t v w z".split()
_VOWELS = "a e i o u".split()


def _word_pool(n: int, stem: str) -> list:
    """`n` distinct alphabetic words; fixed, independent of the seed."""
    words = []
    for a in _ONSETS:
        for v in _VOWELS:
            for b in _ONSETS:
                words.append(f"{stem}{a}{v}{b}")
                if len(words) == n:
                    return words
    raise ValueError(f"pool of {n} words is too large")


def vocabulary() -> dict:
    """Word pools by role. Keywords and fillers contain no digit."""
    exclusive = [_word_pool(EXCLUSIVE_PER_CLASS, f"x{chr(ord('a') + c)}")
                 for c in range(NUM_CLASSES)]
    shared = [_word_pool(SHARED_PER_PAIR, f"s{chr(ord('a') + c)}")
              for c in range(NUM_CLASSES)]  # pool c is shared by c and c+1
    return {"exclusive": exclusive, "shared": shared,
            "fillers": _word_pool(NUM_FILLERS, "")}


def _sensitive_token(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return f"acct{rng.randrange(10, 60)}"
    if kind == 1:
        return str(rng.randrange(1000, 1030))
    return f"pin{rng.randrange(0, 30)}"


def make_examples(rng: random.Random, n: int, pools: dict) -> list:
    """`n` (tokens, label) pairs; labels balanced before noise."""
    out = []
    for i in range(n):
        label = i % NUM_CLASSES
        keywords = []
        for _ in range(rng.randint(*KEYWORDS)):
            owner = label if rng.random() < P_RELATED else \
                (label + rng.randrange(1, NUM_CLASSES)) % NUM_CLASSES
            if rng.random() < P_EXCLUSIVE:
                pool = pools["exclusive"][owner]
            else:
                pool = pools["shared"][(owner - rng.randrange(2)) % NUM_CLASSES]
            keywords.append(rng.choice(pool))
        sensitive = []
        if rng.random() < SENSITIVE_RATE:
            sensitive = [_sensitive_token(rng) for _ in range(rng.randint(*SENSITIVE_TOKENS))]
        n_fill = max(0, rng.randint(*SEQ_TOKENS) - len(keywords) - len(sensitive))
        tokens = keywords + sensitive + [rng.choice(pools["fillers"]) for _ in range(n_fill)]
        rng.shuffle(tokens)
        if rng.random() < LABEL_NOISE:
            label = (label + rng.randrange(1, NUM_CLASSES)) % NUM_CLASSES
        out.append((tokens, label))
    return out


def make_corpus(seed: int, n_train: int, n_test: int) -> tuple:
    """(train, test) lists of (tokens, label), fixed by `seed`."""
    rng = random.Random(f"perfbench-corpus-{seed}")
    pools = vocabulary()
    return make_examples(rng, n_train, pools), make_examples(rng, n_test, pools)


def write_csv(path: str, examples: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["text", "label"])
        for tokens, label in examples:
            w.writerow([" ".join(tokens), label])


def write_config(path: str, entries: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, v in entries.items():
            if isinstance(v, (list, tuple)):
                v = ",".join(str(x) for x in v)
            fh.write(f"{k} = {v}\n")
