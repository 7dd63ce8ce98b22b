"""Text corpora: tokenization, privacy masks, CSV ingestion, synthetic data.

Sensitivity is rule-based: a token is sensitive iff it contains a decimal
digit (account numbers, phone numbers, ...).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import re
from dataclasses import dataclass, field
from typing import Optional

from .rng import RngStream

PAD_ID = 0
UNK_ID = 1
DEFAULT_MAX_LEN = 32

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass
class Example:
    text: str
    label: int

    @functools.cached_property
    def words(self) -> list:
        """`split_text(text)`, split once per example."""
        return split_text(self.text)


@dataclass
class Vocabulary:
    token_to_id: dict = field(default_factory=dict)
    id_to_token: list = field(default_factory=lambda: ["<pad>", "<unk>"])

    def __len__(self):
        return len(self.id_to_token)

    def add(self, token: str) -> int:
        if token not in self.token_to_id:
            self.token_to_id[token] = len(self.id_to_token)
            self.id_to_token.append(token)
        return self.token_to_id[token]

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


@dataclass
class TokenSequence:
    ids: list
    mask: list
    tokens: list  # surface forms, kept for masking and debugging

    def __post_init__(self):
        if len(self.ids) == 0:
            raise ValueError("empty sequence")
        if len(self.ids) != len(self.mask) or len(self.ids) != len(self.tokens):
            raise ValueError("ids/mask/tokens length mismatch")

    @property
    def length(self) -> int:
        return len(self.ids)


def split_text(text: str) -> list:
    """Lowercase and split on whitespace/punctuation; keeps digit runs whole."""
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> TokenSequence:
    tokens = split_text(text)[:max_len]
    if not tokens:
        raise ValueError(f"empty sequence after tokenization: {text!r}")
    ids = [vocab.lookup(t) for t in tokens]
    return TokenSequence(ids=ids, mask=[0] * len(ids), tokens=tokens)


def contains_digit(token: str) -> bool:
    return any(map(str.isdigit, token))


def mask_privacy(seq: TokenSequence) -> TokenSequence:
    """Mark tokens that contain a digit as sensitive."""
    mask = [1 if contains_digit(t) else 0 for t in seq.tokens]
    return TokenSequence(ids=list(seq.ids), mask=mask, tokens=list(seq.tokens))


def encode(examples: list, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> list:
    """`mask_privacy(tokenize(ex.text, vocab, max_len))` for every example,
    with each distinct word looked up and checked for a digit once."""
    memo = {}
    out = []
    for ex in examples:
        tokens = ex.words[:max_len]
        if not tokens:
            raise ValueError(f"empty sequence after tokenization: {ex.text!r}")
        for t in tokens:
            if t not in memo:
                memo[t] = (vocab.lookup(t), int(contains_digit(t)))
        ids, mask = zip(*[memo[t] for t in tokens])
        out.append(TokenSequence(ids=list(ids), mask=list(mask), tokens=tokens))
    return out


def build_vocabulary(examples: list) -> Vocabulary:
    """Every word of `examples`, numbered in order of first occurrence."""
    vocab = Vocabulary()
    for tok in dict.fromkeys(itertools.chain.from_iterable(ex.words for ex in examples)):
        vocab.add(tok)
    return vocab


def load_csv(path: str, num_classes: Optional[int] = None) -> list:
    """Read a `text,label` CSV; returns examples in file order.

    Labels must be integers in a contiguous range starting at 0 (checked
    against num_classes when given).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            content = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    examples = []
    reader = csv.reader(io.StringIO(content, newline=""))
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header[:2]] != ["text", "label"]:
        raise ValueError(f"{path}: expected header 'text,label'")
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise ValueError(f"{path}: malformed row at line {lineno}")
        text, label_s = row
        try:
            label = int(label_s)
        except ValueError:
            raise ValueError(f"{path}: non-integer label at line {lineno}")
        if label < 0 or (num_classes is not None and label >= num_classes):
            raise ValueError(f"{path}: label {label} out of range at line {lineno}")
        examples.append(Example(text=text, label=label))
    if not examples:
        raise ValueError(f"{path}: no examples")
    return examples


def infer_num_classes(examples: list) -> int:
    labels = sorted({ex.label for ex in examples})
    n = len(labels)
    if labels != list(range(n)):
        raise ValueError(f"labels not contiguous from 0: {labels}")
    return n


# -- synthetic corpus ------------------------------------------------------

_FILLERS = [
    "please", "i", "want", "to", "about", "my", "the", "can", "you", "help",
    "with", "need", "some", "info", "on", "today", "now", "thanks", "hello",
    "regarding",
]

_KEYWORDS_PER_CLASS = 4
_KEYWORDS_PER_EXAMPLE = 3
_FILLERS_PER_EXAMPLE = 6


def class_keywords(c: int) -> list:
    # keywords must stay digit-free so the privacy rule never flags them
    tag = ""
    n = c
    while True:
        tag = chr(ord("a") + n % 26) + tag
        n //= 26
        if n == 0:
            break
    return [f"topic{tag}{w}" for w in ("alpha", "bravo", "carol", "delta")[:_KEYWORDS_PER_CLASS]]


def synth_generate(rng: RngStream, n: int, num_classes: int,
                   sensitive_rate: float) -> list:
    """Balanced synthetic intent corpus.

    Each example contains keywords exclusive to its class (so a
    majority-keyword classifier scores 1.0), shared filler words carrying no
    label signal, and, at the given rate, digit tokens acting as decoy
    sensitive content.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if not (0.0 <= sensitive_rate <= 1.0):
        raise ValueError("sensitive_rate must be in [0, 1]")
    examples = []
    for i in range(n):
        label = i % num_classes
        kws = list(rng.choice(class_keywords(label), size=_KEYWORDS_PER_EXAMPLE,
                              replace=False))
        fillers = list(rng.choice(_FILLERS, size=_FILLERS_PER_EXAMPLE, replace=False))
        tokens = kws + fillers
        if rng.uniform() < sensitive_rate:
            # small digit pool keeps sensitive tokens in-vocabulary at test time
            n_digits = 1 + int(rng.integers(0, 2))
            for _ in range(n_digits):
                tokens.append(f"acct{int(rng.integers(10, 100))}")
        order = rng.permutation(len(tokens))
        text = " ".join(tokens[j] for j in order)
        examples.append(Example(text=text, label=label))
    return examples


def load_dataset(train_path: str, test_path: str):
    """Load train/test CSVs; vocabulary comes from the training split only."""
    train = load_csv(train_path)
    num_classes = infer_num_classes(train)
    test = load_csv(test_path, num_classes=num_classes)
    vocab = build_vocabulary(train)
    return train, test, vocab, num_classes


def keyword_oracle_label(text: str, num_classes: int) -> Optional[int]:
    """Majority vote over class-exclusive keywords; None when no keyword."""
    counts = [0] * num_classes
    for tok in split_text(text):
        for c in range(num_classes):
            if tok in class_keywords(c):
                counts[c] += 1
    best = max(counts)
    return counts.index(best) if best > 0 else None
