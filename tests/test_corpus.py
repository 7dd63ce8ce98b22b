import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcmoe import corpus
from pwcmoe.rng import RngStream


def keyword_oracle_label(text: str, num_classes: int):
    """Majority vote over class-exclusive keywords; None when no keyword."""
    counts = [0] * num_classes
    for tok in corpus.split_text(text):
        for c in range(num_classes):
            if tok in corpus.class_keywords(c):
                counts[c] += 1
    best = max(counts)
    return counts.index(best) if best > 0 else None


@pytest.fixture
def vocab():
    v = corpus.Vocabulary()
    for t in ["transfer", "to", "12345", "hello", "my", "card", "ending"]:
        v.add(t)
    return v


class TestTokenize:
    def test_direct_split(self, vocab):
        seq = corpus.tokenize("transfer to 12345", vocab)
        assert seq.tokens == ["transfer", "to", "12345"]
        assert seq.length == 3
        assert all(m == 0 for m in seq.mask)

    def test_case_and_punctuation_normalized(self, vocab):
        seq = corpus.tokenize("Hello, hello!", vocab)
        assert seq.ids[0] == seq.ids[1] == vocab.lookup("hello")

    def test_unknown_maps_to_unk(self, vocab):
        seq = corpus.tokenize("zebra", vocab)
        assert seq.ids == [corpus.UNK_ID]

    def test_truncation(self, vocab):
        text = " ".join(["hello"] * 100)
        assert corpus.tokenize(text, vocab, max_len=32).length == 32

    def test_empty_raises(self, vocab):
        with pytest.raises(ValueError, match="empty sequence"):
            corpus.tokenize("   !!!   ", vocab)

    def test_roundtrip_in_vocab(self, vocab):
        seq = corpus.tokenize("my card ending", vocab)
        again = corpus.tokenize(" ".join(vocab.id_to_token[i] for i in seq.ids), vocab)
        assert again.ids == seq.ids


class TestMaskPrivacy:
    def test_numeric_token_flagged(self, vocab):
        seq = corpus.mask_privacy(corpus.tokenize("transfer to 12345", vocab))
        assert seq.mask == [0, 0, 1]

    def test_digit_containing_token_flagged(self, vocab):
        seq = corpus.mask_privacy(corpus.tokenize("my card ending 4417x", vocab))
        assert seq.mask == [0, 0, 0, 1]

    def test_all_alphabetic_unmasked(self, vocab):
        seq = corpus.mask_privacy(corpus.tokenize("hello my card", vocab))
        assert seq.mask == [0, 0, 0]

    def test_idempotent(self, vocab):
        seq = corpus.mask_privacy(corpus.tokenize("transfer to 12345", vocab))
        assert corpus.mask_privacy(seq).mask == seq.mask

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                                          max_codepoint=127), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_partition_exhaustive_and_disjoint(self, text):
        if not corpus.split_text(text):
            return
        seq = corpus.mask_privacy(corpus.tokenize(text, corpus.Vocabulary()))
        # every token is either sensitive (1) or not (0), never both
        assert len(seq.mask) == seq.length and set(seq.mask) <= {0, 1}

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_digit_check_matches_per_character_form(self, text):
        assert corpus.contains_digit(text) == any(c.isdigit() for c in text)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "toy.csv"
        examples = [corpus.Example("hello there", 0),
                    corpus.Example('say "hi", friend', 1)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text", "label"])
            writer.writerows([e.text, e.label] for e in examples)
        loaded = corpus.load_csv(str(path))
        assert [(e.text, e.label) for e in loaded] == \
            [(e.text, e.label) for e in examples]

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("text,label\nok,0\nonly-one-column\n")
        with pytest.raises(ValueError, match="line 3"):
            corpus.load_csv(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("hello,0\n")
        with pytest.raises(ValueError, match="header"):
            corpus.load_csv(str(path))

    def test_unseen_test_label_rejected(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("text,label\na,0\nb,1\n")
        test.write_text("text,label\nc,2\n")
        with pytest.raises(ValueError, match="label 2"):
            corpus.load_dataset(str(train), str(test))

    def test_vocabulary_from_training_only(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("text,label\nalpha beta,0\ngamma,1\n")
        test.write_text("text,label\ndelta,0\n")
        _, _, vocab, _ = corpus.load_dataset(str(train), str(test))
        assert vocab.lookup("delta") == corpus.UNK_ID
        assert vocab.lookup("alpha") != corpus.UNK_ID


class TestSynth:
    def test_balanced(self):
        exs = corpus.synth_generate(RngStream(0, "s"), 1000, 4, 0.5)
        assert len(exs) == 1000
        for c in range(4):
            assert sum(1 for e in exs if e.label == c) >= 200

    def test_sensitive_rate_zero(self):
        exs = corpus.synth_generate(RngStream(0, "s"), 200, 4, 0.0)
        for e in exs:
            assert not any(corpus.contains_digit(t) for t in corpus.split_text(e.text))

    def test_sensitive_rate_one(self):
        exs = corpus.synth_generate(RngStream(0, "s"), 200, 4, 1.0)
        for e in exs:
            assert any(corpus.contains_digit(t) for t in corpus.split_text(e.text))

    def test_label_recoverable_by_keyword_oracle(self):
        exs = corpus.synth_generate(RngStream(3, "s"), 500, 4, 0.8)
        hits = sum(1 for e in exs
                   if keyword_oracle_label(e.text, 4) == e.label)
        assert hits == 500
