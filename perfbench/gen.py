"""Seeded input generators for the benchmark workloads.

Each generator takes the seed as an argument and returns plain records
(the JSONL corpus the program reads) together with what it planted: the
gold label of every document and, for the ADR corpus, how many mentions of
each view every document carries. The program receives only the records;
the planted facts stay with the checkers.

The generators use ``random.Random`` so that they share no code, and no
random stream, with the program under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POSITIVE = "positive"
NEGATIVE = "negative"


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _labels(n_docs, rng):
    """Exactly round(n_docs * POSITIVE_RATE) positives, in random order."""
    n_pos = round(n_docs * POSITIVE_RATE)
    labels = [1] * n_pos + [0] * (n_docs - n_pos)
    rng.shuffle(labels)
    return labels


def _vocab(prefix, size):
    return [f"{prefix}{i}" for i in range(size)]


# ---------------------------------------------------------------------------
# Two-view keyword corpus (criterion-8 make-up)
# ---------------------------------------------------------------------------

TWO_VIEW_PRESET = """\
[alpha]
kind = keyword
keywords = alpha

[beta]
kind = keyword
keywords = beta
"""


POSITIVE_RATE = 0.4

# two-view corpus: a context word is neutral with probability AMBIGUITY;
# a third of the documents repeat "alpha" among filler words
TWO_VIEW_AMBIGUITY, TWO_VIEW_CLASS_VOCAB, TWO_VIEW_NEUTRAL_VOCAB = 0.15, 30, 40
EXTRA_OCCURRENCE_RATE = 0.3


def two_view_corpus(n_docs: int, seed: int, view_noise: float = 0.2,
                    confusion_rate: float = 0.5):
    """Documents with one "alpha" and one "beta" keyword view.

    Each view's neighbours come from class-conditional vocabularies after
    the document label is flipped per view with probability ``view_noise``,
    so either view alone is a noisy signal and the two together are a
    better one. A filler word is a class word with probability
    ``confusion_rate``, so a document-level bag of words carries less
    signal than the mention windows. Class counts are exact:
    round(n_docs * POSITIVE_RATE).

    Returns (records, gold) where gold maps document id to label.
    """
    rng = random.Random(seed)
    labels = _labels(n_docs, rng)
    apos, aneg = _vocab("ap", TWO_VIEW_CLASS_VOCAB), _vocab("an", TWO_VIEW_CLASS_VOCAB)
    bpos, bneg = _vocab("bp", TWO_VIEW_CLASS_VOCAB), _vocab("bn", TWO_VIEW_CLASS_VOCAB)
    neutral = _vocab("f", TWO_VIEW_NEUTRAL_VOCAB)
    class_words = apos + aneg + bpos + bneg

    def context(pool, k):
        return [rng.choice(neutral) if rng.random() < TWO_VIEW_AMBIGUITY
                else rng.choice(pool) for _ in range(k)]

    def filler(k):
        return [rng.choice(class_words) if rng.random() < confusion_rate
                else rng.choice(neutral) for _ in range(k)]

    records, gold = [], {}
    for i, y in enumerate(labels):
        a = y if rng.random() >= view_noise else 1 - y
        b = y if rng.random() >= view_noise else 1 - y
        words = filler(rng.randint(1, 3))
        words += context(apos if a else aneg, 2) + ["alpha"]
        words += context(apos if a else aneg, 2)
        words += filler(rng.randint(2, 4))
        words += context(bpos if b else bneg, 2) + ["beta"]
        words += context(bpos if b else bneg, 2)
        words += filler(rng.randint(1, 3))
        if rng.random() < EXTRA_OCCURRENCE_RATE:
            words += filler(2) + ["alpha"] + filler(2)
        doc_id = f"d{i:05d}"
        label = POSITIVE if y else NEGATIVE
        records.append({"id": doc_id, "text": " ".join(words), "gold_label": label})
        gold[doc_id] = label
    return records, gold


# ---------------------------------------------------------------------------
# ADR-style corpus: human view plus the drug-name list
# ---------------------------------------------------------------------------

# Words the human view must find. Every entry is in the packaged pronoun or
# person lexicon; @-handles are made up per document.
PRONOUNS = ("i", "my", "me", "we", "our", "she", "her", "he", "his", "they", "you")
PERSON_WORDS = ("mom", "dad", "sister", "brother", "friend", "wife", "husband",
                "son", "daughter", "grandma", "roommate", "boss")

# Sentence openers that fire exactly one first-person rewrite each: an
# irregular past verb, a regular -ed past, an adjective, a past participle,
# a progressive -ing verb, and the literal "is".
REWRITE_OPENERS = ("felt", "took", "woke", "fell", "vomited", "dizzy", "nauseous",
                   "itchy", "sleepy", "hospitalized", "prescribed", "medicated",
                   "taking", "shaking", "sweating", "is")


def read_wordlist(path) -> list[str]:
    """Entries of a lexicon-format file: one per line, '#' comments."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip().lower()
        if entry:
            out.append(entry)
    return out


class _Text:
    """Builds a text from words and remembers character spans."""

    def __init__(self):
        self.parts = []
        self.length = 0

    def add(self, word: str) -> tuple[int, int]:
        if self.parts:
            self.parts.append(" ")
            self.length += 1
        start = self.length
        self.parts.append(word)
        self.length += len(word)
        return start, self.length

    def text(self) -> str:
        return "".join(self.parts)


# ADR corpus: small vocabularies and little noise, so that F1 varies
# little by seed
ADR_VIEW_NOISE, ADR_AMBIGUITY, ADR_CLASS_VOCAB, ADR_NEUTRAL_VOCAB = 0.1, 0.05, 8, 20


def adr_corpus(n_docs: int, seed: int, drugs):
    """ADR-style documents with a known mention count per view.

    Every document has one event sentence: a human mention and a drug name,
    each between two context words drawn from its view's class vocabulary
    (label flipped per view with probability ``ADR_VIEW_NOISE``). Optional
    sentences add an elided first-person opener that the sentence-start
    rewrite turns into a synthetic "i", a bystander human mention, and a
    second drug name. Positive documents mark the event sentence's human
    mention in ``positive_human_spans``.

    Returns (records, gold, planted): gold maps id to label, planted maps id
    to {"human": n, "drug": n}.
    """
    rng = random.Random(seed)
    labels = _labels(n_docs, rng)
    hpos, hneg = _vocab("hp", ADR_CLASS_VOCAB), _vocab("hn", ADR_CLASS_VOCAB)
    dpos, dneg = _vocab("dp", ADR_CLASS_VOCAB), _vocab("dn", ADR_CLASS_VOCAB)
    neutral = _vocab("q", ADR_NEUTRAL_VOCAB)

    def context(pool):
        return [rng.choice(neutral) if rng.random() < ADR_AMBIGUITY else rng.choice(pool)
                for _ in range(2)]

    def human_word(n):
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(PRONOUNS)
        if kind == 1:
            return rng.choice(PERSON_WORDS)
        return f"@user{n}{rng.randrange(1000)}"

    def drug():
        name = rng.choice(drugs)
        return name.title() if rng.random() < 0.3 else name

    records, gold, planted = [], {}, {}
    for i, y in enumerate(labels):
        a = y if rng.random() >= ADR_VIEW_NOISE else 1 - y
        b = y if rng.random() >= ADR_VIEW_NOISE else 1 - y
        text = _Text()
        n_human = n_drug = 0

        # event sentence; it opens with a neutral word, which fires no rewrite
        for w in [rng.choice(neutral)] + context(hpos if a else hneg):
            text.add(w)
        event_span = text.add(human_word(i))
        n_human += 1
        for w in context(hpos if a else hneg) + [rng.choice(neutral)]:
            text.add(w)
        for w in context(dpos if b else dneg) + [drug()] + context(dpos if b else dneg):
            text.add(w)
        n_drug += 1
        text.add(rng.choice(".!"))

        if rng.random() < 0.5:
            opener = rng.choice(REWRITE_OPENERS)
            text.add(opener.capitalize() if rng.random() < 0.5 else opener)
            n_human += 1
            for _ in range(rng.randint(1, 3)):
                text.add(rng.choice(neutral))
            text.add(".")
        if rng.random() < 0.4:
            text.add(rng.choice(neutral))
            text.add(human_word(i))
            n_human += 1
            text.add(rng.choice(neutral))
            if rng.random() < 0.3:
                text.add(drug())
                n_drug += 1
                text.add(rng.choice(neutral))
            text.add("?")

        doc_id = f"a{i:05d}"
        label = POSITIVE if y else NEGATIVE
        record = {"id": doc_id, "text": text.text(), "gold_label": label,
                  "task": "adr"}
        if y:
            record["positive_human_spans"] = [list(event_span)]
        records.append(record)
        gold[doc_id] = label
        planted[doc_id] = {"human": n_human, "drug": n_drug}
    return records, gold, planted


def hide_gold(record: dict) -> dict:
    """The record as an unlabeled document: no gold label, no spans."""
    return {k: v for k, v in record.items()
            if k not in ("gold_label", "positive_human_spans")}
