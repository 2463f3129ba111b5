"""Corpus loading, stratified fold planning, and labeled/unlabeled sampling.

Documents are immutable after load. Fold and sample operations are pure
functions of (input, seed), so one seed pins the exact train/test splits
across every model compared in an experiment.
"""

from __future__ import annotations

import json
import types
from collections import Counter
from dataclasses import dataclass

import numpy as np

POSITIVE = "positive"
NEGATIVE = "negative"
GOLD_LABELS = (POSITIVE, NEGATIVE)


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid split requests."""


@dataclass(frozen=True)
class Document:
    """One short text with optional gold label and annotated human spans.

    ``positive_human_spans`` holds [start, end) character ranges into
    ``text`` marking the human mentions affected by the event. Only
    positive documents carry them.
    """

    id: str
    text: str
    gold_label: str | None = None
    positive_human_spans: tuple[tuple[int, int], ...] = ()
    task: str = ""

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise CorpusError(
                f"document {self.id!r}: text must be a string, "
                f"got {type(self.text).__name__}"
            )
        if self.gold_label is not None and self.gold_label not in GOLD_LABELS:
            raise CorpusError(
                f"document {self.id!r}: gold_label must be one of {GOLD_LABELS}, "
                f"got {self.gold_label!r}"
            )
        spans = tuple(tuple(s) for s in self.positive_human_spans)
        object.__setattr__(self, "positive_human_spans", spans)
        for start, end in spans:
            if not (0 <= start < end <= len(self.text)):
                raise CorpusError(
                    f"document {self.id!r}: span [{start}, {end}) outside text bounds"
                )
        for (_, e1), (s2, _) in zip(sorted(spans), sorted(spans)[1:]):
            if s2 < e1:
                raise CorpusError(f"document {self.id!r}: overlapping spans")
        if spans and self.gold_label != POSITIVE:
            raise CorpusError(
                f"document {self.id!r}: positive_human_spans on a non-positive document"
            )


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every labeled document id to one of k folds."""

    k: int
    assignments: types.MappingProxyType

    def fold_ids(self, fold: int) -> list[str]:
        return sorted(d for d, f in self.assignments.items() if f == fold)


@dataclass(frozen=True)
class SampleSpec:
    n_labeled: int
    seed: int


def _parse_spans(raw):
    if raw is None:
        return ()
    try:
        return tuple((int(s), int(e)) for s, e in raw)
    except (TypeError, ValueError):
        raise CorpusError("positive_human_spans must be [start, end] pairs")


def _read_document(line: str, fmt: str) -> Document:
    """The Document of one non-blank corpus line."""
    if fmt == "tsv":
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusError("expected id<TAB>label<TAB>text")
        doc_id, label, text = parts
        return Document(id=doc_id, text=text, gold_label=label or None)
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON ({exc.msg})") from None
    if not isinstance(raw, dict) or "id" not in raw or "text" not in raw:
        raise CorpusError("record must contain id and text")
    return Document(id=str(raw["id"]), text=raw["text"], gold_label=raw.get("gold_label"),
                    positive_human_spans=_parse_spans(raw.get("positive_human_spans")),
                    task=raw.get("task", ""))


def load_corpus(path, fmt: str = "jsonl") -> list[Document]:
    """Read a corpus file into a list of Documents, in file order.

    ``jsonl`` is the canonical format (one JSON object per line with keys
    id, text and optionally gold_label, positive_human_spans, task).
    ``tsv`` accepts span-free corpora as id <TAB> label <TAB> text, with an
    empty label column meaning unlabeled.
    """
    if fmt not in ("jsonl", "tsv"):
        raise CorpusError(f"unknown corpus format {fmt!r}")
    docs = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                doc = _read_document(line, fmt)
            except CorpusError as exc:
                raise CorpusError(f"line {line_no}: {exc}") from None
            if doc.id in seen:
                raise CorpusError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            docs.append(doc)
    return docs


def _by_class(docs):
    classes = {POSITIVE: [], NEGATIVE: []}
    for d in docs:
        if d.gold_label is None:
            raise CorpusError(f"document {d.id!r} has no gold label")
        classes[d.gold_label].append(d.id)
    return classes


def stratified_folds(corpus: list[Document], k: int, seed: int) -> FoldPlan:
    """Split a fully labeled corpus into k folds, stratified by class.

    Within each class, ids are shuffled (seeded) and dealt round-robin, so
    per-class fold sizes differ by at most one and the per-fold positive
    ratio tracks the corpus ratio. Assignment depends on the document id
    set, not on corpus order.
    """
    if k < 2:
        raise CorpusError(f"k must be >= 2, got {k}")
    classes = _by_class(corpus)
    for label, ids in classes.items():
        if len(ids) < k:
            raise CorpusError(f"class {label!r} has {len(ids)} documents, fewer than k={k}")
    rng = np.random.default_rng(seed)
    assignments = {}
    for label in (POSITIVE, NEGATIVE):
        ids = sorted(classes[label])
        order = rng.permutation(len(ids))
        for slot, idx in enumerate(order):
            assignments[ids[idx]] = slot % k
    return FoldPlan(k=k, assignments=types.MappingProxyType(assignments))


def fold_sizes(corpus: list[Document], k: int) -> list[int]:
    """The document count of each fold of ``stratified_folds(corpus, k,
    seed)``, whatever the seed: the round-robin deal fixes how many ids of
    each class every fold gets, and the seed only which ones."""
    counts = Counter(stratified_folds(corpus, k, 0).assignments.values())
    return [counts[fold] for fold in range(k)]


def _stratified_counts(n_take: int, n_pos: int, n_neg: int) -> tuple[int, int]:
    """Proportional allocation of n_take over the two classes.

    Guarantees at least one document of each available class whenever
    n_take >= 2, since downstream learners need both classes present.
    """
    total = n_pos + n_neg
    take_pos = round(n_take * n_pos / total)
    if n_pos > 0 and n_take >= 2:
        take_pos = max(take_pos, 1)
    if n_neg > 0 and n_take >= 2:
        take_pos = min(take_pos, n_take - 1)
    take_pos = min(max(take_pos, n_take - n_neg), n_pos)
    return take_pos, n_take - take_pos


def hide_gold(doc: Document) -> Document:
    """Copy of a document with its gold label and spans removed."""
    return Document(id=doc.id, text=doc.text, task=doc.task)


def sample_labeled(train_split: list[Document], spec: SampleSpec,
                   hidden=None) -> tuple[list[Document], list[Document]]:
    """Draw a stratified labeled subset; the remainder becomes unlabeled.

    Returns ``(labeled, unlabeled)``, each in split order. Gold labels and
    spans of the unlabeled documents are stripped from the documents
    themselves, so training code never sees them: each is a ``hide_gold``
    copy, or, where ``hidden`` maps the split's ids to such copies made
    beforehand, that copy, so many draws from one corpus share one copy of
    each document. Deterministic per (split, spec).
    """
    if spec.n_labeled > len(train_split):
        raise CorpusError(
            f"n_labeled={spec.n_labeled} exceeds split size {len(train_split)}"
        )
    classes = _by_class(train_split)
    take_pos, take_neg = _stratified_counts(
        spec.n_labeled, len(classes[POSITIVE]), len(classes[NEGATIVE])
    )
    rng = np.random.default_rng(spec.seed)
    chosen = set()
    for label, n_take in ((POSITIVE, take_pos), (NEGATIVE, take_neg)):
        ids = sorted(classes[label])
        order = rng.permutation(len(ids))
        chosen.update(ids[i] for i in order[:n_take])
    labeled = [d for d in train_split if d.id in chosen]
    unlabeled = [hide_gold(d) if hidden is None else hidden[d.id]
                 for d in train_split if d.id not in chosen]
    return labeled, unlabeled
