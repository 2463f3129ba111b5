from collections import Counter

import pytest

from codecomp.corpus import (
    CorpusError,
    Document,
    NEGATIVE,
    POSITIVE,
    SampleSpec,
    fold_sizes,
    load_corpus,
    sample_labeled,
    stratified_folds,
)
from codecomp.synthetic import decomposable_corpus


def test_load_jsonl_field_mapping(write_jsonl):
    path = write_jsonl([
        {"id": "1", "text": "i have cancer", "gold_label": "positive",
         "positive_human_spans": [[0, 1]]},
    ])
    docs = load_corpus(path)
    assert len(docs) == 1
    doc = docs[0]
    assert doc.id == "1"
    assert doc.text == "i have cancer"
    assert doc.gold_label == POSITIVE
    assert doc.positive_human_spans == ((0, 1),)


def test_load_preserves_file_order(write_jsonl):
    path = write_jsonl([{"id": str(i), "text": "t"} for i in (3, 1, 2)])
    assert [d.id for d in load_corpus(path)] == ["3", "1", "2"]


def test_duplicate_id_rejected(write_jsonl):
    path = write_jsonl([
        {"id": "7", "text": "a"},
        {"id": "7", "text": "b"},
    ])
    with pytest.raises(CorpusError, match="'7'"):
        load_corpus(path)


def test_malformed_record_names_line(write_jsonl, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "1", "text": "ok"}\n{broken\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_missing_text_names_line(write_jsonl):
    path = write_jsonl([{"id": "1"}])
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path)


@pytest.mark.parametrize("record, message", [
    ({"id": "1", "text": "ok", "gold_label": "positive",
      "positive_human_spans": [[0, "x"]]},
     "^line 2: positive_human_spans must be \\[start, end\\] pairs$"),
    ({"id": "1", "text": 5}, "^line 2: document '1': text must be a string, got int$"),
], ids=["spans", "text"])
def test_bad_record_names_its_line_once(write_jsonl, record, message):
    path = write_jsonl([{"id": "0", "text": "fine"}, record])
    with pytest.raises(CorpusError, match=message):
        load_corpus(path)


def test_load_crisis_shaped_corpus(write_jsonl):
    docs, _ = decomposable_corpus(2013, seed=60, positive_rate=0.11)
    path = write_jsonl([
        {"id": d.id, "text": d.text, "gold_label": d.gold_label} for d in docs
    ])
    loaded = load_corpus(path)
    assert len(loaded) == 2013
    assert sum(d.gold_label == POSITIVE for d in loaded) in (221, 222)


def test_tsv_load(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("1\tpositive\thello world\n2\t\tno label\n", encoding="utf-8")
    docs = load_corpus(path, "tsv")
    assert docs[0].gold_label == POSITIVE
    assert docs[1].gold_label is None


def test_tsv_row_error_names_its_line(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("a\tpositive\tfine\n\nb\tmaybe\tno such label\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^line 3: document 'b': gold_label must be one of"):
        load_corpus(path, "tsv")


@pytest.mark.parametrize("spans, message", [
    ([[0, 99]], "bounds"),
    ([[0, 3], [2, 5]], "overlap"),
])
def test_span_invariants(spans, message):
    with pytest.raises(CorpusError, match=message):
        Document(id="1", text="short", gold_label=POSITIVE,
                 positive_human_spans=spans)


def test_spans_require_positive_label():
    with pytest.raises(CorpusError, match="non-positive"):
        Document(id="1", text="short", gold_label=NEGATIVE,
                 positive_human_spans=[[0, 2]])


def _balanced_corpus(n_pos, n_neg):
    docs = [Document(id=f"p{i}", text="x", gold_label=POSITIVE) for i in range(n_pos)]
    docs += [Document(id=f"n{i}", text="x", gold_label=NEGATIVE) for i in range(n_neg)]
    return docs


def test_folds_divisible_counts():
    plan = stratified_folds(_balanced_corpus(50, 50), k=10, seed=0)
    per_fold = Counter()
    for doc_id, fold in plan.assignments.items():
        per_fold[(fold, doc_id[0])] += 1
    for fold in range(10):
        assert per_fold[(fold, "p")] == 5
        assert per_fold[(fold, "n")] == 5


def test_folds_crisis_shape_counts():
    # 2,013 documents at 11% positive: each fold must hold 22 +/- 1 positives,
    # verified by exhaustive recount of the assignment
    docs, _ = decomposable_corpus(2013, seed=5, positive_rate=0.11)
    assert sum(d.gold_label == POSITIVE for d in docs) in (221, 222)
    plan = stratified_folds(docs, k=10, seed=3)
    gold = {d.id: d.gold_label for d in docs}
    positives = Counter()
    totals = Counter()
    for doc_id, fold in plan.assignments.items():
        totals[fold] += 1
        if gold[doc_id] == POSITIVE:
            positives[fold] += 1
    assert sum(totals.values()) == 2013
    for fold in range(10):
        assert 21 <= positives[fold] <= 23
    overall = 221 / 2013
    for fold in range(10):
        assert abs(positives[fold] / totals[fold] - overall) <= 0.02


def test_folds_deterministic():
    docs = _balanced_corpus(30, 70)
    a = stratified_folds(docs, k=5, seed=99)
    b = stratified_folds(docs, k=5, seed=99)
    assert dict(a.assignments) == dict(b.assignments)
    c = stratified_folds(docs, k=5, seed=100)
    assert dict(a.assignments) != dict(c.assignments)


def test_folds_partition_property():
    docs = _balanced_corpus(23, 77)
    for seed in range(5):
        plan = stratified_folds(docs, k=4, seed=seed)
        assert sorted(plan.assignments) == sorted(d.id for d in docs)
        assert set(plan.assignments.values()) <= set(range(4))
        # per-class fold sizes differ by at most one
        for prefix in "pn":
            sizes = Counter(f for d, f in plan.assignments.items() if d[0] == prefix)
            assert max(sizes.values()) - min(sizes.values()) <= 1


def test_fold_sizes_match_every_plan():
    for n_pos, n_neg, k in ((23, 77, 4), (50, 50, 10), (7, 3, 3), (5, 9, 2)):
        docs = _balanced_corpus(n_pos, n_neg)
        for seed in range(5):
            plan = stratified_folds(docs, k=k, seed=seed)
            counts = Counter(plan.assignments.values())
            assert fold_sizes(docs, k) == [counts[f] for f in range(k)]


def test_folds_small_class_error():
    with pytest.raises(CorpusError, match="fewer than k"):
        stratified_folds(_balanced_corpus(3, 50), k=10, seed=0)
    with pytest.raises(CorpusError, match="fewer than k"):
        fold_sizes(_balanced_corpus(3, 50), k=10)


def test_folds_require_labels():
    docs = [Document(id="1", text="x")]
    with pytest.raises(CorpusError, match="gold label"):
        stratified_folds(docs * 1 + _balanced_corpus(5, 5), k=2, seed=0)


def test_sample_labeled_protocol_sizes():
    docs, _ = decomposable_corpus(2553, seed=1, positive_rate=0.2)
    labeled, unlabeled = sample_labeled(docs, SampleSpec(n_labeled=100, seed=4))
    assert len(labeled) == 100
    assert len(unlabeled) == 2453
    # stratified: positive share tracks the split share
    assert sum(d.gold_label == POSITIVE for d in labeled) == 20


def test_sample_labeled_partition_and_sealing():
    docs, _ = decomposable_corpus(200, seed=2)
    labeled, unlabeled = sample_labeled(docs, SampleSpec(n_labeled=40, seed=9))
    labeled_ids = {d.id for d in labeled}
    unlabeled_ids = {d.id for d in unlabeled}
    assert labeled_ids & unlabeled_ids == set()
    assert labeled_ids | unlabeled_ids == {d.id for d in docs}
    for doc in unlabeled:
        assert doc.gold_label is None
        assert doc.positive_human_spans == ()


def test_sample_labeled_boundary_and_errors():
    docs = _balanced_corpus(5, 5)
    labeled, unlabeled = sample_labeled(docs, SampleSpec(n_labeled=10, seed=0))
    assert len(unlabeled) == 0
    with pytest.raises(CorpusError, match="exceeds"):
        sample_labeled(docs, SampleSpec(n_labeled=11, seed=0))


def test_sample_labeled_idempotent():
    docs, _ = decomposable_corpus(120, seed=3)
    a = sample_labeled(docs, SampleSpec(30, 7))
    b = sample_labeled(docs, SampleSpec(30, 7))
    assert [[d.id for d in part] for part in a] == [[d.id for d in part] for part in b]


def test_sample_labeled_keeps_both_classes_under_imbalance():
    docs, _ = decomposable_corpus(300, seed=8, positive_rate=0.05)
    labeled, _ = sample_labeled(docs, SampleSpec(n_labeled=10, seed=1))
    labels = {d.gold_label for d in labeled}
    assert labels == {POSITIVE, NEGATIVE}
