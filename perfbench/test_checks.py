"""Each output checker accepts a valid output and rejects a corrupted one.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import run
from checks import NEGATIVE, POSITIVE, CheckError


# ---------------------------------------------------------------------------
# Fold counts
# ---------------------------------------------------------------------------


def _folds():
    """Two folds over six documents, with their reported rows and means."""
    gold = {"a": POSITIVE, "b": NEGATIVE, "c": NEGATIVE,
            "d": POSITIVE, "e": NEGATIVE, "f": NEGATIVE}
    predicted = [{"a": POSITIVE, "b": POSITIVE, "c": NEGATIVE},
                 {"d": NEGATIVE, "e": NEGATIVE, "f": NEGATIVE}]
    rows = []
    for fold, predictions in enumerate(predicted):
        tp = sum(predictions[i] == POSITIVE and gold[i] == POSITIVE for i in predictions)
        fp = sum(predictions[i] == POSITIVE and gold[i] == NEGATIVE for i in predictions)
        fn = sum(predictions[i] == NEGATIVE and gold[i] == POSITIVE for i in predictions)
        tn = len(predictions) - tp - fp - fn
        p, r, f = checks.prf(tp, fp, fn)
        rows.append({"name": "m", "rep": 0, "fold": fold, "predictions": predictions,
                     "tp": tp, "fp": fp, "fn": fn, "tn": tn,
                     "precision": p, "recall": r, "f1": f})
    means = {"m": {key: sum(row[key] for row in rows) / 2
                   for key in ("precision", "recall", "f1")}}
    return rows, means, gold


def test_fold_counts_accept_valid_rows():
    rows, means, gold = _folds()
    checks.check_fold_counts(rows, means, gold, k_folds=2)


def test_fold_counts_reject_one_flipped_label():
    rows, means, gold = _folds()
    rows[0]["predictions"]["c"] = POSITIVE
    with pytest.raises(CheckError, match="fp=1, predictions give 2"):
        checks.check_fold_counts(rows, means, gold, k_folds=2)


def test_fold_counts_reject_counts_that_miss_the_fold_size():
    rows, means, gold = _folds()
    rows[1]["tn"] += 1
    with pytest.raises(CheckError, match="fold size"):
        checks.check_fold_counts(rows, means, gold, k_folds=2)


def test_fold_counts_reject_a_wrong_mean():
    rows, means, gold = _folds()
    means["m"]["f1"] += 1e-9
    with pytest.raises(CheckError, match="mean f1"):
        checks.check_fold_counts(rows, means, gold, k_folds=2)


def test_fold_counts_reject_a_document_in_two_folds():
    rows, means, gold = _folds()
    rows[1]["predictions"] = {"a": NEGATIVE, "e": NEGATIVE, "f": NEGATIVE}
    with pytest.raises(CheckError, match="partition"):
        checks.check_fold_counts(rows, means, gold, k_folds=2)


# ---------------------------------------------------------------------------
# Product rule
# ---------------------------------------------------------------------------


def _scored():
    rng = np.random.default_rng(0)
    classifiers = [(rng.normal(size=4), 0.1), (rng.normal(size=4), -0.2)]
    bags = {f"d{i}": [rng.normal(size=(int(rng.integers(0, 3)), 4)) for _ in range(2)]
            for i in range(20)}
    labels = {}
    for doc_id, views in bags.items():
        probs = [0.5 if m.shape[0] == 0
                 else float(np.max(1 / (1 + np.exp(-(m @ w + b)))))
                 for (w, b), m in zip(classifiers, views)]
        probs = np.clip(probs, 1e-6, 1 - 1e-6)
        labels[doc_id] = POSITIVE if np.prod(probs) >= np.prod(1 - probs) else NEGATIVE
    return classifiers, bags, labels


def test_product_rule_accepts_valid_labels():
    checks.check_product_rule(*_scored())


def test_product_rule_rejects_one_flipped_label():
    classifiers, bags, labels = _scored()
    labels["d3"] = NEGATIVE if labels["d3"] == POSITIVE else POSITIVE
    with pytest.raises(CheckError, match="document d3"):
        checks.check_product_rule(classifiers, bags, labels)


def test_product_rule_allows_either_label_on_an_exact_tie():
    classifiers = [(np.zeros(2), 0.0), (np.zeros(2), 0.0)]
    bags = {"t": [np.ones((1, 2)), np.empty((0, 2))]}
    checks.check_product_rule(classifiers, bags, {"t": NEGATIVE})
    checks.check_product_rule(classifiers, bags, {"t": POSITIVE})


# ---------------------------------------------------------------------------
# Co-training log
# ---------------------------------------------------------------------------


def _log():
    records = [
        {"iteration": 1, "labeled_examples": 4, "unlabeled_examples": 6,
         "promotions": [
             {"view": "a", "kind": POSITIVE, "doc_id": "u1", "confidence": 0.9},
             {"view": "a", "kind": NEGATIVE, "doc_id": "u2", "confidence": 0.1}]},
        {"iteration": 2, "labeled_examples": 5, "unlabeled_examples": 5,
         "promotions": [
             {"view": "b", "kind": POSITIVE, "doc_id": "u3", "confidence": 0.7}]},
    ]
    return records, ["l1", "l2"], [f"u{i}" for i in range(1, 9)]


def _check_log(records, labeled, unlabeled):
    checks.check_cotrain_log(records, labeled, unlabeled, n_views=2,
                             promotions_per_view=1, floor=0.7)


def test_cotrain_log_accepts_valid_log():
    _check_log(*_log())


def test_cotrain_log_rejects_a_document_promoted_twice():
    records, labeled, unlabeled = _log()
    records[1]["promotions"][0]["doc_id"] = "u1"
    with pytest.raises(CheckError, match="promoted twice"):
        _check_log(records, labeled, unlabeled)


def test_cotrain_log_rejects_a_changing_pool_total():
    records, labeled, unlabeled = _log()
    records[1]["unlabeled_examples"] = 6
    with pytest.raises(CheckError, match="labeled\\+unlabeled"):
        _check_log(records, labeled, unlabeled)


def test_cotrain_log_rejects_a_positive_below_the_floor():
    records, labeled, unlabeled = _log()
    records[1]["promotions"][0]["confidence"] = 0.69
    with pytest.raises(CheckError, match="< floor"):
        _check_log(records, labeled, unlabeled)


def test_cotrain_log_rejects_a_confident_negative():
    records, labeled, unlabeled = _log()
    records[0]["promotions"][1]["confidence"] = 0.35
    with pytest.raises(CheckError, match="negative promotion"):
        _check_log(records, labeled, unlabeled)


def test_cotrain_log_rejects_too_many_promotions():
    records, labeled, unlabeled = _log()
    extra = [{"view": "b", "kind": NEGATIVE, "doc_id": f"u{i}", "confidence": 0.1}
             for i in (4, 5, 6, 7)]
    records[1]["promotions"] += extra
    records[1]["labeled_examples"] += 4
    records[1]["unlabeled_examples"] -= 4
    with pytest.raises(CheckError, match="cap 4"):
        _check_log(records, labeled, unlabeled)


def test_cotrain_log_rejects_promoting_a_labeled_document():
    records, labeled, unlabeled = _log()
    records[1]["promotions"][0]["doc_id"] = "l1"
    with pytest.raises(CheckError, match="was not unlabeled"):
        _check_log(records, labeled, unlabeled)


# ---------------------------------------------------------------------------
# EM and naive Bayes
# ---------------------------------------------------------------------------


def test_em_trace_accepts_a_rising_trace_with_rounding_noise():
    checks.check_em_trace([-10.0, -9.0, -9.0 - 5e-10, -8.5])


def test_em_trace_rejects_a_falling_trace():
    with pytest.raises(CheckError, match="fell at iteration 3"):
        checks.check_em_trace([-10.0, -9.0, -9.1])


def test_em_objective_accepts_a_trace_that_rises_with_its_prior():
    checks.check_em_objective([-10.0, -9.0, -9.1], [-5.0, -5.0, -4.8])


def test_em_objective_accepts_a_rising_trace_as_reported():
    checks.check_em_objective([-10.0, -9.0, -8.0], [-5.0, -4.0, -9.0])


def test_em_objective_rejects_a_trace_that_falls_with_its_prior():
    with pytest.raises(CheckError, match="fell at iteration 3"):
        checks.check_em_objective([-10.0, -9.0, -9.1], [-5.0, -5.0, -4.95])


def test_em_objective_rejects_a_missing_m_step():
    with pytest.raises(CheckError, match="2 M-steps"):
        checks.check_em_objective([-10.0, -9.0, -8.0], [-5.0, -5.0])


def _nb_case():
    train = [("flu shot today", POSITIVE), ("i have flu", POSITIVE),
             ("nice day today", NEGATIVE), ("the game today", NEGATIVE)]
    test = ["flu today", "nice game", "unseen words only"]
    expected = checks.laplace_posteriors(train, test)
    labels = [POSITIVE if p >= 0.5 else NEGATIVE for p in expected]
    return expected, labels


def test_laplace_posteriors_match_a_hand_computed_value():
    # Each class has 10 feature occurrences (6 unigrams, 4 bigrams) and the
    # vocabulary has 17 features, so each denominator is 10 + 1 * (17 + 1).
    # "flu" occurs 2/0 times, "today" 1/2, and the bigram "flu today" is
    # unseen: the posterior is 3*2*1 / (3*2*1 + 1*3*1) = 2/3.
    pos = 0.5 * (3 / 28) * (2 / 28) * (1 / 28)
    neg = 0.5 * (1 / 28) * (3 / 28) * (1 / 28)
    expected, _ = _nb_case()
    assert pos / (pos + neg) == pytest.approx(2 / 3)
    assert expected[0] == pytest.approx(2 / 3, abs=1e-12)


def test_nb_posteriors_accept_matching_values():
    expected, labels = _nb_case()
    checks.check_nb_posteriors(list(expected), expected, labels)


def test_nb_posteriors_reject_a_perturbed_posterior():
    expected, labels = _nb_case()
    program = list(expected)
    program[1] += 1e-8
    with pytest.raises(CheckError, match="posterior 1"):
        checks.check_nb_posteriors(program, expected, labels)


def test_nb_posteriors_reject_a_flipped_label():
    expected, labels = _nb_case()
    labels[0] = NEGATIVE if labels[0] == POSITIVE else POSITIVE
    with pytest.raises(CheckError, match="document 0"):
        checks.check_nb_posteriors(list(expected), expected, labels)


# ---------------------------------------------------------------------------
# Mentions and vectors
# ---------------------------------------------------------------------------


def test_bag_sizes_reject_one_missing_mention():
    planted = {"a": {"human": 2, "drug": 1}, "b": {"human": 1, "drug": 2}}
    checks.check_bag_sizes(copy.deepcopy(planted), planted)
    found = copy.deepcopy(planted)
    found["b"]["drug"] = 1
    with pytest.raises(CheckError, match="document b"):
        checks.check_bag_sizes(found, planted)


def _unit_rows():
    m = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    m[0] /= 5.0
    return m


def test_vectors_accept_unit_and_zero_rows():
    checks.check_vectors([_unit_rows(), np.empty((0, 3))], dim=3)


@pytest.mark.parametrize("corrupt, message", [
    (lambda m: m * 0.5, "neither 1 nor 0"),
    (lambda m: np.where(m == 0.0, np.nan, m), "non-finite"),
    (lambda m: m[:, :2], "model dimension 3"),
])
def test_vectors_reject_corrupted_rows(corrupt, message):
    with pytest.raises(CheckError, match=message):
        checks.check_vectors([corrupt(_unit_rows())], dim=3)


# ---------------------------------------------------------------------------
# Determinism, generators and the benchmark description
# ---------------------------------------------------------------------------


def test_identical_rejects_a_differing_repeat():
    checks.check_identical([b"x", b"x"])
    with pytest.raises(CheckError, match="repeat 2"):
        checks.check_identical([b"x", b"x", b"y"])


def test_generators_are_deterministic_per_seed():
    assert gen.two_view_corpus(50, 3) == gen.two_view_corpus(50, 3)
    assert gen.two_view_corpus(50, 3) != gen.two_view_corpus(50, 4)
    drugs = ["advil", "pepto bismol"]
    assert gen.adr_corpus(50, 3, drugs) == gen.adr_corpus(50, 3, drugs)


def test_adr_spans_cover_a_planted_human_word():
    records, gold, planted = gen.adr_corpus(200, 5, ["advil", "pepto bismol"])
    for record in records:
        assert (gold[record["id"]] == POSITIVE) == ("positive_human_spans" in record)
        for start, end in record.get("positive_human_spans", []):
            word = record["text"][start:end]
            assert word in gen.PRONOUNS + gen.PERSON_WORDS or word.startswith("@user")
        assert planted[record["id"]]["drug"] >= 1


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s",
                                                       "peak_rss_mb", "f1"}
