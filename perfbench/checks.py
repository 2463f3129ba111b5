"""Output checkers.

Each checker recomputes something from the generator's planted facts, or
tests a property the method must have, and raises ``CheckError`` when the
program's output disagrees. None of them compares with a stored copy of an
earlier output. They take plain data (dicts, lists, arrays), so the tests
next to this file can hand them corrupted outputs.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

POSITIVE = "positive"
NEGATIVE = "negative"
PROB_FLOOR = 1e-6

# scores recomputed here agree with the program's to float rounding
SCORE_TOL = 1e-12
# products of view probabilities this close are a tie either label may take
TIE_TOL = 1e-12
# EM objectives, NB posteriors and context-vector norms
EM_TOL = NB_TOL = NORM_TOL = 1e-9


class CheckError(AssertionError):
    pass


def _fail(message):
    raise CheckError(message)


# ---------------------------------------------------------------------------
# Fold counts
# ---------------------------------------------------------------------------


def confusion(labels, gold) -> Counter:
    """tp/fp/fn/tn of predicted ``labels`` (id -> label) against ``gold``."""
    counts = Counter(tp=0, fp=0, fn=0, tn=0)
    for doc_id, predicted in labels.items():
        actual = gold[doc_id] == POSITIVE
        said = predicted == POSITIVE
        counts["tp" if said and actual else "fp" if said
               else "fn" if actual else "tn"] += 1
    return counts


def prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def check_fold_counts(rows, means, gold, k_folds):
    """Per-fold confusion counts and the reported means.

    ``rows`` holds one dict per (variant, repetition, fold) with keys
    name, rep, predictions (id -> label) and tp/fp/fn/tn/precision/recall/f1
    as the program reported them. ``means`` maps variant name to the
    reported precision/recall/f1 averages; ``gold`` is the generator's
    label of every document.

    The test folds of each (variant, repetition) must partition the corpus
    into ``k_folds`` class-stratified folds; each fold's counts must sum to
    its size, tp+fn must equal its gold positives, the counts must follow
    from the predictions and gold, and the scores from the counts. The
    means must equal the average over folds within a repetition, then over
    repetitions.
    """
    groups = {}
    for row in rows:
        groups.setdefault((row["name"], row["rep"]), []).append(row)
    if set(name for name, _ in groups) != set(means):
        _fail(f"variants with fold rows {sorted(set(n for n, _ in groups))} "
              f"differ from reported variants {sorted(means)}")
    for (name, rep), folds in groups.items():
        if len(folds) != k_folds:
            _fail(f"{name} rep {rep}: {len(folds)} folds, expected {k_folds}")
        seen = Counter(i for row in folds for i in row["predictions"])
        if set(seen) != set(gold) or max(seen.values()) != 1:
            _fail(f"{name} rep {rep}: test folds do not partition the corpus")
        for label in (POSITIVE, NEGATIVE):
            per_fold = [sum(gold[i] == label for i in row["predictions"]) for row in folds]
            if max(per_fold) - min(per_fold) > 1:
                _fail(f"{name} rep {rep}: {label} counts per fold {per_fold} "
                      "are not stratified")
        for row in folds:
            where = f"{name} rep {rep} fold {row['fold']}"
            size = len(row["predictions"])
            if row["tp"] + row["fp"] + row["fn"] + row["tn"] != size:
                _fail(f"{where}: counts do not sum to the fold size {size}")
            positives = sum(gold[i] == POSITIVE for i in row["predictions"])
            if row["tp"] + row["fn"] != positives:
                _fail(f"{where}: tp+fn={row['tp'] + row['fn']}, gold positives {positives}")
            counts = confusion(row["predictions"], gold)
            for key in ("tp", "fp", "fn", "tn"):
                if row[key] != counts[key]:
                    _fail(f"{where}: {key}={row[key]}, predictions give {counts[key]}")
            for key, value in zip(("precision", "recall", "f1"),
                                  prf(counts["tp"], counts["fp"], counts["fn"])):
                if abs(row[key] - value) > SCORE_TOL:
                    _fail(f"{where}: {key}={row[key]!r}, counts give {value!r}")
    for name, reported in means.items():
        reps = sorted(rep for n, rep in groups if n == name)
        for i, key in enumerate(("precision", "recall", "f1")):
            rep_means = [
                sum(prf(r["tp"], r["fp"], r["fn"])[i] for r in groups[(name, rep)])
                / len(groups[(name, rep)])
                for rep in reps
            ]
            expected = sum(rep_means) / len(rep_means)
            if abs(reported[key] - expected) > SCORE_TOL:
                _fail(f"{name}: mean {key}={reported[key]!r}, folds give {expected!r}")


# ---------------------------------------------------------------------------
# Product rule
# ---------------------------------------------------------------------------


def _sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -z))


def check_product_rule(classifiers, bags, labels, neutral=0.5):
    """``predict_many`` labels against a product rule computed here.

    ``classifiers`` is one (weights, bias) per view; ``bags`` maps document
    id to one instance matrix per view; ``labels`` maps id to the program's
    label. A bag scores by its most probable instance, an empty bag by
    ``neutral``; scores are clipped to [1e-6, 1 - 1e-6] and a document is
    positive iff prod(P) >= prod(1 - P). Disagreement is allowed only where
    the two products lie within ``TIE_TOL`` of each other.
    """
    if set(bags) != set(labels):
        _fail("predicted ids differ from the scored documents")
    for doc_id, views in bags.items():
        probs = []
        for (weights, bias), matrix in zip(classifiers, views):
            if matrix.shape[0] == 0:
                probs.append(neutral)
            else:
                probs.append(float(np.max(_sigmoid(matrix @ weights + bias))))
        probs = np.clip(np.asarray(probs), PROB_FLOOR, 1.0 - PROB_FLOOR)
        pos, neg = float(np.prod(probs)), float(np.prod(1.0 - probs))
        expected = POSITIVE if pos >= neg else NEGATIVE
        if labels[doc_id] != expected and abs(pos - neg) >= TIE_TOL:
            _fail(f"document {doc_id}: label {labels[doc_id]}, product rule "
                  f"gives {expected} (prod P={pos!r}, prod 1-P={neg!r})")


# ---------------------------------------------------------------------------
# Co-training log
# ---------------------------------------------------------------------------


def check_cotrain_log(records, labeled_ids, unlabeled_ids, n_views,
                      promotions_per_view, floor):
    """Bookkeeping of one co-training run.

    ``records`` are iteration-log dicts (iteration, promotions,
    labeled_examples, unlabeled_examples). Labeled plus unlabeled stays at
    the input total; the labeled side grows by each iteration's promotions;
    only unlabeled documents are promoted, none twice; no iteration promotes
    more than 2 * J * promotions_per_view documents; positive promotions
    clear the confidence floor and negative ones lie below 1 - floor.
    """
    total = len(labeled_ids) + len(unlabeled_ids)
    labeled = len(labeled_ids)
    unlabeled_ids = set(unlabeled_ids)
    promoted = set()
    cap = 2 * n_views * promotions_per_view
    for record in records:
        where = f"iteration {record['iteration']}"
        if record["labeled_examples"] + record["unlabeled_examples"] != total:
            _fail(f"{where}: labeled+unlabeled="
                  f"{record['labeled_examples'] + record['unlabeled_examples']}, "
                  f"expected {total}")
        promotions = record["promotions"]
        if len(promotions) > cap:
            _fail(f"{where}: {len(promotions)} promotions, cap {cap}")
        labeled += len(promotions)
        if record["labeled_examples"] != labeled:
            _fail(f"{where}: labeled={record['labeled_examples']}, expected {labeled}")
        for p in promotions:
            doc_id = p["doc_id"]
            if doc_id in promoted:
                _fail(f"{where}: document {doc_id} promoted twice")
            if doc_id not in unlabeled_ids:
                _fail(f"{where}: promoted {doc_id} was not unlabeled")
            promoted.add(doc_id)
            if p["kind"] == POSITIVE and not p["confidence"] >= floor:
                _fail(f"{where}: positive promotion of {doc_id} at "
                      f"{p['confidence']!r} < floor {floor}")
            if p["kind"] == NEGATIVE and not p["confidence"] < 1.0 - floor:
                _fail(f"{where}: negative promotion of {doc_id} at "
                      f"{p['confidence']!r} >= {1.0 - floor}")
            if p["kind"] not in (POSITIVE, NEGATIVE):
                _fail(f"{where}: unknown promotion kind {p['kind']!r}")


# ---------------------------------------------------------------------------
# EM and naive Bayes
# ---------------------------------------------------------------------------


def check_em_trace(trace):
    """EM never lowers the observed-data log-likelihood."""
    if not trace:
        _fail("empty EM trace")
    for i, (before, after) in enumerate(zip(trace, trace[1:]), start=1):
        if after < before - EM_TOL:
            _fail(f"EM log-likelihood fell at iteration {i + 1}: {before!r} -> {after!r}")


def check_em_objective(trace, log_priors):
    """EM never lowers the objective its M-step maximises.

    A Laplace-smoothed M-step maximises the likelihood plus a Dirichlet
    log-prior, ``log_priors[i]`` for the model of ``trace[i]``; the trace
    must rise once the prior is added, or already as reported (a trace
    that includes the prior itself).
    """
    if len(log_priors) != len(trace):
        _fail(f"{len(log_priors)} M-steps for an EM trace of {len(trace)}")
    try:
        check_em_trace(trace)
    except CheckError:
        check_em_trace([t + p for t, p in zip(trace, log_priors)])


_TOKEN = re.compile(r"@\w+|\w+|[^\w\s]")


def ngrams(text):
    tokens = [t.lower() for t in _TOKEN.findall(text)]
    return tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]


def laplace_posteriors(train, test, alpha=1.0):
    """Positive-class NB posteriors in plain Python.

    ``train`` is (text, label) pairs, ``test`` a list of texts. Features
    are unigrams and bigrams; the vocabulary is the training features plus
    one slot for every unseen feature.
    """
    docs = Counter(label for _, label in train)
    counts = {POSITIVE: Counter(), NEGATIVE: Counter()}
    for text, label in train:
        counts[label].update(ngrams(text))
    vocab = set(counts[POSITIVE]) | set(counts[NEGATIVE])
    denom = {c: sum(counts[c].values()) + alpha * (len(vocab) + 1) for c in counts}
    out = []
    for text in test:
        joint = {}
        for c in counts:
            total = math.log(docs[c] / len(train))
            for feat in ngrams(text):
                num = counts[c][feat] + alpha if feat in vocab else alpha
                total += math.log(num / denom[c])
            joint[c] = total
        p = 1.0 / (1.0 + math.exp(joint[NEGATIVE] - joint[POSITIVE]))
        out.append(min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR))
    return out


def check_nb_posteriors(program, expected, labels):
    """Program posteriors and labels against the checker's Laplace estimate.

    ``labels`` are the program's predicted labels for the same documents;
    each must be positive iff the estimate is >= 0.5, except within
    ``NB_TOL`` of 0.5.
    """
    if not len(program) == len(expected) == len(labels):
        _fail(f"{len(program)} posteriors and {len(labels)} labels, "
              f"expected {len(expected)}")
    for i, (got, want, label) in enumerate(zip(program, expected, labels)):
        if abs(got - want) > NB_TOL:
            _fail(f"posterior {i}: program {got!r}, Laplace estimate {want!r}")
        if abs(want - 0.5) > NB_TOL and label != (POSITIVE if want >= 0.5 else NEGATIVE):
            _fail(f"document {i}: label {label}, Laplace posterior {want!r}")


# ---------------------------------------------------------------------------
# Mentions and context vectors
# ---------------------------------------------------------------------------


def check_bag_sizes(sizes, planted):
    """``sizes`` and ``planted`` map id -> {view: mention count}."""
    if set(sizes) != set(planted):
        _fail("bag sizes cover other documents than the generator planted")
    for doc_id, want in planted.items():
        if sizes[doc_id] != want:
            _fail(f"document {doc_id}: bags {sizes[doc_id]}, planted {want}")


def check_vectors(matrices, dim):
    """Context vectors are finite, of the model's dimension, of norm 1 or 0."""
    for i, matrix in enumerate(matrices):
        if matrix.ndim != 2 or matrix.shape[1] != dim:
            _fail(f"matrix {i}: shape {matrix.shape}, model dimension {dim}")
        if not np.all(np.isfinite(matrix)):
            _fail(f"matrix {i}: non-finite entry")
        norms = np.linalg.norm(matrix, axis=1)
        bad = ~((np.abs(norms - 1.0) <= NORM_TOL) | (norms == 0.0))
        if np.any(bad):
            _fail(f"matrix {i}: row norm {norms[bad][0]!r} is neither 1 nor 0")


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def check_identical(reports):
    """Every repeat within one invocation gives byte-identical reports."""
    for i, report in enumerate(reports[1:], start=1):
        if report != reports[0]:
            _fail(f"repeat {i} differs from repeat 0")
