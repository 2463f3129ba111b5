"""Iterative co-training over concept views with bag-level selection.

Training alternates between the per-view classifiers: each iteration
scores the unlabeled documents through the most-confident-instance rule,
promotes the top positive and top negative documents of every view into
the labeled pool, and retrains every view on the grown pool. The unlabeled
pool is stacked once per view, and which documents are promotable (no
empty bag) is read from those stacks; each iteration scores each view's
stack once, and promotion reuses those scores. Each view's labeled pool is
one pair of arrays that a promoting iteration appends to, and each retrain
warm-starts from the view's previous classifier: the same regularized
optimum, reached in fewer Newton steps.
A promoted positive contributes its winning instance plus the most probable
counterpart instance in every other view; a promoted negative must look
confidently negative to all views at once and contributes every instance.
Promotion is irrevocable. At test time the per-view probabilities combine
by the product rule: positive iff prod(P_j) >= prod(1 - P_j).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .concepts import POSITIVE, NEGATIVE, view_occurrences
from .context import context_of
from .learners import LogRegModel, TrainConfig, predict_proba_batch, train_logreg


class CotrainError(ValueError):
    pass


@dataclass(frozen=True)
class CoConfig:
    iterations: int = 25            # K_iters; 0 disables promotion entirely
    promotions_per_view: int = 1    # positives and negatives each, per view
    confidence_floor: float = 0.7
    neutral_prob: float = 0.5       # stand-in score of an empty view

    def __post_init__(self):
        if self.iterations < 0:
            raise CotrainError(f"iterations must be >= 0, got {self.iterations}")
        if self.promotions_per_view < 1:
            raise CotrainError(
                f"promotions_per_view must be >= 1, got {self.promotions_per_view}"
            )
        if not (0.5 < self.confidence_floor <= 1.0):
            raise CotrainError(
                f"confidence_floor must lie in (0.5, 1], got {self.confidence_floor}"
            )
        if not (0.0 <= self.neutral_prob <= 1.0):
            raise CotrainError(
                f"neutral_prob must lie in [0, 1], got {self.neutral_prob}"
            )


@dataclass
class ViewInstances:
    vectors: np.ndarray      # (m, dim); m == 0 for an empty bag
    labels: list             # per-instance POSITIVE / NEGATIVE / UNLABELED;
                             # co-training reads them only for labeled examples

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass
class Example:
    """One document, vectorized: per-view instance matrices and labels."""

    doc_id: str
    views: list


@dataclass
class IterationRecord:
    iteration: int
    promotions: list        # dicts: view, kind, doc_id, confidence
    labeled_examples: int
    unlabeled_examples: int


@dataclass
class CoDecompModel:
    kcs_names: tuple
    classifiers: list                      # one LogRegModel per view
    co_config: CoConfig
    train_config: TrainConfig
    provider_spec: dict | None = None
    snapshots: list = field(default_factory=list)  # k -> classifiers after k promotions
    iteration_log: list = field(default_factory=list)

    @property
    def n_views(self) -> int:
        return len(self.kcs_names)

    # by hand: ``snapshots`` and ``iteration_log`` are run state, not the file's
    def to_dict(self) -> dict:
        return {
            "kind": "codecomp",
            "version": 1,
            "kcs_names": list(self.kcs_names),
            "classifiers": [c.to_dict() for c in self.classifiers],
            "co_config": asdict(self.co_config),
            "train_config": asdict(self.train_config),
            "provider_spec": self.provider_spec,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CoDecompModel":
        if raw.get("kind") != "codecomp":
            raise CotrainError(f"not a codecomp record: kind={raw.get('kind')!r}")
        kcs_names = tuple(raw["kcs_names"])
        classifiers = [LogRegModel.from_dict(c) for c in raw["classifiers"]]
        provider_spec = raw.get("provider_spec")
        dims = sorted({c.weights.shape[0] for c in classifiers})
        spec_dim = (provider_spec or {}).get("dim")
        if len(classifiers) != len(kcs_names):
            raise CotrainError(f"{len(classifiers)} classifiers for {len(kcs_names)} views")
        if len(dims) > 1:
            raise CotrainError(f"classifier weight lengths differ: {dims}")
        if spec_dim is not None and dims and spec_dim != dims[0]:
            raise CotrainError(f"provider dim {spec_dim} != classifier weight length {dims[0]}")
        return cls(
            kcs_names=kcs_names,
            classifiers=classifiers,
            co_config=CoConfig(**raw["co_config"]),
            train_config=TrainConfig(**raw["train_config"]),
            provider_spec=provider_spec,
        )


def mil_example_score(instance_probs) -> tuple[float, int]:
    """Bag score by the most confident positive instance: (max, argmax).

    Ties break toward the lowest index. Empty bags are the caller's problem
    (they substitute the configured neutral probability).
    """
    probs = np.asarray(instance_probs, dtype=float)
    if probs.size == 0:
        raise CotrainError("cannot score an empty instance list")
    idx = int(probs.argmax())
    return float(probs[idx]), idx


def build_examples(processed_docs, provider, kcs_names) -> list[Example]:
    """Vectorize processed documents into per-view instance matrices, one
    view per name of ``kcs_names``, in that order.

    Each view's occurrences across the whole batch, from
    ``view_occurrences``, go to the provider in one ``context_of`` call,
    and each document's rows are a slice of that read-only matrix, in the
    order of its bag's instances, so row i is the occurrence keyed
    ``(doc_id, view, i)``.
    """
    processed_docs = list(processed_docs)
    per_view = []
    for name in kcs_names:
        occurrences, bags = view_occurrences(processed_docs, name)
        matrix = context_of(provider, occurrences)
        matrix.flags.writeable = False
        views, a = [], 0
        for bag in bags:
            b = a + len(bag.instances)
            views.append(ViewInstances(vectors=matrix[a:b],
                                       labels=[label for _, label in bag.instances]))
            a = b
        per_view.append(views)
    return [Example(doc_id=pdoc.document.id, views=[views[i] for views in per_view])
            for i, pdoc in enumerate(processed_docs)]


def _train_views(pools, train_config: TrainConfig, kcs_names, starts):
    """One classifier per ``(X, y)`` pool, each started from the view's
    entry of ``starts``: a classifier to warm-start from, or None for zero."""
    classifiers = []
    for j, ((X, y), start) in enumerate(zip(pools, starts)):
        if not 0 < np.count_nonzero(y) < len(y):
            raise CotrainError(
                f"view {j} ({kcs_names[j]}) needs at least one positive and one "
                "negative labeled instance"
            )
        classifiers.append(train_logreg(X, y, train_config, start=start))
    return classifiers


class _StackedBags:
    """One view's bags of many documents, stacked into one instance matrix.

    Bag i is rows ``starts[i] : starts[i] + lengths[i]`` of ``matrix``. Every
    bag must have the first bag's width, and the stack scores only with a
    classifier of that width. A row's probability does not depend on the
    rows around it, so a bag's slice of ``probabilities`` is what
    ``predict_proba_batch`` gives the bag alone, and its maximum here is the
    one ``mil_example_score`` gives it.
    """

    def __init__(self, examples, view: int):
        self.view, self.examples = view, list(examples)
        mats = [ex.views[view].vectors for ex in self.examples]
        self.lengths = np.fromiter(map(len, mats), dtype=int, count=len(mats))
        self.starts = np.cumsum(self.lengths) - self.lengths
        try:
            self.matrix = np.concatenate(mats) if mats else np.empty((0, 0))
        except ValueError:
            # concatenate refuses bags of different widths; name the first
            for ex, mat in zip(self.examples, mats):
                if mat.shape[1] != mats[0].shape[1]:
                    raise CotrainError(
                        f"view {view}: document {ex.doc_id!r} has vectors of width "
                        f"{mat.shape[1]}, document {self.examples[0].doc_id!r} has "
                        f"{mats[0].shape[1]}"
                    ) from None
            raise

    def labeled_rows(self):
        """The rows labeled POSITIVE or NEGATIVE and their 0/1 targets, in
        document then instance order; only this reads instance labels."""
        labels = np.array([label for ex in self.examples
                           for label in ex.views[self.view].labels], dtype=object)
        keep = (labels == POSITIVE) | (labels == NEGATIVE)
        return self.matrix[keep], (labels[keep] == POSITIVE).astype(float)

    def probabilities(self, classifier) -> np.ndarray:
        """Every row's probability under ``classifier``, in stack order."""
        dim = classifier.weights.shape[0]
        if self.examples and self.matrix.shape[1] != dim:
            raise CotrainError(
                f"view {self.view}: document {self.examples[0].doc_id!r} has vectors "
                f"of width {self.matrix.shape[1]}, the classifier takes {dim}"
            )
        return predict_proba_batch(classifier, self.matrix)

    def maxima(self, probs, neutral_prob: float) -> np.ndarray:
        """Each bag's highest row of ``probs``; an empty bag scores
        ``neutral_prob``."""
        maxes = np.full(self.lengths.size, float(neutral_prob))
        full = self.lengths > 0
        maxes[full] = np.maximum.reduceat(probs, self.starts[full])
        return maxes

    def winner(self, probs, i: int) -> int:
        """The instance of bag i that ``mil_example_score`` picks from its
        slice of ``probs``."""
        return mil_example_score(probs[self.starts[i]:self.starts[i] + self.lengths[i]])[1]

    def score(self, classifier, neutral_prob: float) -> np.ndarray:
        """Each bag's highest instance probability; an empty bag scores
        ``neutral_prob``."""
        return self.maxima(self.probabilities(classifier), neutral_prob)


def cotrain_fit(labeled, unlabeled, n_views: int, co_config: CoConfig,
                train_config: TrainConfig, kcs_names) -> CoDecompModel:
    """Fit one classifier per view, then co-train them over the unlabeled pool.

    ``kcs_names`` names the views, in the order of every example's views;
    ``n_views`` must be its length (perfbench's co-training checker reads
    this argument as the view count), and a mismatch fails before any fit.
    Each iteration scores the unlabeled documents, promotes each view's most
    confident positive and negative documents (those clearing the confidence
    floor) into the labeled pool, and retrains the views on it. Stops early
    once nothing qualifies. The unlabeled pool is stacked once per view, and
    only documents whose bags are all non-empty, as the stacks' bag lengths
    show, are promotable. Each iteration makes one ``predict_proba_batch``
    call per view; a promoted positive's winning instances are read from
    that call's row probabilities. With ``iterations=0`` the result is just the
    independently trained per-view classifiers. ``snapshots`` keeps the
    classifiers of every step: a run of k iterations returns
    ``snapshots[min(k, len(snapshots) - 1)]``. A first iteration that
    promotes nothing logs one warning.
    """
    if n_views != len(kcs_names):
        raise CotrainError(f"{n_views} views, but {len(kcs_names)} view names")
    labeled, unlabeled = list(labeled), list(unlabeled)
    for ex in labeled + unlabeled:
        if len(ex.views) != n_views:
            raise CotrainError(
                f"document {ex.doc_id!r} has {len(ex.views)} views, expected {n_views}"
            )

    # One labeled (X, y) pool per view, read once; each iteration that
    # promotes appends its rows, and every retrain starts from the view's
    # previous classifier.
    pools = [_StackedBags(labeled, j).labeled_rows() for j in range(n_views)]
    snapshots = [_train_views(pools, train_config, kcs_names, [None] * n_views)]

    # The unlabeled pool is stacked once per view. Documents with an empty
    # bag in any view never qualify for promotion, so ``alive`` starts as
    # "every bag non-empty", read from the stacks; they stay unlabeled and
    # fall back to the neutral score at test time. Promotion clears a
    # document's flag. The instance labels of unlabeled documents are never
    # read.
    bags = [_StackedBags(unlabeled, j) for j in range(n_views)]
    alive = np.ones(len(unlabeled), dtype=bool)
    for stack in bags:
        alive &= stack.lengths > 0
    promotable = int(np.count_nonzero(alive))
    id_rank = np.argsort(sorted(range(len(unlabeled)), key=lambda p: unlabeled[p].doc_id))
    log = []
    floor = co_config.confidence_floor

    for iteration in range(1, co_config.iterations + 1):
        classifiers = snapshots[-1]
        # one scoring pass per view: its row probabilities give both every
        # bag's maximum and a promoted positive's winning instance
        probs = [stack.probabilities(clf) for stack, clf in zip(bags, classifiers)]
        maxes = np.vstack([stack.maxima(row_probs, co_config.neutral_prob)
                           for stack, row_probs in zip(bags, probs)])  # (J, n_unlabeled)
        confidently_negative = alive & np.all(maxes < 1.0 - floor, axis=0)

        # Each view takes its ``promotions_per_view`` most confident
        # documents not yet taken this iteration: positives by descending
        # score, then negatives by ascending score, ties to the lower doc id.
        # A repeated minimum over the open candidates' keys takes them
        # without sorting the pool.
        taken = np.zeros(alive.size, dtype=bool)
        picks = []
        for kind, sign, eligible in (("positive", -1.0, alive & (maxes >= floor)),
                                     ("negative", 1.0, [confidently_negative] * n_views)):
            for j in range(n_views):
                key = np.where(eligible[j] & ~taken, sign * maxes[j], np.inf)
                for _ in range(co_config.promotions_per_view):
                    best = key.min(initial=np.inf)
                    if best == np.inf:
                        break
                    tied = np.flatnonzero(key == best)
                    p = int(tied[np.argmin(id_rank[tied])])
                    key[p] = np.inf
                    taken[p] = True
                    picks.append((p, kind, j))

        promotions = []
        grown = [([X], [y]) for X, y in pools]
        for p, kind, j in sorted(picks):
            ex = unlabeled[p]
            for view, (rows, targets), stack, view_probs in zip(ex.views, grown, bags, probs):
                if kind == "positive":
                    # the winning instance of every view, as a positive
                    rows.append(view.vectors[stack.winner(view_probs, p)][None])
                    targets.append(np.ones(1))
                else:
                    rows.append(view.vectors)
                    targets.append(np.zeros(view.size))
            alive[p] = False
            promotions.append({
                "view": kcs_names[j], "kind": kind,
                "doc_id": ex.doc_id, "confidence": float(maxes[j, p]),
            })

        promoted = promotable - int(np.count_nonzero(alive))
        log.append(IterationRecord(
            iteration=iteration,
            promotions=promotions,
            labeled_examples=len(labeled) + promoted,
            unlabeled_examples=len(unlabeled) - promoted,
        ))
        if not promotions:
            if iteration == 1:
                tops = zip(kcs_names, maxes.max(axis=1, where=alive, initial=0.0))
                logging.getLogger(__name__).warning(
                    "co-training promoted nothing in its first iteration: the top bag "
                    "probability of %d promotable documents is %s, against a confidence "
                    "floor of %g", promotable,
                    ", ".join(f"{name} {top:.3g}" for name, top in tops), floor)
            break
        pools = [(np.concatenate(rows), np.concatenate(targets))
                 for rows, targets in grown]
        snapshots.append(_train_views(pools, train_config, kcs_names, snapshots[-1]))

    return CoDecompModel(
        kcs_names=tuple(kcs_names),
        classifiers=snapshots[-1],
        co_config=co_config,
        train_config=train_config,
        snapshots=snapshots,
        iteration_log=log,
    )


def predict(model: CoDecompModel, example: Example):
    """Product-rule label of one document and its per-view bag probabilities
    (neutral for an empty view): positive iff prod(P) >= prod(1 - P)."""
    probs = tuple(
        mil_example_score(predict_proba_batch(clf, view.vectors))[0] if view.size
        else model.co_config.neutral_prob
        for clf, view in zip(model.classifiers, example.views, strict=True))
    # math.prod multiplies in view order, as predict_many's np.prod(axis=0)
    positive = math.prod(probs) >= math.prod(1.0 - p for p in probs)
    return (POSITIVE if positive else NEGATIVE), probs


def predict_many(model: CoDecompModel, examples) -> dict:
    """``predict`` labels of many documents, scoring each view in one call."""
    examples = list(examples)
    probs = np.vstack([
        _StackedBags(examples, j).score(clf, model.co_config.neutral_prob)
        for j, clf in enumerate(model.classifiers)
    ])                                                  # (J, n)
    positive = np.prod(probs, axis=0) >= np.prod(1.0 - probs, axis=0)
    return {ex.doc_id: POSITIVE if pos else NEGATIVE
            for ex, pos in zip(examples, positive)}


def single_view_predictions(classifier, view_index: int, examples,
                            neutral_prob: float = 0.5) -> dict:
    """Threshold one view's bag probability at 0.5 (ties positive)."""
    examples = list(examples)
    probs = _StackedBags(examples, view_index).score(classifier, neutral_prob)
    return {ex.doc_id: POSITIVE if p >= 0.5 else NEGATIVE
            for ex, p in zip(examples, probs)}


def ablation_variants(labeled, unlabeled, kcs_names, co_config: CoConfig,
                      train_config: TrainConfig, iteration_counts,
                      test_examples) -> dict:
    """Predictions of every ablation stage over one test set, the views
    named by ``kcs_names``.

    Stages: each view alone (base classifier, threshold 0.5), the product
    combination without any promotion, and the co-trained model at each
    requested iteration count. All stages share one training trajectory.
    """
    iteration_counts = sorted(set(int(k) for k in iteration_counts))
    if any(k < 1 for k in iteration_counts):
        raise CotrainError("iteration counts must be >= 1")
    max_k = max(iteration_counts) if iteration_counts else 0
    model = cotrain_fit(labeled, unlabeled, len(kcs_names),
                        replace(co_config, iterations=max_k), train_config, kcs_names)

    variants = {}
    for j, name in enumerate(model.kcs_names):
        variants[f"{name}-cl"] = single_view_predictions(
            model.snapshots[0][j], j, test_examples, co_config.neutral_prob)
    # each stage's classifiers are those a run of k iterations returns
    for name, k in [("combined", 0)] + [(f"+{k}-itr", k) for k in iteration_counts]:
        classifiers = model.snapshots[min(k, len(model.snapshots) - 1)]
        variants[name] = predict_many(replace(model, classifiers=classifiers), test_examples)
    return variants


def iteration_log_lines(records) -> list[str]:
    """One JSON object per iteration, ready for a .jsonl audit file."""
    return [json.dumps(asdict(r), sort_keys=True) for r in records]
