"""Iterative co-training over concept views with bag-level selection.

Training alternates between the per-view classifiers: each iteration
retrains every view on the current labeled pool, scores the unlabeled
documents through the most-confident-instance rule, and promotes the top
positive and top negative documents of every view into the labeled pool.
A promoted positive contributes its winning instance plus the most probable
counterpart instance in every other view; a promoted negative must look
confidently negative to all views at once and contributes every instance.
Promotion is irrevocable. At test time the per-view probabilities combine
by the product rule: positive iff prod(P_j) >= prod(1 - P_j).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .concepts import POSITIVE, NEGATIVE
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


@dataclass
class ViewInstances:
    vectors: np.ndarray      # (m, dim); m == 0 for an empty bag
    labels: list             # per-instance POSITIVE / NEGATIVE / UNLABELED

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass
class Example:
    """One document, vectorized: per-view instance matrices and labels."""

    doc_id: str
    views: list


@dataclass(frozen=True)
class ExampleScore:
    doc_id: str
    probs: tuple            # per-view positive probability (neutral for empty views)
    winning_instance: tuple  # per-view argmax index, None for empty views


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
    snapshots: dict = field(default_factory=dict)  # iteration -> classifiers
    iteration_log: list = field(default_factory=list)

    @property
    def n_views(self) -> int:
        return len(self.kcs_names)

    def with_classifiers(self, classifiers) -> "CoDecompModel":
        return CoDecompModel(
            kcs_names=self.kcs_names, classifiers=classifiers,
            co_config=self.co_config, train_config=self.train_config,
            provider_spec=self.provider_spec,
        )

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
        return cls(
            kcs_names=tuple(raw["kcs_names"]),
            classifiers=[LogRegModel.from_dict(c) for c in raw["classifiers"]],
            co_config=CoConfig(**raw["co_config"]),
            train_config=TrainConfig.from_dict(raw["train_config"]),
            provider_spec=raw.get("provider_spec"),
        )


def mil_example_score(instance_probs) -> tuple[float, int]:
    """Bag score by the most confident positive instance: (max, argmax).

    Ties break toward the lowest index. Empty bags are the caller's problem
    (they substitute the configured neutral probability).
    """
    probs = np.asarray(instance_probs, dtype=float)
    if probs.size == 0:
        raise CotrainError("cannot score an empty instance list")
    idx = int(np.argmax(probs))
    return float(probs[idx]), idx


def build_examples(processed_docs, provider, kcs_names=None) -> list[Example]:
    """Vectorize processed documents into per-view instance matrices.

    Context vectors come from the fully masked token list; instance order
    follows the bags, so occurrence indices line up with precomputed-vector
    keys.
    """
    examples = []
    for pdoc in processed_docs:
        if kcs_names is None:
            kcs_names = tuple(b.kcs_name for b in pdoc.bags)
        views = []
        for name in kcs_names:
            bag = pdoc.bag(name)
            rows = []
            labels = []
            for occ, (mention, label) in enumerate(bag.instances):
                shifted = replace(mention,
                                  token_range=tuple(pdoc.masked_ranges[name][occ]))
                rows.append(context_of(provider, pdoc.masked_tokens, shifted, occ))
                labels.append(label)
            vectors = (np.vstack(rows) if rows
                       else np.empty((0, provider.dimension)))
            views.append(ViewInstances(vectors=vectors, labels=labels))
        examples.append(Example(doc_id=pdoc.document.id, views=views))
    return examples


def _labeled_matrix(examples, view: int):
    rows, targets = [], []
    for ex in examples:
        vi = ex.views[view]
        for i, label in enumerate(vi.labels):
            if label == POSITIVE:
                rows.append(vi.vectors[i])
                targets.append(1.0)
            elif label == NEGATIVE:
                rows.append(vi.vectors[i])
                targets.append(0.0)
    if not rows:
        return np.empty((0, 0)), np.empty(0)
    return np.vstack(rows), np.asarray(targets)


def _train_views(examples, n_views: int, train_config: TrainConfig):
    classifiers = []
    for j in range(n_views):
        X, y = _labeled_matrix(examples, j)
        if X.shape[0] == 0 or len(np.unique(y)) < 2:
            raise CotrainError(
                f"view {j} needs at least one positive and one negative "
                "labeled instance"
            )
        classifiers.append(train_logreg(X, y, train_config))
    return classifiers


class _UnlabeledPool:
    """Stacked instance matrices of the promotable unlabeled examples.

    Examples with an empty bag in any view never qualify for promotion;
    they stay in the pool untouched and fall back to the neutral score at
    test time only.
    """

    def __init__(self, examples, n_views: int):
        idx = [i for i, ex in enumerate(examples)
               if all(v.size > 0 for v in ex.views)]
        self.index = np.asarray(idx, dtype=int)
        self.matrices = []
        self.starts = []
        self.lengths = []
        for j in range(n_views):
            mats = [examples[i].views[j].vectors for i in idx]
            lengths = np.asarray([m.shape[0] for m in mats], dtype=int)
            starts = np.concatenate(([0], np.cumsum(lengths)[:-1])) if len(mats) else np.empty(0, int)
            self.matrices.append(np.vstack(mats) if mats else None)
            self.starts.append(starts)
            self.lengths.append(lengths)

    def score_view(self, classifier, j: int):
        """Per-promotable-example (max prob, argmax instance) under one view."""
        if self.matrices[j] is None:
            return np.empty(0), np.empty(0, int)
        probs = predict_proba_batch(classifier, self.matrices[j])
        starts = self.starts[j]
        maxes = np.maximum.reduceat(probs, starts)
        hit = probs >= np.repeat(maxes, self.lengths[j])
        position = np.where(hit, np.arange(probs.shape[0]), probs.shape[0])
        argmax = np.minimum.reduceat(position, starts) - starts
        return maxes, argmax


def _rank(order_keys, limit, consumed):
    taken = []
    for key, pool_pos in order_keys:
        if len(taken) >= limit:
            break
        if pool_pos in consumed:
            continue
        taken.append(pool_pos)
    return taken


def cotrain_fit(labeled, unlabeled, n_views: int, co_config: CoConfig,
                train_config: TrainConfig, kcs_names=None,
                snapshot_at=()) -> CoDecompModel:
    """Fit one classifier per view, then co-train them over the unlabeled pool.

    Each iteration retrains the views on the labeled pool, scores unlabeled
    documents, and promotes each view's most confident positive and negative
    documents (those clearing the confidence floor) into the pool. Stops
    early once nothing qualifies. With ``iterations=0`` the result is just
    the independently trained per-view classifiers.

    ``snapshot_at`` captures, per listed iteration count k, the exact
    classifiers a run configured with k iterations would have returned.
    """
    for ex in list(labeled) + list(unlabeled):
        if len(ex.views) != n_views:
            raise CotrainError(
                f"document {ex.doc_id!r} has {len(ex.views)} views, expected {n_views}"
            )
    if kcs_names is None:
        kcs_names = tuple(f"view{j}" for j in range(n_views))

    # working copies: promotion mutates instance labels
    pool_l = [Example(ex.doc_id, [ViewInstances(v.vectors, list(v.labels))
                                  for v in ex.views]) for ex in labeled]
    pool_u = [Example(ex.doc_id, [ViewInstances(v.vectors, list(v.labels))
                                  for v in ex.views]) for ex in unlabeled]

    classifiers = _train_views(pool_l, n_views, train_config)
    snapshots = {}
    if 0 in snapshot_at:
        snapshots[0] = copy.deepcopy(classifiers)

    upool = _UnlabeledPool(pool_u, n_views)
    log = []
    floor = co_config.confidence_floor
    last_iteration = 0

    for iteration in range(1, co_config.iterations + 1):
        if iteration > 1:
            classifiers = _train_views(pool_l, n_views, train_config)
        if iteration in snapshot_at:
            snapshots[iteration] = copy.deepcopy(classifiers)
        last_iteration = iteration

        scored = [upool.score_view(classifiers[j], j) for j in range(n_views)]
        n_promotable = upool.index.size
        if n_promotable:
            maxes = np.vstack([s[0] for s in scored])          # (J, n_promotable)
            all_confidently_negative = np.all(maxes < 1.0 - floor, axis=0)
        else:
            maxes = np.empty((n_views, 0))
            all_confidently_negative = np.empty(0, dtype=bool)

        promotions = []
        consumed = {}
        for j in range(n_views):
            candidates = sorted(
                ((-maxes[j, p], pool_u[upool.index[p]].doc_id), p)
                for p in range(n_promotable)
                if maxes[j, p] >= floor
            )
            for p in _rank(candidates, co_config.promotions_per_view, consumed):
                consumed[p] = ("positive", j, float(maxes[j, p]))
        for j in range(n_views):
            candidates = sorted(
                ((maxes[j, p], pool_u[upool.index[p]].doc_id), p)
                for p in range(n_promotable)
                if all_confidently_negative[p]
            )
            for p in _rank(candidates, co_config.promotions_per_view, consumed):
                consumed[p] = ("negative", j, float(maxes[j, p]))

        for p, (kind, j, confidence) in sorted(consumed.items()):
            ex = pool_u[upool.index[p]]
            if kind == "positive":
                ex.views[j].labels[scored[j][1][p]] = POSITIVE
                for other in range(n_views):
                    if other != j:
                        ex.views[other].labels[scored[other][1][p]] = POSITIVE
            else:
                for view in ex.views:
                    view.labels[:] = [NEGATIVE] * len(view.labels)
            pool_l.append(ex)
            promotions.append({
                "view": kcs_names[j], "kind": kind,
                "doc_id": ex.doc_id, "confidence": confidence,
            })

        promoted_ids = {pr["doc_id"] for pr in promotions}
        pool_u = [ex for ex in pool_u if ex.doc_id not in promoted_ids]
        if promotions:
            upool = _UnlabeledPool(pool_u, n_views)
        log.append(IterationRecord(
            iteration=iteration,
            promotions=promotions,
            labeled_examples=len(pool_l),
            unlabeled_examples=len(pool_u),
        ))
        if not promotions:
            break

    for k in snapshot_at:
        if k > last_iteration:
            snapshots[k] = copy.deepcopy(classifiers)

    return CoDecompModel(
        kcs_names=tuple(kcs_names),
        classifiers=classifiers,
        co_config=co_config,
        train_config=train_config,
        snapshots=snapshots,
        iteration_log=log,
    )


def score_example(model: CoDecompModel, example: Example) -> ExampleScore:
    """Per-view bag probabilities of one document; empty views score neutral."""
    probs = []
    winners = []
    for j, view in enumerate(example.views):
        if view.size == 0:
            probs.append(model.co_config.neutral_prob)
            winners.append(None)
            continue
        p, idx = mil_example_score(predict_proba_batch(model.classifiers[j], view.vectors))
        probs.append(p)
        winners.append(idx)
    return ExampleScore(doc_id=example.doc_id, probs=tuple(probs),
                        winning_instance=tuple(winners))


def predict(model: CoDecompModel, example: Example):
    """Product-rule aggregation: positive iff prod(P) >= prod(1 - P)."""
    score = score_example(model, example)
    probs = np.asarray(score.probs)
    label = POSITIVE if np.prod(probs) >= np.prod(1.0 - probs) else NEGATIVE
    return label, score


def predict_many(model: CoDecompModel, examples) -> dict:
    return {ex.doc_id: predict(model, ex)[0] for ex in examples}


def single_view_predictions(classifier, view_index: int, examples,
                            neutral_prob: float = 0.5) -> dict:
    """Threshold one view's bag probability at 0.5 (ties positive)."""
    out = {}
    for ex in examples:
        view = ex.views[view_index]
        if view.size == 0:
            p = neutral_prob
        else:
            p, _ = mil_example_score(predict_proba_batch(classifier, view.vectors))
        out[ex.doc_id] = POSITIVE if p >= 0.5 else NEGATIVE
    return out


def ablation_variants(labeled, unlabeled, n_views: int, co_config: CoConfig,
                      train_config: TrainConfig, iteration_counts,
                      test_examples, kcs_names=None) -> dict:
    """Predictions of every ablation stage over one test set.

    Stages: each view alone (base classifier, threshold 0.5), the product
    combination without any promotion, and the co-trained model at each
    requested iteration count. All stages share one training trajectory.
    """
    iteration_counts = sorted(set(int(k) for k in iteration_counts))
    if any(k < 1 for k in iteration_counts):
        raise CotrainError("iteration counts must be >= 1")
    max_k = max(iteration_counts) if iteration_counts else 0
    run_config = CoConfig(
        iterations=max_k,
        promotions_per_view=co_config.promotions_per_view,
        confidence_floor=co_config.confidence_floor,
        neutral_prob=co_config.neutral_prob,
    )
    model = cotrain_fit(labeled, unlabeled, n_views, run_config, train_config,
                        kcs_names=kcs_names, snapshot_at=(0, *iteration_counts))
    base = model.with_classifiers(model.snapshots[0])

    variants = {}
    for j, name in enumerate(model.kcs_names):
        variants[f"{name}-cl"] = single_view_predictions(
            base.classifiers[j], j, test_examples, co_config.neutral_prob)
    variants["combined"] = predict_many(base, test_examples)
    for k in iteration_counts:
        variants[f"+{k}-itr"] = predict_many(
            model.with_classifiers(model.snapshots[k]), test_examples)
    return variants


def iteration_log_lines(records) -> list[str]:
    """One JSON object per iteration, ready for a .jsonl audit file."""
    return [
        json.dumps({
            "iteration": r.iteration,
            "promotions": r.promotions,
            "labeled_examples": r.labeled_examples,
            "unlabeled_examples": r.unlabeled_examples,
        }, sort_keys=True)
        for r in records
    ]
