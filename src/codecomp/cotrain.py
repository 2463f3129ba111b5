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
            train_config=TrainConfig.from_dict(raw["train_config"]),
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


def _labeled_rows(examples, view: int):
    """One view's labeled instance rows and their 0/1 targets, in document
    then instance order; unlabeled instances are skipped."""
    rows, targets = [], []
    for ex in examples:
        vi = ex.views[view]
        for vector, label in zip(vi.vectors, vi.labels):
            if label in (POSITIVE, NEGATIVE):
                rows.append(vector)
                targets.append(float(label == POSITIVE))
    return rows, targets


def _train_views(pools, train_config: TrainConfig):
    classifiers = []
    for j, (rows, targets) in enumerate(pools):
        if len(set(targets)) < 2:
            raise CotrainError(
                f"view {j} needs at least one positive and one negative "
                "labeled instance"
            )
        classifiers.append(train_logreg(np.vstack(rows), np.asarray(targets),
                                        train_config))
    return classifiers


class _StackedBags:
    """One view's bags of many documents, stacked into one instance matrix.

    Bag i is rows ``starts[i] : starts[i] + lengths[i]`` of ``matrix``. A
    row's probability does not depend on the rows around it, so a bag scores
    here exactly as ``mil_example_score`` scores it alone.
    """

    def __init__(self, examples, view: int, dim: int):
        mats = [ex.views[view].vectors for ex in examples]
        for ex, m in zip(examples, mats):
            if m.shape[1] != dim:
                raise CotrainError(
                    f"view {view}: document {ex.doc_id!r} has vectors of width "
                    f"{m.shape[1]}, the classifier takes {dim}"
                )
        self.lengths = np.array([m.shape[0] for m in mats], dtype=int)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.matrix = np.vstack(mats) if mats else np.empty((0, dim))

    def score(self, classifier, neutral_prob: float):
        """Each bag's (max prob, first argmax); an empty bag scores
        ``neutral_prob`` and has no winning instance (-1)."""
        probs = predict_proba_batch(classifier, self.matrix)
        maxes = np.full(self.lengths.size, float(neutral_prob))
        winners = np.full(self.lengths.size, -1)
        full = self.lengths > 0
        starts = self.starts[full]
        maxes[full] = np.maximum.reduceat(probs, starts)
        hit = probs >= np.repeat(maxes, self.lengths)
        position = np.where(hit, np.arange(probs.size), probs.size)
        winners[full] = np.minimum.reduceat(position, starts) - starts
        return maxes, winners


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

    # One labeled pool per view, read once; promotion appends to it.
    pools = [_labeled_rows(labeled, j) for j in range(n_views)]
    classifiers = _train_views(pools, train_config)
    snapshots = {}
    if 0 in snapshot_at:
        snapshots[0] = classifiers

    # Documents with an empty bag in any view never qualify for promotion;
    # they stay unlabeled and fall back to the neutral score at test time.
    # The rest are stacked once; promotion clears their ``alive`` flag. The
    # instance labels of unlabeled documents are never read.
    promotable = [ex for ex in unlabeled if all(v.size > 0 for v in ex.views)]
    bags = [_StackedBags(promotable, j, classifiers[j].weights.shape[0])
            for j in range(n_views)]
    alive = np.ones(len(promotable), dtype=bool)
    id_rank = np.argsort(sorted(range(len(promotable)),
                                key=lambda p: promotable[p].doc_id))
    log = []
    floor = co_config.confidence_floor
    last_iteration = 0

    for iteration in range(1, co_config.iterations + 1):
        if iteration > 1:
            classifiers = _train_views(pools, train_config)
        if iteration in snapshot_at:
            snapshots[iteration] = classifiers
        last_iteration = iteration

        scored = [bags[j].score(classifiers[j], co_config.neutral_prob)
                  for j in range(n_views)]
        maxes = np.vstack([s[0] for s in scored])           # (J, n_promotable)
        confidently_negative = alive & np.all(maxes < 1.0 - floor, axis=0)

        # Each view takes its most confident documents not yet taken this
        # iteration: positives by descending score, then negatives by
        # ascending score, ties to the lower doc id.
        taken = np.zeros(len(promotable), dtype=bool)
        picks = []
        for kind, sign, eligible in (("positive", -1.0, alive & (maxes >= floor)),
                                     ("negative", 1.0, [confidently_negative] * n_views)):
            for j in range(n_views):
                cand = np.flatnonzero(eligible[j] & ~taken)
                cand = cand[np.lexsort((id_rank[cand], sign * maxes[j, cand]))]
                cand = cand[:co_config.promotions_per_view]
                taken[cand] = True
                picks.extend((int(p), kind, j) for p in cand)

        promotions = []
        for p, kind, j in sorted(picks):
            ex = promotable[p]
            for view, (rows, targets), (_, winners) in zip(ex.views, pools, scored):
                if kind == "positive":
                    # the winning instance of every view, as a positive
                    rows.append(view.vectors[winners[p]])
                    targets.append(1.0)
                else:
                    rows.extend(view.vectors)
                    targets.extend([0.0] * view.size)
            alive[p] = False
            promotions.append({
                "view": kcs_names[j], "kind": kind,
                "doc_id": ex.doc_id, "confidence": float(maxes[j, p]),
            })

        promoted = int(np.count_nonzero(~alive))
        log.append(IterationRecord(
            iteration=iteration,
            promotions=promotions,
            labeled_examples=len(labeled) + promoted,
            unlabeled_examples=len(unlabeled) - promoted,
        ))
        if not promotions:
            break

    for k in snapshot_at:
        if k > last_iteration:
            snapshots[k] = classifiers

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
    """``predict`` labels of many documents, scoring each view in one call."""
    examples = list(examples)
    probs = np.vstack([
        _StackedBags(examples, j, clf.weights.shape[0]).score(
            clf, model.co_config.neutral_prob)[0]
        for j, clf in enumerate(model.classifiers)
    ])                                                  # (J, n)
    positive = np.prod(probs, axis=0) >= np.prod(1.0 - probs, axis=0)
    return {ex.doc_id: POSITIVE if pos else NEGATIVE
            for ex, pos in zip(examples, positive)}


def single_view_predictions(classifier, view_index: int, examples,
                            neutral_prob: float = 0.5) -> dict:
    """Threshold one view's bag probability at 0.5 (ties positive)."""
    examples = list(examples)
    probs, _ = _StackedBags(examples, view_index, classifier.weights.shape[0]).score(
        classifier, neutral_prob)
    return {ex.doc_id: POSITIVE if p >= 0.5 else NEGATIVE
            for ex, p in zip(examples, probs)}


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
    model = cotrain_fit(labeled, unlabeled, n_views,
                        replace(co_config, iterations=max_k), train_config,
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
