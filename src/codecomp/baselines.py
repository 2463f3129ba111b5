"""Document-level reference models: naive Bayes and EM-augmented naive Bayes.

Both operate on unigram+bigram counts of the raw, unmasked text. The EM
variant folds unlabeled documents in with fractional class posteriors,
re-estimating until its objective stalls: the (weighted) observed-data
log-likelihood plus the Dirichlet log-prior of the Laplace smoothing, the
quantity each M-step maximises, so the objective never falls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concepts import tokenize
from .learners import (
    LearnerError,
    NBModel,
    _train_nb_weighted,
    nb_joint_log_probs,
    ngram_counts,
    train_nb,
)


@dataclass(frozen=True)
class EMConfig:
    max_iterations: int = 20
    unlabeled_weight: float = 1.0
    convergence_tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise LearnerError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.unlabeled_weight <= 1.0):
            raise LearnerError(
                f"unlabeled_weight must lie in (0, 1], got {self.unlabeled_weight}"
            )


def document_features(doc):
    return ngram_counts([t.surface for t in tokenize(doc.text)])


def nb_baseline_fit(labeled_docs, alpha: float = 1.0) -> NBModel:
    """Supervised NB over unigrams+bigrams of the raw text."""
    features = [document_features(d) for d in labeled_docs]
    labels = [d.gold_label for d in labeled_docs]
    return train_nb(features, labels, alpha=alpha)


def _posteriors(model: NBModel, features) -> np.ndarray:
    joint = nb_joint_log_probs(model, features)
    joint = joint - joint.max()
    p = np.exp(joint)
    return p / p.sum()


def _em_objective(model, labeled_feats, labels, unlabeled_feats, weight):
    """Labeled joint log-probability plus weighted unlabeled marginals, plus
    the smoothing's log-prior: alpha times every class's log-likelihoods,
    unseen-feature slot included (the class priors are unsmoothed).

    Summed exactly (``math.fsum``): near convergence successive values
    differ by less than the rounding error of a plain running sum.
    """
    terms = [
        nb_joint_log_probs(model, feats)[model.class_order.index(label)]
        for feats, label in zip(labeled_feats, labels)
    ]
    for feats in unlabeled_feats:
        joint = nb_joint_log_probs(model, feats)
        m = joint.max()
        terms.append(weight * (m + np.log(np.exp(joint - m).sum())))
    prior = model.alpha * np.array([*model.log_likelihoods.values(), model.log_oov])
    return math.fsum(terms + prior.ravel().tolist())


def em_fit(labeled_docs, unlabeled_docs, em_config: EMConfig = EMConfig(),
           alpha: float = 1.0):
    """Semi-supervised NB: E-steps assign fractional labels, M-steps refit.

    Unlabeled contributions are damped by ``unlabeled_weight``. Returns the
    final model and the per-iteration objective trace (one value per
    completed E/M pass): the weighted observed-data log-likelihood plus the
    Laplace smoothing's Dirichlet log-prior, which the M-step maximises, so
    the trace is non-decreasing and early stopping watches what EM climbs.
    """
    if not labeled_docs:
        raise LearnerError("em_fit needs at least one labeled document")
    labeled_feats = [document_features(d) for d in labeled_docs]
    labels = [d.gold_label for d in labeled_docs]
    unlabeled_feats = [document_features(d) for d in unlabeled_docs]

    model = train_nb(labeled_feats, labels, alpha=alpha)
    if not unlabeled_feats:
        return model, []
    return _em_iterate(model, labeled_feats, labels, unlabeled_feats,
                       em_config, alpha)


def _em_iterate(model, labeled_feats, labels, unlabeled_feats, em_config, alpha):

    # EM estimates share one vocabulary across labeled and unlabeled text;
    # zero-weight entries keep the count tables aligned from iteration one
    base_weights = [{label: 1.0} for label in labels]
    zero = [{c: 0.0 for c in model.class_order} for _ in unlabeled_feats]
    model = _train_nb_weighted(labeled_feats + unlabeled_feats,
                               base_weights + zero, alpha, model.class_order)

    trace = []
    previous = -np.inf
    w = em_config.unlabeled_weight
    for _ in range(em_config.max_iterations):
        fractional = [
            {
                c: w * float(p)
                for c, p in zip(model.class_order, _posteriors(model, feats))
            }
            for feats in unlabeled_feats
        ]
        model = _train_nb_weighted(labeled_feats + unlabeled_feats,
                                   base_weights + fractional, alpha,
                                   model.class_order)
        objective = _em_objective(model, labeled_feats, labels,
                                  unlabeled_feats, w)
        trace.append(objective)
        if abs(objective - previous) < em_config.convergence_tolerance:
            break
        previous = objective
    return model, trace

