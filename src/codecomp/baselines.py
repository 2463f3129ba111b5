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

from .concepts import token_surfaces
from .learners import (
    FeatureCounts,
    LearnerError,
    NBModel,
    _train_nb_weighted,
    ngram_counts,
    one_hot_labels,
    train_nb,
)


@dataclass(frozen=True)
class EMConfig:
    alpha: float = 1.0                  # Laplace smoothing of every M-step
    max_iterations: int = 20
    unlabeled_weight: float = 1.0
    convergence_tolerance: float = 1e-6

    def __post_init__(self):
        if self.alpha <= 0:
            raise LearnerError(f"alpha must be > 0, got {self.alpha}")
        if self.max_iterations < 1:
            raise LearnerError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.unlabeled_weight <= 1.0):
            raise LearnerError(
                f"unlabeled_weight must lie in (0, 1], got {self.unlabeled_weight}"
            )
        if self.convergence_tolerance < 0:
            raise LearnerError(f"convergence_tolerance must be >= 0, got {self.convergence_tolerance}")


def document_features(doc):
    return ngram_counts(token_surfaces(doc.text))


def _table(docs, features) -> FeatureCounts:
    # the rows of ``docs`` in order, taken from the corpus table ``features``
    # or counted here
    if features is None:
        return FeatureCounts.from_multisets([document_features(d) for d in docs])
    return features.take([d.id for d in docs])


def nb_baseline_fit(labeled_docs, alpha: float = 1.0, *, features=None) -> NBModel:
    """Supervised NB over unigrams+bigrams of the raw text. ``features`` is
    a corpus table holding every labeled document, a ``FeatureCounts`` whose
    rows are named by document id; the fit takes their rows of it, and
    without it counts the documents here."""
    return train_nb(_table(labeled_docs, features),
                    [d.gold_label for d in labeled_docs], alpha=alpha)


def _e_step(model: NBModel, table: FeatureCounts, labeled_weights, unlabeled_weight):
    """Class posteriors of the unlabeled rows (those after the labeled ones),
    and the objective: labeled joint log-probabilities, weighted unlabeled
    log-marginals and the smoothing's log-prior (alpha times every
    log-likelihood, unseen slot included; class priors are unsmoothed).
    ``math.fsum`` sums it exactly: near convergence successive values differ
    by less than a running sum's rounding error."""
    likelihoods = model.log_likelihoods.rows
    joint = model.log_priors + table.per_class_sums(
        table.rows, likelihoods, table.cols, table.n_docs)
    n_labeled = len(labeled_weights)
    unlabeled = joint[n_labeled:]
    peak = unlabeled.max(axis=1, keepdims=True)
    mass = np.exp(unlabeled - peak)
    total = mass.sum(axis=1, keepdims=True)
    terms = (joint[:n_labeled][labeled_weights > 0],
             unlabeled_weight * (peak + np.log(total)).ravel(),
             model.alpha * likelihoods.ravel(), model.alpha * model.log_oov)
    # a memoryview hands fsum each float without building a list of them
    return mass / total, math.fsum(memoryview(np.concatenate(terms)))


def em_fit(labeled_docs, unlabeled_docs, em_config: EMConfig = EMConfig(), *,
           features=None):
    """Semi-supervised NB: E-steps assign fractional labels, M-steps refit.

    Unlabeled contributions are damped by ``unlabeled_weight``. Returns the
    final model and the per-iteration objective trace (one value per
    completed E/M pass): the weighted observed-data log-likelihood plus the
    Laplace smoothing's Dirichlet log-prior, which the M-step maximises, so
    the trace is non-decreasing and early stopping watches what EM climbs.
    ``features`` is a corpus table holding every document, as for
    ``nb_baseline_fit``: the fit's table is its labeled rows, then its
    unlabeled rows, so a feature seen only outside them is out of its
    vocabulary.
    """
    if not labeled_docs:
        raise LearnerError("em_fit needs at least one labeled document")
    table = _table([*labeled_docs, *unlabeled_docs], features)
    labeled_weights = one_hot_labels([d.gold_label for d in labeled_docs])
    alpha = em_config.alpha
    # the first M-step sees the labeled documents only, but estimates share
    # one vocabulary across labeled and unlabeled text from the start
    model = _train_nb_weighted(
        table, np.vstack([labeled_weights, np.zeros((len(unlabeled_docs), 2))]), alpha)
    if not unlabeled_docs:
        return model, []
    w = em_config.unlabeled_weight
    posteriors, _ = _e_step(model, table, labeled_weights, w)
    trace = []
    previous = -np.inf
    for _ in range(em_config.max_iterations):
        model = _train_nb_weighted(
            table, np.vstack([labeled_weights, w * posteriors]), alpha)
        posteriors, objective = _e_step(model, table, labeled_weights, w)
        trace.append(objective)
        if abs(objective - previous) < em_config.convergence_tolerance:
            break
        previous = objective
    return model, trace
