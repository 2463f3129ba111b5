"""Per-view binary learners.

Two classifiers live here: an L2-regularized logistic regression fitted by
damped Newton steps over context vectors (the per-concept learner), and a
multinomial naive Bayes over unigram+bigram counts (the document-level
baseline). Both are deterministic. A logistic model serializes to JSON at
full precision as a classifier entry of the codecomp model record, the one
model-file format (``save_model``, ``load_model``); an NB model is fitted and
scored in memory only.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

PROB_FLOOR = 1e-6  # keeps J-way probability products away from exact 0


class LearnerError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Settings of ``train_logreg``. ``epochs`` caps its Newton steps and
    ``convergence_tolerance`` bounds half the Newton decrement at which it
    stops. ``learning_rate`` is still checked but no longer read: configs
    written for the former gradient-descent fit carry it."""

    learning_rate: float = 0.1
    epochs: int = 500
    l2_lambda: float = 1e-3
    convergence_tolerance: float = 1e-7

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise LearnerError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise LearnerError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2_lambda < 0:
            raise LearnerError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.convergence_tolerance < 0:
            raise LearnerError(f"convergence_tolerance must be >= 0, got {self.convergence_tolerance}")


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    config: TrainConfig
    final_loss: float = math.nan
    epochs_run: int = 0      # Newton steps taken
    converged: bool = False  # the fit stopped on its tolerance, not its cap

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": "logreg", "version": 1,
                "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, raw: dict) -> "LogRegModel":
        if raw.get("kind") != "logreg":
            raise LearnerError(f"not a logreg record: kind={raw.get('kind')!r}")
        return cls(
            weights=np.asarray(raw["weights"], dtype=float),
            bias=float(raw["bias"]),
            config=TrainConfig(**raw["config"]),
            final_loss=float(raw["final_loss"]),
            epochs_run=int(raw["epochs_run"]),
            converged=bool(raw["converged"]),
        )


def _sigmoid(z):
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: neither exp overflows
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def _log_loss(z, y, w, l2_lambda) -> float:
    # mean softplus(z) - y*z is the log-loss without intermediate probabilities,
    # so it stays finite and exactly differentiable for any |z|
    # add.reduce / n is what np.mean computes, without its Python-level wrapper
    return (float(np.add.reduce(np.logaddexp(0.0, z) - y * z) / len(y))
            + 0.5 * l2_lambda * float(w @ w))


def _gradient_hessian(design, y, theta, penalty, z):
    """Gradient and Hessian in theta of the regularized mean log-loss, at
    logits ``z = design @ theta``. The bias is the last coefficient: its
    column of ``design`` is all ones and its entry of ``penalty`` zero."""
    n = len(y)
    p = _sigmoid(z)
    grad = design.T @ (p - y) / n + penalty * theta
    hess = (design.T * (p * (1.0 - p))) @ design / n
    hess.flat[::len(theta) + 1] += penalty
    return grad, hess


def _augmented(X, weights, bias, l2_lambda):
    """The system ``train_logreg`` steps in: the design ``[X, 1]``, theta =
    (weights, bias) and the penalty, ``l2_lambda`` per weight and 0 for the
    bias. Each is filled into one new array."""
    n, d = X.shape
    design = np.empty((n, d + 1))
    design[:, :d] = X
    design[:, d] = 1.0
    theta = np.empty(d + 1)
    theta[:d] = weights
    theta[d] = bias
    penalty = np.full(d + 1, float(l2_lambda))
    penalty[d] = 0.0
    return design, theta, penalty


def loss_gradient(model: LogRegModel, X, y) -> tuple[float, np.ndarray]:
    """Regularized log-loss and its analytic gradient in (weights, bias),
    from the function ``train_logreg`` steps by.

    The returned gradient vector has the bias derivative appended as its
    last entry, matching the layout finite-difference checks use.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[1] != model.weights.shape[0]:
        raise LearnerError(
            f"dimension mismatch: model has {model.weights.shape[0]}, data has {X.shape[1]}"
        )
    w, lam = model.weights, model.config.l2_lambda
    design, theta, penalty = _augmented(X, w, model.bias, lam)
    z = design @ theta
    grad, _ = _gradient_hessian(design, y, theta, penalty, z)
    return _log_loss(z, y, w, lam), grad


ARMIJO_FRACTION = 1e-4  # share of the predicted decrease a step must achieve
MAX_HALVINGS = 60       # backtracking steps before a line search gives up
SOLVE_RESIDUAL = 1e-6   # max |H d + g| / max |g| of an accepted Newton solve


def _solves(hess, grad, direction) -> bool:
    return bool(np.all(np.isfinite(direction))
                and np.abs(hess @ direction + grad).max() <= SOLVE_RESIDUAL * np.abs(grad).max())


def _newton_direction(hess, grad):
    """-H^-1 g; where H is singular or the solve inaccurate (a nearly
    singular H), the least-squares solution of H d = -g, which is the
    Newton step in the span of H (a zero column of the design at
    ``l2_lambda=0`` leaves H a zero row and g a zero there). None where
    neither solves the system or the result is not a descent direction."""
    try:
        direction = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        direction = None
    if direction is None or not _solves(hess, grad, direction):
        try:
            direction = np.linalg.lstsq(hess, -grad)[0]
        except np.linalg.LinAlgError:
            return None
        if not _solves(hess, grad, direction):
            return None
    if grad @ direction > 0.0:
        return None
    return direction


def train_logreg(X, y, cfg: TrainConfig, start: LogRegModel | None = None) -> LogRegModel:
    """Fit logistic regression by damped Newton steps.

    Minimizes mean log-loss plus (l2_lambda/2)*||w||^2 (bias unpenalized)
    from a zero start, or from the weights and bias of ``start``, a model
    of the same width: with l2_lambda > 0 the loss is strictly convex, so a
    warm-started fit ends at the same optimum within the tolerance, in
    fewer steps when ``start`` is near it. Each step solves the (d+1)-square
    Hessian system and backtracks along the solution until the Armijo condition holds; where
    the solve fails it takes the system's least-squares solution, and where
    that fails too or gives no descent direction it steps along the
    negative gradient instead. The fit stops, ``converged``, once half the
    Newton decrement g'H^-1 g is below ``cfg.convergence_tolerance``, or
    after one whole Newton step once it is below one ulp of the loss, a
    decrease no line search can resolve; it
    also stops after ``cfg.epochs`` steps, or where a line search finds no
    decrease, and then logs a warning with the rows, the steps and the last
    Newton decrement. ``cfg.learning_rate`` is not read. Deterministic for
    fixed inputs.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise LearnerError(f"bad training shapes: X {X.shape}, y {y.shape}")
    if (y == y[0]).all():
        raise LearnerError("training data contains a single class")
    n, d = X.shape
    if start is not None and start.weights.shape != (d,):
        raise LearnerError(f"start has {start.weights.shape[0]} weights, data has "
                           f"{d} columns")
    weights, bias = (0.0, 0.0) if start is None else (start.weights, start.bias)
    design, theta, penalty = _augmented(X, weights, bias, cfg.l2_lambda)
    z = np.zeros(n) if start is None else design @ theta
    loss = _log_loss(z, y, theta[:d], cfg.l2_lambda)
    steps = 0
    converged = False
    decrement = math.nan  # of the last Newton direction
    # a saturated sigmoid's tail may round to zero: that underflow is exact
    # enough and is not reported, while overflow and NaN still are
    with np.errstate(under="ignore"):
        while steps < cfg.epochs:
            grad, hess = _gradient_hessian(design, y, theta, penalty, z)
            direction = _newton_direction(hess, grad)
            newton = direction is not None
            if not newton:
                direction = -grad
            slope = float(grad @ direction)  # minus the Newton decrement
            whole_step = False
            if newton:
                decrement = -slope
                if decrement / 2 < cfg.convergence_tolerance:
                    converged = True
                    break
                # a decrease below the loss's resolution: the Armijo test
                # would compare rounding, so take the whole step and stop
                whole_step = decrement / 2 < math.ulp(loss)
            t = 1.0
            for _ in range(MAX_HALVINGS):
                trial = theta + t * direction
                trial_z = design @ trial
                trial_loss = _log_loss(trial_z, y, trial[:d], cfg.l2_lambda)
                if whole_step or trial_loss <= loss + ARMIJO_FRACTION * t * slope:
                    break
                t *= 0.5
            else:
                break
            theta, z, loss = trial, trial_z, trial_loss
            steps += 1
            if whole_step:
                converged = True
                break
    if not converged:
        # short of the cap, only a line search that found no decrease stops it
        stop = ("at its step cap" if steps == cfg.epochs
                else "where a line search found no decrease")
        logging.getLogger(__name__).warning(
            "logistic fit on %d rows stopped without converging %s, after %d "
            "steps; last Newton decrement %.3g", n, stop, steps, decrement)
    return LogRegModel(weights=theta[:d].copy(), bias=float(theta[d]), config=cfg,
                       final_loss=loss, epochs_run=steps, converged=converged)


def predict_proba_batch(model: LogRegModel, X) -> np.ndarray:
    """Positive-class probability sigmoid(w.x + b) of every row ``x`` of
    ``X``, clipped into (0, 1). vecdot takes one dot product per contiguous
    row, so a row's value does not depend on the matrix it sits in (a BLAS
    ``X @ w`` may round a row differently by position)."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.shape[0] == 0:
        return np.empty(0)
    p = _sigmoid(np.vecdot(X, model.weights) + model.bias)
    # np.minimum(np.maximum(...)) is np.clip without its dispatch overhead
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


# ---------------------------------------------------------------------------
# Multinomial naive Bayes over unigram+bigram counts
# ---------------------------------------------------------------------------

NB_CLASSES = ("negative", "positive")  # class order of every NB estimate


def ngram_counts(tokens) -> Counter:
    """Unigram and bigram multiset of a token sequence.

    Bigrams are stored as space-joined strings; tokens never contain
    whitespace so the two feature kinds cannot collide.
    """
    counts = Counter(tokens)
    counts.update(map(" ".join, zip(tokens, tokens[1:])))
    return counts


def _offsets(lengths) -> np.ndarray:
    """Where each of consecutive runs of ``lengths`` starts, then their total."""
    starts = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=starts[1:])
    return starts


@dataclass(frozen=True)
class FeatureCounts:
    """Sparse document x feature count table: document ``rows[k]`` holds the
    feature of column ``cols[k]`` ``counts[k]`` times. ``index`` maps each
    feature to its column, in first-seen order; entries run document by
    document, document i's from ``starts[i]`` to ``starts[i + 1]``. A corpus
    table also maps each document id to its row (``ids``), so that a fold
    takes its documents' rows from it (``take``)."""

    index: dict
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    ids: dict

    @classmethod
    def from_multisets(cls, feature_counts, ids=()) -> "FeatureCounts":
        """The table of per-document feature multisets, in order; ``ids``,
        when given, names each document for ``take``."""
        index = {}
        cols, counts, lengths = [], [], []
        for multiset in feature_counts:
            cols.extend(index.setdefault(f, len(index)) for f in multiset)
            counts.extend(multiset.values())
            lengths.append(len(multiset))
        return cls._of(index, _offsets(np.array(lengths, dtype=np.intp)),
                       np.array(cols, dtype=np.intp), np.array(counts, dtype=float),
                       {doc_id: row for row, doc_id in enumerate(ids)})

    @classmethod
    def _of(cls, index, starts, cols, counts, ids) -> "FeatureCounts":
        rows = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        return cls(index, rows, cols, counts, starts, ids)

    @property
    def n_docs(self) -> int:
        return len(self.starts) - 1

    @cached_property
    def _features(self) -> np.ndarray:
        # column -> feature, to name a fold's columns without a loop
        return np.array(list(self.index), dtype=object)

    def take(self, doc_ids) -> "FeatureCounts":
        """The table of the documents ``doc_ids`` alone, in that order: each
        document's entries as they are here, and the columns renumbered in
        first-seen order, so that a feature none of them holds is not in
        its index. Equal to ``from_multisets`` over their multisets."""
        picked = np.array([self.ids[i] for i in doc_ids], dtype=np.intp)
        first_entry = self.starts[picked]
        lengths = self.starts[picked + 1] - first_entry
        starts = _offsets(lengths)
        positions = np.arange(starts[-1])
        entries = np.repeat(first_entry - starts[:-1], lengths) + positions
        cols = self.cols[entries]
        # each column's first position, then the columns in first-seen order
        first = np.full(len(self.index), len(cols))
        np.minimum.at(first, cols, positions)
        seen = cols[first[cols] == positions]
        renumber = np.empty(len(self.index), dtype=np.intp)
        renumber[seen] = np.arange(len(seen))
        index = dict(zip(self._features[seen].tolist(), range(len(seen))))
        return self._of(index, starts, renumber[cols], self.counts[entries], {})

    def per_class_sums(self, by, values, at, minlength) -> np.ndarray:
        """(minlength, 2): ``counts * values[at]`` summed by ``by`` (rows or
        cols), for each class column of the (n, 2) ``values``. A column is
        gathered as a 1-D array: gathering (nnz, 2) rows costs far more."""
        return np.stack([np.bincount(by, weights=self.counts * values[:, c][at],
                                     minlength=minlength)
                         for c in range(2)], axis=1)


def one_hot_labels(labels) -> np.ndarray:
    """(n, 2) class weights: 1 on each gold label's class of ``NB_CLASSES``."""
    for label in labels:
        if label not in NB_CLASSES:
            raise LearnerError(f"unknown class {label!r}")
    return np.array([[label == c for c in NB_CLASSES] for label in labels],
                    dtype=float).reshape(-1, 2)


class LogLikelihoods(Mapping):
    """Read-only feature -> per-class log P(feature | class) over one (V, 2)
    array: ``index`` maps each feature to its row of ``rows``, in vocabulary
    order. ``values()`` is ``rows`` itself, so iterating it yields the rows
    in that order."""

    __slots__ = ("index", "rows")

    def __init__(self, index: dict, rows: np.ndarray):
        rows = rows.view()
        rows.flags.writeable = False
        self.index = index
        self.rows = rows

    def __getitem__(self, feat):
        return self.rows[self.index[feat]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self):
        return len(self.index)

    def values(self):
        return self.rows


@dataclass
class NBModel:
    log_priors: np.ndarray            # aligned with NB_CLASSES
    log_likelihoods: LogLikelihoods   # feature -> per-class log P(feature | class)
    log_oov: np.ndarray               # per-class log mass of any unseen feature
    alpha: float


def train_nb(feature_counts: FeatureCounts, labels, alpha: float = 1.0) -> NBModel:
    """Laplace-smoothed multinomial NB from a ``FeatureCounts`` table.

    The vocabulary comes from the training documents only; one extra
    smoothing slot absorbs features unseen at training time, so the
    per-class likelihoods (vocabulary plus that slot) sum to one.
    """
    return _train_nb_weighted(feature_counts, one_hot_labels(labels), alpha)


def _train_nb_weighted(table: FeatureCounts, class_weights, alpha) -> NBModel:
    """NB estimation where each document contributes fractional class mass.

    Row i of the (n_docs, 2) ``class_weights`` is document i's weight on
    each class of ``NB_CLASSES``; supervised training puts weight 1 on the
    gold class. Every feature of the table is in the model, even one seen
    only at weight zero, so EM's model family stays fixed across iterations.
    """
    if alpha <= 0:
        raise LearnerError(f"alpha must be > 0, got {alpha}")
    if table.n_docs == 0 or class_weights.shape != (table.n_docs, 2):
        raise LearnerError("feature_counts and labels must be equal-length and non-empty")
    doc_mass = class_weights.sum(axis=0)
    if np.any(doc_mass == 0):
        raise LearnerError("both classes must be present in the training data")
    vocab_size = len(table.index)
    feature_mass = table.per_class_sums(table.cols, class_weights, table.rows, vocab_size)
    # each class's mass added feature by feature, as feature_mass.sum(axis=0)
    # adds it, without numpy's slow reduction over an inner axis of two
    totals = np.add.accumulate(feature_mass)[-1] if vocab_size else np.zeros(2)
    denom = totals + alpha * (vocab_size + 1)  # +1: the unseen slot
    # one 1-D division per class: dividing the (V, 2) array by the 2-vector
    # loops over an inner axis of two, for the same bits
    smoothed = np.stack([(feature_mass[:, c] + alpha) / denom[c] for c in range(2)], axis=1)
    return NBModel(
        log_priors=np.log(doc_mass / doc_mass.sum()),
        log_likelihoods=LogLikelihoods(table.index, np.log(smoothed)),
        log_oov=np.log(alpha / denom),
        alpha=alpha,
    )


def nb_predict_proba(model: NBModel, feature_count: Counter) -> float:
    """Posterior probability of the positive class, computed in log space.

    Clipped into [1e-6, 1 - 1e-6] like the logistic outputs, so extreme
    documents never produce an exact 0 or 1.
    """
    # two float sums, not a new 2-vector per feature: the same float64 steps.
    # The index and one memoryview per class column are read directly: the
    # Mapping's lookups, or a numpy row per feature, cost more than the sums
    s0, s1 = model.log_priors.tolist()
    index, rows = model.log_likelihoods.index, model.log_likelihoods.rows
    col0, col1 = memoryview(rows[:, 0]), memoryview(rows[:, 1])
    oov0, oov1 = model.log_oov.tolist()
    for feat, c in feature_count.items():
        i = index.get(feat)
        if i is None:
            s0 += c * oov0
            s1 += c * oov1
        else:
            s0 += c * col0[i]
            s1 += c * col1[i]
    scores = np.array([s0, s1])
    scores = scores - scores.max()
    probs = np.exp(scores)
    probs /= probs.sum()
    p = float(probs[NB_CLASSES.index("positive")])
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def save_model(model, path) -> None:
    """Write a codecomp model as ``load_model`` reads it back. The JSON text
    is built before the file is opened, so a model that cannot be encoded
    leaves a previous file at ``path`` as it was."""
    from .cotrain import CoDecompModel  # deferred: cotrain imports learners

    if not isinstance(model, CoDecompModel):
        raise LearnerError(f"only codecomp models are saved, got {type(model).__name__}")
    text = json.dumps(model.to_dict(), sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    """The codecomp model ``save_model`` wrote to ``path``."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if raw.get("kind") == "codecomp":
        from .cotrain import CoDecompModel  # deferred: cotrain imports learners

        return CoDecompModel.from_dict(raw)
    raise LearnerError(f"unknown model kind {raw.get('kind')!r}")
