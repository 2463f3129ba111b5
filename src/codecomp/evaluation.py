"""Experiment orchestration: folds x repetitions, metrics, ablation, sweeps.

One master seed pins everything. Repetition r derives seed (master + r) for
its fold plan and labeled sampling, so rerunning any model spec against the
same corpus and seed reproduces the splits -- and the reports -- exactly.
Metrics are precision/recall/F1 of the positive class; fold metrics average
within a repetition first, then across repetitions.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import itertools
import json
import logging
from dataclasses import asdict, dataclass, field, fields

from .baselines import EMConfig, document_features, em_fit, nb_baseline_fit
from .concepts import (
    Lexicons,
    TaskPreset,
    load_lexicons,
    process_document,
)
from .context import HashedWindowProvider
from .corpus import (
    NEGATIVE,
    POSITIVE,
    CorpusError,
    SampleSpec,
    fold_sizes,
    hide_gold,
    sample_labeled,
    stratified_folds,
)
from .cotrain import (
    CoConfig,
    CotrainError,
    ablation_variants,
    build_examples,
    cotrain_fit,
    predict_many,
)
from .learners import FeatureCounts, TrainConfig, nb_predict_proba


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Metrics:
    """Positive-class precision/recall/F1 plus the raw confusion counts."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise EvalError("confusion counts must be non-negative")

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "precision": self.precision, "recall": self.recall,
                "f1": self.f1}


def compute_metrics(predictions: dict, gold: dict) -> Metrics:
    """Confusion counts over aligned id -> label maps."""
    if set(predictions) != set(gold):
        missing = set(gold) ^ set(predictions)
        raise EvalError(f"prediction/gold id mismatch on {len(missing)} ids")
    tp = fp = fn = tn = 0
    for doc_id, predicted in predictions.items():
        actual = gold[doc_id]
        if predicted == POSITIVE and actual == POSITIVE:
            tp += 1
        elif predicted == POSITIVE:
            fp += 1
        elif actual == POSITIVE:
            fn += 1
        else:
            tn += 1
    return Metrics(tp=tp, fp=fp, fn=fn, tn=tn)


def _mean_of(metric_rows) -> dict:
    """Average fold metrics within each repetition, then across repetitions."""
    by_rep = {}
    for rep, _, m in metric_rows:
        by_rep.setdefault(rep, []).append(m)
    rep_means = {
        name: [
            sum(getattr(m, name) for m in ms) / len(ms) for ms in by_rep.values()
        ]
        for name in ("precision", "recall", "f1")
    }
    return {name: sum(vals) / len(vals) for name, vals in rep_means.items()}


@dataclass
class RunReport:
    model: str
    runs: list                      # (repetition, fold, Metrics)
    mean: dict                      # precision/recall/f1 averages
    config_fingerprint: str
    master_seed: int
    seeds: list
    k_folds: int
    n_labeled: int
    repetitions: int

    def to_json(self) -> str:
        runs = [{"repetition": rep, "fold": fold, **m.to_dict()}
                for rep, fold, m in self.runs]
        return json.dumps({**asdict(self), "runs": runs}, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "repetition", "fold", "tp", "fp", "fn", "tn",
                         "precision", "recall", "f1"])
        totals = [0, 0, 0, 0]
        for rep, fold, m in self.runs:
            writer.writerow([self.model, rep, fold, m.tp, m.fp, m.fn, m.tn,
                             repr(m.precision), repr(m.recall), repr(m.f1)])
            for i, v in enumerate((m.tp, m.fp, m.fn, m.tn)):
                totals[i] += v
        writer.writerow([self.model, "mean", "all", *totals,
                         repr(self.mean["precision"]), repr(self.mean["recall"]),
                         repr(self.mean["f1"])])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Model specs and their fit/predict runners
# ---------------------------------------------------------------------------
# A spec has a ``name``, a ``describe()`` dict that its reports' fingerprint
# hashes, and ``runner(corpus)``, whose ``predictions(labeled, unlabeled,
# test)`` returns ``{variant: {doc_id: label}}`` for one fold.


@dataclass(frozen=True)
class NBSpec:
    """Supervised NB; its fields are the CLI's ``[nb]`` keys. As in every
    spec, ``name`` is a class constant, not a field."""

    alpha: float = 1.0
    name = "nb"

    def __post_init__(self):
        if self.alpha <= 0:
            raise EvalError(f"alpha must be > 0, got {self.alpha}")

    def describe(self) -> dict:
        return {"model": "nb", "alpha": self.alpha}

    def fit(self, labeled, unlabeled, features):
        return nb_baseline_fit(labeled, alpha=self.alpha, features=features)

    def runner(self, corpus):
        return _DocumentRunner(corpus, self)


@dataclass(frozen=True)
class EMSpec:
    em_config: EMConfig = field(default_factory=EMConfig)
    name = "em"

    def describe(self) -> dict:
        return {"model": "em", **asdict(self.em_config)}

    def fit(self, labeled, unlabeled, features):
        model, _ = em_fit(labeled, unlabeled, self.em_config, features=features)
        return model

    def runner(self, corpus):
        return _DocumentRunner(corpus, self)


@dataclass(frozen=True)
class CoDecompSpec:
    preset: TaskPreset
    provider: object = field(default_factory=HashedWindowProvider)
    co_config: CoConfig = field(default_factory=CoConfig)
    train_config: TrainConfig = field(default_factory=TrainConfig)
    lexicons: Lexicons = field(default_factory=load_lexicons)
    name = "codecomp"

    def describe(self) -> dict:
        # the views, not the preset's name: a preset file is named by its path
        return {
            "model": "codecomp",
            "views": [{"name": k.name, "kind": k.kind, "keywords": list(k.keywords),
                       "mask_token": k.mask_token} for k in self.preset.kcs_list],
            "lexicons": {f.name: sorted(getattr(self.lexicons, f.name))
                         for f in fields(self.lexicons)},
            "provider": self.provider.spec(),
            "co_config": asdict(self.co_config),
            "train_config": asdict(self.train_config),
        }

    def runner(self, corpus):
        return _CoDecompRunner(corpus, self)


class _DocumentRunner:
    """NB or EM, as the spec's ``fit``, over unigram+bigram counts, counted
    once per corpus into one table that every fit takes its documents' rows
    of; test documents are scored from their own counts."""

    def __init__(self, corpus, spec):
        self.spec = spec
        self.features = {d.id: document_features(d) for d in corpus}
        self.table = FeatureCounts.from_multisets(self.features.values(),
                                                  ids=self.features)

    def predictions(self, labeled, unlabeled, test):
        model = self.spec.fit(labeled, unlabeled, self.table)
        return {self.spec.name: {
            d.id: POSITIVE if nb_predict_proba(model, self.features[d.id]) >= 0.5
            else NEGATIVE
            for d in test
        }}


# documents processed and vectorized together; a larger chunk keeps more
# processed documents alive at once for little further gain
_CHUNK = 100


class _CoDecompRunner:
    """Caches per-document mention extraction and context vectors.

    Documents are processed and vectorized once per corpus, ``_CHUNK`` at a
    time, and every fold passes the cached examples as they are:
    co-training reads instance labels only from a fold's labeled documents.
    Given iteration settings, a fold yields every ablation variant instead
    of the single co-trained model.
    """

    def __init__(self, corpus, spec: CoDecompSpec, iteration_settings=None):
        self.spec = spec
        self.iteration_settings = iteration_settings
        self.examples = {}
        for start in range(0, len(corpus), _CHUNK):
            pdocs = [process_document(doc, spec.preset, spec.lexicons)
                     for doc in corpus[start:start + _CHUNK]]
            for example in build_examples(pdocs, spec.provider, spec.preset.view_names):
                self.examples[example.doc_id] = example

    def predictions(self, labeled, unlabeled, test):
        labeled = [self.examples[d.id] for d in labeled]
        unlabeled = [self.examples[d.id] for d in unlabeled]
        configs = (self.spec.co_config, self.spec.train_config)
        test = [self.examples[d.id] for d in test]
        names = self.spec.preset.view_names
        if self.iteration_settings is None:
            model = cotrain_fit(labeled, unlabeled, len(names), *configs, names)
            return {self.spec.name: predict_many(model, test)}
        return ablation_variants(labeled, unlabeled, names, *configs,
                                 self.iteration_settings, test)


def config_fingerprint(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _repetition(corpus, runner, k_folds, sizes, dev_fold, rep, seed_r):
    """Yield (n_labeled, variant, rep, fold, Metrics) for each evaluated fold
    of one repetition and each labeled-set size of ``sizes``, in that order;
    folds and samples derive from ``seed_r``. The fold plan and the one
    gold-hidden copy of the corpus that every fold takes its unlabeled
    documents from serve every size. A variant that labels a whole test
    fold one class logs a warning; a fold that cannot train raises
    ``CotrainError`` naming its repetition, fold and labeled-set size."""
    plan = stratified_folds(corpus, k_folds, seed_r)
    by_id = {d.id: d for d in corpus}
    hidden = {d.id: hide_gold(d) for d in corpus}
    for fold in range(plan.k):
        if fold == dev_fold:
            continue
        train = [d for d in corpus if plan.assignments[d.id] not in (fold, dev_fold)]
        test = [by_id[i] for i in plan.fold_ids(fold)]
        gold = {d.id: d.gold_label for d in test}
        for n in sizes:
            labeled, unlabeled = sample_labeled(
                train, SampleSpec(n, seed_r * 8191 + fold), hidden)
            try:
                variants = runner.predictions(labeled, unlabeled, test)
            except CotrainError as exc:
                raise CotrainError(f"repetition {rep}, fold {fold}, n_labeled={n}: "
                                   f"{exc}") from exc
            for variant, predictions in variants.items():
                labels = set(predictions.values())
                if len(labels) == 1:
                    logging.getLogger(__name__).warning(
                        "%s at n_labeled=%d labeled all %d test documents of "
                        "repetition %d, fold %d, %s", variant, n, len(predictions),
                        rep, fold, *labels)
                yield n, variant, rep, fold, compute_metrics(predictions, gold)


def check_protocol_values(k_folds, repetitions, dev_fold, jobs, sizes) -> None:
    """Reject bad protocol values, ``sizes`` being the labeled-set sizes to
    run; the rule needs no corpus, so a config is checked by it when read."""
    if not sizes:
        raise EvalError("no labeled-set sizes to run")
    if any(n < 1 for n in sizes):
        raise EvalError(f"n_labeled must be >= 1, got {list(sizes)}")
    if repetitions < 1:
        raise EvalError(f"repetitions must be >= 1, got {repetitions}")
    if k_folds < 2:
        raise EvalError(f"k_folds must be >= 2, got {k_folds}")
    if dev_fold is not None and not 0 <= dev_fold < k_folds:
        raise EvalError(f"dev_fold must lie in [0, {k_folds}), got {dev_fold}")
    if jobs < 1:
        raise EvalError(f"jobs must be >= 1, got {jobs}")


def _check_protocol(corpus, k_folds, repetitions, dev_fold, jobs, sizes) -> None:
    """``check_protocol_values``, then reject a labeled set that ``corpus``
    cannot supply, before any runner processes it. Fold sizes do not depend
    on the seed, so a labeled set larger than the smallest training split
    of one repetition's folds is too large for every repetition."""
    check_protocol_values(k_folds, repetitions, dev_fold, jobs, sizes)
    try:
        per_fold = fold_sizes(corpus, k_folds)
    except CorpusError as exc:
        raise EvalError(str(exc)) from None
    dev = per_fold[dev_fold] if dev_fold is not None else 0
    split = len(corpus) - dev - max(n for f, n in enumerate(per_fold) if f != dev_fold)
    if max(sizes) > split:
        raise EvalError(f"n_labeled={max(sizes)} exceeds the smallest training "
                        f"split, {split} documents")


# a pool worker's (corpus, runner, k_folds, sizes, dev_fold), set by _share
_shared = None


def _share(*protocol):
    global _shared
    _shared = protocol


def _shared_repetition(rep_seed):
    return list(_repetition(*_shared, *rep_seed))


def _fold_pass(corpus, build_runner, k_folds: int, sizes, master_seed: int,
               repetitions: int, dev_fold: int | None, jobs: int) -> dict:
    """The experiment loop: ``(n_labeled, variant) -> [(rep, fold, Metrics)]``
    over every repetition, fold and labeled-set size of ``sizes``.

    The protocol is checked once, before ``build_runner(corpus)`` builds
    the runner. Repetition r draws its folds and samples from (master seed
    + r). With ``jobs > 1`` repetitions run in worker processes that
    receive the already-built runner, so no worker processes the corpus
    again.
    """
    _check_protocol(corpus, k_folds, repetitions, dev_fold, jobs, sizes)
    runner = build_runner(corpus)
    protocol = (corpus, runner, k_folds, tuple(dict.fromkeys(sizes)), dev_fold)
    rep_seeds = [(rep, master_seed + rep) for rep in range(repetitions)]
    if jobs > 1 and repetitions > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, repetitions),
                initializer=_share, initargs=protocol) as pool:
            per_rep = list(pool.map(_shared_repetition, rep_seeds))
    else:
        per_rep = (_repetition(*protocol, *rep_seed) for rep_seed in rep_seeds)
    rows: dict = {}
    for n, variant, rep, fold, m in itertools.chain.from_iterable(per_rep):
        rows.setdefault((n, variant), []).append((rep, fold, m))
    return rows


def run_experiment(corpus, model_spec, k_folds: int, sample_spec: SampleSpec,
                   repetitions: int = 5, dev_fold: int | None = None,
                   jobs: int = 1) -> RunReport:
    """Stratified k-fold cross validation with n-labeled subsampling: the
    sweep of the one size ``sample_spec.n_labeled``.

    Each repetition re-derives folds and samples from (master seed +
    repetition), trains the model spec on the labeled/unlabeled split of
    every training partition, and scores the held-out fold.
    """
    [(_, report)] = training_size_sweep(
        corpus, model_spec, [sample_spec.n_labeled], k_folds, sample_spec.seed,
        repetitions, dev_fold, jobs)
    return report


# the [ablation] section; ablation_table checks its settings by it
@dataclass(frozen=True)
class AblationConfig:
    iterations: tuple[int, ...] = (13, 25, 50, 75)  # co-training iterations to report

    def __post_init__(self):
        if any(k < 1 for k in self.iterations):
            raise EvalError(f"iterations must be >= 1, got {list(self.iterations)}")


def ablation_table(corpus, spec: CoDecompSpec, iteration_settings,
                   k_folds: int, sample_spec: SampleSpec,
                   repetitions: int = 5, dev_fold: int | None = None,
                   jobs: int = 1) -> dict:
    """Mean metrics per ablation stage, shared folds and samples throughout.

    Returns an ordered mapping: each single view, the no-promotion
    combination, then one entry per co-training iteration setting.
    """
    iteration_settings = AblationConfig(tuple(iteration_settings)).iterations
    if not isinstance(spec, CoDecompSpec):
        raise EvalError(f"an ablation needs a codecomp spec, got {type(spec).__name__}")
    rows = _fold_pass(corpus, lambda c: _CoDecompRunner(c, spec, iteration_settings),
                      k_folds, [sample_spec.n_labeled], sample_spec.seed,
                      repetitions, dev_fold, jobs)
    return {variant: _mean_of(runs) for (_, variant), runs in rows.items()}


def _means_csv(key: str, means) -> str:
    """One "key, f1, precision, recall" row per (key, mean metrics) pair."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([key, "f1", "precision", "recall"])
    for name, mean in means:
        writer.writerow([name, repr(mean["f1"]), repr(mean["precision"]),
                         repr(mean["recall"])])
    return buf.getvalue()


def ablation_csv(table: dict) -> str:
    return _means_csv("model", table.items())


# the [sweep] section; training_size_sweep checks its sizes by it
@dataclass(frozen=True)
class SweepConfig:
    sizes: tuple[int, ...] = ()     # labeled-set sizes, ascending

    def __post_init__(self):
        if any(n < 1 for n in self.sizes):
            raise EvalError(f"sizes must be >= 1, got {list(self.sizes)}")
        if list(self.sizes) != sorted(self.sizes):
            raise EvalError(f"sizes must be ascending, got {list(self.sizes)}")


def training_size_sweep(corpus, model_spec, sizes, k_folds: int,
                        master_seed: int, repetitions: int = 5,
                        dev_fold: int | None = None, jobs: int = 1) -> list:
    """One report per labeled-set size, from one fold pass: every size is
    trained and scored on the same folds and copies of each repetition."""
    sizes = SweepConfig(tuple(sizes)).sizes
    rows = _fold_pass(corpus, model_spec.runner, k_folds, sizes, master_seed,
                      repetitions, dev_fold, jobs)
    reports = []
    for n in sizes:
        runs = rows[n, model_spec.name]
        reports.append((n, RunReport(
            model=model_spec.name, runs=runs, mean=_mean_of(runs),
            config_fingerprint=config_fingerprint({
                **model_spec.describe(), "k_folds": k_folds, "n_labeled": n,
                "repetitions": repetitions, "master_seed": master_seed,
                "dev_fold": dev_fold}),
            master_seed=master_seed,
            seeds=[master_seed + rep for rep in range(repetitions)],
            k_folds=k_folds, n_labeled=n, repetitions=repetitions)))
    return reports


def sweep_csv(rows) -> str:
    return _means_csv("n_labeled", ((n, report.mean) for n, report in rows))
