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
import json
from dataclasses import dataclass, field

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
    SampleSpec,
    sample_labeled,
    stratified_folds,
)
from .cotrain import (
    CoConfig,
    ablation_variants,
    build_examples,
    cotrain_fit,
    predict_many,
)
from .learners import TrainConfig, nb_predict_proba


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
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
        }


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
        return json.dumps({
            "model": self.model,
            "config_fingerprint": self.config_fingerprint,
            "master_seed": self.master_seed,
            "seeds": self.seeds,
            "k_folds": self.k_folds,
            "n_labeled": self.n_labeled,
            "repetitions": self.repetitions,
            "runs": [
                {"repetition": rep, "fold": fold, **m.to_dict()}
                for rep, fold, m in self.runs
            ],
            "mean": self.mean,
        }, sort_keys=True, indent=2)

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


@dataclass(frozen=True)
class NBSpec:
    alpha: float = 1.0
    name: str = "nb"

    def describe(self) -> dict:
        return {"model": "nb", "alpha": self.alpha}


@dataclass(frozen=True)
class EMSpec:
    alpha: float = 1.0
    em_config: EMConfig = field(default_factory=EMConfig)
    name: str = "em"

    def describe(self) -> dict:
        return {
            "model": "em", "alpha": self.alpha,
            "max_iterations": self.em_config.max_iterations,
            "unlabeled_weight": self.em_config.unlabeled_weight,
            "convergence_tolerance": self.em_config.convergence_tolerance,
        }


@dataclass(frozen=True)
class CoDecompSpec:
    preset: TaskPreset
    provider: object = field(default_factory=HashedWindowProvider)
    co_config: CoConfig = field(default_factory=CoConfig)
    train_config: TrainConfig = field(default_factory=TrainConfig)
    lexicons: Lexicons | None = None
    name: str = "codecomp"

    def describe(self) -> dict:
        from dataclasses import asdict

        return {
            "model": "codecomp",
            "task": self.preset.name,
            "views": [k.name for k in self.preset.kcs_list],
            "provider": self.provider.spec(),
            "co_config": asdict(self.co_config),
            "train_config": asdict(self.train_config),
        }


class _DocumentRunner:
    """NB or EM over unigram+bigram counts, counted once per corpus."""

    def __init__(self, corpus, spec):
        self.spec = spec
        self.features = {d.id: document_features(d) for d in corpus}

    def predictions(self, labeled, unlabeled, test):
        if isinstance(self.spec, EMSpec):
            model, _ = em_fit(labeled, unlabeled, self.spec.em_config,
                              alpha=self.spec.alpha)
        else:
            model = nb_baseline_fit(labeled, alpha=self.spec.alpha)
        return {self.spec.name: {
            d.id: POSITIVE if nb_predict_proba(model, self.features[d.id]) >= 0.5
            else NEGATIVE
            for d in test
        }}


class _CoDecompRunner:
    """Caches per-document mention extraction and context vectors.

    Documents are processed and vectorized once per corpus, and every fold
    passes the cached examples as they are: co-training reads instance
    labels only from a fold's labeled documents.
    Given iteration settings, a fold yields every ablation variant instead
    of the single co-trained model.
    """

    def __init__(self, corpus, spec: CoDecompSpec, iteration_settings=None):
        self.spec = spec
        self.iteration_settings = iteration_settings
        lexicons = spec.lexicons if spec.lexicons is not None else load_lexicons()
        self.kcs_names = tuple(k.name for k in spec.preset.kcs_list)
        self.examples = {}
        for doc in corpus:
            pdoc = process_document(doc, spec.preset, lexicons)
            self.examples[doc.id] = build_examples(
                [pdoc], spec.provider, self.kcs_names)[0]

    def predictions(self, labeled, unlabeled, test):
        pools = (
            [self.examples[d.id] for d in labeled],
            [self.examples[d.id] for d in unlabeled],
            len(self.kcs_names), self.spec.co_config, self.spec.train_config,
        )
        test = [self.examples[d.id] for d in test]
        if self.iteration_settings is None:
            model = cotrain_fit(*pools, kcs_names=self.kcs_names)
            return {self.spec.name: predict_many(model, test)}
        return ablation_variants(*pools, self.iteration_settings, test,
                                 kcs_names=self.kcs_names)


def _make_runner(corpus, model_spec):
    if isinstance(model_spec, (NBSpec, EMSpec)):
        return _DocumentRunner(corpus, model_spec)
    if isinstance(model_spec, CoDecompSpec):
        return _CoDecompRunner(corpus, model_spec)
    raise EvalError(f"unknown model spec {type(model_spec).__name__}")


def config_fingerprint(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _repetition(corpus, runner, k_folds, n_labeled, dev_fold, rep, seed_r):
    """Yield (variant, rep, fold, Metrics) for each evaluated fold of one
    repetition; folds and samples derive from ``seed_r``."""
    plan = stratified_folds(corpus, k_folds, seed_r)
    by_id = {d.id: d for d in corpus}
    for fold in range(plan.k):
        if fold == dev_fold:
            continue
        train = [d for d in corpus if plan.assignments[d.id] not in (fold, dev_fold)]
        sample = sample_labeled(train, SampleSpec(n_labeled, seed_r * 8191 + fold))
        test = [by_id[i] for i in plan.fold_ids(fold)]
        gold = {d.id: d.gold_label for d in test}
        variants = runner.predictions(sample.labeled, sample.unlabeled, test)
        for variant, predictions in variants.items():
            yield variant, rep, fold, compute_metrics(predictions, gold)


# a pool worker's (corpus, runner, k_folds, n_labeled, dev_fold), set by _share
_shared = None


def _share(*protocol):
    global _shared
    _shared = protocol


def _shared_repetition(rep_seed):
    return list(_repetition(*_shared, *rep_seed))


def _fold_runs(corpus, runner, k_folds: int, sample_spec: SampleSpec,
               repetitions: int, dev_fold: int | None, jobs: int):
    """Yield (variant, rep, fold, Metrics) for every repetition and fold.

    Repetition r draws its folds and samples from (master seed + r). With
    ``jobs > 1`` repetitions run in worker processes that receive the
    already-built runner, so no worker processes the corpus again.
    """
    if repetitions < 1:
        raise EvalError(f"repetitions must be >= 1, got {repetitions}")
    if dev_fold is not None and not 0 <= dev_fold < k_folds:
        raise EvalError(f"dev_fold must lie in [0, {k_folds}), got {dev_fold}")
    if jobs < 1:
        raise EvalError(f"jobs must be >= 1, got {jobs}")
    protocol = (corpus, runner, k_folds, sample_spec.n_labeled, dev_fold)
    rep_seeds = [(rep, sample_spec.seed + rep) for rep in range(repetitions)]
    if jobs > 1 and repetitions > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, repetitions),
                initializer=_share, initargs=protocol) as pool:
            for rows in pool.map(_shared_repetition, rep_seeds):
                yield from rows
    else:
        for rep_seed in rep_seeds:
            yield from _repetition(*protocol, *rep_seed)


def _report(corpus, runner, k_folds, sample_spec, repetitions, dev_fold,
            jobs) -> RunReport:
    runs = [
        (rep, fold, m) for _, rep, fold, m in _fold_runs(
            corpus, runner, k_folds, sample_spec, repetitions, dev_fold, jobs)
    ]
    master = sample_spec.seed
    return RunReport(
        model=runner.spec.name,
        runs=runs,
        mean=_mean_of(runs),
        config_fingerprint=config_fingerprint({
            **runner.spec.describe(),
            "k_folds": k_folds, "n_labeled": sample_spec.n_labeled,
            "repetitions": repetitions, "master_seed": master,
            "dev_fold": dev_fold,
        }),
        master_seed=master,
        seeds=[master + rep for rep in range(repetitions)],
        k_folds=k_folds,
        n_labeled=sample_spec.n_labeled,
        repetitions=repetitions,
    )


def run_experiment(corpus, model_spec, k_folds: int, sample_spec: SampleSpec,
                   repetitions: int = 5, dev_fold: int | None = None,
                   jobs: int = 1) -> RunReport:
    """Stratified k-fold cross validation with n-labeled subsampling.

    Each repetition re-derives folds and samples from (master seed +
    repetition), trains the model spec on the labeled/unlabeled split of
    every training partition, and scores the held-out fold.
    """
    return _report(corpus, _make_runner(corpus, model_spec), k_folds,
                   sample_spec, repetitions, dev_fold, jobs)


def ablation_table(corpus, spec: CoDecompSpec, iteration_settings,
                   k_folds: int, sample_spec: SampleSpec,
                   repetitions: int = 5, dev_fold: int | None = None,
                   jobs: int = 1) -> dict:
    """Mean metrics per ablation stage, shared folds and samples throughout.

    Returns an ordered mapping: each single view, the no-promotion
    combination, then one entry per co-training iteration setting.
    """
    iteration_settings = sorted(set(int(k) for k in iteration_settings))
    runner = _CoDecompRunner(corpus, spec, iteration_settings)
    variant_rows: dict = {}
    for variant, rep, fold, m in _fold_runs(corpus, runner, k_folds, sample_spec,
                                             repetitions, dev_fold, jobs):
        variant_rows.setdefault(variant, []).append((rep, fold, m))
    return {name: _mean_of(rows) for name, rows in variant_rows.items()}


def ablation_csv(table: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "f1", "precision", "recall"])
    for name, mean in table.items():
        writer.writerow([name, repr(mean["f1"]), repr(mean["precision"]),
                         repr(mean["recall"])])
    return buf.getvalue()


def training_size_sweep(corpus, model_spec, sizes, k_folds: int,
                        master_seed: int, repetitions: int = 5,
                        dev_fold: int | None = None, jobs: int = 1) -> list:
    """One full experiment per labeled-set size, identical folds throughout."""
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise EvalError("sizes must be ascending")
    runner = _make_runner(corpus, model_spec)  # shared by every size
    return [
        (n, _report(corpus, runner, k_folds, SampleSpec(n, master_seed),
                    repetitions, dev_fold, jobs))
        for n in sizes
    ]


def sweep_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n_labeled", "f1", "precision", "recall"])
    for n, report in rows:
        writer.writerow([n, repr(report.mean["f1"]), repr(report.mean["precision"]),
                         repr(report.mean["recall"])])
    return buf.getvalue()
