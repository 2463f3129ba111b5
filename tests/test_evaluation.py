import json

import numpy as np
import pytest

from codecomp import evaluation
from codecomp.concepts import load_lexicons
from codecomp.context import HashedWindowProvider
from codecomp.corpus import NEGATIVE, POSITIVE, SampleSpec
from codecomp.cotrain import CoConfig
from codecomp.evaluation import (
    CoDecompSpec,
    EMSpec,
    EvalError,
    Metrics,
    NBSpec,
    _mean_of,
    ablation_csv,
    ablation_table,
    compute_metrics,
    run_experiment,
    sweep_csv,
    training_size_sweep,
)
from codecomp.learners import TrainConfig
from codecomp.synthetic import decomposable_corpus

FAST_TRAIN = TrainConfig(learning_rate=4.0, epochs=300, convergence_tolerance=1e-6)


@pytest.fixture(scope="module")
def small_corpus():
    docs, preset = decomposable_corpus(200, seed=6, positive_rate=0.4,
                                       ambiguity=0.15)
    return docs, preset


@pytest.fixture()
def processed(monkeypatch, small_corpus):
    """Ids passed to ``evaluation.process_document``, at most one call per
    corpus document. Forked pool workers inherit the list, so a worker that
    processes the corpus again raises, and the error reaches the caller."""
    limit = len(small_corpus[0])
    calls = []
    real = evaluation.process_document

    def counted(doc, *args):
        calls.append(doc.id)
        if len(calls) > limit:
            raise AssertionError(f"process_document call {len(calls)} "
                                 f"for {limit} documents")
        return real(doc, *args)

    monkeypatch.setattr(evaluation, "process_document", counted)
    return calls


def _codecomp_spec(preset, iterations=3):
    return CoDecompSpec(
        preset=preset,
        provider=HashedWindowProvider(window=2, dim=32),
        co_config=CoConfig(iterations=iterations),
        train_config=FAST_TRAIN,
        lexicons=load_lexicons(),
    )


class TestMetrics:
    def test_hand_arithmetic(self):
        m = Metrics(tp=8, fp=2, fn=2, tn=10)
        assert m.precision == pytest.approx(0.8)
        assert m.recall == pytest.approx(0.8)
        assert m.f1 == pytest.approx(0.8)

    def test_degenerate_no_positive_predictions(self):
        predictions = {"1": NEGATIVE, "2": NEGATIVE}
        gold = {"1": POSITIVE, "2": NEGATIVE}
        m = compute_metrics(predictions, gold)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_perfect_predictions(self):
        gold = {"1": POSITIVE, "2": NEGATIVE, "3": POSITIVE}
        m = compute_metrics(dict(gold), gold)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_id_mismatch(self):
        with pytest.raises(EvalError, match="mismatch"):
            compute_metrics({"1": POSITIVE}, {"2": POSITIVE})

    def test_bruteforce_recount(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            gold = {str(i): POSITIVE if rng.random() < 0.4 else NEGATIVE
                    for i in range(n)}
            preds = {str(i): POSITIVE if rng.random() < 0.5 else NEGATIVE
                     for i in range(n)}
            m = compute_metrics(preds, gold)
            tp = sum(preds[i] == POSITIVE and gold[i] == POSITIVE for i in gold)
            fp = sum(preds[i] == POSITIVE and gold[i] == NEGATIVE for i in gold)
            fn = sum(preds[i] == NEGATIVE and gold[i] == POSITIVE for i in gold)
            tn = n - tp - fp - fn
            assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
            if m.precision + m.recall > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.recall / (m.precision + m.recall))


def test_mean_averages_folds_then_repetitions():
    rows = [
        (0, 0, Metrics(tp=1, fp=4, fn=0, tn=0)),   # f1 of p=0.2, r=1.0
        (0, 1, Metrics(tp=2, fp=3, fn=0, tn=0)),   # p=0.4
        (1, 0, Metrics(tp=3, fp=2, fn=0, tn=0)),   # p=0.6
    ]
    mean = _mean_of(rows)
    # rep 0 precision (0.2+0.4)/2 = 0.3; rep 1 = 0.6; mean = 0.45,
    # not the pooled 0.4
    assert mean["precision"] == pytest.approx(0.45)


class TestRunExperiment:
    def test_reproducible_bit_for_bit(self, small_corpus):
        docs, _ = small_corpus
        kwargs = dict(k_folds=4, sample_spec=SampleSpec(40, 3), repetitions=2)
        a = run_experiment(docs, NBSpec(), **kwargs)
        b = run_experiment(docs, NBSpec(), **kwargs)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_run_structure(self, small_corpus):
        docs, _ = small_corpus
        report = run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3),
                                repetitions=2)
        assert [(rep, fold) for rep, fold, _ in report.runs] == [
            (rep, fold) for rep in range(2) for fold in range(4)]
        assert report.seeds == [3, 4]
        assert set(report.mean) == {"precision", "recall", "f1"}

    def test_dev_fold_excluded(self, small_corpus):
        docs, _ = small_corpus
        report = run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3),
                                repetitions=1, dev_fold=2)
        assert [fold for _, fold, _ in report.runs] == [0, 1, 3]

    @pytest.mark.parametrize("dev_fold", [4, -1, 99])
    def test_dev_fold_outside_the_folds_rejected(self, small_corpus, dev_fold):
        docs, _ = small_corpus
        with pytest.raises(EvalError, match=r"dev_fold must lie in \[0, 4\)"):
            run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3), repetitions=1,
                           dev_fold=dev_fold)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, small_corpus, jobs):
        docs, _ = small_corpus
        with pytest.raises(EvalError, match="jobs must be >= 1"):
            run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3), repetitions=1,
                           jobs=jobs)

    def test_parallel_equals_sequential(self, small_corpus):
        docs, _ = small_corpus
        kwargs = dict(k_folds=4, sample_spec=SampleSpec(40, 3), repetitions=2)
        seq = run_experiment(docs, NBSpec(), **kwargs, jobs=1)
        par = run_experiment(docs, NBSpec(), **kwargs, jobs=2)
        assert seq.to_json() == par.to_json()

    def test_models_share_folds_and_samples(self, small_corpus):
        docs, _ = small_corpus
        nb = run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3), repetitions=1)
        em = run_experiment(docs, EMSpec(), 4, SampleSpec(40, 3), repetitions=1)
        assert nb.seeds == em.seeds
        assert nb.k_folds == em.k_folds
        # same protocol-level totals: every fold scores the same document count
        assert [m.tp + m.fp + m.fn + m.tn for _, _, m in nb.runs] == \
            [m.tp + m.fp + m.fn + m.tn for _, _, m in em.runs]

    def test_codecomp_spec_runs(self, small_corpus):
        docs, preset = small_corpus
        report = run_experiment(docs, _codecomp_spec(preset), 4,
                                SampleSpec(40, 3), repetitions=1)
        assert len(report.runs) == 4
        assert 0.0 <= report.mean["f1"] <= 1.0

    def test_rejects_bad_repetitions(self, small_corpus):
        docs, _ = small_corpus
        with pytest.raises(EvalError, match="repetitions"):
            run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3), repetitions=0)


class TestAblation:
    def test_structure_and_csv(self, small_corpus):
        docs, preset = small_corpus
        table = ablation_table(docs, _codecomp_spec(preset), [2, 3],
                               k_folds=4, sample_spec=SampleSpec(40, 3),
                               repetitions=1)
        assert list(table) == ["alpha-cl", "beta-cl", "combined",
                               "+2-itr", "+3-itr"]
        assert len(table) == 3 + 2
        csv_text = ablation_csv(table)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "model,f1,precision,recall"
        assert len(lines) == 1 + len(table)

    def test_combined_equals_k0_experiment(self, small_corpus):
        docs, preset = small_corpus
        table = ablation_table(docs, _codecomp_spec(preset), [2],
                               k_folds=4, sample_spec=SampleSpec(40, 3),
                               repetitions=1)
        k0 = run_experiment(docs, _codecomp_spec(preset, iterations=0), 4,
                            SampleSpec(40, 3), repetitions=1)
        for key in ("precision", "recall", "f1"):
            assert table["combined"][key] == pytest.approx(k0.mean[key])


class TestDriver:
    """run_experiment, ablation_table and the sweep share one fold driver
    that processes the corpus once, in the calling process."""

    KWARGS = dict(k_folds=4, sample_spec=SampleSpec(40, 3), repetitions=2)

    def test_codecomp_parallel_equals_sequential(self, small_corpus, processed):
        docs, preset = small_corpus
        reports = []
        for jobs in (1, 2):
            processed.clear()
            reports.append(run_experiment(docs, _codecomp_spec(preset),
                                          **self.KWARGS, jobs=jobs))
            assert sorted(processed) == sorted(d.id for d in docs)
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].to_csv() == reports[1].to_csv()

    def test_ablation_parallel_equals_sequential(self, small_corpus, processed):
        docs, preset = small_corpus
        tables = []
        for jobs in (1, 2):
            processed.clear()
            tables.append(ablation_csv(ablation_table(
                docs, _codecomp_spec(preset), [2, 3], **self.KWARGS, jobs=jobs)))
            assert len(processed) == len(docs)
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_processes_corpus_once(self, small_corpus, processed, jobs):
        docs, preset = small_corpus
        rows = training_size_sweep(docs, _codecomp_spec(preset), [20, 30, 40],
                                   k_folds=4, master_seed=3, repetitions=2,
                                   jobs=jobs)
        assert [n for n, _ in rows] == [20, 30, 40]
        assert len(processed) == len(docs)


class TestSweep:
    def test_single_size_reduces_to_run_experiment(self, small_corpus):
        docs, _ = small_corpus
        rows = training_size_sweep(docs, NBSpec(), [40], k_folds=4,
                                   master_seed=3, repetitions=1)
        direct = run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3),
                                repetitions=1)
        assert len(rows) == 1
        assert rows[0][0] == 40
        assert rows[0][1].to_json() == direct.to_json()

    def test_row_per_size_and_direction(self, small_corpus):
        # measured on the synthetic fixture: more labels never hurt NB here
        docs, _ = small_corpus
        rows = training_size_sweep(docs, NBSpec(), [30, 120], k_folds=4,
                                   master_seed=3, repetitions=2)
        assert [n for n, _ in rows] == [30, 120]
        assert rows[-1][1].mean["f1"] >= rows[0][1].mean["f1"]
        csv_text = sweep_csv(rows)
        assert csv_text.startswith("n_labeled,f1,precision,recall\n")
        assert len(csv_text.strip().split("\n")) == 3

    def test_sizes_must_ascend(self, small_corpus):
        docs, _ = small_corpus
        with pytest.raises(EvalError, match="ascending"):
            training_size_sweep(docs, NBSpec(), [100, 50], k_folds=4,
                                master_seed=3)


def test_report_json_parses(small_corpus):
    docs, _ = small_corpus
    report = run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3), repetitions=1)
    payload = json.loads(report.to_json())
    assert payload["model"] == "nb"
    assert len(payload["runs"]) == 4
    assert payload["config_fingerprint"] == report.config_fingerprint
