import json
import logging
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

from codecomp import baselines, evaluation
from codecomp.concepts import KeyConceptSet, TaskPreset, load_lexicons
from codecomp.context import HashedWindowProvider
from codecomp.corpus import NEGATIVE, POSITIVE, SampleSpec
from codecomp.cotrain import CoConfig, CotrainError
from codecomp.evaluation import (
    CoDecompSpec,
    EMSpec,
    EvalError,
    Metrics,
    NBSpec,
    RunReport,
    _mean_of,
    ablation_csv,
    ablation_table,
    compute_metrics,
    config_fingerprint,
    run_experiment,
    sweep_csv,
    training_size_sweep,
)
from codecomp.learners import TrainConfig
from codecomp.presets import load_preset_file
from codecomp.synthetic import decomposable_corpus

FAST_TRAIN = TrainConfig(epochs=300, convergence_tolerance=1e-6)


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


@pytest.fixture()
def featurised(monkeypatch, small_corpus):
    """Ids passed to ``document_features``, at most one call per corpus
    document, under the names evaluation and baselines call it by. Forked
    pool workers inherit the list, as with ``processed``."""
    limit = len(small_corpus[0])
    calls = []
    real = baselines.document_features

    def counted(doc):
        calls.append(doc.id)
        if len(calls) > limit:
            raise AssertionError(f"document_features call {len(calls)} "
                                 f"for {limit} documents")
        return real(doc)

    monkeypatch.setattr(evaluation, "document_features", counted)
    monkeypatch.setattr(baselines, "document_features", counted)
    return calls


class MajoritySpec:
    """A model the fold loop was not written for: every test document gets
    the labeled sample's majority label, ties to positive."""

    name = "majority"

    def describe(self) -> dict:
        return {"model": "majority"}

    def runner(self, corpus):
        return _MajorityRunner()


class _MajorityRunner:
    def predictions(self, labeled, unlabeled, test):
        counts = Counter(d.gold_label for d in labeled)
        label = POSITIVE if counts[POSITIVE] >= counts[NEGATIVE] else NEGATIVE
        return {"majority": {d.id: label for d in test}}


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

    def test_negative_count_rejected(self):
        with pytest.raises(EvalError, match="^confusion counts must be non-negative$"):
            Metrics(tp=3, fp=0, fn=-1, tn=2)

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

    def test_document_model_rejected(self, small_corpus, processed):
        docs, _ = small_corpus
        with pytest.raises(EvalError, match="an ablation needs a codecomp spec, got NBSpec"):
            ablation_table(docs, NBSpec(), [2], k_folds=4,
                           sample_spec=SampleSpec(40, 3), repetitions=1)
        assert processed == []

    def test_k_itr_equals_k_iteration_experiment(self, small_corpus):
        docs, preset = small_corpus
        table = ablation_table(docs, _codecomp_spec(preset), [2, 1],
                               k_folds=4, sample_spec=SampleSpec(40, 3),
                               repetitions=1)
        assert list(table)[-2:] == ["+1-itr", "+2-itr"]
        for k in (1, 2):
            run = run_experiment(docs, _codecomp_spec(preset, iterations=k), 4,
                                 SampleSpec(40, 3), repetitions=1)
            assert table[f"+{k}-itr"] == run.mean


class TestDriver:
    """run_experiment, ablation_table and the sweep are views over one fold
    pass that processes the corpus once, in the calling process."""

    KWARGS = dict(k_folds=4, sample_spec=SampleSpec(40, 3), repetitions=2)

    def test_a_fold_labeled_one_class_logs_a_warning(self, caplog):
        # at l2_lambda=0.1 co-training stops at once and its bag probabilities
        # sit near the class prior, so every test document is labeled
        # negative; at the default l2_lambda no fold is labeled one class
        docs, preset = decomposable_corpus(400, 3, positive_rate=0.4,
                                           ambiguity=0.15)

        def warnings(l2_lambda):
            caplog.clear()
            spec = CoDecompSpec(preset, HashedWindowProvider(),
                                train_config=TrainConfig(l2_lambda=l2_lambda))
            with caplog.at_level(logging.WARNING, logger="codecomp.evaluation"):
                report = run_experiment(docs, spec, 4, SampleSpec(30, 3),
                                        repetitions=1)
            return report, [r.getMessage() for r in caplog.records
                            if r.name == "codecomp.evaluation"]

        report, messages = warnings(0.1)
        assert report.mean["f1"] == 0.0
        assert messages == [
            f"codecomp at n_labeled=30 labeled all {m.tp + m.fp + m.fn + m.tn} "
            f"test documents of repetition 0, fold {fold}, negative"
            for _, fold, m in report.runs]
        report, messages = warnings(1e-3)
        assert report.mean["f1"] > 0.0
        assert messages == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_loop_runs_a_spec_it_has_never_seen(self, small_corpus, caplog, jobs):
        # a spec is its name, describe() and runner(corpus); the loop needs
        # nothing else of it
        docs, _ = small_corpus
        spec = MajoritySpec()
        with caplog.at_level(logging.WARNING, logger="codecomp.evaluation"):
            report = run_experiment(docs, spec, **self.KWARGS, jobs=jobs)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "codecomp.evaluation"]
        [(n, swept)] = training_size_sweep(docs, spec, [40], k_folds=4, master_seed=3,
                                           repetitions=2, jobs=jobs)
        assert (n, swept) == (40, report)
        assert report.model == "majority"
        assert report.config_fingerprint == config_fingerprint({
            **spec.describe(), "k_folds": 4, "n_labeled": 40, "repetitions": 2,
            "master_seed": 3, "dev_fold": None})
        assert [(rep, fold) for rep, fold, _ in report.runs] == [
            (rep, fold) for rep in range(2) for fold in range(4)]
        assert report.mean["f1"] == 0.0
        if jobs == 1:  # a pool worker logs in its own process
            assert messages == [
                f"majority at n_labeled=40 labeled all {m.tp + m.fp + m.fn + m.tn} "
                f"test documents of repetition {rep}, fold {fold}, negative"
                for rep, fold, m in report.runs]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_fold_that_cannot_train_names_itself(self, small_corpus, jobs):
        # a one-word anchor view on a word that only negative documents hold:
        # no labeled sample has a positive instance in it
        docs, _ = small_corpus
        docs = [d if d.gold_label == POSITIVE else replace(d, text=d.text + " zeta")
                for d in docs]
        preset = TaskPreset("anchored", (
            KeyConceptSet(name="alpha", kind="keyword", keywords=("alpha",)),
            KeyConceptSet(name="zeta", kind="keyword", keywords=("zeta",))))
        with pytest.raises(CotrainError, match=r"^repetition 0, fold 0, n_labeled=40: "
                           r"view 1 \(zeta\) needs at least one positive"):
            run_experiment(docs, _codecomp_spec(preset), **self.KWARGS, jobs=jobs)

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

    @pytest.mark.parametrize("sizes", [[40], [20, 30, 40]])
    def test_sweep_plans_folds_and_hides_gold_once_per_repetition(
            self, small_corpus, monkeypatch, sizes):
        docs, _ = small_corpus
        plans, hidden = [], []
        for name, calls in (("stratified_folds", plans), ("hide_gold", hidden)):
            def counted(doc_or_corpus, *args, real=getattr(evaluation, name),
                        calls=calls):
                calls.append(doc_or_corpus)
                return real(doc_or_corpus, *args)
            monkeypatch.setattr(evaluation, name, counted)
        training_size_sweep(docs, NBSpec(), sizes, k_folds=4, master_seed=3,
                            repetitions=2)
        assert len(plans) == 2
        assert sorted(d.id for d in hidden) == sorted(2 * [d.id for d in docs])

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("spec", [NBSpec(), EMSpec()], ids=["nb", "em"])
    def test_document_models_count_each_document_once(self, small_corpus,
                                                       featurised, spec, jobs):
        docs, _ = small_corpus
        run_experiment(docs, spec, **self.KWARGS, jobs=jobs)
        assert sorted(featurised) == sorted(d.id for d in docs)

    # the fixture has 80 positive documents; a training split of 4 folds
    # holds 150 documents, of 4 folds less a dev fold 100
    @pytest.mark.parametrize("bad", [
        {"repetitions": 0}, {"dev_fold": 4}, {"jobs": 0}, {"n_labeled": 0},
        {"k_folds": 1}, {"k_folds": 81}, {"n_labeled": 151},
        {"n_labeled": 101, "dev_fold": 0}])
    def test_bad_protocol_fails_before_processing(self, small_corpus,
                                                  processed, bad):
        docs, preset = small_corpus
        spec = _codecomp_spec(preset)
        n, k = bad.get("n_labeled", 40), bad.get("k_folds", 4)
        kwargs = {"repetitions": 1,
                  **{key: v for key, v in bad.items() if key not in ("n_labeled", "k_folds")}}
        entry_points = (
            lambda: run_experiment(docs, spec, k, SampleSpec(n, 3), **kwargs),
            lambda: ablation_table(docs, spec, [2], k, SampleSpec(n, 3), **kwargs),
            lambda: training_size_sweep(docs, spec, [n], k, 3, **kwargs),
            lambda: ablation_table(docs, spec, [3, 0], 4, SampleSpec(40, 3),
                                   repetitions=1),
            lambda: training_size_sweep(docs, spec, [0, 30], 4, 3, repetitions=1),
            lambda: training_size_sweep(docs, spec, [], 4, 3, repetitions=1),
        )
        for call in entry_points:
            with pytest.raises(EvalError):
                call()
        assert processed == []

    @pytest.mark.parametrize("model", ["em", "codecomp"])
    def test_unlabeled_gold_stays_hidden(self, small_corpus, monkeypatch, model):
        # both runners see unlabeled documents without gold labels or spans,
        # and the folds of one repetition share one copy of each document
        docs, preset = small_corpus
        seen = []
        for runner in (evaluation._DocumentRunner, evaluation._CoDecompRunner):
            def recorded(self, labeled, unlabeled, test, real=runner.predictions):
                seen.append(unlabeled)
                return real(self, labeled, unlabeled, test)
            monkeypatch.setattr(runner, "predictions", recorded)
        spec = EMSpec() if model == "em" else _codecomp_spec(preset)
        run_experiment(docs, spec, **self.KWARGS)
        assert len(seen) == 8  # 2 repetitions x 4 folds, in that order
        for rep in (seen[:4], seen[4:]):
            copies = {}
            for unlabeled in rep:
                for d in unlabeled:
                    assert d.gold_label is None and d.positive_human_spans == ()
                    assert copies.setdefault(d.id, d) is d
            assert sum(map(len, rep)) > len(copies)  # documents recur across folds

    @pytest.mark.parametrize("n, dev_fold", [(150, None), (100, 0)])
    def test_largest_labeled_set_of_a_training_split_runs(self, small_corpus,
                                                          n, dev_fold):
        docs, _ = small_corpus
        report = run_experiment(docs, NBSpec(), 4, SampleSpec(n, 3), repetitions=1,
                                dev_fold=dev_fold)
        assert report.n_labeled == n


class TestSweep:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("model", ["nb", "em", "codecomp"])
    def test_each_size_equals_its_own_experiment(self, small_corpus, model, jobs):
        # one fold pass serves every size; each size's report, a repeated
        # size's too, is the one a run of that size alone writes, byte for byte
        docs, preset = small_corpus
        spec = {"nb": NBSpec(), "em": EMSpec(),
                "codecomp": _codecomp_spec(preset)}[model]
        rows = training_size_sweep(docs, spec, [20, 40, 40, 80], k_folds=4,
                                   master_seed=3, repetitions=2, jobs=jobs)
        assert [n for n, _ in rows] == [20, 40, 40, 80]
        for n, report in rows:
            alone = run_experiment(docs, spec, 4, SampleSpec(n, 3),
                                   repetitions=2, jobs=jobs)
            assert report.to_json() == alone.to_json()
            assert report.to_csv() == alone.to_csv()

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


def test_records_write_every_field(small_corpus):
    @dataclass(frozen=True)
    class NotedMetrics(Metrics):
        note: str = "kept"

    @dataclass
    class NotedReport(RunReport):
        note: str = "kept"

    metrics = Metrics(tp=3, fp=1, fn=2, tn=4)
    assert metrics.to_dict() == {"tp": 3, "fp": 1, "fn": 2, "tn": 4, "precision": 0.75,
                                 "recall": 0.6, "f1": metrics.f1}
    assert NotedMetrics(3, 1, 2, 4).to_dict() == {**metrics.to_dict(), "note": "kept"}
    docs, _ = small_corpus
    report = run_experiment(docs, NBSpec(), 4, SampleSpec(40, 3), repetitions=1)
    payload = json.loads(report.to_json())
    assert sorted(payload) == ["config_fingerprint", "k_folds", "master_seed", "mean",
                               "model", "n_labeled", "repetitions", "runs", "seeds"]
    assert payload["runs"][0] == {"repetition": 0, "fold": 0,
                                  **report.runs[0][2].to_dict()}
    assert json.loads(NotedReport(**vars(report)).to_json()) == {**payload,
                                                                 "note": "kept"}


def test_codecomp_fingerprint_reads_the_views_not_the_preset_name(tmp_path,
                                                                  monkeypatch):
    # a preset file is named by its path as written: the same file by two
    # paths is one configuration, and an edit of it in place is another
    path = tmp_path / "p.ini"
    text = "[human]\nkind = human\nmask_token = HUM_TOK\n[drug]\nkeywords = advil\n"
    path.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def fingerprint(where):
        return config_fingerprint(CoDecompSpec(preset=load_preset_file(where)).describe())

    first = fingerprint("p.ini")
    assert fingerprint(path.resolve()) == first
    for edit in ("advil, tylenol", "advil\nmask_token = DRUG_TOK"):
        path.write_text(text.replace("advil", edit), encoding="utf-8")
        assert fingerprint("p.ini") != first


def test_codecomp_fingerprint_reads_every_lexicon_word(small_corpus):
    # the human view and the rewrites read the lexicons, so two specs that
    # differ by one person word are two configurations
    _, preset = small_corpus
    lexicons = load_lexicons()
    fewer = replace(lexicons, person_dictionary=lexicons.person_dictionary - {"mom"})

    def fingerprint(lexicons):
        return config_fingerprint(CoDecompSpec(preset=preset, lexicons=lexicons).describe())

    assert fingerprint(load_lexicons()) == fingerprint(lexicons)
    assert fingerprint(CoDecompSpec(preset=preset).lexicons) == fingerprint(lexicons)
    assert fingerprint(fewer) != fingerprint(lexicons)


def test_em_spec_describes_every_em_config_field():
    spec = EMSpec(em_config=baselines.EMConfig(
        alpha=0.5, max_iterations=7, unlabeled_weight=0.25,
        convergence_tolerance=1e-4))
    assert spec.describe() == {
        "model": "em", "alpha": 0.5, "max_iterations": 7,
        "unlabeled_weight": 0.25, "convergence_tolerance": 1e-4,
    }


def test_nb_spec_describes_every_field():
    @dataclass(frozen=True)
    class NotedNB(NBSpec):
        note: str = "kept"

    assert NBSpec(alpha=0.5).describe() == {"model": "nb", "alpha": 0.5}
    assert NotedNB(alpha=0.5).describe() == {"model": "nb", "alpha": 0.5, "note": "kept"}


def test_codecomp_spec_describes_every_view_field():
    @dataclass(frozen=True)
    class NotedView(KeyConceptSet):
        note: str = "kept"

    def spec(view):
        return CoDecompSpec(preset=TaskPreset("t", (view,)))

    view = {"name": "drug", "kind": "keyword", "keywords": ("advil",),
            "mask_token": "DRUG_TOK"}
    assert spec(KeyConceptSet(**view)).describe()["views"] == [view]
    assert spec(NotedView(**view)).describe()["views"] == [{**view, "note": "kept"}]
    assert (config_fingerprint(spec(NotedView(**view, note="other")).describe())
            != config_fingerprint(spec(NotedView(**view)).describe()))
