import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codecomp import cotrain
from codecomp.concepts import NEGATIVE, POSITIVE, UNLABELED, load_lexicons, process_document
from codecomp.context import HashedWindowProvider, load_precomputed, validate_kcs_gamma
from codecomp.corpus import Document, SampleSpec, sample_labeled
from codecomp.cotrain import (
    CoConfig,
    CoDecompModel,
    CotrainError,
    Example,
    IterationRecord,
    ViewInstances,
    _StackedBags,
    ablation_variants,
    build_examples,
    cotrain_fit,
    iteration_log_lines,
    mil_example_score,
    predict,
    predict_many,
    single_view_predictions,
)
from codecomp.learners import (
    LogRegModel,
    TrainConfig,
    load_model,
    predict_proba_batch,
    save_model,
    train_logreg,
)
from codecomp.presets import task_preset
from codecomp.synthetic import decomposable_corpus


def _logit(p):
    return float(np.log(p / (1.0 - p)))


def _view_names(n):
    return tuple(f"view{j}" for j in range(n))


def _bias_model(probs, neutral=0.5):
    """One single-instance view per probability, classifier = pure bias.

    predict_proba_batch(sigmoid(logit(p))) returns p (up to clipping), so the
    aggregation can be driven with arbitrary per-view probabilities.
    """
    classifiers = [
        train_logreg(np.array([[1.0], [-1.0]]), [1, 0], TrainConfig(epochs=1))
        for _ in probs
    ]
    for c, p in zip(classifiers, probs):
        c.weights = np.zeros(1)
        c.bias = _logit(p)
    model = CoDecompModel(
        kcs_names=tuple(f"v{i}" for i in range(len(probs))),
        classifiers=classifiers,
        co_config=CoConfig(neutral_prob=neutral),
        train_config=TrainConfig(),
    )
    example = Example(
        doc_id="x",
        views=[ViewInstances(np.zeros((1, 1)), [UNLABELED]) for _ in probs],
    )
    return model, example


class TestMilScore:
    def test_max_and_index(self):
        assert mil_example_score([0.3, 0.8]) == (0.8, 1)

    def test_tie_breaks_low_index(self):
        assert mil_example_score([0.5, 0.5]) == (0.5, 0)

    def test_empty_rejected(self):
        with pytest.raises(CotrainError, match="empty"):
            mil_example_score([])

    def test_bruteforce_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            probs = rng.integers(0, 5, size=rng.integers(1, 51)) / 4.0
            best, idx = mil_example_score(probs)
            # exhaustive scan with explicit first-max tie-break
            expected_best = -1.0
            expected_idx = -1
            for i, p in enumerate(probs):
                if p > expected_best:
                    expected_best, expected_idx = p, i
            assert (best, idx) == (expected_best, expected_idx)


class TestAggregation:
    @pytest.mark.parametrize("probs, expected", [
        ((0.9, 0.6), POSITIVE),   # 0.54 >= 0.04
        ((0.2, 0.3), NEGATIVE),   # 0.06 <  0.56
        ((0.5, 0.5), POSITIVE),   # boundary tie goes positive
    ])
    def test_product_rule(self, probs, expected):
        model, example = _bias_model(probs)
        label, scores = predict(model, example)
        assert label == expected
        np.testing.assert_allclose(scores, probs, atol=1e-9)

    def test_single_view_reduces_to_threshold(self):
        for p in (0.2, 0.499, 0.5, 0.501, 0.9):
            model, example = _bias_model((p,))
            label, _ = predict(model, example)
            assert label == (POSITIVE if p >= 0.5 else NEGATIVE)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            probs = tuple(rng.uniform(0.05, 0.95, size=3))
            labels = set()
            for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                model, example = _bias_model(tuple(probs[i] for i in perm))
                labels.add(predict(model, example)[0])
            assert len(labels) == 1

    def test_empty_view_scores_neutral(self):
        model, example = _bias_model((0.9, 0.9), neutral=0.5)
        example.views[1] = ViewInstances(np.empty((0, 1)), [])
        label, scores = predict(model, example)
        assert scores[1] == 0.5
        assert label == POSITIVE


def _simple_examples():
    """Two labeled examples, one clearly-positive and one clearly-negative
    unlabeled example, all in one dimension per view."""
    cfg = TrainConfig(epochs=300, convergence_tolerance=0.0)
    labeled = [
        Example("L1", [ViewInstances(np.array([[1.0]]), [POSITIVE]),
                       ViewInstances(np.array([[1.0]]), [POSITIVE])]),
        Example("L2", [ViewInstances(np.array([[-1.0]]), [NEGATIVE]),
                       ViewInstances(np.array([[-1.0]]), [NEGATIVE])]),
    ]
    unlabeled = [
        Example("U1", [ViewInstances(np.array([[2.0]]), [UNLABELED]),
                       ViewInstances(np.array([[0.6], [-0.2]]),
                                     [UNLABELED, UNLABELED])]),
        Example("U2", [ViewInstances(np.array([[-2.0]]), [UNLABELED]),
                       ViewInstances(np.array([[-2.0], [-1.5]]),
                                     [UNLABELED, UNLABELED])]),
    ]
    return labeled, unlabeled, cfg


class TestCotrainFit:
    def test_k0_equals_independent_training(self):
        labeled, unlabeled, cfg = _simple_examples()
        model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=0), cfg, _view_names(2))
        expected0 = train_logreg(np.array([[1.0], [-1.0]]), [1, 0], cfg)
        np.testing.assert_array_equal(model.classifiers[0].weights, expected0.weights)
        assert model.classifiers[0].bias == expected0.bias
        assert model.iteration_log == []

    def test_empty_unlabeled_any_k_equals_k0(self):
        labeled, _, cfg = _simple_examples()
        a = cotrain_fit(labeled, [], 2, CoConfig(iterations=0), cfg, _view_names(2))
        b = cotrain_fit(labeled, [], 2, CoConfig(iterations=7), cfg, _view_names(2))
        for ca, cb in zip(a.classifiers, b.classifiers):
            np.testing.assert_array_equal(ca.weights, cb.weights)
            assert ca.bias == cb.bias

    def test_promotion_and_counterpart_labeling(self):
        # after iteration 1, U1 is promoted positive via view 0: its winning
        # view-0 instance and its most probable view-1 counterpart (0.6, not
        # -0.2) turn positive; U2 is promoted negative with every instance
        # negative. The classifiers returned by a 2-iteration run are trained
        # on exactly that pool, warm-started from the first fit, which pins
        # the labels instance by instance.
        labeled, unlabeled, cfg = _simple_examples()
        model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=2), cfg, _view_names(2))

        first = model.iteration_log[0]
        by_kind = {p["kind"]: p for p in first.promotions}
        assert by_kind["positive"]["doc_id"] == "U1"
        assert by_kind["positive"]["view"] == "view0"
        assert by_kind["negative"]["doc_id"] == "U2"

        expected_v0 = train_logreg(
            np.array([[1.0], [-1.0], [2.0], [-2.0]]), [1, 0, 1, 0], cfg,
            start=model.snapshots[0][0])
        expected_v1 = train_logreg(
            np.array([[1.0], [-1.0], [0.6], [-2.0], [-1.5]]), [1, 0, 1, 0, 0], cfg,
            start=model.snapshots[0][1])
        np.testing.assert_array_equal(model.classifiers[0].weights, expected_v0.weights)
        assert model.classifiers[0].bias == expected_v0.bias
        np.testing.assert_array_equal(model.classifiers[1].weights, expected_v1.weights)
        assert model.classifiers[1].bias == expected_v1.bias

    def test_missing_class_rejected(self):
        cfg = TrainConfig(epochs=5)
        labeled = [Example("L1", [ViewInstances(np.array([[1.0]]), [POSITIVE])])]
        with pytest.raises(CotrainError, match="view 0"):
            cotrain_fit(labeled, [], 1, CoConfig(iterations=0), cfg, _view_names(1))
        with pytest.raises(CotrainError, match=r"view 0 \(disease\) needs"):
            cotrain_fit(labeled, [], 1, CoConfig(iterations=0), cfg,
                        kcs_names=("disease",))

    def test_view_count_validated(self):
        labeled, unlabeled, cfg = _simple_examples()
        with pytest.raises(CotrainError, match="views"):
            cotrain_fit(labeled, unlabeled, 3, CoConfig(iterations=0), cfg, _view_names(3))

    @pytest.mark.parametrize("names", [("a", "b", "c"), ("a",)])
    def test_view_names_must_match_the_view_count(self, monkeypatch, names):
        labeled, unlabeled, cfg = _simple_examples()

        def no_fit(*args, **kwargs):
            raise AssertionError("a view was fitted")

        monkeypatch.setattr(cotrain, "train_logreg", no_fit)
        with pytest.raises(CotrainError, match=f"2 views, but {len(names)} view names"):
            cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg, names)

    def test_caller_examples_not_mutated(self):
        labeled, unlabeled, cfg = _simple_examples()
        cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=3), cfg, _view_names(2))
        assert unlabeled[0].views[0].labels == [UNLABELED]
        assert unlabeled[1].views[1].labels == [UNLABELED, UNLABELED]


def test_duplicate_documents_score_alike_and_tie_to_lower_doc_id():
    # Two copies of one bag at pool rows 5 and 32 of 33, where a BLAS
    # ``X @ w`` may round them differently (OpenBLAS gemv). The two views are
    # identical, so view 0 must take the lower doc id and view 1 the other
    # copy at the same confidence.
    rng = np.random.default_rng(0)
    dim = 48
    X = rng.normal(size=(30, dim))
    y = (X[:, 0] > 0).astype(float)
    cfg = TrainConfig()
    clf = train_logreg(X, y, cfg)  # what cotrain_fit retrains on the same pool

    def scored(row, score):
        """``row`` moved along the weights until w.row + b = ``score``."""
        return row + (score - clf.bias - clf.weights @ row) / (
            clf.weights @ clf.weights) * clf.weights

    # the copies: large entries that cancel to a score of 2, away from the
    # clip; every other row scores at most 1, so the copies lead both views
    v = scored(30.0 * rng.normal(size=dim), 2.0)
    rows = [scored(0.1 * row, score) for row, score
            in zip(rng.normal(size=(33, dim)), rng.uniform(-1.0, 1.0, size=33))]
    rows[5] = rows[32] = v

    def example(doc_id, row, label):
        return Example(doc_id, [ViewInstances(row[None, :].copy(), [label])
                                for _ in range(2)])

    labeled = [example(f"L{i:02d}", X[i], POSITIVE if y[i] else NEGATIVE)
               for i in range(len(y))]
    unlabeled = [example(f"U{i:02d}", row, UNLABELED) for i, row in enumerate(rows)]
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg, _view_names(2))
    positives = {p["view"]: p for p in model.iteration_log[0].promotions
                 if p["kind"] == "positive"}
    assert positives["view0"]["doc_id"] == "U05"
    assert positives["view1"]["doc_id"] == "U32"
    assert positives["view0"]["confidence"] == positives["view1"]["confidence"]


def test_top_k_picks_break_ties_by_doc_id_against_pool_order():
    # doc ids run against pool order and every score comes three times, so
    # which copies each view takes is decided by the doc-id rule alone; the
    # two views are alike, so view 0 takes the best two and view 1 the next
    labeled, _, cfg = _simple_examples()
    values = (2.0, 1.5, 0.1, -1.5, -2.0)
    unlabeled = [Example(f"U{99 - i}", [ViewInstances(np.array([[values[i % 5]]]),
                                                      [UNLABELED])] * 2)
                 for i in range(15)]
    co_config = CoConfig(iterations=1, promotions_per_view=2)
    model = cotrain_fit(labeled, unlabeled, 2, co_config, cfg, _view_names(2))
    base = replace(model, classifiers=model.snapshots[0])
    score = {ex.doc_id: predict(base, ex)[1][0] for ex in unlabeled}
    for kind, order in (("positive", -1.0), ("negative", 1.0)):
        ranked = sorted(score, key=lambda d: (order * score[d], d))[:4]
        picks = {(p["view"], p["doc_id"]) for p in model.iteration_log[0].promotions
                 if p["kind"] == kind}
        assert picks == {("view0", ranked[0]), ("view0", ranked[1]),
                         ("view1", ranked[2]), ("view1", ranked[3])}
    _assert_same_fit(model, _reference_cotrain_fit(labeled, unlabeled, 2, co_config, cfg))


def _odd_offset_copy(a, offset):
    """``a`` copied into a buffer ``offset`` floats past its start."""
    buffer = np.empty(a.size + offset)
    out = buffer[offset:].reshape(a.shape)
    out[...] = a
    return out


@st.composite
def _scored_pools(draw):
    """Classifiers and documents whose bags may be empty, one row, all tied
    rows or random rows, each in a buffer at an odd or even offset."""
    n_views = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classifiers = [LogRegModel(weights=rng.normal(size=dim), bias=rng.normal(),
                               config=TrainConfig()) for _ in range(n_views)]
    examples = []
    for i in range(draw(st.integers(0, 40))):
        views = []
        for _ in range(n_views):
            m = draw(st.sampled_from([0, 1, 2, 3, 5]))
            rows = rng.normal(size=(m, dim)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
            if draw(st.booleans()):
                rows[1:] = rows[:1]
            rows = _odd_offset_copy(rows, draw(st.integers(0, 3)))
            views.append(ViewInstances(rows, [UNLABELED] * m))
        examples.append(Example(f"d{i:02d}", views))
    neutral = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    model = CoDecompModel(
        kcs_names=tuple(f"v{j}" for j in range(n_views)), classifiers=classifiers,
        co_config=CoConfig(neutral_prob=neutral), train_config=TrainConfig())
    return model, examples


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_scored_pools())
def test_stacked_scoring_matches_per_bag_reference(pool):
    model, examples = pool
    neutral = model.co_config.neutral_prob
    for j, clf in enumerate(model.classifiers):
        maxes = _StackedBags(examples, j).score(clf, neutral)
        for ex, p in zip(examples, maxes):
            bag = ex.views[j].vectors
            if bag.shape[0] == 0:
                assert p == neutral
            else:
                assert p == mil_example_score(predict_proba_batch(clf, bag))[0]
        single = single_view_predictions(clf, j, examples, neutral)
        assert single == {ex.doc_id: POSITIVE if p >= 0.5 else NEGATIVE
                          for ex, p in zip(examples, maxes)}
    assert predict_many(model, examples) == {
        ex.doc_id: predict(model, ex)[0] for ex in examples}


def test_stacked_scoring_rejects_a_width_mismatch():
    model, example = _bias_model((0.9, 0.9))
    example.views[1] = ViewInstances(np.empty((0, 3)), [])
    with pytest.raises(CotrainError, match="view 1.*'x'.*width 3"):
        predict_many(model, [example])
    with pytest.raises(CotrainError, match="view 1"):
        single_view_predictions(model.classifiers[1], 1, [example])


def test_cotraining_rejects_documents_of_another_width():
    # a labeled pool is checked as it is stacked, an unlabeled one also
    # against the classifiers trained on the labeled pool
    def doc(doc_id, widths, labels):
        return Example(doc_id, [ViewInstances(np.ones((len(labels), w)), labels)
                                for w in widths])

    labeled = [doc("L0", (2, 2), [POSITIVE, NEGATIVE]),
               doc("L1", (2, 3), [NEGATIVE]),
               doc("L2", (2, 4), [POSITIVE])]
    with pytest.raises(CotrainError,
                       match="^view 1: document 'L1' has vectors of width 3, "
                             "document 'L0' has 2$"):
        cotrain_fit(labeled, [], 2, CoConfig(), TrainConfig(), _view_names(2))
    labeled = [doc("L0", (2, 2), [POSITIVE, NEGATIVE])]
    unlabeled = [doc("U0", (2, 3), [UNLABELED])]
    with pytest.raises(CotrainError,
                       match="^view 1: document 'U0' has vectors of width 3, "
                             "the classifier takes 2$"):
        cotrain_fit(labeled, unlabeled, 2, CoConfig(), TrainConfig(), _view_names(2))


def _synthetic_pools(n_docs=150, n_labeled=40, seed=5):
    docs, preset = decomposable_corpus(n_docs, seed=seed, positive_rate=0.4,
                                       ambiguity=0.15)
    lexicons = load_lexicons()
    provider = HashedWindowProvider(window=2, dim=32)
    names = tuple(k.name for k in preset.kcs_list)
    pdocs = [process_document(d, preset, lexicons) for d in docs]
    examples = build_examples(pdocs, provider, names)
    labeled = examples[:n_labeled]
    unlabeled = [
        Example(e.doc_id, [ViewInstances(v.vectors, [UNLABELED] * v.size)
                           for v in e.views])
        for e in examples[n_labeled:]
    ]
    return labeled, unlabeled, examples, names


class TestCotrainBookkeeping:
    CFG = TrainConfig(epochs=400, convergence_tolerance=1e-6)

    def test_pool_conservation_and_move_limit(self):
        labeled, unlabeled, _, names = _synthetic_pools()
        total = len(labeled) + len(unlabeled)
        model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=8),
                            self.CFG, kcs_names=names)
        seen = []
        previous_labeled = len(labeled)
        for record in model.iteration_log:
            assert record.labeled_examples + record.unlabeled_examples == total
            assert 0 <= len(record.promotions) <= 4  # J=2, one of each kind per view
            assert record.labeled_examples >= previous_labeled
            previous_labeled = record.labeled_examples
            seen.extend(p["doc_id"] for p in record.promotions)
        assert len(seen) == len(set(seen))  # an example is promoted exactly once

    def test_deterministic(self):
        labeled, unlabeled, _, names = _synthetic_pools()
        a = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=5),
                        self.CFG, kcs_names=names)
        b = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=5),
                        self.CFG, kcs_names=names)
        assert iteration_log_lines(a.iteration_log) == iteration_log_lines(b.iteration_log)
        for ca, cb in zip(a.classifiers, b.classifiers):
            np.testing.assert_array_equal(ca.weights, cb.weights)

    def test_snapshots_match_independent_runs(self):
        labeled, unlabeled, _, names = _synthetic_pools(n_docs=60, n_labeled=20)
        co_config = CoConfig(iterations=20, confidence_floor=0.9)
        full = cotrain_fit(labeled, unlabeled, 2, co_config, self.CFG,
                           kcs_names=names)
        stop = len(full.iteration_log)
        assert stop < 20 and not full.iteration_log[-1].promotions
        assert len(full.snapshots) == stop and full.classifiers is full.snapshots[-1]
        for k in (0, 1, 2, stop - 1, stop, stop + 3):
            solo = cotrain_fit(labeled, unlabeled, 2,
                               replace(co_config, iterations=k), self.CFG,
                               kcs_names=names)
            _assert_same_fit(_stage(full, k), solo)

    def test_snapshots_of_a_run_that_did_not_stop(self):
        # one entry per promoting iteration after the base fit, the last
        # being the classifiers the run returns
        labeled, unlabeled, _, names = _synthetic_pools()
        model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=2),
                            self.CFG, kcs_names=names)
        assert all(r.promotions for r in model.iteration_log)
        assert len(model.snapshots) == 3
        assert model.snapshots[-1] is model.classifiers

    def test_last_promotions_reach_the_classifiers(self):
        # the promotions of a run's last iteration are trained on: one
        # iteration that promoted changes the classifiers
        docs, preset = decomposable_corpus(200, seed=3)
        parts = sample_labeled(docs, SampleSpec(40, 3))
        provider = HashedWindowProvider(window=2, dim=64)
        names = tuple(k.name for k in preset.kcs_list)
        lexicons = load_lexicons()
        labeled, unlabeled = (
            build_examples([process_document(d, preset, lexicons) for d in part],
                           provider, names)
            for part in parts)
        runs = [cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=k),
                            TrainConfig(), kcs_names=names) for k in (0, 1)]
        assert len(runs[1].iteration_log[0].promotions) == 4
        assert any(a.weights.tobytes() != b.weights.tobytes()
                   for a, b in zip(runs[0].classifiers, runs[1].classifiers))

    def test_a_first_iteration_that_promotes_nothing_logs_one_warning(self, caplog):
        # at l2_lambda=0.1 no bag clears the confidence floor and none looks
        # negative to both views, so co-training stops at once; at the
        # default l2_lambda it runs all 25 iterations. A decoy whose beta bag
        # is empty and whose alpha bag outscores every promotable document
        # is not promotable: neither the warning nor the log counts it.
        docs, preset = decomposable_corpus(400, 3, positive_rate=0.4, ambiguity=0.15)
        names = tuple(k.name for k in preset.kcs_list)
        lexicons = load_lexicons()
        labeled, unlabeled = (
            build_examples([process_document(d, preset, lexicons) for d in part],
                           HashedWindowProvider(), names)
            for part in sample_labeled(docs, SampleSpec(30, 3)))

        def fit(l2_lambda, pool):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="codecomp.cotrain"):
                model = cotrain_fit(labeled, pool, 2, CoConfig(),
                                    TrainConfig(l2_lambda=l2_lambda), kcs_names=names)
            return model, [r for r in caplog.records if r.name == "codecomp.cotrain"]

        def with_decoy(l2_lambda):
            # an alpha row at logit 50 plus the bias of the base alpha fit
            alpha = fit(l2_lambda, [])[0].classifiers[0].weights
            row = 50.0 * alpha / (alpha @ alpha)
            decoy = Example("decoy", [ViewInstances(row[None], [UNLABELED]),
                                      ViewInstances(np.empty((0, row.size)), [])])
            return [decoy] + unlabeled

        pool = with_decoy(0.1)
        model, records = fit(0.1, pool)
        assert [len(r.promotions) for r in model.iteration_log] == [0]
        assert model.iteration_log[0].unlabeled_examples == len(pool)
        [record] = records
        assert record.levelno == logging.WARNING
        promotable = [ex for ex in unlabeled if all(v.size for v in ex.views)]
        tops = np.max([predict(model, ex)[1] for ex in promotable], axis=0)
        assert predict(model, pool[0])[1][0] > max(0.7, tops[0])
        assert record.getMessage() == (
            "co-training promoted nothing in its first iteration: the top bag "
            f"probability of {len(promotable)} promotable documents is "
            f"alpha {tops[0]:.3g}, beta {tops[1]:.3g}, against a confidence "
            "floor of 0.7")
        assert max(tops) < 0.7

        model, records = fit(1e-3, unlabeled)
        assert len(model.iteration_log) == 25
        assert len(model.iteration_log[0].promotions) == 4
        assert records == []
        # the decoy changes nothing but the count of unlabeled documents
        decoyed, records = fit(1e-3, with_decoy(1e-3))
        assert records == []
        assert [(r.promotions, r.labeled_examples, r.unlabeled_examples - 1)
                for r in decoyed.iteration_log] == [
            (r.promotions, r.labeled_examples, r.unlabeled_examples)
            for r in model.iteration_log]
        for a, b in zip(decoyed.classifiers, model.classifiers):
            assert a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias

    @pytest.mark.parametrize("pool", ["empty", "no promotable document"])
    def test_a_pool_without_promotable_documents_keeps_the_base_fit(self, pool, caplog):
        # U1's view-0 bag alone would be promoted, but a document with an
        # empty bag in any view never is
        labeled, unlabeled, cfg = _simple_examples()
        empty = ViewInstances(np.empty((0, 1)), [])
        unlabeled = [] if pool == "empty" else [
            Example("E0", [unlabeled[0].views[0], empty]),
            Example("E1", [empty, unlabeled[0].views[1]]),
            Example("E2", [empty, empty]),
        ]
        base = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=0), cfg,
                           _view_names(2))
        with caplog.at_level(logging.WARNING, logger="codecomp.cotrain"):
            model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=3), cfg,
                                _view_names(2))
        assert len(model.snapshots) == 1
        for a, b in zip(model.classifiers, base.classifiers):
            assert a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias
        assert model.iteration_log == [IterationRecord(1, [], 2, len(unlabeled))]
        assert [r.getMessage() for r in caplog.records if r.name == "codecomp.cotrain"] == [
            "co-training promoted nothing in its first iteration: the top bag "
            "probability of 0 promotable documents is view0 0, view1 0, against "
            "a confidence floor of 0.7"]

    def test_each_iteration_scores_each_view_once(self, monkeypatch):
        # one predict_proba_batch call per view and iteration, over the whole
        # stacked pool; a promoted positive's winning instances come from
        # that call's row probabilities, not from scoring its bags again
        labeled, unlabeled, _, names = _synthetic_pools()
        calls = []

        def counting(classifier, X):
            calls.append(len(X))
            return predict_proba_batch(classifier, X)

        monkeypatch.setattr(cotrain, "predict_proba_batch", counting)
        model = cotrain_fit(labeled, unlabeled, 2,
                            CoConfig(iterations=4, promotions_per_view=2),
                            self.CFG, kcs_names=names)
        assert any(p["kind"] == "positive"
                   for r in model.iteration_log for p in r.promotions)
        rows = [sum(ex.views[j].size for ex in unlabeled) for j in range(2)]
        assert calls == rows * len(model.iteration_log)

    def test_confidence_floor_respected(self):
        labeled, unlabeled, _, names = _synthetic_pools()
        model = cotrain_fit(labeled, unlabeled, 2,
                            CoConfig(iterations=4, confidence_floor=0.8),
                            self.CFG, kcs_names=names)
        for record in model.iteration_log:
            for p in record.promotions:
                if p["kind"] == "positive":
                    assert p["confidence"] >= 0.8
                else:
                    assert p["confidence"] < 0.2


def _stage(model, k):
    """The run of ``k`` iterations inside ``model``: snapshots and log cut
    where that run ends, classifiers ``snapshots[min(k, len - 1)]``."""
    snapshots = model.snapshots[:k + 1]
    return replace(model, classifiers=snapshots[-1], snapshots=snapshots,
                   iteration_log=model.iteration_log[:k])


def _assert_same_fit(a, b):
    """Bitwise-equal classifiers, snapshots and iteration logs."""
    def same(xs, ys):
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert x.weights.tobytes() == y.weights.tobytes()
            assert np.float64(x.bias).tobytes() == np.float64(y.bias).tobytes()

    same(a.classifiers, b.classifiers)
    assert len(a.snapshots) == len(b.snapshots)
    for x, y in zip(a.snapshots, b.snapshots):
        same(x, y)
    assert iteration_log_lines(a.iteration_log) == iteration_log_lines(b.iteration_log)


def test_gold_labels_of_unlabeled_examples_are_never_read():
    # The cached examples of unlabeled documents may still carry gold
    # instance labels; a promoted positive must add only its winning rows.
    labeled, stripped, examples, names = _synthetic_pools()
    gold = examples[len(labeled):]
    assert any(label != UNLABELED for ex in gold for v in ex.views for label in v.labels)
    run = lambda unlabeled: cotrain_fit(
        labeled, unlabeled, 2, CoConfig(iterations=8),
        TestCotrainBookkeeping.CFG, kcs_names=names)
    _assert_same_fit(run(gold), run(stripped))


# the co-training loop before each view kept one labeled pool: examples
# copied, promoted instance labels rewritten in place, and every view's
# training matrix rebuilt row by row from all labeled documents after every
# iteration that promoted (each retrain warm-started from the view's
# previous classifier, as cotrain_fit does)
def _labeled_matrix(examples, view):
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


def _reference_cotrain_fit(labeled, unlabeled, n_views, co_config, train_config):
    def train_views(examples, starts=None):
        return [train_logreg(*_labeled_matrix(examples, j), train_config,
                             start=None if starts is None else starts[j])
                for j in range(n_views)]

    def working_copy(ex):
        return Example(ex.doc_id, [ViewInstances(v.vectors, list(v.labels))
                                   for v in ex.views])

    def score_bags(classifiers):
        """(J, n) bag maxima and first argmaxes, one bag at a time."""
        maxes = np.empty((n_views, len(promotable)))
        winners = np.empty((n_views, len(promotable)), dtype=int)
        for j, clf in enumerate(classifiers):
            for p, ex in enumerate(promotable):
                probs = predict_proba_batch(clf, ex.views[j].vectors)
                maxes[j, p] = probs.max()
                winners[j, p] = np.flatnonzero(probs == maxes[j, p])[0]
        return maxes, winners

    kcs_names = tuple(f"view{j}" for j in range(n_views))
    pool_l = [working_copy(ex) for ex in labeled]
    classifiers = train_views(pool_l)
    snapshots = [classifiers]
    promotable = [working_copy(ex) for ex in unlabeled
                  if all(v.size > 0 for v in ex.views)]
    alive = np.ones(len(promotable), dtype=bool)
    id_rank = np.argsort(sorted(range(len(promotable)),
                                key=lambda p: promotable[p].doc_id))
    log = []
    floor = co_config.confidence_floor
    for iteration in range(1, co_config.iterations + 1):
        maxes, winners = score_bags(classifiers)
        confidently_negative = alive & np.all(maxes < 1.0 - floor, axis=0)
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
            if kind == "positive":
                for view, winner in zip(ex.views, winners[:, p]):
                    view.labels[winner] = POSITIVE
            else:
                for view in ex.views:
                    view.labels[:] = [NEGATIVE] * len(view.labels)
            pool_l.append(ex)
            alive[p] = False
            promotions.append({"view": kcs_names[j], "kind": kind,
                               "doc_id": ex.doc_id, "confidence": float(maxes[j, p])})
        log.append(IterationRecord(
            iteration=iteration, promotions=promotions,
            labeled_examples=len(pool_l),
            unlabeled_examples=len(unlabeled) - int(np.count_nonzero(~alive))))
        if not promotions:
            break
        classifiers = train_views(pool_l, classifiers)
        snapshots.append(classifiers)
    return CoDecompModel(kcs_names=kcs_names, classifiers=classifiers,
                         co_config=co_config, train_config=train_config,
                         snapshots=snapshots, iteration_log=log)


class _UnreadableLabels:
    """The instance labels of an unlabeled document: reading them fails."""

    def _read(self, *args):
        raise AssertionError("co-training read an unlabeled instance's label")

    __iter__ = __len__ = __getitem__ = _read


@st.composite
def _cotrain_pools(draw):
    """Labeled and unlabeled examples for a short co-training run.

    Every labeled view holds both classes, next to unlabeled instances.
    Unlabeled bags may be empty or hold several rows, some of them a
    repeated row or rows scaled until their probabilities clip at
    ``PROB_FLOOR``, so that a promoted positive's instance is decided by
    the first-argmax tie rule; some documents copy an earlier one's bags,
    under a new or the same doc id; and unlabeled instances carry labels
    that fail the test when read.
    """
    n_views = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    direction = rng.normal(size=dim)
    label_of = st.sampled_from([POSITIVE, NEGATIVE, UNLABELED])

    def rows(m):
        return rng.normal(size=(m, dim)) * 2.0 + direction * rng.normal()

    labeled = []
    for i in range(draw(st.integers(2, 6))):
        views = []
        for j in range(n_views):
            labels = [draw(label_of) for _ in range(draw(st.integers(0, 3)))]
            if i < 2:  # the first two documents give each view both classes
                labels.append(POSITIVE if i == 0 else NEGATIVE)
            views.append(ViewInstances(rows(len(labels)), labels))
        labeled.append(Example(f"L{i}", views))
    unlabeled = []
    for i in range(draw(st.integers(0, 25))):
        if unlabeled and draw(st.integers(0, 3)) == 0:
            source = unlabeled[draw(st.integers(0, len(unlabeled) - 1))]
            doc_id = source.doc_id if draw(st.booleans()) else f"U{i:02d}"
            unlabeled.append(Example(doc_id, source.views))
            continue
        views = []
        for _ in range(n_views):
            bag = rows(draw(st.sampled_from([0, 1, 1, 2, 3])))
            shape = draw(st.sampled_from(["plain", "repeated", "saturated"]))
            if shape == "repeated":
                bag[1:] = bag[:1]
            elif shape == "saturated":
                bag *= 1e3
            views.append(ViewInstances(bag, _UnreadableLabels()))
        unlabeled.append(Example(f"U{i:02d}", views))
    co_config = CoConfig(iterations=draw(st.integers(0, 5)),
                         promotions_per_view=draw(st.integers(1, 3)),
                         confidence_floor=draw(st.sampled_from([0.55, 0.7, 0.9])))
    ks = sorted(draw(st.sets(st.integers(0, co_config.iterations + 1))))
    return labeled, unlabeled, n_views, co_config, ks


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_cotrain_pools())
def test_labeled_pools_match_the_rebuilding_loop(pools):
    labeled, unlabeled, n_views, co_config, ks = pools
    cfg = TrainConfig(epochs=40, convergence_tolerance=0.0)
    stripped = [Example(ex.doc_id, [ViewInstances(v.vectors, [UNLABELED] * v.size)
                                    for v in ex.views]) for ex in unlabeled]
    model = cotrain_fit(labeled, unlabeled, n_views, co_config, cfg,
                        _view_names(n_views))
    _assert_same_fit(
        model, _reference_cotrain_fit(labeled, stripped, n_views, co_config, cfg))
    # every shorter run is a prefix of this one; a longer run is one too,
    # where this run stopped early, and otherwise this run is its prefix
    stopped = bool(model.iteration_log) and not model.iteration_log[-1].promotions
    for k in ks:
        run = cotrain_fit(labeled, unlabeled, n_views,
                          replace(co_config, iterations=k), cfg, _view_names(n_views))
        if k > co_config.iterations and not stopped:
            _assert_same_fit(_stage(run, co_config.iterations), model)
        else:
            _assert_same_fit(_stage(model, k), run)


class TestAblationVariants:
    CFG = TrainConfig(epochs=300, convergence_tolerance=1e-6)

    def test_structure_and_combined_identity(self):
        labeled, unlabeled, examples, names = _synthetic_pools(n_docs=100,
                                                               n_labeled=30)
        test = examples[70:]
        variants = ablation_variants(labeled, unlabeled[:30], names, CoConfig(),
                                     self.CFG, [2, 3], test)
        assert list(variants) == ["alpha-cl", "beta-cl", "combined",
                                  "+2-itr", "+3-itr"]
        base = cotrain_fit(labeled, unlabeled[:30], 2, CoConfig(iterations=0),
                           self.CFG, kcs_names=names)
        np.testing.assert_array_equal(
            [variants["combined"][e.doc_id] for e in test],
            [predict(base, e)[0] for e in test])

    def test_single_view_boundary_positive(self):
        model, example = _bias_model((0.5,))
        preds = single_view_predictions(model.classifiers[0], 0, [example])
        assert preds["x"] == POSITIVE

    def test_iteration_counts_validated(self):
        labeled, unlabeled, _, names = _synthetic_pools(n_docs=60, n_labeled=20)
        with pytest.raises(CotrainError, match=">= 1"):
            ablation_variants(labeled, unlabeled, names, CoConfig(), self.CFG,
                              [0, 2], [])


class _KeyReader:
    """A provider passing each batch to ``inner`` and recording its keys."""

    def __init__(self, inner):
        self.inner, self.dimension, self.read = inner, inner.dimension, []

    def vectors(self, occurrences):
        self.read += [key for _, _, key in occurrences]
        return self.inner.vectors(occurrences)


def test_build_examples_against_precomputed_keys(tmp_path, lexicons):
    # a two-view corpus, and ADR posts whose two-word drug masks to one token
    adr = [Document(id="a1", text="my friend took pepto bismol and advil"),
           Document(id="a2", text="Pepto Bismol twice. felt sick after advil"),
           Document(id="a3", text="no drugs here")]
    for docs, preset in (decomposable_corpus(3, seed=1), (adr, task_preset("adr"))):
        names = tuple(k.name for k in preset.kcs_list)
        pdocs = [process_document(d, preset, lexicons) for d in docs]
        rng = np.random.default_rng(0)
        lines = ["dim 3"]
        stored = {}
        for pdoc in pdocs:
            for name, bag in zip(names, pdoc.bags):
                for occ in range(len(bag.instances)):
                    vec = rng.normal(size=3).round(6)
                    stored[(pdoc.document.id, name, occ)] = vec
                    lines.append(f"{pdoc.document.id}\t{name}\t{occ}\t"
                                 + " ".join(str(v) for v in vec))
        path = tmp_path / f"{preset.name}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        provider = _KeyReader(load_precomputed(path))
        examples = build_examples(pdocs, provider, names)
        assert sorted(provider.read) == sorted(stored)
        for pdoc, example in zip(pdocs, examples):
            for j, name in enumerate(names):
                for occ in range(example.views[j].size):
                    np.testing.assert_array_equal(
                        example.views[j].vectors[occ],
                        stored[(pdoc.document.id, name, occ)])
        for name in names:
            provider.read = []
            validate_kcs_gamma(provider, pdocs, name, 1.0, 200, seed=0)
            assert sorted(provider.read) == sorted(k for k in stored if k[1] == name)
    drug = pdocs[0].bags[1]  # the ADR posts' drug mask moved a range
    assert drug.masked_ranges != tuple(m.token_range for m, _ in drug.instances)


def test_build_examples_batch_equals_one_document_at_a_time(lexicons):
    docs, preset = decomposable_corpus(40, seed=2)
    docs.insert(7, Document(id="no-mentions", text="plain words only"))
    pdocs = [process_document(d, preset, lexicons) for d in docs]
    provider = HashedWindowProvider(window=2, dim=16)
    names = tuple(k.name for k in preset.kcs_list)
    batch = build_examples(pdocs, provider, names)
    single = [build_examples([pdoc], provider, names)[0] for pdoc in pdocs]
    assert [ex.doc_id for ex in batch] == [ex.doc_id for ex in single]
    assert any(v.size == 0 for ex in batch for v in ex.views)
    for a, b in zip(batch, single):
        assert len(a.views) == len(b.views) == len(preset.kcs_list)
        for va, vb in zip(a.views, b.views):
            assert va.vectors.shape == vb.vectors.shape
            assert va.vectors.tobytes() == vb.vectors.tobytes()
            assert va.labels == vb.labels
    assert build_examples([], provider, names) == []


def test_build_examples_vectors_are_read_only(lexicons):
    docs, preset = decomposable_corpus(6, seed=2)
    pdocs = [process_document(d, preset, lexicons) for d in docs]
    examples = build_examples(pdocs, HashedWindowProvider(window=2, dim=8),
                              tuple(k.name for k in preset.kcs_list))
    first = next(v for ex in examples for v in ex.views if v.size)
    before = [v.vectors.copy() for ex in examples for v in ex.views]
    with pytest.raises(ValueError, match="read-only"):
        first.vectors[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        first.vectors *= 2.0
    after = [v.vectors for ex in examples for v in ex.views]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_model_serialization_roundtrip(tmp_path):
    labeled, unlabeled, cfg = _simple_examples()
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg, _view_names(2))
    model.provider_spec = {"kind": "hashed", "window": 2, "dim": 1}
    blob = model.to_dict()
    again = CoDecompModel.from_dict(blob)
    for ca, cb in zip(model.classifiers, again.classifiers):
        np.testing.assert_array_equal(ca.weights, cb.weights)
        assert ca.bias == cb.bias
    assert again.co_config == model.co_config
    assert again.provider_spec == model.provider_spec


def test_failed_save_keeps_the_previous_file(tmp_path):
    labeled, unlabeled, cfg = _simple_examples()
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg, _view_names(2))
    model.provider_spec = {"kind": "hashed", "window": 2, "dim": 1}
    path = tmp_path / "model.json"
    save_model(model, path)
    saved = path.read_bytes()
    again = load_model(path)
    assert [c.weights.tobytes() for c in again.classifiers] == [
        c.weights.tobytes() for c in model.classifiers]
    model.provider_spec = {"kind": "hashed", "window": np.int64(2), "dim": 1}
    with pytest.raises(TypeError, match="int64"):
        save_model(model, path)
    assert path.read_bytes() == saved


def test_loaded_model_has_no_trajectory():
    labeled, unlabeled, cfg = _simple_examples()
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg, _view_names(2))
    assert model.snapshots and model.iteration_log
    loaded = CoDecompModel.from_dict(model.to_dict())
    assert (loaded.snapshots, loaded.iteration_log) == ([], [])


@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: blob["classifiers"].pop(), "1 classifiers for 2 views"),
    (lambda blob: blob["classifiers"][1]["weights"].append(0.0), "lengths differ"),
    (lambda blob: blob["provider_spec"].update(dim=64), "provider dim 64 != classifier weight length 1"),
])
def test_model_dict_mismatches_rejected(corrupt, message):
    labeled, unlabeled, cfg = _simple_examples()
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg, _view_names(2))
    model.provider_spec = {"kind": "hashed", "window": 2, "dim": 1}
    blob = model.to_dict()
    corrupt(blob)
    with pytest.raises(CotrainError, match=message):
        CoDecompModel.from_dict(blob)


def test_predict_many_keys():
    model, example = _bias_model((0.9, 0.9))
    assert predict_many(model, [example]) == {"x": POSITIVE}


def test_coconfig_validation():
    with pytest.raises(CotrainError):
        CoConfig(iterations=-1)
    with pytest.raises(CotrainError):
        CoConfig(promotions_per_view=0)
    with pytest.raises(CotrainError):
        CoConfig(confidence_floor=0.5)
    with pytest.raises(CotrainError, match="neutral_prob"):
        CoConfig(neutral_prob=1.5)
    with pytest.raises(CotrainError, match="neutral_prob"):
        CoConfig(neutral_prob=-0.1)
