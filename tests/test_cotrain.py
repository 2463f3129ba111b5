import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codecomp.concepts import NEGATIVE, POSITIVE, UNLABELED, load_lexicons, process_document
from codecomp.context import HashedWindowProvider, load_precomputed
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
    score_example,
    single_view_predictions,
)
from codecomp.learners import LogRegModel, TrainConfig, predict_proba_batch, train_logreg
from codecomp.synthetic import decomposable_corpus


def _logit(p):
    return float(np.log(p / (1.0 - p)))


def _bias_model(probs, neutral=0.5):
    """One single-instance view per probability, classifier = pure bias.

    predict_proba(sigmoid(logit(p))) returns p (up to clipping), so the
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
        label, score = predict(model, example)
        assert label == expected
        np.testing.assert_allclose(score.probs, probs, atol=1e-9)

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
        label, score = predict(model, example)
        assert score.probs[1] == 0.5
        assert score.winning_instance[1] is None
        assert label == POSITIVE


def _simple_examples():
    """Two labeled examples, one clearly-positive and one clearly-negative
    unlabeled example, all in one dimension per view."""
    cfg = TrainConfig(learning_rate=1.0, epochs=300, convergence_tolerance=0.0)
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
        model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=0), cfg)
        expected0 = train_logreg(np.array([[1.0], [-1.0]]), [1, 0], cfg)
        np.testing.assert_array_equal(model.classifiers[0].weights, expected0.weights)
        assert model.classifiers[0].bias == expected0.bias
        assert model.iteration_log == []

    def test_empty_unlabeled_any_k_equals_k0(self):
        labeled, _, cfg = _simple_examples()
        a = cotrain_fit(labeled, [], 2, CoConfig(iterations=0), cfg)
        b = cotrain_fit(labeled, [], 2, CoConfig(iterations=7), cfg)
        for ca, cb in zip(a.classifiers, b.classifiers):
            np.testing.assert_array_equal(ca.weights, cb.weights)
            assert ca.bias == cb.bias

    def test_promotion_and_counterpart_labeling(self):
        # after iteration 1, U1 is promoted positive via view 0: its winning
        # view-0 instance and its most probable view-1 counterpart (0.6, not
        # -0.2) turn positive; U2 is promoted negative with every instance
        # negative. The classifiers returned by a 2-iteration run are trained
        # on exactly that pool, which pins the labels instance by instance.
        labeled, unlabeled, cfg = _simple_examples()
        model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=2), cfg)

        first = model.iteration_log[0]
        by_kind = {p["kind"]: p for p in first.promotions}
        assert by_kind["positive"]["doc_id"] == "U1"
        assert by_kind["positive"]["view"] == "view0"
        assert by_kind["negative"]["doc_id"] == "U2"

        expected_v0 = train_logreg(
            np.array([[1.0], [-1.0], [2.0], [-2.0]]), [1, 0, 1, 0], cfg)
        expected_v1 = train_logreg(
            np.array([[1.0], [-1.0], [0.6], [-2.0], [-1.5]]), [1, 0, 1, 0, 0], cfg)
        np.testing.assert_array_equal(model.classifiers[0].weights, expected_v0.weights)
        assert model.classifiers[0].bias == expected_v0.bias
        np.testing.assert_array_equal(model.classifiers[1].weights, expected_v1.weights)
        assert model.classifiers[1].bias == expected_v1.bias

    def test_missing_class_rejected(self):
        cfg = TrainConfig(epochs=5)
        labeled = [Example("L1", [ViewInstances(np.array([[1.0]]), [POSITIVE])])]
        with pytest.raises(CotrainError, match="view 0"):
            cotrain_fit(labeled, [], 1, CoConfig(iterations=0), cfg)

    def test_view_count_validated(self):
        labeled, unlabeled, cfg = _simple_examples()
        with pytest.raises(CotrainError, match="views"):
            cotrain_fit(labeled, unlabeled, 3, CoConfig(iterations=0), cfg)

    def test_caller_examples_not_mutated(self):
        labeled, unlabeled, cfg = _simple_examples()
        cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=3), cfg)
        assert unlabeled[0].views[0].labels == [UNLABELED]
        assert unlabeled[1].views[1].labels == [UNLABELED, UNLABELED]


def test_duplicate_documents_score_alike_and_tie_to_lower_doc_id():
    # Two copies of one bag at pool rows 5 and 32 of 33, where a BLAS
    # ``X @ w`` rounds them differently (OpenBLAS gemv). The two views are
    # identical, so view 0 must take the lower doc id and view 1 the other
    # copy at the same confidence.
    rng = np.random.default_rng(0)
    dim = 48
    X = rng.normal(size=(30, dim))
    y = (X[:, 0] > 0).astype(float)
    cfg = TrainConfig(learning_rate=1.0, epochs=50)
    clf = train_logreg(X, y, cfg)
    # large entries that cancel to w.v + b = 2, away from the clip
    v = 30.0 * rng.normal(size=dim)
    v += (2.0 - clf.bias - clf.weights @ v) / (clf.weights @ clf.weights) * clf.weights
    rows = list(0.1 * rng.normal(size=(33, dim)))
    rows[5] = rows[32] = v

    def example(doc_id, row, label):
        return Example(doc_id, [ViewInstances(row[None, :].copy(), [label])
                                for _ in range(2)])

    labeled = [example(f"L{i:02d}", X[i], POSITIVE if y[i] else NEGATIVE)
               for i in range(len(y))]
    unlabeled = [example(f"U{i:02d}", row, UNLABELED) for i, row in enumerate(rows)]
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg)
    positives = {p["view"]: p for p in model.iteration_log[0].promotions
                 if p["kind"] == "positive"}
    assert positives["view0"]["doc_id"] == "U05"
    assert positives["view1"]["doc_id"] == "U32"
    assert positives["view0"]["confidence"] == positives["view1"]["confidence"]


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
        maxes, winners = _StackedBags(examples, j, clf.weights.shape[0]).score(
            clf, neutral)
        for ex, p, win in zip(examples, maxes, winners):
            bag = ex.views[j].vectors
            if bag.shape[0] == 0:
                assert (p, win) == (neutral, -1)
            else:
                assert (p, win) == mil_example_score(predict_proba_batch(clf, bag))
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
    CFG = TrainConfig(learning_rate=4.0, epochs=400, convergence_tolerance=1e-6)

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
        labeled, unlabeled, examples, names = _synthetic_pools()
        full = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=6),
                           self.CFG, kcs_names=names, snapshot_at=(0, 2, 4, 6))
        for k in (0, 2, 4, 6):
            solo = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=k),
                               self.CFG, kcs_names=names)
            for snap, ref in zip(full.snapshots[k], solo.classifiers):
                np.testing.assert_array_equal(snap.weights, ref.weights)
                assert snap.bias == ref.bias

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


def _assert_same_fit(a, b):
    """Bitwise-equal classifiers, snapshots and iteration logs."""
    def same(xs, ys):
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert x.weights.tobytes() == y.weights.tobytes()
            assert np.float64(x.bias).tobytes() == np.float64(y.bias).tobytes()

    same(a.classifiers, b.classifiers)
    assert sorted(a.snapshots) == sorted(b.snapshots)
    for k in a.snapshots:
        same(a.snapshots[k], b.snapshots[k])
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
# training matrix rebuilt from all labeled documents in every iteration
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


def _reference_cotrain_fit(labeled, unlabeled, n_views, co_config, train_config,
                           snapshot_at=()):
    def train_views(examples):
        return [train_logreg(*_labeled_matrix(examples, j), train_config)
                for j in range(n_views)]

    def working_copy(ex):
        return Example(ex.doc_id, [ViewInstances(v.vectors, list(v.labels))
                                   for v in ex.views])

    kcs_names = tuple(f"view{j}" for j in range(n_views))
    pool_l = [working_copy(ex) for ex in labeled]
    classifiers = train_views(pool_l)
    snapshots = {0: copy.deepcopy(classifiers)} if 0 in snapshot_at else {}
    promotable = [working_copy(ex) for ex in unlabeled
                  if all(v.size > 0 for v in ex.views)]
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
            classifiers = train_views(pool_l)
        if iteration in snapshot_at:
            snapshots[iteration] = copy.deepcopy(classifiers)
        last_iteration = iteration
        scored = [bags[j].score(classifiers[j], co_config.neutral_prob)
                  for j in range(n_views)]
        maxes = np.vstack([s[0] for s in scored])
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
                for view, (_, winners) in zip(ex.views, scored):
                    view.labels[winners[p]] = POSITIVE
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
    for k in snapshot_at:
        if k > last_iteration:
            snapshots[k] = copy.deepcopy(classifiers)
    return CoDecompModel(kcs_names=kcs_names, classifiers=classifiers,
                         co_config=co_config, train_config=train_config,
                         snapshots=snapshots, iteration_log=log)


@st.composite
def _cotrain_pools(draw):
    """Labeled and unlabeled examples for a short co-training run.

    Every labeled view holds both classes, next to unlabeled instances.
    Unlabeled bags may be empty or hold several rows; some documents copy
    an earlier one's bags, under a new or the same doc id; and unlabeled
    instances carry arbitrary labels, which co-training must not read.
    """
    n_views = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    direction = rng.normal(size=dim)
    label_of = st.sampled_from([POSITIVE, NEGATIVE, UNLABELED])

    def bag(m, labels):
        return ViewInstances(rng.normal(size=(m, dim)) * 2.0 + direction * rng.normal(),
                             labels)

    labeled = []
    for i in range(draw(st.integers(2, 6))):
        views = []
        for j in range(n_views):
            labels = [draw(label_of) for _ in range(draw(st.integers(0, 3)))]
            if i < 2:  # the first two documents give each view both classes
                labels.append(POSITIVE if i == 0 else NEGATIVE)
            views.append(bag(len(labels), labels))
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
            m = draw(st.sampled_from([0, 1, 1, 2, 3]))
            views.append(bag(m, [draw(label_of) for _ in range(m)]))
        unlabeled.append(Example(f"U{i:02d}", views))
    co_config = CoConfig(iterations=draw(st.integers(0, 5)),
                         promotions_per_view=draw(st.integers(1, 3)),
                         confidence_floor=draw(st.sampled_from([0.55, 0.7, 0.9])))
    snapshot_at = tuple(draw(st.sets(st.integers(0, 6))))
    return labeled, unlabeled, n_views, co_config, snapshot_at


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_cotrain_pools())
def test_labeled_pools_match_the_rebuilding_loop(pools):
    labeled, unlabeled, n_views, co_config, snapshot_at = pools
    cfg = TrainConfig(learning_rate=1.0, epochs=40, convergence_tolerance=0.0)
    stripped = [Example(ex.doc_id, [ViewInstances(v.vectors, [UNLABELED] * v.size)
                                    for v in ex.views]) for ex in unlabeled]
    expected = _reference_cotrain_fit(labeled, stripped, n_views, co_config, cfg,
                                      snapshot_at)
    _assert_same_fit(
        cotrain_fit(labeled, unlabeled, n_views, co_config, cfg,
                    snapshot_at=snapshot_at),
        expected)


class TestAblationVariants:
    CFG = TrainConfig(learning_rate=4.0, epochs=300, convergence_tolerance=1e-6)

    def test_structure_and_combined_identity(self):
        labeled, unlabeled, examples, names = _synthetic_pools(n_docs=100,
                                                               n_labeled=30)
        test = examples[70:]
        variants = ablation_variants(labeled, unlabeled[:30], 2, CoConfig(),
                                     self.CFG, [2, 3], test, kcs_names=names)
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
            ablation_variants(labeled, unlabeled, 2, CoConfig(), self.CFG,
                              [0, 2], [], kcs_names=names)


def test_build_examples_against_precomputed_keys(tmp_path, lexicons):
    docs, preset = decomposable_corpus(3, seed=1)
    names = tuple(k.name for k in preset.kcs_list)
    pdocs = [process_document(d, preset, lexicons) for d in docs]
    rng = np.random.default_rng(0)
    lines = ["dim 3"]
    stored = {}
    for pdoc in pdocs:
        for name in names:
            for occ in range(len(pdoc.bag(name).instances)):
                vec = rng.normal(size=3).round(6)
                stored[(pdoc.document.id, name, occ)] = vec
                lines.append(f"{pdoc.document.id}\t{name}\t{occ}\t"
                             + " ".join(str(v) for v in vec))
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    provider = load_precomputed(path)
    examples = build_examples(pdocs, provider, names)
    for pdoc, example in zip(pdocs, examples):
        for j, name in enumerate(names):
            for occ in range(example.views[j].size):
                np.testing.assert_array_equal(
                    example.views[j].vectors[occ],
                    stored[(pdoc.document.id, name, occ)])


def test_model_serialization_roundtrip(tmp_path):
    labeled, unlabeled, cfg = _simple_examples()
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg)
    model.provider_spec = {"kind": "hashed", "window": 2, "dim": 1}
    blob = model.to_dict()
    again = CoDecompModel.from_dict(blob)
    for ca, cb in zip(model.classifiers, again.classifiers):
        np.testing.assert_array_equal(ca.weights, cb.weights)
        assert ca.bias == cb.bias
    assert again.co_config == model.co_config
    assert again.provider_spec == model.provider_spec


@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: blob["classifiers"].pop(), "1 classifiers for 2 views"),
    (lambda blob: blob["classifiers"][1]["weights"].append(0.0), "lengths differ"),
    (lambda blob: blob["provider_spec"].update(dim=64), "provider dim 64 != classifier weight length 1"),
])
def test_model_dict_mismatches_rejected(corrupt, message):
    labeled, unlabeled, cfg = _simple_examples()
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg)
    model.provider_spec = {"kind": "hashed", "window": 2, "dim": 1}
    blob = model.to_dict()
    corrupt(blob)
    with pytest.raises(CotrainError, match=message):
        CoDecompModel.from_dict(blob)


def test_model_with_legacy_seed_loads():
    # model files written while TrainConfig had a (never read) seed field
    labeled, unlabeled, cfg = _simple_examples()
    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=1), cfg)
    blob = model.to_dict()
    blob["train_config"]["seed"] = 7
    for c in blob["classifiers"]:
        c["config"]["seed"] = 7
    again = CoDecompModel.from_dict(blob)
    assert again.train_config == model.train_config
    assert [c.config for c in again.classifiers] == [c.config for c in model.classifiers]


def test_score_example_winning_instance():
    model, example = _bias_model((0.8,))
    example.views[0] = ViewInstances(np.array([[0.0], [0.0], [0.0]]),
                                     [UNLABELED] * 3)
    score = score_example(model, example)
    assert score.winning_instance[0] == 0  # ties break low


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
