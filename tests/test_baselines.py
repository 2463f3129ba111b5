import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codecomp import baselines
from codecomp.baselines import (
    EMConfig,
    document_features,
    em_fit,
    nb_baseline_fit,
)
from codecomp.corpus import Document, NEGATIVE, POSITIVE
from codecomp.learners import (
    NB_CLASSES,
    FeatureCounts,
    LearnerError,
    LogLikelihoods,
    NBModel,
    _train_nb_weighted,
    ngram_counts,
    nb_predict_proba,
    one_hot_labels,
    train_nb,
)
from codecomp.synthetic import decomposable_corpus


def _doc(i, text, label):
    return Document(id=str(i), text=text, gold_label=label)


@pytest.fixture(scope="module")
def fixture40():
    docs, _ = decomposable_corpus(40, seed=7, positive_rate=0.4)
    return docs[:20], docs[20:]


def test_nb_baseline_delegates_to_train_nb():
    docs = [
        _doc(1, "sick with flu today", POSITIVE),
        _doc(2, "flu shot clinic open", NEGATIVE),
    ]
    baseline = nb_baseline_fit(docs, alpha=1.0)
    direct = train_nb(FeatureCounts.from_multisets([document_features(d) for d in docs]),
                      [d.gold_label for d in docs], alpha=1.0)
    probe = document_features(_doc(3, "sick again", None))
    assert nb_predict_proba(baseline, probe) == nb_predict_proba(direct, probe)


class TestEM:
    def test_empty_unlabeled_equals_supervised(self, fixture40):
        labeled, _ = fixture40
        em_model, trace = em_fit(labeled, [], EMConfig())
        nb_model = nb_baseline_fit(labeled)
        assert trace == []
        assert em_model.log_likelihoods.keys() == nb_model.log_likelihoods.keys()
        for feat in em_model.log_likelihoods:
            np.testing.assert_array_equal(em_model.log_likelihoods[feat],
                                          nb_model.log_likelihoods[feat])
        np.testing.assert_array_equal(em_model.log_priors, nb_model.log_priors)

    def test_single_em_pass(self, fixture40):
        labeled, unlabeled = fixture40
        _, trace = em_fit(labeled, unlabeled,
                          EMConfig(max_iterations=1, convergence_tolerance=0.0))
        assert len(trace) == 1

    def test_log_likelihood_non_decreasing(self, fixture40):
        # 40-document fixture, 25 forced iterations: the weighted
        # observed-data objective must never drop by more than 1e-9
        labeled, unlabeled = fixture40
        _, trace = em_fit(labeled, unlabeled,
                          EMConfig(max_iterations=25, convergence_tolerance=0.0))
        assert len(trace) == 25
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9)

    def test_convergence_stops_early(self, fixture40):
        labeled, unlabeled = fixture40
        _, trace = em_fit(labeled, unlabeled,
                          EMConfig(max_iterations=50, convergence_tolerance=1e-3))
        assert len(trace) < 50

    def test_tiny_weight_tracks_supervised_estimates(self, fixture40):
        # as the unlabeled weight vanishes, estimates collapse onto the
        # supervised counts (over the shared labeled+unlabeled vocabulary)
        labeled, unlabeled = fixture40
        weighted, _ = em_fit(labeled, unlabeled,
                             EMConfig(max_iterations=10,
                                      unlabeled_weight=1e-9,
                                      convergence_tolerance=0.0))
        labels = [d.gold_label for d in labeled]
        supervised = _train_nb_weighted(
            FeatureCounts.from_multisets(
                [document_features(d) for d in [*labeled, *unlabeled]]),
            np.vstack([one_hot_labels(labels), np.zeros((len(unlabeled), 2))]),
            1.0)
        np.testing.assert_allclose(weighted.log_priors, supervised.log_priors,
                                   atol=1e-7)
        for feat, row in supervised.log_likelihoods.items():
            np.testing.assert_allclose(weighted.log_likelihoods[feat], row,
                                       atol=1e-6)

    def test_empty_labeled_rejected(self, fixture40):
        _, unlabeled = fixture40
        with pytest.raises(LearnerError, match="labeled"):
            em_fit([], unlabeled, EMConfig())

    def test_config_validation(self):
        with pytest.raises(LearnerError):
            EMConfig(max_iterations=0)
        with pytest.raises(LearnerError):
            EMConfig(unlabeled_weight=0.0)
        with pytest.raises(LearnerError):
            EMConfig(unlabeled_weight=1.5)
        with pytest.raises(LearnerError, match="convergence_tolerance"):
            EMConfig(convergence_tolerance=-1.0)
        with pytest.raises(LearnerError, match="alpha must be > 0, got 0"):
            EMConfig(alpha=0)
        assert EMConfig(convergence_tolerance=0.0).convergence_tolerance == 0.0

    def test_objective_includes_smoothing_prior(self):
        # on this input the likelihood alone falls by about 2.55 at some
        # iteration; with the Laplace smoothing's log-prior, which the
        # M-step maximises, the reported objective must not fall
        docs, _ = decomposable_corpus(150, seed=8, positive_rate=0.4)
        _, trace = em_fit(docs[:30], docs[30:],
                          EMConfig(max_iterations=15, convergence_tolerance=0.0))
        assert len(trace) == 15
        assert np.all(np.diff(trace) >= -1e-9)


class TestErrorPaths:
    DOCS = [_doc(1, "sick with flu today", POSITIVE),
            _doc(2, "flu shot clinic open", NEGATIVE)]

    def test_labeled_document_needs_a_label(self):
        docs = [*self.DOCS, _doc(3, "flu again", None)]
        with pytest.raises(LearnerError, match="unknown class None"):
            nb_baseline_fit(docs)
        with pytest.raises(LearnerError, match="unknown class None"):
            em_fit(docs, [_doc(4, "more flu", None)])

    @pytest.mark.parametrize("label", [None, "maybe"])
    def test_unknown_class_rejected(self, label):
        # a Document cannot carry "maybe"; train_nb takes bare labels
        with pytest.raises(LearnerError, match="unknown class"):
            table = FeatureCounts.from_multisets(
                [Counter({"a": 1}), Counter({"b": 1}), Counter({"c": 1})])
            train_nb(table, [POSITIVE, NEGATIVE, label])

    def test_single_class_rejected(self):
        docs = [_doc(1, "sick with flu", POSITIVE), _doc(2, "flu again", POSITIVE)]
        with pytest.raises(LearnerError, match="both classes"):
            nb_baseline_fit(docs)
        with pytest.raises(LearnerError, match="both classes"):
            em_fit(docs, [_doc(3, "flu shot", None)])

    def test_weights_must_cover_every_document(self):
        table = FeatureCounts.from_multisets([Counter({"a": 1}), Counter({"b": 1})])
        with pytest.raises(LearnerError, match="equal-length"):
            _train_nb_weighted(table, np.eye(3, 2), 1.0)


# ---------------------------------------------------------------------------
# Reference: the dict-loop NB and EM that the count-table estimation replaced
# ---------------------------------------------------------------------------


def _reference_nb(feature_counts, class_weights, alpha):
    """NB estimation feature by feature; ``class_weights[i]`` maps class
    name -> weight of document i."""
    class_index = {c: i for i, c in enumerate(NB_CLASSES)}
    doc_mass = np.zeros(2)
    token_totals = np.zeros(2)
    table = {}
    for counts, weights in zip(feature_counts, class_weights):
        for feat in counts:
            if feat not in table:
                table[feat] = np.zeros(2)
        for label, weight in weights.items():
            if weight == 0.0:
                continue
            ci = class_index[label]
            doc_mass[ci] += weight
            for feat, c in counts.items():
                table[feat][ci] += weight * c
                token_totals[ci] += weight * c
    denom = token_totals + alpha * (len(table) + 1)
    rows = [np.log((row + alpha) / denom) for row in table.values()]
    return NBModel(
        log_priors=np.log(doc_mass / doc_mass.sum()),
        log_likelihoods=LogLikelihoods({f: i for i, f in enumerate(table)},
                                       np.array(rows).reshape(-1, 2)),
        log_oov=np.log(alpha / denom),
        alpha=alpha,
    )


def _reference_joint(model, features):
    scores = model.log_priors.copy()
    for feat, c in features.items():
        scores = scores + c * model.log_likelihoods[feat]
    return scores


def _reference_posteriors(model, features):
    joint = _reference_joint(model, features)
    p = np.exp(joint - joint.max())
    return p / p.sum()


def _reference_data_terms(model, labeled_feats, labels, unlabeled_feats, weight):
    """The EM objective's terms other than the smoothing's log-prior."""
    terms = [_reference_joint(model, feats)[NB_CLASSES.index(label)]
             for feats, label in zip(labeled_feats, labels)]
    for feats in unlabeled_feats:
        joint = _reference_joint(model, feats)
        m = joint.max()
        terms.append(weight * (m + np.log(np.exp(joint - m).sum())))
    return terms


def _reference_objective(model, labeled_feats, labels, unlabeled_feats, weight):
    terms = _reference_data_terms(model, labeled_feats, labels, unlabeled_feats, weight)
    prior = model.alpha * np.array([*model.log_likelihoods.values(), model.log_oov])
    return math.fsum(terms + prior.ravel().tolist())


def _reference_em(labeled_feats, labels, unlabeled_feats, em_config, alpha):
    """EM one document at a time: (model, trace, number of M-steps)."""
    feats = labeled_feats + unlabeled_feats
    base = [{label: 1.0} for label in labels]
    zero = [{c: 0.0 for c in NB_CLASSES} for _ in unlabeled_feats]
    model = _reference_nb(feats, base + zero, alpha)
    if not unlabeled_feats:
        return model, [], 1
    trace = []
    previous = -np.inf
    w = em_config.unlabeled_weight
    for _ in range(em_config.max_iterations):
        fractional = [
            {c: w * float(p) for c, p in zip(NB_CLASSES, _reference_posteriors(model, f))}
            for f in unlabeled_feats
        ]
        model = _reference_nb(feats, base + fractional, alpha)
        objective = _reference_objective(model, labeled_feats, labels,
                                         unlabeled_feats, w)
        trace.append(objective)
        if abs(objective - previous) < em_config.convergence_tolerance:
            break
        previous = objective
    return model, trace, 1 + len(trace)


_WORDS = ["i", "my", "flu", "sick", "shot", "got", "the", "clinic"]
# token lists: empty documents and repeated tokens (so repeated unigrams
# and bigrams) are both likely at this vocabulary size
_token_lists = st.lists(st.sampled_from(_WORDS), max_size=7)


@st.composite
def _em_inputs(draw):
    labeled = draw(st.lists(_token_lists, min_size=2, max_size=8))
    labels = draw(st.lists(st.sampled_from(NB_CLASSES), min_size=len(labeled),
                           max_size=len(labeled)))
    labels[:2] = [POSITIVE, NEGATIVE]
    unlabeled = draw(st.lists(_token_lists, max_size=8))
    config = EMConfig(
        max_iterations=draw(st.integers(1, 8)),
        unlabeled_weight=draw(st.sampled_from([1.0, 0.5, 0.1, 1e-3])),
        convergence_tolerance=draw(st.sampled_from([0.0, 1e-6])),
    )
    alpha = draw(st.sampled_from([1.0, 0.5, 0.05]))
    return labeled, labels, unlabeled, config, alpha


def _fixture_of(labeled, labels, unlabeled, test=()):
    """Documents, their counts by id, and the corpus table ``em_fit`` takes
    their rows of: test documents first, so that the corpus numbers its
    columns in another order than a fit's table."""
    tokens = [*labeled, *unlabeled, *test]
    docs = [_doc(i, " ".join(t), label) for i, (t, label) in enumerate(
        zip(tokens, labels + [None] * (len(unlabeled) + len(test))))]
    features = {d.id: ngram_counts(t) for d, t in zip(docs, tokens)}
    n = len(labeled) + len(unlabeled)
    corpus = docs[n:] + docs[:n]
    table = FeatureCounts.from_multisets([features[d.id] for d in corpus],
                                         ids=[d.id for d in corpus])
    return docs[:len(labeled)], docs[len(labeled):n], features, table


def _assert_same_nb(model, expected):
    """Equal NB models, bit for bit: priors, vocabulary order, likelihood
    rows, unseen-feature mass and smoothing."""
    assert model.log_priors.tobytes() == expected.log_priors.tobytes()
    assert list(model.log_likelihoods) == list(expected.log_likelihoods)
    assert (model.log_likelihoods.values().tobytes()
            == expected.log_likelihoods.values().tobytes())
    assert model.log_oov.tobytes() == expected.log_oov.tobytes()
    assert model.alpha == expected.alpha


class TestMatchesDictLoop:
    @settings(max_examples=60, deadline=None)
    @given(_em_inputs())
    def test_nb_models_bitwise(self, case):
        labeled, labels, unlabeled, _, alpha = case
        docs, _, features, table = _fixture_of(labeled, labels, unlabeled)
        multisets = [features[d.id] for d in docs]
        expected = _reference_nb(multisets, [{y: 1.0} for y in labels], alpha)
        for model in (train_nb(FeatureCounts.from_multisets(multisets), labels, alpha),
                      nb_baseline_fit(docs, alpha, features=table)):
            _assert_same_nb(model, expected)

    @settings(max_examples=60, deadline=None)
    @given(_em_inputs())
    def test_em_traces_and_models(self, case):
        labeled, labels, unlabeled, config, alpha = case
        docs, pool, features, table = _fixture_of(labeled, labels, unlabeled)
        ref_model, ref_trace, ref_steps = _reference_em(
            [features[d.id] for d in docs], labels,
            [features[d.id] for d in pool], config, alpha)
        steps = []
        with pytest.MonkeyPatch.context() as mp:
            def counted(*args):
                steps.append(args[2])
                return _train_nb_weighted(*args)

            mp.setattr(baselines, "_train_nb_weighted", counted)
            model, trace = em_fit(docs, pool, replace(config, alpha=alpha),
                                  features=table)
        assert len(trace) == len(ref_trace)
        assert len(steps) == ref_steps == 1 + len(trace)
        assert steps == [alpha] * len(steps)
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-12, atol=0)
        assert list(model.log_likelihoods) == list(ref_model.log_likelihoods)
        np.testing.assert_allclose(
            [model.log_oov, *model.log_likelihoods.values()],
            [ref_model.log_oov, *ref_model.log_likelihoods.values()], rtol=1e-12)
        np.testing.assert_allclose(model.log_priors, ref_model.log_priors, rtol=1e-12)


# ---------------------------------------------------------------------------
# Reference: the EM loop that counted each fit's table from its documents'
# multisets, kept the likelihoods as a feature -> row dict (building it from
# the M-step's array and stacking it back in every E-step) and gathered
# (nnz, 2) rows of class weights and likelihoods
# ---------------------------------------------------------------------------


def _reference_table(feature_counts):
    """The count table as ``FeatureCounts.from_multisets`` built it for every
    fit: columns in first-seen order, entries document by document."""
    index = {}
    rows, cols, counts = [], [], []
    for i, multiset in enumerate(feature_counts):
        rows.extend([i] * len(multiset))
        cols.extend(index.setdefault(f, len(index)) for f in multiset)
        counts.extend(multiset.values())
    return SimpleNamespace(index=index, rows=np.array(rows, dtype=np.intp),
                           cols=np.array(cols, dtype=np.intp),
                           counts=np.array(counts, dtype=float),
                           n_docs=len(feature_counts))


def _dict_per_class_sums(table, index, values, minlength):
    weighted = table.counts[:, None] * values
    return np.stack([np.bincount(index, weights=weighted[:, c], minlength=minlength)
                     for c in range(2)], axis=1)


def _dict_m_step(table, class_weights, alpha):
    """(log_priors, feature -> row dict, log_oov)."""
    vocabulary = list(table.index)
    doc_mass = class_weights.sum(axis=0)
    vocab_size = len(vocabulary)
    feature_mass = _dict_per_class_sums(table, table.cols, class_weights[table.rows],
                                        vocab_size)
    denom = feature_mass.sum(axis=0) + alpha * (vocab_size + 1)
    return (np.log(doc_mass / doc_mass.sum()),
            dict(zip(vocabulary, np.log((feature_mass + alpha) / denom))),
            np.log(alpha / denom))


def _dict_e_step(model, alpha, table, labeled_weights, unlabeled_weight):
    log_priors, log_likelihoods, log_oov = model
    likelihoods = np.array(list(log_likelihoods.values())).reshape(-1, 2)
    joint = log_priors + _dict_per_class_sums(
        table, table.rows, likelihoods[table.cols], table.n_docs)
    n_labeled = len(labeled_weights)
    unlabeled = joint[n_labeled:]
    peak = unlabeled.max(axis=1, keepdims=True)
    mass = np.exp(unlabeled - peak)
    total = mass.sum(axis=1, keepdims=True)
    terms = (joint[:n_labeled][labeled_weights > 0],
             unlabeled_weight * (peak + np.log(total)).ravel(),
             alpha * likelihoods.ravel(), alpha * log_oov)
    return mass / total, math.fsum(np.concatenate(terms).tolist())


def _dict_em(labeled_feats, labels, unlabeled_feats, em_config, alpha):
    table = _reference_table(labeled_feats + unlabeled_feats)
    labeled_weights = one_hot_labels(labels)
    model = _dict_m_step(
        table, np.vstack([labeled_weights, np.zeros((len(unlabeled_feats), 2))]), alpha)
    if not unlabeled_feats:
        return model, []
    w = em_config.unlabeled_weight
    posteriors, _ = _dict_e_step(model, alpha, table, labeled_weights, w)
    trace = []
    previous = -np.inf
    for _ in range(em_config.max_iterations):
        model = _dict_m_step(table, np.vstack([labeled_weights, w * posteriors]), alpha)
        posteriors, objective = _dict_e_step(model, alpha, table, labeled_weights, w)
        trace.append(objective)
        if abs(objective - previous) < em_config.convergence_tolerance:
            break
        previous = objective
    return model, trace


def _assert_model_is(model, reference):
    log_priors, rows, log_oov = reference
    assert model.log_priors.tobytes() == log_priors.tobytes()
    assert model.log_oov.tobytes() == log_oov.tobytes()
    assert list(model.log_likelihoods) == list(rows)
    expected = np.array(list(rows.values())).reshape(-1, 2)
    assert model.log_likelihoods.rows.tobytes() == expected.tobytes()


def _assert_fold_table_is(table, multisets):
    expected = _reference_table(multisets)
    assert list(table.index.items()) == list(expected.index.items())
    assert table.n_docs == expected.n_docs
    for name in ("rows", "cols", "counts"):
        got, want = getattr(table, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


# test-fold documents add words no training document holds
_test_token_lists = st.lists(st.sampled_from(_WORDS + ["rash", "er"]), max_size=7)


@st.composite
def _fold_inputs(draw):
    labeled, labels, unlabeled, config, alpha = draw(_em_inputs())
    test = draw(st.lists(_test_token_lists, max_size=4))
    if draw(st.booleans()):  # an unlabeled copy of a labeled document's text
        unlabeled.append(list(labeled[0]))
    return labeled, labels, unlabeled, test, config, alpha


def _check_fold_fits(labeled, labels, unlabeled, test, config, alpha):
    """A fit's table is its documents' rows of the corpus table, and every
    NB model and EM trace is bitwise what counting the fold's own multisets
    and gathering (nnz, 2) rows gave, with or without ``features=``."""
    docs, pool, features, table = _fixture_of(labeled, labels, unlabeled, test)
    labeled_feats = [features[d.id] for d in docs]
    unlabeled_feats = [features[d.id] for d in pool]
    _assert_fold_table_is(table.take([d.id for d in docs]), labeled_feats)
    _assert_fold_table_is(table.take([d.id for d in docs + pool]),
                          labeled_feats + unlabeled_feats)

    nb = _dict_m_step(_reference_table(labeled_feats), one_hot_labels(labels), alpha)
    for model in (nb_baseline_fit(docs, alpha, features=table),
                  nb_baseline_fit(docs, alpha)):
        _assert_model_is(model, nb)

    em_config = replace(config, alpha=alpha)
    reference, ref_trace = _dict_em(labeled_feats, labels, unlabeled_feats, config, alpha)
    for model, trace in (em_fit(docs, pool, em_config, features=table),
                         em_fit(docs, pool, em_config)):
        assert np.array(trace).tobytes() == np.array(ref_trace).tobytes()
        _assert_model_is(model, reference)
    return model


class TestArrayModel:
    @settings(max_examples=100, deadline=None)
    @given(_fold_inputs())
    def test_em_bitwise_equal_to_the_dict_loop(self, case):
        _check_fold_fits(*case)

    def test_fold_tables_on_edge_cases(self):
        # an empty text, a repeated text, words only the test fold holds,
        # a fit with no unlabeled documents and one with no features at all
        labeled = [["sick", "flu"], [], ["flu", "shot"], ["sick", "flu"]]
        labels = [POSITIVE, NEGATIVE, NEGATIVE, POSITIVE]
        test = [["rash", "sick"], ["er"]]
        config = EMConfig(max_iterations=3, convergence_tolerance=0.0)
        for unlabeled in ([], [["flu", "shot"], []]):
            model = _check_fold_fits(labeled, labels, unlabeled, test, config, 1.0)
            assert "rash" not in model.log_likelihoods
            assert "er" not in model.log_likelihoods
        assert list(model.log_likelihoods)[:3] == ["sick", "flu", "sick flu"]
        # no training document holds a feature: an empty vocabulary
        model = _check_fold_fits([[], []], labels[:2], [[]], test, config, 1.0)
        assert len(model.log_likelihoods) == 0

    @settings(max_examples=60, deadline=None)
    @given(_em_inputs())
    def test_m_step_rows_give_the_objective_prior(self, case):
        # the benchmark reads each M-step's log-prior through values(): it
        # must yield every feature's 2-row in vocabulary order, and alpha
        # times their sum plus log_oov's must be the objective's prior term
        labeled, labels, unlabeled, config, alpha = case
        multisets = [ngram_counts(t) for t in labeled + unlabeled]
        table = FeatureCounts.from_multisets(multisets)
        labeled_weights = one_hot_labels(labels)
        w = config.unlabeled_weight
        model = _train_nb_weighted(
            table, np.vstack([labeled_weights, np.full((len(unlabeled), 2), w / 2)]), alpha)
        vocabulary = list(dict.fromkeys(f for m in multisets for f in m))
        assert list(model.log_likelihoods) == vocabulary
        rows = list(model.log_likelihoods.values())
        assert len(rows) == len(vocabulary)
        for feat, row in zip(vocabulary, rows):
            assert row.shape == (2,)
            assert row.tobytes() == model.log_likelihoods[feat].tobytes()
        flat = np.fromiter((v for row in model.log_likelihoods.values() for v in row), float)
        prior = alpha * (float(flat.sum()) + float(model.log_oov.sum()))
        _, objective = baselines._e_step(model, table, labeled_weights, w)
        data = math.fsum(_reference_data_terms(model, multisets[:len(labeled)], labels,
                                               multisets[len(labeled):], w))
        assert objective - data == pytest.approx(prior, rel=1e-12, abs=1e-9)
