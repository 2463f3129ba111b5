import numpy as np
import pytest

from codecomp.baselines import (
    EMConfig,
    document_features,
    em_fit,
    nb_baseline_fit,
)
from codecomp.corpus import Document, NEGATIVE, POSITIVE
from codecomp.learners import LearnerError, nb_predict_proba, train_nb
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
    direct = train_nb([document_features(d) for d in docs],
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
        from codecomp.learners import _train_nb_weighted

        labeled_feats = [document_features(d) for d in labeled]
        supervised = _train_nb_weighted(
            labeled_feats + [document_features(d) for d in unlabeled],
            [{d.gold_label: 1.0} for d in labeled]
            + [{POSITIVE: 0.0, NEGATIVE: 0.0} for _ in unlabeled],
            1.0, weighted.class_order)
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

    def test_objective_includes_smoothing_prior(self):
        # on this input the likelihood alone falls by about 2.55 at some
        # iteration; with the Laplace smoothing's log-prior, which the
        # M-step maximises, the reported objective must not fall
        docs, _ = decomposable_corpus(150, seed=8, positive_rate=0.4)
        _, trace = em_fit(docs[:30], docs[30:],
                          EMConfig(max_iterations=15, convergence_tolerance=0.0))
        assert len(trace) == 15
        assert np.all(np.diff(trace) >= -1e-9)
