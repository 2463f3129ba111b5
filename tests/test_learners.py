import json
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codecomp import learners
from codecomp.learners import (
    FeatureCounts,
    LearnerError,
    LogRegModel,
    TrainConfig,
    _gradient_hessian,
    _sigmoid,
    load_model,
    loss_gradient,
    nb_predict_proba,
    ngram_counts,
    predict_proba_batch,
    save_model,
    train_logreg,
    train_nb,
)


def _zero_model(dim, l2_lambda=0.0):
    return LogRegModel(weights=np.zeros(dim), bias=0.0,
                       config=TrainConfig(l2_lambda=l2_lambda))


def _proba(model, x):
    return predict_proba_batch(model, x[None])[0]


class TestLogReg:
    def test_separable_points(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        model = train_logreg([e1, -e1], [1, 0], TrainConfig())
        assert _proba(model, e1) > 0.5 > _proba(model, -e1)

    def test_zero_epochs_forbidden(self):
        with pytest.raises(LearnerError, match="epochs"):
            TrainConfig(epochs=0)

    def test_bad_learning_rate(self):
        with pytest.raises(LearnerError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)

    def test_negative_convergence_tolerance(self):
        with pytest.raises(LearnerError, match="convergence_tolerance"):
            TrainConfig(convergence_tolerance=-1.0)
        assert TrainConfig(convergence_tolerance=0.0).convergence_tolerance == 0.0

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(50, 8))
        y = (rng.random(50) < 0.5).astype(float)
        cfg = TrainConfig()
        initial_loss, _ = loss_gradient(
            LogRegModel(weights=np.zeros(8), bias=0.0, config=cfg), X, y)
        model = train_logreg(X, y, cfg)
        assert model.final_loss <= initial_loss

    def test_loss_monotone_over_epoch_budgets(self):
        # every step passes the Armijo test: a larger step cap never ends
        # at a higher loss
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = (rng.random(30) < 0.4).astype(float)
        losses = [
            train_logreg(X, y, TrainConfig(epochs=k, convergence_tolerance=0.0)).final_loss
            for k in range(1, 40)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_single_class_needs_flag(self):
        X = np.ones((3, 2))
        for y in ([1, 1, 1], [0, 0, 0]):
            with pytest.raises(LearnerError, match="single class"):
                train_logreg(X, y, TrainConfig())

    def test_gradient_closed_form_at_zero_weights(self):
        x = np.array([0.5, -2.0, 1.0])
        lam = 0.25
        bias = 0.7
        model = LogRegModel(weights=np.zeros(3), bias=bias,
                            config=TrainConfig(l2_lambda=lam))
        _, grad = loss_gradient(model, x[None, :], np.array([1.0]))
        sigma = 1.0 / (1.0 + np.exp(-bias))
        np.testing.assert_allclose(grad[:3], (sigma - 1.0) * x, atol=1e-12)
        np.testing.assert_allclose(grad[3], sigma - 1.0, atol=1e-12)

    def test_regularizer_gradient_is_lambda_w(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 4))
        y = (rng.random(10) < 0.5).astype(float)
        w = rng.normal(size=4)
        lam = 0.3
        with_reg = LogRegModel(weights=w, bias=0.2, config=TrainConfig(l2_lambda=lam))
        without = LogRegModel(weights=w, bias=0.2, config=TrainConfig(l2_lambda=0.0))
        _, g1 = loss_gradient(with_reg, X, y)
        _, g0 = loss_gradient(without, X, y)
        np.testing.assert_allclose(g1[:4] - g0[:4], lam * w, atol=1e-12)
        np.testing.assert_allclose(g1[4], g0[4], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(20):
            dim = int(rng.integers(1, 12))
            n = int(rng.integers(2, 20))
            X = rng.normal(size=(n, dim))
            y = (rng.random(n) < 0.5).astype(float)
            w = rng.normal(size=dim) * 0.5
            b = float(rng.normal() * 0.5)
            model = LogRegModel(weights=w, bias=b,
                                config=TrainConfig(l2_lambda=0.01))

            def loss_at(theta):
                m = LogRegModel(weights=theta[:dim], bias=float(theta[dim]),
                                config=model.config)
                return loss_gradient(m, X, y)[0]

            theta = np.append(w, b)
            _, analytic = loss_gradient(model, X, y)
            numeric = np.empty_like(theta)
            for i in range(theta.size):
                bump = np.zeros_like(theta)
                bump[i] = h
                numeric[i] = (loss_at(theta + bump) - loss_at(theta - bump)) / (2 * h)
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_hessian_matches_finite_differences_of_the_gradient(self):
        # the Newton solver's Hessian is the Jacobian of its own gradient
        rng = np.random.default_rng(13)
        h = 1e-6
        for l2_lambda in (0.0, 1e-3, 0.1, 1.0):
            for _ in range(10):
                dim = int(rng.integers(1, 12))
                n = int(rng.integers(2, 30))
                design = np.column_stack([rng.normal(size=(n, dim)), np.ones(n)])
                y = (rng.random(n) < 0.5).astype(float)
                penalty = np.append(np.full(dim, l2_lambda), 0.0)
                theta = rng.normal(size=dim + 1)

                def grad_at(t):
                    return _gradient_hessian(design, y, t, penalty, design @ t)[0]

                _, analytic = _gradient_hessian(design, y, theta, penalty, design @ theta)
                numeric = np.empty_like(analytic)
                for i in range(dim + 1):
                    bump = np.zeros(dim + 1)
                    bump[i] = h
                    numeric[:, i] = (grad_at(theta + bump) - grad_at(theta - bump)) / (2 * h)
                np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_solver_and_gradient_check_share_one_gradient(self, monkeypatch):
        # the gradient that the finite-difference checks test is the one
        # train_logreg steps by: both reach the one shared function
        calls = []
        real = learners._gradient_hessian

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(learners, "_gradient_hessian", counted)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        y = (rng.random(20) < 0.5).astype(float)
        model = train_logreg(X, y, TrainConfig())
        assert model.converged
        assert len(calls) == model.epochs_run + 1  # one per step, one to stop
        calls.clear()
        loss_gradient(model, X, y)
        assert len(calls) == 1

    def test_predict_proba_identity_and_clipping(self):
        model = _zero_model(3)
        assert _proba(model, np.array([5.0, -1.0, 2.0])) == 0.5
        hot = LogRegModel(weights=np.array([100.0]), bias=0.0, config=TrainConfig())
        assert _proba(hot, np.array([10.0])) == pytest.approx(1 - 1e-6)
        assert _proba(hot, np.array([-10.0])) == pytest.approx(1e-6)

    def test_predict_proba_monotone_in_score(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=6)
        model = LogRegModel(weights=w, bias=0.1, config=TrainConfig())
        X = rng.normal(size=(100, 6))
        scores = X @ w + 0.1
        order = np.argsort(scores)
        probs = predict_proba_batch(model, X)[order]
        assert np.all(np.diff(probs) >= 0)

    def test_sigmoid_matches_masked_formula(self):
        def masked(z):
            out = np.empty_like(z, dtype=float)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        special = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
        z = np.concatenate([special, np.random.default_rng(4).normal(scale=30, size=5000)])
        got, want = _sigmoid(z), masked(z)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        keep = ~np.isnan(want)  # the sign of a NaN carries nothing
        assert got[keep].tobytes() == want[keep].tobytes()

    def test_batch_row_probability_ignores_its_neighbours(self):
        rng = np.random.default_rng(6)
        model = LogRegModel(weights=rng.normal(size=64), bias=0.3, config=TrainConfig())
        # large entries that cancel to w.x + b = 2, away from the clip
        x = rng.normal(size=64) * 30
        x += (2.0 - 0.3 - model.weights @ x) / (model.weights @ model.weights) * model.weights
        X = np.tile(x, (70, 1))
        buffer = np.empty(X.size + 1)
        shifted = buffer[1:].reshape(X.shape)
        shifted[...] = X
        alone = predict_proba_batch(model, X[:1])[0]
        assert set(predict_proba_batch(model, X)) == {alone}
        assert set(predict_proba_batch(model, shifted)) == {alone}
        assert set(predict_proba_batch(model, np.asfortranarray(X))) == {alone}

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 6))
        y = (rng.random(40) < 0.5).astype(float)
        a = train_logreg(X, y, TrainConfig())
        b = train_logreg(X, y, TrainConfig())
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_serialization_roundtrip(self):
        # the classifier entries of a codecomp model file
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 4))
        y = (rng.random(20) < 0.5).astype(float)
        model = train_logreg(X, y, TrainConfig(epochs=50))
        again = LogRegModel.from_dict(model.to_dict())
        np.testing.assert_array_equal(again.weights, model.weights)
        assert again.bias == model.bias
        assert again.config == model.config
        assert (again.epochs_run, again.converged) == (model.epochs_run, True)

    def test_step_cap_reports_no_convergence(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 6))
        y = (X[:, 0] + rng.normal(size=50) > 0).astype(float)
        capped = train_logreg(X, y, TrainConfig(epochs=1))
        assert (capped.epochs_run, capped.converged) == (1, False)
        full = train_logreg(X, y, TrainConfig())
        assert full.converged and 1 < full.epochs_run < TrainConfig().epochs
        assert full.final_loss < capped.final_loss


def _resolution_case():
    # a fit whose half Newton decrement falls below one ulp of its loss
    # (about 1.1e-16 here) after two steps
    rng = np.random.default_rng(110)
    X = rng.normal(size=(244, 24))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = (X @ rng.normal(size=24) + 0.5 * rng.normal(size=244) > 0).astype(float)
    return X, y


def test_a_fit_that_does_not_converge_logs_one_warning(caplog):
    X, y = _resolution_case()
    cfg = TrainConfig(l2_lambda=0.1, epochs=1)
    with caplog.at_level(logging.WARNING, logger="codecomp.learners"):
        model = train_logreg(X, y, cfg)
    assert (model.epochs_run, model.converged) == (cfg.epochs, False)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert message.startswith("logistic fit on 244 rows stopped without converging "
                              "at its step cap, after 1 steps; "
                              "last Newton decrement ")
    # the decrement of the one step taken, from the zero start
    assert float(message.rsplit(" ", 1)[1]) > 2 * cfg.convergence_tolerance

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="codecomp.learners"):
        assert train_logreg(X, y, TrainConfig(l2_lambda=0.1)).converged
    assert caplog.records == []


@pytest.mark.parametrize("tolerance", [1e-17, 0.0])
def test_a_tolerance_below_the_loss_resolution_converges(caplog, tolerance):
    # below one ulp of the loss the Armijo test compares rounding noise, and
    # the fit used to accept steps that made no progress until its 500-step
    # cap; it now stops where the loss can no longer tell a decrease
    X, y = _resolution_case()
    with caplog.at_level(logging.WARNING, logger="codecomp.learners"):
        model = train_logreg(X, y, TrainConfig(l2_lambda=0.1,
                                                convergence_tolerance=tolerance))
    assert model.converged and model.epochs_run <= 3
    assert caplog.records == []
    shipped = train_logreg(X, y, TrainConfig(l2_lambda=0.1))
    assert model.final_loss <= shipped.final_loss
    np.testing.assert_allclose(model.weights, shipped.weights, atol=1e-3)


@pytest.mark.parametrize("seed", range(5))
def test_warm_start_reaches_the_cold_optimum_in_no_more_steps(seed):
    # a co-training retrain: the pool grows by a few rows and the fit starts
    # from the optimum of the smaller pool. With l2_lambda > 0 the loss is
    # strictly convex, so both fits end at its one minimum; a tolerance this
    # tight leaves them within 1e-8 of each other
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, 16))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = (X @ rng.normal(size=16) + 0.5 * rng.normal(size=200) > 0).astype(float)
    cfg = TrainConfig(l2_lambda=0.1, convergence_tolerance=1e-17)
    previous = train_logreg(X[:-5], y[:-5], cfg)
    warm = train_logreg(X, y, cfg, start=previous)
    cold = train_logreg(X, y, cfg)
    assert warm.converged and cold.converged
    np.testing.assert_allclose(warm.weights, cold.weights, rtol=0, atol=1e-8)
    assert abs(warm.bias - cold.bias) <= 1e-8
    assert warm.epochs_run <= cold.epochs_run


def test_warm_start_of_another_width_rejected():
    X = np.random.default_rng(3).normal(size=(20, 4))
    y = (X[:, 0] > 0).astype(float)
    start = train_logreg(X[:, :3], y, TrainConfig())
    with pytest.raises(LearnerError, match="3 weights, data has 4 columns"):
        train_logreg(X, y, TrainConfig(), start=start)


def _finite_fit(X, y, cfg):
    """Fit with every numpy floating-point warning raised; the weights, bias
    and loss must come back finite."""
    with np.errstate(all="raise"):
        model = train_logreg(X, y, cfg)
    assert np.all(np.isfinite(model.weights))
    assert np.isfinite(model.bias) and np.isfinite(model.final_loss)
    return model


# the default tolerance, and tolerance 0, which runs every capped fit to its
# cap or a failed line search, deep into the saturated sigmoid tail
EDGE_CONFIGS = [TrainConfig(l2_lambda=0.0),
                TrainConfig(l2_lambda=0.0, epochs=1000, convergence_tolerance=0.0)]


class TestLogRegEdgeCases:
    @pytest.mark.parametrize("cfg", EDGE_CONFIGS)
    def test_separable_without_penalty(self, cfg):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 8))
        y = (X[:, 0] > 0).astype(float)
        model = _finite_fit(X, y, cfg)
        scores = X @ model.weights + model.bias
        assert np.all((scores > 0) == (y == 1))

    @pytest.mark.parametrize("cfg", EDGE_CONFIGS + [TrainConfig()])
    @pytest.mark.parametrize("rows, target", [(40, 1.0), (40, 0.0), (1, 1.0)])
    def test_single_class_allowed(self, cfg, rows, target):
        # a one-class pool is rejected before any step, whatever the config
        X = np.random.default_rng(13).normal(size=(rows, 5))
        with pytest.raises(LearnerError, match="single class"):
            _finite_fit(X, np.full(rows, target), cfg)

    @pytest.mark.parametrize("singular", ["zero column", "duplicated columns"])
    def test_singular_hessian(self, singular):
        # both designs reach exactly the margins of the design without the
        # extra columns, so at l2_lambda=0 the two fits share their optimum;
        # the least-squares Newton step gets there in as few steps
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 6))
        y = (X[:, 0] + rng.normal(size=40) > 0).astype(float)
        extra = np.zeros((40, 1)) if singular == "zero column" else X[:, :2]
        cfg = TrainConfig(l2_lambda=0.0)
        model = _finite_fit(np.column_stack([X, extra]), y, cfg)
        assert model.converged and model.epochs_run < 10
        assert model.final_loss <= train_logreg(X, y, cfg).final_loss + 1e-6


def _gradient_descent(X, y, l2_lambda, learning_rate, epochs, tolerance):
    """The learner's former fit, kept as the reference: full-batch gradient
    descent from zero that stops once an epoch improves the loss by less
    than ``tolerance``. Returns the loss it ends at."""
    def loss_and_grad(w, b):
        z = X @ w + b
        loss = (float(np.mean(np.logaddexp(0.0, z) - y * z))
                + 0.5 * l2_lambda * float(w @ w))
        residual = _sigmoid(z) - y
        return loss, X.T @ residual / len(y) + l2_lambda * w, float(np.mean(residual))

    w, b, prev = np.zeros(X.shape[1]), 0.0, np.inf
    for _ in range(epochs):
        loss, grad_w, grad_b = loss_and_grad(w, b)
        if abs(prev - loss) < tolerance:
            break
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
        prev = loss
    return loss_and_grad(w, b)[0]


@st.composite
def _overlapping_classes(draw):
    """Unit-norm rows with noisy linear labels, plus a copy of the first row
    under the other label so that no hyperplane separates the classes; and
    an ``l2_lambda`` > 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 80))
    dim = draw(st.integers(1, 16))
    X = rng.normal(size=(n, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    noise = draw(st.sampled_from([0.1, 0.5, 2.0]))
    y = (X @ rng.normal(size=dim) + noise * rng.normal(size=n) > 0).astype(float)
    return (np.vstack([X, X[:1]]), np.append(y, 1.0 - y[0]),
            draw(st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1])))


# Rows [x, 1] with |x| = 1 bound the Hessian by (2/4 + l2_lambda) I <= 0.6 I,
# so a fit that stops on g'H^-1 g / 2 < 1e-7 (the default tolerance) has
# |g|^2 < 0.6 * 2e-7, that is |g| < 3.5e-4.
GRADIENT_BOUND = 3.5e-4


@settings(max_examples=60, deadline=None)
@given(_overlapping_classes())
def test_newton_gradient_at_fit_below_bound(data):
    X, y, l2_lambda = data
    model = train_logreg(X, y, TrainConfig(l2_lambda=l2_lambda))
    assert model.converged
    _, grad = loss_gradient(model, X, y)
    assert np.abs(grad).max() < GRADIENT_BOUND


@settings(max_examples=60, deadline=None)
@given(_overlapping_classes())
def test_newton_loss_never_above_gradient_descent(data):
    # gradient descent as the experiments ran it: step 1.0, 2000 epochs,
    # stopping at an improvement below 1e-6
    X, y, l2_lambda = data
    newton = train_logreg(X, y, TrainConfig(l2_lambda=l2_lambda))
    assert newton.final_loss <= _gradient_descent(X, y, l2_lambda, 1.0, 2000, 1e-6)


# brute-force Bayes oracle: plain-float joint probabilities, recomputed from
# raw counts with the same +1-slot smoothing convention
def _oracle_nb(feature_counts, labels, alpha):
    classes = ("negative", "positive")
    doc_counts = {c: 0 for c in classes}
    token_counts = {c: Counter() for c in classes}
    vocab = set()
    for counts, label in zip(feature_counts, labels):
        doc_counts[label] += 1
        token_counts[label].update(counts)
        vocab |= set(counts)

    def posterior_positive(counts):
        joint = {}
        for c in classes:
            total = sum(token_counts[c].values())
            denom = total + alpha * (len(vocab) + 1)
            p = doc_counts[c] / sum(doc_counts.values())
            for feat, k in counts.items():
                if feat in vocab:
                    p_feat = (token_counts[c][feat] + alpha) / denom
                else:
                    p_feat = alpha / denom
                p *= p_feat ** k
            joint[c] = p
        return joint["positive"] / (joint["positive"] + joint["negative"])

    return posterior_positive


class TestNaiveBayes:
    def test_toy_posterior_hand_computed(self):
        # vocabulary {sick, flu, "sick flu", shot, "flu shot"}, alpha=1:
        # P(sick|+) = 2/9, P(sick|-) = 1/9, equal priors -> posterior 2/3
        docs = [ngram_counts(["sick", "flu"]), ngram_counts(["flu", "shot"])]
        model = train_nb(FeatureCounts.from_multisets(docs), ["positive", "negative"], alpha=1.0)
        post = nb_predict_proba(model, Counter({"sick": 1}))
        assert post == pytest.approx(2 / 3, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(13)
        vocab = [f"w{i}" for i in range(8)]
        docs = []
        labels = []
        for i in range(30):
            tokens = [vocab[rng.integers(8)] for _ in range(int(rng.integers(1, 6)))]
            docs.append(ngram_counts(tokens))
            labels.append("positive" if rng.random() < 0.5 else "negative")
        if len(set(labels)) < 2:
            labels[0] = "positive"
            labels[1] = "negative"
        model = train_nb(FeatureCounts.from_multisets(docs), labels, alpha=0.7)
        oracle = _oracle_nb(docs, labels, alpha=0.7)
        for _ in range(50):
            tokens = [vocab[rng.integers(8)] for _ in range(int(rng.integers(0, 6)))]
            query = ngram_counts(tokens)
            np.testing.assert_allclose(
                nb_predict_proba(model, query), oracle(query), atol=1e-9)

    def test_unseen_token_gets_smoothing_mass(self):
        docs = [Counter({"a": 2}), Counter({"b": 2})]
        model = train_nb(FeatureCounts.from_multisets(docs), ["positive", "negative"])
        p = nb_predict_proba(model, Counter({"never-seen": 3}))
        assert 0.0 < p < 1.0
        assert p == pytest.approx(0.5)  # symmetric training data

    def test_priors_proportional_to_counts(self):
        docs = [Counter({"a": 1})] * 3 + [Counter({"b": 1})]
        model = train_nb(FeatureCounts.from_multisets(docs), ["positive"] * 3 + ["negative"])
        np.testing.assert_allclose(np.exp(model.log_priors), [0.25, 0.75])

    def test_likelihoods_sum_to_one(self):
        rng = np.random.default_rng(4)
        docs = [ngram_counts([f"t{rng.integers(10)}" for _ in range(5)])
                for _ in range(20)]
        labels = ["positive" if i % 2 else "negative" for i in range(20)]
        model = train_nb(FeatureCounts.from_multisets(docs), labels, alpha=0.5)
        for ci in range(2):
            total = sum(np.exp(v[ci]) for v in model.log_likelihoods.values())
            total += np.exp(model.log_oov[ci])
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_posterior_complements_sum_to_one(self):
        docs = [Counter({"a": 1}), Counter({"b": 1})]
        model = train_nb(FeatureCounts.from_multisets(docs), ["positive", "negative"])
        for counts in (Counter({"a": 2}), Counter({"a": 1, "b": 1})):
            p = nb_predict_proba(model, counts)
            flipped = train_nb(FeatureCounts.from_multisets(docs), ["negative", "positive"])
            q = nb_predict_proba(flipped, counts)
            assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_no_underflow_on_long_documents(self):
        docs = [Counter({"a": 1, "b": 2}), Counter({"c": 1})]
        model = train_nb(FeatureCounts.from_multisets(docs), ["positive", "negative"])
        long_doc = Counter({"a": 4000, "b": 3000, "c": 3000})
        p = nb_predict_proba(model, long_doc)
        assert np.isfinite(p) and 0.0 < p < 1.0

    def test_single_class_rejected(self):
        with pytest.raises(LearnerError, match="both classes"):
            train_nb(FeatureCounts.from_multisets([Counter({"a": 1})]), ["positive"])

    def test_alpha_positive(self):
        with pytest.raises(LearnerError, match="alpha"):
            train_nb(FeatureCounts.from_multisets([Counter({"a": 1}), Counter({"b": 1})]),
                     ["positive", "negative"], alpha=0.0)

    def test_likelihoods_are_a_read_only_mapping(self):
        docs = [ngram_counts(["sick", "flu"]), ngram_counts(["flu", "shot"])]
        model = train_nb(FeatureCounts.from_multisets(docs), ["positive", "negative"])
        likelihoods = model.log_likelihoods
        assert list(likelihoods) == ["sick", "flu", "sick flu", "shot", "flu shot"]
        assert likelihoods.get("never") is None and "never" not in likelihoods
        np.testing.assert_array_equal(likelihoods["flu"], likelihoods.values()[1])
        with pytest.raises(TypeError):
            likelihoods["flu"] = np.zeros(2)
        with pytest.raises(ValueError, match="read-only"):
            likelihoods["flu"][0] = 0.0


def test_ngram_counts_unigrams_and_bigrams():
    counts = ngram_counts(["a", "b", "a"])
    assert counts == Counter({"a": 2, "b": 1, "a b": 1, "b a": 1})


def test_load_model_unknown_kind(tmp_path):
    # codecomp records are the one model file; NB and bare logistic models
    # are not read from one
    path = tmp_path / "x.json"
    for kind in ("mystery", "nb", "logreg"):
        path.write_text(json.dumps({"kind": kind}), encoding="utf-8")
        with pytest.raises(LearnerError, match=f"unknown model kind '{kind}'"):
            load_model(path)


def test_save_model_rejects_models_it_cannot_load_back(tmp_path):
    nb = train_nb(FeatureCounts.from_multisets([Counter({"flu": 1}), Counter({"sick": 1})]),
                  ["positive", "negative"])
    logreg = _zero_model(3)
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"previous")
    for model in (nb, logreg):
        with pytest.raises(LearnerError, match=f"got {type(model).__name__}"):
            save_model(model, tmp_path / "new.json")
        with pytest.raises(LearnerError, match="only codecomp models"):
            save_model(model, kept)
    # rejected before the file is opened: nothing created, nothing truncated
    assert not (tmp_path / "new.json").exists()
    assert kept.read_bytes() == b"previous"
