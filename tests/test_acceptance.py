"""Acceptance suite: one test per criterion, each printing a PASS or FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here; the directional check
(criterion 8) uses the frozen synthetic-corpus configuration measured in
with comfortable margins.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np

from codecomp.baselines import EMConfig, em_fit
from codecomp.cli import main as cli_main
from codecomp.concepts import (
    NEGATIVE,
    POSITIVE,
    UNLABELED,
    load_lexicons,
    extract_human_mentions,
    process_document,
    synthesize_document,
    token_surfaces,
)
from codecomp.context import HashedWindowProvider
from codecomp.corpus import SampleSpec, sample_labeled, stratified_folds
from codecomp.cotrain import (
    CoConfig,
    CoDecompModel,
    Example,
    ViewInstances,
    build_examples,
    cotrain_fit,
    mil_example_score,
    predict,
)
from codecomp.evaluation import CoDecompSpec, ablation_table
from codecomp.learners import (
    FeatureCounts,
    LogRegModel,
    TrainConfig,
    loss_gradient,
    nb_predict_proba,
    ngram_counts,
    train_logreg,
    train_nb,
)
from codecomp.synthetic import decomposable_corpus

LEXICONS = load_lexicons()


def _report(number, name, elapsed, budget):
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {verdict} in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")
    assert elapsed < budget


def _probability_model(probs):
    """Single-instance views driven by pure-bias classifiers."""
    cfg = TrainConfig()
    classifiers = [
        LogRegModel(weights=np.zeros(1), bias=float(np.log(p / (1 - p))),
                    config=cfg)
        for p in probs
    ]
    model = CoDecompModel(
        kcs_names=tuple(f"v{i}" for i in range(len(probs))),
        classifiers=classifiers, co_config=CoConfig(), train_config=cfg)
    example = Example(
        doc_id="x",
        views=[ViewInstances(np.zeros((1, 1)), [UNLABELED]) for _ in probs])
    return model, example


def test_criterion_01_aggregation_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        j = int(rng.integers(1, 4))
        probs = rng.uniform(0.001, 0.999, size=j)
        model, example = _probability_model(probs)
        label, _ = predict(model, example)
        expected = POSITIVE if np.prod(probs) >= np.prod(1 - probs) else NEGATIVE
        assert label == expected
        if j == 1:
            assert label == (POSITIVE if probs[0] >= 0.5 else NEGATIVE)
    _report(1, "aggregation oracle", time.perf_counter() - start, 1.0)


def test_criterion_02_mil_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(10_000):
        n = int(rng.integers(1, 51))
        probs = rng.integers(0, 7, size=n) / 6.0  # coarse grid forces ties
        got = mil_example_score(probs)
        best, idx = -1.0, -1
        for i, p in enumerate(probs):
            if p > best:
                best, idx = p, i
        assert got == (best, idx)
    _report(2, "bag-score oracle", time.perf_counter() - start, 1.0)


def test_criterion_03_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    h = 1e-5
    for _ in range(100):
        dim = int(rng.integers(1, 21))
        n = int(rng.integers(2, 30))
        X = rng.normal(size=(n, dim))
        y = (rng.random(n) < 0.5).astype(float)
        model = LogRegModel(
            weights=rng.normal(size=dim) * 0.7, bias=float(rng.normal() * 0.7),
            config=TrainConfig(l2_lambda=float(rng.uniform(0, 0.1))))

        def loss_at(theta):
            probe = LogRegModel(weights=theta[:dim], bias=float(theta[dim]),
                                config=model.config)
            return loss_gradient(probe, X, y)[0]

        theta = np.append(model.weights, model.bias)
        _, analytic = loss_gradient(model, X, y)
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = h
            numeric[i] = (loss_at(theta + bump) - loss_at(theta - bump)) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-4
    _report(3, "gradient vs finite differences", time.perf_counter() - start, 5.0)


def test_criterion_04_nb_bruteforce_oracle():
    start = time.perf_counter()
    vocab = [f"t{i}" for i in range(10)]
    rng = np.random.default_rng(104)
    train_docs = []
    labels = []
    for i in range(24):
        tokens = [vocab[rng.integers(10)] for _ in range(int(rng.integers(1, 6)))]
        train_docs.append(ngram_counts(tokens))
        labels.append(POSITIVE if i % 3 else NEGATIVE)
    alpha = 1.0
    model = train_nb(FeatureCounts.from_multisets(train_docs), labels, alpha=alpha)

    # independent oracle: plain-float joint probabilities from raw counts
    class_docs = {POSITIVE: 0, NEGATIVE: 0}
    class_tokens = {POSITIVE: Counter(), NEGATIVE: Counter()}
    seen = set()
    for counts, label in zip(train_docs, labels):
        class_docs[label] += 1
        class_tokens[label].update(counts)
        seen |= set(counts)
    denoms = {c: sum(class_tokens[c].values()) + alpha * (len(seen) + 1)
              for c in class_docs}

    def oracle(counts):
        joint = {}
        for c in class_docs:
            p = class_docs[c] / 24
            for feat, k in counts.items():
                num = class_tokens[c][feat] + alpha if feat in seen else alpha
                p *= (num / denoms[c]) ** k
            joint[c] = p
        return joint[POSITIVE] / (joint[POSITIVE] + joint[NEGATIVE])

    checked = 0
    for length in range(6):
        for sequence in itertools.product(vocab, repeat=length):
            counts = ngram_counts(list(sequence))
            assert abs(nb_predict_proba(model, counts) - oracle(counts)) < 1e-9
            checked += 1
    assert checked == 111_111  # every document of length <= 5
    _report(4, "naive Bayes oracle", time.perf_counter() - start, 5.0)


def test_criterion_05_em_monotone_log_likelihood():
    start = time.perf_counter()
    docs, _ = decomposable_corpus(40, seed=7, positive_rate=0.4)
    _, trace = em_fit(docs[:20], docs[20:],
                      EMConfig(max_iterations=25, convergence_tolerance=0.0))
    assert len(trace) == 25
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-9)
    _report(5, "EM log-likelihood monotone", time.perf_counter() - start, 5.0)


def test_criterion_06_fold_protocol():
    start = time.perf_counter()
    docs, _ = decomposable_corpus(2013, seed=60, positive_rate=0.11)
    positives = {d.id for d in docs if d.gold_label == POSITIVE}
    assert len(positives) in (221, 222)
    plan = stratified_folds(docs, k=10, seed=613)
    again = stratified_folds(docs, k=10, seed=613)
    assert dict(plan.assignments) == dict(again.assignments)
    assert sorted(plan.assignments) == sorted(d.id for d in docs)  # partition
    per_fold = Counter(plan.assignments[i] for i in positives)
    for fold in range(10):
        assert 21 <= per_fold[fold] <= 23  # 22 +/- 1
    _report(6, "stratified fold protocol", time.perf_counter() - start, 1.0)


def _vectorized_pools(n_docs, n_labeled, seed):
    docs, preset = decomposable_corpus(n_docs, seed=seed, positive_rate=0.4,
                                       ambiguity=0.15)
    names = tuple(k.name for k in preset.kcs_list)
    provider = HashedWindowProvider(window=2, dim=64)
    pdocs = [process_document(d, preset, LEXICONS) for d in docs]
    examples = build_examples(pdocs, provider, names)
    labeled_docs, unlabeled_docs = sample_labeled(docs, SampleSpec(n_labeled, 17))
    by_id = {e.doc_id: e for e in examples}
    labeled = [by_id[d.id] for d in labeled_docs]
    unlabeled = [
        Example(e.doc_id, [ViewInstances(v.vectors, [UNLABELED] * v.size)
                           for v in e.views])
        for e in (by_id[d.id] for d in unlabeled_docs)
    ]
    return labeled, unlabeled, examples, names


def test_criterion_07_cotrain_bookkeeping():
    start = time.perf_counter()
    cfg = TrainConfig(epochs=400, convergence_tolerance=1e-6)
    labeled, unlabeled, examples, names = _vectorized_pools(500, 60, seed=70)
    total = len(labeled) + len(unlabeled)

    model = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=10), cfg,
                        kcs_names=names)
    promoted = []
    for record in model.iteration_log:
        assert len(record.promotions) <= 4  # J=2, one positive + one negative each
        assert record.labeled_examples + record.unlabeled_examples == total
        promoted.extend(p["doc_id"] for p in record.promotions)
    assert len(promoted) == len(set(promoted))
    assert any(model.iteration_log[i].promotions for i in range(len(model.iteration_log) - 1))

    # K_iters=0 must equal per-view classifiers trained independently and
    # combined by the product rule
    base = cotrain_fit(labeled, unlabeled, 2, CoConfig(iterations=0), cfg,
                       kcs_names=names)
    for j in range(2):
        rows, targets = [], []
        for ex in labeled:
            for i, lab in enumerate(ex.views[j].labels):
                if lab in (POSITIVE, NEGATIVE):
                    rows.append(ex.views[j].vectors[i])
                    targets.append(1.0 if lab == POSITIVE else 0.0)
        independent = train_logreg(np.vstack(rows), np.asarray(targets), cfg)
        np.testing.assert_array_equal(base.classifiers[j].weights,
                                      independent.weights)
        assert base.classifiers[j].bias == independent.bias

        for ex in examples[:100]:
            label, score = predict(base, ex)
            clip = lambda p: min(max(p, 1e-6), 1 - 1e-6)
            manual = []
            for v, classifier in zip(ex.views, base.classifiers):
                if v.size == 0:
                    manual.append(0.5)
                else:
                    z = v.vectors @ classifier.weights + classifier.bias
                    manual.append(clip(float(np.max(1 / (1 + np.exp(-z))))))
            expected = POSITIVE if np.prod(manual) >= np.prod([1 - p for p in manual]) \
                else NEGATIVE
            assert label == expected
    _report(7, "co-training bookkeeping", time.perf_counter() - start, 10.0)


def test_criterion_08_directional_ablation():
    start = time.perf_counter()
    docs, preset = decomposable_corpus(2000, seed=42, positive_rate=0.4,
                                       ambiguity=0.15, class_vocab=30)
    spec = CoDecompSpec(
        preset=preset,
        provider=HashedWindowProvider(window=2, dim=64),
        co_config=CoConfig(iterations=25),
        train_config=TrainConfig(learning_rate=4.0, epochs=1500,
                                 convergence_tolerance=1e-6),
        lexicons=LEXICONS,
    )
    table = ablation_table(docs, spec, [25], k_folds=10,
                           sample_spec=SampleSpec(100, 7), repetitions=5)
    single_best = max(table["alpha-cl"]["f1"], table["beta-cl"]["f1"])
    combined = table["combined"]["f1"]
    cotrained = table["+25-itr"]["f1"]
    print(f"\n  alpha-cl={table['alpha-cl']['f1']:.4f} "
          f"beta-cl={table['beta-cl']['f1']:.4f} "
          f"combined={combined:.4f} +25-itr={cotrained:.4f}")
    assert combined >= single_best - 0.01
    assert cotrained >= combined
    _report(8, "directional ablation ordering", time.perf_counter() - start, 120.0)


def test_criterion_09_rule_fidelity():
    start = time.perf_counter()

    def rewritten(text):
        out, _ = synthesize_document(token_surfaces(text), text, LEXICONS)
        return out

    # the five sentence-start rewrites
    assert rewritten("went to the hospital") == ["i", "went", "to", "the", "hospital"]
    assert rewritten("sick of this flu") == ["i", "am", "sick", "of", "this", "flu"]
    assert rewritten("diagnosed with flu") == ["i", "have", "diagnosed", "with", "flu"]
    assert rewritten("coughing all night") == ["i", "am", "coughing", "all", "night"]
    assert rewritten("is feeling sick") == ["i", "am", "feeling", "sick"]
    assert rewritten("the earthquake hit") == ["the", "earthquake", "hit"]

    # the three detector rules: pronouns, @-handles, person dictionary
    surfaces = [m.surface for m in extract_human_mentions(
        token_surfaces("@mary and my friend"), LEXICONS)]
    assert surfaces == ["@mary", "my", "friend"]
    # "it" is never a human mention
    assert extract_human_mentions(token_surfaces("it hurts"), LEXICONS) == []
    _report(9, "mention rule fidelity", time.perf_counter() - start, 1.0)


def test_criterion_10_cli_reproducibility(tmp_path):
    start = time.perf_counter()
    docs, _ = decomposable_corpus(120, seed=10, positive_rate=0.4,
                                  ambiguity=0.15)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"id": d.id, "text": d.text,
                                 "gold_label": d.gold_label}) + "\n")
    preset = tmp_path / "twoview.ini"
    preset.write_text(
        "[alpha]\nkind = keyword\nkeywords = alpha\n\n"
        "[beta]\nkind = keyword\nkeywords = beta\n", encoding="utf-8")
    out = tmp_path / "out"
    config = tmp_path / "config.ini"
    config.write_text(f"""\
[experiment]
task = {preset}
corpus = {corpus}
output = {out}
k_folds = 3
n_labeled = 30
repetitions = 2
master_seed = 5

[provider]
kind = hashed
window = 2
dim = 32

[cotrain]
iterations = 2

[learner]
learning_rate = 4.0
epochs = 200
convergence_tolerance = 1e-6
""", encoding="utf-8")
    assert cli_main(["evaluate", "--config", str(config),
                     "--model", "codecomp"]) == 0
    first_json = (out / "report_codecomp.json").read_bytes()
    first_csv = (out / "report_codecomp.csv").read_bytes()
    assert cli_main(["evaluate", "--config", str(config),
                     "--model", "codecomp"]) == 0
    assert (out / "report_codecomp.json").read_bytes() == first_json
    assert (out / "report_codecomp.csv").read_bytes() == first_csv
    _report(10, "CLI report reproducibility", time.perf_counter() - start, 60.0)
