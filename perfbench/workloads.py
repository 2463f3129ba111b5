"""The three workloads: inputs, set-up, one timed round, and output checks.

A workload generates its inputs from the seed into its work directory,
sets up the way the CLI would (``setup``), and then runs rounds of a fixed
amount of work (``round``): ``ops_per_round`` operations, returning the
report bytes and the outputs the checkers read. ``check`` runs after
timing and returns the workload's F1 and how many operations of a round
failed.

Every call into the program goes through a module attribute
(``evaluation.ablation_table``, not a name imported from it), so the
wrappers in ``taps`` see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

import checks
import gen
from codecomp import (
    baselines,
    cli,
    concepts,
    context,
    corpus,
    cotrain,
    evaluation,
    learners,
    presets,
)

SRC_DATA = Path(__file__).resolve().parent.parent / "src" / "codecomp" / "data"


def _fold_rows(calls, names):
    """Fold rows for ``checks.check_fold_counts`` from recorded
    ``compute_metrics`` calls, which come fold by fold and, within a fold,
    in the order of ``names``."""
    rows = []
    for i, (args, m) in enumerate(calls):
        rows.append({
            "name": names[i % len(names)], "rep": 0, "fold": i // len(names),
            "predictions": args[0],
            "tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn,
            "precision": m.precision, "recall": m.recall, "f1": m.f1,
        })
    return rows


def _check_cotrain_calls(calls):
    for args, model in calls:
        labeled, unlabeled, n_views, co_config = args[:4]
        checks.check_cotrain_log(
            [asdict(r) for r in model.iteration_log],
            [ex.doc_id for ex in labeled], [ex.doc_id for ex in unlabeled],
            n_views, co_config.promotions_per_view, co_config.confidence_floor)


def _log_prior(args, model):
    """Dirichlet log-prior that a Laplace-smoothed NB estimate maximises:
    alpha times the sum of every class's log-likelihoods, unseen slot
    included. The class priors are unsmoothed and add nothing."""
    alpha = args[2]
    rows = np.fromiter((v for row in model.log_likelihoods.values() for v in row), float)
    return alpha * (float(rows.sum()) + float(model.log_oov.sum()))


def _bags(examples):
    return {ex.doc_id: [v.vectors for v in ex.views] for ex in examples}


def _classifiers(model):
    return [(c.weights, c.bias) for c in model.classifiers]


class Workload:
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir


class AblateSynth(Workload):
    """``evaluation.ablation_table`` on the criterion-8 corpus and settings."""

    name = "ablate-synth"
    n_docs, k_folds, n_labeled, iterations = 2000, 10, 100, 25
    ops_per_round = k_folds

    def generate(self):
        records, self.gold = gen.two_view_corpus(self.n_docs, self.seed)
        gen.write_jsonl(records, self.dir / "corpus.jsonl")
        (self.dir / "preset.ini").write_text(gen.TWO_VIEW_PRESET, encoding="utf-8")

    def tap(self, recorder):
        recorder.tap(evaluation, "compute_metrics", "compute_metrics")
        recorder.tap(cotrain, "predict_many", "predict_many")
        recorder.tap(cotrain, "cotrain_fit", "cotrain_fit")

    def setup(self):
        lexicons = concepts.load_lexicons()
        preset = presets.load_preset_file(self.dir / "preset.ini",
                                          name="synthetic-two-view")
        self.docs = corpus.load_corpus(self.dir / "corpus.jsonl")
        self.spec = evaluation.CoDecompSpec(
            preset=preset,
            provider=context.HashedWindowProvider(window=2, dim=64),
            co_config=cotrain.CoConfig(iterations=self.iterations),
            train_config=learners.TrainConfig(learning_rate=4.0, epochs=1500,
                                              convergence_tolerance=1e-6),
            lexicons=lexicons,
        )

    def round(self):
        table = evaluation.ablation_table(
            self.docs, self.spec, [self.iterations], k_folds=self.k_folds,
            sample_spec=corpus.SampleSpec(self.n_labeled, self.seed),
            repetitions=1)
        return evaluation.ablation_csv(table).encode(), table

    def check(self, recorder, table):
        calls = recorder.calls
        checks.check_fold_counts(_fold_rows(calls["compute_metrics"], list(table)),
                                 table, self.gold, self.k_folds)
        if len(calls["cotrain_fit"]) != self.k_folds:
            raise checks.CheckError(f"{len(calls['cotrain_fit'])} co-training runs")
        _check_cotrain_calls(calls["cotrain_fit"])
        for (model, examples), labels in calls["predict_many"]:
            checks.check_product_rule(_classifiers(model), _bags(examples), labels,
                                      model.co_config.neutral_prob)
        return table[f"+{self.iterations}-itr"]["f1"], 0


class EvaluateEmNb(Workload):
    """``evaluation.run_experiment`` for EM, then NB, on a two-view corpus,
    then one ``em_fit`` on a fixed input whose likelihood trace falls.

    EM runs with tolerance 0, so every fit makes all of its iterations and
    a round does the same work whatever the seed. With the CLI's default
    tolerance (1e-6) a fit stops after 5 to 20 iterations, and a round's
    EM work differs by up to 2x from seed to seed.

    Every fit's trace must rise in the objective its M-step maximises (the
    likelihood plus the Laplace smoothing's Dirichlet log-prior). The fixed
    fit is the one operation that fails: its reported trace, the likelihood
    alone, must also rise, and on this input, which no seed changes, it
    falls at the second iteration, by about 2.3. The seeded folds'
    reported traces are not held to that: they fall in some folds of some
    seeds only, which would make the failed share depend on the seed.
    """

    name = "evaluate-em-nb"
    n_docs, k_folds, n_labeled = 300, 5, 100
    ops_per_round = 2 * k_folds + 1
    probe_docs, probe_labeled, probe_seed = 150, 30, 22

    def generate(self):
        # less view noise than criterion 8, so that F1 varies less by seed
        records, self.gold = gen.two_view_corpus(self.n_docs, self.seed,
                                                 view_noise=0.1, confusion_rate=0.3)
        gen.write_jsonl(records, self.dir / "corpus.jsonl")
        probe, _ = gen.two_view_corpus(self.probe_docs, self.probe_seed)
        gen.write_jsonl(probe[:self.probe_labeled]
                        + [gen.hide_gold(r) for r in probe[self.probe_labeled:]],
                        self.dir / "probe.jsonl")

    def tap(self, recorder):
        recorder.tap(evaluation, "compute_metrics", "compute_metrics")
        recorder.tap(evaluation, "em_fit", "em_fit")
        recorder.tap(evaluation, "nb_baseline_fit", "nb_baseline_fit")
        # every M-step of every EM fit, the probe's too; only the model's
        # log-prior is kept, since a round fits over a hundred models
        recorder.tap(baselines, "_train_nb_weighted", "m_step", keep=_log_prior)

    def setup(self):
        self.docs = corpus.load_corpus(self.dir / "corpus.jsonl")
        probe = corpus.load_corpus(self.dir / "probe.jsonl")
        self.probe = (probe[:self.probe_labeled], probe[self.probe_labeled:])
        self.specs = (
            evaluation.EMSpec(em_config=baselines.EMConfig(convergence_tolerance=0.0)),
            evaluation.NBSpec(),
        )

    def round(self):
        reports = [
            evaluation.run_experiment(self.docs, spec, self.k_folds,
                                      corpus.SampleSpec(self.n_labeled, self.seed),
                                      repetitions=1)
            for spec in self.specs
        ]
        _, probe_trace = baselines.em_fit(*self.probe)
        blob = "".join(r.to_json() + r.to_csv() for r in reports) + repr(probe_trace)
        return blob.encode(), (reports, probe_trace)

    def check(self, recorder, output):
        reports, probe_trace = output
        calls = recorder.calls
        k = self.k_folds
        metric_calls = calls["compute_metrics"]
        rows = (_fold_rows(metric_calls[:k], ["em"])
                + _fold_rows(metric_calls[k:], ["nb"]))
        # the reports must carry the counts compute_metrics returned
        for row, (rep, fold, m) in zip(rows, reports[0].runs + reports[1].runs):
            if (row["rep"], row["fold"], row["tp"], row["fp"], row["fn"], row["tn"]) \
                    != (rep, fold, m.tp, m.fp, m.fn, m.tn):
                raise checks.CheckError(f"report row {rep}/{fold} differs from "
                                        "the counts computed for it")
        checks.check_fold_counts(rows, {r.model: r.mean for r in reports},
                                 self.gold, k)

        if len(calls["em_fit"]) != k:
            raise checks.CheckError(f"{len(calls['em_fit'])} EM fits, expected {k}")
        traces = [trace for _, (_, trace) in calls["em_fit"]] + [probe_trace]
        # each fit makes one M-step to set up its vocabulary, then one per
        # iteration
        priors = calls["m_step"]
        if len(priors) != sum(1 + len(t) for t in traces):
            raise checks.CheckError(f"{len(priors)} M-steps for EM traces of "
                                    f"{[len(t) for t in traces]}")
        for trace in traces:
            checks.check_em_objective(trace, priors[1:1 + len(trace)])
            priors = priors[1 + len(trace):]

        # one sampled NB fold against a plain-Python Laplace estimate
        fold = self.seed % k
        (labeled,), model = calls["nb_baseline_fit"][fold]
        predictions = rows[k + fold]["predictions"]
        by_id = {d.id: d for d in self.docs}
        test_ids = sorted(predictions)
        program = [learners.nb_predict_proba(model, baselines.document_features(by_id[i]))
                   for i in test_ids]
        expected = checks.laplace_posteriors(
            [(d.text, self.gold[d.id]) for d in labeled],
            [by_id[i].text for i in test_ids], alpha=self.specs[1].alpha)
        checks.check_nb_posteriors(program, expected,
                                   [predictions[i] for i in test_ids])
        try:
            checks.check_em_trace(probe_trace)
            failed = 0
        except checks.CheckError as exc:
            print(f"perfbench: fixed EM fit failed: {exc}", file=sys.stderr)
            failed = 1
        return reports[0].mean["f1"], failed


class ClassifyAdr(Workload):
    """``codecomp train`` on an ADR-style corpus, then batched classification
    of a gold-hidden stream with the loaded model."""

    name = "classify-adr"
    setup_repeats = 3
    n_labeled_pool, n_unlabeled, n_labeled, n_stream, batch = 150, 250, 100, 2000, 100
    ops_per_round = n_stream

    def generate(self):
        drugs = gen.read_wordlist(SRC_DATA / "drug_names.txt")
        n_train = self.n_labeled_pool + self.n_unlabeled
        records, gold, planted = gen.adr_corpus(n_train + self.n_stream, self.seed, drugs)
        train = (records[:self.n_labeled_pool]
                 + [gen.hide_gold(r) for r in records[self.n_labeled_pool:n_train]])
        stream = records[n_train:]
        gen.write_jsonl(train, self.dir / "train.jsonl")
        gen.write_jsonl([gen.hide_gold(r) for r in stream], self.dir / "stream.jsonl")
        self.gold = {r["id"]: gold[r["id"]] for r in stream}
        self.planted = {r["id"]: planted[r["id"]] for r in stream}
        self.out = self.dir / "model"
        self.config = self.dir / "train.ini"
        self.config.write_text(
            "[experiment]\n"
            "task = adr\n"
            f"corpus = {self.dir / 'train.jsonl'}\n"
            f"output = {self.out}\n"
            f"n_labeled = {self.n_labeled}\n"
            f"master_seed = {self.seed}\n"
            "[provider]\nkind = hashed\nwindow = 3\ndim = 64\n"
            "[cotrain]\niterations = 25\n"
            "[learner]\nlearning_rate = 4.0\nepochs = 1500\n"
            "convergence_tolerance = 1e-6\n",
            encoding="utf-8")
        self.saved = []

    def tap(self, recorder):
        recorder.tap(cli, "cotrain_fit", "cotrain_fit")

    def setup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["train", "--config", str(self.config)])
        if status != 0:
            raise RuntimeError(f"codecomp train exited with {status}")
        self.model = learners.load_model(self.out / "model.json")
        spec = self.model.provider_spec
        if spec.get("kind") != "hashed":
            raise RuntimeError(f"unexpected provider {spec}")
        self.provider = context.HashedWindowProvider(window=spec["window"],
                                                     dim=spec["dim"])
        self.lexicons = concepts.load_lexicons()
        self.preset = presets.task_preset("adr")
        self.stream = corpus.load_corpus(self.dir / "stream.jsonl")
        self.saved.append(((self.out / "model.json").read_bytes(),
                           (self.out / "iterations.jsonl").read_bytes()))

    def round(self):
        labels, examples = {}, []
        for start in range(0, len(self.stream), self.batch):
            pdocs = [concepts.process_document(d, self.preset, self.lexicons)
                     for d in self.stream[start:start + self.batch]]
            batch = cotrain.build_examples(pdocs, self.provider, self.model.kcs_names)
            labels.update(cotrain.predict_many(self.model, batch))
            examples.extend(batch)
        blob = json.dumps([[d.id, labels[d.id]] for d in self.stream]).encode()
        return blob, (labels, examples)

    def check(self, recorder, output):
        labels, examples = output
        model = self.model
        checks.check_identical([m for m, _ in self.saved])
        checks.check_identical([it for _, it in self.saved])
        (labeled, unlabeled, *_), _ = recorder.calls["cotrain_fit"][0]
        log = [json.loads(line) for line in self.saved[0][1].decode().splitlines()]
        checks.check_cotrain_log(
            log, [ex.doc_id for ex in labeled], [ex.doc_id for ex in unlabeled],
            model.n_views, model.co_config.promotions_per_view,
            model.co_config.confidence_floor)

        checks.check_bag_sizes(
            {ex.doc_id: {name: v.size for name, v in zip(model.kcs_names, ex.views)}
             for ex in examples},
            self.planted)
        dim = model.classifiers[0].weights.shape[0]
        if model.provider_spec["dim"] != dim:
            raise checks.CheckError(f"provider dim {model.provider_spec['dim']}, "
                                    f"model dim {dim}")
        checks.check_vectors([v.vectors for ex in examples for v in ex.views], dim)
        checks.check_product_rule(_classifiers(model), _bags(examples), labels,
                                  model.co_config.neutral_prob)

        counts = checks.confusion(labels, self.gold)
        return checks.prf(counts["tp"], counts["fp"], counts["fn"])[2], 0


WORKLOADS = {w.name: w for w in (AblateSynth, EvaluateEmNb, ClassifyAdr)}
