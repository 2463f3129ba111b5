"""The benchmark under perfbench/ wraps program functions by module and
attribute name; a rename in the program must not leave one of them behind,
and a rewrite must not route the work around them."""

from pathlib import Path

from codecomp import concepts, cotrain
from codecomp.cotrain import CoConfig, Example
from codecomp.baselines import EMConfig
from codecomp.context import HashedWindowProvider
from codecomp.corpus import Document, SampleSpec
from codecomp.evaluation import CoDecompSpec, EMSpec, NBSpec, ablation_table, run_experiment
from codecomp.learners import NBModel, TrainConfig
from codecomp.presets import task_preset
from codecomp.synthetic import decomposable_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Lookups:
    """Stands in for the benchmark's Tracer and Recorder: looks up each
    attribute they would wrap, and wraps nothing."""

    def __init__(self):
        self.sites = []

    def wrap(self, module, attr, *args, **kwargs):
        self.sites.append((module, attr, getattr(module, attr, None)))

    tap = wrap


def test_every_wrapped_attribute_is_a_program_function(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    lookups = _Lookups()
    run.trace_layers(lookups)
    traced = len(lookups.sites)
    for workload in workloads.WORKLOADS.values():
        workload(seed=1, workdir=tmp_path).tap(lookups)
    assert traced > 20 and len(lookups.sites) > traced
    missing = [f"{module.__name__}.{attr}" for module, attr, found in lookups.sites
               if not callable(found)]
    assert missing == []


def test_one_document_reaches_every_concepts_and_context_layer(monkeypatch, lexicons):
    # the per-layer metrics read a layer's calls and time; a layer that the
    # program no longer calls through its wrapped name would read 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import taps

    class Tracer(taps.Tracer):
        def __init__(self):
            super().__init__()
            self.layers = set()

        def wrap(self, module, attr, key, **kwargs):
            self.layers.add(key)
            super().wrap(module, attr, key, **kwargs)

    preset = task_preset("adr")
    doc = Document(id="1", text="went to the er. my mom took pepto bismol\nis fine")
    tracer = Tracer()
    run.trace_layers(tracer)
    try:
        pdoc = concepts.process_document(doc, preset, lexicons)
        cotrain.build_examples([pdoc], HashedWindowProvider(window=3, dim=64),
                               [k.name for k in preset.kcs_list])
    finally:
        tracer.remove()
    layers = sorted(k for k in tracer.layers if k.startswith(("concepts.", "context.")))
    assert len(layers) == 5
    assert [k for k in layers if tracer.calls[k] == 0] == []
    assert tracer.counts["concepts.mentions"] == 5  # i, my, mom, pepto bismol, i


def test_em_and_nb_folds_reach_the_sites_the_benchmark_records(monkeypatch, tmp_path):
    # the evaluate-em-nb checker reads each fold's EM fit, NB fit and every
    # M-step through the calls it records; a fit routed around these names
    # would fail only there, as outputs the benchmark reports incorrect
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import taps
    import workloads

    docs, _ = decomposable_corpus(120, seed=4, positive_rate=0.4)
    k = 3
    recorder = taps.Recorder()
    workloads.EvaluateEmNb(seed=1, workdir=tmp_path).tap(recorder)
    try:
        for spec in (EMSpec(em_config=EMConfig(max_iterations=4, convergence_tolerance=0.0)),
                     NBSpec()):
            run_experiment(docs, spec, k, SampleSpec(30, 2), repetitions=1)
    finally:
        recorder.remove()
    calls = recorder.calls
    assert len(calls["em_fit"]) == k
    traces = []
    for args, result in calls["em_fit"]:
        model, trace = result
        assert isinstance(model, NBModel) and len(trace) == 4
        traces.append(trace)
    assert len(calls["nb_baseline_fit"]) == k
    for args, model in calls["nb_baseline_fit"]:
        assert len(args) == 1 and len(args[0]) == 30
        assert isinstance(model, NBModel)
    # one M-step per fit to set up its vocabulary, then one per iteration;
    # NB fits make none under that name
    assert len(calls["m_step"]) == sum(1 + len(t) for t in traces)
    assert len(calls["compute_metrics"]) == 2 * k


def test_ablation_folds_reach_the_sites_the_benchmark_records(monkeypatch, tmp_path):
    # the ablate-synth checker reads each fold's co-training run, every
    # product-rule prediction and the per-fold confusion counts through the
    # calls it records; an ablation routed around these names would fail
    # only there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import taps
    import workloads

    docs, preset = decomposable_corpus(120, seed=4, positive_rate=0.4)
    k, settings = 3, [1, 2]
    spec = CoDecompSpec(preset=preset, provider=HashedWindowProvider(window=2, dim=16),
                        co_config=CoConfig(iterations=2),
                        train_config=TrainConfig(convergence_tolerance=1e-6))
    recorder = taps.Recorder()
    workloads.AblateSynth(seed=1, workdir=tmp_path).tap(recorder)
    try:
        table = ablation_table(docs, spec, settings, k, SampleSpec(30, 2), repetitions=1)
    finally:
        recorder.remove()
    calls = recorder.calls
    assert len(calls["cotrain_fit"]) == k
    for args, model in calls["cotrain_fit"]:
        labeled, unlabeled, n_views, co_config = args[:4]
        assert len(labeled) == 30 and len(unlabeled) > 0
        assert all(isinstance(ex, Example) for ex in labeled + unlabeled)
        assert n_views == 2 and isinstance(co_config, CoConfig)
        assert model.iteration_log
    workloads._check_cotrain_calls(calls["cotrain_fit"])
    assert len(calls["predict_many"]) == k * (1 + len(settings))
    for (model, examples), labels in calls["predict_many"]:
        assert len(model.classifiers) == 2
        assert model.co_config.neutral_prob == spec.co_config.neutral_prob
        checks.check_product_rule(workloads._classifiers(model), workloads._bags(examples),
                                  labels, model.co_config.neutral_prob)
    assert len(table) == 2 + 1 + len(settings)
    assert len(calls["compute_metrics"]) == k * len(table)
    # fold by fold, and within a fold in the table's variant order
    checks.check_fold_counts(workloads._fold_rows(calls["compute_metrics"], list(table)),
                             table, {d.id: d.gold_label for d in docs}, k)


def test_an_ablation_reaches_every_cotrain_and_logreg_layer(monkeypatch):
    # the per-layer metrics of ablate-synth read these layers' calls and
    # time; pool scoring routed around ``cotrain.predict_proba_batch``, or a
    # stage scored under another name, would read 0 and fail nothing else
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import taps

    docs, preset = decomposable_corpus(80, seed=4, positive_rate=0.4)
    spec = CoDecompSpec(preset=preset, provider=HashedWindowProvider(window=2, dim=16),
                        co_config=CoConfig(iterations=2),
                        train_config=TrainConfig(convergence_tolerance=1e-6))
    tracer = taps.Tracer()
    run.trace_layers(tracer)
    try:
        ablation_table(docs, spec, [1, 2], 2, SampleSpec(20, 2), repetitions=1)
    finally:
        tracer.remove()
    layers = ["learners.train_logreg", "cotrain.pool_scoring",
              "cotrain.single_view_predictions", "cotrain.predict_many"]
    assert [k for k in layers if tracer.calls[k] == 0] == []


def test_em_and_nb_folds_reach_every_baseline_layer(monkeypatch):
    # the per-layer metrics of evaluate-em-nb read these layers' calls and
    # time; NB folds scored, or a fit counted, under another name would
    # read 0 and fail nothing else
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import taps

    docs, _ = decomposable_corpus(80, seed=4, positive_rate=0.4)
    tracer = taps.Tracer()
    run.trace_layers(tracer)
    try:
        for spec in (EMSpec(em_config=EMConfig(max_iterations=2)), NBSpec()):
            run_experiment(docs, spec, 2, SampleSpec(20, 2), repetitions=1)
    finally:
        tracer.remove()
    layers = ["learners.train_nb", "learners.nb_predict_proba", "baselines.em_fit",
              "baselines.document_features", "corpus.stratified_folds",
              "corpus.sample_labeled", "evaluation.compute_metrics"]
    assert [k for k in layers if tracer.calls[k] == 0] == []
