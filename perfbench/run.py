"""Benchmark of codecomp: three workloads, output checks, per-layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ablate-synth --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (setup_s, run_s, peak_rss_mb, f1);
with ``--trace 1`` they are the per-layer ones of ``PER_LAYER`` plus the
traced round's time and the tracing overhead. See README.md in this
directory for what each workload does and why.

The program is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# set-up is timed from here, before numpy and the program are imported
STARTED = time.perf_counter()

# numpy reads these when it is first imported: one BLAS thread per process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("ablate-synth", "evaluate-em-nb", "classify-adr")

# Per-layer metrics printed by a traced run. A name ending in .calls,
# .busy_s or .self_s reads that figure of the layer named before the
# suffix; trace.* are the traced round's time and its excess over the
# untraced round; any other name is a counter.
PER_LAYER = (
    "concepts.process_document.calls",
    "concepts.process_document.busy_s",
    "concepts.extract_keyword_mentions.busy_s",
    "concepts.extract_human_mentions.busy_s",
    "concepts.synthesize_document.busy_s",
    "concepts.mentions",
    "context.context_of.calls",
    "context.context_of.busy_s",
    "cotrain.build_examples.self_s",
    "cotrain.cotrain_fit.calls",
    "cotrain.cotrain_fit.self_s",
    "cotrain.pool_scoring.busy_s",
    "cotrain.iterations",
    "cotrain.promotions",
    "cotrain.predict_many.calls",
    "cotrain.predict_many.docs",
    "cotrain.predict_many.busy_s",
    "cotrain.single_view_predictions.busy_s",
    "learners.train_logreg.calls",
    "learners.train_logreg.busy_s",
    "learners.train_logreg.rows",
    "learners.gd_epochs",
    "learners.fits_at_epoch_cap",
    "learners.train_nb.busy_s",
    "learners.nb_predict_proba.calls",
    "learners.nb_predict_proba.busy_s",
    "baselines.em_fit.calls",
    "baselines.em_fit.busy_s",
    "baselines.em_iterations",
    "baselines.document_features.busy_s",
    "corpus.load_corpus.busy_s",
    "corpus.stratified_folds.busy_s",
    "corpus.sample_labeled.busy_s",
    "evaluation.folds",
    "evaluation.compute_metrics.busy_s",
    "evaluation.self_s",
    "cli.train.busy_s",
    "trace.run_s",
    "trace.overhead_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time to spend in timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import codecomp from the checkout's src/; return the seconds since
    the process started running this file."""
    package = SRC / "codecomp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {package}")
    sys.path.insert(0, str(SRC))
    import codecomp
    import codecomp.cli  # noqa: F401  (the package does not import its CLI)
    if Path(codecomp.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported codecomp from {codecomp.__file__}, not {package}")
    return time.perf_counter() - STARTED


def trace_layers(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from codecomp import baselines, cli, concepts, corpus, cotrain, evaluation

    def mentions(c, args, pdoc):
        c["concepts.mentions"] += sum(len(b.instances) for b in pdoc.bags)

    def cotrain_log(c, args, model):
        c["cotrain.iterations"] += len(model.iteration_log)
        c["cotrain.promotions"] += sum(len(r.promotions) for r in model.iteration_log)

    def predicted(c, args, labels):
        c["cotrain.predict_many.docs"] += len(labels)

    def fit(c, args, model):
        c["learners.train_logreg.rows"] += len(args[0])
        c["learners.gd_epochs"] += model.epochs_run
        c["learners.fits_at_epoch_cap"] += model.epochs_run >= args[2].epochs

    def em(c, args, result):
        c["baselines.em_iterations"] += len(result[1])

    def fold(c, args, result):
        c["evaluation.folds"] += 1

    sites = (
        # (layer, attribute, modules that look it up, counter)
        ("concepts.process_document", "process_document", (concepts, evaluation, cli), mentions),
        ("concepts.extract_keyword_mentions", "extract_keyword_mentions", (concepts,), None),
        ("concepts.extract_human_mentions", "extract_human_mentions", (concepts,), None),
        ("concepts.synthesize_document", "synthesize_document", (concepts,), None),
        ("context.context_of", "context_of", (cotrain,), None),
        ("cotrain.build_examples", "build_examples", (cotrain, evaluation, cli), None),
        ("cotrain.cotrain_fit", "cotrain_fit", (cotrain, evaluation, cli), cotrain_log),
        ("cotrain.predict_many", "predict_many", (cotrain, evaluation), predicted),
        ("cotrain.single_view_predictions", "single_view_predictions", (cotrain,), None),
        ("learners.train_logreg", "train_logreg", (cotrain,), fit),
        ("learners.train_nb", "train_nb", (baselines,), None),
        ("learners.nb_predict_proba", "nb_predict_proba", (evaluation,), None),
        ("baselines.em_fit", "em_fit", (evaluation, baselines), em),
        ("baselines.document_features", "document_features", (evaluation, baselines), None),
        ("corpus.load_corpus", "load_corpus", (corpus, cli), None),
        ("corpus.stratified_folds", "stratified_folds", (evaluation,), None),
        ("corpus.sample_labeled", "sample_labeled", (cli,), None),
        ("corpus.sample_labeled", "sample_labeled", (evaluation,), fold),
        ("evaluation", "ablation_table", (evaluation,), None),
        ("evaluation", "run_experiment", (evaluation,), None),
        ("evaluation.compute_metrics", "compute_metrics", (evaluation,), None),
        ("cli.train", "cmd_train", (cli,), None),
    )
    for layer, attr, modules, count in sites:
        for module in modules:
            tracer.wrap(module, attr, layer, count=count)
    # the unlabeled-pool scoring of each co-training iteration
    tracer.wrap(cotrain, "predict_proba_batch", "cotrain.pool_scoring",
                only_under="cotrain.cotrain_fit")


def layer_metrics(tracer, traced_s, untraced_s) -> dict:
    out = {}
    for name in PER_LAYER:
        layer, suffix = name.rsplit(".", 1)
        if name == "trace.run_s":
            value, unit = traced_s, "s"
        elif name == "trace.overhead_s":
            value, unit = traced_s - untraced_s, "s"
        elif suffix == "calls":
            value, unit = tracer.calls[layer], "count"
        elif suffix == "busy_s":
            value, unit = tracer.busy[layer], "s"
        elif suffix == "self_s":
            value, unit = tracer.self_s(layer), "s"
        else:
            value, unit = tracer.counts[name], "count"
        out[name] = {"value": value, "unit": unit}
    return out


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import checks
    import taps
    import workloads

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.generate()

    # the recorder keeps the first round's outputs for the checkers
    recorder = taps.Recorder()
    workload.tap(recorder)
    reports = []
    try:
        if args.trace:
            workload.setup()
            untraced_s, (report, first) = timed(workload.round)
            recorder.active = False
            reports.append(report)
            tracer = taps.Tracer()
            trace_layers(tracer)
            try:
                workload.setup()
                traced_s, (report, _) = timed(workload.round)
            finally:
                tracer.remove()
            reports.append(report)
            metrics = layer_metrics(tracer, traced_s, untraced_s)
        else:
            setups = [timed(workload.setup)[0] for _ in range(workload.setup_repeats)]
            rounds = []
            start = time.perf_counter()
            # whole rounds until the time is used, and at least two so that
            # determinism is checked within the run
            while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
                elapsed, (report, output) = timed(workload.round)
                if not rounds:
                    first = output
                    recorder.active = False
                rounds.append(elapsed)
                reports.append(report)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        recorder.remove()

    # every round repeats the same operations and, once checked identical,
    # fails the same ones
    try:
        checks.check_identical(reports)
        f1, failed_per_round = workload.check(recorder, first)
        correct = True
    except checks.CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        f1, failed_per_round, correct = 0.0, 0, False
    attempted = len(reports) * workload.ops_per_round
    failed = len(reports) * failed_per_round

    if not args.trace:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "f1": {"value": f1, "unit": "1"},
        }
        print(f"perfbench: {args.workload} seed {args.seed}: "
              f"{len(rounds)} rounds {[round(r, 3) for r in rounds]}, "
              f"setups {[round(s, 3) for s in setups]}, import {import_s:.3f}s",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
