"""
Experiment harness: cross-validated comparison, ablation, size sweep
====================================================================

Runs the full protocol (stratified folds x repetitions, labeled
subsampling) for the naive Bayes baseline, the EM-augmented baseline, and
the co-trained decomposition, then prints the ablation table (each view
alone, the product combination, and co-training at growing iteration
counts) and a training-size sweep.
"""

from codecomp import (
    CoConfig,
    CoDecompSpec,
    EMSpec,
    HashedWindowProvider,
    NBSpec,
    SampleSpec,
    TrainConfig,
    ablation_table,
    load_lexicons,
    run_experiment,
    training_size_sweep,
)
from codecomp.synthetic import decomposable_corpus

docs, preset = decomposable_corpus(800, seed=21, positive_rate=0.4, ambiguity=0.15)
sample = SampleSpec(n_labeled=100, seed=7)
codecomp_spec = CoDecompSpec(
    preset=preset,
    provider=HashedWindowProvider(window=2, dim=64),
    co_config=CoConfig(iterations=15),
    train_config=TrainConfig(),
    lexicons=load_lexicons(),
)

print("model comparison (5-fold, 2 repetitions, 100 labeled):")
for spec in (NBSpec(), EMSpec(), codecomp_spec):
    report = run_experiment(docs, spec, k_folds=5, sample_spec=sample,
                            repetitions=2)
    m = report.mean
    print(f"  {spec.name:9s} F1={m['f1']:.3f} P={m['precision']:.3f} "
          f"R={m['recall']:.3f}")

print("\nablation (what each stage adds):")
table = ablation_table(docs, codecomp_spec, iteration_settings=[1, 5, 15],
                       k_folds=5, sample_spec=sample, repetitions=2)
for name, mean in table.items():
    print(f"  {name:9s} F1={mean['f1']:.3f} P={mean['precision']:.3f} "
          f"R={mean['recall']:.3f}")

print("\ntraining-size sweep (naive Bayes):")
for n, report in training_size_sweep(docs, NBSpec(), sizes=[50, 100, 200, 400],
                                     k_folds=5, master_seed=7, repetitions=2):
    print(f"  n={n:4d} F1={report.mean['f1']:.3f}")
