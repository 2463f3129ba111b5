"""Concept-decomposed co-training for short-text event detection.

Decompose a document classification task into per-concept views (human
mentions, disease keywords, drug names, ...), train one small classifier
per view over mention context vectors, co-train the views against an
unlabeled pool, and aggregate their bag-level probabilities by the product
rule at test time.
"""

from .baselines import EMConfig, em_fit, nb_baseline_fit
from .concepts import (
    Bag,
    KeyConceptSet,
    Lexicons,
    Mention,
    ProcessedDocument,
    TaskPreset,
    extract_human_mentions,
    extract_keyword_mentions,
    load_lexicons,
    process_document,
    token_surfaces,
    tokenize,
)
from .context import (
    GammaReport,
    HashedWindowProvider,
    PrecomputedProvider,
    context_of,
    load_precomputed,
    validate_kcs_gamma,
)
from .corpus import (
    Document,
    FoldPlan,
    SampleSpec,
    load_corpus,
    sample_labeled,
    stratified_folds,
)
from .cotrain import (
    CoConfig,
    CoDecompModel,
    Example,
    ablation_variants,
    build_examples,
    cotrain_fit,
    mil_example_score,
    predict,
    predict_many,
)
from .evaluation import (
    CoDecompSpec,
    EMSpec,
    Metrics,
    NBSpec,
    RunReport,
    ablation_table,
    compute_metrics,
    run_experiment,
    training_size_sweep,
)
from .learners import (
    LogRegModel,
    NBModel,
    TrainConfig,
    loss_gradient,
    nb_predict_proba,
    train_logreg,
    train_nb,
)
from .presets import load_preset_file, preset_names, task_preset

__version__ = "0.1.0"
