"""Command-line entry points.

Subcommands: prepare (corpus -> enriched mention file), annotate (batch
span annotation of positive documents), validate-kcs (context-similarity
reports), train, evaluate (a report, and a training-size curve from the
same folds), ablate. Settings come from an INI config file with one
section per subsystem; command-line flags override file values. Each
section but ``[experiment]`` (``RunConfig``) is the dataclass of the code
that reads it, the one copy of its rules. validate-kcs, train, evaluate
and ablate open the preset, lexicon and vector files their model spec
names before they read the corpus. Set CODECOMP_LEXICON_DIR to point at a
custom lexicon directory.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import evaluation
from .baselines import EMConfig
from .concepts import load_lexicons, process_document
from .context import PROVIDERS, GammaConfig, ProviderConfig, validate_kcs_gamma
from .corpus import POSITIVE, SampleSpec, load_corpus, sample_labeled
from .cotrain import CoConfig, build_examples, cotrain_fit, iteration_log_lines
from .evaluation import AblationConfig, SweepConfig
from .learners import TrainConfig, save_model
from .presets import preset_names, task_preset

EXIT_OK = 0
EXIT_ERROR = 2


class ConfigError(ValueError):
    pass


# the parser of a config value, by the annotation of its dataclass field
_PARSERS = {
    "str": str, "int": int, "float": float, "int | None": int,
    "tuple[int, ...]": lambda raw: tuple(int(v) for v in raw.split(",") if v.strip()),
}

# the spec of each ``[experiment] model`` name, built from the whole config
MODELS = {
    "codecomp": lambda cfg: evaluation.CoDecompSpec(
        preset=task_preset(cfg.experiment.task), provider=cfg.provider.build(),
        co_config=cfg.cotrain, train_config=cfg.learner),
    "nb": lambda cfg: cfg.nb,
    "em": lambda cfg: evaluation.EMSpec(em_config=cfg.em),
}
_MODEL_NAMES = f"{', '.join(list(MODELS)[:-1])} or {list(MODELS)[-1]}"


@dataclass(frozen=True)
class RunConfig:
    task: str = ""
    corpus: str = ""
    output: str = "out"
    k_folds: int = 10
    n_labeled: int = 100
    repetitions: int = 5
    master_seed: int = 7
    dev_fold: int | None = None
    jobs: int = 1
    model: str = "codecomp"

    def __post_init__(self):
        evaluation.check_protocol_values(self.k_folds, self.repetitions, self.dev_fold,
                                         self.jobs, (self.n_labeled,))
        if self.model not in MODELS:
            raise ConfigError(f"model must be {_MODEL_NAMES}, got {self.model!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole config: one field per INI section, named as the section,
    whose dataclass declares the section's keys and checks their values."""

    experiment: RunConfig = field(default_factory=RunConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    cotrain: CoConfig = field(default_factory=CoConfig)
    learner: TrainConfig = field(default_factory=TrainConfig)
    nb: evaluation.NBSpec = field(default_factory=evaluation.NBSpec)
    em: EMConfig = field(default_factory=EMConfig)
    gamma: GammaConfig = field(default_factory=GammaConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    @classmethod
    def from_file(cls, path=None, overrides=()) -> "ExperimentConfig":
        """The INI file at ``path`` (if any) with each ``(section, key,
        value)`` of ``overrides`` in place of the file's value, every value
        parsed by its field's type and checked by its section's dataclass."""
        parser = configparser.ConfigParser()
        if path is not None and not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
        for section, key, value in overrides:
            # a flag's value is taken as given: '%' starts no interpolation
            parser.read_dict({section: {key: value.replace("%", "%%")}})
        cfg = cls()
        sections = {}
        for section in parser.sections():
            if section not in cls.__dataclass_fields__:
                raise ConfigError(f"unknown config section [{section}]")
            values = getattr(cfg, section)
            kinds = {f.name: f.type for f in fields(values)}
            updates = {}
            for key, raw in parser[section].items():
                if key not in kinds:
                    raise ConfigError(f"unknown config key {key!r} in [{section}]")
                try:
                    updates[key] = _PARSERS[kinds[key]](raw)
                except ValueError:
                    raise ConfigError(f"config field [{section}] {key} has invalid "
                                      f"value {raw!r}") from None
            try:
                sections[section] = replace(values, **updates)
            except ValueError as exc:
                raise ConfigError(f"config section [{section}]: {exc}") from None
        return replace(cfg, **sections)

    def model_spec(self, name=None):
        return MODELS[name or self.experiment.model](self)


def _load_config(args) -> ExperimentConfig:
    overrides = [(*dest.split("."), value) for dest, value in vars(args).items()
                 if "." in dest and value is not None]
    return ExperimentConfig.from_file(args.config, overrides)


def _out_dir(cfg) -> Path:
    path = Path(cfg.experiment.output)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_documents(cfg):
    path = cfg.experiment.corpus
    return load_corpus(path, "tsv" if path.endswith(".tsv") else "jsonl")


def _enriched_record(pdoc, preset) -> dict:
    # a tuple (a Token, a range) is written as a JSON array
    return {
        **asdict(pdoc.document),
        "tokens": pdoc.tokens,
        "masked_tokens": pdoc.masked_tokens,
        "bags": [
            {
                "kcs": bag.kcs_name,
                "kind": kcs.kind,
                "instances": [
                    {
                        "token_range": m.token_range,
                        "masked_token_range": masked_range,
                        "surface": m.surface,
                        "synthetic": m.synthetic,
                        "label": label,
                    }
                    for (m, label), masked_range in zip(bag.instances, bag.masked_ranges)
                ],
            }
            for bag, kcs in zip(pdoc.bags, preset.kcs_list)
        ],
    }


def cmd_prepare(args) -> int:
    cfg = _load_config(args)
    preset = task_preset(cfg.experiment.task)
    lexicons = load_lexicons()
    docs = _load_documents(cfg)
    out = Path(args.enriched_out or _out_dir(cfg) / "enriched.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    mention_counts = dict.fromkeys(preset.view_names, 0)
    empty_bags = dict.fromkeys(preset.view_names, 0)
    with open(out, "w", encoding="utf-8") as fh:
        for doc in docs:
            pdoc = process_document(doc, preset, lexicons)
            for bag in pdoc.bags:
                mention_counts[bag.kcs_name] += len(bag.instances)
                if not bag.instances:
                    empty_bags[bag.kcs_name] += 1
            fh.write(json.dumps(_enriched_record(pdoc, preset), sort_keys=True) + "\n")
    print(f"prepared {len(docs)} documents -> {out}")
    for name in mention_counts:
        print(f"  {name}: {mention_counts[name]} mentions, "
              f"{empty_bags[name]} empty bags")
    return EXIT_OK


def _prompt_for_span(record, human_bag, stdin, stdout):
    tokens = record["tokens"]
    explicit = [
        (i, inst) for i, inst in enumerate(human_bag["instances"])
        if not inst["synthetic"]
    ]
    stdout.write(f"\n[{record['id']}] {record['text']}\n")
    for display, (_, inst) in enumerate(explicit):
        stdout.write(f"  {display}: {inst['surface']}\n")
    while True:
        stdout.write("mention index (or 'none'): ")
        stdout.flush()
        line = stdin.readline()
        if not line:
            return None  # input exhausted; stop annotating
        choice = line.strip().lower()
        if choice == "none":
            stdout.write(f"warning: {record['id']} left without positive spans\n")
            return []
        try:
            picks = [int(p) for p in choice.split(",")]
        except ValueError:
            stdout.write("enter a mention index or 'none'\n")
            continue
        if any(p < 0 or p >= len(explicit) for p in picks):
            stdout.write(f"index out of range (0..{len(explicit) - 1})\n")
            continue
        if len(set(picks)) < len(picks):
            stdout.write("each mention index may appear once\n")
            continue
        spans = []
        for p in picks:
            _, inst = explicit[p]
            s, e = inst["token_range"]
            spans.append([tokens[s][1], tokens[e - 1][2]])
        return spans


def cmd_annotate(args, stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    in_path, out_path = Path(args.enriched_in), Path(args.enriched_out)
    done = set()
    if out_path.exists():
        with open(out_path, encoding="utf-8") as fh:
            done = {json.loads(line)["id"] for line in fh if line.strip()}
    appended = 0
    with open(in_path, encoding="utf-8") as fh, \
            open(out_path, "a", encoding="utf-8") as out:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["id"] in done:
                continue
            human_bag = next(
                (b for b in record["bags"] if b.get("kind") == "human"), None)
            needs = (record.get("gold_label") == POSITIVE
                     and not record.get("positive_human_spans")
                     and human_bag is not None)
            if needs:
                spans = _prompt_for_span(record, human_bag, stdin, stdout)
                if spans is None:
                    break
                record["positive_human_spans"] = spans
            out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
            appended += 1
    stdout.write(f"annotated/copied {appended} documents -> {out_path}\n")
    return EXIT_OK


def cmd_validate_kcs(args) -> int:
    cfg = _load_config(args)
    spec = cfg.model_spec("codecomp")
    pdocs = [process_document(d, spec.preset, spec.lexicons) for d in _load_documents(cfg)]
    reports = []
    for name in spec.preset.view_names:
        report = validate_kcs_gamma(
            spec.provider, pdocs, name, cfg.gamma.threshold, cfg.gamma.sample_pairs,
            cfg.experiment.master_seed, metric=cfg.gamma.metric)
        reports.append(report)
        flag = ("report only" if cfg.gamma.threshold == float("inf")
                else "ok" if report.satisfied else "WARNING: above threshold")
        print(f"{name}: max={report.max_distance:.4f} "
              f"q95={report.quantile95_distance:.4f} [{flag}]")
    out = _out_dir(cfg) / "gamma.json"
    out.write_text(json.dumps([r.to_dict() for r in reports], sort_keys=True,
                              indent=2), encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def _training_pools(run, docs):
    labeled, hidden = sample_labeled([d for d in docs if d.gold_label is not None],
                                     SampleSpec(run.n_labeled, run.master_seed))
    return labeled, [d for d in docs if d.gold_label is None] + hidden


def cmd_train(args) -> int:
    cfg = _load_config(args)
    spec = cfg.model_spec("codecomp")
    names = spec.preset.view_names
    labeled, unlabeled = (
        build_examples([process_document(d, spec.preset, spec.lexicons) for d in pool],
                       spec.provider, names)
        for pool in _training_pools(cfg.experiment, _load_documents(cfg)))
    model = cotrain_fit(labeled, unlabeled, len(names), spec.co_config,
                        spec.train_config, kcs_names=names)
    model.provider_spec = spec.provider.spec()
    out = _out_dir(cfg)
    save_model(model, out / "model.json")
    (out / "iterations.jsonl").write_text(
        "\n".join(iteration_log_lines(model.iteration_log)) + "\n"
        if model.iteration_log else "", encoding="utf-8")
    promoted = sum(len(r.promotions) for r in model.iteration_log)
    print(f"trained on {len(labeled)} labeled / {len(unlabeled)} unlabeled; "
          f"{len(model.iteration_log)} iterations, {promoted} promotions")
    print(f"wrote {out / 'model.json'} and {out / 'iterations.jsonl'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    spec = cfg.model_spec()
    docs = _load_documents(cfg)
    run = cfg.experiment
    sizes = cfg.sweep.sizes
    # the report's size and every sweep size share one fold pass
    reports = dict(evaluation.training_size_sweep(
        docs, spec, sorted({run.n_labeled, *sizes}), run.k_folds, run.master_seed,
        repetitions=run.repetitions, dev_fold=run.dev_fold, jobs=run.jobs))
    report = reports[run.n_labeled]
    out = _out_dir(cfg)
    (out / f"report_{spec.name}.json").write_text(report.to_json(), encoding="utf-8")
    (out / f"report_{spec.name}.csv").write_text(report.to_csv(), encoding="utf-8")
    print(f"{spec.name}: mean F1={report.mean['f1']:.4f} "
          f"P={report.mean['precision']:.4f} R={report.mean['recall']:.4f}")
    print(f"wrote {out / f'report_{spec.name}.json'}")
    if sizes:
        rows = [(n, reports[n]) for n in sizes]
        (out / "sweep.csv").write_text(evaluation.sweep_csv(rows), encoding="utf-8")
        for n, sized in rows:
            print(f"n={n}: F1={sized.mean['f1']:.4f}")
        print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    spec = cfg.model_spec("codecomp")
    docs = _load_documents(cfg)
    run = cfg.experiment
    table = evaluation.ablation_table(
        docs, spec, cfg.ablation.iterations, run.k_folds,
        SampleSpec(run.n_labeled, run.master_seed),
        repetitions=run.repetitions, dev_fold=run.dev_fold, jobs=run.jobs)
    out = _out_dir(cfg)
    (out / "ablation.csv").write_text(evaluation.ablation_csv(table), encoding="utf-8")
    for name, mean in table.items():
        print(f"{name}: F1={mean['f1']:.4f} P={mean['precision']:.4f} "
              f"R={mean['recall']:.4f}")
    print(f"wrote {out / 'ablation.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codecomp",
        description="Concept-decomposed co-training for short-text event detection",
    )
    parser.add_argument("--traceback", action="store_true",
                        help="on error, raise with the full traceback instead of "
                             "printing a one-line message")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        # each flag sets one config value; its dest names it as section.key
        for flag, dest, text in (
                ("--task", "experiment.task",
                 f"task preset ({', '.join(preset_names())})"),
                ("--corpus", "experiment.corpus", "corpus file (jsonl or tsv)"),
                ("--out", "experiment.output", "output directory"),
                ("--folds", "experiment.k_folds", "cross-validation folds"),
                ("--n-labeled", "experiment.n_labeled", "labeled examples per fold"),
                ("--reps", "experiment.repetitions", "experiment repetitions"),
                ("--iters", "cotrain.iterations", "co-training iterations"),
                ("--seed", "experiment.master_seed", "master seed"),
                ("--model", "experiment.model", _MODEL_NAMES),
                ("--jobs", "experiment.jobs", "max parallel workers"),
                ("--provider", "provider.kind", " or ".join(PROVIDERS)),
                ("--window", "provider.window", "hashed provider window"),
                ("--dim", "provider.dim", "hashed provider dimension")):
            p.add_argument(flag, dest=dest, help=text)
        return p

    p = common(sub.add_parser("prepare", help="extract mentions and write enriched jsonl"))
    p.add_argument("--enriched-out", help="enriched output path")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("annotate", help="interactively annotate positive human mentions")
    p.add_argument("--enriched-in", required=True)
    p.add_argument("--enriched-out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = common(sub.add_parser("validate-kcs", help="context-similarity reports per view"))
    p.set_defaults(func=cmd_validate_kcs)

    p = common(sub.add_parser("train", help="fit and serialize a co-trained model"))
    p.set_defaults(func=cmd_train)

    p = common(sub.add_parser("evaluate", help="cross-validated evaluation"))
    p.add_argument("--sizes", dest="sweep.sizes",
                   help="comma-separated labeled-set sizes of a training-size curve")
    p.set_defaults(func=cmd_evaluate)

    p = common(sub.add_parser("ablate", help="per-view / combined / co-trained table"))
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single operator-facing exit path
        if args.traceback:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
