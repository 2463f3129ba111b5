"""Command-line entry points.

Subcommands: prepare (corpus -> enriched mention file), annotate (batch
span annotation of positive documents), validate-kcs (context-similarity
reports), train, evaluate, ablate, sweep. Settings come from an INI config
file with one section per subsystem; command-line flags override file
values. Set CODECOMP_LEXICON_DIR to point at a custom lexicon directory.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import evaluation
from .baselines import EMConfig
from .concepts import load_lexicons, process_document
from .context import HashedWindowProvider, load_precomputed, validate_kcs_gamma
from .corpus import POSITIVE, SampleSpec, load_corpus, sample_labeled
from .cotrain import CoConfig, build_examples, cotrain_fit, iteration_log_lines
from .learners import TrainConfig, save_model
from .presets import load_preset_file, preset_names, task_preset


def resolve_preset(task: str):
    """A builtin preset name, or the path of a preset INI file."""
    if task in preset_names():
        return task_preset(task)
    if Path(task).is_file():
        return load_preset_file(task, name=task)
    raise ConfigError(
        f"unknown task {task!r}; available presets: {', '.join(preset_names())} "
        "(or pass a preset file path)"
    )

EXIT_OK = 0
EXIT_ERROR = 2


class ConfigError(ValueError):
    pass


def _parse_value(section, key, raw, kind):
    try:
        if kind == "intlist":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config field [{section}] {key} has invalid value {raw!r}")


@dataclass
class ExperimentConfig:
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
    provider_kind: str = "hashed"
    provider_path: str = ""
    window: int = 3
    dim: int = 64
    cotrain: CoConfig = field(default_factory=CoConfig)
    learner: TrainConfig = field(default_factory=TrainConfig)
    nb_alpha: float = 1.0
    em_alpha: float = 1.0
    em: EMConfig = field(default_factory=EMConfig)
    # no default threshold is assumed; set [gamma] threshold to warn
    gamma_threshold: float = float("inf")
    gamma_sample_pairs: int = 200
    gamma_metric: str = "euclidean"
    ablation_iterations: tuple = (13, 25, 50, 75)
    sweep_sizes: tuple = ()

    # section -> key -> (attribute, type); a section named in _NESTED also
    # takes the fields of the library config held in the attribute of that name
    _SCHEMA = {
        "experiment": {
            "task": ("task", str), "corpus": ("corpus", str),
            "output": ("output", str),
            "k_folds": ("k_folds", int), "n_labeled": ("n_labeled", int),
            "repetitions": ("repetitions", int),
            "master_seed": ("master_seed", int),
            "dev_fold": ("dev_fold", int), "jobs": ("jobs", int),
            "model": ("model", str),
        },
        "provider": {
            "kind": ("provider_kind", str), "path": ("provider_path", str),
            "window": ("window", int), "dim": ("dim", int),
        },
        "cotrain": {},
        "learner": {},
        "nb": {"alpha": ("nb_alpha", float)},
        "em": {"alpha": ("em_alpha", float)},
        "gamma": {
            "threshold": ("gamma_threshold", float),
            "sample_pairs": ("gamma_sample_pairs", int),
            "metric": ("gamma_metric", str),
        },
        "ablation": {"iterations": ("ablation_iterations", "intlist")},
        "sweep": {"sizes": ("sweep_sizes", "intlist")},
    }
    _NESTED = ("cotrain", "learner", "em")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
        cfg = cls()
        for section in parser.sections():
            if section not in cls._SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            flat = cls._SCHEMA[section]
            nested = getattr(cfg, section) if section in cls._NESTED else None
            kinds = ({f.name: type(getattr(nested, f.name)) for f in fields(nested)}
                     if nested is not None else {})
            updates = {}
            for key, raw in parser[section].items():
                if key in flat:
                    attr, kind = flat[key]
                    setattr(cfg, attr, _parse_value(section, key, raw, kind))
                elif key in kinds:
                    updates[key] = _parse_value(section, key, raw, kinds[key])
                else:
                    raise ConfigError(f"unknown config key {key!r} in [{section}]")
            if nested is not None:
                try:
                    setattr(cfg, section, replace(nested, **updates))
                except ValueError as exc:
                    raise ConfigError(f"config section [{section}]: {exc}") from None
        return cfg

    def to_ini(self) -> str:
        parser = configparser.ConfigParser()
        for section, keys in self._SCHEMA.items():
            values = {key: getattr(self, attr) for key, (attr, _) in keys.items()}
            if section in self._NESTED:
                values.update(asdict(getattr(self, section)))
            parser[section] = {
                key: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
                for key, v in values.items() if v is not None
            }
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def validate(self) -> None:
        if self.k_folds < 2:
            raise ConfigError("config field k_folds must be >= 2")
        if self.n_labeled < 1:
            raise ConfigError("config field n_labeled must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("config field repetitions must be >= 1")
        if self.provider_kind not in ("hashed", "precomputed"):
            raise ConfigError("config field provider.kind must be hashed or precomputed")
        if self.provider_kind == "precomputed" and not self.provider_path:
            raise ConfigError("config field provider.path required for precomputed vectors")
        if self.model not in ("codecomp", "nb", "em"):
            raise ConfigError("config field model must be codecomp, nb, or em")

    def provider(self):
        if self.provider_kind == "precomputed":
            return load_precomputed(self.provider_path)
        return HashedWindowProvider(window=self.window, dim=self.dim)

    def model_spec(self, name=None):
        name = name or self.model
        if name == "nb":
            return evaluation.NBSpec(alpha=self.nb_alpha)
        if name == "em":
            return evaluation.EMSpec(alpha=self.em_alpha, em_config=self.em)
        return evaluation.CoDecompSpec(
            preset=resolve_preset(self.task),
            provider=self.provider(),
            co_config=self.cotrain,
            train_config=self.learner,
        )


_FLAG_OVERRIDES = {
    "task": "task", "corpus": "corpus", "out": "output", "folds": "k_folds",
    "n_labeled": "n_labeled", "reps": "repetitions",
    "seed": "master_seed", "model": "model", "jobs": "jobs",
    "provider": "provider_kind", "window": "window", "dim": "dim",
}


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for flag, attr in _FLAG_OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "iters", None) is not None:
        cfg.cotrain = replace(cfg.cotrain, iterations=args.iters)
    if getattr(args, "sizes", None):
        cfg.sweep_sizes = tuple(int(v) for v in args.sizes.split(","))
    cfg.validate()
    return cfg


def _out_dir(cfg) -> Path:
    path = Path(cfg.output)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_documents(cfg):
    return load_corpus(cfg.corpus, "tsv" if cfg.corpus.endswith(".tsv") else "jsonl")


def _enriched_record(pdoc, preset) -> dict:
    doc = pdoc.document
    return {
        "id": doc.id,
        "text": doc.text,
        "gold_label": doc.gold_label,
        "positive_human_spans": [list(s) for s in doc.positive_human_spans],
        "task": doc.task,
        "tokens": [[t.surface, t.start, t.end] for t in pdoc.tokens],
        "masked_tokens": [t.surface for t in pdoc.masked_tokens],
        "bags": [
            {
                "kcs": bag.kcs_name,
                "kind": kcs.kind,
                "instances": [
                    {
                        "token_range": list(m.token_range),
                        "masked_token_range": list(pdoc.masked_ranges[bag.kcs_name][i]),
                        "surface": m.surface,
                        "synthetic": m.synthetic,
                        "label": label,
                    }
                    for i, (m, label) in enumerate(bag.instances)
                ],
            }
            for bag, kcs in zip(pdoc.bags, preset.kcs_list)
        ],
    }


def cmd_prepare(args) -> int:
    cfg = _load_config(args)
    preset = resolve_preset(cfg.task)
    lexicons = load_lexicons()
    docs = _load_documents(cfg)
    out = Path(args.enriched_out or _out_dir(cfg) / "enriched.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    mention_counts = {k.name: 0 for k in preset.kcs_list}
    empty_bags = {k.name: 0 for k in preset.kcs_list}
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
    preset = resolve_preset(cfg.task)
    lexicons = load_lexicons()
    provider = cfg.provider()
    docs = _load_documents(cfg)
    pdocs = [process_document(d, preset, lexicons) for d in docs]
    reports = []
    for kcs in preset.kcs_list:
        report = validate_kcs_gamma(
            provider, pdocs, kcs.name, cfg.gamma_threshold,
            cfg.gamma_sample_pairs, cfg.master_seed, metric=cfg.gamma_metric)
        reports.append(report)
        if cfg.gamma_threshold == float("inf"):
            flag = "report only"
        else:
            flag = "ok" if report.satisfied else "WARNING: above threshold"
        print(f"{kcs.name}: max={report.max_distance:.4f} "
              f"q95={report.quantile95_distance:.4f} [{flag}]")
    out = _out_dir(cfg) / "gamma.json"
    out.write_text(json.dumps([r.to_dict() for r in reports], sort_keys=True,
                              indent=2), encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def _training_pools(cfg, docs):
    labeled = [d for d in docs if d.gold_label is not None]
    unlabeled = [d for d in docs if d.gold_label is None]
    if cfg.n_labeled < len(labeled):
        sample = sample_labeled(labeled, SampleSpec(cfg.n_labeled, cfg.master_seed))
        labeled = sample.labeled
        unlabeled = unlabeled + sample.unlabeled
    return labeled, unlabeled


def cmd_train(args) -> int:
    cfg = _load_config(args)
    preset = resolve_preset(cfg.task)
    lexicons = load_lexicons()
    provider = cfg.provider()
    docs = _load_documents(cfg)
    labeled_docs, unlabeled_docs = _training_pools(cfg, docs)
    kcs_names = tuple(k.name for k in preset.kcs_list)
    labeled = build_examples(
        [process_document(d, preset, lexicons) for d in labeled_docs],
        provider, kcs_names)
    unlabeled = build_examples(
        [process_document(d, preset, lexicons) for d in unlabeled_docs],
        provider, kcs_names)
    model = cotrain_fit(labeled, unlabeled, len(kcs_names), cfg.cotrain,
                        cfg.learner, kcs_names=kcs_names)
    model.provider_spec = provider.spec()
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
    docs = _load_documents(cfg)
    spec = cfg.model_spec()
    report = evaluation.run_experiment(
        docs, spec, cfg.k_folds,
        SampleSpec(cfg.n_labeled, cfg.master_seed),
        repetitions=cfg.repetitions, dev_fold=cfg.dev_fold, jobs=cfg.jobs)
    out = _out_dir(cfg)
    (out / f"report_{spec.name}.json").write_text(report.to_json(), encoding="utf-8")
    (out / f"report_{spec.name}.csv").write_text(report.to_csv(), encoding="utf-8")
    print(f"{spec.name}: mean F1={report.mean['f1']:.4f} "
          f"P={report.mean['precision']:.4f} R={report.mean['recall']:.4f}")
    print(f"wrote {out / f'report_{spec.name}.json'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    docs = _load_documents(cfg)
    spec = cfg.model_spec("codecomp")
    table = evaluation.ablation_table(
        docs, spec, cfg.ablation_iterations, cfg.k_folds,
        SampleSpec(cfg.n_labeled, cfg.master_seed),
        repetitions=cfg.repetitions, dev_fold=cfg.dev_fold, jobs=cfg.jobs)
    out = _out_dir(cfg)
    (out / "ablation.csv").write_text(evaluation.ablation_csv(table), encoding="utf-8")
    for name, mean in table.items():
        print(f"{name}: F1={mean['f1']:.4f} P={mean['precision']:.4f} "
              f"R={mean['recall']:.4f}")
    print(f"wrote {out / 'ablation.csv'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not cfg.sweep_sizes:
        raise ConfigError("config field sweep.sizes (or --sizes) is required")
    docs = _load_documents(cfg)
    spec = cfg.model_spec()
    rows = evaluation.training_size_sweep(
        docs, spec, cfg.sweep_sizes, cfg.k_folds, cfg.master_seed,
        repetitions=cfg.repetitions, dev_fold=cfg.dev_fold, jobs=cfg.jobs)
    out = _out_dir(cfg)
    (out / "sweep.csv").write_text(evaluation.sweep_csv(rows), encoding="utf-8")
    for n, report in rows:
        print(f"n={n}: F1={report.mean['f1']:.4f}")
    print(f"wrote {out / 'sweep.csv'}")
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
        p.add_argument("--task", help=f"task preset ({', '.join(preset_names())})")
        p.add_argument("--corpus", help="corpus file (jsonl or tsv)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--folds", type=int, help="cross-validation folds")
        p.add_argument("--n-labeled", dest="n_labeled", type=int,
                       help="labeled training examples per fold")
        p.add_argument("--reps", type=int, help="experiment repetitions")
        p.add_argument("--iters", type=int, help="co-training iterations")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--model", choices=["codecomp", "nb", "em"])
        p.add_argument("--jobs", type=int, help="max parallel workers")
        p.add_argument("--provider", choices=["hashed", "precomputed"])
        p.add_argument("--window", type=int, help="hashed provider window")
        p.add_argument("--dim", type=int, help="hashed provider dimension")
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
    p.set_defaults(func=cmd_evaluate)

    p = common(sub.add_parser("ablate", help="per-view / combined / co-trained table"))
    p.set_defaults(func=cmd_ablate)

    p = common(sub.add_parser("sweep", help="training-size sweep"))
    p.add_argument("--sizes", help="comma-separated labeled-set sizes")
    p.set_defaults(func=cmd_sweep)

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
