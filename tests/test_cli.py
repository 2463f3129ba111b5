import io
import json
from pathlib import Path

import pytest

from dataclasses import asdict, fields

from codecomp import baselines, cli, evaluation
from codecomp.baselines import EMConfig
from codecomp.cli import (
    AblationConfig,
    ConfigError,
    ExperimentConfig,
    GammaConfig,
    ProviderConfig,
    RunConfig,
    SweepConfig,
    main,
    resolve_preset,
)
from codecomp.corpus import load_corpus
from codecomp.cotrain import CoConfig
from codecomp.learners import TrainConfig, load_model
from codecomp.synthetic import decomposable_corpus


def _write_corpus(tmp_path, docs, name="corpus.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({
                "id": d.id, "text": d.text, "gold_label": d.gold_label,
                "positive_human_spans": [list(s) for s in d.positive_human_spans],
                "task": d.task,
            }) + "\n")
    return path


PRESET_INI = """\
[alpha]
kind = keyword
keywords = alpha

[beta]
kind = keyword
keywords = beta
"""

CONFIG_INI = """\
[experiment]
task = {task}
corpus = {corpus}
output = {out}
k_folds = 3
n_labeled = 30
repetitions = 1
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

[ablation]
iterations = 2
"""


@pytest.fixture()
def synth_setup(tmp_path):
    docs, _ = decomposable_corpus(120, seed=9, positive_rate=0.4, ambiguity=0.15)
    corpus = _write_corpus(tmp_path, docs)
    preset = tmp_path / "twoview.ini"
    preset.write_text(PRESET_INI, encoding="utf-8")
    out = tmp_path / "out"
    config = tmp_path / "config.ini"
    config.write_text(
        CONFIG_INI.format(task=preset, corpus=corpus, out=out), encoding="utf-8")
    return config, out


PHM_DOCS = [
    {"id": "1", "text": "i have cancer", "gold_label": "positive",
     "positive_human_spans": [[0, 1]]},
    {"id": "2", "text": "my friend beat cancer last year", "gold_label": "positive",
     "positive_human_spans": []},
    {"id": "3", "text": "cancer awareness walk downtown", "gold_label": "negative"},
    {"id": "4", "text": "worried about cancer screening costs", "gold_label": "negative"},
]


@pytest.fixture()
def phm_setup(tmp_path):
    corpus = tmp_path / "phm.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for record in PHM_DOCS:
            fh.write(json.dumps(record) + "\n")
    return corpus


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(
            experiment=RunConfig(task="phm-cancer", corpus="c.jsonl", output="o",
                                 k_folds=5, n_labeled=30, repetitions=2,
                                 master_seed=3, dev_fold=1, jobs=2, model="em"),
            provider=ProviderConfig(kind="precomputed", path="v.txt", window=2,
                                    dim=16),
            cotrain=CoConfig(iterations=3, promotions_per_view=2,
                             confidence_floor=0.8, neutral_prob=0.4),
            learner=TrainConfig(learning_rate=2.5, epochs=300, l2_lambda=0.01,
                                convergence_tolerance=1e-5),
            nb=evaluation.NBSpec(alpha=0.25),
            em=EMConfig(alpha=0.5, max_iterations=9, unlabeled_weight=0.3,
                        convergence_tolerance=1e-3),
            gamma=GammaConfig(threshold=0.8, sample_pairs=50, metric="cosine"),
            ablation=AblationConfig(iterations=(2, 4)),
            sweep=SweepConfig(sizes=(10, 20)))
        defaults = ExperimentConfig()
        settable = 0
        for section in fields(cfg):
            for f in fields(getattr(cfg, section.name)):
                settable += 1
                assert (getattr(getattr(cfg, section.name), f.name)
                        != getattr(getattr(defaults, section.name), f.name)), f.name
        assert settable == 32
        path = tmp_path / "cfg.ini"
        path.write_text("".join(
            f"[{section}]\n" + "".join(
                f"{key} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                for key, v in values.items())
            for section, values in asdict(cfg).items()), encoding="utf-8")
        assert ExperimentConfig.from_file(path) == cfg

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.ini"
        for section in ("experiment", "learner", "em", "nb", "gamma"):
            path.write_text(f"[{section}]\nbananas = 3\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=f"'bananas' in \\[{section}\\]"):
                ExperimentConfig.from_file(path)
        path.write_text("[nb]\nname = nb\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="'name' in \\[nb\\]"):
            ExperimentConfig.from_file(path)

    def test_invalid_value_names_field(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nk_folds = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="k_folds"):
            ExperimentConfig.from_file(path)

    def test_validation_bounds(self):
        # the protocol rule that evaluation applies, checked when read
        with pytest.raises(evaluation.EvalError, match="k_folds"):
            RunConfig(task="phm-cancer", corpus="c", k_folds=1)

    def test_flags_parse_as_file_values(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nk_folds = 4\n[sweep]\nsizes = 5\n",
                        encoding="utf-8")
        cfg = ExperimentConfig.from_file(path, [
            ("experiment", "k_folds", "3"), ("sweep", "sizes", "10, 20"),
            ("cotrain", "iterations", "0"), ("experiment", "output", "run%1/")])
        assert (cfg.experiment.k_folds, cfg.sweep.sizes) == (3, (10, 20))
        assert (cfg.cotrain.iterations, cfg.experiment.output) == (0, "run%1/")
        with pytest.raises(ConfigError, match=r"\[experiment\] k_folds has invalid"):
            ExperimentConfig.from_file(path, [("experiment", "k_folds", "x")])

    def test_readme_example_gives_its_documented_values(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        example = readme.split("A working example")[1].split("```ini\n")[1]
        path = tmp_path / "readme.ini"
        path.write_text(example.split("```")[0], encoding="utf-8")
        assert ExperimentConfig.from_file(path) == ExperimentConfig(
            experiment=RunConfig(task="phm-cancer", corpus="tweets.jsonl",
                                 output="run/", k_folds=10, n_labeled=100,
                                 repetitions=5, master_seed=7),
            provider=ProviderConfig(kind="hashed", window=3, dim=64),
            cotrain=CoConfig(iterations=25, promotions_per_view=1,
                             confidence_floor=0.7),
            learner=TrainConfig(l2_lambda=1e-3, convergence_tolerance=1e-7),
            nb=evaluation.NBSpec(alpha=1.0),
            em=EMConfig(alpha=1.0, max_iterations=20, unlabeled_weight=1.0,
                        convergence_tolerance=1e-6),
            gamma=GammaConfig(threshold=0.8, sample_pairs=200, metric="euclidean"),
            ablation=AblationConfig(iterations=(13, 25, 50, 75)),
            sweep=SweepConfig(sizes=(100, 200, 400)))

    def test_unknown_task_lists_presets(self):
        with pytest.raises(ConfigError, match="phm-cancer"):
            resolve_preset("not-a-task")


class TestPrepare:
    def test_summary_matches_recount(self, phm_setup, tmp_path, capsys):
        out = tmp_path / "enriched.jsonl"
        code = main(["prepare", "--task", "phm-cancer",
                     "--corpus", str(phm_setup), "--out", str(tmp_path / "o"),
                     "--enriched-out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        counts = {"human": 0, "disease": 0}
        with open(out, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        for record in records:
            for bag in record["bags"]:
                counts[bag["kcs"]] += len(bag["instances"])
        assert len(records) == len(PHM_DOCS)
        for name, count in counts.items():
            assert f"{name}: {count} mentions" in printed

    def test_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("", encoding="utf-8")
        out = tmp_path / "enriched.jsonl"
        code = main(["prepare", "--task", "phm-cancer", "--corpus", str(corpus),
                     "--out", str(tmp_path / "o"), "--enriched-out", str(out)])
        assert code == 0
        assert "prepared 0 documents" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == ""

    def test_bad_cotrain_value_fails_when_config_is_read(self, phm_setup, tmp_path,
                                                         capsys):
        config = tmp_path / "floor.ini"
        config.write_text("[cotrain]\nconfidence_floor = 0.3\n", encoding="utf-8")
        code = main(["prepare", "--config", str(config), "--task", "phm-cancer",
                     "--corpus", str(phm_setup), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ("[cotrain]: confidence_floor must lie in (0.5, 1], got 0.3"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_unknown_task_fails(self, phm_setup, tmp_path, capsys):
        code = main(["prepare", "--task", "nope", "--corpus", str(phm_setup),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "available presets" in err
        assert "Traceback" not in err

    def test_traceback_flag_reraises(self, phm_setup, tmp_path, capsys):
        with pytest.raises(ConfigError, match="available presets"):
            main(["--traceback", "prepare", "--task", "nope", "--corpus", str(phm_setup),
                  "--out", str(tmp_path / "o")])
        assert "error: " not in capsys.readouterr().err


class TestAnnotate:
    def _prepare(self, phm_setup, tmp_path):
        enriched = tmp_path / "enriched.jsonl"
        main(["prepare", "--task", "phm-cancer", "--corpus", str(phm_setup),
              "--out", str(tmp_path / "o"), "--enriched-out", str(enriched)])
        return enriched

    def test_annotation_writes_span(self, phm_setup, tmp_path):
        from codecomp.cli import cmd_annotate

        enriched = self._prepare(phm_setup, tmp_path)
        out = tmp_path / "annotated.jsonl"

        class Args:
            enriched_in = str(enriched)
            enriched_out = str(out)

        # doc 2 is the only positive lacking spans; pick mention 0 ("my")
        stdin = io.StringIO("0\n")
        assert cmd_annotate(Args(), stdin=stdin, stdout=io.StringIO()) == 0
        records = {json.loads(l)["id"]: json.loads(l)
                   for l in open(out, encoding="utf-8")}
        assert len(records) == len(PHM_DOCS)
        spans = records["2"]["positive_human_spans"]
        assert len(spans) == 1
        text = records["2"]["text"]
        assert text[spans[0][0]:spans[0][1]] == "my"

    def test_none_and_reprompt(self, phm_setup, tmp_path):
        from codecomp.cli import cmd_annotate

        enriched = self._prepare(phm_setup, tmp_path)
        out = tmp_path / "annotated.jsonl"

        class Args:
            enriched_in = str(enriched)
            enriched_out = str(out)

        stdout = io.StringIO()
        stdin = io.StringIO("99\nnone\n")  # out of range, then none
        cmd_annotate(Args(), stdin=stdin, stdout=stdout)
        output = stdout.getvalue()
        assert "out of range" in output
        assert "warning" in output
        records = {json.loads(l)["id"]: json.loads(l)
                   for l in open(out, encoding="utf-8")}
        assert records["2"]["positive_human_spans"] == []

    def test_repeated_index_reprompts(self, phm_setup, tmp_path):
        from codecomp.cli import cmd_annotate

        enriched = self._prepare(phm_setup, tmp_path)
        out = tmp_path / "annotated.jsonl"

        class Args:
            enriched_in = str(enriched)
            enriched_out = str(out)

        stdout = io.StringIO()
        cmd_annotate(Args(), stdin=io.StringIO("0,0\n0\n"), stdout=stdout)
        assert "each mention index may appear once" in stdout.getvalue()
        spans = {d.id: d.positive_human_spans for d in load_corpus(out)}
        assert len(spans["2"]) == 1

    def test_resumable(self, phm_setup, tmp_path):
        from codecomp.cli import cmd_annotate

        enriched = self._prepare(phm_setup, tmp_path)
        out = tmp_path / "annotated.jsonl"

        class Args:
            enriched_in = str(enriched)
            enriched_out = str(out)

        # input runs dry at the prompt for doc 2: docs before it are copied
        cmd_annotate(Args(), stdin=io.StringIO(""), stdout=io.StringIO())
        first_pass = [json.loads(l)["id"] for l in open(out, encoding="utf-8")]
        assert first_pass == ["1"]
        # rerun resumes at doc 2 and finishes the file
        cmd_annotate(Args(), stdin=io.StringIO("0\n"), stdout=io.StringIO())
        second_pass = [json.loads(l)["id"] for l in open(out, encoding="utf-8")]
        assert second_pass == ["1", "2", "3", "4"]


def test_validate_kcs_writes_report(synth_setup, capsys):
    config, out = synth_setup
    code = main(["validate-kcs", "--config", str(config)])
    assert code == 0
    payload = json.loads((out / "gamma.json").read_text(encoding="utf-8"))
    assert {r["kcs_name"] for r in payload} == {"alpha", "beta"}
    printed = capsys.readouterr().out
    assert "q95=" in printed


def test_train_writes_model_and_log(synth_setup, capsys):
    config, out = synth_setup
    code = main(["train", "--config", str(config)])
    assert code == 0
    model = load_model(out / "model.json")
    assert model.provider_spec == {"kind": "hashed", "window": 2, "dim": 32}
    log_lines = (out / "iterations.jsonl").read_text(encoding="utf-8").strip()
    assert log_lines
    first = json.loads(log_lines.split("\n")[0])
    assert first["iteration"] == 1


def test_train_reads_gradient_descent_learner_keys(synth_setup):
    # [learner] learning_rate and epochs, from configs written for the
    # gradient-descent learner: the fit ignores the first and caps its
    # Newton steps at the second
    config, out = synth_setup
    assert "learning_rate = 4.0\nepochs = 200\n" in config.read_text(encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 0
    model = load_model(out / "model.json")
    assert model.train_config == TrainConfig(learning_rate=4.0, epochs=200,
                                             convergence_tolerance=1e-6)
    assert all(c.converged and c.epochs_run < 200 for c in model.classifiers)


def test_evaluate_nb_reproducible(synth_setup):
    config, out = synth_setup
    assert main(["evaluate", "--config", str(config), "--model", "nb"]) == 0
    first = (out / "report_nb.json").read_bytes()
    first_csv = (out / "report_nb.csv").read_bytes()
    assert main(["evaluate", "--config", str(config), "--model", "nb"]) == 0
    assert (out / "report_nb.json").read_bytes() == first
    assert (out / "report_nb.csv").read_bytes() == first_csv


def test_evaluate_em_runs(synth_setup):
    config, out = synth_setup
    assert main(["evaluate", "--config", str(config), "--model", "em"]) == 0
    assert (out / "report_em.json").exists()


def test_evaluate_k0_matches_ablation_combined(synth_setup):
    config, out = synth_setup
    assert main(["evaluate", "--config", str(config), "--model", "codecomp",
                 "--iters", "0"]) == 0
    report = json.loads((out / "report_codecomp.json").read_text(encoding="utf-8"))
    assert main(["ablate", "--config", str(config)]) == 0
    rows = (out / "ablation.csv").read_text(encoding="utf-8").strip().split("\n")
    header = rows[0].split(",")
    combined = next(r for r in rows[1:] if r.startswith("combined,"))
    f1 = float(combined.split(",")[header.index("f1")])
    assert f1 == pytest.approx(report["mean"]["f1"], abs=1e-12)


def test_ablation_rows(synth_setup):
    config, out = synth_setup
    assert main(["ablate", "--config", str(config)]) == 0
    rows = (out / "ablation.csv").read_text(encoding="utf-8").strip().split("\n")
    names = [r.split(",")[0] for r in rows[1:]]
    assert names == ["alpha-cl", "beta-cl", "combined", "+2-itr"]


def test_ablate_honours_jobs(synth_setup, monkeypatch):
    config, out = synth_setup
    seen_jobs = []
    real = evaluation.ablation_table

    def spy(*args, **kwargs):
        seen_jobs.append(kwargs.get("jobs"))
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "ablation_table", spy)
    tables = []
    for jobs in ("1", "2"):
        alt = out / f"jobs{jobs}"
        assert main(["ablate", "--config", str(config), "--reps", "2",
                     "--jobs", jobs, "--out", str(alt)]) == 0
        tables.append((alt / "ablation.csv").read_bytes())
    assert seen_jobs == [1, 2]
    assert tables[0] == tables[1]


def test_sweep_rows(synth_setup, capsys):
    # one row per given size, a repeated one too; the report is the one an
    # evaluate without sizes writes
    config, out = synth_setup
    assert main(["evaluate", "--config", str(config), "--model", "nb"]) == 0
    alone = (out / "report_nb.json").read_bytes(), (out / "report_nb.csv").read_bytes()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config), "--model", "nb",
                 "--sizes", "20,30,30"]) == 0
    rows = (out / "sweep.csv").read_text(encoding="utf-8").strip().split("\n")
    assert [r.split(",")[0] for r in rows] == ["n_labeled", "20", "30", "30"]
    assert ((out / "report_nb.json").read_bytes(),
            (out / "report_nb.csv").read_bytes()) == alone
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("nb: mean F1=")
    assert [line.split(":")[0] for line in printed[2:5]] == ["n=20", "n=30", "n=30"]
    assert printed[5] == f"wrote {out / 'sweep.csv'}"


def test_evaluate_without_sizes_writes_no_sweep_csv(synth_setup):
    config, out = synth_setup
    assert main(["evaluate", "--config", str(config), "--model", "nb"]) == 0
    assert (out / "report_nb.json").exists()
    assert not (out / "sweep.csv").exists()


def test_evaluate_with_sizes_is_one_fold_pass(synth_setup, monkeypatch):
    # the report's size and the curve's sizes share each repetition's folds,
    # and the corpus is processed once for all of them
    config, out = synth_setup
    calls = {"process_document": 0, "stratified_folds": 0}
    for name in calls:
        real = getattr(evaluation, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(evaluation, name, counted)
    assert main(["evaluate", "--config", str(config), "--model", "codecomp",
                 "--sizes", "20,40,80", "--reps", "2", "--jobs", "1"]) == 0
    assert calls == {"process_document": 120, "stratified_folds": 2}
    assert (out / "report_codecomp.json").exists()
    rows = (out / "sweep.csv").read_text(encoding="utf-8").strip().split("\n")
    assert [r.split(",")[0] for r in rows] == ["n_labeled", "20", "40", "80"]


def test_evaluate_rejects_dev_fold_and_jobs_out_of_range(synth_setup, tmp_path,
                                                         capsys):
    config, out = synth_setup
    with_dev = tmp_path / "dev.ini"
    with_dev.write_text(config.read_text(encoding="utf-8").replace(
        "master_seed = 5", "master_seed = 5\ndev_fold = 3"), encoding="utf-8")
    assert main(["evaluate", "--config", str(with_dev), "--model", "nb"]) == 2
    assert "dev_fold must lie in [0, 3), got 3" in capsys.readouterr().err
    assert main(["evaluate", "--config", str(config), "--model", "nb",
                 "--jobs", "0"]) == 2
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not (out / "report_nb.json").exists()


@pytest.mark.parametrize("command", ["train", "prepare"])
def test_jobs_checked_before_any_document_is_read(synth_setup, monkeypatch, capsys,
                                                  command):
    config, out = synth_setup
    read = []
    monkeypatch.setattr(cli, "load_corpus", lambda *args: read.append(args))
    assert main([command, "--config", str(config), "--jobs", "0"]) == 2
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err
    assert read == [] and not out.exists()


@pytest.mark.parametrize("model, edit", [
    ("em", lambda text: text + "\n[em]\nconvergence_tolerance = -1\n"),
    ("codecomp", lambda text: text.replace("convergence_tolerance = 1e-6",
                                           "convergence_tolerance = -1")),
])
def test_evaluate_rejects_negative_convergence_tolerance(synth_setup, tmp_path,
                                                         capsys, model, edit):
    config, out = synth_setup
    negative = tmp_path / "negative.ini"
    negative.write_text(edit(config.read_text(encoding="utf-8")), encoding="utf-8")
    assert main(["evaluate", "--config", str(negative), "--model", model]) == 2
    assert "convergence_tolerance must be >= 0, got -1.0" in capsys.readouterr().err
    assert not (out / f"report_{model}.json").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("validate-kcs", "gamma", "metric", "manhattan"),
    ("validate-kcs", "gamma", "sample_pairs", "0"),
    ("evaluate", "sweep", "sizes", "0,30"),
    ("evaluate", "sweep", "sizes", "40,20"),
    ("evaluate --model nb", "nb", "alpha", "0"),
    ("evaluate --model em", "em", "alpha", "0"),
])
def test_bad_value_fails_before_any_document_is_read(synth_setup, tmp_path, capsys,
                                                     monkeypatch, command, section,
                                                     key, value):
    config, out = synth_setup
    calls = []
    for module, name in ((cli, "process_document"), (evaluation, "process_document"),
                         (evaluation, "document_features"),
                         (baselines, "document_features")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real: calls.append(a) or real(*a))
    text = config.read_text(encoding="utf-8")
    bad = tmp_path / "bad.ini"
    bad.write_text(f"{text}\n[{section}]\n{key} = {value}\n", encoding="utf-8")
    assert main([*command.split(), "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"[{section}]" in err and key in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--window", "0"), ("--dim", "1")])
def test_bad_provider_value_fails_when_config_is_read(synth_setup, capsys, flag, value):
    # NB reads no provider, yet a provider value no provider accepts is an error
    config, out = synth_setup
    assert main(["evaluate", "--config", str(config), "--model", "nb", flag, value]) == 2
    err = capsys.readouterr().err
    assert "[provider]" in err and f"{flag[2:]}={value}" in err
    assert not out.exists()


def test_tsv_corpus_loads_by_suffix(tmp_path):
    docs, _ = decomposable_corpus(40, seed=9, positive_rate=0.4)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(f"{d.id}\t{d.gold_label}\t{d.text}\n" for d in docs),
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["evaluate", "--model", "nb", "--corpus", str(corpus),
                 "--out", str(out), "--folds", "2", "--n-labeled", "10",
                 "--reps", "1"]) == 0
    report = json.loads((out / "report_nb.json").read_text(encoding="utf-8"))
    assert sum(run[k] for run in report["runs"]
               for k in ("tp", "fp", "fn", "tn")) == len(docs)


def test_flag_overrides_config(synth_setup):
    config, out = synth_setup
    assert main(["evaluate", "--config", str(config), "--model", "nb",
                 "--folds", "2", "--out", str(out / "alt")]) == 0
    report = json.loads((out / "alt" / "report_nb.json").read_text(encoding="utf-8"))
    assert report["k_folds"] == 2
