import io
import json

import pytest

from codecomp import evaluation
from codecomp.cli import ConfigError, ExperimentConfig, main, resolve_preset
from codecomp.learners import load_model
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

[sweep]
sizes = 20,30
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
        cfg = ExperimentConfig(task="phm-cancer", corpus="c.jsonl", k_folds=5,
                               sweep_sizes=(10, 20))
        path = tmp_path / "cfg.ini"
        path.write_text(cfg.to_ini(), encoding="utf-8")
        again = ExperimentConfig.from_file(path)
        assert again == cfg

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nbananas = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bananas"):
            ExperimentConfig.from_file(path)

    def test_invalid_value_names_field(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nk_folds = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="k_folds"):
            ExperimentConfig.from_file(path)

    def test_validation_bounds(self):
        cfg = ExperimentConfig(task="phm-cancer", corpus="c", k_folds=1)
        with pytest.raises(ConfigError, match="k_folds"):
            cfg.validate()

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

    def test_unknown_task_fails(self, phm_setup, tmp_path, capsys):
        code = main(["prepare", "--task", "nope", "--corpus", str(phm_setup),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "available presets" in capsys.readouterr().err


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


def test_sweep_rows(synth_setup):
    config, out = synth_setup
    assert main(["sweep", "--config", str(config), "--model", "nb"]) == 0
    rows = (out / "sweep.csv").read_text(encoding="utf-8").strip().split("\n")
    assert [r.split(",")[0] for r in rows] == ["n_labeled", "20", "30"]


def test_sweep_requires_sizes(synth_setup, tmp_path, capsys):
    config, _ = synth_setup
    text = config.read_text(encoding="utf-8").replace("sizes = 20,30", "sizes =")
    stripped = tmp_path / "nosizes.ini"
    stripped.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(stripped), "--model", "nb"]) == 2
    assert "sizes" in capsys.readouterr().err


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


def test_flag_overrides_config(synth_setup):
    config, out = synth_setup
    assert main(["evaluate", "--config", str(config), "--model", "nb",
                 "--folds", "2", "--out", str(out / "alt")]) == 0
    report = json.loads((out / "alt" / "report_nb.json").read_text(encoding="utf-8"))
    assert report["k_folds"] == 2
