"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from multippi import cli, experiment, ingest, mlogit, ppi, simulate, textpred
from multippi.ingest import CAUSE_CLASSES

GOLDEN_FILES = ("predictions.csv", "metrics.json", "confusion.csv", "model.json")


def run_cli(args):
    return cli.main([str(a) for a in args])


def stage_toy(data_dir, dest):
    shutil.copy(data_dir / "toy.csv", dest / "toy.csv")
    shutil.copy(data_dir / "columns.cfg", dest / "columns.cfg")


def predict_args(out):
    return ["predict", "--input", "toy.csv", "--columns", "columns.cfg",
            "--predictor", "nb", "--out", out, "--seed", 0, "--threads", 1]


def write_synth_csv(path, n_per_site=120, seed=4, sites=("alpha", "beta")):
    """Three-cause corpus with token signals and age effects, two sites by default."""
    rng = np.random.default_rng(seed)
    token_of = {"non-communicable": "tumor", "communicable": "fever",
                "external": "crash"}
    lines = ["id,site,age,open_text,cause"]
    causes = []
    for site in sites:
        for i in range(n_per_site):
            age = 20 + int(rng.integers(0, 60))
            probs = [0.5, 0.25, 0.25] if age < 50 else [0.4, 0.15, 0.45]
            cause = str(rng.choice(list(token_of), p=probs))
            word = token_of[cause]
            lines.append(f"{site}{i:03d},{site},{age},{word} {word} illness,{cause}")
            causes.append(cause)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return causes


def write_noisy_predictions(csv_path, pred_path, flip_every=4):
    rows = csv_path.read_text().strip().splitlines()[1:]
    out = ["record_id,predicted_label"]
    order = [c.value for c in CAUSE_CLASSES[:3]]
    for i, row in enumerate(rows):
        rid, _, _, _, cause = row.split(",")
        if i % flip_every == 0:
            cause = order[(order.index(cause) + 1) % 3]
        out.append(f"{rid},{cause}")
    pred_path.write_text("\n".join(out) + "\n", encoding="utf-8")


def test_predict_matches_golden_files(tmp_path, data_dir, monkeypatch):
    stage_toy(data_dir, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_cli(predict_args("golden_predict")) == 0
    for name in GOLDEN_FILES:
        got = tmp_path / "golden_predict" / name
        want = data_dir / "golden_predict" / name
        assert got.read_bytes() == want.read_bytes(), name


def test_predict_rerun_byte_identical(tmp_path, data_dir, monkeypatch):
    stage_toy(data_dir, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_cli(predict_args("golden_predict")) == 0
    first = {n: (tmp_path / "golden_predict" / n).read_bytes() for n in GOLDEN_FILES}
    shutil.rmtree(tmp_path / "golden_predict")
    assert run_cli(predict_args("golden_predict")) == 0
    for name in GOLDEN_FILES:
        assert (tmp_path / "golden_predict" / name).read_bytes() == first[name]


def test_ingest_outputs(tmp_path, data_dir, monkeypatch):
    stage_toy(data_dir, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_cli(["ingest", "--input", "toy.csv", "--columns", "columns.cfg",
                    "--out", "ingested", "--seed", 3, "--threads", 1]) == 0
    doc = json.loads((tmp_path / "ingested" / "ingest.json").read_text())
    assert doc["summary"]["n_records"] == 12
    assert doc["summary"]["n_filtered_age"] == 0
    assert doc["run_config"]["seed"] == 3
    assert doc["run_config"]["version"]
    records_csv = (tmp_path / "ingested" / "records.csv").read_text()
    assert records_csv.startswith("# tool: multippi")
    assert "# master_seed: 3" in records_csv


def test_unknown_predictor_usage_error(tmp_path, data_dir, monkeypatch, capsys):
    stage_toy(data_dir, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run_cli(["predict", "--input", "toy.csv", "--columns", "columns.cfg",
                    "--predictor", "quantum", "--out", "out", "--threads", 1])
    assert code == cli.EXIT_USAGE
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ParameterError"


@pytest.mark.parametrize("predictor", ["nb", "knn", "svm"])
def test_predict_without_training_causes_is_usage_error(tmp_path, data_dir, monkeypatch,
                                                        capsys, predictor):
    stage_toy(data_dir, tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nocause.cfg").write_text(
        "id = id\nsite = site\nage = age\nnarrative = open_text\n", encoding="utf-8")
    args = ["predict", "--input", "toy.csv", "--columns", "nocause.cfg",
            "--predictor", predictor, "--out", "out", "--seed", 0, "--threads", 1]
    assert run_cli(args) == cli.EXIT_USAGE
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {
        "error": "ParameterError",
        "message": "labels must be concrete cause classes, got None"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("delimiter", [";;", ""], ids=["two-chars", "empty"])
@pytest.mark.parametrize("command, flags", [
    ("ingest", []),
    ("predict", ["--predictor", "nb"]),
    ("infer", ["--predictions", "preds.csv"]),
    ("loso", ["--predictor", "nb"]),
], ids=["ingest", "predict", "infer", "loso"])
def test_delimiter_not_one_character_is_usage_error(tmp_path, data_dir, monkeypatch, capsys,
                                                    command, flags, delimiter):
    stage_toy(data_dir, tmp_path)
    monkeypatch.chdir(tmp_path)
    args = [command, "--input", "toy.csv", "--columns", "columns.cfg", *flags,
            "--delimiter", delimiter, "--out", "out", "--threads", 1]
    assert run_cli(args) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ParameterError",
         "message": f"delimiter must be one character, got {delimiter!r}"}]
    assert not (tmp_path / "out").exists()


def test_missing_input_data_error(tmp_path, data_dir, monkeypatch, capsys):
    stage_toy(data_dir, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run_cli(["ingest", "--input", "absent.csv", "--columns", "columns.cfg",
                    "--out", "out", "--threads", 1])
    assert code == cli.EXIT_DATA_ERROR
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "message" in record


def test_infer_lambda_zero_matches_classical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    args = ["infer", "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--predictions", "preds.csv", "--labeled-fraction", 0.3,
            "--lambda", 0.0, "--seed", 9, "--out", "inferred", "--threads", 1]
    assert run_cli(args) == 0
    classical = json.loads((tmp_path / "inferred" / "report_classical.json").read_text())
    multippi = json.loads((tmp_path / "inferred" / "report_multippi.json").read_text())
    for a, b in zip(classical["report"]["coefficients"],
                    multippi["report"]["coefficients"]):
        assert a["estimate"] == pytest.approx(b["estimate"], abs=1e-8)
    assert multippi["report"]["lambda"]["mode"] == "fixed"
    assert multippi["report"]["lambda"]["clipped"] == 0.0


def test_infer_skips_a_non_finite_age_row(tmp_path, monkeypatch, capsys):
    # a row aged nan is a row error, not a record: a prediction for it is
    # misaligned like one for an under-age row, and without it infer fits
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv", n_per_site=200)
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    lines = (tmp_path / "synth.csv").read_text().splitlines()
    rid, site, _, text, cause = lines[7].split(",")
    lines[7] = ",".join([rid, site, "nan", text, cause])
    (tmp_path / "synth.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    columns = "id=id,site=site,age=age,narrative=open_text,cause=cause"
    args = ["infer", "--input", "synth.csv", "--columns", columns, "--predictions",
            "preds.csv", "--seed", 9, "--out", "inferred", "--threads", 1]
    capsys.readouterr()
    assert run_cli(args) == cli.EXIT_DATA_ERROR
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "AlignmentError" and rid in record["message"]
    preds = [line for line in (tmp_path / "preds.csv").read_text().splitlines()
             if not line.startswith(rid + ",")]
    (tmp_path / "preds.csv").write_text("\n".join(preds) + "\n", encoding="utf-8")
    assert run_cli(args) == 0, capsys.readouterr().err
    doc = json.loads((tmp_path / "inferred" / "report_ground-truth.json").read_text())
    assert doc["report"]["n_labeled"] == 399
    assert doc["report"]["diagnostics"]["status"] == "converged"
    assert run_cli(["ingest", "--input", "synth.csv", "--columns", columns,
                    "--out", "ingested", "--threads", 1]) == 0
    summary = json.loads((tmp_path / "ingested" / "ingest.json").read_text())["summary"]
    assert summary["row_errors"] == [{"row": 8, "message": "non-finite age 'nan'"}]


def test_infer_tuned_lambda_recorded(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    args = ["infer", "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--predictions", "preds.csv", "--labeled-fraction", 0.3,
            "--lambda", "tuned", "--seed", 9, "--out", "inferred", "--threads", 1]
    assert run_cli(args) == 0
    doc = json.loads((tmp_path / "inferred" / "report_multippi.json").read_text())
    lam = doc["report"]["lambda"]
    assert lam["mode"] == "tuned"
    assert isinstance(lam["raw"], float)
    assert 0.0 <= lam["clipped"] <= 1.0
    for tag in ("ground-truth", "classical", "naive"):
        assert (tmp_path / "inferred" / f"report_{tag}.json").exists()
    table = (tmp_path / "inferred" / "coefficients.csv").read_text()
    assert "estimator" in table


def test_infer_groups_each_dataset_once(tmp_path, monkeypatch):
    # ground truth and the labeled and unlabeled subsets; the classical and
    # naive fits regroup the two subsets' patterns instead of the rows
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    grouped = []
    group_rows = mlogit.group_rows

    def counted(x, *labels):
        grouped.append(len(x))
        return group_rows(x, *labels)

    monkeypatch.setattr(mlogit, "group_rows", counted)
    args = ["infer", "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--predictions", "preds.csv", "--labeled-fraction", 0.3, "--seed", 9,
            "--out", "inferred", "--threads", 1]
    assert run_cli(args) == 0
    split = json.loads((tmp_path / "inferred" / "report_naive.json").read_text())["split"]
    n, big_n = split["n_labeled"], split["n_unlabeled"]
    assert sorted(grouped) == sorted([n + big_n, n, big_n])


def test_infer_reports_equal_single_dataset_fits(tmp_path, monkeypatch):
    # classical, naive and multippi come from one batched call; each report
    # is the one its single-dataset call gives on the same rows
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    seen = {}
    build_design, split = experiment.build_design, experiment.split

    def spy(name, fn):
        def call(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        return call

    monkeypatch.setattr(experiment, "build_design", spy("design", build_design))
    monkeypatch.setattr(experiment, "split", spy("split", split))
    args = ["infer", "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--predictions", "preds.csv", "--labeled-fraction", 0.3, "--seed", 9,
            "--out", "inferred", "--threads", 1]
    assert run_cli(args) == 0
    (design, yhat), lab, unl = seen["design"], seen["split"].labeled, seen["split"].unlabeled
    assert len(np.unique(design.x, axis=0)) < len(design.x) / 4     # tied ages
    k = design.n_classes
    labels = {"class_names": tuple(c.value for c in design.classes),
              "covariate_names": design.covariate_names,
              "standardization": design.standardization}
    inputs = ppi.PpiInputs(design.x[lab], design.y[lab], yhat[lab], design.x[unl], yhat[unl], k)
    expected = {
        "ground-truth": ppi.fit_classical(design.x, design.y, k, estimator="ground-truth"),
        "classical": ppi.fit_classical(design.x[lab], design.y[lab], k),
        "naive": ppi.fit_naive(inputs),
        "multippi": ppi.fit_multippi_report(inputs, "tuned"),
    }
    for tag, report in expected.items():
        report = dataclasses.replace(report, **labels)
        written = json.loads((tmp_path / "inferred" / f"report_{tag}.json").read_text())
        assert json.dumps(written["report"], sort_keys=True) \
            == json.dumps(report.to_dict(), sort_keys=True), tag


def test_infer_labeled_split_missing_a_class_is_one_json_error(tmp_path, monkeypatch, capsys):
    # three external deaths, none drawn into the labeled rows: ground truth
    # fits, and the classical fit's error is the run's one record
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    lines = (tmp_path / "synth.csv").read_text().splitlines()
    external = [i for i, line in enumerate(lines) if line.endswith(",external")]
    for i in external[3:]:
        lines[i] = lines[i].replace("crash", "fever").replace(",external", ",communicable")
    (tmp_path / "synth.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv", flip_every=10**6)
    args = ["infer", "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--predictions", "preds.csv", "--labeled-fraction", 0.1, "--seed", 2,
            "--out", "inferred"]
    assert run_cli(args) == cli.EXIT_DATA_ERROR
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ShapeError", "message": "classes absent from data: [2]"}]
    assert not (tmp_path / "inferred").exists()


@pytest.mark.parametrize("command", ["predict", "loso"])
@pytest.mark.parametrize("flags, message", [
    (["--predictor", "svm", "--svm-c", "nan"], "svm_c must be finite and positive, got nan"),
    (["--predictor", "svm", "--svm-c", "inf"], "svm_c must be finite and positive, got inf"),
    (["--predictor", "svm", "--svm-epochs", 0], "svm_epochs must be at least 1, got 0"),
    (["--predictor", "svm", "--svm-epochs=-3"], "svm_epochs must be at least 1, got -3"),
    (["--predictor", "nb", "--nb-alpha", "nan"], "nb_alpha must be finite and positive, got nan"),
    (["--predictor", "nb", "--nb-alpha", "inf"], "nb_alpha must be finite and positive, got inf"),
    (["--predictor", "knn", "--knn-k", 0], "knn_k must be at least 1, got 0"),
    (["--predictor", "nb", "--min-count", 0], "min_count must be at least 1, got 0"),
], ids=["svm-c-nan", "svm-c-inf", "svm-epochs-0", "svm-epochs-neg", "nb-alpha-nan",
        "nb-alpha-inf", "knn-k-0", "min-count-0"])
def test_bad_predictor_settings_fail_before_loading(tmp_path, monkeypatch, capsys,
                                                    command, flags, message):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")

    def never(*args, **kwargs):
        raise AssertionError("records loaded")

    monkeypatch.setattr(ingest, "load_records", never)
    args = [command, "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--out", "out", "--threads", 1, *flags]
    assert run_cli(args) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ParameterError", "message": message}]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, config, message", [
    (["--lambda", 1.5], "", "lambda must lie in [0, 1], got 1.5"),
    (["--alpha", 1.5], "", "alpha must lie in (0, 1), got 1.5"),
    (["--labeled-fraction", 1.5], "", "labeled_fraction must lie in (0, 1), got 1.5"),
    ([], "split = by-site\n", "unknown split strategy 'by-site'"),
    (["--reference-class", "stroke"], "",
     f"unknown reference class 'stroke'; choose from {[c.value for c in CAUSE_CLASSES]}"),
], ids=["lambda", "alpha", "labeled-fraction", "split", "reference-class"])
def test_infer_rejects_bad_options_before_fitting(tmp_path, monkeypatch, capsys,
                                                  flags, config, message):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    (tmp_path / "cols.cfg").write_text(
        "id = id\nsite = site\nage = age\nnarrative = open_text\ncause = cause\n" + config,
        encoding="utf-8")

    def never(*args, **kwargs):
        raise AssertionError("predictions loaded or a fit ran")

    monkeypatch.setattr(textpred, "load_external_predictions", never)
    monkeypatch.setattr(ppi, "fit_classical", never)
    args = ["infer", "--input", "synth.csv", "--columns", "cols.cfg",
            "--predictions", "preds.csv", "--out", "out", *flags]
    assert run_cli(args) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ParameterError", "message": message}]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("predictor", ["nb", "external:preds.csv"])
@pytest.mark.parametrize("flags, config, message", [
    (["--lambda", 1.5], "", "lambda must lie in [0, 1], got 1.5"),
    (["--alpha", 1.5], "", "alpha must lie in (0, 1), got 1.5"),
    (["--labeled-fraction", 1.5], "", "labeled_fraction must lie in (0, 1), got 1.5"),
    ([], "split = by-site\n", "unknown split strategy 'by-site'"),
    (["--threads", 0], "", "threads must be at least 1, got 0"),
], ids=["lambda", "alpha", "labeled-fraction", "split", "threads"])
def test_loso_rejects_bad_options_before_any_site(tmp_path, monkeypatch, capsys, predictor,
                                                  flags, config, message):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    (tmp_path / "cols.cfg").write_text(
        "id = id\nsite = site\nage = age\nnarrative = open_text\ncause = cause\n" + config,
        encoding="utf-8")

    def never(*args, **kwargs):
        raise AssertionError("a site ran")

    monkeypatch.setattr(experiment, "train_predictor", never)
    monkeypatch.setattr(experiment, "evaluate_site", never)
    args = ["loso", "--input", "synth.csv", "--columns", "cols.cfg", "--predictor", predictor,
            "--out", "out", "--threads", 1, *flags]
    assert run_cli(args) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ParameterError", "message": message}]
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_lambda_before_any_replication(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(simulate, "fit_replications", never)
    assert run_cli(["simulate", "--out", "sim", "--reps", 100, "--lambda", 1.5]) \
        == cli.EXIT_USAGE
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ParameterError", "message": "lambda must lie in [0, 1], got 1.5"}]
    assert not (tmp_path / "sim").exists()


def test_ingest_prints_the_malaria_note_as_one_json_record(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.csv").write_text("id,site,age,text,cause\n"
                                    "r1,a,30,fever and chills,malaria\n"
                                    "r2,a,45,crash on the road,road traffic\n",
                                    encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("default")        # as outside the suite: shown, not raised
        assert run_cli(["ingest", "--input", "m.csv", "--out", "out",
                        "--columns", "id=id,site=site,age=age,narrative=text,cause=cause"]) == 0
    lines = capsys.readouterr().err.strip().splitlines()
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    assert records == [{"message": ingest.MALARIA_NOTE, "warning": "UserWarning"}]
    assert not any("cli.py" in line for line in lines)


def test_loso_site_reports_and_filter(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    base = ["loso", "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--predictor", "nb", "--labeled-fraction", 0.3, "--seed", 2,
            "--threads", 1]
    assert run_cli(base + ["--out", "loso_all"]) == 0
    assert (tmp_path / "loso_all" / "site_alpha.json").exists()
    assert (tmp_path / "loso_all" / "site_beta.json").exists()
    assert (tmp_path / "loso_all" / "coefficients.csv").exists()
    assert (tmp_path / "loso_all" / "confusion_alpha.csv").exists()
    assert run_cli(base + ["--out", "loso_one", "--sites", "beta"]) == 0
    assert (tmp_path / "loso_one" / "site_beta.json").exists()
    assert not (tmp_path / "loso_one" / "site_alpha.json").exists()
    doc = json.loads((tmp_path / "loso_one" / "site_beta.json").read_text())
    assert doc["site_report"]["accuracy"] is not None
    assert set(doc["site_report"]["reports"]) == {"ground-truth", "naive", "multippi"}


def test_simulate_matches_library_call(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--out", "sim", "--reps", 100, "--n", 100,
            "--unlabeled", 300, "--noise", "asymmetric", "--seed", 31,
            "--threads", 1]
    assert run_cli(args) == 0
    doc = json.loads((tmp_path / "sim" / "coverage.json").read_text())
    spec = simulate.default_spec(seed=31, n_labeled=100, n_unlabeled=300)
    direct = simulate.coverage_experiment(spec, simulate.ASYMMETRIC_3CLASS,
                                          reps=100)
    for tag in simulate.ESTIMATORS:
        file_cov = doc["coverage"]["estimators"][tag]["coverage"]
        assert np.allclose(file_cov, direct.coverage[tag])
    assert doc["coverage"]["lambda"]["mean"] == pytest.approx(direct.lambda_mean)


def test_config_file_supplies_split_parameters(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    (tmp_path / "cols.cfg").write_text(
        "id = id\nsite = site\nage = age\nnarrative = open_text\ncause = cause\n"
        "labeled_fraction = 0.4\nseed = 12\nsplit = full-random\n",
        encoding="utf-8")
    args = ["infer", "--input", "synth.csv", "--columns", "cols.cfg",
            "--predictions", "preds.csv", "--out", "inferred", "--threads", 1]
    assert run_cli(args) == 0
    doc = json.loads((tmp_path / "inferred" / "report_multippi.json").read_text())
    assert doc["split"]["labeled_fraction"] == 0.4
    assert doc["split"]["seed"] == 12
    assert doc["split"]["n_labeled"] == 96       # 0.4 of the 240 rows
    assert doc["run_config"]["labeled_fraction"] == 0.4
    # an explicit flag still overrides the config file
    args_override = args[:-4] + ["--labeled-fraction", 0.2,
                                 "--out", "inferred2", "--threads", 1]
    assert run_cli(args_override) == 0
    doc2 = json.loads((tmp_path / "inferred2" / "report_multippi.json").read_text())
    assert doc2["split"]["labeled_fraction"] == 0.2


@pytest.mark.parametrize("command", ["ingest", "infer"])
def test_config_file_key_typo_is_one_json_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    stage_text_inputs(tmp_path)
    (tmp_path / "cols.cfg").write_text(SYNTH_COLUMNS + "labelled_fraction = 0.4\n",
                                       encoding="utf-8")
    args = {"ingest": INGEST_ARGS, "infer": DECODED_FILES["predictions"][1]}[command]
    assert run_cli(args) == cli.EXIT_DATA_ERROR
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "SchemaError",
         "message": "cols.cfg: unknown key(s) ['labelled_fraction']; keys are the roles id, "
                    "site, age, narrative, cause and the defaults "
                    "['split', 'labeled_fraction', 'seed', 'lambda', 'alpha']"}]
    assert not (tmp_path / "out").exists()


def test_ingest_and_infer_accept_the_config_file_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stage_text_inputs(tmp_path)
    (tmp_path / "cols.cfg").write_text(
        SYNTH_COLUMNS + "split = full-random\nlabeled_fraction = 0.3\nseed = 4\n"
        "lambda = tuned\nalpha = 0.1\n", encoding="utf-8")
    assert run_cli(INGEST_ARGS) == 0
    assert run_cli(DECODED_FILES["predictions"][1][:-4] + ["--out", "inferred"]) == 0
    doc = json.loads((tmp_path / "inferred" / "report_multippi.json").read_text())
    assert (doc["split"]["labeled_fraction"], doc["report"]["alpha"]) == (0.3, 0.1)


@pytest.mark.parametrize("flags, noise_text", [
    ([], "0.8,0.1,0.1\n0.1,nan,0.1\n0.1,0.1,0.8\n"),
    (["--alpha", 1.5], None),
    (["--theta", "0.4,abc,-0.3,-0.8"], None),
    ([], "0.8,0.1,0.1\n0.1,x,0.1\n0.1,0.1,0.8\n"),
    ([], "0.8,0.1,0.1\n0.1,0.8\n0.1,0.1,0.8\n"),
    (["--theta", "1,2"], None),                  # --classes 3 --features 2 needs 4
    (["--n", 0], None),
    (["--unlabeled", 0], None),
    ([], "0.5,0.3,0.2\n0.2,0.5,0.3\n"),          # not square
    ([], "0.9,0.1\n0.1,0.9\n"),                  # square, but not 3x3
    (["--classes", 4, "--theta", "0,0,0,0,0,0"], None),    # asymmetric is 3x3 only
])
def test_simulate_invalid_inputs_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                  flags, noise_text):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        run_cli(["simulate", "--help"])
    simulate_flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    noise = "asymmetric"
    if noise_text is not None:
        (tmp_path / "noise.csv").write_text(noise_text)
        noise = "noise.csv"
    args = ["simulate", "--out", "sim", "--reps", 100, "--noise", noise, *flags]
    assert run_cli(args) == cli.EXIT_USAGE
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ParameterError"
    # the message sends the user only to flags that exist
    assert set(re.findall(r"--[a-z][a-z-]*", record["message"])) <= simulate_flags
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("entry", ["labeled_fraction = abc", "alpha = 0.o5", "seed = 1.5"])
def test_infer_malformed_config_number_is_usage_error(tmp_path, monkeypatch, capsys, entry):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    (tmp_path / "cols.cfg").write_text(
        "id = id\nsite = site\nage = age\nnarrative = open_text\ncause = cause\n"
        f"{entry}\n", encoding="utf-8")
    args = ["infer", "--input", "synth.csv", "--columns", "cols.cfg",
            "--predictions", "preds.csv", "--out", "inferred", "--threads", 1]
    assert run_cli(args) == cli.EXIT_USAGE
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ParameterError"
    assert entry.split(" = ")[0] in record["message"]
    assert not (tmp_path / "inferred").exists()


def test_simulate_dump_reps_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--out", "sim", "--reps", 100, "--n", 80,
            "--unlabeled", 240, "--noise", "identity", "--seed", 5,
            "--threads", 1, "--dump-reps"]
    assert run_cli(args) == 0
    dump = (tmp_path / "sim" / "replications.csv").read_text()
    assert "multippi_theta" in dump
    assert dump.count("\n") >= 100


def test_simulate_rerun_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--out", "sim_a", "--reps", 100, "--n", 80,
            "--unlabeled", 240, "--noise", "identity", "--seed", 8,
            "--threads", 1]
    assert run_cli(args) == 0
    args[2] = "sim_b"
    assert run_cli(args) == 0
    a = (tmp_path / "sim_a" / "coverage.json").read_text()
    b = (tmp_path / "sim_b" / "coverage.json").read_text()
    assert a.replace("sim_a", "sim_x") == b.replace("sim_b", "sim_x")
    csv_a = (tmp_path / "sim_a" / "coverage.csv").read_text()
    csv_b = (tmp_path / "sim_b" / "coverage.csv").read_text()
    assert csv_a.replace("sim_a", "sim_x") == csv_b.replace("sim_b", "sim_x")


def test_simulate_outputs_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # --threads left unset is recorded as null, not as the host's CPU count
    monkeypatch.chdir(tmp_path)
    outputs = []
    for cpus in (3, 5):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert run_cli(["simulate", "--out", "sim", "--reps", 100, "--n", 80,
                        "--unlabeled", 240, "--seed", 4, "--dump-reps"]) == 0
        outputs.append({path.name: path.read_bytes() for path in (tmp_path / "sim").iterdir()})
        shutil.rmtree(tmp_path / "sim")
    assert sorted(outputs[0]) == ["coverage.csv", "coverage.json", "replications.csv"]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]["coverage.json"])["run_config"]["threads"] is None


SYNTH_COLUMNS = "id = id\nsite = site\nage = age\nnarrative = open_text\ncause = cause\n"
INGEST_ARGS = ["ingest", "--input", "synth.csv", "--columns", "cols.cfg", "--out", "out",
               "--threads", 1]
# reader -> (the file it reads, a run that reads it, the error and exit code for a bad byte)
DECODED_FILES = {
    "records": ("synth.csv", INGEST_ARGS, "SchemaError", cli.EXIT_DATA_ERROR),
    "config": ("cols.cfg", INGEST_ARGS, "SchemaError", cli.EXIT_DATA_ERROR),
    "predictions": ("preds.csv",
                    ["infer", "--input", "synth.csv", "--columns", "cols.cfg", "--predictions",
                     "preds.csv", "--seed", 9, "--out", "out", "--threads", 1],
                    "PredictionFormatError", cli.EXIT_DATA_ERROR),
    "noise": ("noise.csv",
              ["simulate", "--noise", "noise.csv", "--reps", 100, "--n", 80,
               "--unlabeled", 240, "--seed", 5, "--out", "out", "--threads", 1],
              "ParameterError", cli.EXIT_USAGE),
}


def stage_text_inputs(tmp_path):
    write_synth_csv(tmp_path / "synth.csv")
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    (tmp_path / "cols.cfg").write_text(SYNTH_COLUMNS, encoding="utf-8")
    (tmp_path / "noise.csv").write_text("0.8,0.1,0.1\n0.1,0.8,0.1\n0.1,0.1,0.8\n",
                                        encoding="utf-8")


@pytest.mark.parametrize("reader", sorted(DECODED_FILES))
def test_input_with_a_bom_reads_as_without(tmp_path, monkeypatch, capsys, reader):
    monkeypatch.chdir(tmp_path)
    stage_text_inputs(tmp_path)
    name, args, _, _ = DECODED_FILES[reader]
    assert run_cli(args) == 0
    plain = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    shutil.rmtree(tmp_path / "out")
    (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
    assert run_cli(args) == 0, capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == plain


@pytest.mark.parametrize("reader", sorted(DECODED_FILES))
def test_input_with_a_latin1_byte_is_one_json_error(tmp_path, monkeypatch, capsys, reader):
    monkeypatch.chdir(tmp_path)
    stage_text_inputs(tmp_path)
    name, args, error, code = DECODED_FILES[reader]
    text = (tmp_path / name).read_bytes()
    # the last line; in synth.csv it starts past the reader's first 8 KiB chunk
    at = text.rindex(b"\n", 0, len(text) - 1) + 1
    (tmp_path / name).write_bytes(text[:at] + b"\xe9" + text[at:])    # Latin-1 e-acute
    assert run_cli(args) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == error
    assert record["message"].startswith(f"{name}: byte {at} is not UTF-8")
    assert not (tmp_path / "out").exists()


def test_ingest_keeps_a_narrative_longer_than_csv_field_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cols.cfg").write_text(SYNTH_COLUMNS, encoding="utf-8")
    text = "fell " * 28_000             # 140,000 characters; csv.reader's default limit is 131,072
    (tmp_path / "synth.csv").write_text(
        f'id,site,age,open_text,cause\nr1,a,30,"{text}",falls\nr2,a,40,short,falls\n',
        encoding="utf-8")
    assert run_cli(INGEST_ARGS) == cli.EXIT_OK, capsys.readouterr().err
    assert f"\nr1,a,30.0,{text},external\n" in (tmp_path / "out" / "records.csv").read_text(
        encoding="utf-8")


# Runs each argv list of sys.argv[1] (JSON) through cli.main in this one process and
# prints, per run, its exit code and the scipy modules loaded by then.
SCIPY_PROBE = """
import json, sys
from multippi import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

runs = {"import multippi.cli": [0, scipy_modules()]}
for label, argv in json.loads(sys.argv[1]):
    runs[label] = [cli.main(argv), scipy_modules()]
print(json.dumps(runs))
"""


def test_commands_without_text_models_leave_scipy_out(tmp_path):
    stage_text_inputs(tmp_path)
    inputs = ["--input", "synth.csv", "--columns", "cols.cfg", "--seed", "9", "--threads", "1"]
    scipy_free = [
        ("ingest", ["ingest", *inputs, "--out", "ingested"]),
        ("infer", ["infer", *inputs, "--predictions", "preds.csv", "--out", "inferred"]),
        ("simulate", ["simulate", "--reps", "100", "--seed", "7", "--out", "sim"]),
        ("simulate failing", ["simulate", "--reps", "100", "--n", "12", "--unlabeled", "40",
                              "--noise", "identity", "--seed", "3", "--out", "sim_fail"]),
        ("loso external", ["loso", *inputs, "--predictor", "external:preds.csv",
                           "--out", "loso_external"]),
    ]
    text_model = ("loso nb", ["loso", *inputs, "--predictor", "nb", "--out", "loso_nb"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                             json.dumps([*scipy_free, text_model])],
                            cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    runs = json.loads(result.stdout)
    for label in ["import multippi.cli", *(label for label, _ in scipy_free)]:
        assert runs[label] == [0, []], label
    assert runs["loso nb"][0] == 0


def test_loso_sites_sharing_a_file_name_fail_before_writing(tmp_path, monkeypatch, capsys):
    # "A B" and "a_b" both map to site_a_b.json; the second must not overwrite the first
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv", n_per_site=60, sites=("A B", "a_b", "c"))
    write_noisy_predictions(tmp_path / "synth.csv", tmp_path / "preds.csv")
    args = ["loso", "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--predictor", "external:preds.csv", "--seed", 3, "--out", "out", "--threads", 1]
    assert run_cli(args) == cli.EXIT_DATA_ERROR
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "SchemaError",
         "message": "sites 'A B' and 'a_b' would both write site_a_b.json"}]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sites, flags, error, code, message", [
    (("alpha", "beta"), ["--sites", "beta,Gamma,delta"], "ParameterError", cli.EXIT_USAGE,
     "unknown site(s) ['Gamma', 'delta']; the records hold ['alpha', 'beta']"),
    (("A B", "a_b", "c"), [], "SchemaError", cli.EXIT_DATA_ERROR,
     "sites 'A B' and 'a_b' would both write site_a_b.json"),
], ids=["unknown", "shared-file-name"])
def test_loso_site_checks_run_before_any_site_trains(tmp_path, monkeypatch, capsys,
                                                     sites, flags, error, code, message):
    monkeypatch.chdir(tmp_path)
    write_synth_csv(tmp_path / "synth.csv", n_per_site=60, sites=sites)

    def never(*args, **kwargs):
        raise AssertionError("a site trained")

    monkeypatch.setattr(experiment, "train_predictor", never)
    args = ["loso", "--input", "synth.csv",
            "--columns", "id=id,site=site,age=age,narrative=open_text,cause=cause",
            "--predictor", "nb", "--seed", 3, "--out", "out", "--threads", 1, *flags]
    assert run_cli(args) == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [{"error": error, "message": message}]
    assert not (tmp_path / "out").exists()


def test_text_predictors_without_scipy_are_one_usage_error(tmp_path):
    # a scipy package that fails to import, first on the path
    stage_text_inputs(tmp_path)
    (tmp_path / "no_scipy" / "scipy").mkdir(parents=True)
    (tmp_path / "no_scipy" / "scipy" / "__init__.py").write_text(
        'raise ImportError("scipy is blocked: this command must not import it")\n',
        encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tmp_path / "no_scipy"), src, os.environ.get("PYTHONPATH", "")])}
    inputs = ["--input", "synth.csv", "--columns", "cols.cfg", "--seed", "9", "--threads", "1",
              "--predictor", "nb"]
    for command in ("loso", "predict"):
        result = subprocess.run([sys.executable, "-m", "multippi.cli", command, *inputs,
                                 "--out", command], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == cli.EXIT_USAGE, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert json.loads(lines[0]) == {
            "error": "ParameterError",
            "message": "the nb, knn and svm predictors need scipy: "
                       "scipy is blocked: this command must not import it"}
