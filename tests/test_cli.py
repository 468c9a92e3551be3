"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import json
import shutil

import numpy as np
import pytest

from multippi import cli, simulate
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


def write_synth_csv(path, n_per_site=120, seed=4):
    """Two-site, three-cause corpus with token signals and age effects."""
    rng = np.random.default_rng(seed)
    token_of = {"non-communicable": "tumor", "communicable": "fever",
                "external": "crash"}
    lines = ["id,site,age,open_text,cause"]
    causes = []
    for s, site in enumerate(("alpha", "beta")):
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


@pytest.mark.parametrize("flags, noise_text", [
    ([], "0.8,0.1,0.1\n0.1,nan,0.1\n0.1,0.1,0.8\n"),
    (["--alpha", 1.5], None),
])
def test_simulate_invalid_inputs_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                  flags, noise_text):
    monkeypatch.chdir(tmp_path)
    noise = "asymmetric"
    if noise_text is not None:
        (tmp_path / "noise.csv").write_text(noise_text)
        noise = "noise.csv"
    args = ["simulate", "--out", "sim", "--reps", 100, "--noise", noise, *flags]
    assert run_cli(args) == cli.EXIT_USAGE
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] \
        == "ParameterError"
    assert not (tmp_path / "sim").exists()


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
