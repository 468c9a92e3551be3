"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line
per criterion. Criterion 7 is data-gated: it runs only when the
PHMRC_ADULT_CSV and PHMRC_COLUMNS environment variables point at the
public adult file and a column-binding config.
"""

import json
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from multippi import cli, experiment, ingest, mlogit, ppi, simulate


def criterion(number, name, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {state} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_gradient_hessian_correctness():
    rng = np.random.default_rng(101)
    combos = [(k, d) for k in (2, 3, 5) for d in (1, 2, 4)]
    worst_grad, worst_hess = 0.0, 0.0
    for i in range(50):
        n_classes, d = combos[i % len(combos)]
        x, y, _ = oracles.make_instance(rng, n_classes, d, 50)
        theta = rng.uniform(-1, 1, d * (n_classes - 1))
        grad = oracles.mean_nll(theta, x, y, n_classes)[1]
        fd_grad = oracles.fd_gradient(lambda t: oracles.mean_nll(t, x, y, n_classes)[0], theta)
        rel_g = np.linalg.norm(grad - fd_grad) / max(1.0, np.linalg.norm(grad))
        hess = mlogit.nll_hess(theta, x, n_classes)
        fd_hess = oracles.fd_jacobian(
            lambda t: oracles.mean_nll(t, x, y, n_classes)[1], theta)
        rel_h = np.linalg.norm(hess - fd_hess) / max(1.0, np.linalg.norm(hess))
        worst_grad = max(worst_grad, rel_g)
        worst_hess = max(worst_hess, rel_h)
    criterion(1, "gradient/Hessian correctness",
              worst_grad < 1e-6 and worst_hess < 1e-5,
              f"50 instances; worst grad rel err {worst_grad:.2e} (< 1e-6), "
              f"worst hess rel err {worst_hess:.2e} (< 1e-5)")


def test_criterion_2_solver_oracle_equivalence():
    rng = np.random.default_rng(102)
    worst_irls = 0.0
    for _ in range(10):
        x, y, _ = oracles.make_instance(rng, 2, 3, 120)
        theta = ppi.fit_classical(x, y, 2).theta
        worst_irls = max(worst_irls,
                         float(np.max(np.abs(theta - oracles.irls_binary(x, y)))))
    worst_generic = 0.0
    for _ in range(10):
        x, y, _ = oracles.make_instance(rng, 3, 2, 120)
        theta = ppi.fit_classical(x, y, 3).theta
        reference = oracles.minimize_softmax_nll(x, y, 3)
        worst_generic = max(worst_generic, float(np.max(np.abs(theta - reference))))
    criterion(2, "solver oracle equivalence",
              worst_irls < 1e-6 and worst_generic < 1e-6,
              f"20 instances; worst vs IRLS {worst_irls:.2e}, "
              f"worst vs convex minimizer {worst_generic:.2e} (< 1e-6)")


def test_criterion_3_estimator_identities():
    rng = np.random.default_rng(103)
    spec = simulate.default_spec(seed=103, n_labeled=150, n_unlabeled=450)
    data = simulate.generate(spec, rng)
    yhat_l = simulate.corrupt(data.y_labeled, simulate.ASYMMETRIC_3CLASS, rng)
    yhat_u = simulate.corrupt(data.y_unlabeled, simulate.ASYMMETRIC_3CLASS, rng)
    noisy = ppi.PpiInputs(data.x_labeled, data.y_labeled, yhat_l,
                          data.x_unlabeled, yhat_u, 3)
    fit0 = ppi.fit_multippi_report(noisy, 0.0)
    theta_classical = ppi.fit_classical(data.x_labeled, data.y_labeled, 3).theta
    gap0 = float(np.max(np.abs(fit0.theta - theta_classical)))

    perfect = ppi.PpiInputs(data.x_labeled, data.y_labeled, data.y_labeled,
                            data.x_unlabeled, data.y_unlabeled, 3)
    fit1 = ppi.fit_multippi_report(perfect, 1.0)
    theta_unlabeled = ppi.fit_classical(data.x_unlabeled, data.y_unlabeled, 3).theta
    gap1 = float(np.max(np.abs(fit1.theta - theta_unlabeled)))
    criterion(3, "estimator identities", gap0 < 1e-8 and gap1 < 1e-8,
              f"lambda=0 vs classical gap {gap0:.2e}; lambda=1 perfect-prediction "
              f"vs unlabeled MLE gap {gap1:.2e} (< 1e-8)")


def test_criterion_4_ci_validity(asymmetric_coverage_run):
    run = asymmetric_coverage_run
    mp = run.coverage["multippi"]
    nv = run.coverage["naive"]
    cl = run.coverage["classical"]
    ok = (np.all(mp >= 0.93) and np.all(mp <= 0.97)
          and np.all(nv < 0.5)
          and np.all(cl >= 0.93) and np.all(cl <= 0.97)
          and run.failures == 0)
    criterion(4, "CI validity",
              ok,
              f"1000 reps; multippi coverage {np.round(mp, 3).tolist()} in [0.93, 0.97]; "
              f"naive {np.round(nv, 3).tolist()} < 0.5; "
              f"classical {np.round(cl, 3).tolist()} in [0.93, 0.97]")


def test_criterion_5_bias_rectification(asymmetric_coverage_run,
                                        identity_coverage_run):
    run = asymmetric_coverage_run
    theta_star = run.spec.theta_star
    d = run.spec.n_features
    age_idx = [block * d + 1 for block in range(run.spec.n_classes - 1)]
    wins = []
    for row in run.replication_rows:
        err_naive = np.abs(np.asarray(row["naive_theta"]) - theta_star)
        err_multippi = np.abs(np.asarray(row["multippi_theta"]) - theta_star)
        wins.append(err_naive[age_idx] > err_multippi[age_idx])
    win_rates = np.mean(wins, axis=0)

    widths = {tag: run.median_width_overall[tag] for tag in simulate.ESTIMATORS}
    ratio = widths["multippi"] / widths["naive"]
    identity_ratio = (identity_coverage_run.median_width_overall["multippi"]
                      / identity_coverage_run.median_width_overall["naive"])
    descriptive = "holds" if ratio <= 1.5 else "exceeded"
    criterion(5, "bias rectification",
              bool(np.all(win_rates >= 0.90)),
              f"age-coefficient rectification win rates {np.round(win_rates, 3).tolist()} "
              f"(>= 0.90); median widths {json.dumps({k: round(v, 4) for k, v in widths.items()})}; "
              f"descriptive width check multippi <= 1.5x naive: {descriptive} "
              f"(ratio {ratio:.2f} at 0.6-accuracy noise; {identity_ratio:.2f} under "
              f"identity noise) — reported, not gated")


def test_criterion_6_lambda_behavior(identity_coverage_run, uniform_coverage_run):
    gap = identity_coverage_run.lambda_mean - uniform_coverage_run.lambda_mean
    in_unit = bool(np.all((identity_coverage_run.lambda_values >= 0)
                          & (identity_coverage_run.lambda_values <= 1))
                   and np.all((uniform_coverage_run.lambda_values >= 0)
                              & (uniform_coverage_run.lambda_values <= 1)))
    criterion(6, "lambda behavior", gap >= 0.3 and in_unit,
              f"mean lambda identity {identity_coverage_run.lambda_mean:.3f} vs "
              f"uniform {uniform_coverage_run.lambda_mean:.3f}; gap {gap:.3f} "
              f"(>= 0.3); all clipped values in [0, 1]: {in_unit}")


PHMRC_CSV = os.environ.get("PHMRC_ADULT_CSV")
PHMRC_COLUMNS = os.environ.get("PHMRC_COLUMNS")


@pytest.mark.skipif(not (PHMRC_CSV and Path(PHMRC_CSV).exists() and PHMRC_COLUMNS),
                    reason="data-gated: set PHMRC_ADULT_CSV and PHMRC_COLUMNS "
                           "to run the real-data LOSO recipe")
def test_criterion_7_phmrc_reproduction():
    column_map = ingest.column_map_from_config(
        ingest.parse_config_file(PHMRC_COLUMNS))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load = ingest.load_records(PHMRC_CSV, column_map)
    # the documented malaria grouping note is expected on real PHMRC data; nothing else is
    assert [(w.category, str(w.message)) for w in caught] \
        == [(UserWarning, ingest.MALARIA_NOTE)] * len(caught)
    site = os.environ.get("PHMRC_SITE", "UP")
    reports = {kind: experiment.run_loso(load.records, experiment.PredictorSpec(kind),
                                         experiment.InferenceSpec(), sites=[site])[0]
               for kind in ("nb", "knn")}
    targets = {"nb": 0.60, "knn": 0.63}
    gaps = {kind: abs(reports[kind].accuracy - targets[kind]) for kind in targets}
    criterion(7, "data-gated LOSO reproduction",
              all(v <= 0.07 for v in gaps.values()),
              f"site {site}: "
              + ", ".join(f"{k} accuracy {reports[k].accuracy:.3f} "
                          f"(target {targets[k]:.2f} +/- 0.07)" for k in targets))


def test_criterion_8_determinism(tmp_path, data_dir, monkeypatch):
    shutil.copy(data_dir / "toy.csv", tmp_path / "toy.csv")
    shutil.copy(data_dir / "columns.cfg", tmp_path / "columns.cfg")
    monkeypatch.chdir(tmp_path)
    predict_args = ["predict", "--input", "toy.csv", "--columns", "columns.cfg",
                    "--predictor", "nb", "--out", "p", "--seed", "0",
                    "--threads", "1"]
    sim_args = ["simulate", "--out", "s", "--reps", "100", "--n", "80",
                "--unlabeled", "240", "--noise", "identity", "--seed", "1",
                "--threads", "1"]
    assert cli.main(predict_args) == 0
    assert cli.main(sim_args) == 0
    first = {p.name: p.read_bytes()
             for p in list((tmp_path / "p").iterdir()) + list((tmp_path / "s").iterdir())}
    shutil.rmtree(tmp_path / "p")
    shutil.rmtree(tmp_path / "s")
    assert cli.main(predict_args) == 0
    assert cli.main(sim_args) == 0
    second = {p.name: p.read_bytes()
              for p in list((tmp_path / "p").iterdir()) + list((tmp_path / "s").iterdir())}
    identical = first == second
    criterion(8, "determinism",
              identical,
              f"{len(first)} artifact files byte-identical across reruns "
              f"of predict and simulate with equal run configs")
