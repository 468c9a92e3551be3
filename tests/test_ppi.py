"""Rectified objective, power tuning, sandwich covariance, intervals."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import oracles
from multippi import mlogit, ppi, simulate
from multippi.errors import ParameterError, SeparationError, ShapeError


def make_inputs(rng, n=120, big_n=360, n_classes=3, d=2,
                noise=None, theta_scale=1.0):
    x, y, theta_star = oracles.make_instance(rng, n_classes, d, n + big_n,
                                             theta_scale=theta_scale)
    if noise is None:
        yhat = y.copy()
    else:
        yhat = simulate.corrupt(y, noise, rng)
    inputs = ppi.PpiInputs(x[:n], y[:n], yhat[:n], x[n:], yhat[n:], n_classes)
    return inputs, y[n:], theta_star


def test_rectified_loss_lambda0_is_labeled_nll_exactly():
    rng = np.random.default_rng(0)
    inputs, _, _ = make_inputs(rng)
    theta = rng.uniform(-1, 1, inputs.n_params)
    value, grad = ppi.rectified_loss(theta, inputs, 0.0)
    assert value == mlogit.nll(theta, inputs.x_labeled, inputs.y_labeled, 3)
    assert np.array_equal(grad, mlogit.nll_grad(theta, inputs.x_labeled,
                                                inputs.y_labeled, 3))


def test_rectified_loss_lambda1_cancellation_exact():
    rng = np.random.default_rng(1)
    inputs, _, _ = make_inputs(rng)      # perfect predictions on labeled rows
    theta = rng.uniform(-1, 1, inputs.n_params)
    value, grad = ppi.rectified_loss(theta, inputs, 1.0)
    assert value == mlogit.nll(theta, inputs.x_unlabeled, inputs.yhat_unlabeled, 3)
    assert np.array_equal(grad, mlogit.nll_grad(theta, inputs.x_unlabeled,
                                                inputs.yhat_unlabeled, 3))


def test_rectified_loss_three_term_oracle():
    rng = np.random.default_rng(2)
    inputs, _, _ = make_inputs(rng, noise=simulate.NoiseModel.uniform(3))
    theta = rng.uniform(-1, 1, inputs.n_params)
    lam = 0.37
    value, grad = ppi.rectified_loss(theta, inputs, lam)
    expected = (oracles.softmax_nll(theta, inputs.x_labeled, inputs.y_labeled, 3)
                + lam * (oracles.softmax_nll(theta, inputs.x_unlabeled,
                                             inputs.yhat_unlabeled, 3)
                         - oracles.softmax_nll(theta, inputs.x_labeled,
                                               inputs.yhat_labeled, 3)))
    assert value == pytest.approx(expected, rel=1e-12)
    expected_grad = (oracles.softmax_grad(theta, inputs.x_labeled, inputs.y_labeled, 3)
                     + lam * (oracles.softmax_grad(theta, inputs.x_unlabeled,
                                                   inputs.yhat_unlabeled, 3)
                              - oracles.softmax_grad(theta, inputs.x_labeled,
                                                     inputs.yhat_labeled, 3)))
    assert np.allclose(grad, expected_grad, atol=1e-12)


def test_rectified_loss_lambda_out_of_range():
    rng = np.random.default_rng(3)
    inputs, _, _ = make_inputs(rng)
    with pytest.raises(ParameterError):
        ppi.rectified_loss(np.zeros(inputs.n_params), inputs, 1.2)
    with pytest.raises(ParameterError):
        ppi.rectified_loss(np.zeros(inputs.n_params), inputs, -0.1)


def test_fit_multippi_lambda0_equals_classical():
    rng = np.random.default_rng(4)
    inputs, _, _ = make_inputs(rng, noise=simulate.NoiseModel.uniform(3))
    fit = ppi.fit_multippi_report(inputs, 0.0)
    theta_classical = ppi.fit_classical(inputs.x_labeled, inputs.y_labeled, 3).theta
    assert np.max(np.abs(fit.theta - theta_classical)) < 1e-8
    assert fit.lambda_choice.mode == "fixed"


def test_fit_multippi_lambda1_perfect_predictions_equals_unlabeled_mle():
    rng = np.random.default_rng(5)
    inputs, _, _ = make_inputs(rng)
    fit = ppi.fit_multippi_report(inputs, 1.0)
    theta_u = ppi.fit_classical(inputs.x_unlabeled, inputs.yhat_unlabeled, 3).theta
    assert np.max(np.abs(fit.theta - theta_u)) < 1e-8


def test_rectified_hessian_convex_combination():
    rng = np.random.default_rng(6)
    inputs, _, _ = make_inputs(rng)
    theta = rng.uniform(-1, 1, inputs.n_params)
    for lam in (0.0, 0.3, 1.0):
        h = ppi.rectified_hessian(theta, inputs, lam)
        assert np.linalg.eigvalsh(h).min() >= -1e-10


def test_pooled_hessian_prediction_invariant():
    # at lambda = 0 the fit never reads predictions, so both reports'
    # pooled Hessians are taken at the same theta
    rng = np.random.default_rng(7)
    inputs, _, _ = make_inputs(rng, noise=simulate.NoiseModel.uniform(3))
    report1 = ppi.fit_multippi_report(inputs, 0.0)
    shuffled = ppi.PpiInputs(inputs.x_labeled, inputs.y_labeled,
                             np.roll(inputs.yhat_labeled, 3),
                             inputs.x_unlabeled,
                             np.roll(inputs.yhat_unlabeled, 7), 3)
    report2 = ppi.fit_multippi_report(shuffled, 0.0)
    assert np.array_equal(report1.theta, report2.theta)
    assert np.array_equal(report1.covariance.hessian, report2.covariance.hessian)


def test_multippi_closer_to_truth_than_naive():
    # fixed generating coefficients, biased predictions; the rectified
    # point estimate wins in >= 95% of runs
    noise = simulate.ASYMMETRIC_3CLASS
    theta_star = simulate.DEFAULT_THETA_STAR
    wins = 0
    reps = 500
    for rep in range(reps):
        spec = simulate.default_spec(seed=900)
        rng = np.random.default_rng(np.random.SeedSequence(900, spawn_key=(rep,)))
        data = simulate.generate(spec, rng)
        yhat_l = simulate.corrupt(data.y_labeled, noise, rng)
        yhat_u = simulate.corrupt(data.y_unlabeled, noise, rng)
        inputs = ppi.PpiInputs(data.x_labeled, data.y_labeled, yhat_l,
                               data.x_unlabeled, yhat_u, 3)
        fit = ppi.fit_multippi_report(inputs, "tuned")
        x_all = np.vstack([inputs.x_labeled, inputs.x_unlabeled])
        yhat_all = np.concatenate([yhat_l, yhat_u])
        theta_naive = ppi.fit_classical(x_all, yhat_all, 3).theta
        wins += (np.linalg.norm(theta_naive - theta_star)
                 > np.linalg.norm(fit.theta - theta_star))
    assert wins / reps >= 0.95


def test_fit_rectified_nonconvergence_reported_not_raised(monkeypatch):
    rng = np.random.default_rng(44)
    inputs, _, _ = make_inputs(rng, noise=simulate.NoiseModel.uniform(3))
    monkeypatch.setattr(mlogit, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(mlogit, "_GRAD_TOL", 1e-14)
    diag = ppi.fit_multippi_report(inputs, 0.6).diagnostics
    assert not diag.converged
    assert diag.status in ("max_iterations", "stalled")


def test_tune_lambda_clipping_preserves_raw():
    choice = ppi.LambdaChoice(1.7, "tuned")
    assert choice.raw == 1.7
    assert choice.clipped == 1.0
    low = ppi.LambdaChoice(-0.4, "tuned")
    assert low.clipped == 0.0 and low.raw == -0.4


def test_tune_lambda_shuffled_predictions_near_zero():
    values = []
    for rep in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(901, spawn_key=(rep,)))
        x, y, _ = oracles.make_instance(rng, 3, 2, 1000)
        yhat = rng.permutation(y)
        inputs = ppi.PpiInputs(x[:200], y[:200], yhat[:200],
                               x[200:], yhat[200:], 3)
        fit = ppi.fit_multippi_report(inputs, "tuned")
        values.append(fit.lambda_choice.clipped)
    assert np.mean(values) < 0.1


def test_tune_lambda_perfect_predictions_limit():
    # N/n = 4: the plug-in concentrates near 1/(1 + n/N) = 0.8
    values = []
    for rep in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(902, spawn_key=(rep,)))
        inputs, _, _ = make_inputs(rng, n=200, big_n=800)
        values.append(ppi.fit_multippi_report(inputs, "tuned").lambda_choice.clipped)
    assert np.mean(values) == pytest.approx(0.8, abs=0.05)


def test_tune_lambda_zero_denominator():
    # constant design and constant predictions: predicted-label gradients
    # have zero variance at the lambda = 1 pilot (theta = 0)
    x = np.ones((6, 1))
    y = np.array([0, 1, 0, 1, 1, 0])
    yhat = np.zeros(6, dtype=np.int64)
    inputs = ppi.PpiInputs(x[:4], y[:4], yhat[:4], x[4:], yhat[4:], 2)
    choice = ppi.fit_multippi_report(inputs, "tuned").lambda_choice
    assert choice.clipped == 0.0
    assert choice.warning is not None


def test_sandwich_lambda0_reduces_to_classical_form():
    rng = np.random.default_rng(8)
    inputs, _, _ = make_inputs(rng, noise=simulate.NoiseModel.uniform(3))
    report = ppi.fit_multippi_report(inputs, 0.0)
    theta, cov = report.theta, report.covariance
    assert np.allclose(cov.v_f, 0.0)
    h = cov.hessian
    x_all = np.vstack([inputs.x_labeled, inputs.x_unlabeled])
    assert np.allclose(h, mlogit.nll_hess(theta, x_all, 3), atol=1e-12)
    grads = mlogit.per_row_grads(theta, inputs.x_labeled, inputs.y_labeled, 3)
    centered = grads - grads.mean(axis=0)
    v = centered.T @ centered / (len(grads) - 1)
    h_inv = np.linalg.inv(h)
    assert np.allclose(cov.sigma, h_inv @ v @ h_inv, atol=1e-12)


def test_sandwich_symmetric_psd():
    rng = np.random.default_rng(9)
    inputs, _, _ = make_inputs(rng, noise=simulate.ASYMMETRIC_3CLASS)
    cov = ppi.fit_multippi_report(inputs, "tuned").covariance
    assert np.max(np.abs(cov.sigma - cov.sigma.T)) <= 1e-10
    assert np.linalg.eigvalsh(cov.sigma).min() >= -1e-10
    assert np.all(np.diag(cov.sigma) >= 0)


def test_sandwich_se_matches_sampling_sd():
    # classical sandwich SE within 15% of the empirical sd across fresh
    # draws from one fixed generating model
    reps = 1000
    spec = simulate.SyntheticSpec(theta_star=simulate.DEFAULT_THETA_STAR,
                                  n_labeled=300, n_unlabeled=1,
                                  n_classes=3, n_features=2, seed=903)
    estimates = np.zeros((reps, 4))
    se_sum = np.zeros(4)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(903, spawn_key=(rep,)))
        data = simulate.generate(spec, rng)
        report = ppi.fit_classical(data.x_labeled, data.y_labeled, 3)
        estimates[rep] = report.theta
        se_sum += report.se
    empirical_sd = estimates.std(axis=0, ddof=1)
    mean_se = se_sum / reps
    assert np.all(np.abs(mean_se / empirical_sd - 1.0) < 0.15)


def test_z_quantile_value():
    assert ppi.z_quantile(0.05) == pytest.approx(1.959964, abs=1e-6)
    with pytest.raises(ParameterError):
        ppi.z_quantile(0.0)


def test_z_quantile_equals_normal_ppf_exactly():
    alphas = np.concatenate([[1e-6, 0.01, 0.05, 0.1, 0.2, 0.5, 0.999],
                             np.linspace(0.001, 0.999, 499), np.logspace(-12, -0.01, 100),
                             np.logspace(-16, -13, 50), np.linspace(0.01, 0.99, 2001)])
    for alpha in alphas:
        assert ppi.z_quantile(float(alpha)) == float(scipy.stats.norm.ppf(1.0 - alpha / 2.0))


def test_importing_cli_leaves_scipy_stats_out():
    src = str(Path(ppi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, multippi.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def test_confidence_interval_arithmetic():
    sigma = np.array([[4.0]])
    se, lower, upper, warns = ppi.confidence_intervals(np.zeros(1), sigma, 100, 0.05)
    assert lower[0] == pytest.approx(-0.39199, abs=1e-5)
    assert upper[0] == pytest.approx(0.39199, abs=1e-5)
    assert not warns


def test_confidence_interval_width_scaling():
    sigma = np.diag([2.0, 5.0])
    theta = np.array([0.3, -0.2])
    se_n, lo_n, hi_n, _ = ppi.confidence_intervals(theta, sigma, 50, 0.05)
    se_4n, lo_4n, hi_4n, _ = ppi.confidence_intervals(theta, sigma, 200, 0.05)
    # quadrupling n halves the width exactly
    assert np.array_equal(hi_n - lo_n, 2.0 * (hi_4n - lo_4n))


def test_confidence_interval_negative_diagonal_clamped():
    sigma = np.array([[1.0, 0.0], [0.0, -1e-12]])
    se, lower, upper, warns = ppi.confidence_intervals(np.zeros(2), sigma, 10, 0.05)
    assert se[1] == 0.0
    assert warns


def test_classical_coverage_nominal(asymmetric_coverage_run):
    coverage = asymmetric_coverage_run.coverage["classical"]
    assert np.all(coverage >= 0.93) and np.all(coverage <= 0.97)


def test_fit_naive_perfect_predictions_equals_ground_truth():
    rng = np.random.default_rng(10)
    x, y, _ = oracles.make_instance(rng, 3, 2, 200)
    naive = ppi.fit_naive(ppi.PpiInputs(x, y, y.copy(), x[:0], y[:0], 3))
    truth = ppi.fit_classical(x, y, 3, estimator="ground-truth")
    assert np.array_equal(naive.theta, truth.theta)
    assert np.array_equal(naive.se, truth.se)


def test_fit_naive_bias_exceeds_three_se():
    # systematically corrupted predictions push the age coefficient off truth
    noise = simulate.ASYMMETRIC_3CLASS
    theta_star = simulate.DEFAULT_THETA_STAR
    spec = simulate.default_spec(seed=904)
    hits = 0
    reps = 200
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(904, spawn_key=(rep,)))
        data = simulate.generate(spec, rng)
        y = np.concatenate([data.y_labeled, data.y_unlabeled])
        yhat = simulate.corrupt(y, noise, rng)
        n = spec.n_labeled
        report = ppi.fit_naive(ppi.PpiInputs(data.x_labeled, data.y_labeled, yhat[:n],
                                             data.x_unlabeled, yhat[n:], 3))
        age = [1, 3]
        hits += np.any(np.abs(report.theta - theta_star)[age] > 3 * report.se[age])
    assert hits / reps >= 0.90


def test_fit_naive_on_labeled_only_is_classical_with_predicted_labels():
    rng = np.random.default_rng(11)
    x, y, _ = oracles.make_instance(rng, 3, 2, 150)
    yhat = simulate.corrupt(y, simulate.NoiseModel.uniform(3), rng)
    naive = ppi.fit_naive(ppi.PpiInputs(x, y, yhat, x[:0], yhat[:0], 3))
    classical = ppi.fit_classical(x, yhat, 3)
    assert np.array_equal(naive.theta, classical.theta)
    assert np.array_equal(naive.se, classical.se)


def test_fit_classical_needs_enough_rows():
    x = np.ones((4, 2))
    x[:, 1] = [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(ShapeError):
        ppi.fit_classical(x, np.array([0, 1, 2, 0]), 3)


def row_rule_probe():
    """4 rows for K = 3, d = 2: one short of the 5 a classical-type fit needs."""
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    return ppi.PpiInputs(x[:2], [0, 1], [0, 1], x[2:], [2, 1], 3)


def test_fit_naive_needs_enough_rows():
    with pytest.raises(ShapeError, match="^need at least 5 rows for inference, got 4$"):
        ppi.fit_naive(row_rule_probe())


def test_many_calls_give_a_set_with_too_few_rows_the_naive_row_error():
    rng = np.random.default_rng(13)
    sets = [make_inputs(rng)[0], row_rule_probe(), make_inputs(rng)[0]]
    fitted = ppi.fit_estimators_many(sets)
    naive = fitted[1]["naive"]
    assert isinstance(naive, ShapeError)
    assert str(naive) == "need at least 5 rows for inference, got 4"
    for r in (0, 2):
        i = sets[r]
        single = {"classical": ppi.fit_classical(i.x_labeled, i.y_labeled, 3),
                  "naive": ppi.fit_naive(i), "multippi": ppi.fit_multippi_report(i)}
        assert list(fitted[r]) == list(single)
        for tag, report in single.items():
            assert np.array_equal(fitted[r][tag].theta, report.theta), tag
            assert np.array_equal(fitted[r][tag].se, report.se), tag
            assert fitted[r][tag].lambda_choice == report.lambda_choice, tag
            assert fitted[r][tag].warnings == report.warnings, tag


def test_labeled_subset_wider_than_full_data():
    medians_subset, medians_full = [], []
    for rep in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(905, spawn_key=(rep,)))
        x, y, _ = oracles.make_instance(rng, 3, 2, 500)
        full = ppi.fit_classical(x, y, 3, estimator="ground-truth")
        subset = ppi.fit_classical(x[:100], y[:100], 3)
        medians_full.append(full.se)
        medians_subset.append(subset.se)
    med_full = np.median(medians_full, axis=0)
    med_subset = np.median(medians_subset, axis=0)
    assert np.all(med_subset > med_full)


def test_report_records_lambda_and_counts():
    rng = np.random.default_rng(12)
    inputs, _, _ = make_inputs(rng, noise=simulate.NoiseModel.uniform(3))
    report = ppi.fit_multippi_report(inputs, "tuned", alpha=0.05)
    doc = report.to_dict()
    assert doc["lambda"]["mode"] == "tuned"
    assert "raw" in doc["lambda"] and "clipped" in doc["lambda"]
    assert doc["n_labeled"] == inputs.n_labeled
    assert doc["n_unlabeled"] == inputs.n_unlabeled
    assert 0.0 <= doc["lambda"]["clipped"] <= 1.0
    # CI invariant: bounds are exactly theta +/- z * se
    z = ppi.z_quantile(0.05)
    assert np.allclose(report.ci_upper, report.theta + z * report.se, atol=0)
    classical = ppi.fit_classical(inputs.x_labeled, inputs.y_labeled, 3)
    cdoc = classical.to_dict()
    assert cdoc["lambda"]["mode"] == "fixed" and cdoc["lambda"]["clipped"] == 0.0


def test_ppi_inputs_validation():
    x = np.ones((10, 2))
    y = np.zeros(10, dtype=np.int64)
    # the rectified path checks row counts; the inputs themselves may be empty on a side
    few_labeled = ppi.PpiInputs(x[:3], y[:3], y[:3], x[3:], y[3:], 3)
    no_unlabeled = ppi.PpiInputs(x, y, y, x[:0], y[:0], 2)
    for fit in (ppi.fit_multippi_report, lambda i: ppi.rectified_loss(np.zeros(4), i, 0.5)):
        with pytest.raises(ShapeError, match="need at least 5 labeled rows to estimate "
                                             "covariances, got 3"):
            fit(few_labeled)
        with pytest.raises(ShapeError, match="need at least one unlabeled row"):
            fit(no_unlabeled)
    with pytest.raises(ShapeError):      # prediction out of range
        bad = y.copy()
        bad[0] = 7
        ppi.PpiInputs(x[:6], y[:6], bad[:6], x[6:], y[6:], 2)


@pytest.mark.xfail(strict=True, reason="Newton stops 'converged' on completely separated "
                   "data: probabilities saturate before |theta| reaches coef_bound")
def test_classical_fit_flags_complete_separation():
    # class 2 is exactly the labeled rows with x1 > 1.0, so the likelihood
    # has no maximizer; today the fit reports converged with |theta| ~ 578
    spec = simulate.default_spec(seed=3, n_labeled=60, n_unlabeled=400)
    data = simulate.generate(spec, np.random.default_rng(3))
    x, y = data.x_labeled, data.y_labeled.copy()
    separated = x[:, 1] > 1.0
    y[separated] = 2
    y[~separated & (y == 2)] = 1
    assert np.bincount(y, minlength=3).tolist() == [16, 36, 8]
    try:
        report = ppi.fit_classical(x, y, 3)
    except SeparationError:
        return
    assert report.diagnostics.status != "converged"
    assert any("intervals not valid" in w for w in report.warnings)


def test_report_warns_when_fit_did_not_converge(monkeypatch):
    # a Newton budget too small to converge: the report must say that its
    # intervals are invalid
    spec = simulate.default_spec(seed=3, n_labeled=60, n_unlabeled=400)
    rng = np.random.default_rng(spec.seed)
    data = simulate.generate(spec, rng)
    yhat_l = simulate.corrupt(data.y_labeled, simulate.ASYMMETRIC_3CLASS, rng)
    yhat_u = simulate.corrupt(data.y_unlabeled, simulate.ASYMMETRIC_3CLASS, rng)
    inputs = ppi.PpiInputs(data.x_labeled, data.y_labeled, yhat_l,
                           data.x_unlabeled, yhat_u, 3)
    with monkeypatch.context() as patch:
        patch.setattr(mlogit, "_MAX_ITERATIONS", 1)
        report = ppi.fit_multippi_report(inputs, 0.5)
    assert report.diagnostics.status == "max_iterations"
    assert report.warnings[0] == "fit status max_iterations: intervals not valid"
    assert report.to_dict()["warnings"][0] == report.warnings[0]
    converged = ppi.fit_multippi_report(inputs, 0.5)
    assert converged.diagnostics.status == "converged"
    assert converged.warnings == ()
    # class 2 removed from the labeled truth: no lambda gives a fit
    keep = data.y_labeled != 2
    absent = ppi.PpiInputs(data.x_labeled[keep], data.y_labeled[keep], yhat_l[keep],
                           data.x_unlabeled, yhat_u, 3)
    for lam in (0.0, 0.5, 1.0, "tuned"):
        with pytest.raises(ShapeError, match=r"classes absent from labeled data: \[2\]"):
            ppi.fit_multippi_report(absent, lam)


# -- metamorphic relations ------------------------------------------------------

METAMORPHIC_LAMBDA = 0.4


def _three_fits(x_l, y_l, yhat_l, x_u, yhat_u, n_classes):
    """Coefficients of the classical, naive and fixed-lambda rectified fits."""
    inputs = ppi.PpiInputs(x_l, y_l, yhat_l, x_u, yhat_u, n_classes)
    reports = {
        "classical": ppi.fit_classical(x_l, y_l, n_classes),
        "naive": ppi.fit_naive(inputs),
        "rectified": ppi.fit_multippi_report(inputs, lambda_mode=METAMORPHIC_LAMBDA),
    }
    for report in reports.values():
        assert report.diagnostics.status == "converged"
    return {name: report.theta for name, report in reports.items()}


def _full_probs(theta, x, n_classes):
    """(n, K) fitted probabilities, the reference class in column 0."""
    rest = mlogit.class_probs(theta, x, n_classes)
    return np.column_stack([1.0 - rest.sum(axis=1), rest])


def _metamorphic_data(seed, n_classes=4, d=3):
    rng = np.random.default_rng(seed)
    inputs, _, _ = make_inputs(rng, n=150, big_n=450, n_classes=n_classes, d=d,
                               noise=simulate.NoiseModel.uniform(n_classes))
    return (inputs.x_labeled, inputs.y_labeled, inputs.yhat_labeled,
            inputs.x_unlabeled, inputs.yhat_unlabeled, n_classes)


@pytest.mark.parametrize("reference", [1, 3])
def test_reference_class_relabel_reparameterizes_theta(reference):
    x_l, y_l, yhat_l, x_u, yhat_u, k = _metamorphic_data(31)
    relabel = np.arange(k)
    relabel[[0, reference]] = relabel[[reference, 0]]      # swap class 0 and the new reference
    before = _three_fits(x_l, y_l, yhat_l, x_u, yhat_u, k)
    after = _three_fits(x_l, relabel[y_l], relabel[yhat_l], x_u, relabel[yhat_u], k)
    x_all = np.vstack([x_l, x_u])
    for name, theta in before.items():
        # full coefficient rows B (reference row 0 pinned at zero) move to
        # B'[relabel[c]] = B[c] - B[reference]
        full = np.vstack([np.zeros(x_l.shape[1]), theta.reshape(k - 1, -1)])
        moved = np.empty_like(full)
        moved[relabel] = full - full[reference]
        np.testing.assert_allclose(after[name], moved[1:].ravel(), rtol=1e-7, atol=1e-9,
                                   err_msg=name)
        np.testing.assert_allclose(_full_probs(after[name], x_all, k)[:, relabel],
                                   _full_probs(theta, x_all, k), rtol=0, atol=1e-9,
                                   err_msg=name)


@pytest.mark.parametrize("scale, shift", [(12.5, 40.0), (-0.3, 2.0)])
def test_affine_covariate_rescale_maps_coefficients(scale, shift):
    x_l, y_l, yhat_l, x_u, yhat_u, k = _metamorphic_data(32)
    age = 1                                   # column 0 is the intercept

    def rescaled(x):
        x = x.copy()
        x[:, age] = scale * x[:, age] + shift
        return x

    before = _three_fits(x_l, y_l, yhat_l, x_u, yhat_u, k)
    after = _three_fits(rescaled(x_l), y_l, yhat_l, rescaled(x_u), yhat_u, k)
    for name, theta in before.items():
        # b0 + b1 x = b0' + b1' (a x + c)  gives  b1' = b1 / a,  b0' = b0 - b1 c / a
        blocks = theta.reshape(k - 1, -1).copy()
        blocks[:, 0] -= blocks[:, age] * shift / scale
        blocks[:, age] /= scale
        np.testing.assert_allclose(after[name], blocks.ravel(), rtol=1e-7, atol=1e-9,
                                   err_msg=name)
        x_all = np.vstack([x_l, x_u])
        np.testing.assert_allclose(_full_probs(after[name], rescaled(x_all), k),
                                   _full_probs(theta, x_all, k), rtol=0, atol=1e-9,
                                   err_msg=name)
