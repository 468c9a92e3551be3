"""Synthetic data generation, label corruption, and coverage experiments."""

import json

import numpy as np
import pytest

import oracles
from multippi import mlogit, simulate
from multippi.errors import MultippiError, ParameterError, ShapeError

# The spec of test_coverage_counts_partial_failures: classes are often
# missing from its tiny labeled samples.
PARTIAL_FAILURE_SPEC = dict(theta_star=np.array([1.0, 0.2, -2.2, 0.2]), n_labeled=30,
                            n_unlabeled=200, n_classes=3, n_features=2, seed=11)
# Steep coefficients: some labeled samples are separated, so a stacked fit
# raises SeparationError and must be split to find the replications at fault.
SEPARATING_SPEC = dict(theta_star=np.array([-4.0, 30.0, -4.0, -30.0]), n_labeled=60,
                       n_unlabeled=200, n_classes=3, n_features=2, seed=11)


def report_json(report):
    """The report as sorted, indented JSON text."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def test_generate_uniform_frequencies_at_zero_coefficients():
    spec = simulate.SyntheticSpec(theta_star=np.zeros(4), n_labeled=5000,
                                  n_unlabeled=5000, n_classes=3, n_features=2,
                                  seed=1)
    data = simulate.generate(spec)
    y = np.concatenate([data.y_labeled, data.y_unlabeled])
    counts = np.bincount(y, minlength=3)
    expected = len(y) / 3
    sigma = np.sqrt(len(y) * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_generate_same_seed_identical():
    spec = simulate.default_spec(seed=42)
    a = simulate.generate(spec)
    b = simulate.generate(spec)
    assert np.array_equal(a.x_labeled, b.x_labeled)
    assert np.array_equal(a.y_labeled, b.y_labeled)
    assert np.array_equal(a.x_unlabeled, b.x_unlabeled)
    assert np.array_equal(a.y_unlabeled, b.y_unlabeled)


def test_generate_conditional_frequencies_match_model():
    spec = simulate.SyntheticSpec(theta_star=simulate.DEFAULT_THETA_STAR,
                                  n_labeled=25000, n_unlabeled=25000,
                                  n_classes=3, n_features=2, seed=7)
    data = simulate.generate(spec)
    x = np.vstack([data.x_labeled, data.x_unlabeled])
    y = np.concatenate([data.y_labeled, data.y_unlabeled])
    edges = np.quantile(x[:, 1], np.linspace(0, 1, 11))
    edges[0], edges[-1] = -np.inf, np.inf
    bins = np.digitize(x[:, 1], edges[1:-1])
    probs = mlogit.class_probs(spec.theta_star, x, 3)
    full = np.column_stack([1 - probs.sum(axis=1), probs])
    for b in range(10):
        mask = bins == b
        m = mask.sum()
        expected = full[mask].mean(axis=0)
        observed = np.bincount(y[mask], minlength=3) / m
        sigma = np.sqrt(expected * (1 - expected) / m)
        assert np.all(np.abs(observed - expected) <= 3 * sigma + 1e-12)


def test_generate_shape_validation():
    with pytest.raises(ShapeError):
        simulate.SyntheticSpec(theta_star=np.zeros(3), n_labeled=10,
                               n_unlabeled=10, n_classes=3, n_features=2, seed=0)


@pytest.mark.parametrize("change", [{"covariate_scale": np.nan},
                                    {"covariate_scale": np.inf},
                                    {"theta_star": np.array([0.4, np.nan, -0.3, -0.8])},
                                    {"theta_star": np.array([0.4, 0.8, -np.inf, -0.8])}])
def test_spec_rejects_non_finite_values(change):
    args = dict(theta_star=simulate.DEFAULT_THETA_STAR, n_labeled=10, n_unlabeled=10,
                n_classes=3, n_features=2) | change
    with pytest.raises(ParameterError):
        simulate.SyntheticSpec(**args)


def test_corrupt_identity_noise_is_identity():
    labels = np.array([0, 1, 2, 1, 0, 2] * 10)
    out = simulate.corrupt(labels, simulate.NoiseModel.identity(3), 5)
    assert np.array_equal(out, labels)


def test_corrupt_uniform_noise_chance_accuracy():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, 30000)
    out = simulate.corrupt(labels, simulate.NoiseModel.uniform(3), 6)
    accuracy = np.mean(out == labels)
    assert accuracy == pytest.approx(1 / 3, abs=0.01)


def test_corrupt_diagonal_concentration():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, 100000)
    noise = simulate.NoiseModel(np.array([[0.8, 0.1, 0.1],
                                          [0.1, 0.8, 0.1],
                                          [0.1, 0.1, 0.8]]))
    out = simulate.corrupt(labels, noise, 7)
    assert np.mean(out == labels) == pytest.approx(0.8, abs=0.01)


def test_noise_model_validation():
    with pytest.raises(ParameterError):
        simulate.NoiseModel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ParameterError):
        simulate.NoiseModel(np.array([[1.2, -0.2], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        simulate.NoiseModel(np.ones((2, 3)) / 3)
    # NaN fails both the sign test and the row-sum test, so it needs its own
    with pytest.raises(ParameterError, match="finite"):
        simulate.NoiseModel(np.array([[1.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(ParameterError, match="finite"):
        simulate.NoiseModel(np.array([[1.0, 0.0], [np.inf, 1.0]]))


def test_coverage_identity_noise_at_least_nominal(identity_coverage_run):
    report = identity_coverage_run
    nominal = 0.95
    for tag in simulate.ESTIMATORS:
        se = np.sqrt(nominal * (1 - nominal) / (report.replications - report.failures))
        assert np.all(report.coverage[tag] >= nominal - 2 * se), tag


def test_lambda_higher_under_identity_than_uniform(identity_coverage_run,
                                                   uniform_coverage_run):
    assert identity_coverage_run.lambda_mean > uniform_coverage_run.lambda_mean


def test_lambda_values_clipped_to_unit_interval(identity_coverage_run,
                                                uniform_coverage_run,
                                                asymmetric_coverage_run):
    for run in (identity_coverage_run, uniform_coverage_run, asymmetric_coverage_run):
        assert np.all(run.lambda_values >= 0.0)
        assert np.all(run.lambda_values <= 1.0)


def test_coverage_requires_min_replications():
    spec = simulate.default_spec()
    with pytest.raises(ParameterError):
        simulate.coverage_experiment(spec, simulate.NoiseModel.identity(3), reps=50)


@pytest.mark.parametrize("alpha", [1.5, 0.0, 1.0, -0.1, np.nan])
def test_coverage_rejects_alpha_before_any_replication(monkeypatch, alpha):
    def never(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "fit_replications", never)
    with pytest.raises(ParameterError, match="alpha"):
        simulate.coverage_experiment(simulate.default_spec(), simulate.ASYMMETRIC_3CLASS,
                                     reps=100, alpha=alpha)


@pytest.mark.parametrize("lambda_mode", [1.5, -0.1, "tune"])
def test_coverage_rejects_lambda_before_any_replication(monkeypatch, lambda_mode):
    def never(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "fit_replications", never)
    with pytest.raises(ParameterError, match="lambda"):
        simulate.coverage_experiment(simulate.default_spec(), simulate.ASYMMETRIC_3CLASS,
                                     reps=100, lambda_mode=lambda_mode)


def test_coverage_counts_partial_failures():
    # classes occasionally missing from tiny labeled samples: those
    # replications fail and are excluded, the rest proceed
    spec = simulate.SyntheticSpec(**PARTIAL_FAILURE_SPEC)
    report = simulate.coverage_experiment(
        spec, simulate.NoiseModel.identity(3), reps=100)
    assert 0 < report.failures < 100
    assert report.replications == 100
    assert len(report.failure_details) == report.failures


def test_coverage_all_failures_raises():
    # 4 labeled rows can never satisfy the n >= d(K-1)+1 precondition
    spec = simulate.SyntheticSpec(theta_star=np.zeros(4), n_labeled=4,
                                  n_unlabeled=50, n_classes=3, n_features=2,
                                  seed=12)
    with pytest.raises(MultippiError):
        simulate.coverage_experiment(spec, simulate.NoiseModel.identity(3), reps=100)


def test_coverage_report_invariant_to_chunk_size(monkeypatch):
    spec = simulate.default_spec(seed=13, n_labeled=100, n_unlabeled=300)

    def run():
        return simulate.coverage_experiment(spec, simulate.ASYMMETRIC_3CLASS, reps=100,
                                            keep_replications=True)

    default = run()
    for chunk in (1, 7):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        chunked = run()
        assert report_json(chunked) == report_json(default), chunk
        assert chunked.replication_rows == default.replication_rows, chunk


def assert_same_replication(batched, single):
    assert batched.keys() == single.keys()
    if "error" in single:
        assert batched["error"] == single["error"]
        return
    for tag in simulate.ESTIMATORS:
        a, b = batched[tag], single[tag]
        for name in ("theta", "se", "ci_lower", "ci_upper"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=1e-10, atol=0,
                                       err_msg=f"rep {single['rep']} {tag} {name}")
        assert abs(a.lambda_choice.raw - b.lambda_choice.raw) <= 1e-12
        assert abs(a.lambda_choice.clipped - b.lambda_choice.clipped) <= 1e-12
        assert (a.lambda_choice.mode, a.lambda_choice.warning, a.lambda_choice.pilot_fallback) \
            == (b.lambda_choice.mode, b.lambda_choice.warning, b.lambda_choice.pilot_fallback)
        for name in ("status", "iterations", "converged", "condition_warning"):
            assert getattr(a.diagnostics, name) == getattr(b.diagnostics, name), (tag, name)
        assert a.warnings == b.warnings
        assert (a.n_labeled, a.n_unlabeled) == (b.n_labeled, b.n_unlabeled)


@pytest.mark.parametrize("spec, noise, lambda_mode, reps", [
    # seed 5 replication 181: the lambda=1 pilot fails and falls back
    (simulate.default_spec(seed=5), simulate.ASYMMETRIC_3CLASS, "tuned", range(160, 200)),
    (simulate.default_spec(seed=11), simulate.ASYMMETRIC_3CLASS, "tuned", range(0, 40)),
    (simulate.SyntheticSpec(**PARTIAL_FAILURE_SPEC), simulate.NoiseModel.identity(3),
     "tuned", range(0, 100)),
    # replications 0, 3 and 16 separate inside the stacked fits
    (simulate.SyntheticSpec(**SEPARATING_SPEC), simulate.NoiseModel.identity(3),
     "tuned", range(0, 20)),
    (simulate.default_spec(seed=5), simulate.ASYMMETRIC_3CLASS, 0.0, range(0, 20)),
    (simulate.default_spec(seed=5), simulate.ASYMMETRIC_3CLASS, 0.5, range(0, 20)),
    (simulate.default_spec(seed=5), simulate.ASYMMETRIC_3CLASS, 1.0, range(0, 20)),
], ids=["seed5", "seed11", "partial-failures", "separation", "lambda0", "lambda0.5",
        "lambda1"])
def test_batched_replications_match_one_at_a_time(spec, noise, lambda_mode, reps):
    batched = simulate.fit_replications(spec, noise, 0.05, lambda_mode, reps)
    single = [oracles.one_replication(spec, noise, 0.05, lambda_mode, r) for r in reps]
    assert [b["rep"] for b in batched] == list(reps)
    for b, s in zip(batched, single):
        assert_same_replication(b, s)
    if spec.seed == 5 and lambda_mode == "tuned":
        assert batched[181 - reps.start]["multippi"].lambda_choice.pilot_fallback
    if spec.n_labeled == 30:
        assert 0 < sum("error" in s for s in single) < len(reps)
    if spec.n_labeled == 60:
        assert [s["rep"] for s in single if "SeparationError" in s.get("error", "")] \
            == [0, 3, 16]


def test_replications_group_each_subset_once(monkeypatch):
    # the labeled and unlabeled rows of each replication; the classical and
    # naive fits regroup those two subsets' patterns instead of the rows
    grouped = []
    group_rows = mlogit.group_rows

    def counted(x, *labels):
        grouped.append(len(x))
        return group_rows(x, *labels)

    monkeypatch.setattr(mlogit, "group_rows", counted)
    spec = simulate.default_spec(seed=5)
    results = simulate.fit_replications(spec, simulate.ASYMMETRIC_3CLASS, 0.05, "tuned",
                                        range(8))
    assert not any("error" in r for r in results)
    assert sorted(grouped) == sorted([spec.n_labeled, spec.n_unlabeled] * 8)


def test_mc_seed_fit_statuses_and_pilot_fallbacks(asymmetric_coverage_run):
    run = asymmetric_coverage_run
    for tag in simulate.ESTIMATORS:
        assert run.fit_status[tag] == {"converged": 1000, "max_iterations": 0,
                                       "stalled": 0, "separation": 0}
    assert run.pilot_fallbacks == 7
    doc = run.to_dict()
    assert doc["version"] == 2
    assert doc["pilot_fallbacks"] == 7
    assert sum(doc["estimators"][tag]["fit_status"]["converged"]
               for tag in simulate.ESTIMATORS) == 3000


def test_coverage_report_serialization(identity_coverage_run):
    doc = identity_coverage_run.to_dict()
    assert doc["format"] == "multippi-coverage-report"
    assert set(doc["estimators"]) == set(simulate.ESTIMATORS)
    assert doc["failure_rate"] == identity_coverage_run.failures / 200
    rows = identity_coverage_run.csv_rows()
    assert len(rows) == 3 * 4
    json_text = report_json(identity_coverage_run)
    assert json_text == report_json(identity_coverage_run)
