"""Grouped (pattern-count) fits against row-level references, plus metamorphic checks.

The estimators collapse rows to distinct (x, y, yhat) patterns before
fitting. The reference here never groups: it evaluates every row with the
full-K softmax from ``oracles`` and drives the package's Newton solver with
those row-level callables, so both sides take the same Newton path and any
difference comes from the grouping alone.
"""

import numpy as np
import pytest
import scipy.special

import oracles
from multippi import mlogit, ppi, simulate

K = 3


def repeated_design(rng, n_rows):
    """Intercept plus z-scored integer age, as experiment.build_design makes it."""
    age = rng.integers(20, 71, n_rows).astype(float)
    x = np.column_stack([np.ones(n_rows), (age - age.mean()) / age.std()])
    probs = mlogit.class_probs(simulate.DEFAULT_THETA_STAR, x, K)
    full = np.column_stack([1.0 - probs.sum(axis=1), probs])
    y = (rng.random(n_rows)[:, None] > np.cumsum(full, axis=1)[:, :-1]).sum(axis=1)
    return x, y.astype(np.int64)


def repeated_inputs(seed, n=150, big_n=600):
    rng = np.random.default_rng(seed)
    x, y = repeated_design(rng, n + big_n)
    yhat = simulate.corrupt(y, simulate.ASYMMETRIC_3CLASS, rng)
    return ppi.PpiInputs(x[:n], y[:n], yhat[:n], x[n:], yhat[n:], K)


# -- row-level reference -----------------------------------------------------

def row_probs(theta, x):
    d = x.shape[1]
    columns = np.column_stack([np.zeros(d), theta.reshape(K - 1, d).T])
    return scipy.special.softmax(x @ columns, axis=1)[:, 1:]


def row_grads(theta, x, y):
    resid = row_probs(theta, x) - np.eye(K)[y][:, 1:]
    return np.stack([np.kron(r, xi) for r, xi in zip(resid, x)])


def row_hess(theta, x):
    p = row_probs(theta, x)
    total = sum(np.kron(np.diag(pi) - np.outer(pi, pi), np.outer(xi, xi))
                for pi, xi in zip(p, x))
    return total / x.shape[0]


def row_newton(value, grad, hess, theta0):
    theta, diag = mlogit.newton_minimize(lambda t: (value(t), grad(t)), hess, theta0)
    assert diag.converged
    return theta


def row_sandwich(h, middle, n):
    h_inv = np.linalg.inv(h)
    return np.sqrt(np.diag(h_inv @ middle @ h_inv) / n)


def row_classical(x, y):
    theta = row_newton(lambda t: oracles.softmax_nll(t, x, y, K),
                       lambda t: oracles.softmax_grad(t, x, y, K),
                       lambda t: row_hess(t, x), np.zeros(x.shape[1] * (K - 1)))
    g = row_grads(theta, x, y)
    return theta, row_sandwich(row_hess(theta, x), np.cov(g.T), x.shape[0])


def row_rectified_fit(inputs, lam, theta0):
    xl, y, yl, xu, yu = (inputs.x_labeled, inputs.y_labeled, inputs.yhat_labeled,
                         inputs.x_unlabeled, inputs.yhat_unlabeled)
    return row_newton(
        lambda t: (oracles.softmax_nll(t, xl, y, K)
                   + lam * (oracles.softmax_nll(t, xu, yu, K) - oracles.softmax_nll(t, xl, yl, K))),
        lambda t: (oracles.softmax_grad(t, xl, y, K)
                   + lam * (oracles.softmax_grad(t, xu, yu, K) - oracles.softmax_grad(t, xl, yl, K))),
        lambda t: (1 - lam) * row_hess(t, xl) + lam * row_hess(t, xu), theta0)


def row_multippi(inputs):
    """Tuned rectified estimate: pilot at lambda=1, plug-in lambda, refit, sandwich."""
    n, big_n = inputs.n_labeled, inputs.n_unlabeled
    x_all = np.vstack([inputs.x_labeled, inputs.x_unlabeled])

    def parts(theta):
        g_true = row_grads(theta, inputs.x_labeled, inputs.y_labeled)
        g_pred = row_grads(theta, inputs.x_labeled, inputs.yhat_labeled)
        g_all = np.vstack([g_pred, row_grads(theta, inputs.x_unlabeled, inputs.yhat_unlabeled)])
        return row_hess(theta, x_all), g_true, g_pred, np.cov(g_all.T)

    pilot = row_rectified_fit(inputs, 1.0, np.zeros(inputs.n_params))
    h, g_true, g_pred, v_all = parts(pilot)
    h_inv = np.linalg.inv(h)
    m = np.vstack([g_true.T, g_pred.T])
    cross = np.cov(m)[:len(pilot), len(pilot):]
    raw = (np.trace(h_inv @ (cross + cross.T) @ h_inv)
           / (2 * (1 + n / big_n) * np.trace(h_inv @ v_all @ h_inv)))
    lam = min(1.0, max(0.0, raw))
    theta = row_rectified_fit(inputs, lam, pilot)
    h, g_true, g_pred, v_all = parts(theta)
    delta = g_true - lam * g_pred
    middle = (n / big_n) * lam ** 2 * v_all + np.cov(delta.T)
    return theta, row_sandwich(h, middle, n), raw


# -- tests ---------------------------------------------------------------------

def test_repeated_design_collapses():
    inputs = repeated_inputs(0)
    assert inputs.labeled.x.shape[0] <= 51
    assert inputs.unlabeled.x.shape[0] <= 51
    assert inputs.labeled.counts.sum() == inputs.n_labeled
    assert inputs.labeled.x.shape[0] < inputs.labeled.counts.shape[0] < inputs.n_labeled


def test_group_rows_round_trip():
    rng = np.random.default_rng(1)
    x, y = repeated_design(rng, 300)
    yhat = rng.integers(0, K, 300)
    patterns = mlogit.group_rows(x, y, yhat)
    rebuilt = patterns.x[patterns.x_index][patterns.inverse]
    assert np.array_equal(rebuilt, x)
    assert np.array_equal(patterns.labels[patterns.inverse], np.column_stack([y, yhat]))
    assert np.array_equal(np.bincount(patterns.inverse), patterns.counts)
    assert np.array_equal(patterns.x_counts,
                          np.bincount(patterns.x_index, weights=patterns.counts))
    class_counts = mlogit.PatternStack.of([patterns]).class_counts(0, K)[0]
    assert class_counts.sum(axis=1).tolist() == patterns.x_counts.tolist()


def test_public_kernels_match_row_level_on_repeated_design():
    rng = np.random.default_rng(2)
    x, y = repeated_design(rng, 400)
    theta = rng.uniform(-1, 1, 2 * (K - 1))
    assert mlogit.nll(theta, x, y, K) == pytest.approx(
        oracles.softmax_nll(theta, x, y, K), rel=1e-12)
    np.testing.assert_allclose(mlogit.nll_grad(theta, x, y, K),
                               oracles.softmax_grad(theta, x, y, K), rtol=0, atol=1e-14)
    np.testing.assert_allclose(mlogit.nll_hess(theta, x, K), row_hess(theta, x),
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(mlogit.per_row_grads(theta, x, y, K),
                               row_grads(theta, x, y), rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", [3, 4])
def test_classical_and_naive_match_row_level(seed):
    inputs = repeated_inputs(seed)
    report = ppi.fit_classical(inputs.x_labeled, inputs.y_labeled, K)
    theta, se = row_classical(inputs.x_labeled, inputs.y_labeled)
    np.testing.assert_allclose(report.theta, theta, rtol=1e-10)
    np.testing.assert_allclose(report.se, se, rtol=1e-10)
    x_all = np.vstack([inputs.x_labeled, inputs.x_unlabeled])
    yhat_all = np.concatenate([inputs.yhat_labeled, inputs.yhat_unlabeled])
    naive = ppi.fit_naive(x_all, yhat_all, K, n_labeled=inputs.n_labeled)
    theta, se = row_classical(x_all, yhat_all)
    np.testing.assert_allclose(naive.theta, theta, rtol=1e-10)
    np.testing.assert_allclose(naive.se, se, rtol=1e-10)


@pytest.mark.parametrize("seed", [5, 6])
def test_multippi_matches_row_level(seed):
    inputs = repeated_inputs(seed)
    report = ppi.fit_multippi_report(inputs, "tuned")
    assert report.lambda_choice.warning is None        # no pilot fallback
    theta, se, raw = row_multippi(inputs)
    assert report.lambda_choice.raw == pytest.approx(raw, rel=1e-10)
    np.testing.assert_allclose(report.theta, theta, rtol=1e-10)
    np.testing.assert_allclose(report.se, se, rtol=1e-10)


def _outputs(inputs):
    x_all = np.vstack([inputs.x_labeled, inputs.x_unlabeled])
    yhat_all = np.concatenate([inputs.yhat_labeled, inputs.yhat_unlabeled])
    reports = [ppi.fit_classical(inputs.x_labeled, inputs.y_labeled, K),
               ppi.fit_naive(x_all, yhat_all, K, n_labeled=inputs.n_labeled),
               ppi.fit_multippi_report(inputs, "tuned")]
    return np.concatenate([np.concatenate([r.theta, r.se]) for r in reports]
                          + [[reports[2].lambda_choice.raw]])


def _continuous_inputs(seed):
    rng = np.random.default_rng(seed)
    x, y, _ = oracles.make_instance(rng, K, 2, 500)
    yhat = simulate.corrupt(y, simulate.ASYMMETRIC_3CLASS, rng)
    return ppi.PpiInputs(x[:100], y[:100], yhat[:100], x[100:], yhat[100:], K)


@pytest.mark.parametrize("make", [repeated_inputs, _continuous_inputs])
def test_row_permutation_leaves_outputs_unchanged(make):
    inputs = make(7)
    rng = np.random.default_rng(8)
    pl = rng.permutation(inputs.n_labeled)
    pu = rng.permutation(inputs.n_unlabeled)
    permuted = ppi.PpiInputs(inputs.x_labeled[pl], inputs.y_labeled[pl],
                             inputs.yhat_labeled[pl], inputs.x_unlabeled[pu],
                             inputs.yhat_unlabeled[pu], K)
    np.testing.assert_allclose(_outputs(permuted), _outputs(inputs), rtol=1e-12, atol=0)


@pytest.mark.parametrize("make", [repeated_inputs, _continuous_inputs])
def test_duplicating_rows_keeps_theta_and_shrinks_classical_se(make):
    inputs = make(9)
    x, y = inputs.x_labeled, inputs.y_labeled
    n = x.shape[0]
    once = ppi.fit_classical(x, y, K)
    twice = ppi.fit_classical(np.vstack([x, x]), np.concatenate([y, y]), K)
    np.testing.assert_allclose(twice.theta, once.theta, rtol=1e-10, atol=0)
    np.testing.assert_allclose(twice.se, once.se * np.sqrt((n - 1) / (2 * n - 1)),
                               rtol=1e-8, atol=0)


def test_many_calls_pad_ragged_patterns_and_match_single_calls():
    inputs = [repeated_inputs(seed, n=80, big_n=240) for seed in range(10, 14)]
    assert len({i.labeled.counts.shape[0] for i in inputs}) > 1       # ragged: padding needed
    x_all = [np.vstack([i.x_labeled, i.x_unlabeled]) for i in inputs]
    yhat_all = [np.concatenate([i.yhat_labeled, i.yhat_unlabeled]) for i in inputs]
    pairs = [
        (ppi.fit_classical_many([(i.x_labeled, i.y_labeled) for i in inputs], K),
         [ppi.fit_classical(i.x_labeled, i.y_labeled, K) for i in inputs]),
        (ppi.fit_naive_many(list(zip(x_all, yhat_all)), K, n_labeled=80),
         [ppi.fit_naive(x, yh, K, n_labeled=80) for x, yh in zip(x_all, yhat_all)]),
        (ppi.fit_multippi_report_many(inputs), [ppi.fit_multippi_report(i) for i in inputs]),
    ]
    for many, single in pairs:
        for a, b in zip(many, single, strict=True):
            np.testing.assert_allclose(a.theta, b.theta, rtol=1e-10, atol=0)
            np.testing.assert_allclose(a.se, b.se, rtol=1e-10, atol=0)
            assert a.lambda_choice.raw == pytest.approx(b.lambda_choice.raw, rel=1e-10)
            assert a.diagnostics.status == b.diagnostics.status
            assert a.warnings == b.warnings
