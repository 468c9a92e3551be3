"""Loss/gradient/Hessian correctness and the Newton solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multippi import mlogit, ppi
from multippi.errors import NumericError, SeparationError, ShapeError


def test_onehot_rows_reference_class():
    assert np.array_equal(mlogit.onehot_rows(np.array([0]), 5), np.zeros((1, 4)))


def test_onehot_rows_examples():
    assert np.array_equal(mlogit.onehot_rows(np.array([3]), 5),
                          np.array([[0.0, 0.0, 1.0, 0.0]]))
    assert np.array_equal(mlogit.onehot_rows(np.array([1]), 2), np.array([[1.0]]))


def test_onehot_rows_out_of_range():
    with pytest.raises(ShapeError):
        mlogit.onehot_rows(np.array([5]), 5)
    with pytest.raises(ShapeError):
        mlogit.onehot_rows(np.array([-1]), 5)


def test_class_probs_uniform_at_zero():
    probs = mlogit.class_probs(np.zeros(4), np.array([1.0]), 5)
    assert np.allclose(probs, 0.2, atol=1e-15)


def test_class_probs_binary_analytic():
    probs = mlogit.class_probs(np.array([np.log(2.0)]), np.array([1.0]), 2)
    assert probs[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_class_probs_saturation_no_overflow():
    probs = mlogit.class_probs(np.array([800.0]), np.array([1.0]), 2)
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_class_probs_nonfinite_error():
    with pytest.raises(NumericError):
        mlogit.class_probs(np.array([np.inf]), np.array([1.0]), 2)


@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=40)
def test_class_probs_normalize(n_classes, d, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-4, 4, d * (n_classes - 1))
    x = np.concatenate([[1.0], rng.uniform(-2, 2, d - 1)])
    probs = mlogit.class_probs(theta, x, n_classes)
    assert np.all(probs > 0) and np.all(probs < 1)
    reference = 1.0 - probs.sum()
    assert reference > 0
    assert probs.sum() + reference == pytest.approx(1.0, abs=1e-12)


def test_nll_uniform_values():
    rng = np.random.default_rng(0)
    x = np.ones((10, 1))
    assert mlogit.nll(np.zeros(4), x, rng.integers(0, 5, 10), 5) == \
        pytest.approx(np.log(5.0), abs=1e-14)
    assert mlogit.nll(np.zeros(1), x, rng.integers(0, 2, 10), 2) == \
        pytest.approx(np.log(2.0), abs=1e-14)


def test_nll_matches_independent_likelihood():
    rng = np.random.default_rng(3)
    x, y, _ = oracles.make_instance(rng, 4, 3, 30)
    theta = rng.uniform(-1, 1, 9)
    assert mlogit.nll(theta, x, y, 4) == \
        pytest.approx(oracles.softmax_nll(theta, x, y, 4), rel=1e-12)


def test_nll_rejects_unlabeled_rows():
    x = np.ones((3, 1))
    with pytest.raises(ShapeError):
        mlogit.nll(np.zeros(1), x, np.array([0, 1, -1]), 2)
    with pytest.raises(ShapeError):
        mlogit.nll(np.zeros(1), x, np.array([0.0, 1.0, 1.0]), 2)


def test_grad_zero_at_mle():
    rng = np.random.default_rng(4)
    x, y, _ = oracles.make_instance(rng, 3, 2, 80)
    fit = ppi.fit_classical(x, y, 3)
    theta, diag = fit.theta, fit.diagnostics
    assert np.max(np.abs(mlogit.nll_grad(theta, x, y, 3))) <= 1e-8
    assert diag.converged


def test_grad_zero_balanced_intercept_only():
    y = np.repeat(np.arange(3), 10)
    x = np.ones((30, 1))
    grad = mlogit.nll_grad(np.zeros(2), x, y, 3)
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    x, y, _ = oracles.make_instance(rng, 3, 2, 20)
    theta = rng.uniform(-1, 1, 4)
    grad = mlogit.nll_grad(theta, x, y, 3)
    fd = oracles.fd_gradient(lambda t: mlogit.nll(t, x, y, 3), theta)
    assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad)) < 1e-6


def test_hess_single_row_analytic():
    hess = mlogit.nll_hess(np.zeros(2), np.array([[1.0]]), 3)
    expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 9.0
    assert np.allclose(hess, expected, atol=1e-15)


def test_hess_symmetric_psd():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x, y, _ = oracles.make_instance(rng, 4, 3, 40)
        theta = rng.uniform(-2, 2, 9)
        hess = mlogit.nll_hess(theta, x, 4)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12
        assert np.linalg.eigvalsh(hess).min() >= -1e-10


def test_hess_matches_finite_differences():
    rng = np.random.default_rng(7)
    x, y, _ = oracles.make_instance(rng, 3, 2, 25)
    theta = rng.uniform(-1, 1, 4)
    hess = mlogit.nll_hess(theta, x, 3)
    fd = oracles.fd_jacobian(lambda t: mlogit.nll_grad(t, x, y, 3), theta)
    assert np.linalg.norm(hess - fd) / max(1.0, np.linalg.norm(hess)) < 1e-5


def test_fit_mle_intercept_only_closed_form():
    y = np.array([0] * 10 + [1] * 10 + [2] * 20)
    fit = ppi.fit_classical(np.ones((40, 1)), y, 3)
    theta, diag = fit.theta, fit.diagnostics
    assert theta == pytest.approx([0.0, np.log(2.0)], abs=1e-6)
    assert diag.converged and diag.gradient_norm <= 1e-8


def test_fit_mle_matches_irls_binary():
    rng = np.random.default_rng(8)
    x, y, _ = oracles.make_instance(rng, 2, 3, 120)
    theta = ppi.fit_classical(x, y, 2).theta
    assert np.max(np.abs(theta - oracles.irls_binary(x, y))) < 1e-6


def test_fit_mle_matches_generic_minimizer():
    rng = np.random.default_rng(9)
    x, y, _ = oracles.make_instance(rng, 3, 2, 60)
    theta = ppi.fit_classical(x, y, 3).theta
    assert np.max(np.abs(theta - oracles.minimize_softmax_nll(x, y, 3))) < 1e-6


def test_fit_mle_class_absent():
    x = np.ones((6, 1))
    with pytest.raises(ShapeError, match="absent"):
        ppi.fit_classical(x, np.array([0, 0, 1, 1, 1, 0]), 3)


def test_fit_mle_detects_separation_hairline_margin():
    # a vanishing margin forces coefficients past the default 1e4 bound
    x2 = np.concatenate([np.linspace(1e-6, 2, 20), np.linspace(-2, -1e-6, 20)])
    x = np.column_stack([np.ones(40), x2])
    y = (x2 > 0).astype(np.int64)
    with pytest.raises(SeparationError):
        ppi.fit_classical(x, y, 2)


def test_fit_mle_separation_bound_configurable(monkeypatch):
    x2 = np.concatenate([np.linspace(0.5, 2, 20), np.linspace(-2, -0.5, 20)])
    x = np.column_stack([np.ones(40), x2])
    y = (x2 > 0).astype(np.int64)
    monkeypatch.setattr(mlogit, "_COEF_BOUND", 10.0)
    with pytest.raises(SeparationError):
        ppi.fit_classical(x, y, 2)


@given(st.integers(0, 10_000), st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_nll_convex_along_segments(seed, t):
    rng = np.random.default_rng(seed)
    x, y, _ = oracles.make_instance(rng, 3, 2, 15)
    theta_a = rng.uniform(-2, 2, 4)
    theta_b = rng.uniform(-2, 2, 4)
    mid = t * theta_a + (1 - t) * theta_b
    bound = t * mlogit.nll(theta_a, x, y, 3) + (1 - t) * mlogit.nll(theta_b, x, y, 3)
    assert mlogit.nll(mid, x, y, 3) <= bound + 1e-10


def test_covariate_rescaling_inverse_coefficients():
    rng = np.random.default_rng(11)
    x, y, _ = oracles.make_instance(rng, 3, 2, 150)
    theta = ppi.fit_classical(x, y, 3).theta
    scaled = x.copy()
    scaled[:, 1] *= 2.5
    theta_scaled = ppi.fit_classical(scaled, y, 3).theta
    # slope entries shrink by the scale factor, intercepts unchanged
    assert theta_scaled[1] * 2.5 == pytest.approx(theta[1], abs=1e-7)
    assert theta_scaled[3] * 2.5 == pytest.approx(theta[3], abs=1e-7)
    probs = mlogit.class_probs(theta, x, 3)
    probs_scaled = mlogit.class_probs(theta_scaled, scaled, 3)
    assert np.max(np.abs(probs - probs_scaled)) < 1e-8


def test_newton_diagnostics_max_iterations(monkeypatch):
    rng = np.random.default_rng(12)
    x, y, _ = oracles.make_instance(rng, 3, 2, 60)
    monkeypatch.setattr(mlogit, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(mlogit, "_GRAD_TOL", 1e-14)
    fit = ppi.fit_classical(x, y, 3)
    theta, diag = fit.theta, fit.diagnostics
    assert not diag.converged
    assert diag.status == "max_iterations"


def spd_stack(rng, size, p):
    a = rng.normal(size=(size, p, p))
    return a @ a.transpose(0, 2, 1) + p * np.eye(p)


def test_stacked_solve_matches_one_slice_solves_and_numpy():
    rng = np.random.default_rng(5)
    h, b = spd_stack(rng, 6, 4), rng.normal(size=(6, 4, 3))
    x, ridged = mlogit._ridged_solve(h, b)
    assert not ridged.any()
    np.testing.assert_allclose(x, np.linalg.solve(h, b), rtol=1e-12, atol=0)
    for r in range(6):
        alone, _ = mlogit._ridged_solve(h[r:r + 1], b[r:r + 1])
        assert np.array_equal(alone[0], x[r]), r


def test_stacked_solve_ridges_only_the_singular_slice():
    rng = np.random.default_rng(6)
    h, b = spd_stack(rng, 5, 4), rng.normal(size=(5, 4, 1))
    h[2, :2, :] = 0.0       # a zero block makes slice 2 singular
    h[2, :, :2] = 0.0
    x, ridged = mlogit._ridged_solve(h, b)
    assert ridged.tolist() == [False, False, True, False, False]
    for r in (0, 1, 3, 4):
        alone, alone_ridged = mlogit._ridged_solve(h[r:r + 1], b[r:r + 1])
        assert np.array_equal(alone[0], x[r]) and not alone_ridged[0], r
    # the smallest ridge that factors: the zero block's rows hold only the ridge
    ridge = mlogit._RIDGE
    np.testing.assert_allclose((h[2] + ridge * np.eye(4)) @ x[2], b[2], rtol=1e-8, atol=1e-8)


class _UnsolvableHessian:
    """An objective whose replication 1 has a Hessian no ridge makes positive definite."""

    def value_and_grad(self, theta, index=None):
        return np.zeros(theta.shape[0]), np.ones_like(theta)

    def hess(self, theta, index=None):
        h = np.repeat(np.eye(theta.shape[1])[None], theta.shape[0], axis=0)
        h[1] *= -1e12
        return h


def test_unsolvable_slice_raises_after_every_ridge():
    h = _UnsolvableHessian().hess(np.zeros((3, 4)))
    assert mlogit._ridged_solve(h, np.ones((3, 4, 1))) is None
    with pytest.raises(NumericError):
        mlogit.newton_batch(_UnsolvableHessian(), np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        ppi._regularized_inverse(h)
