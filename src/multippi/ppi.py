"""Rectified (prediction-powered) estimation for multinomial logistic regression.

Estimators
----------
Given ``n`` labeled rows ``(x, y, yhat)`` and ``N`` unlabeled rows
``(x, yhat)`` with machine-predicted labels ``yhat``, the rectified
objective is

    L(theta; lam) = L_n(theta) + lam * (L_N^pred(theta) - L_n^pred(theta))

where each term is the mean multinomial NLL over the indicated rows and
labels, and ``lam`` in [0, 1] controls how much weight the predicted
labels carry. ``lam = 0`` is the classical labeled-only fit; ``lam = 1``
with perfect predictions matches the fit on the unlabeled rows. The
label-free Hessian makes the objective Hessian
``(1-lam) H_labeled + lam H_unlabeled``, so the objective stays convex
on the whole interval.

Power tuning picks ``lam`` to minimize the estimated asymptotic variance
(trace form), using per-row gradients at a pilot fit. Standard errors
come from the sandwich ``H^-1 ((n/N) V_f + V_delta) H^-1`` with ``H``
the pooled empirical Hessian, ``V_f`` the (scaled) covariance of
predicted-label gradients over all rows, and ``V_delta`` the labeled-row
covariance of the rectified per-row gradient. Confidence intervals are
``theta_j +/- z_{1-alpha/2} sqrt(Sigma_jj / n)``. A report whose fit did
not converge carries a ``fit status <status>: intervals not valid``
warning.

Every fit, tuning step and covariance runs on rows collapsed to their
distinct (x, y, yhat) patterns with integer counts (``mlogit.group_rows``);
covariances weight each pattern by its count and keep the 1/(m-1)
divisor. A report's values match a row-by-row evaluation to about 1e-12
relative, but their last bits may differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.stats

from . import mlogit
from .errors import ParameterError, ShapeError
from .mlogit import FitDiagnostics, NewtonOptions, RowPatterns


@dataclass(frozen=True)
class PpiInputs:
    """Aligned labeled and unlabeled design rows with predictions on every row.

    Construction collapses the rows once: ``labeled`` into (x, y, yhat)
    patterns (label columns 0 and 1), ``unlabeled`` into (x, yhat)
    patterns (label column 0). Every fit on these inputs runs on them.
    """

    x_labeled: np.ndarray
    y_labeled: np.ndarray
    yhat_labeled: np.ndarray
    x_unlabeled: np.ndarray
    yhat_unlabeled: np.ndarray
    n_classes: int
    labeled: RowPatterns = field(init=False, repr=False, compare=False)
    unlabeled: RowPatterns = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x_labeled", np.asarray(self.x_labeled, dtype=float))
        object.__setattr__(self, "x_unlabeled", np.asarray(self.x_unlabeled, dtype=float))
        for name in ("y_labeled", "yhat_labeled", "yhat_unlabeled"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.x_labeled.ndim != 2 or self.x_unlabeled.ndim != 2:
            raise ShapeError("design matrices must be 2-d")
        if self.x_labeled.shape[1] != self.x_unlabeled.shape[1]:
            raise ShapeError("labeled and unlabeled rows have different widths")
        n, big_n = self.x_labeled.shape[0], self.x_unlabeled.shape[0]
        if self.y_labeled.shape[0] != n or self.yhat_labeled.shape[0] != n:
            raise ShapeError("labeled labels/predictions misaligned with rows")
        if self.yhat_unlabeled.shape[0] != big_n:
            raise ShapeError("unlabeled predictions misaligned with rows")
        if big_n < 1:
            raise ShapeError("need at least one unlabeled row")
        if n < self.n_params + 1:
            raise ShapeError(
                f"need at least {self.n_params + 1} labeled rows to estimate "
                f"covariances, got {n}"
            )
        for name in ("y_labeled", "yhat_labeled", "yhat_unlabeled"):
            arr = getattr(self, name)
            if not np.issubdtype(arr.dtype, np.integer):
                raise ShapeError(f"{name} must be integer class indices")
            if arr.min() < 0 or arr.max() >= self.n_classes:
                raise ShapeError(f"{name} outside [0, {self.n_classes})")
        object.__setattr__(self, "labeled", mlogit.group_rows(
            self.x_labeled, self.y_labeled, self.yhat_labeled))
        object.__setattr__(self, "unlabeled", mlogit.group_rows(
            self.x_unlabeled, self.yhat_unlabeled))

    @property
    def n_labeled(self) -> int:
        return self.x_labeled.shape[0]

    @property
    def n_unlabeled(self) -> int:
        return self.x_unlabeled.shape[0]

    @property
    def n_features(self) -> int:
        return self.x_labeled.shape[1]

    @property
    def n_params(self) -> int:
        return self.n_features * (self.n_classes - 1)


@dataclass(frozen=True)
class LambdaChoice:
    """Raw and clipped weight on predicted labels, plus how it was chosen."""

    raw: float
    clipped: float
    mode: str                      # "fixed" | "tuned"
    warning: str | None = None

    @classmethod
    def from_raw(cls, raw: float, mode: str, warning: str | None = None) -> "LambdaChoice":
        return cls(raw=float(raw), clipped=float(min(1.0, max(0.0, raw))),
                   mode=mode, warning=warning)


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sandwich covariance with its components kept for diagnostics."""

    sigma: np.ndarray
    hessian: np.ndarray
    v_f: np.ndarray
    v_delta: np.ndarray
    condition_warning: bool = False


@dataclass(frozen=True)
class MultippiFit:
    theta: np.ndarray
    lambda_choice: LambdaChoice
    diagnostics: FitDiagnostics


@dataclass(frozen=True)
class InferenceReport:
    """Per-coordinate estimates, standard errors, and confidence bounds."""

    estimator: str
    theta: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    alpha: float
    lambda_choice: LambdaChoice
    n_labeled: int
    n_unlabeled: int
    n_classes: int
    diagnostics: FitDiagnostics
    covariance: CovarianceEstimate
    class_names: tuple[str, ...] | None = None
    covariate_names: tuple[str, ...] | None = None
    standardization: dict | None = None
    warnings: tuple[str, ...] = ()

    def coefficient_labels(self) -> list[tuple[str, str]]:
        """(class, covariate) label per coordinate, in block order."""
        k, d = self.n_classes, len(self.theta) // (self.n_classes - 1)
        classes = self.class_names or tuple(f"class_{i}" for i in range(k))
        covs = self.covariate_names or tuple(f"x{j}" for j in range(d))
        return [(classes[block + 1], covs[j])
                for block in range(k - 1) for j in range(d)]

    def to_dict(self) -> dict:
        labels = self.coefficient_labels()
        coeffs = [
            {
                "index": j,
                "class": labels[j][0],
                "covariate": labels[j][1],
                "estimate": float(self.theta[j]),
                "se": float(self.se[j]),
                "ci_lower": float(self.ci_lower[j]),
                "ci_upper": float(self.ci_upper[j]),
            }
            for j in range(len(self.theta))
        ]
        return {
            "format": "multippi-inference-report",
            "version": 1,
            "estimator": self.estimator,
            "alpha": self.alpha,
            "n_labeled": self.n_labeled,
            "n_unlabeled": self.n_unlabeled,
            "n_classes": self.n_classes,
            "lambda": {
                "mode": self.lambda_choice.mode,
                "raw": float(self.lambda_choice.raw),
                "clipped": float(self.lambda_choice.clipped),
                "warning": self.lambda_choice.warning,
            },
            "reference_class": (self.class_names[0] if self.class_names else "class_0"),
            "standardization": self.standardization,
            "coefficients": coeffs,
            "diagnostics": {
                "iterations": self.diagnostics.iterations,
                "gradient_norm": float(self.diagnostics.gradient_norm),
                "converged": bool(self.diagnostics.converged),
                "condition_warning": bool(self.diagnostics.condition_warning
                                          or self.covariance.condition_warning),
                "status": self.diagnostics.status,
            },
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def csv_rows(self) -> list[dict]:
        """Flat rows for the plotting table, one per coordinate."""
        out = []
        for entry in self.to_dict()["coefficients"]:
            out.append({
                "estimator": self.estimator,
                "class": entry["class"],
                "covariate": entry["covariate"],
                "index": entry["index"],
                "estimate": entry["estimate"],
                "se": entry["se"],
                "ci_lower": entry["ci_lower"],
                "ci_upper": entry["ci_upper"],
                "lambda_mode": self.lambda_choice.mode,
                "lambda_raw": float(self.lambda_choice.raw),
                "lambda_clipped": float(self.lambda_choice.clipped),
                "n_labeled": self.n_labeled,
                "n_unlabeled": self.n_unlabeled,
            })
        return out


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")
    return lam


def _rectified_objective(inputs: PpiInputs, lam: float):
    """(L_n - lam L_n^pred) + lam L_N^pred as one weighted objective.

    psi weights (1 - lam)/n on labeled rows and lam/N on unlabeled rows,
    plus the constant linear term of the three label sets.
    """
    n, big_n = inputs.n_labeled, inputs.n_unlabeled
    return mlogit.weighted_objective(
        [(inputs.labeled, 0, 1.0 / n), (inputs.labeled, 1, -lam / n),
         (inputs.unlabeled, 0, lam / big_n)], inputs.n_classes)


def rectified_loss(theta: np.ndarray, inputs: PpiInputs, lam: float) -> tuple[float, np.ndarray]:
    """Value and gradient of the rectified objective at ``theta``.

    The terms are summed in the order ``(L_n - lam L_n^pred) + lam L_N^pred``
    and zero-weight terms are skipped, so the algebraic cancellations at
    lam = 0 and at lam = 1 with perfect labeled predictions are exact in
    floating point.
    """
    return _rectified_objective(inputs, _check_lambda(lam)).value_and_grad(theta)


def rectified_hessian(theta: np.ndarray, inputs: PpiInputs, lam: float) -> np.ndarray:
    """(1-lam) H_labeled + lam H_unlabeled; labels never enter."""
    return _rectified_objective(inputs, _check_lambda(lam)).hess(theta)


def pooled_hessian(theta: np.ndarray, inputs: PpiInputs) -> np.ndarray:
    """Empirical Hessian averaged over labeled and unlabeled rows together.

    Its patterns are the distinct x rows only, so predictions never enter.
    """
    w = 1.0 / (inputs.n_labeled + inputs.n_unlabeled)
    return mlogit.weighted_objective(
        [(inputs.labeled, None, w), (inputs.unlabeled, None, w)], inputs.n_classes).hess(theta)


def _cross_cov(a: np.ndarray, b: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sample cross-covariance of rows repeated ``counts`` times, 1/(m-1) divisor."""
    counts = np.asarray(counts, dtype=float)
    m = counts.sum()
    if m < 2:
        raise ShapeError("need at least 2 rows for a sample covariance")
    ac = a - counts @ a / m
    bc = b - counts @ b / m
    return (ac * counts[:, None]).T @ bc / (m - 1)


def _pattern_gradients(theta: np.ndarray, inputs: PpiInputs):
    """Per-pattern gradients at ``theta`` with the pattern counts.

    Returns (true-label and predicted-label gradients on the labeled
    patterns, their counts, predicted-label gradients on all patterns,
    their counts).
    """
    k = inputs.n_classes
    lab, unl = inputs.labeled, inputs.unlabeled
    probs_l = mlogit.class_probs(theta, lab.x, k)
    probs_u = mlogit.class_probs(theta, unl.x, k)
    grads_true = lab.gradients(probs_l, 0, k)
    grads_pred_l = lab.gradients(probs_l, 1, k)
    pred_all = np.vstack([grads_pred_l, unl.gradients(probs_u, 0, k)])
    return (grads_true, grads_pred_l, lab.counts,
            pred_all, np.concatenate([lab.counts, unl.counts]))


def _regularized_inverse(h: np.ndarray, ridge: float = 1e-10) -> tuple[np.ndarray, bool]:
    """Symmetric inverse, ridging upward by powers of 100 until it succeeds."""
    eye = np.eye(h.shape[0])
    candidate = h
    warned = False
    reg = ridge
    for _ in range(12):
        try:
            c = scipy.linalg.cho_factor(candidate, check_finite=False)
            inv = scipy.linalg.cho_solve(c, eye, check_finite=False)
            if np.all(np.isfinite(inv)):
                return (inv + inv.T) / 2, warned
        except scipy.linalg.LinAlgError:
            pass
        candidate = h + reg * eye
        warned = True
        reg *= 100.0
    raise ShapeError("empirical Hessian could not be inverted")


def fit_rectified(inputs: PpiInputs, lam: float,
                  theta0: np.ndarray | None = None,
                  options: NewtonOptions = NewtonOptions()) -> tuple[np.ndarray, FitDiagnostics]:
    """Minimize the rectified objective at a fixed lambda.

    Non-convergence is reported through the diagnostics, not raised.
    """
    objective = _rectified_objective(inputs, _check_lambda(lam))
    if theta0 is None:
        theta0 = np.zeros(inputs.n_params)
    return mlogit.newton_minimize(objective.value_and_grad, objective.hess, theta0, options)


def tune_lambda(inputs: PpiInputs, theta_pilot: np.ndarray) -> LambdaChoice:
    """Plug-in variance-minimizing lambda from per-row gradients at a pilot fit.

    raw = Tr(Hi (C + C') Hi) / (2 (1 + n/N) Tr(Hi Cov_all(grad_pred) Hi))
    with C the labeled-row cross-covariance between true-label and
    predicted-label gradients and Hi the inverse pooled Hessian. The raw
    value is clipped to [0, 1]; both are reported.
    """
    theta_pilot = np.asarray(theta_pilot, dtype=float)
    if not np.all(np.isfinite(theta_pilot)):
        raise ParameterError("pilot coefficients must be finite")
    n, big_n = inputs.n_labeled, inputs.n_unlabeled
    warning = None
    h = pooled_hessian(theta_pilot, inputs)
    h_inv, warned = _regularized_inverse(h)
    if warned:
        warning = "pooled Hessian regularized for lambda tuning"
    grads_true, grads_pred_l, counts_l, pred_all, counts_all = \
        _pattern_gradients(theta_pilot, inputs)
    cross = _cross_cov(grads_true, grads_pred_l, counts_l)
    numerator = float(np.trace(h_inv @ (cross + cross.T) @ h_inv))
    denominator = float(np.trace(h_inv @ _cross_cov(pred_all, pred_all, counts_all) @ h_inv))
    denominator *= 2.0 * (1.0 + n / big_n)
    if denominator <= 0.0:
        return LambdaChoice.from_raw(0.0, "tuned",
                                     warning="zero variance denominator; lambda set to 0")
    return LambdaChoice.from_raw(numerator / denominator, "tuned", warning=warning)


def fit_multippi(inputs: PpiInputs, lambda_mode: float | str = "tuned",
                 options: NewtonOptions = NewtonOptions()) -> MultippiFit:
    """Rectified point estimate with fixed or power-tuned lambda.

    Tuned mode runs a pilot fit at lambda = 1, tunes on its per-row
    gradients, then refits at the clipped estimate. If the pilot fit
    fails to converge (possible when predictions carry no signal), the
    labeled-only MLE serves as the pilot instead.
    """
    if lambda_mode == "tuned":
        theta_pilot, pilot_diag = fit_rectified(inputs, 1.0, options=options)
        pilot_note = None
        if not pilot_diag.converged:
            theta_pilot, _ = mlogit.fit_mle(
                inputs.x_labeled, inputs.y_labeled, inputs.n_classes, options=options)
            pilot_note = f"pilot fit at lambda=1 {pilot_diag.status}; tuned at labeled-only MLE"
        choice = tune_lambda(inputs, theta_pilot)
        if pilot_note:
            choice = LambdaChoice(choice.raw, choice.clipped, choice.mode,
                                  warning=pilot_note if choice.warning is None
                                  else f"{choice.warning}; {pilot_note}")
        theta, diag = fit_rectified(inputs, choice.clipped, theta0=theta_pilot,
                                    options=options)
    else:
        lam = _check_lambda(lambda_mode)
        choice = LambdaChoice(raw=lam, clipped=lam, mode="fixed")
        theta, diag = fit_rectified(inputs, lam, options=options)
    return MultippiFit(theta=theta, lambda_choice=choice, diagnostics=diag)


def sandwich_covariance(theta: np.ndarray, inputs: PpiInputs, lam: float) -> CovarianceEstimate:
    """Sandwich covariance of the rectified estimator.

    H is the pooled empirical Hessian; V_f = lam^2 Cov over all rows of
    predicted-label gradients; V_delta = labeled-row covariance of
    grad_true - lam * grad_pred (the labeled-row gradient of the
    rectified objective). Sigma = Hi ((n/N) V_f + V_delta) Hi.
    """
    lam = _check_lambda(lam)
    theta = np.asarray(theta, dtype=float)
    n, big_n = inputs.n_labeled, inputs.n_unlabeled
    h = pooled_hessian(theta, inputs)
    h_inv, warned = _regularized_inverse(h)
    grads_true, grads_pred_l, counts_l, pred_all, counts_all = \
        _pattern_gradients(theta, inputs)
    v_f = lam ** 2 * _cross_cov(pred_all, pred_all, counts_all)
    delta = grads_true - lam * grads_pred_l
    v_delta = _cross_cov(delta, delta, counts_l)
    sigma = h_inv @ ((n / big_n) * v_f + v_delta) @ h_inv
    sigma = (sigma + sigma.T) / 2
    return CovarianceEstimate(sigma=sigma, hessian=h, v_f=v_f, v_delta=v_delta,
                              condition_warning=warned)


def classical_covariance(theta: np.ndarray, x: np.ndarray, y: np.ndarray,
                         n_classes: int) -> CovarianceEstimate:
    """Classical sandwich H^-1 Cov(grad) H^-1 on one set of labeled rows."""
    return _classical_covariance(theta, mlogit.group_labeled(x, y, n_classes), n_classes)


def _classical_covariance(theta: np.ndarray, patterns: RowPatterns,
                          n_classes: int) -> CovarianceEstimate:
    theta = np.asarray(theta, dtype=float)
    h = mlogit.weighted_objective(
        [(patterns, None, 1.0 / patterns.n_rows)], n_classes).hess(theta)
    h_inv, warned = _regularized_inverse(h)
    grads = patterns.gradients(mlogit.class_probs(theta, patterns.x, n_classes), 0, n_classes)
    v = _cross_cov(grads, grads, patterns.counts)
    sigma = h_inv @ v @ h_inv
    sigma = (sigma + sigma.T) / 2
    return CovarianceEstimate(sigma=sigma, hessian=h, v_f=np.zeros_like(v),
                              v_delta=v, condition_warning=warned)


def z_quantile(alpha: float) -> float:
    """Two-sided standard normal critical value z_{1 - alpha/2}."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return float(scipy.stats.norm.ppf(1.0 - alpha / 2.0))


def confidence_intervals(theta: np.ndarray, sigma: np.ndarray, n: int,
                         alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Per-coordinate (se, lower, upper) at level 1 - alpha.

    se_j = sqrt(Sigma_jj / n); numerically negative diagonal entries are
    clamped to zero and reported in the warnings list.
    """
    theta = np.asarray(theta, dtype=float)
    diag = np.diag(np.asarray(sigma, dtype=float)).copy()
    warnings = []
    negative = diag < 0
    if negative.any():
        warnings.append(
            f"clamped negative covariance diagonal at coordinates "
            f"{np.nonzero(negative)[0].tolist()}")
        diag[negative] = 0.0
    z = z_quantile(alpha)
    se = np.sqrt(diag / n)
    return se, theta - z * se, theta + z * se, warnings


def _report(estimator, theta, cov, n_denominator, alpha, lambda_choice,
            n_labeled, n_unlabeled, n_classes, diagnostics, **meta) -> InferenceReport:
    se, lower, upper, warns = confidence_intervals(theta, cov.sigma, n_denominator, alpha)
    if diagnostics.status != "converged":
        warns.insert(0, f"fit status {diagnostics.status}: intervals not valid")
    return InferenceReport(
        estimator=estimator, theta=theta, se=se, ci_lower=lower, ci_upper=upper,
        alpha=alpha, lambda_choice=lambda_choice, n_labeled=n_labeled,
        n_unlabeled=n_unlabeled, n_classes=n_classes, diagnostics=diagnostics,
        covariance=cov, warnings=tuple(warns), **meta)


def fit_classical(x: np.ndarray, y: np.ndarray, n_classes: int, alpha: float = 0.05,
                  estimator: str = "classical",
                  options: NewtonOptions = NewtonOptions(), **meta) -> InferenceReport:
    """Labeled-rows-only MLE with the classical sandwich.

    Tag with ``estimator="ground-truth"`` when the rows are the complete
    dataset rather than a labeled subset.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("design matrix must be 2-d")
    n, d = x.shape
    if n < d * (n_classes - 1) + 1:
        raise ShapeError(
            f"need at least {d * (n_classes - 1) + 1} rows for inference, got {n}")
    patterns = mlogit.group_labeled(x, y, n_classes)
    theta, diag = mlogit.fit_grouped(patterns, n_classes, options=options)
    cov = _classical_covariance(theta, patterns, n_classes)
    return _report(estimator, theta, cov, n, alpha,
                   LambdaChoice(0.0, 0.0, "fixed"), n, 0, n_classes, diag, **meta)


def fit_naive(x_all: np.ndarray, yhat_all: np.ndarray, n_classes: int,
              alpha: float = 0.05, n_labeled: int | None = None,
              options: NewtonOptions = NewtonOptions(), **meta) -> InferenceReport:
    """Classical fit treating predicted labels as truth on all rows."""
    x_all = np.asarray(x_all, dtype=float)
    total = x_all.shape[0]
    n_labeled = total if n_labeled is None else n_labeled
    patterns = mlogit.group_labeled(x_all, yhat_all, n_classes)
    theta, diag = mlogit.fit_grouped(patterns, n_classes, options=options)
    cov = _classical_covariance(theta, patterns, n_classes)
    return _report("naive", theta, cov, total, alpha,
                   LambdaChoice(0.0, 0.0, "fixed"), n_labeled,
                   total - n_labeled, n_classes, diag, **meta)


def fit_multippi_report(inputs: PpiInputs, lambda_mode: float | str = "tuned",
                        alpha: float = 0.05,
                        options: NewtonOptions = NewtonOptions(), **meta) -> InferenceReport:
    """Full rectified inference: point estimate, sandwich SEs, intervals."""
    fit = fit_multippi(inputs, lambda_mode, options=options)
    cov = sandwich_covariance(fit.theta, inputs, fit.lambda_choice.clipped)
    return _report("multippi", fit.theta, cov, inputs.n_labeled, alpha,
                   fit.lambda_choice, inputs.n_labeled, inputs.n_unlabeled,
                   inputs.n_classes, fit.diagnostics, **meta)
