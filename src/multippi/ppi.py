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

Every fit, tuning step and covariance runs on rows collapsed once per
subset to their distinct (x, y, yhat) patterns with integer counts
(``mlogit.group_rows``; the naive and classical fits of a ``PpiInputs``
regroup them); covariances weight each pattern by its count and keep the
1/(m-1) divisor. A report's values match a row-by-row evaluation to about
1e-12 relative; last bits may differ.

Fits, tuning and covariances work on R datasets stacked on a leading
axis (``mlogit.PatternStack``). The public single-dataset calls are the
R = 1 case: ``fit_classical``, ``fit_naive`` and ``fit_multippi_report``,
whose report holds theta, lambda, diagnostics and covariance parts, plus
``rectified_loss``, ``rectified_hessian`` and ``confidence_intervals``.
``fit_estimators_many`` fits the classical, naive and multippi estimators
of many input sets as one stack; each report equals the one its
single-dataset call returns. ``multippi infer`` calls it with its one
set. Every fit runs ``mlogit.newton_batch`` with the solver constants
``mlogit`` fixes; no call here takes a solver setting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from . import mlogit
from .errors import MultippiError, ParameterError, ShapeError
from .mlogit import FitDiagnostics, PatternStack, RowPatterns


@dataclass(frozen=True)
class PpiInputs:
    """Aligned labeled and unlabeled design rows with predictions on every row.

    Construction collapses the rows once: ``labeled`` into (x, y, yhat)
    patterns (label columns 0 and 1), ``unlabeled`` into (x, yhat)
    patterns (label column 0). Every fit runs on them; ``naive`` and
    ``classical`` regroup them. A subset may be empty (the fits check row
    counts).
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
        for name in ("y_labeled", "yhat_labeled", "yhat_unlabeled"):
            arr = getattr(self, name)
            if not np.issubdtype(arr.dtype, np.integer):
                raise ShapeError(f"{name} must be integer class indices")
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_classes):
                raise ShapeError(f"{name} outside [0, {self.n_classes})")
        object.__setattr__(self, "labeled", mlogit.group_rows(
            self.x_labeled, self.y_labeled, self.yhat_labeled))
        object.__setattr__(self, "unlabeled", mlogit.group_rows(
            self.x_unlabeled, self.yhat_unlabeled))

    @property
    def naive(self) -> RowPatterns:
        """(x, yhat) patterns of all rows, regrouped: ``group_rows`` of the stacked rows."""
        lab, unl = self.labeled, self.unlabeled
        return mlogit._group(np.concatenate([lab.x[lab.x_index], unl.x[unl.x_index]]),
                             np.concatenate([lab.labels[:, 1:], unl.labels]),
                             np.concatenate([lab.counts, unl.counts]))

    @property
    def classical(self) -> RowPatterns:
        """(x, y) patterns of the labeled rows, regrouped: ``group_rows(x_labeled, y_labeled)``."""
        lab = self.labeled
        return mlogit._group(lab.x[lab.x_index], lab.labels[:, :1], lab.counts)

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
    pilot_fallback: bool = False   # tuned at the labeled-only MLE: the lambda=1 pilot failed

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
    try:
        lam = float(lam)
    except (TypeError, ValueError):
        raise ParameterError(f"lambda must be 'tuned' or a number in [0, 1], got {lam!r}") \
            from None
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")
    return lam


@dataclass(frozen=True)
class _InputStack:
    """The labeled, unlabeled, naive and classical patterns of R input sets."""

    labeled: PatternStack
    unlabeled: PatternStack
    naive: PatternStack
    classical: PatternStack
    n_classes: int

    @classmethod
    def of(cls, inputs: list[PpiInputs]) -> "_InputStack":
        """Stack ``inputs``; several sets are padded to their largest row counts.

        A single set keeps its pattern counts: padding it to its row counts
        would only add zero entries.
        """
        if len({(i.n_classes, i.n_features) for i in inputs}) != 1:
            raise ShapeError("stacked inputs must share class and feature counts")
        n = big_n = total = None
        if len(inputs) > 1:
            n = max(i.n_labeled for i in inputs)
            big_n = max(i.n_unlabeled for i in inputs)
            total = max(i.n_labeled + i.n_unlabeled for i in inputs)
        return cls(PatternStack.of([i.labeled for i in inputs], n),
                   PatternStack.of([i.unlabeled for i in inputs], big_n),
                   PatternStack.of([i.naive for i in inputs], total),
                   PatternStack.of([i.classical for i in inputs], n),
                   inputs[0].n_classes)

    @property
    def size(self) -> int:
        return self.labeled.size

    @property
    def n_labeled(self) -> np.ndarray:
        return self.labeled.n_rows

    @property
    def n_unlabeled(self) -> np.ndarray:
        return self.unlabeled.n_rows

    def take(self, index) -> "_InputStack":
        return _InputStack(self.labeled.take(index), self.unlabeled.take(index),
                           self.naive.take(index), self.classical.take(index), self.n_classes)


def _rectifiable(inputs: _InputStack) -> _InputStack:
    """``inputs``, once every set holds the rows a rectified fit and its covariances need."""
    n_params = inputs.labeled.x.shape[2] * (inputs.n_classes - 1)
    for n, big_n in zip(inputs.n_labeled, inputs.n_unlabeled):
        if big_n < 1:
            raise ShapeError("need at least one unlabeled row")
        if n < n_params + 1:
            raise ShapeError(f"need at least {n_params + 1} labeled rows to estimate "
                             f"covariances, got {n}")
    return inputs


def _rectified_objective(inputs: _InputStack, lam: float | np.ndarray):
    """(L_n - lam L_n^pred) + lam L_N^pred as one weighted objective per replication.

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
    floating point. Only tests call it: it exposes the fits' objective.
    """
    objective = _rectified_objective(_rectifiable(_InputStack.of([inputs])), _check_lambda(lam))
    value, grad = objective.value_and_grad(np.asarray(theta, dtype=float)[None])
    return float(value[0]), grad[0]


def rectified_hessian(theta: np.ndarray, inputs: PpiInputs, lam: float) -> np.ndarray:
    """(1-lam) H_labeled + lam H_unlabeled; labels never enter. See ``rectified_loss``."""
    objective = _rectified_objective(_rectifiable(_InputStack.of([inputs])), _check_lambda(lam))
    return objective.hess(np.asarray(theta, dtype=float)[None])[0]


def _pooled_hessian(theta: np.ndarray, inputs: _InputStack) -> np.ndarray:
    w = 1.0 / (inputs.n_labeled + inputs.n_unlabeled)
    return mlogit.weighted_objective(
        [(inputs.labeled, None, w), (inputs.unlabeled, None, w)], inputs.n_classes).hess(theta)


def _cross_cov(a: np.ndarray, b: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sample cross-covariance per replication of rows repeated ``counts`` times.

    ``a`` and ``b`` are (R, T, ·), ``counts`` (R, T); 1/(m-1) divisor.
    """
    counts = np.asarray(counts, dtype=float)
    m = counts.sum(axis=1)
    if np.any(m < 2):
        raise ShapeError("need at least 2 rows for a sample covariance")
    ac = a - (counts[:, None, :] @ a) / m[:, None, None]
    bc = b - (counts[:, None, :] @ b) / m[:, None, None]
    return np.matmul((ac * counts[:, :, None]).transpose(0, 2, 1), bc) / (m - 1)[:, None, None]


def _pattern_gradients(theta: np.ndarray, inputs: _InputStack):
    """Per-pattern gradients at ``theta`` (R, p) with the pattern counts.

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
    pred_all = np.concatenate([grads_pred_l, unl.gradients(probs_u, 0, k)], axis=1)
    return (grads_true, grads_pred_l, lab.counts,
            pred_all, np.concatenate([lab.counts, unl.counts], axis=1))


def _regularized_inverse(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric inverse of each (p, p) slice of ``h``, ridged upward as Newton's solves are.

    Returns the inverses and, per slice, whether a ridge was needed.
    """
    eye = np.eye(h.shape[1])
    inverse = np.empty_like(h)
    warned = np.zeros(h.shape[0], dtype=bool)
    for r in range(h.shape[0]):
        solved = mlogit._ridged_solve(h[r], eye)
        if solved is None:
            raise ShapeError("empirical Hessian could not be inverted")
        inv, warned[r] = solved
        inverse[r] = (inv + inv.T) / 2
    return inverse, warned


def _fit_rectified(inputs: _InputStack, lam: np.ndarray, theta0: np.ndarray | None
                   ) -> tuple[np.ndarray, list[FitDiagnostics]]:
    if theta0 is None:
        theta0 = np.zeros((inputs.size, inputs.labeled.x.shape[2] * (inputs.n_classes - 1)))
    return mlogit.newton_batch(_rectified_objective(inputs, lam), theta0)


def _tune_lambda(inputs: _InputStack, theta_pilot: np.ndarray) -> list[LambdaChoice]:
    if not np.all(np.isfinite(theta_pilot)):
        raise ParameterError("pilot coefficients must be finite")
    n, big_n = inputs.n_labeled, inputs.n_unlabeled
    h_inv, warned = _regularized_inverse(_pooled_hessian(theta_pilot, inputs))
    grads_true, grads_pred_l, counts_l, pred_all, counts_all = \
        _pattern_gradients(theta_pilot, inputs)
    cross = _cross_cov(grads_true, grads_pred_l, counts_l)
    numerator = np.trace(h_inv @ (cross + cross.transpose(0, 2, 1)) @ h_inv, axis1=1, axis2=2)
    denominator = np.trace(h_inv @ _cross_cov(pred_all, pred_all, counts_all) @ h_inv,
                           axis1=1, axis2=2)
    denominator = denominator * (2.0 * (1.0 + n / big_n))
    choices = []
    for num, den, regularized in zip(numerator, denominator, warned):
        if den <= 0.0:
            choices.append(LambdaChoice.from_raw(
                0.0, "tuned", warning="zero variance denominator; lambda set to 0"))
        else:
            choices.append(LambdaChoice.from_raw(
                num / den, "tuned",
                warning="pooled Hessian regularized for lambda tuning" if regularized else None))
    return choices


def _fit_multippi(inputs: _InputStack, lambda_mode: float | str
                  ) -> tuple[np.ndarray, list[LambdaChoice], list[FitDiagnostics]]:
    size = inputs.size
    lam = None if lambda_mode == "tuned" else _check_lambda(lambda_mode)
    mlogit.require_classes(inputs.labeled, inputs.n_classes, "labeled data")
    if lam is not None:
        theta, diagnostics = _fit_rectified(inputs, np.full(size, lam), None)
        return theta, [LambdaChoice(raw=lam, clipped=lam, mode="fixed")] * size, diagnostics
    theta_pilot, pilot = _fit_rectified(inputs, np.ones(size), None)
    fallback = np.array([not d.converged for d in pilot])
    if fallback.any():
        theta_pilot[fallback], _ = mlogit.fit_stack(
            inputs.labeled.take(fallback), inputs.n_classes)
    choices = _tune_lambda(inputs, theta_pilot)
    for r in np.flatnonzero(fallback):
        note = f"pilot fit at lambda=1 {pilot[r].status}; tuned at labeled-only MLE"
        c = choices[r]
        choices[r] = LambdaChoice(c.raw, c.clipped, c.mode,
                                  warning=note if c.warning is None else f"{c.warning}; {note}",
                                  pilot_fallback=True)
    lam = np.array([c.clipped for c in choices])
    theta, diagnostics = _fit_rectified(inputs, lam, theta_pilot)
    return theta, choices, diagnostics


def _sandwich(theta: np.ndarray, inputs: _InputStack, lam: np.ndarray) -> list[CovarianceEstimate]:
    n, big_n = inputs.n_labeled, inputs.n_unlabeled
    h = _pooled_hessian(theta, inputs)
    h_inv, warned = _regularized_inverse(h)
    grads_true, grads_pred_l, counts_l, pred_all, counts_all = \
        _pattern_gradients(theta, inputs)
    v_f = (lam ** 2)[:, None, None] * _cross_cov(pred_all, pred_all, counts_all)
    delta = grads_true - lam[:, None, None] * grads_pred_l
    v_delta = _cross_cov(delta, delta, counts_l)
    sigma = h_inv @ ((n / big_n)[:, None, None] * v_f + v_delta) @ h_inv
    sigma = (sigma + sigma.transpose(0, 2, 1)) / 2
    return [CovarianceEstimate(sigma=sigma[r], hessian=h[r], v_f=v_f[r], v_delta=v_delta[r],
                               condition_warning=bool(warned[r])) for r in range(inputs.size)]


def _classical_covariance(theta: np.ndarray, patterns: PatternStack,
                          n_classes: int) -> list[CovarianceEstimate]:
    h = mlogit.weighted_objective(
        [(patterns, None, 1.0 / patterns.n_rows)], n_classes).hess(theta)
    h_inv, warned = _regularized_inverse(h)
    grads = patterns.gradients(mlogit.class_probs(theta, patterns.x, n_classes), 0, n_classes)
    v = _cross_cov(grads, grads, patterns.counts)
    sigma = h_inv @ v @ h_inv
    sigma = (sigma + sigma.transpose(0, 2, 1)) / 2
    return [CovarianceEstimate(sigma=sigma[r], hessian=h[r], v_f=np.zeros_like(v[r]),
                               v_delta=v[r], condition_warning=bool(warned[r]))
            for r in range(patterns.size)]


def z_quantile(alpha: float) -> float:
    """Two-sided standard normal critical value z_{1 - alpha/2}."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return float(scipy.special.ndtri(1.0 - alpha / 2.0))


def confidence_intervals(theta: np.ndarray, sigma: np.ndarray, n: int,
                         alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Per-coordinate (se, lower, upper) at level 1 - alpha.

    se_j = sqrt(Sigma_jj / n) for any caller's sigma; numerically negative
    diagonal entries are clamped to zero and reported in the warnings list.
    """
    theta = np.asarray(theta, dtype=float)[None]
    se, lower, upper, warnings = _intervals(theta, np.asarray(sigma, dtype=float)[None],
                                            np.array([n]), alpha)
    return se[0], lower[0], upper[0], warnings[0]


def _intervals(theta: np.ndarray, sigma: np.ndarray, n: np.ndarray, alpha: float):
    """``confidence_intervals`` for R replications: theta (R, p), sigma (R, p, p), n (R,)."""
    diag = np.diagonal(sigma, axis1=1, axis2=2).copy()
    negative = diag < 0
    warnings = [[f"clamped negative covariance diagonal at coordinates "
                 f"{np.flatnonzero(row).tolist()}"] if row.any() else [] for row in negative]
    diag[negative] = 0.0
    z = z_quantile(alpha)
    se = np.sqrt(diag / n[:, None])
    return se, theta - z * se, theta + z * se, warnings


def _reports(estimator: str, theta: np.ndarray, covariances: list[CovarianceEstimate],
             n_denominator: np.ndarray, alpha: float, choices: list[LambdaChoice],
             n_labeled: np.ndarray, n_unlabeled: np.ndarray, n_classes: int,
             diagnostics: list[FitDiagnostics], **meta) -> list[InferenceReport]:
    """One report per replication, with the intervals of all of them computed together."""
    se, lower, upper, warnings = _intervals(
        theta, np.stack([c.sigma for c in covariances]), n_denominator, alpha)
    reports = []
    for r, diag in enumerate(diagnostics):
        if diag.status != "converged":
            warnings[r].insert(0, f"fit status {diag.status}: intervals not valid")
        reports.append(InferenceReport(
            estimator=estimator, theta=theta[r], se=se[r], ci_lower=lower[r],
            ci_upper=upper[r], alpha=alpha, lambda_choice=choices[r],
            n_labeled=int(n_labeled[r]), n_unlabeled=int(n_unlabeled[r]),
            n_classes=n_classes, diagnostics=diag, covariance=covariances[r],
            warnings=tuple(warnings[r]), **meta))
    return reports


def _classical_reports(patterns: PatternStack, n_classes: int, alpha: float, estimator: str,
                       n_labeled: np.ndarray | None = None, **meta) -> list[InferenceReport]:
    """Labeled-only MLE and classical sandwich for every replication of a stack.

    Intervals use each replication's row count; ``n_labeled`` (default:
    all rows) is each report's labeled count.
    """
    theta, diagnostics = mlogit.fit_stack(patterns, n_classes)
    total = patterns.n_rows
    labeled = total if n_labeled is None else n_labeled
    return _reports(estimator, theta, _classical_covariance(theta, patterns, n_classes),
                    total, alpha, [LambdaChoice(0.0, 0.0, "fixed")] * patterns.size,
                    labeled, total - labeled, n_classes, diagnostics, **meta)


def _classical_patterns(x: np.ndarray, y: np.ndarray, n_classes: int,
                        grouped: RowPatterns | None = None) -> RowPatterns:
    """Validate and group one dataset of a classical fit (``grouped``: its
    patterns with y in label column 0, if already grouped and checked).

    Everything that can fail for this dataset alone fails here, before it
    joins a stack.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("design matrix must be 2-d")
    n, d = x.shape
    if n < d * (n_classes - 1) + 1:
        raise ShapeError(
            f"need at least {d * (n_classes - 1) + 1} rows for inference, got {n}")
    patterns = mlogit.group_labeled(x, y, n_classes) if grouped is None else grouped
    mlogit.require_classes(PatternStack.of([patterns]), n_classes)
    return patterns


def fit_classical(x: np.ndarray, y: np.ndarray, n_classes: int, alpha: float = 0.05,
                  estimator: str = "classical", **meta) -> InferenceReport:
    """Labeled-rows-only MLE with the classical sandwich.

    Tag with ``estimator="ground-truth"`` when the rows are the complete
    dataset rather than a labeled subset.
    """
    patterns = PatternStack.of([_classical_patterns(x, y, n_classes)])
    return _classical_reports(patterns, n_classes, alpha, estimator, **meta)[0]


def fit_naive(inputs: PpiInputs, alpha: float = 0.05, **meta) -> InferenceReport:
    """Classical fit treating predicted labels as truth on all n + N rows."""
    stack = _InputStack.of([inputs])
    return _classical_reports(stack.naive, stack.n_classes, alpha, "naive",
                              n_labeled=stack.n_labeled, **meta)[0]


def _multippi_reports(inputs: _InputStack, lambda_mode: float | str, alpha: float,
                      **meta) -> list[InferenceReport]:
    theta, choices, diagnostics = _fit_multippi(_rectifiable(inputs), lambda_mode)
    covariances = _sandwich(theta, inputs, np.array([c.clipped for c in choices]))
    return _reports("multippi", theta, covariances, inputs.n_labeled, alpha, choices,
                    inputs.n_labeled, inputs.n_unlabeled, inputs.n_classes, diagnostics,
                    **meta)


def fit_multippi_report(inputs: PpiInputs, lambda_mode: float | str = "tuned",
                        alpha: float = 0.05, **meta) -> InferenceReport:
    """Full rectified inference: point estimate, sandwich SEs, intervals."""
    return _multippi_reports(_InputStack.of([inputs]), lambda_mode, alpha, **meta)[0]


# ---------------------------------------------------------------------------
# Many datasets at once


def _each_dataset(run, stack) -> list:
    """``run(stack)`` as one batch, or each half on its own if the batch raises.

    A failure then lands on the replication that caused it, as the error a
    single-dataset call raises, and the others keep their results: every
    product is made per replication, so those equal the batch's. Halving
    refits about ``2 log2(R)`` batches per failing replication, not ``R``.
    """
    try:
        return run(stack)
    except MultippiError as exc:
        if stack.size == 1:
            return [exc]
        half = stack.size // 2
        return (_each_dataset(run, stack.take(slice(None, half)))
                + _each_dataset(run, stack.take(slice(half, None))))


def fit_estimators_many(inputs: list[PpiInputs], lambda_mode: float | str = "tuned",
                        alpha: float = 0.05, **meta
                        ) -> list[dict[str, InferenceReport] | MultippiError]:
    """The classical, naive and multippi reports of each input set, fitted as one stack.

    Several sets are padded to the largest row counts, so when all sets have
    the same counts (Monte Carlo replications) a set's reports do not depend
    on which others share the call; each equals its single-dataset call's,
    ``meta`` included. Returns a ``{"classical", "naive", "multippi"}`` dict
    of reports per set, or the first error its fits raise, in that order.
    """
    def run(s: _InputStack) -> list[dict[str, InferenceReport]]:
        classical = _classical_reports(s.classical, s.n_classes, alpha, "classical", **meta)
        naive = _classical_reports(s.naive, s.n_classes, alpha, "naive",
                                   n_labeled=s.n_labeled, **meta)
        multippi = _multippi_reports(s, lambda_mode, alpha, **meta)
        return [{"classical": c, "naive": n, "multippi": m}
                for c, n, m in zip(classical, naive, multippi)]

    results: list = [None] * len(inputs)
    ready = []
    for r, i in enumerate(inputs):
        try:
            _classical_patterns(i.x_labeled, i.y_labeled, i.n_classes, grouped=i.labeled)
            ready.append(r)
        except MultippiError as exc:
            results[r] = exc
    if ready:
        fitted = _each_dataset(run, _InputStack.of([inputs[r] for r in ready]))
        for r, result in zip(ready, fitted):
            results[r] = result
    return results
