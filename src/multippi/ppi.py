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
axis (``mlogit.PatternStack``; one set's patterns are its R = 1 stack,
used as they are). The public single-dataset calls are the R = 1 case:
``fit_classical``, ``fit_naive`` and ``fit_multippi_report``, whose report
holds theta, lambda, diagnostics and covariance parts, plus
``rectified_loss``, ``rectified_hessian`` and ``confidence_intervals``.
``fit_estimators_many`` fits the classical, naive and multippi estimators
of many input sets, each estimator as one stack; a set gets each
estimator's report or error, as its single-dataset call gives it.
``infer`` and ``loso`` call it with one set. Reports carry no class or
covariate names; a caller adds them with ``dataclasses.replace``. Every
fit runs ``mlogit.newton_batch`` with the constants ``mlogit`` fixes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import mlogit
from .errors import MultippiError, ParameterError, ShapeError
from .mlogit import FitDiagnostics, PatternStack


@dataclass(frozen=True)
class PpiInputs:
    """Aligned labeled and unlabeled design rows with predictions on every row.

    Construction collapses the rows once, each subset into a one-replication
    ``PatternStack``: ``labeled`` into (x, y, yhat) patterns (label columns
    0 and 1), ``unlabeled`` into (x, yhat) patterns (label column 0). Every
    fit runs on them; ``naive`` and ``classical`` regroup them on each
    access. A subset may be empty (the fits check row counts).
    """

    x_labeled: np.ndarray
    y_labeled: np.ndarray
    yhat_labeled: np.ndarray
    x_unlabeled: np.ndarray
    yhat_unlabeled: np.ndarray
    n_classes: int
    labeled: PatternStack = field(init=False, repr=False, compare=False)
    unlabeled: PatternStack = field(init=False, repr=False, compare=False)

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
    def naive(self) -> PatternStack:
        """(x, yhat) patterns of all rows, regrouped: ``group_rows`` of the stacked rows."""
        lab, unl = self.labeled, self.unlabeled
        return mlogit._group(np.concatenate([lab.x[0, lab.x_index[0]], unl.x[0, unl.x_index[0]]]),
                             np.concatenate([lab.labels[0, :, 1:], unl.labels[0]]),
                             np.concatenate([lab.counts[0], unl.counts[0]]))

    @property
    def classical(self) -> PatternStack:
        """(x, y) patterns of the labeled rows, regrouped: ``group_rows(x_labeled, y_labeled)``."""
        lab = self.labeled
        return mlogit._group(lab.x[0, lab.x_index[0]], lab.labels[0, :, :1], lab.counts[0])

    @property
    def n_labeled(self) -> int:
        return self.x_labeled.shape[0]

    @property
    def n_unlabeled(self) -> int:
        return self.x_unlabeled.shape[0]

    @property
    def n_features(self) -> int:
        return self.x_labeled.shape[1]


@dataclass(frozen=True)
class LambdaChoice:
    """Raw weight on predicted labels, clipped to [0, 1] for use, plus how it was chosen."""

    raw: float
    mode: str                      # "fixed" | "tuned"
    warning: str | None = None
    pilot_fallback: bool = False   # tuned at the labeled-only MLE: the lambda=1 pilot failed

    @property
    def clipped(self) -> float:
        return float(min(1.0, max(0.0, self.raw)))


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

        A single set's stacks are used as they are, not copied: padding them
        to its row counts would only add zero entries.
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
    for r, (n, big_n) in enumerate(zip(inputs.n_labeled, inputs.n_unlabeled)):
        if big_n < 1:
            raise ShapeError("need at least one unlabeled row").at(r)
        if n < n_params + 1:
            raise ShapeError(f"need at least {n_params + 1} labeled rows to estimate "
                             f"covariances, got {n}").at(r)
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


def _regularized_inverse(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric inverse of each (p, p) slice of ``h``, ridged upward as Newton's solves are.

    Returns the inverses and, per slice, whether a ridge was needed.
    """
    solved = mlogit._ridged_solve(h, np.broadcast_to(np.eye(h.shape[1]), h.shape))
    if solved is None:
        raise ShapeError("empirical Hessian could not be inverted")
    inverse, warned = solved
    return (inverse + inverse.transpose(0, 2, 1)) / 2, warned


def _mean_hessian(theta: np.ndarray, stacks: list[PatternStack], n_classes: int):
    """Label-free Hessian of the mean NLL over every row of ``stacks``, (R, p, p),
    with its ``_regularized_inverse``: the triple (h, inverse, ridged)."""
    w = 1.0 / sum(s.n_rows for s in stacks)
    h = mlogit.weighted_objective([(s, None, w) for s in stacks], n_classes).hess(theta)
    return (h, *_regularized_inverse(h))


def _variance_parts(theta: np.ndarray, inputs: _InputStack):
    """What lambda tuning and the sandwich read at ``theta``: the pooled ``_mean_hessian``
    triple, the true- and predicted-label gradients of the labeled patterns (counted
    by ``inputs.labeled.counts``), and the predicted-label gradients' covariance over
    all patterns."""
    k = inputs.n_classes
    lab, unl = inputs.labeled, inputs.unlabeled
    hessian = _mean_hessian(theta, [lab, unl], k)
    probs_l = mlogit.class_probs(theta, lab.x, k)
    grads_true = lab.gradients(probs_l, 0, k)
    grads_pred = lab.gradients(probs_l, 1, k)
    pred_all = np.concatenate(
        [grads_pred, unl.gradients(mlogit.class_probs(theta, unl.x, k), 0, k)], axis=1)
    v_pred = _cross_cov(pred_all, pred_all, np.concatenate([lab.counts, unl.counts], axis=1))
    return hessian, grads_true, grads_pred, v_pred


def _covariances(hessian, middle: np.ndarray, v_f: np.ndarray,
                 v_delta: np.ndarray) -> list[CovarianceEstimate]:
    """The symmetrized sandwich ``h^-1 middle h^-1`` of a ``_mean_hessian`` triple,
    one ``CovarianceEstimate`` per replication."""
    h, h_inv, warned = hessian
    sigma = h_inv @ middle @ h_inv
    sigma = (sigma + sigma.transpose(0, 2, 1)) / 2
    return [CovarianceEstimate(sigma=sigma[r], hessian=h[r], v_f=v_f[r], v_delta=v_delta[r],
                               condition_warning=bool(warned[r])) for r in range(len(h))]


def _fit_rectified(inputs: _InputStack, lam: np.ndarray, theta0: np.ndarray | None
                   ) -> tuple[np.ndarray, list[FitDiagnostics]]:
    if theta0 is None:
        theta0 = np.zeros((inputs.size, inputs.labeled.x.shape[2] * (inputs.n_classes - 1)))
    return mlogit.newton_batch(_rectified_objective(inputs, lam), theta0)


def _tune_lambda(inputs: _InputStack, theta_pilot: np.ndarray) -> list[LambdaChoice]:
    if not np.all(np.isfinite(theta_pilot)):
        raise ParameterError("pilot coefficients must be finite")
    n, big_n = inputs.n_labeled, inputs.n_unlabeled
    (_, h_inv, warned), grads_true, grads_pred, v_pred = _variance_parts(theta_pilot, inputs)
    cross = _cross_cov(grads_true, grads_pred, inputs.labeled.counts)
    numerator = np.trace(h_inv @ (cross + cross.transpose(0, 2, 1)) @ h_inv, axis1=1, axis2=2)
    denominator = np.trace(h_inv @ v_pred @ h_inv, axis1=1, axis2=2)
    denominator = denominator * (2.0 * (1.0 + n / big_n))
    choices = []
    for num, den, regularized in zip(numerator, denominator, warned):
        if den <= 0.0:
            choices.append(LambdaChoice(
                0.0, "tuned", warning="zero variance denominator; lambda set to 0"))
        else:
            choices.append(LambdaChoice(
                float(num / den), "tuned",
                warning="pooled Hessian regularized for lambda tuning" if regularized else None))
    return choices


def _fit_multippi(inputs: _InputStack, lambda_mode: float | str
                  ) -> tuple[np.ndarray, list[LambdaChoice], list[FitDiagnostics]]:
    size = inputs.size
    lam = None if lambda_mode == "tuned" else _check_lambda(lambda_mode)
    mlogit.require_classes(inputs.labeled, inputs.n_classes, "labeled data")
    if lam is not None:
        theta, diagnostics = _fit_rectified(inputs, np.full(size, lam), None)
        return theta, [LambdaChoice(raw=lam, mode="fixed")] * size, diagnostics
    theta_pilot, pilot = _fit_rectified(inputs, np.ones(size), None)
    fallback = np.array([not d.converged for d in pilot])
    if fallback.any():
        theta_pilot[fallback], _ = mlogit.fit_stack(
            inputs.labeled.take(fallback), inputs.n_classes)
    choices = _tune_lambda(inputs, theta_pilot)
    for r in np.flatnonzero(fallback):
        note = f"pilot fit at lambda=1 {pilot[r].status}; tuned at labeled-only MLE"
        c = choices[r]
        choices[r] = replace(c, warning=note if c.warning is None else f"{c.warning}; {note}",
                             pilot_fallback=True)
    lam = np.array([c.clipped for c in choices])
    theta, diagnostics = _fit_rectified(inputs, lam, theta_pilot)
    return theta, choices, diagnostics


def _sandwich(theta: np.ndarray, inputs: _InputStack, lam: np.ndarray) -> list[CovarianceEstimate]:
    hessian, grads_true, grads_pred, v_pred = _variance_parts(theta, inputs)
    v_f = (lam ** 2)[:, None, None] * v_pred
    delta = grads_true - lam[:, None, None] * grads_pred
    v_delta = _cross_cov(delta, delta, inputs.labeled.counts)
    middle = (inputs.n_labeled / inputs.n_unlabeled)[:, None, None] * v_f + v_delta
    return _covariances(hessian, middle, v_f, v_delta)


def _classical_covariance(theta: np.ndarray, patterns: PatternStack,
                          n_classes: int) -> list[CovarianceEstimate]:
    hessian = _mean_hessian(theta, [patterns], n_classes)
    grads = patterns.gradients(mlogit.class_probs(theta, patterns.x, n_classes), 0, n_classes)
    v = _cross_cov(grads, grads, patterns.counts)
    return _covariances(hessian, v, np.zeros_like(v), v)


def z_quantile(alpha: float) -> float:
    """Two-sided standard normal critical value z_{1 - alpha/2}."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return _ndtri(1.0 - alpha / 2.0)


# Cephes ndtri (S. L. Moshier), the routine behind scipy.special.ndtri and
# scipy.stats.norm.ppf. Ported with its coefficients and its order of
# operations, so the quantile is the same double without importing scipy.
# Cephes' p1evl (an implied leading 1) is _polevl with a leading 1.0: 1.0 * x
# is exact, so the operations are the same.
_S2PI = 2.50662827463100050242e0           # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189           # exp(-2)
# |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# z in [8, 64): y between exp(-32) and exp(-2048)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF at y0 in (0, 1]."""
    if y0 == 1.0:
        return math.inf
    y = y0
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return -x if negate else x


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
             diagnostics: list[FitDiagnostics]) -> list[InferenceReport]:
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
            warnings=tuple(warnings[r])))
    return reports


def _classical_reports(patterns: PatternStack, n_classes: int, alpha: float, estimator: str,
                       n_labeled: np.ndarray | None = None) -> list[InferenceReport]:
    """Labeled-only MLE and classical sandwich for every replication of a stack.

    Each needs d(K-1)+1 rows. Intervals use each replication's row count;
    ``n_labeled`` (default: all rows) is each report's labeled count.
    """
    _check_rows(patterns.n_rows, patterns.x.shape[2], n_classes)
    mlogit.require_classes(patterns, n_classes)
    theta, diagnostics = mlogit.fit_stack(patterns, n_classes)
    total = patterns.n_rows
    labeled = total if n_labeled is None else n_labeled
    return _reports(estimator, theta, _classical_covariance(theta, patterns, n_classes),
                    total, alpha, [LambdaChoice(0.0, "fixed")] * patterns.size,
                    labeled, total - labeled, n_classes, diagnostics)


def _check_rows(n_rows, n_features: int, n_classes: int) -> None:
    """ShapeError ``at`` the first set with too few rows for a classical fit's covariance."""
    need = n_features * (n_classes - 1) + 1
    for r, n in enumerate(n_rows):
        if n < need:
            raise ShapeError(f"need at least {need} rows for inference, got {n}").at(r)


def fit_classical(x: np.ndarray, y: np.ndarray, n_classes: int, alpha: float = 0.05,
                  estimator: str = "classical") -> InferenceReport:
    """Labeled-rows-only MLE with the classical sandwich.

    Tag with ``estimator="ground-truth"`` when the rows are the complete
    dataset rather than a labeled subset.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("design matrix must be 2-d")
    return _classical_reports(mlogit.group_labeled(x, y, n_classes), n_classes, alpha,
                              estimator)[0]


def fit_naive(inputs: PpiInputs, alpha: float = 0.05) -> InferenceReport:
    """Classical fit treating predicted labels as truth on all n + N rows."""
    stack = _InputStack.of([inputs])
    return _classical_reports(stack.naive, stack.n_classes, alpha, "naive",
                              n_labeled=stack.n_labeled)[0]


def _multippi_reports(inputs: _InputStack, lambda_mode: float | str,
                      alpha: float) -> list[InferenceReport]:
    theta, choices, diagnostics = _fit_multippi(_rectifiable(inputs), lambda_mode)
    covariances = _sandwich(theta, inputs, np.array([c.clipped for c in choices]))
    return _reports("multippi", theta, covariances, inputs.n_labeled, alpha, choices,
                    inputs.n_labeled, inputs.n_unlabeled, inputs.n_classes, diagnostics)


def fit_multippi_report(inputs: PpiInputs, lambda_mode: float | str = "tuned",
                        alpha: float = 0.05) -> InferenceReport:
    """Full rectified inference: point estimate, sandwich SEs, intervals."""
    return _multippi_reports(_InputStack.of([inputs]), lambda_mode, alpha)[0]


# ---------------------------------------------------------------------------
# Many datasets at once


def _each_dataset(run, stack: _InputStack) -> list:
    """``run(stack)`` as one batch; if it raises, each set gets what its own call gives.

    An error ``at`` a set (from a check on the whole stack, before any Newton
    step) lands on that set and the others rerun without it. Any other error
    halves the stack and each half reruns, down to single sets: about
    ``2 log2(R)`` batches per failing set, not ``R``. The other sets keep
    their results, since every product is made per set.
    """
    try:
        return run(stack)
    except MultippiError as exc:
        if stack.size == 1:
            return [exc]
        if exc.dataset is not None:
            rest = _each_dataset(run, stack.take(np.arange(stack.size) != exc.dataset))
            return rest[:exc.dataset] + [exc] + rest[exc.dataset:]
        half = stack.size // 2
        return (_each_dataset(run, stack.take(slice(None, half)))
                + _each_dataset(run, stack.take(slice(half, None))))


def fit_estimators_many(inputs: list[PpiInputs], lambda_mode: float | str = "tuned",
                        alpha: float = 0.05) -> list[dict[str, InferenceReport | MultippiError]]:
    """A ``{"classical", "naive", "multippi"}`` dict per input set: each value is
    what that estimator's single-dataset call gives on the set, its report or
    the error it raises.

    Each estimator fits all sets as one stack, padded to the largest row
    counts, so with equal counts (Monte Carlo replications) a set's results
    do not depend on which others share the call.
    """
    stack = _InputStack.of(inputs)
    k = stack.n_classes
    runs = {
        "classical": lambda s: _classical_reports(s.classical, k, alpha, "classical"),
        "naive": lambda s: _classical_reports(s.naive, k, alpha, "naive", n_labeled=s.n_labeled),
        "multippi": lambda s: _multippi_reports(s, lambda_mode, alpha),
    }
    fitted = {tag: _each_dataset(run, stack) for tag, run in runs.items()}
    return [dict(zip(fitted, fits)) for fits in zip(*fitted.values())]
