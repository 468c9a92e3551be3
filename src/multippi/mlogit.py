"""Multinomial logistic regression core: loss, gradient, Hessian, Newton solver.

Parameterization
----------------
With ``K`` classes indexed ``0..K-1``, class 0 is the reference class and its
coefficient block is pinned at zero. The free parameter vector ``theta`` has
length ``d*(K-1)``; block ``k-1`` (length ``d``) holds the coefficients of
class ``k`` versus the reference. Writing ``eta_k = x . theta_k`` and
``eta_0 = 0``, the per-row negative log likelihood is

    -eta_y + psi(theta, x),   psi = log(1 + sum_{k=1}^{K-1} exp(eta_k)),

so class probabilities normalize: including the reference's unit term in
``psi`` is what identifies the model.

Grouped evaluation
------------------
Every objective is a weighted sum of ``psi`` over rows minus a linear term
that is constant in theta, so it depends on the rows only through the
counts of their distinct patterns. ``group_rows`` collapses rows once per
fit and ``weighted_objective`` evaluates value, gradient and Hessian from
one pass of class probabilities per block of distinct design rows (see
``docs/math.md``, "Grouped form"). The public ``nll``, ``nll_grad``,
``nll_hess`` and ``per_row_grads`` group their rows and run the same
kernel. Sums run in pattern order rather than row order, so results agree
with a row-by-row evaluation to about 1e-12 relative; their last bits may
differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericError, SeparationError, ShapeError


@dataclass(frozen=True)
class NewtonOptions:
    """Damped-Newton solver settings."""

    grad_tol: float = 1e-8          # max-norm convergence threshold
    max_iterations: int = 100
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    min_step: float = 1e-14
    coef_bound: float = 1e4         # separation detector
    ridge: float = 1e-10            # added to the Hessian when a solve fails


@dataclass(frozen=True)
class FitDiagnostics:
    iterations: int
    gradient_norm: float
    converged: bool
    condition_warning: bool = False
    status: str = "converged"       # converged | max_iterations | stalled | separation


def onehot_rows(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Length-(K-1) indicator rows, shape (n, K-1); the reference class (0) maps to zeros."""
    y = np.asarray(y)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ShapeError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    out = np.zeros((y.shape[0], n_classes - 1))
    nonref = y > 0
    out[np.nonzero(nonref)[0], y[nonref] - 1] = 1.0
    return out


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def linear_predictors(theta: np.ndarray, x: np.ndarray, n_classes: int) -> np.ndarray:
    """eta = X @ Theta with Theta the (d, K-1) block-unstacked coefficients."""
    x = _as_matrix(x)
    d = x.shape[1]
    blocks = np.asarray(theta, dtype=float).reshape(n_classes - 1, d)
    return x @ blocks.T


def class_probs(theta: np.ndarray, x: np.ndarray, n_classes: int) -> np.ndarray:
    """Non-reference class probabilities, shape (K-1,) or (n, K-1).

    Evaluated with max-subtraction so large linear predictors saturate
    instead of overflowing. The reference probability is
    ``1 - probs.sum(axis=-1)`` and stays positive.
    """
    probs, _ = _probs_and_psi(theta, x, n_classes)
    return probs[0] if np.asarray(x).ndim == 1 else probs


def _probs_and_psi(theta: np.ndarray, x: np.ndarray,
                   n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and the log normalizer psi per row, overflow-safe."""
    eta = linear_predictors(theta, x, n_classes)
    if not np.all(np.isfinite(eta)):
        raise NumericError("non-finite linear predictor")
    m = np.maximum(eta.max(axis=1), 0.0)
    expo = np.exp(eta - m[:, None])
    denom = np.exp(-m) + expo.sum(axis=1)
    return expo / denom[:, None], m + np.log(denom)


def _check_labeled(x: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    x = _as_matrix(x)
    y = np.asarray(y)
    if y.shape[0] != x.shape[0]:
        raise ShapeError(f"{x.shape[0]} rows but {y.shape[0]} labels")
    if not np.issubdtype(y.dtype, np.integer):
        raise ShapeError("labels must be integer class indices (unlabeled rows are not allowed)")
    if y.size == 0:
        raise ShapeError("no rows")
    if y.min() < 0 or y.max() >= n_classes:
        raise ShapeError(f"labels must lie in [0, {n_classes})")
    return x, y


@dataclass(frozen=True)
class RowPatterns:
    """Rows collapsed to their distinct (x, labels) patterns, with integer counts.

    ``x`` holds the distinct design rows in lexicographic order and
    ``x_counts`` how many rows share each. Pattern ``t`` is design row
    ``x_index[t]`` with label tuple ``labels[t]``, seen ``counts[t]``
    times; input row ``i`` is pattern ``inverse[i]``.
    """

    x: np.ndarray
    x_counts: np.ndarray
    x_index: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.inverse.shape[0]

    def class_counts(self, column: int, n_classes: int) -> np.ndarray:
        """(P, K) count of rows per distinct design row and class of label ``column``."""
        flat = self.x_index * n_classes + self.labels[:, column]
        return np.bincount(flat, weights=self.counts,
                           minlength=self.x.shape[0] * n_classes).reshape(-1, n_classes)

    def gradients(self, probs: np.ndarray, column: int, n_classes: int) -> np.ndarray:
        """Per-pattern NLL gradients (p - onehot(label)) (x) x, shape (T, d*(K-1)).

        ``probs`` are the non-reference class probabilities at ``self.x``.
        """
        resid = probs[self.x_index] - onehot_rows(self.labels[:, column], n_classes)
        x = self.x[self.x_index]
        return (resid[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)


def group_rows(x: np.ndarray, *labels: np.ndarray) -> RowPatterns:
    """Collapse rows to their distinct (x, labels...) patterns.

    The one grouping every fit uses. Patterns come out sorted, so they do
    not depend on row order; a continuous design collapses nothing and
    keeps one pattern per row.
    """
    x = _as_matrix(x)
    n = x.shape[0]
    lab = np.column_stack(labels) if labels else np.zeros((n, 0), dtype=np.int64)
    order = np.lexsort([*lab.T[::-1], *x.T[::-1]])
    xs, ls = x[order], lab[order]
    new_x = np.ones(n, dtype=bool)
    new_x[1:] = np.any(xs[1:] != xs[:-1], axis=1)
    new_pattern = new_x.copy()
    new_pattern[1:] |= np.any(ls[1:] != ls[:-1], axis=1)
    starts = np.flatnonzero(new_pattern)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new_pattern) - 1
    counts = np.diff(np.append(starts, n))
    x_index = (np.cumsum(new_x) - 1)[starts]
    x_unique = xs[new_x]
    return RowPatterns(x=x_unique,
                       x_counts=np.bincount(x_index, weights=counts, minlength=len(x_unique)),
                       x_index=x_index, labels=ls[starts], counts=counts, inverse=inverse)


def group_labeled(x: np.ndarray, y: np.ndarray, n_classes: int) -> RowPatterns:
    """Validate labeled rows and collapse them to (x, y) patterns."""
    return group_rows(*_check_labeled(x, y, n_classes))


def _weighted_hessian(x: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_i w_i (diag(p_i) - p_i p_i^T) (x) x_i x_i^T, one GEMM over row outer products."""
    n, d = x.shape
    km1 = p.shape[1]
    curv = -p[:, :, None] * p[:, None, :]
    idx = np.arange(km1)
    curv[:, idx, idx] += p
    outer = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    h = (w[:, None] * curv.reshape(n, km1 * km1)).T @ outer
    return h.reshape(km1, km1, d, d).transpose(0, 2, 1, 3).reshape(km1 * d, km1 * d)


class _Objective:
    """sum_b sum_p w_bp psi(theta, x_bp) - b . theta over blocks of distinct design rows.

    Each block's probabilities are computed once per theta and give the
    value, gradient and Hessian. The last theta's probabilities are kept
    for the Hessian the Newton solver asks for at the point it accepted.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]],
                 linear: np.ndarray | None, n_classes: int):
        self.blocks = blocks
        self.linear = linear
        self.n_classes = n_classes
        self._theta = None
        self._probs: list[np.ndarray] = []

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        value = 0.0
        grad = np.zeros(theta.shape[0])
        probs = []
        for x, w in self.blocks:
            p, psi = _probs_and_psi(theta, x, self.n_classes)
            probs.append(p)
            value += w @ psi
            grad += ((w[:, None] * p).T @ x).ravel()
        self._theta, self._probs = theta.copy(), probs
        if self.linear is not None:
            value -= self.linear @ theta
            grad -= self.linear
        return float(value), grad

    def hess(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self._theta is not None and np.array_equal(theta, self._theta):
            probs = self._probs
        else:
            probs = [_probs_and_psi(theta, x, self.n_classes)[0] for x, _ in self.blocks]
        h = np.zeros((theta.shape[0], theta.shape[0]))
        for (x, w), p in zip(self.blocks, probs):
            h += _weighted_hessian(x, w, p)
        return h


def weighted_objective(terms: list[tuple[RowPatterns, int | None, float]],
                       n_classes: int) -> _Objective:
    """A weighted sum of NLL terms over grouped rows, as one objective.

    Each term ``(patterns, column, weight)`` adds ``weight`` times the
    summed NLL of the patterns' rows under label ``column``; a ``column``
    of None adds the label-free psi part only, which is all a Hessian
    needs. Since ``-eta_y`` is linear in theta, the labels collapse into
    one constant vector ``b``, and terms on the same patterns share one
    psi block. Zero-weight terms and blocks are skipped, not added as
    zeros, so lambda = 0 and the lambda = 1 cancellation stay exact.
    """
    psi_weights: dict[int, list] = {}
    linear = None
    for patterns, column, weight in terms:
        if weight == 0.0:
            continue
        entry = psi_weights.setdefault(id(patterns), [patterns, 0.0])
        entry[1] += weight
        if column is not None:
            counts = patterns.class_counts(column, n_classes)[:, 1:]
            part = weight * (counts.T @ patterns.x).ravel()
            linear = part if linear is None else linear + part
    blocks = [(p.x, w * p.x_counts) for p, w in psi_weights.values() if w != 0.0]
    return _Objective(blocks, linear, n_classes)


def _mean_nll(patterns: RowPatterns, n_classes: int, column: int | None = 0) -> _Objective:
    return weighted_objective([(patterns, column, 1.0 / patterns.n_rows)], n_classes)


def nll(theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int) -> float:
    """Mean negative log likelihood over labeled rows."""
    return _mean_nll(group_labeled(x, y, n_classes), n_classes).value_and_grad(theta)[0]


def per_row_grads(theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-row gradients (probs - onehot(y)) (x) x, shape (n, d*(K-1))."""
    patterns = group_labeled(x, y, n_classes)
    probs, _ = _probs_and_psi(theta, patterns.x, n_classes)
    return patterns.gradients(probs, 0, n_classes)[patterns.inverse]


def nll_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Gradient of nll, block layout matching theta."""
    return _mean_nll(group_labeled(x, y, n_classes), n_classes).value_and_grad(theta)[1]


def nll_hess(theta: np.ndarray, x: np.ndarray, n_classes: int) -> np.ndarray:
    """Hessian of nll; label-free.

    Per row the (K-1, K-1) curvature is diag(p) - p p^T, and the full
    Hessian is the mean of its Kronecker product with x x^T.
    """
    return _mean_nll(group_rows(x), n_classes, column=None).hess(theta)


def _solve_newton_step(hess: np.ndarray, grad: np.ndarray, ridge: float) -> tuple[np.ndarray, bool]:
    """Cholesky solve of H step = -grad, ridging H upward until it succeeds."""
    h = hess
    regularized = False
    reg = ridge
    for _ in range(12):
        try:
            c = scipy.linalg.cho_factor(h, check_finite=False)
            step = scipy.linalg.cho_solve(c, -grad, check_finite=False)
            if np.all(np.isfinite(step)):
                return step, regularized
        except scipy.linalg.LinAlgError:
            pass
        h = hess + reg * np.eye(hess.shape[0])
        regularized = True
        reg *= 100.0
    raise NumericError("Hessian solve failed even after regularization")


def newton_minimize(value_and_grad, hess, theta0: np.ndarray,
                    options: NewtonOptions = NewtonOptions()) -> tuple[np.ndarray, FitDiagnostics]:
    """Damped Newton with Armijo backtracking.

    ``value_and_grad(theta) -> (float, ndarray)`` and ``hess(theta) ->
    ndarray`` define the objective. Does not raise on non-convergence;
    the outcome is in the returned diagnostics.
    """
    theta = np.array(theta0, dtype=float)
    condition_warning = False
    value, grad = value_and_grad(theta)
    prev_value = np.inf
    iterations = 0
    status = "max_iterations"
    for iterations in range(1, options.max_iterations + 1):
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if gnorm <= options.grad_tol:
            status = "converged"
            iterations -= 1
            break
        step, regularized = _solve_newton_step(hess(theta), grad, options.ridge)
        condition_warning = condition_warning or regularized
        slope = float(grad @ step)
        if slope >= 0:
            # not a descent direction (extreme ill-conditioning): fall back
            step = -grad
            slope = float(grad @ step)
        t = 1.0
        new_theta = theta + step
        new_value, new_grad = value_and_grad(new_theta)
        while not (np.isfinite(new_value) and
                   new_value <= value + options.armijo_c * t * slope):
            t *= options.backtrack_factor
            if t < options.min_step:
                break
            new_theta = theta + t * step
            new_value, new_grad = value_and_grad(new_theta)
        if t < options.min_step:
            status = "stalled"
            break
        decreasing = new_value < prev_value
        prev_value, theta, value, grad = value, new_theta, new_value, new_grad
        if np.max(np.abs(theta)) > options.coef_bound and decreasing:
            status = "separation"
            break
    else:
        iterations = options.max_iterations
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
    if status != "converged" and gnorm <= options.grad_tol:
        status = "converged"
    return theta, FitDiagnostics(
        iterations=iterations,
        gradient_norm=gnorm,
        converged=status == "converged",
        condition_warning=condition_warning,
        status=status,
    )


def fit_mle(x: np.ndarray, y: np.ndarray, n_classes: int,
            options: NewtonOptions = NewtonOptions(),
            theta0: np.ndarray | None = None) -> tuple[np.ndarray, FitDiagnostics]:
    """Maximum likelihood fit by damped Newton.

    Every class in ``0..n_classes-1`` must appear in ``y``. Raises
    SeparationError when coefficients pass ``options.coef_bound`` while the
    loss is still decreasing (complete or quasi-complete separation).
    """
    return fit_grouped(group_labeled(x, y, n_classes), n_classes, options, theta0)


def fit_grouped(patterns: RowPatterns, n_classes: int,
                options: NewtonOptions = NewtonOptions(),
                theta0: np.ndarray | None = None) -> tuple[np.ndarray, FitDiagnostics]:
    """``fit_mle`` on rows already grouped by ``group_labeled``."""
    present = np.unique(patterns.labels[:, 0])
    if len(present) != n_classes:
        missing = sorted(set(range(n_classes)) - set(present.tolist()))
        raise ShapeError(f"classes absent from data: {missing}")
    if theta0 is None:
        theta0 = np.zeros(patterns.x.shape[1] * (n_classes - 1))
    objective = _mean_nll(patterns, n_classes)
    theta, diag = newton_minimize(objective.value_and_grad, objective.hess, theta0, options)
    if diag.status == "separation":
        raise SeparationError(
            f"coefficient max-norm exceeded {options.coef_bound:g} while the "
            "loss was still decreasing; data are (quasi-)separated"
        )
    return theta, diag
