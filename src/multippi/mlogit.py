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
counts of their distinct patterns. ``group_rows`` collapses each dataset
once, into a one-replication ``PatternStack`` (regrouped patterns give the
same table), and ``weighted_objective`` evaluates value, gradient and
Hessian from one pass of class probabilities per block of distinct design
rows (see ``docs/math.md``, "Grouped form").
The public ``nll``, ``nll_grad``, ``nll_hess`` and ``per_row_grads`` run
the same kernel; only tests call them, as the reference for the fits. Sums
run in pattern order rather than row order, so results agree with a
row-by-row evaluation to about 1e-12 relative; their last bits may differ.

Replication axis
----------------
The kernel works on R datasets at once: ``PatternStack`` holds their
patterns on a leading axis, and the objective and ``newton_batch`` take
theta of shape (R, p). Every product is made per replication (one BLAS
call per slice), and the Newton solves substitute elementwise over the
stack (``_cholesky_solve``), so a replication's numbers do not depend on
which others share its stack. A single dataset is the R = 1 case of the
same code (see ``docs/math.md``, "Batched replications").

Newton settings
---------------
The damped-Newton policy (gradient tolerance, iteration cap, Armijo
constant, step shrink, minimum step, separation bound, ridge) is fixed:
the private constants below, which ``newton_batch`` and ``_ridged_solve``
read when called. No fit takes a solver setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SeparationError, ShapeError


# See "Newton settings" above and docs/math.md, "Multinomial model".
_GRAD_TOL = 1e-8                    # max-norm convergence threshold
_MAX_ITERATIONS = 100
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-14
_COEF_BOUND = 1e4                   # separation detector
_RIDGE = 1e-10                      # added to a Hessian when its solve fails


@dataclass(frozen=True)
class FitDiagnostics:
    iterations: int
    gradient_norm: float
    condition_warning: bool = False
    status: str = "converged"       # converged | max_iterations | stalled | separation

    @property
    def converged(self) -> bool:
        return self.status == "converged"


FIT_STATUSES = ("converged", "max_iterations", "stalled", "separation")


def onehot_rows(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Length-(K-1) indicator rows, shape y.shape + (K-1,); the reference class (0) maps to zeros."""
    y = np.asarray(y)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ShapeError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    out = np.zeros(y.shape + (n_classes - 1,))
    nonref = y > 0
    out[nonref, y[nonref] - 1] = 1.0
    return out


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def class_probs(theta: np.ndarray, x: np.ndarray, n_classes: int) -> np.ndarray:
    """Non-reference class probabilities, shape (K-1,) or (n, K-1).

    Stacked theta (R, p) with stacked rows x (R, n, d) gives (R, n, K-1).
    Evaluated with max-subtraction so large linear predictors saturate
    instead of overflowing. The reference probability is
    ``1 - probs.sum(axis=-1)`` and stays positive.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    if theta.ndim == 2:
        return _probs_and_psi(theta, x, n_classes)[0]
    probs = _probs_and_psi(theta[None], _as_matrix(x)[None], n_classes)[0][0]
    return probs[0] if x.ndim == 1 else probs


def _probs_and_psi(theta: np.ndarray, x: np.ndarray,
                   n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities (R, m, K-1) and log normalizer psi (R, m), overflow-safe.

    ``theta`` is (R, p) and ``x`` is (R, m, d).
    """
    r, _, d = x.shape
    eta = x @ theta.reshape(r, n_classes - 1, d).transpose(0, 2, 1)
    if not np.all(np.isfinite(eta)):
        raise NumericError("non-finite linear predictor")
    m = np.maximum(_class_reduce(np.maximum, eta), 0.0)
    expo = np.exp(eta - m[:, :, None])
    denom = np.exp(-m) + _class_reduce(np.add, expo)
    return expo / denom[:, :, None], m + np.log(denom)


def _class_reduce(op, a: np.ndarray) -> np.ndarray:
    """``op`` folded over the short class axis (last) one column at a time.

    Left to right, which is the order numpy's own reduction takes below
    eight terms, but without its per-row cost on a length-(K-1) axis.
    """
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = op(out, a[..., j])
    return out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-replication dot products of (R, m) arrays: one BLAS dot per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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


def group_rows(x: np.ndarray, *labels: np.ndarray) -> "PatternStack":
    """Collapse rows to their distinct (x, labels...) patterns, as a one-replication stack.

    The one grouping every fit uses. Patterns come out sorted, so they do
    not depend on row order; a continuous design collapses nothing and
    keeps one pattern per row.
    """
    x = _as_matrix(x)
    lab = np.column_stack(labels) if labels else np.zeros((len(x), 0), dtype=np.int64)
    return _group(x, lab, np.ones(len(x), dtype=np.intp))


def _group(x: np.ndarray, lab: np.ndarray, weights: np.ndarray) -> "PatternStack":
    """``group_rows`` of rows ``x`` with label columns ``lab``, row i counted weights[i] times."""
    n = x.shape[0]
    order = np.lexsort([*lab.T[::-1], *x.T[::-1]])
    xs, ls = x[order], lab[order]
    new_x = np.ones(n, dtype=bool)
    new_x[1:] = np.any(xs[1:] != xs[:-1], axis=1)
    new_pattern = new_x.copy()
    new_pattern[1:] |= np.any(ls[1:] != ls[:-1], axis=1)
    starts = np.flatnonzero(new_pattern)
    counts = np.add.reduceat(weights[order], starts)
    x_index = (np.cumsum(new_x) - 1)[starts]
    x_unique = xs[new_x]
    x_counts = np.bincount(x_index, weights=counts, minlength=len(x_unique))
    return PatternStack(x_unique[None], x_counts[None], x_index[None], ls[starts][None],
                        counts[None])


def group_labeled(x: np.ndarray, y: np.ndarray, n_classes: int) -> "PatternStack":
    """Validate labeled rows and collapse them to (x, y) patterns."""
    return group_rows(*_check_labeled(x, y, n_classes))


@dataclass(frozen=True)
class PatternStack:
    """Rows of R datasets collapsed to distinct (x, labels) patterns with integer
    counts, on a leading replication axis.

    ``x`` (R, P, d) holds each dataset's distinct design rows in
    lexicographic order and ``x_counts`` (R, P) how many rows share each.
    Pattern ``t`` of replication ``r`` is design row ``x_index[r, t]`` with
    label tuple ``labels[r, t]`` (R, T, L), seen ``counts[r, t]`` times. A
    dataset with fewer patterns is padded at the end: padded design rows are
    zero with count 0, padded patterns point at design row 0 with label 0
    and count 0, so every padded entry adds an exact zero.
    """

    x: np.ndarray
    x_counts: np.ndarray
    x_index: np.ndarray
    labels: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, stacks: list["PatternStack"], size: int | None = None) -> "PatternStack":
        """Stack one-replication ``stacks``, padded to ``size`` entries (default:
        the longest). A single stack with no ``size`` is returned as it is."""
        if len(stacks) == 1 and size is None:
            return stacks[0]
        n_x = size or max(p.x.shape[1] for p in stacks)
        n_t = size or max(p.counts.shape[1] for p in stacks)
        first = stacks[0]
        r = len(stacks)
        x = np.zeros((r, n_x, first.x.shape[2]))
        x_counts = np.zeros((r, n_x))
        x_index = np.zeros((r, n_t), dtype=first.x_index.dtype)
        labels = np.zeros((r, n_t, first.labels.shape[2]), dtype=first.labels.dtype)
        counts = np.zeros((r, n_t), dtype=first.counts.dtype)
        for i, p in enumerate(stacks):
            m, t = p.x.shape[1], p.counts.shape[1]
            x[i, :m], x_counts[i, :m] = p.x[0], p.x_counts[0]
            x_index[i, :t], labels[i, :t], counts[i, :t] = p.x_index[0], p.labels[0], p.counts[0]
        return cls(x, x_counts, x_index, labels, counts)

    @property
    def n_rows(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def take(self, index) -> "PatternStack":
        """The replications at positions ``index``."""
        return PatternStack(self.x[index], self.x_counts[index], self.x_index[index],
                            self.labels[index], self.counts[index])

    def class_counts(self, column: int, n_classes: int) -> np.ndarray:
        """(R, P, K) count of rows per distinct design row and class of label ``column``."""
        r, n_x = self.x_counts.shape
        flat = (np.arange(r)[:, None] * n_x + self.x_index) * n_classes \
            + self.labels[:, :, column]
        return np.bincount(flat.ravel(), weights=self.counts.ravel(),
                           minlength=r * n_x * n_classes).reshape(r, n_x, n_classes)

    def gradients(self, probs: np.ndarray, column: int, n_classes: int) -> np.ndarray:
        """Per-pattern NLL gradients (p - onehot(label)) (x) x, shape (R, T, d*(K-1)).

        ``probs`` (R, P, K-1) are the non-reference class probabilities at ``self.x``.
        """
        rows = np.arange(self.size)[:, None]
        resid = probs[rows, self.x_index] - onehot_rows(self.labels[:, :, column], n_classes)
        return _outer_columns(resid, self.x[rows, self.x_index])


def _weighted_hessian(x: np.ndarray, xx: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_i w_i (diag(p_i) - p_i p_i^T) (x) x_i x_i^T per replication, one GEMM each.

    ``x`` is (R, m, d), ``xx`` its ``_outer_columns(x, x)``, ``w`` (R, m) and
    ``p`` (R, m, K-1); the result is (R, p, p).
    """
    r, n, d = x.shape
    km1 = p.shape[2]
    curv = _outer_columns(-p, p)
    curv[..., ::km1 + 1] += p
    h = np.matmul((w[..., None] * curv).transpose(0, 2, 1), xx)
    return h.reshape(r, km1, km1, d, d).transpose(0, 1, 3, 2, 4).reshape(r, km1 * d, km1 * d)


def _outer_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer products a_i b_i^T of (..., k) and (..., l), flattened to (..., k*l).

    Built one output column at a time: with short k and l this is far
    cheaper than broadcasting over two trailing axes.
    """
    k, l = a.shape[-1], b.shape[-1]
    out = np.empty(a.shape[:-1] + (k * l,))
    for i in range(k):
        for j in range(l):
            np.multiply(a[..., i], b[..., j], out=out[..., i * l + j])
    return out


class _Objective:
    """sum_b sum_p w_rbp psi(theta_r, x_rbp) - b_r . theta_r for each replication r.

    Blocks hold distinct design rows (R, m, d) with weights (R, m); each
    row's x x^T is built once, for every Hessian. Each method takes theta
    (R', p) for the replications at positions ``index`` (all R when None)
    and returns one value, gradient or Hessian per row of theta. Each
    block's probabilities are computed once per theta and give the value,
    gradient and Hessian; the last probabilities of every replication are
    kept for the Hessian the Newton solver asks for at the point it
    accepted.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]],
                 linear: np.ndarray | None, n_classes: int, n_replications: int):
        self.blocks = blocks
        self._outer = [_outer_columns(x, x) for x, _ in blocks]
        self.linear = linear
        self.n_classes = n_classes
        self.n_replications = n_replications
        self._theta: np.ndarray | None = None
        self._probs: list[np.ndarray] = []

    def _rows(self, index):
        for x, w in self.blocks:
            yield (x, w) if index is None else (x[index], w[index])

    def value_and_grad(self, theta: np.ndarray, index=None) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        r, n_params = theta.shape
        value = np.zeros(r)
        grad = np.zeros((r, n_params))
        probs = []
        for x, w in self._rows(index):
            p, psi = _probs_and_psi(theta, x, self.n_classes)
            probs.append(p)
            value += _rowdot(w, psi)
            grad += np.matmul((w[:, :, None] * p).transpose(0, 2, 1), x).reshape(r, n_params)
        self._remember(theta, index, probs)
        if self.linear is not None:
            linear = self.linear if index is None else self.linear[index]
            value -= _rowdot(linear, theta)
            grad -= linear
        return value, grad

    def _remember(self, theta: np.ndarray, index, probs: list[np.ndarray]) -> None:
        if index is None:
            self._theta, self._probs = theta.copy(), probs
            return
        if self._theta is None:
            self._theta = np.full((self.n_replications, theta.shape[1]), np.nan)
            self._probs = [np.empty((self.n_replications,) + p.shape[1:]) for p in probs]
        self._theta[index] = theta
        for cache, p in zip(self._probs, probs):
            cache[index] = p

    def hess(self, theta: np.ndarray, index=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        probs = None
        if self._theta is not None:
            known = self._theta if index is None else self._theta[index]
            if np.array_equal(theta, known):
                probs = self._probs if index is None else [p[index] for p in self._probs]
        r, n_params = theta.shape
        h = np.zeros((r, n_params, n_params))
        for b, (x, w) in enumerate(self._rows(index)):
            p = probs[b] if probs is not None else _probs_and_psi(theta, x, self.n_classes)[0]
            xx = self._outer[b] if index is None else self._outer[b][index]
            h += _weighted_hessian(x, xx, w, p)
        return h


def weighted_objective(terms: list[tuple[PatternStack, int | None, float | np.ndarray]],
                       n_classes: int) -> _Objective:
    """A weighted sum of NLL terms over grouped rows, as one objective per replication.

    Each term ``(patterns, column, weight)`` adds ``weight`` (a scalar or
    one value per replication) times the summed NLL of the patterns' rows
    under label ``column``; a ``column`` of None adds the label-free psi
    part only, which is all a Hessian needs. Since ``-eta_y`` is linear in
    theta, the labels collapse into one constant vector ``b`` per
    replication, and terms on the same patterns share one psi block. A
    term or block whose weights are zero for every replication is skipped;
    a zero weight on one replication adds exact zeros. Either way
    lambda = 0 and the lambda = 1 cancellation stay exact.
    """
    n_rep = terms[0][0].size
    psi_weights: dict[int, list] = {}
    linear = None
    for patterns, column, weight in terms:
        weight = np.broadcast_to(np.asarray(weight, dtype=float), (n_rep,))
        if not weight.any():
            continue
        entry = psi_weights.setdefault(id(patterns), [patterns, 0.0])
        entry[1] = entry[1] + weight
        if column is not None:
            counts = patterns.class_counts(column, n_classes)[:, :, 1:]
            part = weight[:, None] * np.matmul(counts.transpose(0, 2, 1),
                                               patterns.x).reshape(n_rep, -1)
            linear = part if linear is None else linear + part
    blocks = [(p.x, w[:, None] * p.x_counts) for p, w in psi_weights.values() if w.any()]
    return _Objective(blocks, linear, n_classes, n_rep)


def _mean_nll(patterns: PatternStack, n_classes: int, column: int | None = 0) -> _Objective:
    return weighted_objective([(patterns, column, 1.0 / patterns.n_rows)], n_classes)


def nll(theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int) -> float:
    """Mean negative log likelihood over labeled rows."""
    theta = np.asarray(theta, dtype=float)[None]
    return float(_mean_nll(group_labeled(x, y, n_classes), n_classes).value_and_grad(theta)[0][0])


def per_row_grads(theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-row gradients (probs - onehot(y)) (x) x, shape (n, d*(K-1)): one pattern per row."""
    x, y = _check_labeled(x, y, n_classes)
    ones = np.ones((1, len(y)), dtype=np.intp)
    stack = PatternStack(x[None], ones, np.arange(len(y))[None], y[None, :, None], ones)
    probs = class_probs(np.asarray(theta, dtype=float)[None], stack.x, n_classes)
    return stack.gradients(probs, 0, n_classes)[0]


def nll_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Gradient of nll, block layout matching theta."""
    theta = np.asarray(theta, dtype=float)[None]
    return _mean_nll(group_labeled(x, y, n_classes), n_classes).value_and_grad(theta)[1][0]


def nll_hess(theta: np.ndarray, x: np.ndarray, n_classes: int) -> np.ndarray:
    """Hessian of nll; label-free.

    Per row the (K-1, K-1) curvature is diag(p) - p p^T, and the full
    Hessian is the mean of its Kronecker product with x x^T.
    """
    theta = np.asarray(theta, dtype=float)[None]
    return _mean_nll(group_rows(x), n_classes, column=None).hess(theta)[0]


def _cholesky_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with h x = b for each slice of h (R, p, p) and b (R, p, m), by one stacked
    ``np.linalg.cholesky`` and forward then back substitution.

    Each substitution step updates whole rows elementwise, one column of the
    factor at a time, so a slice's result does not depend on the stack it is
    in. Raises ``np.linalg.LinAlgError`` when some slice is not positive definite.
    """
    low = np.linalg.cholesky(h)
    x = np.array(b, dtype=float)
    for k in range(h.shape[1]):                 # L y = b
        x[:, k] /= low[:, k, k, None]
        x[:, k + 1:] -= low[:, k + 1:, k, None] * x[:, k, None]
    for k in reversed(range(h.shape[1])):       # L^T x = y
        x[:, k] /= low[:, k, k, None]
        x[:, :k] -= low[:, k, :k, None] * x[:, k, None]
    return x


def _ridged_solve(h: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Cholesky solves of h x = b for a stack h (R, p, p), b (R, p, m).

    One ``_cholesky_solve`` over the whole stack. Only when it raises, or
    gives a non-finite result, do slices go one at a time: a slice that
    fails on its own is ridged upward from ``_RIDGE`` by powers of 100
    (12 tries in all) until its solve succeeds. Returns (x, whether each
    slice was ridged), or None when some slice failed every try.
    """
    ridged = np.zeros(h.shape[0], dtype=bool)
    try:
        x = _cholesky_solve(h, b)
        retry = np.flatnonzero(~np.isfinite(x).all(axis=(1, 2)))
    except np.linalg.LinAlgError:
        x = np.empty(b.shape)
        retry = np.arange(h.shape[0])
    for r in retry:
        candidate, reg = h[r], _RIDGE
        for _ in range(12):
            try:
                x[r] = _cholesky_solve(candidate[None], b[r, None])[0]
            except np.linalg.LinAlgError:
                x[r] = np.nan
            if np.all(np.isfinite(x[r])):
                break
            candidate = h[r] + reg * np.eye(h.shape[1])
            ridged[r] = True
            reg *= 100.0
        else:
            return None
    return x, ridged


def newton_batch(objective, theta0: np.ndarray) -> tuple[np.ndarray, list[FitDiagnostics]]:
    """Damped Newton with Armijo backtracking, one iterate per replication.

    ``objective.value_and_grad(theta, index)`` and ``objective.hess(theta,
    index)`` evaluate the replications at positions ``index`` (all when
    None). Each replication keeps its own step length, convergence test,
    iteration count, ridge retries and status, and stops being evaluated
    once it stops. Does not raise on non-convergence; the outcome is in
    the returned diagnostics. Raises NumericError when a Hessian cannot be
    solved even after ridging.
    """
    theta = np.array(theta0, dtype=float)
    n_rep, n_params = theta.shape
    value, grad = objective.value_and_grad(theta)
    prev_value = np.full(n_rep, np.inf)
    iterations = np.full(n_rep, _MAX_ITERATIONS)
    status = np.full(n_rep, "max_iterations", dtype=object)
    condition_warning = np.zeros(n_rep, dtype=bool)
    active = np.arange(n_rep)
    for it in range(1, _MAX_ITERATIONS + 1):
        done = np.abs(grad[active]).max(axis=1, initial=0.0) <= _GRAD_TOL
        status[active[done]] = "converged"
        iterations[active[done]] = it - 1
        active = active[~done]
        if not active.size:
            break
        index = None if active.size == n_rep else active
        h = objective.hess(theta[active], index)
        g = grad[active]
        solved = _ridged_solve(h, -g[:, :, None])
        if solved is None:
            raise NumericError("Hessian solve failed even after regularization")
        step, regularized = solved
        step = step[:, :, 0]
        condition_warning[active] |= regularized
        slope = _rowdot(g, step)
        uphill = slope >= 0
        if uphill.any():
            # not a descent direction (extreme ill-conditioning): fall back
            step[uphill] = -g[uphill]
            slope[uphill] = _rowdot(g[uphill], step[uphill])
        t = np.ones(active.size)
        new_theta = theta[active] + step
        new_value, new_grad = objective.value_and_grad(new_theta, index)
        pending = np.arange(active.size)
        while pending.size:
            accepted = np.isfinite(new_value[pending]) & (
                new_value[pending] <= value[active[pending]]
                + _ARMIJO_C * t[pending] * slope[pending])
            pending = pending[~accepted]
            t[pending] *= _BACKTRACK_FACTOR
            pending = pending[t[pending] >= _MIN_STEP]
            if pending.size:
                trial = theta[active[pending]] + t[pending, None] * step[pending]
                new_value[pending], new_grad[pending] = objective.value_and_grad(
                    trial, active[pending])
                new_theta[pending] = trial
        stalled = t < _MIN_STEP
        status[active[stalled]] = "stalled"
        iterations[active[stalled]] = it
        moved, keep = active[~stalled], ~stalled
        decreasing = new_value[keep] < prev_value[moved]
        prev_value[moved] = value[moved]
        theta[moved], value[moved], grad[moved] = new_theta[keep], new_value[keep], new_grad[keep]
        separated = (np.abs(theta[moved]).max(axis=1, initial=0.0) > _COEF_BOUND) \
            & decreasing
        status[moved[separated]] = "separation"
        iterations[moved[separated]] = it
        active = moved[~separated]
    gnorm = np.abs(grad).max(axis=1, initial=0.0)
    status[gnorm <= _GRAD_TOL] = "converged"
    return theta, [
        FitDiagnostics(iterations=int(iterations[r]), gradient_norm=float(gnorm[r]),
                       condition_warning=bool(condition_warning[r]), status=status[r])
        for r in range(n_rep)]


def require_classes(patterns: PatternStack, n_classes: int, rows: str = "data") -> None:
    """ShapeError ``at`` the first replication missing a class under label column 0;
    every ``fit_stack`` caller runs it first."""
    present = patterns.class_counts(0, n_classes).sum(axis=1) > 0
    for r, row in enumerate(present):
        if not row.all():
            raise ShapeError(f"classes absent from {rows}: {np.flatnonzero(~row).tolist()}").at(r)


def fit_stack(patterns: PatternStack, n_classes: int) -> tuple[np.ndarray, list[FitDiagnostics]]:
    """Maximum likelihood fit of every replication of a stack (label column 0) by one
    damped Newton from theta = 0; ``ppi.fit_classical`` is the one-dataset call.

    Callers check with ``require_classes`` that every class appears in every
    replication. Raises SeparationError when coefficients pass ``_COEF_BOUND``
    while the loss is still decreasing (complete or quasi-complete separation).
    """
    theta0 = np.zeros((patterns.size, patterns.x.shape[2] * (n_classes - 1)))
    theta, diagnostics = newton_batch(_mean_nll(patterns, n_classes), theta0)
    if any(d.status == "separation" for d in diagnostics):
        raise SeparationError(
            f"coefficient max-norm exceeded {_COEF_BOUND:g} while the "
            "loss was still decreasing; data are (quasi-)separated"
        )
    return theta, diagnostics
