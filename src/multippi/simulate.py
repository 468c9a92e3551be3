"""Synthetic multinomial data with known coefficients, label corruption, and
Monte Carlo coverage experiments.

Randomness: every stream is a numpy PCG64 generator. Replication ``r`` of an
experiment with master seed ``s`` draws from ``SeedSequence(s, spawn_key=(r,))``.

Replications are drawn one by one and fitted in chunks of ``_CHUNK``: one
``ppi.fit_estimators_many`` call fits a chunk's three estimators, each as
one stacked Newton. Every product is made per replication and every
replication is padded to the same row counts, so a replication's results,
and the report, are identical whatever the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mlogit, ppi
from .errors import MultippiError, ParameterError, ShapeError

ESTIMATORS = ("classical", "naive", "multippi")
# Replications fitted together as one stack. Run time is flat from 16 to
# 128 per stack while peak memory grows with it (docs/math.md, "Batched
# replications"); results do not depend on it.
_CHUNK = 32


@dataclass(frozen=True)
class SyntheticSpec:
    """Generating coefficients and sample sizes for one synthetic dataset."""

    theta_star: np.ndarray
    n_labeled: int
    n_unlabeled: int
    n_classes: int
    n_features: int                 # includes the intercept column
    covariate_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta_star",
                           np.asarray(self.theta_star, dtype=float))
        expected = self.n_features * (self.n_classes - 1)
        if self.theta_star.shape != (expected,):
            raise ShapeError(
                f"theta_star must have length {expected}, got {self.theta_star.shape}")
        if self.n_labeled < 1 or self.n_unlabeled < 1:
            raise ShapeError("need at least one labeled and one unlabeled row")
        if not np.all(np.isfinite(self.theta_star)):
            raise ParameterError("theta_star entries must be finite")
        if not np.isfinite(self.covariate_scale):
            raise ParameterError(f"covariate_scale must be finite, got {self.covariate_scale}")

    def to_dict(self) -> dict:
        return {
            "theta_star": [float(v) for v in self.theta_star],
            "n_labeled": self.n_labeled,
            "n_unlabeled": self.n_unlabeled,
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "covariate_scale": self.covariate_scale,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class NoiseModel:
    """Row-stochastic confusion matrix mapping true labels to predictions."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError("noise matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ParameterError("noise matrix entries must be finite")
        if (m < 0).any():
            raise ParameterError("noise matrix entries must be non-negative")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-12:
            raise ParameterError("noise matrix rows must sum to 1")

    @classmethod
    def identity(cls, n_classes: int) -> "NoiseModel":
        return cls(np.eye(n_classes))

    @classmethod
    def uniform(cls, n_classes: int) -> "NoiseModel":
        return cls(np.full((n_classes, n_classes), 1.0 / n_classes))


# Validation default for 3-class experiments: ~0.6 overall accuracy under
# DEFAULT_THETA_STAR marginals. Errors mix the two non-reference classes
# (attenuating both slope coefficients) and asymmetrically inflate the
# last class, so every naive coordinate is biased by several SEs.
ASYMMETRIC_3CLASS = NoiseModel(np.array([
    [0.84, 0.03, 0.13],
    [0.12, 0.50, 0.38],
    [0.12, 0.34, 0.54],
]))

# Default coverage configuration: K=3, d=2, n=200, N=800.
DEFAULT_THETA_STAR = np.array([0.4, 0.8, -0.3, -0.8])


def default_spec(seed: int = 0, n_labeled: int = 200, n_unlabeled: int = 800) -> SyntheticSpec:
    return SyntheticSpec(theta_star=DEFAULT_THETA_STAR.copy(), n_labeled=n_labeled,
                         n_unlabeled=n_unlabeled, n_classes=3, n_features=2, seed=seed)


@dataclass(frozen=True)
class SyntheticData:
    """Generated rows; unlabeled truth is retained for coverage scoring."""

    x_labeled: np.ndarray
    y_labeled: np.ndarray
    x_unlabeled: np.ndarray
    y_unlabeled: np.ndarray


def _sample_classes(probs_nonref: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw class indices given non-reference probabilities (n, K-1)."""
    full = np.column_stack([1.0 - probs_nonref.sum(axis=1), probs_nonref])
    cum = np.cumsum(full, axis=1)
    u = rng.random(full.shape[0])
    return (u[:, None] > cum[:, :-1]).sum(axis=1).astype(np.int64)


def generate(spec: SyntheticSpec, rng: np.random.Generator | None = None) -> SyntheticData:
    """Sample covariates and labels from the generating model.

    Covariates are an intercept column plus standard normals scaled by
    ``spec.covariate_scale``; labels follow the multinomial logistic
    probabilities at ``spec.theta_star``.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    total = spec.n_labeled + spec.n_unlabeled
    x = np.column_stack([
        np.ones(total),
        spec.covariate_scale * rng.standard_normal((total, spec.n_features - 1)),
    ])
    probs = mlogit.class_probs(spec.theta_star, x, spec.n_classes)
    y = _sample_classes(probs, rng)
    n = spec.n_labeled
    return SyntheticData(x_labeled=x[:n], y_labeled=y[:n],
                         x_unlabeled=x[n:], y_unlabeled=y[n:])


def corrupt(labels: np.ndarray, noise: NoiseModel,
            seed: int | np.random.Generator = 0) -> np.ndarray:
    """Resample each label independently from its confusion-matrix row."""
    rng = seed if isinstance(seed, np.random.Generator) else \
        np.random.default_rng(np.random.SeedSequence(seed))
    labels = np.asarray(labels)
    k = noise.matrix.shape[0]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ShapeError(f"labels outside [0, {k})")
    cum = np.cumsum(noise.matrix, axis=1)
    u = rng.random(labels.shape[0])
    return (u[:, None] > cum[labels][:, :-1]).sum(axis=1).astype(np.int64)


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated Monte Carlo coverage, widths, and lambda behavior."""

    spec: SyntheticSpec
    noise: NoiseModel
    replications: int
    alpha: float
    lambda_mode: float | str
    coverage: dict                  # tag -> per-coordinate coverage
    coverage_se: dict               # tag -> per-coordinate binomial SE
    mean_width: dict
    median_width: dict
    median_width_overall: dict      # tag -> single pooled median
    lambda_mean: float
    lambda_sd: float
    lambda_raw_mean: float
    lambda_values: np.ndarray
    failures: int
    failure_details: tuple[str, ...] = ()
    fit_status: dict = field(default_factory=dict)   # tag -> status -> count
    pilot_fallbacks: int = 0
    replication_rows: tuple = ()

    def to_dict(self) -> dict:
        return {
            "format": "multippi-coverage-report",
            "version": 2,
            "spec": self.spec.to_dict(),
            "noise_matrix": [[float(v) for v in row] for row in self.noise.matrix],
            "replications": self.replications,
            "alpha": self.alpha,
            "lambda_mode": self.lambda_mode if isinstance(self.lambda_mode, str)
            else float(self.lambda_mode),
            "estimators": {
                tag: {
                    "coverage": [float(v) for v in self.coverage[tag]],
                    "coverage_se": [float(v) for v in self.coverage_se[tag]],
                    "mean_width": [float(v) for v in self.mean_width[tag]],
                    "median_width": [float(v) for v in self.median_width[tag]],
                    "median_width_overall": float(self.median_width_overall[tag]),
                    "fit_status": dict(self.fit_status[tag]),
                }
                for tag in ESTIMATORS
            },
            "lambda": {
                "mean": float(self.lambda_mean),
                "sd": float(self.lambda_sd),
                "raw_mean": float(self.lambda_raw_mean),
            },
            "failures": self.failures,
            "failure_rate": self.failures / self.replications,
            "failure_details": list(self.failure_details),
            "pilot_fallbacks": self.pilot_fallbacks,
        }

    def csv_rows(self) -> list[dict]:
        out = []
        for tag in ESTIMATORS:
            for j in range(len(self.coverage[tag])):
                out.append({
                    "estimator": tag,
                    "coordinate": j,
                    "coverage": float(self.coverage[tag][j]),
                    "coverage_se": float(self.coverage_se[tag][j]),
                    "mean_width": float(self.mean_width[tag][j]),
                    "median_width": float(self.median_width[tag][j]),
                })
        return out


def _draw(spec: SyntheticSpec, noise: NoiseModel, rep: int) -> ppi.PpiInputs:
    """Replication ``rep``'s labeled rows and predicted labels, from its own stream."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep,)))
    data = generate(spec, rng)
    return ppi.PpiInputs(data.x_labeled, data.y_labeled, corrupt(data.y_labeled, noise, rng),
                         data.x_unlabeled, corrupt(data.y_unlabeled, noise, rng),
                         spec.n_classes)


def fit_replications(spec: SyntheticSpec, noise: NoiseModel, alpha: float,
                     lambda_mode: float | str, reps: range) -> list[dict]:
    """Draw and fit replications ``reps`` together; one dict per replication.

    Each dict has ``rep`` and either the ``classical``, ``naive`` and
    ``multippi`` reports or, for a replication whose fits raised, an
    ``error`` line naming the first error in that order, as a separate
    fit of that replication alone would raise it.
    """
    fitted = ppi.fit_estimators_many([_draw(spec, noise, rep) for rep in reps],
                                     lambda_mode, alpha)
    out = []
    for rep, result in zip(reps, fitted):
        if isinstance(result, MultippiError):
            out.append({"rep": rep, "error": f"rep {rep}: {type(result).__name__}: {result}"})
        else:
            out.append({"rep": rep, **result})
    return out


def coverage_experiment(spec: SyntheticSpec, noise: NoiseModel, reps: int,
                        alpha: float = 0.05, lambda_mode: float | str = "tuned",
                        keep_replications: bool = False) -> CoverageReport:
    """Monte Carlo check of CI coverage for all three estimators.

    Per replication: generate, corrupt predictions on every row, hide the
    unlabeled truth, fit classical / naive / multippi, and score each
    coordinate's interval against theta_star. Failed replications are
    excluded and counted; the fit statuses and pilot fallbacks of the
    others are tallied.
    """
    if reps < 100:
        raise ParameterError(f"need at least 100 replications, got {reps}")
    if noise.matrix.shape[0] != spec.n_classes:
        raise ShapeError("noise matrix size must match the class count")
    ppi.z_quantile(alpha)           # rejects a bad alpha or lambda before any replication runs
    if lambda_mode != "tuned":
        ppi._check_lambda(lambda_mode)
    results = []
    for start in range(0, reps, _CHUNK):
        results += fit_replications(spec, noise, alpha, lambda_mode,
                                    range(start, min(start + _CHUNK, reps)))

    covered = {tag: [] for tag in ESTIMATORS}
    widths = {tag: [] for tag in ESTIMATORS}
    statuses = {tag: dict.fromkeys(mlogit.FIT_STATUSES, 0) for tag in ESTIMATORS}
    lam_values, lam_raw = [], []
    failures = []
    fallbacks = 0
    rep_rows = []
    for res in results:
        if "error" in res:
            failures.append(res["error"])
            continue
        for tag in ESTIMATORS:
            report = res[tag]
            covered[tag].append((report.ci_lower <= spec.theta_star)
                                & (spec.theta_star <= report.ci_upper))
            widths[tag].append(report.ci_upper - report.ci_lower)
            statuses[tag][report.diagnostics.status] += 1
        mp = res["multippi"]
        lam_values.append(mp.lambda_choice.clipped)
        lam_raw.append(mp.lambda_choice.raw)
        fallbacks += mp.lambda_choice.pilot_fallback
        if keep_replications:
            row = {"rep": res["rep"], "lambda": mp.lambda_choice.clipped}
            for tag in ESTIMATORS:
                row[f"{tag}_theta"] = res[tag].theta.tolist()
                row[f"{tag}_width"] = (res[tag].ci_upper - res[tag].ci_lower).tolist()
            rep_rows.append(row)
    used = len(lam_values)
    if used == 0:
        raise MultippiError("every replication failed; see failure details")
    coverage, coverage_se, mean_w, median_w, median_overall = {}, {}, {}, {}, {}
    for tag in ESTIMATORS:
        cov = np.mean(covered[tag], axis=0)
        coverage[tag] = cov
        coverage_se[tag] = np.sqrt(cov * (1 - cov) / used)
        w = np.asarray(widths[tag])
        mean_w[tag] = w.mean(axis=0)
        median_w[tag] = np.median(w, axis=0)
        median_overall[tag] = float(np.median(w))
    lam_values = np.asarray(lam_values)
    return CoverageReport(
        spec=spec, noise=noise, replications=reps, alpha=alpha,
        lambda_mode=lambda_mode, coverage=coverage, coverage_se=coverage_se,
        mean_width=mean_w, median_width=median_w,
        median_width_overall=median_overall,
        lambda_mean=float(lam_values.mean()), lambda_sd=float(lam_values.std()),
        lambda_raw_mean=float(np.mean(lam_raw)), lambda_values=lam_values,
        failures=len(failures), failure_details=tuple(failures),
        fit_status=statuses, pilot_fallbacks=fallbacks,
        replication_rows=tuple(rep_rows))
