"""Leave-one-site-out evaluation: train predictors off-site, score them on the
held-out site, and compare ground-truth, naive, and rectified inference.

The inferential model regresses cause class on an intercept plus
z-standardized age; standardization constants are pooled over the full
set of analyzed site rows so all three estimators consume bit-identical
design matrices. The labeled subset is drawn from the held-out site
only (recorded in every report's metadata).
``fit_reports`` is the split -> design -> fit step that ``loso`` runs per
site and ``infer`` once, whichever predictor made the labels.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import ppi, textpred
from .errors import MultippiError, ParameterError, ShapeError
from .ingest import (CAUSE_CLASSES, NO_CAUSE, CodClass, DataSplit, RecordTable, SplitSpec,
                     split)
from .textpred import PredictionSet

LABELED_SUBSET_SOURCE = "held-out site only"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Integer counts, rows = truth, columns = prediction, fixed class order."""

    counts: np.ndarray
    classes: tuple[CodClass, ...]

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        k = len(self.classes)
        if c.shape != (k, k):
            raise ShapeError(f"confusion matrix must be {k}x{k}, got {c.shape}")
        if (c < 0).any():
            raise ShapeError("confusion matrix entries must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def degenerate_classes(self) -> list[CodClass]:
        """Classes with zero true and zero predicted instances."""
        empty = (self.counts.sum(axis=1) == 0) & (self.counts.sum(axis=0) == 0)
        return [c for c, e in zip(self.classes, empty) if e]

    def to_dict(self) -> dict:
        return {
            "classes": [c.value for c in self.classes],
            "counts": self.counts.tolist(),
        }

    def csv_rows(self) -> list[dict]:
        rows = []
        for i, true_class in enumerate(self.classes):
            row = {"true_class": true_class.value}
            for j, pred_class in enumerate(self.classes):
                row[f"pred_{pred_class.value}"] = int(self.counts[i, j])
            rows.append(row)
        return rows


def confusion_matrix(true: np.ndarray, predicted: np.ndarray,
                     classes: tuple[CodClass, ...] = CAUSE_CLASSES) -> ConfusionMatrix:
    """Counts of (true, predicted) label pairs; labels are indices into ``classes``."""
    true = np.asarray(true, dtype=np.intp)
    predicted = np.asarray(predicted, dtype=np.intp)
    if true.shape != predicted.shape:
        raise ShapeError("true and predicted label arrays must align")
    k = len(classes)
    if true.size and not (0 <= min(true.min(), predicted.min())
                          and max(true.max(), predicted.max()) < k):
        raise ShapeError(f"labels must be class indices in [0, {k})")
    counts = np.bincount(true * k + predicted, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(counts=counts, classes=classes)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ParameterError("cannot compute accuracy of an empty confusion matrix")
    return float(np.trace(cm.counts) / cm.total)


def per_class_f1(cm: ConfusionMatrix) -> np.ndarray:
    """Per-class F1 with the 0-when-undefined convention."""
    tp = np.diag(cm.counts).astype(float)
    fp = cm.counts.sum(axis=0) - tp
    fn = cm.counts.sum(axis=1) - tp
    precision = np.divide(tp, tp + fp, out=np.zeros_like(tp), where=(tp + fp) > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros_like(tp), where=(tp + fn) > 0)
    pr = precision + recall
    return np.divide(2 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)


def macro_f1(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ParameterError("cannot compute F1 of an empty confusion matrix")
    return float(per_class_f1(cm).mean())


@dataclass(frozen=True)
class PredictorSpec:
    """Which predictor to run and its hyperparameters."""

    kind: str                               # nb | knn | svm | external
    nb_alpha: float = 1.0
    knn_k: int = 9
    svm_c: float = 1.0
    svm_epochs: int = 60
    svm_seed: int = 0
    min_count: int = 1
    external_path: str | None = None
    unclassified_policy: str = "drop"

    def __post_init__(self):
        # a bad setting fails here, before any record loads or any site trains
        if self.kind not in ("nb", "knn", "svm", "external"):
            raise ParameterError(f"unknown predictor kind {self.kind!r}")
        if self.kind == "external" and not self.external_path:
            raise ParameterError("external predictor needs external_path")
        for name in ("nb_alpha", "svm_c"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ParameterError(f"{name} must be finite and positive, got {value}")
        for name in ("svm_epochs", "knn_k", "min_count"):
            value = getattr(self, name)
            if value < 1:
                raise ParameterError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class InferenceSpec:
    """Split, estimator, and reporting options shared across sites."""

    labeled_fraction: float = 0.2
    split_strategy: str = "full-random"
    alpha: float = 0.05
    lambda_mode: float | str = "tuned"
    reference_class: CodClass = CodClass.NON_COMMUNICABLE
    seed: int = 0

    def __post_init__(self):
        # a bad option fails here, before any site trains or fits
        ppi.z_quantile(self.alpha)
        if self.lambda_mode != "tuned":
            ppi._check_lambda(self.lambda_mode)
        SplitSpec(strategy=self.split_strategy, labeled_fraction=self.labeled_fraction)

    def to_dict(self) -> dict:
        return {
            "labeled_fraction": self.labeled_fraction,
            "split_strategy": self.split_strategy,
            "alpha": self.alpha,
            "lambda_mode": self.lambda_mode if isinstance(self.lambda_mode, str)
            else float(self.lambda_mode),
            "reference_class": self.reference_class.value,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Design:
    """Shared numeric design: intercept + z-scored age (+ labels as indices)."""

    x: np.ndarray
    y: np.ndarray
    classes: tuple[CodClass, ...]           # reference class first
    covariate_names: tuple[str, ...]
    standardization: dict

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def class_order(present: set[CodClass], reference: CodClass) -> tuple[CodClass, ...]:
    """Reference first, remaining classes in enumeration order."""
    if reference not in present:
        raise ShapeError(f"reference class {reference.value!r} absent from the data")
    return (reference,) + tuple(c for c in CAUSE_CLASSES if c in present and c != reference)


def build_design(records: RecordTable, reference_class: CodClass,
                 predicted: np.ndarray | None = None) -> tuple[Design, np.ndarray]:
    """Design matrix, true labels, and (optionally) predicted labels.

    ``predicted`` holds a cause code per record. Age is z-standardized
    with moments pooled over all given records; the class set is every
    class seen among true or predicted labels.
    """
    if (records.causes == NO_CAUSE).any():
        raise ShapeError("every record needs a true cause to build the design")
    ages = records.ages
    mean = float(ages.mean())
    sd = float(ages.std())
    if sd == 0.0:
        sd = 1.0
    x = np.column_stack([np.ones(len(records)), (ages - mean) / sd])
    seen = np.bincount(records.causes, minlength=len(CAUSE_CLASSES)) > 0
    if predicted is not None:
        seen |= np.bincount(predicted, minlength=len(CAUSE_CLASSES)) > 0
    classes = class_order({c for c, s in zip(CAUSE_CLASSES, seen) if s}, reference_class)
    position = np.zeros(len(CAUSE_CLASSES), dtype=np.int64)
    position[[CAUSE_CLASSES.index(c) for c in classes]] = np.arange(len(classes))
    yhat = None if predicted is None else position[predicted]
    design = Design(x=x, y=position[records.causes], classes=classes,
                    covariate_names=("intercept", "age_z"),
                    standardization={"age": {"mean": mean, "sd": sd}})
    return design, yhat


@dataclass
class SiteReport:
    """Everything produced for one held-out site."""

    site: str
    provenance: str
    confusion: ConfusionMatrix | None = None
    accuracy: float | None = None
    macro_f1: float | None = None
    reports: dict[str, ppi.InferenceReport] = field(default_factory=dict)
    split: DataSplit | None = None
    dropped_unclassified: tuple[str, ...] = ()
    degeneracy_flag: bool = False
    degenerate_classes: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format": "multippi-site-report",
            "version": 1,
            "site": self.site,
            "provenance": self.provenance,
            "confusion": self.confusion.to_dict() if self.confusion else None,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "reports": {tag: rep.to_dict() for tag, rep in self.reports.items()},
            "split": self.split.to_dict() if self.split else None,
            "dropped_unclassified": list(self.dropped_unclassified),
            "degeneracy_flag": self.degeneracy_flag,
            "degenerate_classes": self.degenerate_classes,
            "errors": dict(sorted(self.errors.items())),
            "metadata": self.metadata,
        }

    def combined_csv_rows(self) -> list[dict]:
        rows = []
        for tag in ("ground-truth", "naive", "multippi"):
            report = self.reports.get(tag)
            if report is None:
                continue
            for row in report.csv_rows():
                row = {"site": self.site, "provenance": self.provenance, **row}
                rows.append(row)
        return rows


def train_predictor(corpus: textpred.Corpus, labels: np.ndarray, spec: PredictorSpec,
                    rows: np.ndarray | None = None):
    """Build the vocabulary on the training rows of a tokenized corpus, and train.

    ``rows`` (default: all) are the training documents and ``labels`` their
    cause codes; they are vectorized with the chosen model class's ``weighting``.
    """
    vocab = textpred.build_vocabulary(corpus, min_count=spec.min_count, rows=rows)
    model_class = {"nb": textpred.NbModel, "knn": textpred.KnnModel,
                   "svm": textpred.SvmModel}[spec.kind]
    vectors = textpred.vectorize_corpus(corpus, vocab, model_class.weighting, rows)
    if spec.kind == "nb":
        return textpred.train_nb(vectors, labels, alpha=spec.nb_alpha, vocabulary=vocab)
    if spec.kind == "knn":
        return textpred.train_knn(vectors, labels, k=spec.knn_k, vocabulary=vocab)
    return textpred.train_svm_ovr(vectors, labels, c=spec.svm_c, epochs=spec.svm_epochs,
                                  seed=spec.svm_seed, vocabulary=vocab)


def _site_seed(master_seed: int, site_index: int) -> int:
    return int(np.random.SeedSequence(master_seed, spawn_key=(site_index,))
               .generate_state(1)[0])


def fit_reports(usable: RecordTable, predicted: np.ndarray, inference_spec: InferenceSpec,
                split_seed: int) -> tuple[DataSplit, Design, dict]:
    """Split ``usable`` records (``predicted``: a cause code each), build their
    design, and fit ground truth and, in one ``ppi.fit_estimators_many`` call,
    classical, naive and multippi. Returns the split, the design and, per tag
    in that order, the report, labeled with the design's class and covariate
    names, or the error its fit raised.
    """
    data_split = split(usable, SplitSpec(strategy=inference_spec.split_strategy,
                                         labeled_fraction=inference_spec.labeled_fraction,
                                         seed=split_seed))
    design, yhat = build_design(usable, inference_spec.reference_class, predicted)
    k, alpha = design.n_classes, inference_spec.alpha
    try:
        ground_truth = ppi.fit_classical(design.x, design.y, k, alpha, estimator="ground-truth")
    except MultippiError as exc:
        ground_truth = exc
    lab, unl = data_split.labeled, data_split.unlabeled
    inputs = ppi.PpiInputs(design.x[lab], design.y[lab], yhat[lab], design.x[unl], yhat[unl], k)
    (fitted,) = ppi.fit_estimators_many([inputs], inference_spec.lambda_mode, alpha)
    labels = {"class_names": tuple(c.value for c in design.classes),
              "covariate_names": design.covariate_names,
              "standardization": design.standardization}
    return data_split, design, {
        tag: fit if isinstance(fit, MultippiError) else replace(fit, **labels)
        for tag, fit in {"ground-truth": ground_truth, **fitted}.items()}


def evaluate_site(site_records: RecordTable, predictions: PredictionSet,
                  inference_spec: InferenceSpec, split_seed: int, site: str) -> SiteReport:
    """Metrics and the ground-truth, naive and multippi fits for one site's predictions;
    a fit that raises is recorded under its tag in ``errors``."""
    report = SiteReport(site=site, provenance=predictions.provenance)
    report.metadata = {
        "labeled_subset_source": LABELED_SUBSET_SOURCE,
        "inference": inference_spec.to_dict(),
        "split_seed": split_seed,
    }
    predicted = predictions.codes != NO_CAUSE
    usable = site_records.take(np.flatnonzero(predicted))
    report.dropped_unclassified = predictions.dropped
    if len(usable) < 2:
        report.errors["site"] = f"only {len(usable)} usable record(s) after prediction alignment"
        return report
    cm = confusion_matrix(usable.causes, predictions.codes[predicted])
    report.confusion = cm
    report.accuracy = accuracy(cm)
    report.macro_f1 = macro_f1(cm)
    report.degenerate_classes = [c.value for c in cm.degenerate_classes()]

    report.split, design, fits = fit_reports(usable, predictions.codes[predicted],
                                             inference_spec, split_seed)
    labeled_classes = set(design.y[report.split.labeled].tolist())
    missing = [c.value for i, c in enumerate(design.classes) if i not in labeled_classes]
    if missing:
        report.degeneracy_flag = True
        report.metadata["labeled_split_missing_classes"] = missing
    for tag in ("ground-truth", "naive", "multippi"):
        if isinstance(fits[tag], MultippiError):
            report.errors[tag] = f"{type(fits[tag]).__name__}: {fits[tag]}"
        else:
            report.reports[tag] = fits[tag]
    return report


def loso_sites(records: RecordTable, sites: list[str] | None = None) -> list[str]:
    """The sites ``run_loso`` holds out, sorted: ``sites`` (default: all), each one known."""
    all_sites = sorted(set(records.sites.tolist()))
    if len(all_sites) < 2:
        raise ShapeError(f"need at least 2 sites, got {all_sites}")
    if sites is None:
        return all_sites
    unknown = sorted(set(sites) - set(all_sites))
    if unknown:
        raise ParameterError(f"unknown site(s) {unknown}; the records hold {all_sites}")
    return [s for s in all_sites if s in set(sites)]


def run_loso(records: RecordTable, predictor_spec: PredictorSpec,
             inference_spec: InferenceSpec, sites: list[str] | None = None,
             threads: int = 1) -> list[SiteReport]:
    """Leave-one-site-out transportability experiment.

    For each site, the predictor trains on every other site's narratives
    (or external predictions are aligned by record id), predicts the
    held-out site, and the site's records are split into a labeled
    subset (true causes retained) and an unlabeled remainder carrying
    only predictions. Sites run on a pool of ``threads`` threads (at least 1).
    """
    if threads < 1:
        raise ParameterError(f"threads must be at least 1, got {threads}")
    if (records.causes == NO_CAUSE).any():
        raise ShapeError("run_loso needs true causes on every record")
    all_sites = loso_sites(records)
    chosen = loso_sites(records, sites)

    external_set = None
    if predictor_spec.kind == "external":
        external_set = textpred.load_external_predictions(
            predictor_spec.external_path, predictor_spec.unclassified_policy, records)
    else:
        # tokenized once: every site trains and predicts on rows of this corpus
        corpus = textpred.tokenize_corpus(records.narratives.tolist())

    def run_site(site: str) -> SiteReport:
        site_rows = np.flatnonzero(records.sites == site)
        site_records = records.take(site_rows)
        split_seed = _site_seed(inference_spec.seed, all_sites.index(site))
        if external_set is not None:
            predictions = external_set.take(site_rows, site_records.ids)
        else:
            train_rows = np.flatnonzero(records.sites != site)
            try:
                model = train_predictor(corpus, records.causes[train_rows], predictor_spec,
                                        train_rows)
            except MultippiError as exc:
                report = SiteReport(site=site, provenance=predictor_spec.kind)
                report.errors["training"] = f"{type(exc).__name__}: {exc}"
                return report
            predictions = textpred.predict_all(model, corpus, site_rows)
        return evaluate_site(site_records, predictions, inference_spec, split_seed, site)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_site, chosen))
