"""Leave-one-site-out evaluation: train predictors off-site, score them on the
held-out site, and compare ground-truth, naive, and rectified inference.

The inferential model regresses cause class on an intercept plus
z-standardized age; standardization constants are pooled over the full
set of analyzed site rows so all three estimators consume bit-identical
design matrices. The labeled subset is drawn from the held-out site
only (recorded in every report's metadata).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import ppi, textpred
from .errors import MultippiError, ParameterError, ShapeError
from .ingest import (CAUSE_CLASSES, CLASS_OF_CODE, NO_CAUSE, CodClass, DataSplit,
                     RecordTable, SplitSpec, split)
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
    weighting: str | None = None            # default: count for nb, tfidf otherwise
    external_path: str | None = None
    external_name: str = "external"
    unclassified_policy: str = "drop"

    def __post_init__(self):
        if self.kind not in ("nb", "knn", "svm", "external"):
            raise ParameterError(f"unknown predictor kind {self.kind!r}")
        if self.kind == "external" and not self.external_path:
            raise ParameterError("external predictor needs external_path")

    def effective_weighting(self) -> str:
        if self.weighting is not None:
            return self.weighting
        return "count" if self.kind == "nb" else "tfidf"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "nb_alpha": self.nb_alpha, "knn_k": self.knn_k,
            "svm_c": self.svm_c, "svm_epochs": self.svm_epochs,
            "svm_seed": self.svm_seed, "min_count": self.min_count,
            "weighting": self.effective_weighting(),
            "external_path": self.external_path,
            "unclassified_policy": self.unclassified_policy,
        }


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


def train_predictor(corpus: textpred.Corpus, labels: list[CodClass], spec: PredictorSpec,
                    rows: np.ndarray | None = None):
    """Build the vocabulary on the training rows of a tokenized corpus, and train.

    ``rows`` (default: all) are the training documents, aligned with
    ``labels``.
    """
    vocab = textpred.build_vocabulary(corpus, min_count=spec.min_count, rows=rows)
    weighting = spec.effective_weighting()
    vectors = textpred.vectorize_corpus(corpus, vocab, weighting, rows)
    if spec.kind == "nb":
        return textpred.train_nb(vectors, labels, alpha=spec.nb_alpha,
                                 vocabulary=vocab, weighting=weighting)
    if spec.kind == "knn":
        return textpred.train_knn(vectors, labels, k=spec.knn_k,
                                  vocabulary=vocab, weighting=weighting)
    return textpred.train_svm_ovr(vectors, labels, c=spec.svm_c,
                                  epochs=spec.svm_epochs, seed=spec.svm_seed,
                                  vocabulary=vocab, weighting=weighting)


def _site_seed(master_seed: int, site_index: int) -> int:
    return int(np.random.SeedSequence(master_seed, spawn_key=(site_index,))
               .generate_state(1)[0])


def evaluate_site(site_records: RecordTable, predictions: PredictionSet,
                  inference_spec: InferenceSpec, split_seed: int,
                  site: str, provenance: str) -> SiteReport:
    """Metrics and the three-estimator comparison for one site's predictions."""
    report = SiteReport(site=site, provenance=provenance)
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

    data_split = split(usable, SplitSpec(strategy=inference_spec.split_strategy,
                                         labeled_fraction=inference_spec.labeled_fraction,
                                         seed=split_seed))
    report.split = data_split
    design, yhat = build_design(usable, inference_spec.reference_class,
                                predictions.codes[predicted])
    k = design.n_classes
    meta = {
        "class_names": tuple(c.value for c in design.classes),
        "covariate_names": design.covariate_names,
        "standardization": design.standardization,
    }
    lab, unl = data_split.labeled, data_split.unlabeled
    labeled_classes = set(design.y[lab].tolist())
    if len(labeled_classes) < k:
        report.degeneracy_flag = True
        missing = [design.classes[i].value for i in range(k) if i not in labeled_classes]
        report.metadata["labeled_split_missing_classes"] = missing

    try:
        report.reports["ground-truth"] = ppi.fit_classical(
            design.x, design.y, k, inference_spec.alpha,
            estimator="ground-truth", **meta)
    except MultippiError as exc:
        report.errors["ground-truth"] = f"{type(exc).__name__}: {exc}"
    inputs = ppi.PpiInputs(design.x[lab], design.y[lab], yhat[lab], design.x[unl], yhat[unl], k)
    try:
        report.reports["naive"] = ppi.fit_naive(inputs, inference_spec.alpha, **meta)
    except MultippiError as exc:
        report.errors["naive"] = f"{type(exc).__name__}: {exc}"
    try:
        report.reports["multippi"] = ppi.fit_multippi_report(
            inputs, inference_spec.lambda_mode, inference_spec.alpha, **meta)
    except MultippiError as exc:
        report.errors["multippi"] = f"{type(exc).__name__}: {exc}"
    return report


def run_loso(records: RecordTable, predictor_spec: PredictorSpec,
             inference_spec: InferenceSpec, sites: list[str] | None = None,
             threads: int = 1) -> list[SiteReport]:
    """Leave-one-site-out transportability experiment.

    For each site, the predictor trains on every other site's narratives
    (or external predictions are aligned by record id), predicts the
    held-out site, and the site's records are split into a labeled
    subset (true causes retained) and an unlabeled remainder carrying
    only predictions.
    """
    if (records.causes == NO_CAUSE).any():
        raise ShapeError("run_loso needs true causes on every record")
    all_sites = sorted(set(records.sites.tolist()))
    if len(all_sites) < 2:
        raise ShapeError(f"need at least 2 sites, got {all_sites}")
    chosen = all_sites if sites is None else [s for s in all_sites if s in set(sites)]
    if sites is not None and not chosen:
        raise ParameterError(f"no requested site among {all_sites}")

    external_set = None
    if predictor_spec.kind == "external":
        external_set = textpred.load_external_predictions(
            predictor_spec.external_path, predictor_spec.unclassified_policy, records,
            majority_class=majority_true_cause(records), name=predictor_spec.external_name)
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
            labels = CLASS_OF_CODE[records.causes[train_rows]].tolist()
            try:
                model = train_predictor(corpus, labels, predictor_spec, train_rows)
            except MultippiError as exc:
                report = SiteReport(site=site, provenance=predictor_spec.kind)
                report.errors["training"] = f"{type(exc).__name__}: {exc}"
                return report
            predictions = textpred.predict_all(model, site_records, corpus, site_rows)
        return evaluate_site(site_records, predictions, inference_spec,
                             split_seed, site, predictions.provenance)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run_site, chosen))
    return [run_site(site) for site in chosen]


def majority_true_cause(records: RecordTable) -> CodClass:
    """The most frequent true cause; ties go to the earlier class."""
    counts = np.bincount(records.causes[records.causes != NO_CAUSE],
                         minlength=len(CAUSE_CLASSES))
    return CAUSE_CLASSES[int(np.argmax(counts))]
