"""Bag-of-words cause-of-death predictors and external prediction ingestion.

Tokenization lowercases and splits on whitespace/punctuation, keeping
decimal numbers intact. A corpus is tokenized once (``tokenize_corpus``)
into global token ids and one CSR count matrix, rows = documents. A
vocabulary is built from any subset of those rows, and
``vectorize_corpus`` maps rows onto it as a CSR matrix with sorted
column indices: token counts, or tf-idf with the smoothed weight
``tf * (ln((1+D)/(1+df)) + 1)``. CSR is the only sparse type; the three
bundled classifiers (multinomial Naive Bayes, cosine KNN, linear
one-vs-rest SVM) train and predict on CSR rows. They are deterministic
given their training data, hyperparameters, and seed; ties always break
by the CodClass enumeration order.

KNN scores query rows in blocks sized from the training row count so
that one float64 (block x training rows) similarity block stays near
``_KNN_BLOCK_BYTES`` (2 MiB, about 40 rows at 6,500 training rows). A
block's product, similarities and argpartition indices are then about
2 MiB each; 256-row blocks made each about 13 MB and were slower. Each
row's top k comes from one argpartition; only rows where more than k
columns reach the k-th value run the lower-index tie-break.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np
import scipy.sparse

from .errors import (AlignmentError, DegenerateModelError, ParameterError,
                     PredictionFormatError)
from .ingest import CAUSE_CLASSES, NO_CAUSE, VALUE_OF_CODE, CodClass, RecordTable

_TOKEN_RE = re.compile(r"\d+\.\d+|[^\W_]+", re.UNICODE)

UNCLASSIFIED_POLICIES = ("drop", "impute-majority", "keep-as-error")

_SVM_BATCH = 256        # training rows per SVM mini-batch step
_KNN_BLOCK_BYTES = 2 << 20     # target size of one float64 KNN similarity block


def tokenize(text: str) -> list[str]:
    """Lowercased tokens; punctuation-only fragments never survive."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True, eq=False)
class Corpus:
    """Documents tokenized once against one global token table.

    ``tokens[g]`` is the text of global token id ``g`` (first occurrence
    first). Document ``d``'s ids, in text order, are
    ``ids[offsets[d]:offsets[d + 1]]``; ``counts`` holds its integer token
    counts with sorted column indices.
    """

    tokens: tuple[str, ...]
    ids: np.ndarray
    offsets: np.ndarray
    counts: scipy.sparse.csr_matrix

    @property
    def n_docs(self) -> int:
        return len(self.offsets) - 1

    @classmethod
    def from_tokens(cls, docs: list[list[str]]) -> "Corpus":
        table: dict[str, int] = {}
        ids = np.fromiter((table.setdefault(tok, len(table)) for doc in docs for tok in doc),
                          dtype=np.int64)
        offsets = np.zeros(len(docs) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(doc) for doc in docs])
        counts = scipy.sparse.csr_matrix((np.ones(ids.size), ids, offsets),
                                         shape=(len(docs), len(table)))
        counts.sum_duplicates()
        return cls(tokens=tuple(table), ids=ids, offsets=offsets, counts=counts)

    def row_ids(self, rows: np.ndarray | None) -> np.ndarray:
        """The given document rows as an index array; None means all of them."""
        return np.arange(self.n_docs) if rows is None else np.asarray(rows, dtype=np.int64)


def tokenize_corpus(texts: list[str]) -> Corpus:
    return Corpus.from_tokens([tokenize(text) for text in texts])


@dataclass(frozen=True)
class Vocabulary:
    """Dense token index in first-occurrence order, with document frequencies."""

    index: dict[str, int]
    doc_freq: np.ndarray
    n_docs: int
    total_tokens_raw: int
    total_tokens_kept: int

    @property
    def size(self) -> int:
        return len(self.index)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "doc_freq": [int(v) for v in self.doc_freq],
            "n_docs": self.n_docs,
            "total_tokens_raw": self.total_tokens_raw,
            "total_tokens_kept": self.total_tokens_kept,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        return cls(index=dict(data["index"]),
                   doc_freq=np.asarray(data["doc_freq"], dtype=np.int64),
                   n_docs=int(data["n_docs"]),
                   total_tokens_raw=int(data["total_tokens_raw"]),
                   total_tokens_kept=int(data["total_tokens_kept"]))


def build_vocabulary(corpus: Corpus, min_count: int = 1,
                     rows: np.ndarray | None = None) -> Vocabulary:
    """Index tokens of the given rows with frequency >= min_count, first occurrence first.

    Frequencies, first occurrences and document frequencies count only
    the given rows (default: all), in the order given.
    """
    rows = corpus.row_ids(rows)
    if rows.size == 0:
        raise ParameterError("cannot build a vocabulary from an empty corpus")
    starts = corpus.offsets[rows]
    lengths = corpus.offsets[rows + 1] - starts
    ids = corpus.ids[np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
                     + np.arange(lengths.sum())]
    counts = np.bincount(ids, minlength=len(corpus.tokens))
    first = np.full(len(corpus.tokens), ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))     # first position of each token
    token_ids = np.flatnonzero((counts > 0) & (counts >= min_count))
    if not token_ids.size:
        raise ParameterError(
            f"vocabulary is empty after filtering at min_count={min_count}")
    token_ids = token_ids[np.argsort(first[token_ids])]
    doc_freq = np.bincount(corpus.counts[rows].indices, minlength=len(corpus.tokens))
    return Vocabulary(index={corpus.tokens[g]: i for i, g in enumerate(token_ids.tolist())},
                      doc_freq=doc_freq[token_ids], n_docs=int(rows.size),
                      total_tokens_raw=int(ids.size),
                      total_tokens_kept=int(counts[token_ids].sum()))


def vectorize_corpus(corpus: Corpus, vocab: Vocabulary, weighting: str = "count",
                     rows: np.ndarray | None = None) -> scipy.sparse.csr_matrix:
    """The given rows (default: all) as counts or smoothed tf-idf over the vocabulary.

    Out-of-vocabulary tokens are dropped and column indices are sorted.
    The tf-idf weight is ``tf * (ln((1 + D) / (1 + df)) + 1)``: a token
    present in every document contributes ln(1) = 0 through the log part.
    """
    if weighting not in ("count", "tfidf"):
        raise ParameterError(f"unknown weighting {weighting!r}")
    rows = corpus.row_ids(rows)
    column = np.fromiter((vocab.index.get(tok, -1) for tok in corpus.tokens),
                         dtype=np.int64, count=len(corpus.tokens))
    selected = corpus.counts[rows]
    cols = column[selected.indices]
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(keep)])[selected.indptr]
    cols = cols[keep]
    data = selected.data[keep]
    if weighting == "tfidf":
        data = data * (np.log((1.0 + vocab.n_docs) / (1.0 + vocab.doc_freq[cols])) + 1.0)
    out = scipy.sparse.csr_matrix((data, cols, indptr), shape=(rows.size, vocab.size))
    out.sort_indices()
    return out


def _check_training(trainer: str, vectors: scipy.sparse.csr_matrix, labels: list,
                    vocabulary: Vocabulary | None) -> None:
    if vectors.shape[0] != len(labels) or not labels:
        raise ParameterError("need equally many vectors and labels, at least one")
    if vocabulary is None:
        raise ParameterError(f"{trainer} requires the vocabulary for model metadata")
    if vectors.shape[1] != vocabulary.size:
        raise ParameterError(f"vectors have {vectors.shape[1]} columns, "
                             f"the vocabulary {vocabulary.size} tokens")


def _class_ids(labels: list[CodClass]) -> np.ndarray:
    lookup = {c: i for i, c in enumerate(CAUSE_CLASSES)}
    try:
        return np.asarray([lookup[lab] for lab in labels], dtype=np.int64)
    except KeyError as exc:
        raise ParameterError(f"labels must be concrete cause classes, got {exc}") from exc


# ---------------------------------------------------------------------------
# Naive Bayes


@dataclass(frozen=True)
class NbModel:
    """Multinomial Naive Bayes in log space with Laplace-alpha smoothing."""

    classes: tuple[CodClass, ...]
    log_priors: np.ndarray                 # (C,)
    log_likelihoods: np.ndarray            # (C, V)
    alpha: float
    vocabulary: Vocabulary
    weighting: str = "count"
    kind: str = "nb"

    def decision_scores(self, vectors: scipy.sparse.csr_matrix) -> np.ndarray:
        return vectors @ self.log_likelihoods.T + self.log_priors

    def predict_many(self, vectors: scipy.sparse.csr_matrix) -> list[CodClass]:
        scores = self.decision_scores(vectors)
        return [self.classes[j] for j in np.argmax(scores, axis=1)]


def train_nb(vectors: scipy.sparse.csr_matrix, labels: list[CodClass],
             alpha: float = 1.0, vocabulary: Vocabulary | None = None,
             weighting: str = "count") -> NbModel:
    """Fit multinomial NB; class-conditional token distributions each sum to 1."""
    if alpha <= 0:
        raise ParameterError(f"smoothing alpha must be positive, got {alpha}")
    _check_training("train_nb", vectors, labels, vocabulary)
    present = [c for c in CAUSE_CLASSES if c in set(labels)]
    row_of = {c: i for i, c in enumerate(present)}
    y = np.asarray([row_of[lab] for lab in labels], dtype=np.int64)
    m = len(y)
    # class-by-document membership; the product sums each class's rows in row order
    member = scipy.sparse.csr_matrix((np.ones(m), (y, np.arange(m))), shape=(len(present), m))
    counts = (member @ vectors).toarray()
    class_sizes = np.bincount(y, minlength=len(present)).astype(float)
    log_priors = np.log(class_sizes / class_sizes.sum())
    smoothed = counts + alpha
    log_lik = np.log(smoothed) - np.log(smoothed.sum(axis=1))[:, None]
    return NbModel(classes=tuple(present), log_priors=log_priors,
                   log_likelihoods=log_lik, alpha=alpha,
                   vocabulary=vocabulary, weighting=weighting)


# ---------------------------------------------------------------------------
# K nearest neighbors


def _row_norms(vectors: scipy.sparse.csr_matrix) -> np.ndarray:
    return np.sqrt(np.asarray(vectors.multiply(vectors).sum(axis=1)).ravel())


def _knn_block_rows(n_train: int) -> int:
    """Query rows per similarity block: one float64 block stays near ``_KNN_BLOCK_BYTES``."""
    return max(1, _KNN_BLOCK_BYTES // (8 * n_train))


def _top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k most similar columns, shape (rows, k).

    Every column above the row's k-th largest value is in; columns equal
    to it fill the remaining places from the lowest index up. One
    argpartition settles every row whose k-th value is reached by exactly
    k columns; only rows where more columns reach it take the tie-break.
    """
    n = sims.shape[1]
    top = np.argpartition(sims, n - k, axis=1)[:, n - k:]
    kth = np.take_along_axis(sims, top[:, :1], axis=1)
    ambiguous = np.flatnonzero(np.count_nonzero(sims >= kth, axis=1) > k)
    if ambiguous.size:
        rows, kth = sims[ambiguous], kth[ambiguous]
        tied = rows == kth
        free = k - np.count_nonzero(rows > kth, axis=1)[:, None]
        keep = (rows > kth) | (tied & (np.cumsum(tied, axis=1) <= free))
        top[ambiguous] = np.nonzero(keep)[1].reshape(-1, k)
    return top


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Memorized training rows queried by cosine similarity.

    Prediction is the majority label among the k most similar training
    rows. Similarity ties resolve to the lower training index, vote ties
    to the earlier class in enumeration order; zero-norm rows score 0
    against everything.
    """

    vectors: scipy.sparse.csr_matrix
    labels: tuple[CodClass, ...]
    k: int
    vocabulary: Vocabulary
    weighting: str = "tfidf"
    kind: str = "knn"
    norms: np.ndarray = field(init=False, repr=False)
    label_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "norms", _row_norms(self.vectors))
        object.__setattr__(self, "label_ids", _class_ids(list(self.labels)))

    def predict_many(self, queries: scipy.sparse.csr_matrix) -> list[CodClass]:
        """Cosine similarities in cache-sized blocks of query rows, then top-k votes."""
        query_norms = _row_norms(queries)
        step = _knn_block_rows(self.vectors.shape[0])
        out = []
        for start in range(0, queries.shape[0], step):
            block = slice(start, start + step)
            out.extend(CAUSE_CLASSES[j] for j in self._vote(queries[block], query_norms[block]))
        return out

    def _vote(self, queries: scipy.sparse.csr_matrix, query_norms: np.ndarray) -> np.ndarray:
        """Class ids predicted for one block of query rows.

        The block's temporaries die on return, so blocks never overlap in memory.
        """
        dots = self.vectors @ queries.toarray().T              # (n_train, rows)
        sims = np.multiply.outer(query_norms, self.norms)
        scored = sims > 0
        np.divide(dots.T, sims, out=sims, where=scored)
        sims[~scored] = 0.0             # a norm product not above 0: similarity 0
        top = _top_k(sims, self.k)
        n_classes = len(CAUSE_CLASSES)
        votes = np.bincount((np.arange(len(top))[:, None] * n_classes
                             + self.label_ids[top]).ravel(), minlength=len(top) * n_classes)
        return np.argmax(votes.reshape(-1, n_classes), axis=1)


def train_knn(vectors: scipy.sparse.csr_matrix, labels: list[CodClass], k: int = 9,
              vocabulary: Vocabulary | None = None, weighting: str = "tfidf") -> KnnModel:
    _check_training("train_knn", vectors, labels, vocabulary)
    if not 1 <= k <= len(labels):
        raise ParameterError(f"k must lie in [1, {len(labels)}], got {k}")
    return KnnModel(vectors=vectors, labels=tuple(labels), k=k,
                    vocabulary=vocabulary, weighting=weighting)


# ---------------------------------------------------------------------------
# Linear one-vs-rest SVM


@dataclass(frozen=True)
class SvmModel:
    """One weight vector and bias per class; prediction is argmax decision."""

    classes: tuple[CodClass, ...]
    weights: np.ndarray                    # (C, V)
    biases: np.ndarray                     # (C,)
    c: float
    epochs: int
    seed: int
    vocabulary: Vocabulary
    weighting: str = "tfidf"
    kind: str = "svm"

    def decision_scores(self, vectors: scipy.sparse.csr_matrix) -> np.ndarray:
        return vectors @ self.weights.T + self.biases

    def predict_many(self, vectors: scipy.sparse.csr_matrix) -> list[CodClass]:
        scores = self.decision_scores(vectors)
        return [self.classes[j] for j in np.argmax(scores, axis=1)]


def train_svm_ovr(vectors: scipy.sparse.csr_matrix, labels: list[CodClass],
                  c: float = 1.0, *, epochs: int = 60, seed: int = 0,
                  vocabulary: Vocabulary | None = None,
                  weighting: str = "tfidf") -> SvmModel:
    """Hinge-loss one-vs-rest classifiers by deterministic mini-batch subgradient steps.

    Each epoch visits the rows in a seeded permutation, ``_SVM_BATCH``
    rows per step. Every row in a batch takes its margins from the
    batch-start weights; its own harmonic step size shrinks the weights
    by the L2 factor, and on a margin violation it steps along C * y * x
    (bias unpenalized). The shrink factors multiply into one lazy scale,
    and the batch's updates go in as one CSR product. The returned
    weights average the epoch-end iterates of the second half of
    training. With one row per batch this is the per-sample trainer.
    """
    if c <= 0:
        raise ParameterError(f"C must be positive, got {c}")
    _check_training("train_svm_ovr", vectors, labels, vocabulary)
    present = [cl for cl in CAUSE_CLASSES if cl in set(labels)]
    if len(present) < 2:
        raise DegenerateModelError(
            f"SVM training needs at least 2 classes, got {len(present)}")
    m = len(labels)
    n_classes = len(present)
    signs = np.full((m, n_classes), -1.0)
    signs[np.arange(m), [present.index(lab) for lab in labels]] = 1.0
    lam = 1.0 / (c * m)                    # L2 strength of the mean objective
    w = np.zeros((vocabulary.size, n_classes))     # one column per class
    scale = 1.0
    b = np.zeros(n_classes)
    w_avg = np.zeros_like(w)
    b_avg = np.zeros(n_classes)
    n_avg = 0
    avg_from = epochs // 2
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, _SVM_BATCH):
            rows = order[start:start + _SVM_BATCH]
            x = vectors[rows]
            eta = 1.0 / (lam * (step + 1 + np.arange(rows.size) + m))
            step += rows.size
            margins = signs[rows] * (scale * (x @ w) + b)
            scales = np.cumprod(np.concatenate([[scale], np.maximum(1.0 - eta * lam, 1e-12)]))[1:]
            scale = scales[-1]
            violated = margins < 1.0
            w += x.T @ np.where(violated, (eta / m)[:, None] * signs[rows] / scales[:, None], 0.0)
            b += np.where(violated, (eta / m)[:, None] * signs[rows], 0.0).sum(axis=0)
            if scale < 1e-9:
                w *= scale
                scale = 1.0
        if epoch >= avg_from:
            w_avg += scale * w
            b_avg += b
            n_avg += 1
    w_final = (w_avg / n_avg) if n_avg else scale * w
    b_final = (b_avg / n_avg) if n_avg else b
    return SvmModel(classes=tuple(present), weights=np.ascontiguousarray(w_final.T),
                    biases=b_final, c=c, epochs=epochs, seed=seed, vocabulary=vocabulary,
                    weighting=weighting)


# ---------------------------------------------------------------------------
# Prediction sets


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Predicted causes aligned to the rows of a RecordTable, with the
    unclassified policy applied.

    ``codes[i]`` is row i's predicted index into CAUSE_CLASSES, or
    NO_CAUSE where the row has no prediction (absent from an external
    file, or dropped as unclassified). ``order`` lists the predicted rows
    in the order they were given (default: row order).
    """

    codes: np.ndarray
    provenance: str
    policy: str
    dropped: tuple[str, ...] = ()
    imputed: tuple[str, ...] = ()
    order: np.ndarray | None = None

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.size and not NO_CAUSE <= codes.min() <= codes.max() < len(CAUSE_CLASSES):
            raise PredictionFormatError(
                f"prediction codes must lie in [{NO_CAUSE}, {len(CAUSE_CLASSES)}); "
                "UNCLASSIFIED predictions must be resolved by the policy")
        object.__setattr__(self, "codes", codes.astype(np.int8))
        if self.order is None:
            object.__setattr__(self, "order", np.flatnonzero(self.codes != NO_CAUSE))

    def take(self, rows: np.ndarray, ids: np.ndarray) -> "PredictionSet":
        """The predictions of table rows ``rows``, whose record ids are ``ids``."""
        keep = set(ids.tolist())
        dropped = tuple(rid for rid in self.dropped if rid in keep)
        imputed = tuple(rid for rid in self.imputed if rid in keep)
        return PredictionSet(codes=self.codes[rows], provenance=self.provenance,
                             policy=self.policy, dropped=dropped, imputed=imputed)

    @property
    def unclassified_count(self) -> int:
        return len(self.dropped) + len(self.imputed)

    def class_counts(self) -> dict[str, int]:
        counts = np.bincount(self.codes[self.order], minlength=len(CAUSE_CLASSES))
        return {**{c.value: int(n) for c, n in zip(CAUSE_CLASSES, counts)},
                "unclassified": self.unclassified_count}

    def to_rows(self, ids: np.ndarray) -> list[tuple[str, str]]:
        """(record_id, predicted_label) pairs in ``order``, given the table's ids."""
        return list(zip(ids[self.order], VALUE_OF_CODE[self.codes[self.order]]))


# Predicted label -> its index in CodClass: UNCLASSIFIED follows the cause classes.
_LABEL_CODE = {c.value: i for i, c in enumerate(CodClass)}
_UNCLASSIFIED_CODE = _LABEL_CODE[CodClass.UNCLASSIFIED.value]
_BAD_LABEL = -2


def load_external_predictions(path: str | Path, policy: str, table: RecordTable,
                              majority_class: CodClass | None = None,
                              name: str = "external") -> PredictionSet:
    """Read a (record_id, predicted_label) CSV, align it to ``table``'s rows,
    and resolve unclassified rows.

    drop removes them (and enumerates the ids); impute-majority replaces
    them with the labeled subset's majority class; keep-as-error fails if
    any are present. The first offending row raises: an id not in the
    table or given twice (AlignmentError), then an unknown label
    (PredictionFormatError).
    """
    if policy not in UNCLASSIFIED_POLICIES:
        raise ParameterError(f"unknown unclassified policy {policy!r}")
    if policy == "impute-majority" and majority_class is None:
        raise ParameterError("impute-majority requires the labeled majority class")
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if "record_id" not in header or "predicted_label" not in header:
            raise PredictionFormatError(
                f"{path}: header must contain record_id and predicted_label")
        # a repeated column name reads its last occurrence
        i_id, i_label = (len(header) - 1 - header[::-1].index(col)
                         for col in ("record_id", "predicted_label"))
        width = max(i_id, i_label) + 1
        rids, labels = [], []
        for row in filter(None, reader):        # blank lines are skipped
            if len(row) < width:
                row += [""] * (width - len(row))
            rids.append(row[i_id])
            labels.append(row[i_label])
    rids = list(map(str.strip, rids))
    row_of = dict(zip(table.ids.tolist(), range(len(table))))
    rows = np.fromiter(map(row_of.get, rids, repeat(-1)), dtype=np.intp, count=len(rids))
    codes = np.fromiter(map({raw: _LABEL_CODE.get(raw.strip().lower(), _BAD_LABEL)
                             for raw in dict.fromkeys(labels)}.__getitem__, labels),
                        dtype=np.int8, count=len(labels))
    unknown = rows < 0
    repeated = np.ones(len(rows), dtype=bool)
    repeated[np.unique(rows, return_index=True)[1]] = False
    offending = np.flatnonzero(unknown | repeated | (codes == _BAD_LABEL))
    if offending.size:
        j = offending[0]
        where = f"{path}:{j + 2}"
        if unknown[j]:
            raise AlignmentError(f"{where}: record id {rids[j]!r} not in the loaded dataset")
        if repeated[j]:
            raise AlignmentError(f"{where}: duplicate record id {rids[j]!r}")
        raise PredictionFormatError(
            f"{where}: unknown predicted label {labels[j].strip().lower()!r}")
    unclassified = codes == _UNCLASSIFIED_CODE
    unclassified_ids = sorted(rids[j] for j in np.flatnonzero(unclassified))
    dropped: tuple[str, ...] = ()
    imputed: tuple[str, ...] = ()
    if policy == "keep-as-error" and unclassified_ids:
        raise PredictionFormatError(
            f"{path}: {len(unclassified_ids)} unclassified prediction(s) under "
            f"keep-as-error policy: {unclassified_ids}")
    if policy == "drop":
        rows, codes = rows[~unclassified], codes[~unclassified]
        dropped = tuple(unclassified_ids)
    elif policy == "impute-majority":
        codes[unclassified] = CAUSE_CLASSES.index(majority_class)
        imputed = tuple(unclassified_ids)
    aligned = np.full(len(table), NO_CAUSE, dtype=np.int8)
    aligned[rows] = codes
    if len(row_of) < len(table):        # rows sharing an id share its prediction
        aligned = aligned[np.fromiter(map(row_of.__getitem__, table.ids.tolist()),
                                      dtype=np.intp, count=len(table))]
    return PredictionSet(codes=aligned, provenance=f"external:{name}", policy=policy,
                         dropped=dropped, imputed=imputed, order=rows)


def predict_all(model, records: RecordTable, corpus: Corpus | None = None,
                rows: np.ndarray | None = None) -> PredictionSet:
    """One prediction per record from a trained bag-of-words model.

    ``corpus`` (default: the records' narratives, tokenized here) holds
    the records' documents at ``rows`` (default: all rows, in order).
    """
    if corpus is None:
        corpus = tokenize_corpus(records.narratives.tolist())
    predicted = model.predict_many(
        vectorize_corpus(corpus, model.vocabulary, model.weighting, rows))
    return PredictionSet(codes=_class_ids(predicted), provenance=model.kind, policy="drop")


# ---------------------------------------------------------------------------
# Model serialization (versioned, text-only)

_MODEL_FORMAT = "multippi-text-model"
_CLASS_BY_VALUE = {c.value: c for c in CAUSE_CLASSES}


def model_to_dict(model) -> dict:
    data = {"format": _MODEL_FORMAT, "version": 1, "kind": model.kind,
            "weighting": model.weighting, "vocabulary": model.vocabulary.to_dict(),
            "classes": [c.value for c in model.classes] if hasattr(model, "classes") else None}
    if model.kind == "nb":
        data.update(alpha=model.alpha,
                    log_priors=model.log_priors.tolist(),
                    log_likelihoods=model.log_likelihoods.tolist())
    elif model.kind == "knn":
        x = model.vectors
        data.update(k=model.k,
                    labels=[c.value for c in model.labels],
                    vectors=[{"indices": x.indices[a:b].tolist(), "weights": x.data[a:b].tolist()}
                             for a, b in zip(x.indptr[:-1], x.indptr[1:])])
        data["classes"] = None
    elif model.kind == "svm":
        data.update(c=model.c, epochs=model.epochs, seed=model.seed,
                    weights=model.weights.tolist(), biases=model.biases.tolist())
    else:
        raise ParameterError(f"cannot serialize model kind {model.kind!r}")
    return data


def _document_classes(values: list) -> tuple[CodClass, ...]:
    try:
        return tuple(_CLASS_BY_VALUE[v] for v in values)
    except (KeyError, TypeError) as exc:
        raise PredictionFormatError(f"model class labels must be cause classes, got {exc}") from exc


def _linear_parts(data: dict, matrix_key: str, offsets_key: str, vocab: Vocabulary):
    """Classes, (C, V) matrix and (C,) offsets of an NB or SVM document, checked."""
    classes = _document_classes(data["classes"])
    try:
        matrix = np.asarray(data[matrix_key], dtype=float)
        offsets = np.asarray(data[offsets_key], dtype=float)
    except (TypeError, ValueError) as exc:      # ragged rows or non-numbers
        raise PredictionFormatError(f"{matrix_key} or {offsets_key} is not a "
                                    f"rectangular array of numbers: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[1] != vocab.size:
        raise PredictionFormatError(f"{matrix_key} has shape {matrix.shape}, "
                                    f"the vocabulary {vocab.size} tokens")
    if not len(classes) == matrix.shape[0] == offsets.size:
        raise PredictionFormatError(
            f"{len(classes)} classes, {matrix.shape[0]} {matrix_key} rows and "
            f"{offsets.size} {offsets_key} disagree")
    if not (np.isfinite(matrix).all() and np.isfinite(offsets).all()):
        raise PredictionFormatError(f"{matrix_key} and {offsets_key} must be finite")
    return classes, matrix, offsets


def model_from_dict(data: dict):
    """Rebuild a model from ``model_to_dict``'s document.

    A document whose parts disagree (k outside [1, rows], labels or
    classes not matching the rows, a column outside the vocabulary) or
    that holds a non-finite weight raises PredictionFormatError; trained
    models are always finite.
    """
    if data.get("format") != _MODEL_FORMAT:
        raise PredictionFormatError(f"not a {_MODEL_FORMAT} document")
    if data.get("version") != 1:
        raise PredictionFormatError(f"unsupported model version {data.get('version')!r}")
    vocab = Vocabulary.from_dict(data["vocabulary"])
    kind = data["kind"]
    if kind == "nb":
        classes, log_lik, log_priors = _linear_parts(data, "log_likelihoods", "log_priors", vocab)
        return NbModel(classes=classes, log_priors=log_priors, log_likelihoods=log_lik,
                       alpha=float(data["alpha"]), vocabulary=vocab,
                       weighting=data["weighting"])
    if kind == "knn":
        rows = data["vectors"]
        labels = _document_classes(data["labels"])
        k = int(data["k"])
        if len(labels) != len(rows):
            raise PredictionFormatError(f"{len(labels)} labels for {len(rows)} vectors")
        if not 1 <= k <= len(rows):
            raise PredictionFormatError(f"k must lie in [1, {len(rows)}], got {k}")
        if any(len(v["indices"]) != len(v["weights"]) for v in rows):
            raise PredictionFormatError("a vector has unequally many indices and weights")
        indptr = np.cumsum([0] + [len(v["indices"]) for v in rows])
        indices = np.asarray([i for v in rows for i in v["indices"]], dtype=np.int64)
        if indices.size and not 0 <= indices.min() <= indices.max() < vocab.size:
            raise PredictionFormatError(
                f"vector column indices must lie in [0, {vocab.size})")
        weights = np.asarray([w for v in rows for w in v["weights"]], dtype=float)
        if not np.isfinite(weights).all():
            raise PredictionFormatError("vector weights must be finite")
        vectors = scipy.sparse.csr_matrix((weights, indices, indptr),
                                          shape=(len(rows), vocab.size))
        return KnnModel(vectors=vectors, labels=labels, k=k, vocabulary=vocab,
                        weighting=data["weighting"])
    if kind == "svm":
        classes, weights, biases = _linear_parts(data, "weights", "biases", vocab)
        return SvmModel(classes=classes, weights=weights, biases=biases, c=float(data["c"]),
                        epochs=int(data["epochs"]), seed=int(data["seed"]),
                        vocabulary=vocab, weighting=data["weighting"])
    raise PredictionFormatError(f"unknown model kind {kind!r}")
