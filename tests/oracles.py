"""Independent reference implementations used to check the library.

Everything here is deliberately written along different code paths than
the package: full-K softmax columns instead of K-1 blocks, textbook IRLS,
plain finite differences, loop-based cosine KNN, a per-document
tokenizer with its own token regex, vocabulary and vectorizer, the
per-sample SVM trainer, the row-at-a-time CSV loader, and one Monte Carlo
replication fitted on its own through the single-dataset estimator calls.

Two helpers are not references but the package's own kernel, evaluated
on plain rows so the references above can check it: ``mean_nll`` is the
objective ``mlogit.fit_stack`` minimizes, and ``per_row_gradients`` the
pattern gradients ``PatternStack.gradients`` gives the sandwich.
"""

import csv
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.special

from multippi import mlogit, ppi, simulate, textpred
from multippi.errors import MultippiError, SchemaError
from multippi.ingest import CAUSE_CLASSES, MALARIA_NOTE, NO_CAUSE, RecordTable, map_cause


def make_instance(rng, n_classes, n_features, n_rows, theta_scale=1.0):
    """Well-conditioned random multinomial instance with all classes present."""
    if n_features > 1:
        x = np.column_stack([np.ones(n_rows),
                             rng.standard_normal((n_rows, n_features - 1))])
    else:
        x = np.ones((n_rows, 1))
    theta_star = rng.uniform(-theta_scale, theta_scale,
                             n_features * (n_classes - 1))
    d = n_features
    blocks = theta_star.reshape(n_classes - 1, d)
    scores = np.column_stack([np.zeros(n_rows), x @ blocks.T])
    probs = scipy.special.softmax(scores, axis=1)
    y = (rng.random(n_rows)[:, None] > np.cumsum(probs, axis=1)[:, :-1]).sum(axis=1)
    y = y.astype(np.int64)
    for k in range(n_classes):
        if not (y == k).any():
            y[rng.integers(0, n_rows)] = k
    return x, y, theta_star


def mean_nll(theta, x, y, n_classes):
    """(value, gradient) of the mean NLL of labeled rows, as the package's fits evaluate it."""
    p = mlogit.group_labeled(x, y, n_classes)
    objective = mlogit.weighted_objective([(p, 0, 1.0 / p.n_rows)], n_classes)
    value, grad = objective.value_and_grad(np.asarray(theta, dtype=float)[None])
    return float(value[0]), grad[0]


def per_row_gradients(theta, x, y, n_classes):
    """Per-row gradients (probs - onehot(y)) (x) x, from a stack with one pattern per row."""
    ones = np.ones((1, len(y)), dtype=np.intp)
    stack = mlogit.PatternStack(x[None], ones, np.arange(len(y))[None], y[None, :, None], ones)
    probs = mlogit.class_probs(np.asarray(theta, dtype=float)[None], stack.x, n_classes)
    return stack.gradients(probs, 0, n_classes)[0]


def softmax_nll(theta, x, y, n_classes):
    """Direct product-of-softmax likelihood with class 0 pinned at zero."""
    d = x.shape[1]
    columns = np.column_stack([np.zeros(d), theta.reshape(n_classes - 1, d).T])
    scores = x @ columns
    log_z = scipy.special.logsumexp(scores, axis=1)
    return float(np.mean(log_z - scores[np.arange(len(y)), y]))


def softmax_grad(theta, x, y, n_classes):
    d = x.shape[1]
    columns = np.column_stack([np.zeros(d), theta.reshape(n_classes - 1, d).T])
    probs = scipy.special.softmax(x @ columns, axis=1)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(y)), y] = 1.0
    grads = (probs - onehot).T @ x / len(y)      # (K, d)
    return grads[1:].ravel()


def minimize_softmax_nll(x, y, n_classes):
    """Generic dense convex minimizer of the multinomial objective."""
    p = x.shape[1] * (n_classes - 1)
    res = scipy.optimize.minimize(
        lambda t: softmax_nll(t, x, y, n_classes), np.zeros(p),
        jac=lambda t: softmax_grad(t, x, y, n_classes),
        method="BFGS", options={"gtol": 1e-11, "maxiter": 1000})
    return res.x


def irls_binary(x, y, tol=1e-12, max_iter=200):
    """Textbook iteratively reweighted least squares for binary logit."""
    beta = np.zeros(x.shape[1])
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(-(x @ beta)))
        grad = x.T @ (y - p)
        if np.max(np.abs(grad)) < tol * len(y):
            break
        w = p * (1.0 - p)
        hess = (x * w[:, None]).T @ x
        beta = beta + np.linalg.solve(hess + 1e-12 * np.eye(len(beta)), grad)
    return beta


def fd_gradient(f, theta):
    """Central finite differences of a scalar function."""
    grad = np.zeros_like(theta)
    for j in range(len(theta)):
        h = (abs(theta[j]) + 1.0) * 6e-6
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (f(up) - f(down)) / (2.0 * h)
    return grad


def fd_jacobian(grad_fn, theta):
    """Central finite differences of a vector function, column per coordinate."""
    p = len(theta)
    jac = np.zeros((p, p))
    for j in range(p):
        h = (abs(theta[j]) + 1.0) * 6e-6
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        jac[:, j] = (grad_fn(up) - grad_fn(down)) / (2.0 * h)
    return jac


def brute_knn(train_dense, labels, query_dense, k, n_label_values):
    """Loop-based cosine KNN over dense vectors; same tie rules as the library."""
    sims = []
    qn = np.sqrt(np.sum(np.asarray(query_dense, dtype=float) ** 2))
    for row in train_dense:
        row = np.asarray(row, dtype=float)
        rn = np.sqrt(np.sum(row ** 2))
        sims.append(0.0 if qn == 0 or rn == 0
                    else float(np.dot(row, query_dense)) / (qn * rn))
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
    votes = [0] * n_label_values
    for i in order:
        votes[labels[i]] += 1
    return max(range(n_label_values), key=lambda c: (votes[c], -c))


def top_k_mask(sims, k):
    """Full boolean mask of each row's k most similar columns, lower index first on ties."""
    kth = np.partition(sims, sims.shape[1] - k, axis=1)[:, [sims.shape[1] - k]]
    above = sims > kth
    tied = sims == kth
    free = k - above.sum(axis=1, keepdims=True)
    return above | (tied & (np.cumsum(tied, axis=1) <= free))


def knn_predict_masked(train, label_ids, queries, k, n_label_values, block=256):
    """Cosine KNN over CSR rows in fixed blocks of query rows, voting from a full
    top-k mask: the block-of-256 implementation that textpred.KnnModel replaced.

    Returns the predicted label ids; the tie rules are the library's.
    """
    def row_norms(m):
        return np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())

    label_ids = np.asarray(label_ids)
    train_norms, query_norms = row_norms(train), row_norms(queries)
    out = []
    for start in range(0, queries.shape[0], block):
        rows = slice(start, start + block)
        dots = np.ascontiguousarray((train @ queries[rows].toarray().T).T)
        denom = np.outer(query_norms[rows], train_norms)
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        hit_rows, hit_cols = np.nonzero(top_k_mask(sims, k))
        votes = np.bincount(hit_rows * n_label_values + label_ids[hit_cols],
                            minlength=len(sims) * n_label_values).reshape(-1, n_label_values)
        out.extend(np.argmax(votes, axis=1).tolist())
    return out


def svm_per_sample(vectors, labels, classes, c, epochs, seed):
    """Per-sample one-vs-rest hinge subgradient trainer over CSR rows.

    One step per row: margins from the current weights, an L2 shrink by
    a lazy scale, then an update of the violated classes along C * y * x.
    Returns (weights (C, V), biases) averaged over the epoch-end iterates
    of the second half of training.
    """
    m, v = vectors.shape
    n_classes = len(classes)
    signs = np.empty((m, n_classes))
    for i, lab in enumerate(labels):
        signs[i] = -1.0
        signs[i, classes.index(lab)] = 1.0
    lam = 1.0 / (c * m)
    w = np.zeros((n_classes, v))
    scale = 1.0
    b = np.zeros(n_classes)
    w_avg = np.zeros((n_classes, v))
    b_avg = np.zeros(n_classes)
    n_avg = 0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    step = 0
    for epoch in range(epochs):
        for i in rng.permutation(m):
            step += 1
            eta = 1.0 / (lam * (step + m))
            lo, hi = vectors.indptr[i], vectors.indptr[i + 1]
            idx, x = vectors.indices[lo:hi], vectors.data[lo:hi]
            dots = np.zeros(n_classes)
            for j, xj in zip(idx, x):    # the summation order of a CSR row product
                dots += xj * w[:, j]
            margins = signs[i] * (scale * dots + b)
            scale *= max(1.0 - eta * lam, 1e-12)
            violated = margins < 1.0
            if violated.any():
                coef = (eta / m) * signs[i, violated] / scale
                w[np.ix_(np.nonzero(violated)[0], idx)] += coef[:, None] * x[None, :]
                b[violated] += (eta / m) * signs[i, violated]
            if scale < 1e-9:
                w *= scale
                scale = 1.0
        if epoch >= epochs // 2:
            w_avg += scale * w
            b_avg += b
            n_avg += 1
    return (w_avg / n_avg, b_avg / n_avg) if n_avg else (scale * w, b)


_TOKEN_RE = re.compile(r"\d+\.\d+|[^\W_]+")     # decimals, or runs of letters and digits


def tokenize_corpus_per_document(texts):
    """The corpus from each whole text's own regex pass, numbering tokens as they come."""
    docs = [_TOKEN_RE.findall(text.lower()) for text in texts]
    table = {}
    ids = np.fromiter((table.setdefault(tok, len(table)) for doc in docs for tok in doc),
                      dtype=np.int64)
    offsets = np.zeros(len(docs) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(doc) for doc in docs])
    counts = scipy.sparse.csr_matrix((np.ones(ids.size), ids, offsets),
                                     shape=(len(docs), len(table)))
    counts.sum_duplicates()
    return textpred.Corpus(tokens=tuple(table), ids=ids, offsets=offsets, counts=counts)


def vocabulary_rowwise(docs, min_count):
    """Token -> column in first-occurrence order, document frequencies, and totals.

    Walks the token lists one document at a time; an empty index means
    nothing survived the min_count filter.
    """
    counts = Counter(tok for doc in docs for tok in doc)
    index = {}
    for doc in docs:
        for tok in doc:
            if counts[tok] >= min_count and tok not in index:
                index[tok] = len(index)
    doc_freq = [0] * len(index)
    for doc in docs:
        for tok in set(doc):
            if tok in index:
                doc_freq[index[tok]] += 1
    kept = sum(counts[tok] for tok in index)
    return index, doc_freq, sum(len(doc) for doc in docs), kept


def vectorize_rowwise(doc, index, doc_freq, n_docs, weighting):
    """One document's (sorted columns, weights); smoothed tf-idf per token."""
    tf = Counter(index[tok] for tok in doc if tok in index)
    cols = sorted(tf)
    if weighting == "count":
        return cols, [float(tf[j]) for j in cols]
    return cols, [tf[j] * (np.log((1.0 + n_docs) / (1.0 + doc_freq[j])) + 1.0) for j in cols]


def load_records_rowwise(path, column_map, delimiter=",", min_age=12.0):
    """The row-at-a-time loader: one DictReader loop, one record per row.

    Returns (records, summary): records are (id, site, age, narrative,
    cause class or None) tuples in file order, and the summary has the
    keys of ``LoadResult.summary()``. Unknown causes and empty sites raise
    at the first kept row that has one, the cause checked first.
    """
    records, row_errors, n_rows, n_young = [], [], 0, 0
    site_counts, cause_counts, saw_malaria = {}, {}, False
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        bound = [column_map.id, column_map.site, column_map.age, column_map.narrative,
                 column_map.cause]
        if any(col is not None and col not in (reader.fieldnames or []) for col in bound):
            raise SchemaError(f"{path}: bound columns not in header")
        for row_number, row in enumerate(reader, start=2):
            n_rows += 1
            raw_age = (row.get(column_map.age) or "").strip()
            try:
                age = float(raw_age)
            except ValueError:
                row_errors.append({"row": row_number, "message": f"unparseable age {raw_age!r}"})
                continue
            if not math.isfinite(age):
                row_errors.append({"row": row_number, "message": f"non-finite age {raw_age!r}"})
                continue
            if age < 0:
                row_errors.append({"row": row_number, "message": f"negative age {age}"})
                continue
            if age < min_age:
                n_young += 1
                continue
            cause = None
            if column_map.cause is not None:
                raw_cause = (row.get(column_map.cause) or "").strip()
                if raw_cause:
                    saw_malaria |= raw_cause.lower() == "malaria"
                    cause = map_cause(raw_cause)
            record_id = (row.get(column_map.id) or "").strip()
            site = (row.get(column_map.site) or "").strip()
            if not site:
                raise SchemaError(f"record {record_id!r} has an empty site")
            records.append((record_id, site, age, row.get(column_map.narrative) or "", cause))
            site_counts[site] = site_counts.get(site, 0) + 1
            if cause is not None:
                cause_counts[cause.value] = cause_counts.get(cause.value, 0) + 1
    summary = {
        "n_records": len(records), "n_rows_read": n_rows, "n_filtered_age": n_young,
        "n_row_errors": len(row_errors), "row_errors": row_errors,
        "site_counts": dict(sorted(site_counts.items())),
        "cause_counts": dict(sorted(cause_counts.items())),
        "notes": [MALARIA_NOTE] if saw_malaria else [],
    }
    return records, summary


def record_table(rows):
    """A RecordTable from (id, site, age, narrative, cause class or None) tuples."""
    ids, sites, ages, texts, causes = zip(*rows) if rows else ([],) * 5
    codes = [NO_CAUSE if c is None else CAUSE_CLASSES.index(c) for c in causes]
    return RecordTable(ids=list(ids), sites=list(sites), ages=list(ages),
                       narratives=list(texts), causes=np.asarray(codes, dtype=np.int8))


def naive_from_rows(inputs, alpha=0.05):
    """The naive fit with its rows grouped again: labeled and unlabeled rows
    stacked with their predicted labels and fitted as one classical dataset.

    Only the report's labeled and unlabeled counts differ from ``fit_naive``.
    """
    x_all = np.vstack([inputs.x_labeled, inputs.x_unlabeled])
    yhat_all = np.concatenate([inputs.yhat_labeled, inputs.yhat_unlabeled])
    return ppi.fit_classical(x_all, yhat_all, inputs.n_classes, alpha, estimator="naive")


def one_replication(spec, noise, alpha, lambda_mode, rep):
    """Replication ``rep`` of a coverage run, drawn and fitted by itself.

    The per-replication loop the coverage experiment ran before it fitted
    replications in stacks: classical, naive, then multippi, each through
    the single-dataset ``ppi`` call, stopping at the first error.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep,)))
    data = simulate.generate(spec, rng)
    yhat_l = simulate.corrupt(data.y_labeled, noise, rng)
    yhat_u = simulate.corrupt(data.y_unlabeled, noise, rng)
    k = spec.n_classes
    out = {"rep": rep}
    try:
        out["classical"] = ppi.fit_classical(data.x_labeled, data.y_labeled, k, alpha)
        inputs = ppi.PpiInputs(data.x_labeled, data.y_labeled, yhat_l,
                               data.x_unlabeled, yhat_u, k)
        out["naive"] = ppi.fit_naive(inputs, alpha)
        out["multippi"] = ppi.fit_multippi_report(inputs, lambda_mode, alpha)
    except MultippiError as exc:
        out["error"] = f"rep {rep}: {type(exc).__name__}: {exc}"
    return out
