"""Tokenizer, corpus/vocabulary/CSR vectors, the three classifiers, and prediction ingestion."""

import json
import os
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from multippi import ingest, textpred as tp
from multippi.errors import (AlignmentError, DegenerateModelError,
                             ParameterError, PredictionFormatError)
from multippi.ingest import CAUSE_CLASSES, NO_CAUSE, RecordTable

NC, COM, EXT, MAT, ATB = range(len(CAUSE_CLASSES))     # cause codes
WIDTH = 4                                    # columns of the hand-built test rows


def vocab_of(corpus, min_count=1):
    return tp.build_vocabulary(tp.tokenize_corpus(corpus), min_count)


def vectors_of(texts, vocab, weighting="count"):
    return tp.vectorize_corpus(tp.tokenize_corpus(texts), vocab, weighting)


def tokens_of(text):
    """One text's tokens, in order."""
    corpus = tp.tokenize_corpus([text])
    return [corpus.tokens[i] for i in corpus.ids]


def make_vocab(width):
    """Vocabulary stub over ``width`` feature names."""
    return tp.Vocabulary(index={f"f{i}": i for i in range(width)},
                         doc_freq=np.ones(width, dtype=np.int64),
                         n_docs=1, total_tokens_raw=width, total_tokens_kept=width)


def sv(pairs, width=WIDTH):
    """One-row CSR matrix from (column, weight) pairs."""
    idx = [i for i, _ in pairs]
    return scipy.sparse.csr_matrix(
        (np.asarray([w for _, w in pairs], dtype=float), np.asarray(idx, dtype=np.int64),
         [0, len(idx)]), shape=(1, width))


def stack(rows):
    return scipy.sparse.vstack(rows, format="csr")


def knn_predict(train, query, k):
    """k-NN cause code of one query row given (row, cause code) training pairs."""
    rows, labels = zip(*train)
    model = tp.train_knn(stack(rows), list(labels), k=k, vocabulary=make_vocab(WIDTH))
    return int(model.predict_many(query)[0])


# -- tokenize ----------------------------------------------------------------

def test_tokenize_whitespace():
    assert tokens_of("the deceased had been burnt") == \
        ["the", "deceased", "had", "been", "burnt"]


def test_tokenize_punctuation_and_decimals():
    assert tokens_of("died within 1.5 hours!") == ["died", "within", "1.5", "hours"]


def test_tokenize_empty():
    assert tokens_of("") == []


@given(st.text(max_size=200))
@settings(max_examples=60)
def test_tokenize_properties(text):
    tokens = tokens_of(text)
    for tok in tokens:
        assert tok == tok.lower()
        assert tok.strip()
        assert not all(not ch.isalnum() and ch != "." for ch in tok)


# every str.isspace() character, plus characters on which a regex pass, a
# whitespace split or a lowercasing could disagree: decimals, underscores,
# apostrophes, the three sigmas (final-sigma context), dotted I (lowercases
# to two characters), a combining mark, sharp s, a titlecase digraph, a ligature
_WHITESPACE = "".join(filter(str.isspace, map(chr, range(sys.maxunicode + 1))))
_TOKENIZER_ALPHABET = _WHITESPACE + "0123456789._'ab" + "ΣσςİÀ\u0301ßǅﬁ"


def assert_same_corpus(got, want):
    assert got.tokens == want.tokens
    for name in ("ids", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.counts.shape == want.counts.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.counts, name), getattr(want.counts, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@given(texts=st.lists(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=40), max_size=12),
       batch=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_tokenize_corpus_matches_per_document_reference(texts, batch):
    with mock.patch.object(tp, "_TOKENIZE_BATCH", batch):     # chunks repeat across batches
        corpus = tp.tokenize_corpus(texts)
    assert_same_corpus(corpus, oracles.tokenize_corpus_per_document(texts))


@pytest.mark.parametrize("texts", [
    [], [""], [" \t\n\u3000 "], ["?!, -- ...", "'_'"], ["1.5.3"],
    ["", "fever  fever,", "\x1c", "...", "Fever fever"],
])
def test_tokenize_corpus_edge_documents(texts):
    assert_same_corpus(tp.tokenize_corpus(texts), oracles.tokenize_corpus_per_document(texts))


def test_tokenize_corpus_keeps_decimals_and_splits_dotted_runs():
    corpus = tp.tokenize_corpus(["1.5.3", "v1.5 a"])
    assert corpus.tokens == ("1.5", "3", "v1", "5", "a")
    assert corpus.offsets.tolist() == [0, 2, 5]


def test_tokenize_corpus_peak_memory_below_per_document_reference():
    rng = np.random.default_rng(11)
    words = np.asarray([f"w{i}" for i in range(3000)] + ["fever,", "died.", "1.5", "(cough)"])
    texts = [" ".join(rng.choice(words, size=int(rng.integers(20, 100))))
             for _ in range(3000)]
    peaks = []
    for tokenize_corpus in (tp.tokenize_corpus, oracles.tokenize_corpus_per_document):
        tracemalloc.start()
        try:
            tokenize_corpus(texts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1], peaks


# -- corpus / vocabulary / vectorize -------------------------------------------

def test_corpus_from_tokens_counts_and_ids():
    corpus = tp.tokenize_corpus(["b a b", "", "c a"])
    assert corpus.tokens == ("b", "a", "c")
    assert corpus.ids.tolist() == [0, 1, 0, 2, 1]
    assert corpus.offsets.tolist() == [0, 3, 3, 5]
    assert corpus.counts.toarray().tolist() == [[2, 1, 0], [0, 0, 0], [0, 1, 1]]


def test_build_vocabulary_first_occurrence_order():
    vocab = vocab_of(["a b", "b c"])
    assert vocab.index == {"a": 0, "b": 1, "c": 2}
    assert vocab.total_tokens_raw == 4 and vocab.total_tokens_kept == 4


def test_build_vocabulary_min_count():
    vocab = vocab_of(["a b", "b c"], 2)
    assert vocab.index == {"b": 0}
    assert vocab.total_tokens_kept == 2


def test_build_vocabulary_reports_totals():
    vocab = vocab_of(["x x y", "y z"], 2)
    assert vocab.total_tokens_raw == 5
    assert vocab.total_tokens_kept == 4          # x twice + y twice


def test_build_vocabulary_counts_only_given_rows_in_their_order():
    corpus = tp.tokenize_corpus(["a b", "c", "d c b"])
    vocab = tp.build_vocabulary(corpus, 1, rows=np.array([2, 1]))
    assert vocab.index == {"d": 0, "c": 1, "b": 2}
    assert vocab.doc_freq.tolist() == [1, 2, 1] and vocab.n_docs == 2
    assert tp.vectorize_corpus(corpus, vocab, "count", rows=np.array([0])).toarray() \
        .tolist() == [[0.0, 0.0, 1.0]]


def test_build_vocabulary_errors():
    with pytest.raises(ParameterError):
        vocab_of([])
    with pytest.raises(ParameterError):
        vocab_of(["a", "b"], 5)


def test_vectorize_counts():
    vocab = vocab_of(["a b", "b c"])
    row = vectors_of(["b b c"], vocab, "count")
    assert row.indices.tolist() == [1, 2]
    assert row.data.tolist() == [2.0, 1.0]


def test_vectorize_out_of_vocabulary_empty():
    vocab = vocab_of(["a"])
    row = vectors_of(["q r"], vocab, "count")
    assert row.nnz == 0 and row.shape == (1, 1)


def test_vectorize_unknown_weighting():
    vocab = vocab_of(["a"])
    with pytest.raises(ParameterError):
        vectors_of(["a"], vocab, "binary")


def test_vectorize_tfidf_hand_computed():
    # three documents: a appears in all, b in one, c in one
    vocab = vocab_of(["a b", "a c", "a"])
    row = vectors_of(["a a b"], vocab, "tfidf")
    # token in every document: log((1+3)/(1+3)) = 0, weight = tf * 1
    idf_a = np.log(4.0 / 4.0) + 1.0
    idf_b = np.log(4.0 / 2.0) + 1.0
    assert row.data[0] == pytest.approx(2.0 * idf_a, abs=1e-12)
    assert row.data[1] == pytest.approx(1.0 * idf_b, abs=1e-12)


_DOCS = st.lists(st.lists(st.sampled_from("abcdefg"), max_size=8), min_size=1, max_size=12)


@given(docs=_DOCS, held_out=st.lists(st.lists(st.sampled_from("abcdefgxyz"), max_size=8),
                                     max_size=4),
       min_count=st.integers(1, 4), weighting=st.sampled_from(["count", "tfidf"]),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_tokenize_once_matches_rowwise_reference(docs, held_out, min_count, weighting, data):
    # the corpus is tokenized once; training rows are any subset, in any order
    corpus = tp.tokenize_corpus([" ".join(doc) for doc in docs + held_out])
    train = data.draw(st.permutations(range(len(docs))).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda n: list(p[:n]))))
    train_docs = [docs[i] for i in train]
    index, doc_freq, raw, kept = oracles.vocabulary_rowwise(train_docs, min_count)
    if not index:
        with pytest.raises(ParameterError, match="vocabulary is empty"):
            tp.build_vocabulary(corpus, min_count, rows=np.asarray(train))
        return
    vocab = tp.build_vocabulary(corpus, min_count, rows=np.asarray(train))
    assert list(vocab.index.items()) == list(index.items())
    assert vocab.doc_freq.tolist() == doc_freq
    assert (vocab.n_docs, vocab.total_tokens_raw, vocab.total_tokens_kept) == \
        (len(train), raw, kept)
    rows = train + list(range(len(docs), len(docs) + len(held_out)))   # + out-of-vocabulary
    x = tp.vectorize_corpus(corpus, vocab, weighting, rows=np.asarray(rows))
    assert x.shape == (len(rows), len(index)) and x.has_sorted_indices
    for r, doc in enumerate(train_docs + held_out):
        cols, weights = oracles.vectorize_rowwise(doc, index, doc_freq, len(train), weighting)
        lo, hi = x.indptr[r], x.indptr[r + 1]
        assert x.indices[lo:hi].tolist() == cols
        assert x.data[lo:hi].tolist() == weights              # exactly, bit for bit


# -- naive bayes ----------------------------------------------------------------

def test_nb_single_class_always_predicted():
    vocab = vocab_of(["fever cough", "fever chills"])
    vectors = vectors_of(["fever cough", "fever chills"], vocab)
    model = tp.train_nb(vectors, [COM, COM], vocabulary=vocab)
    assert model.predict_many(vectors_of(["anything"], vocab)).tolist() == [COM]


def test_nb_hand_computed_two_class():
    corpus = ["cough fever", "crash road cough"]
    vocab = vocab_of(corpus)          # cough:0 fever:1 crash:2 road:3
    vectors = vectors_of(corpus, vocab)
    model = tp.train_nb(vectors, [COM, EXT], alpha=1.0, vocabulary=vocab)
    # class COM: counts (1,1,0,0), total 2, V=4 -> smoothed (2,2,1,1)/6
    # class EXT: counts (1,0,1,1), total 3, V=4 -> smoothed (2,1,2,2)/7
    com_row = model.log_likelihoods[model.classes.tolist().index(COM)]
    ext_row = model.log_likelihoods[model.classes.tolist().index(EXT)]
    assert np.allclose(np.exp(com_row), np.array([2, 2, 1, 1]) / 6.0, atol=1e-12)
    assert np.allclose(np.exp(ext_row), np.array([2, 1, 2, 2]) / 7.0, atol=1e-12)
    assert np.allclose(np.exp(model.log_priors), [0.5, 0.5], atol=1e-12)


def test_nb_rows_normalize():
    rng = np.random.default_rng(0)
    corpus = [" ".join(rng.choice(list("abcdefg"), size=6)) for _ in range(20)]
    vocab = vocab_of(corpus)
    vectors = vectors_of(corpus, vocab)
    labels = [i % 3 for i in range(20)]
    model = tp.train_nb(vectors, labels, alpha=0.7, vocabulary=vocab)
    sums = np.exp(model.log_likelihoods).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert np.exp(model.log_priors).sum() == pytest.approx(1.0, abs=1e-12)


def test_nb_duplicated_corpus_same_priors_and_predictions():
    corpus = ["cough fever", "crash road", "fever chills", "road fall"]
    labels = [COM, EXT, COM, EXT]
    vocab = vocab_of(corpus)
    vectors = vectors_of(corpus, vocab)
    twice = stack([vectors, vectors])
    model_once = tp.train_nb(vectors, labels, vocabulary=vocab)
    model_twice = tp.train_nb(twice, labels * 2, vocabulary=vocab)
    assert np.array_equal(model_once.log_priors, model_twice.log_priors)
    queries = vectors_of(corpus + ["fever road"], vocab)
    assert np.array_equal(model_once.predict_many(queries), model_twice.predict_many(queries))
    # with negligible smoothing the observed-token distributions match too
    # (zero-count cells keep a total-count dependence through the smoothing)
    tiny_once = tp.train_nb(vectors, labels, alpha=1e-9, vocabulary=vocab)
    tiny_twice = tp.train_nb(twice, labels * 2, alpha=1e-9, vocabulary=vocab)
    observed = np.exp(tiny_once.log_likelihoods) > 1e-6
    assert np.allclose(tiny_once.log_likelihoods[observed],
                       tiny_twice.log_likelihoods[observed], atol=1e-6)


def test_nb_alpha_validation():
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            tp.train_nb(sv([(0, 1.0)], 1), [COM], alpha=alpha, vocabulary=make_vocab(1))


def test_trainers_reject_vectors_wider_than_vocabulary():
    for train in (tp.train_nb, tp.train_knn, tp.train_svm_ovr):
        with pytest.raises(ParameterError, match="columns"):
            train(stack([sv([(0, 1.0)]), sv([(1, 1.0)])]), [COM, EXT],
                  vocabulary=make_vocab(2))


@pytest.mark.parametrize("train", [tp.train_nb, tp.train_knn, tp.train_svm_ovr])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trainers_reject_non_finite_weights(train, bad):
    # such a model would train, but its own document would be refused on reload
    texts = ["fever cough", "crash road", "fever crash"]
    vocab = vocab_of(texts)
    vectors = vectors_of(texts, vocab)
    vectors.data[1] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        train(vectors, [COM, EXT, COM], vocabulary=vocab)

def test_knn_identical_vector_k1():
    train = [(sv([(0, 1.0)]), COM), (sv([(1, 1.0)]), EXT), (sv([(2, 1.0)]), MAT)]
    assert knn_predict(train, sv([(1, 1.0)]), k=1) == EXT


def test_knn_k_equals_train_size_majority():
    train = [(sv([(0, 1.0)]), COM), (sv([(1, 1.0)]), EXT),
             (sv([(0, 1.0), (1, 1.0)]), EXT)]
    assert knn_predict(train, sv([(0, 2.0)]), k=3) == EXT


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    dim = 4
    train_dense = rng.uniform(0, 1, (5, dim))
    labels = [0, 1, 2, 1, 0]
    train = [(sv([(j, train_dense[i, j]) for j in range(dim)]), labels[i])
             for i in range(5)]
    for _ in range(20):
        q = rng.uniform(0, 1, dim)
        got = knn_predict(train, sv([(j, q[j]) for j in range(dim)]), k=3)
        want = oracles.brute_knn(train_dense, labels, q, 3, 5)
        assert got == want


def test_knn_zero_norm_query_similarity_zero():
    train = [(sv([(0, 1.0)]), EXT), (sv([(1, 1.0)]), COM)]
    # all similarities 0: the k=1 nearest is the lowest training index
    assert knn_predict(train, sv([]), k=1) == EXT


def test_knn_similarity_tie_lower_index_wins():
    train = [(sv([(0, 1.0)]), MAT), (sv([(0, 2.0)]), COM)]
    # identical direction: both cosines are exactly 1; index 0 wins
    assert knn_predict(train, sv([(0, 3.0)]), k=1) == MAT


def test_knn_vote_tie_class_order_wins():
    train = [(sv([(0, 1.0)]), EXT), (sv([(0, 1.0), (1, 0.1)]), COM)]
    # one vote each at k=2: the lower cause code, COM's, wins over EXT's
    assert knn_predict(train, sv([(0, 1.0)]), k=2) == COM


def test_knn_parameter_validation():
    with pytest.raises(ParameterError):
        tp.train_knn(scipy.sparse.csr_matrix((0, WIDTH)), [], k=1,
                     vocabulary=make_vocab(WIDTH))
    with pytest.raises(ParameterError):
        tp.train_knn(sv([(0, 1.0)]), [COM], k=2, vocabulary=make_vocab(WIDTH))


def test_knn_model_bulk_matches_single():
    rng = np.random.default_rng(6)
    corpus = [" ".join(rng.choice(list("abcdefgh"), size=5)) for _ in range(15)]
    vocab = vocab_of(corpus)
    vectors = vectors_of(corpus, vocab, "tfidf")
    labels = [i % 4 for i in range(15)]
    model = tp.train_knn(vectors, labels, k=5, vocabulary=vocab)
    queries = vectors[:6]
    assert model.predict_many(queries).tolist() == [model.predict_many(queries[i])[0]
                                                    for i in range(6)]


def test_knn_blocks_and_top_k_ties_match_brute_force(monkeypatch):
    # weights on a small integer grid make many cosines exactly equal, so
    # ties straddle the k-th place; two-row blocks put them across block edges
    monkeypatch.setattr(tp, "_knn_block_rows", lambda n_train: 2)
    rng = np.random.default_rng(11)
    train_dense = rng.integers(0, 3, (14, WIDTH)).astype(float)
    train_dense[3] = train_dense[7] = train_dense[12] = [1.0, 1.0, 0.0, 0.0]
    train_dense[5] = 0.0                                 # zero norm: similarity 0
    queries = rng.integers(0, 3, (9, WIDTH)).astype(float)
    queries[1] = [2.0, 2.0, 0.0, 0.0]
    queries[4] = 0.0
    labels = rng.integers(0, len(CAUSE_CLASSES), 14).tolist()
    for k in (1, 2, 3, 4, 5, 14):
        model = tp.train_knn(scipy.sparse.csr_matrix(train_dense), labels, k=k,
                             vocabulary=make_vocab(WIDTH))
        got = model.predict_many(scipy.sparse.csr_matrix(queries))
        want = [oracles.brute_knn(train_dense, labels, q, k, 5) for q in queries]
        assert got.tolist() == want


@st.composite
def _knn_cases(draw):
    """Train and query rows on a small weight grid, some forced to zero norm, and k."""
    width = draw(st.integers(1, 5))
    n_train = draw(st.integers(1, 12))
    n_query = draw(st.integers(1, 8))
    grid = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    train = draw(hnp.arrays(np.float64, (n_train, width), elements=grid))
    queries = draw(hnp.arrays(np.float64, (n_query, width), elements=grid))
    train[draw(hnp.arrays(bool, n_train))] = 0.0
    queries[draw(hnp.arrays(bool, n_query))] = 0.0
    labels = draw(st.lists(st.integers(0, len(CAUSE_CLASSES) - 1),
                           min_size=n_train, max_size=n_train))
    return train, queries, labels, draw(st.integers(1, n_train))


@given(_knn_cases())
@settings(max_examples=150)
def test_knn_predictions_equal_the_mask_reference_at_every_block_size(case):
    train, queries, labels, k = case
    model = tp.train_knn(scipy.sparse.csr_matrix(train), labels,
                         k=k, vocabulary=make_vocab(train.shape[1]))
    q = scipy.sparse.csr_matrix(queries)
    masked = oracles.knn_predict_masked(model.vectors, labels, q, k, len(CAUSE_CLASSES))
    brute = [oracles.brute_knn(train, labels, row, k, len(CAUSE_CLASSES)) for row in queries]
    assert masked == brute
    for rows in (1, 3, len(queries) + 1):
        with mock.patch.object(tp, "_knn_block_rows", lambda n_train: rows):
            got = model.predict_many(q)
        assert got.tolist() == masked


def test_knn_predict_peak_memory_stays_near_one_block():
    # one float64 (query block x training rows) similarity block is meant to
    # stay near 2 MiB; 256-row blocks over 3,000 rows allocated ~6 MB per temporary
    block_bytes = 2 << 20
    rng = np.random.default_rng(12)
    width, n_train, n_query = 400, 3000, 600

    def random_rows(n):
        m = scipy.sparse.random(n, width, density=0.05, format="csr", random_state=rng)
        m.sort_indices()
        return m

    model = tp.train_knn(random_rows(n_train), [i % 5 for i in range(n_train)],
                         k=9, vocabulary=make_vocab(width))
    queries = random_rows(n_query)
    inputs = sum(a.nbytes for m in (model.vectors, queries)
                 for a in (m.data, m.indices, m.indptr))
    tracemalloc.start()
    try:
        model.predict_many(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * block_bytes + inputs, (peak, block_bytes, inputs)


# -- svm ----------------------------------------------------------------------

def test_svm_separable_toy_perfect_training_accuracy():
    vectors = stack([sv([(0, 2.0), (1, 0.1)], 2), sv([(0, 1.8)], 2),
                     sv([(1, 2.2)], 2), sv([(0, 0.1), (1, 1.9)], 2),
                     sv([(0, 2.4), (1, 0.2)], 2), sv([(0, 0.2), (1, 2.0)], 2)])
    labels = [COM, COM, EXT, EXT, COM, EXT]
    model = tp.train_svm_ovr(vectors, labels, c=1.0, vocabulary=make_vocab(2))
    assert model.predict_many(vectors).tolist() == labels


def test_svm_constant_features_majority_fallback():
    vectors = stack([sv([(0, 1.0)], 1)] * 5)
    labels = [EXT, EXT, EXT, COM, COM]
    model = tp.train_svm_ovr(vectors, labels, c=1.0, vocabulary=make_vocab(1))
    # closed-form hinge minimum on constant features: decision +1 for the
    # majority class, -1 for the minority, reached through the biases
    assert model.predict_many(sv([(0, 1.0)], 1)).tolist() == [EXT]
    scores = model.decision_scores(sv([(0, 1.0)], 1))[0]
    assert scores[model.classes.tolist().index(EXT)] > scores[model.classes.tolist().index(COM)]


def test_svm_feature_scaling_with_rescaled_c():
    rng = np.random.default_rng(7)
    rows, labels = [], []
    for i in range(30):
        center = np.array([2.0, 0.2, 1.0]) if i % 2 else np.array([0.2, 2.0, 1.0])
        dense = np.maximum(center + rng.normal(0, 0.3, 3), 0.0)
        rows.append(sv([(j, dense[j]) for j in range(3) if dense[j] > 0], 3))
        labels.append(COM if i % 2 else EXT)
    vectors = stack(rows)
    model = tp.train_svm_ovr(vectors, labels, c=1.0, vocabulary=make_vocab(3))
    scaled = vectors * 2.0
    model_scaled = tp.train_svm_ovr(scaled, labels, c=0.25, vocabulary=make_vocab(3))
    assert np.array_equal(model.predict_many(vectors), model_scaled.predict_many(scaled))


def test_svm_single_class_error():
    with pytest.raises(DegenerateModelError):
        tp.train_svm_ovr(stack([sv([(0, 1.0)], 1)] * 3), [COM] * 3, vocabulary=make_vocab(1))


def test_svm_c_validation():
    for c, epochs in ((0.0, 60), (np.nan, 60), (np.inf, 60), (1.0, 0), (1.0, -3)):
        with pytest.raises(ParameterError):
            tp.train_svm_ovr(stack([sv([(0, 1.0)], 1)] * 2), [COM, EXT], c=c, epochs=epochs,
                             vocabulary=make_vocab(1))


def test_svm_deterministic():
    rng = np.random.default_rng(8)
    vectors = stack([sv([(j, float(rng.integers(1, 4))) for j in range(4)])
                     for _ in range(12)])
    labels = [i % 3 for i in range(12)]
    m1 = tp.train_svm_ovr(vectors, labels, vocabulary=make_vocab(WIDTH), seed=3)
    m2 = tp.train_svm_ovr(vectors, labels, vocabulary=make_vocab(WIDTH), seed=3)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.biases, m2.biases)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_svm_batch_of_one_is_the_per_sample_trainer(monkeypatch, seed):
    monkeypatch.setattr(tp, "_SVM_BATCH", 1)
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0, 3, (30, 9)) * (rng.random((30, 9)) < 0.5)
    vectors = scipy.sparse.csr_matrix(dense)
    labels = rng.integers(0, 3, 30).tolist()
    present = sorted(set(labels))
    model = tp.train_svm_ovr(vectors, labels, c=0.7, epochs=9, seed=seed,
                             vocabulary=make_vocab(9))
    weights, biases = oracles.svm_per_sample(vectors, labels, present, 0.7, 9, seed)
    assert np.array_equal(model.weights, weights)       # bit for bit
    assert np.array_equal(model.biases, biases)


# -- external predictions / prediction sets ------------------------------------

def write_predictions(path, rows):
    path.write_text("record_id,predicted_label\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    return path


def id_table(ids, causes=None):
    """Records with ids ``ids`` and cause codes ``causes`` (default: none), None for no cause."""
    return make_records([""] * len(ids), causes, ids=ids)


def test_load_external_drop_policy(tmp_path):
    rows = [f"r{i},communicable" for i in range(8)] + \
        ["r8,unclassified", "r9,unclassified"]
    path = write_predictions(tmp_path / "p.csv", rows)
    ps = tp.load_external_predictions(path, "drop", id_table([f"r{i}" for i in range(10)]))
    assert (ps.codes != NO_CAUSE).sum() == 8
    assert ps.codes[8] == ps.codes[9] == NO_CAUSE
    assert ps.dropped == ("r8", "r9")
    assert ps.unclassified_count == 2


def test_load_external_keep_as_error(tmp_path):
    rows = ["r0,external", "r1,unclassified", "r2,unclassified"]
    path = write_predictions(tmp_path / "p.csv", rows)
    with pytest.raises(PredictionFormatError) as err:
        tp.load_external_predictions(path, "keep-as-error", id_table(["r0", "r1", "r2"]))
    assert "r1" in str(err.value) and "r2" in str(err.value)


def test_load_external_impute_majority(tmp_path):
    rows = ["r0,external", "r1,unclassified", "r2,unclassified"]
    path = write_predictions(tmp_path / "p.csv", rows)
    table = id_table(["r0", "r1", "r2"], [NC, EXT, NC])
    ps = tp.load_external_predictions(path, "impute-majority", table)
    assert ps.codes.tolist() == [EXT, NC, NC]
    assert ps.imputed == ("r1", "r2")


def test_load_external_imputes_the_tables_most_frequent_true_cause(tmp_path):
    path = write_predictions(tmp_path / "p.csv",
                             ["r0,maternal", "r1,unclassified", "r2,unclassified"])
    ps = tp.load_external_predictions(path, "impute-majority",
                                      id_table(["r0", "r1", "r2"], [EXT, EXT, COM]))
    assert ps.codes.tolist() == [MAT, EXT, EXT]
    # a tie goes to the earlier class; records without a true cause are not counted
    ps = tp.load_external_predictions(path, "impute-majority",
                                      id_table(["r0", "r1", "r2"], [EXT, None, COM]))
    assert ps.codes.tolist() == [MAT, COM, COM]


def test_load_external_unknown_id(tmp_path):
    path = write_predictions(tmp_path / "p.csv", ["zz,external"])
    with pytest.raises(AlignmentError, match="zz"):
        tp.load_external_predictions(path, "drop", id_table(["r0"]))


def test_load_external_unknown_label(tmp_path):
    path = write_predictions(tmp_path / "p.csv", ["r0,banana"])
    with pytest.raises(PredictionFormatError, match="banana"):
        tp.load_external_predictions(path, "drop", id_table(["r0"]))


def test_load_external_aligns_to_table_rows(tmp_path):
    # file order differs from table order; r1 appears twice in the table
    path = write_predictions(tmp_path / "p.csv",
                             [" r2 , Maternal", "", "r1,aids-tb", "r9,unclassified"])
    table = id_table(["r1", "r2", "r3", "r1", "r9"])
    ps = tp.load_external_predictions(path, "drop", table)
    assert ps.codes.tolist() == [ATB, MAT, NO_CAUSE, ATB, NO_CAUSE]
    assert ps.to_rows(table.ids) == [("r2", "maternal"), ("r1", "aids-tb")]
    assert ps.class_counts() == {"non-communicable": 0, "communicable": 0, "external": 0,
                                 "maternal": 1, "aids-tb": 1, "unclassified": 1}
    site = ps.take(np.array([4, 1]), table.ids[[4, 1]])
    assert site.codes.tolist() == [NO_CAUSE, MAT]
    assert site.dropped == ("r9",) and site.unclassified_count == 1


def test_load_external_first_offending_row_raises(tmp_path):
    table = id_table(["r0", "r1"])
    # row numbers count CSV records: the blank line is skipped
    path = write_predictions(tmp_path / "p.csv", ["r0,banana", "", "r0,external", "zz,x"])
    with pytest.raises(PredictionFormatError, match=r"p.csv:2: unknown predicted label 'banana'"):
        tp.load_external_predictions(path, "drop", table)
    path = write_predictions(tmp_path / "q.csv", ["r0,external", "", "r0,banana", "zz,x"])
    with pytest.raises(AlignmentError, match=r"q.csv:3: duplicate record id 'r0'"):
        tp.load_external_predictions(path, "drop", table)
    path = write_predictions(tmp_path / "s.csv", ["r0,external", "r1", "zz,x"])
    with pytest.raises(PredictionFormatError, match=r"s.csv:3: unknown predicted label ''"):
        tp.load_external_predictions(path, "drop", table)


def load_outcome(path, table, policy="drop"):
    """The prediction set's fields, or the error type and message, of one load."""
    try:
        ps = tp.load_external_predictions(path, policy, table)
    except (AlignmentError, PredictionFormatError) as exc:
        return type(exc).__name__, str(exc)
    return ps.codes.tolist(), ps.order.tolist(), ps.dropped, ps.imputed


def load_outcome_by_csv_reader(path, table, policy="drop"):
    with mock.patch.object(ingest, "_loadtxt_columns", lambda *args: None):
        return load_outcome(path, table, policy)


@pytest.mark.parametrize("rows, outcome", [
    (["r1,external", "zz,maternal", "r0,banana"],
     ("AlignmentError", "p.csv:3: record id 'zz' not in the loaded dataset")),
    (["r1,external", "", "r0,banana", "r1,maternal"],
     ("PredictionFormatError", "p.csv:3: unknown predicted label 'banana'")),
    (["r1,external", "r0,maternal", " r1 ,aids-tb"],
     ("AlignmentError", "p.csv:4: duplicate record id 'r1'")),
], ids=["unknown-id", "unknown-label", "duplicate-id"])
def test_load_external_offending_row_is_named_by_either_reader(tmp_path, c_reader, rows,
                                                                outcome):
    path = write_predictions(tmp_path / "p.csv", rows)
    table = id_table(["r0", "r1", "r2"])
    got = load_outcome(path, table)
    assert got == load_outcome_by_csv_reader(path, table)
    assert (got[0], got[1].removeprefix(f"{tmp_path}/")) == outcome
    assert c_reader == [True]


@pytest.mark.parametrize("body, uses_c_reader", [
    ("r0,external\nr1\n", [False]),                 # short row
    ("r0,external\n   \nr1,maternal\n", [False]),   # whitespace-only line
    ("r0,\"cr\rx\"\nr1,maternal\n", [False]),       # quoted CR in a kept column
    ("", []),                                       # empty body
    ("\r\n\n", []),                                 # blank lines only
], ids=["short-row", "whitespace-line", "quoted-cr", "empty", "blank-lines"])
def test_load_external_fallback_triggers(tmp_path, c_reader, body, uses_c_reader):
    path = tmp_path / "p.csv"
    path.write_bytes(("record_id,predicted_label\n" + body).encode("utf-8"))
    table = id_table(["r0", "r1"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = load_outcome(path, table)
    assert caught == []
    assert c_reader == uses_c_reader
    assert got == load_outcome_by_csv_reader(path, table)


def test_load_external_multi_line_header_skips_the_c_reader(tmp_path, c_reader):
    path = tmp_path / "p.csv"
    path.write_text('record_id,predicted_label,"note\non two lines"\nr0,external,x\n',
                    encoding="utf-8")
    codes, order, _, _ = load_outcome(path, id_table(["r0"]))
    assert codes == [EXT] and order == [0]
    assert c_reader == []


def test_load_external_undecodable_byte_names_its_offset_after_the_c_reader(tmp_path,
                                                                            c_reader):
    ids = [f"r{i:04d}" for i in range(1000)]
    text = ("record_id,predicted_label\n" + "".join(f"{rid},external\n" for rid in ids)
            ).encode("utf-8")
    at = text.rindex(b"external")            # past the header reader's first 8 KiB chunk
    path = tmp_path / "p.csv"
    path.write_bytes(text[:at] + b"\xe9" + text[at:])
    assert load_outcome(path, id_table(ids)) == (
        "PredictionFormatError", f"{path}: byte {at} is not UTF-8 (invalid continuation byte)")
    assert c_reader == [False]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
def test_load_external_fifo_is_read_once_by_csv_reader(tmp_path, c_reader):
    fifo = tmp_path / "p.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text,
                              args=("record_id,predicted_label\nr1,maternal\nr0,external\n",),
                              kwargs={"encoding": "utf-8"})
    writer.start()
    codes, order, _, _ = load_outcome(fifo, id_table(["r0", "r1"]))
    writer.join()
    assert codes == [EXT, MAT] and order == [1, 0]
    assert c_reader == []


@pytest.mark.parametrize("reader", ["c", "csv"])
def test_load_external_field_longer_than_csv_field_limit(tmp_path, request, c_reader, reader):
    if reader == "csv":
        request.getfixturevalue("csv_reader_only")
    note = "x" * 140_000            # csv.reader's default limit is 131,072 characters
    path = tmp_path / "p.csv"
    path.write_text(f"record_id,predicted_label,note\nr0,external,{note}\n", encoding="utf-8")
    codes, _, _, _ = load_outcome(path, id_table(["r0"]))
    assert codes == [EXT]
    assert c_reader == ([True] if reader == "c" else [])


def test_prediction_set_rejects_surviving_unclassified():
    with pytest.raises(PredictionFormatError):
        tp.PredictionSet(codes=[len(CAUSE_CLASSES)], provenance="external:x")


def make_records(texts, causes=None, site="a", ids=None):
    """Records of ``texts`` with cause codes ``causes`` (default: none), None for no cause."""
    n = len(texts)
    causes = [NO_CAUSE if c is None else c for c in causes or [None] * n]
    return RecordTable(ids=ids or [f"r{i}" for i in range(n)], sites=[site] * n,
                       ages=[40.0] * n, narratives=texts, causes=causes)


def test_predict_all_one_per_record_and_deterministic():
    texts = ["fever cough days", "crash on the road", "burnt by fire"]
    train_texts = ["fever cough", "road crash", "fire burnt", "cough chills"]
    train_labels = [COM, EXT, EXT, COM]
    vocab = vocab_of(train_texts)
    vectors = vectors_of(train_texts, vocab)
    model = tp.train_nb(vectors, train_labels, vocabulary=vocab)
    corpus = tp.tokenize_corpus(texts)
    ps1 = tp.predict_all(model, corpus)
    ps2 = tp.predict_all(model, corpus)
    assert len(ps1.codes) == 3 and (ps1.codes != NO_CAUSE).all()
    assert ps1.provenance == "nb"
    assert np.array_equal(ps1.codes, ps2.codes)


def test_predict_all_confusion_marginals_match_hand_tally():
    from multippi import experiment
    texts = ["fever cough", "cough fever chills", "crash road", "road accident crash",
             "burnt fire", "fever days", "fell tree", "cough blood", "fire house",
             "crash bus"]
    truth = [COM, COM, EXT, EXT, EXT, COM, EXT, COM, EXT, EXT]
    vocab = vocab_of(texts)
    vectors = vectors_of(texts, vocab)
    model = tp.train_nb(vectors, truth, vocabulary=vocab)
    records = make_records(texts, causes=truth)
    ps = tp.predict_all(model, tp.tokenize_corpus(texts))
    cm = experiment.confusion_matrix(records.causes, ps.codes)
    # independent tally of marginals
    pred_list = ps.codes.tolist()
    for cause in range(len(CAUSE_CLASSES)):
        assert cm.counts[cause].sum() == sum(1 for t in truth if t == cause)
        assert cm.counts[:, cause].sum() == sum(1 for p in pred_list if p == cause)


# -- serialization --------------------------------------------------------------

# The kind-specific model.json keys docs/formats.md lists ("Text model JSON").
MODEL_KEYS = {"nb": ("classes", "alpha", "log_priors", "log_likelihoods"),
              "knn": ("classes", "k", "labels", "vectors"),     # classes is null
              "svm": ("classes", "c", "epochs", "seed", "weights", "biases")}


@pytest.mark.parametrize("kind", ["nb", "knn", "svm"])
def test_model_serialization_round_trip(kind):
    rng = np.random.default_rng(9)
    corpus = [" ".join(rng.choice(list("abcdef"), size=6)) for _ in range(12)]
    labels = [i % 3 for i in range(12)]
    vocab = vocab_of(corpus)
    weighting = "count" if kind == "nb" else "tfidf"
    vectors = vectors_of(corpus, vocab, weighting)
    if kind == "nb":
        model = tp.train_nb(vectors, labels, vocabulary=vocab)
    elif kind == "knn":
        model = tp.train_knn(vectors, labels, k=3, vocabulary=vocab)
    else:
        model = tp.train_svm_ovr(vectors, labels, vocabulary=vocab)
    text = json.dumps(tp.model_to_dict(model), sort_keys=True)
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True) == text
    assert doc["format"] == "multippi-text-model" and doc["version"] == 1
    assert doc["kind"] == kind and doc["weighting"] == weighting
    assert set(doc["vocabulary"]) == {"index", "doc_freq", "n_docs",
                                      "total_tokens_raw", "total_tokens_kept"}
    assert set(MODEL_KEYS[kind]) <= set(doc)
