"""Seeded inputs for the benchmark: PHMRC-schema CSVs, the column-binding
config, and external-prediction CSVs.

Everything here depends only on the seed and the requested sizes, so one seed
always yields the same bytes. The package under test is never imported.

Narrative model. Each fine cause (the 34 labels of the PHMRC grouping table)
owns a few signal words, and each broad class a few more shared by its fine
causes. A document is written from a *presented* cause, which is the true fine
cause except for a share of records written as if another cause were true; the
rest of its tokens are filler drawn from a general vocabulary plus one that only
its site uses. The presented-cause share caps what a bag-of-words classifier can
reach, which puts NB and KNN near the PHMRC references (0.60 and 0.63) rather
than at 1.0, and the site vocabularies make held-out sites harder than
in-sample ones.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Fine PHMRC label -> broad class, as in the package's grouping table
# (malaria is grouped as non-communicable there).
FINE_CAUSES = {
    "non-communicable": [
        "cirrhosis", "epilepsy", "copd", "acute myocardial infarction",
        "renal failure", "lung cancer", "other cardiovascular diseases",
        "other non-communicable diseases", "diabetes", "cervical cancer",
        "stroke", "malaria", "asthma", "colorectal cancer", "breast cancer",
        "leukemia/lymphomas", "prostate cancer", "esophageal cancer",
        "stomach cancer"],
    "communicable": ["pneumonia", "other infectious diseases", "diarrhea/dysentery"],
    "external": ["fires", "drowning", "falls", "road traffic", "suicide",
                 "other injuries", "homicide", "poisonings", "bite of venomous animal"],
    "maternal": ["maternal"],
    "aids-tb": ["aids", "tb"],
}
CLASSES = tuple(FINE_CAUSES)
CLASS_PRIOR = np.array([0.52, 0.14, 0.12, 0.07, 0.15])
SITES = ("AP", "Bohol", "Dar", "Mexico", "Pemba", "UP")
# Mean and sd of age at death per broad class (years); maternal is uniform.
AGE_MODEL = {"non-communicable": (62.0, 15.0), "communicable": (48.0, 20.0),
             "external": (36.0, 15.0), "aids-tb": (39.0, 12.0)}
MATERNAL_AGES = (16, 46)
CHILD_SHARE = 0.04                     # rows under 12, dropped by the age filter

# Narrative knobs (tuned so NB/KNN land near the PHMRC reference accuracies).
PRESENTED_OTHER = 0.58                 # share written as another cause
SIGNAL_SHARE = 0.10                    # share of tokens that are signal words
FINE_WORDS, CLASS_WORDS = 5, 12
GENERAL_WORDS, SITE_WORDS = 2500, 300

# External predictions: diagonal accuracy per broad class, errors spread
# towards non-communicable (the majority) and the confusable classes.
PRED_CONFUSION = np.array([
    [0.70, 0.10, 0.05, 0.03, 0.12],
    [0.25, 0.50, 0.05, 0.02, 0.18],
    [0.20, 0.07, 0.66, 0.02, 0.05],
    [0.25, 0.08, 0.02, 0.60, 0.05],
    [0.22, 0.20, 0.03, 0.02, 0.53],
])
UNCLASSIFIED_SHARE = 0.01

COLUMNS_CFG = ("# PHMRC adult column bindings\n"
               "id = newid\nsite = site\nage = g1_07a\n"
               "narrative = open_response\ncause = gs_text34\n")
HEADER = ("newid", "site", "g1_07a", "g2_01", "open_response", "gs_text34")


def _lexicon() -> list[str]:
    """Fixed pseudo-word list, the same for every seed."""
    onsets = ["b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
              "ch", "sh", "th", "kr", "tr", "pl", "st"]
    vowels = ["a", "e", "i", "o", "u", "ai", "ou"]
    syllables = [o + v for o in onsets for v in vowels]
    words = [a + b for a in syllables for b in syllables]
    order = np.random.default_rng(20240402).permutation(len(words))
    return [words[i] for i in order]


class Lexicon:
    """Word ids for signal, general and site vocabularies over one word list."""

    def __init__(self):
        self.words = np.asarray(_lexicon(), dtype=object)
        fines = [f for c in CLASSES for f in FINE_CAUSES[c]]
        self.fine_causes = fines
        self.fine_class = np.array([CLASSES.index(c) for c in CLASSES for _ in FINE_CAUSES[c]])
        self.fine_words = np.arange(len(fines) * FINE_WORDS).reshape(len(fines), FINE_WORDS)
        nxt = self.fine_words.size
        self.class_words = nxt + np.arange(len(CLASSES) * CLASS_WORDS).reshape(len(CLASSES), -1)
        nxt += self.class_words.size
        self.general = nxt + np.arange(GENERAL_WORDS)
        nxt += GENERAL_WORDS
        self.site_words = nxt + np.arange(len(SITES) * SITE_WORDS).reshape(len(SITES), -1)
        nxt += self.site_words.size
        if nxt > len(self.words):
            raise ValueError("lexicon too small for the vocabulary layout")
        zipf = 1.0 / np.arange(1, GENERAL_WORDS + 1) ** 1.05
        self.general_p = zipf / zipf.sum()
        zipf = 1.0 / np.arange(1, SITE_WORDS + 1)
        self.site_p = zipf / zipf.sum()


def _sample_rows(rng: np.random.Generator, n_adult: int, lex: Lexicon):
    """Site, age, fine cause and presented cause for adult and child rows."""
    n_child = int(round(n_adult * CHILD_SHARE / (1 - CHILD_SHARE)))
    total = n_adult + n_child
    site = rng.integers(0, len(SITES), size=total)
    site_prior = rng.dirichlet(CLASS_PRIOR * 200, size=len(SITES))
    u = rng.random(total)
    broad = (u[:, None] > np.cumsum(site_prior[site], axis=1)[:, :-1]).sum(axis=1)
    fine = np.empty(total, dtype=np.int64)
    for ci, cls in enumerate(CLASSES):
        members = np.nonzero(lex.fine_class == ci)[0]
        rows = np.nonzero(broad == ci)[0]
        weights = 1.0 / np.arange(1, len(members) + 1) ** 0.5
        fine[rows] = rng.choice(members, size=len(rows), p=weights / weights.sum())
    age = np.empty(total)
    for ci, cls in enumerate(CLASSES):
        rows = np.nonzero(broad == ci)[0]
        if cls == "maternal":
            age[rows] = rng.integers(*MATERNAL_AGES, size=len(rows))
        else:
            mean, sd = AGE_MODEL[cls]
            age[rows] = np.clip(np.round(rng.normal(mean, sd, size=len(rows))), 12, 104)
    child = rng.permutation(total)[:n_child]
    age[child] = rng.integers(0, 12, size=n_child)
    presented = fine.copy()
    other = rng.random(total) < PRESENTED_OTHER
    presented[other] = rng.integers(0, len(lex.fine_causes), size=int(other.sum()))
    return site, age, fine, broad, presented


def _narratives(rng: np.random.Generator, lex: Lexicon, site: np.ndarray,
                presented: np.ndarray, mean_len: int) -> list[str]:
    total = len(site)
    lengths = 6 + rng.poisson(mean_len - 6, size=total)
    starts = np.concatenate([[0], np.cumsum(lengths)])
    n_tok = int(starts[-1])
    doc = np.repeat(np.arange(total), lengths)
    kind = rng.random(n_tok)
    tokens = np.empty(n_tok, dtype=np.int64)
    general = kind >= SIGNAL_SHARE
    from_site = general & (rng.random(n_tok) < 0.25)
    from_general = general & ~from_site
    tokens[from_general] = lex.general[
        rng.choice(GENERAL_WORDS, size=int(from_general.sum()), p=lex.general_p)]
    tokens[from_site] = lex.site_words[
        site[doc[from_site]], rng.choice(SITE_WORDS, size=int(from_site.sum()), p=lex.site_p)]
    signal = ~general
    fine_sig = signal & (rng.random(n_tok) < 0.55)
    class_sig = signal & ~fine_sig
    tokens[fine_sig] = lex.fine_words[
        presented[doc[fine_sig]], rng.integers(0, FINE_WORDS, size=int(fine_sig.sum()))]
    tokens[class_sig] = lex.class_words[
        lex.fine_class[presented[doc[class_sig]]],
        rng.integers(0, CLASS_WORDS, size=int(class_sig.sum()))]
    words = lex.words[tokens]
    return [" ".join(words[starts[i]:starts[i + 1]]) + "." for i in range(total)]


def write_phmrc_csv(path: Path, seed: int, n_adult: int, mean_len: int) -> dict:
    """Write a PHMRC-schema CSV; return adult ids, their broad truth, and sizes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    lex = Lexicon()
    site, age, fine, broad, presented = _sample_rows(rng, n_adult, lex)
    text = _narratives(rng, lex, site, presented, mean_len)
    sex = rng.integers(1, 3, size=len(site))
    ids = [f"r{i:07d}" for i in range(len(site))]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for i in range(len(site)):
            writer.writerow((ids[i], SITES[site[i]], int(age[i]), int(sex[i]), text[i],
                             lex.fine_causes[fine[i]]))
    adult = age >= 12
    return {"ids": [ids[i] for i in np.nonzero(adult)[0]],
            "broad": broad[adult],
            "rows": len(site), "adult_rows": int(adult.sum()),
            "child_rows": int((~adult).sum())}


def write_predictions(path: Path, seed: int, ids: list[str], broad: np.ndarray) -> dict:
    """External predictions for exactly the given (adult) ids."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    cum = np.cumsum(PRED_CONFUSION, axis=1)
    pred = (rng.random(len(ids))[:, None] > cum[broad][:, :-1]).sum(axis=1)
    labels = np.asarray(CLASSES, dtype=object)[pred]
    unclassified = rng.random(len(ids)) < UNCLASSIFIED_SHARE
    labels[unclassified] = "unclassified"
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("record_id", "predicted_label"))
        writer.writerows(zip(ids, labels))
    return {"predictions": len(ids), "unclassified": int(unclassified.sum())}


def write_columns(path: Path) -> None:
    Path(path).write_text(COLUMNS_CFG, encoding="utf-8")


def make_corpus(directory: Path, seed: int, n_adult: int, mean_len: int) -> dict:
    """Records CSV, column config and external predictions in one directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"records": directory / "records.csv", "columns": directory / "columns.cfg",
             "predictions": directory / "predictions.csv"}
    info = write_phmrc_csv(paths["records"], seed, n_adult, mean_len)
    write_columns(paths["columns"])
    pred = write_predictions(paths["predictions"], seed, info["ids"], info["broad"])
    sizes = {"rows": info["rows"], "adult_rows": info["adult_rows"],
             "child_rows": info["child_rows"], **pred}
    return {"paths": {k: str(v) for k, v in paths.items()}, "sizes": sizes}
