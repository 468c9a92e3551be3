"""PHMRC-style CSV ingestion into a columnar RecordTable: cause mapping,
adult filtering, and splits.

Input files are UTF-8 CSV with a header row (RFC 4180 quoting). Column
roles are bound by configuration rather than hard-coded names, so any
file with the same roles loads unchanged. ``load_records`` streams the
bound fields into one list per column and returns a ``RecordTable``:
id, site and narrative columns, a float age array, and an int8 cause
code per record over ``CAUSE_CLASSES`` (``NO_CAUSE`` = -1). Ages and
cause labels are parsed once per distinct string. Records for decedents
under 12 years are dropped at load time and counted in the summary.
"""

from __future__ import annotations

import csv
import enum
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CauseMapError, ParameterError, SchemaError, SplitError


class CodClass(enum.Enum):
    """Broad cause-of-death classes, plus a sentinel for unclassified predictions.

    Enumeration order is fixed: it is the tie-break order for classifiers
    and the default class ordering in reports.
    """

    NON_COMMUNICABLE = "non-communicable"
    COMMUNICABLE = "communicable"
    EXTERNAL = "external"
    MATERNAL = "maternal"
    AIDS_TB = "aids-tb"
    UNCLASSIFIED = "unclassified"


CAUSE_CLASSES: tuple[CodClass, ...] = tuple(c for c in CodClass if c is not CodClass.UNCLASSIFIED)

# 34 fine-grained PHMRC all-cause mortality labels -> broad class.
# Implemented verbatim from the bundled PHMRC grouping table, including
# the malaria -> non-communicable row (flagged at load time; see
# MALARIA_NOTE).
CAUSE_MAP: dict[str, CodClass] = {
    "cirrhosis": CodClass.NON_COMMUNICABLE,
    "epilepsy": CodClass.NON_COMMUNICABLE,
    "pneumonia": CodClass.COMMUNICABLE,
    "copd": CodClass.NON_COMMUNICABLE,
    "acute myocardial infarction": CodClass.NON_COMMUNICABLE,
    "fires": CodClass.EXTERNAL,
    "renal failure": CodClass.NON_COMMUNICABLE,
    "lung cancer": CodClass.NON_COMMUNICABLE,
    "maternal": CodClass.MATERNAL,
    "drowning": CodClass.EXTERNAL,
    "other cardiovascular diseases": CodClass.NON_COMMUNICABLE,
    "aids": CodClass.AIDS_TB,
    "other non-communicable diseases": CodClass.NON_COMMUNICABLE,
    "falls": CodClass.EXTERNAL,
    "road traffic": CodClass.EXTERNAL,
    "diabetes": CodClass.NON_COMMUNICABLE,
    "other infectious diseases": CodClass.COMMUNICABLE,
    "tb": CodClass.AIDS_TB,
    "suicide": CodClass.EXTERNAL,
    "other injuries": CodClass.EXTERNAL,
    "cervical cancer": CodClass.NON_COMMUNICABLE,
    "stroke": CodClass.NON_COMMUNICABLE,
    "malaria": CodClass.NON_COMMUNICABLE,
    "asthma": CodClass.NON_COMMUNICABLE,
    "colorectal cancer": CodClass.NON_COMMUNICABLE,
    "homicide": CodClass.EXTERNAL,
    "diarrhea/dysentery": CodClass.COMMUNICABLE,
    "breast cancer": CodClass.NON_COMMUNICABLE,
    "leukemia/lymphomas": CodClass.NON_COMMUNICABLE,
    "poisonings": CodClass.EXTERNAL,
    "prostate cancer": CodClass.NON_COMMUNICABLE,
    "esophageal cancer": CodClass.NON_COMMUNICABLE,
    "stomach cancer": CodClass.NON_COMMUNICABLE,
    "bite of venomous animal": CodClass.EXTERNAL,
}

MALARIA_NOTE = (
    "fine cause 'malaria' maps to 'non-communicable' in the bundled PHMRC "
    "grouping table; this deviates from the usual communicable grouping and "
    "is kept verbatim for fidelity to the source table"
)

ADULT_MIN_AGE = 12.0

# A record's cause is coded as its index into CAUSE_CLASSES.
NO_CAUSE = -1                   # code of a record without a true cause
_UNKNOWN_CAUSE = -2             # code of a label map_cause rejects

# Indexed by cause code: the class / its value; NO_CAUSE reads None / "".
CLASS_OF_CODE = np.array(CAUSE_CLASSES + (None,), dtype=object)
VALUE_OF_CODE = np.array([c.value for c in CAUSE_CLASSES] + [""], dtype=object)
# Lowercased label -> code: fine labels, then broad class names.
# "unclassified" is never a true cause, and "" is no cause.
_CAUSE_CODE = {"": NO_CAUSE, **{label: CAUSE_CLASSES.index(c) for label, c in CAUSE_MAP.items()},
               **{c.value: i for i, c in enumerate(CAUSE_CLASSES)}}


def map_cause(fine_label: str) -> CodClass:
    """Map a fine-grained cause label (case/whitespace-insensitive) to its class.

    Broad class names are accepted as-is so non-PHMRC files that already
    carry broad labels ingest unchanged.
    """
    code = _CAUSE_CODE.get(fine_label.strip().lower(), _UNKNOWN_CAUSE)
    if code < 0:
        raise CauseMapError(f"unknown cause label: {fine_label!r}")
    return CAUSE_CLASSES[code]


@dataclass(frozen=True)
class ColumnMap:
    """Binding of CSV column names to record roles; cause is optional."""

    id: str
    site: str
    age: str
    narrative: str
    cause: str | None = None

    REQUIRED = ("id", "site", "age", "narrative")

    @classmethod
    def from_pairs(cls, pairs: dict[str, str]) -> "ColumnMap":
        missing = [r for r in cls.REQUIRED if r not in pairs]
        if missing:
            raise SchemaError(f"column map missing roles: {missing}")
        known = {"id", "site", "age", "narrative", "cause"}
        unknown = set(pairs) - known
        if unknown:
            raise SchemaError(f"unknown column roles: {sorted(unknown)}")
        return cls(**pairs)

    @classmethod
    def from_string(cls, text: str) -> "ColumnMap":
        """Parse inline 'role=column,role=column' bindings."""
        pairs = {}
        for chunk in text.split(","):
            if not chunk.strip():
                continue
            if "=" not in chunk:
                raise SchemaError(f"bad column binding {chunk!r}; expected role=column")
            role, _, col = chunk.partition("=")
            pairs[role.strip()] = col.strip()
        return cls.from_pairs(pairs)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a small declarative key=value file ('#' starts a comment)."""
    entries = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def column_map_from_config(entries: dict[str, str]) -> ColumnMap:
    """Extract role bindings from a parsed config, ignoring non-role keys."""
    roles = {k: v for k, v in entries.items()
             if k in ("id", "site", "age", "narrative", "cause")}
    return ColumnMap.from_pairs(roles)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Death records as columns; row i of every column is one record.

    ``ids``, ``sites`` and ``narratives`` are object arrays of str,
    ``ages`` is float64, and ``causes`` holds each record's index into
    ``CAUSE_CLASSES`` as int8, ``NO_CAUSE`` where the record has none.
    """

    ids: np.ndarray
    sites: np.ndarray
    ages: np.ndarray
    narratives: np.ndarray
    causes: np.ndarray

    def __post_init__(self):
        for name in ("ids", "sites", "narratives"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=object))
        ages, causes = np.asarray(self.ages, dtype=float), np.asarray(self.causes)
        if {len(self.sites), len(ages), len(self.narratives), len(causes)} != {len(self.ids)}:
            raise SchemaError("record table columns differ in length")
        if causes.size and not NO_CAUSE <= causes.min() <= causes.max() < len(CAUSE_CLASSES):
            raise SchemaError(f"cause codes must lie in [{NO_CAUSE}, {len(CAUSE_CLASSES)})")
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "causes", causes.astype(np.int8))
        for bad, problem in ((self.sites == "", "an empty site"),
                             (~np.isfinite(ages), "a non-finite age"),
                             (ages < 0, "negative age")):
            if bad.any():
                raise SchemaError(f"record {self.ids[np.argmax(bad)]!r} has {problem}")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> "RecordTable":
        """The records at ``rows``, in that order."""
        return RecordTable(ids=self.ids[rows], sites=self.sites[rows], ages=self.ages[rows],
                           narratives=self.narratives[rows], causes=self.causes[rows])


@dataclass(frozen=True)
class RowError:
    row_number: int             # 1-based, header is row 1
    message: str


@dataclass
class LoadResult:
    """Records plus the load summary (filter counts, row errors, notes)."""

    records: RecordTable
    n_rows_read: int = 0
    n_filtered_age: int = 0
    row_errors: list[RowError] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        causes = self.records.causes
        per_cause = np.bincount(causes[causes != NO_CAUSE], minlength=len(CAUSE_CLASSES))
        return {
            "n_records": len(self.records),
            "n_rows_read": self.n_rows_read,
            "n_filtered_age": self.n_filtered_age,
            "n_row_errors": len(self.row_errors),
            "row_errors": [{"row": e.row_number, "message": e.message}
                           for e in self.row_errors],
            "site_counts": dict(sorted(Counter(self.records.sites.tolist()).items())),
            "cause_counts": dict(sorted((c.value, int(n))
                                        for c, n in zip(CAUSE_CLASSES, per_cause) if n)),
            "notes": list(self.notes),
        }


def _parse_age(raw: str) -> float | str:
    """The age in a raw field, or the row-error message it earns."""
    text = raw.strip()
    try:
        age = float(text)
    except ValueError:
        return f"unparseable age {text!r}"
    if not math.isfinite(age):
        return f"non-finite age {text!r}"
    if age < 0:
        return f"negative age {age}"
    return age


def load_records(path: str | Path, column_map: ColumnMap, *,
                 delimiter: str = ",", min_age: float = ADULT_MIN_AGE) -> LoadResult:
    """Load VA records from CSV into a RecordTable, mapping causes and
    applying the adult filter.

    Rows whose age does not parse, is not finite or is negative become
    row errors and the load continues; rows aged below ``min_age`` are
    dropped and counted. Only the remaining rows have their cause mapped
    and their site checked: the first of them with an unknown cause label
    raises CauseMapError, or with an empty site SchemaError (cause first
    within a row). Row numbers count CSV records, header = 1, blank lines
    skipped; a short row reads its missing fields as "".
    """
    path = Path(path)
    roles = ("id", "site", "age", "narrative", "cause")
    bound = {role: getattr(column_map, role) for role in roles
             if getattr(column_map, role) is not None}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, [])
        for problem, wrong in (("not in header", lambda col: col not in header),
                               ("more than once in header", lambda col: header.count(col) > 1)):
            if any(map(wrong, bound.values())):
                raise SchemaError(f"{path}: bound columns {problem}: " + ", ".join(
                    f"{role}->{col!r}" for role, col in sorted(bound.items()) if wrong(col)))
        # without a cause column the id field is read twice; the copy is unused
        at = [header.index(bound[role]) for role in ("id", "site", "age", "narrative")]
        at.append(header.index(bound.get("cause", column_map.id)))
        i_id, i_site, i_age, i_text, i_cause = at
        width = max(at) + 1
        ids, sites, ages, texts, causes = [], [], [], [], []
        for row in filter(None, reader):        # blank lines are skipped
            if len(row) < width:
                row += [""] * (width - len(row))
            ids.append(row[i_id])
            sites.append(row[i_site])
            ages.append(row[i_age])
            texts.append(row[i_text])
            causes.append(row[i_cause])
    # ages and causes are parsed once per distinct string
    age_or_error = {raw: _parse_age(raw) for raw in dict.fromkeys(ages)}
    age_of = {raw: v if isinstance(v, float) else np.nan for raw, v in age_or_error.items()}
    age = np.fromiter(map(age_of.__getitem__, ages), dtype=float, count=len(ages))
    bad = np.isnan(age)
    young = age < min_age
    keep = np.flatnonzero(~bad & ~young)

    def kept(column: list[str]) -> list[str]:
        return np.asarray(column, dtype=object)[keep].tolist()

    ids = np.asarray(list(map(str.strip, kept(ids))), dtype=object)
    sites = np.asarray(list(map(str.strip, kept(sites))), dtype=object)
    codes = np.full(len(keep), NO_CAUSE, dtype=np.int8)
    saw_malaria = False
    if column_map.cause is not None:
        causes = kept(causes)
        code_of = {raw: _CAUSE_CODE.get(raw.strip().lower(), _UNKNOWN_CAUSE)
                   for raw in dict.fromkeys(causes)}
        codes = np.fromiter(map(code_of.__getitem__, causes), dtype=np.int8, count=len(causes))
        saw_malaria = any(raw.strip().lower() == "malaria" for raw in code_of)
    offending = np.flatnonzero((codes == _UNKNOWN_CAUSE) | (sites == ""))
    if offending.size:
        j = offending[0]
        if codes[j] == _UNKNOWN_CAUSE:
            map_cause(causes[j].strip())        # raises CauseMapError
        raise SchemaError(f"record {ids[j]!r} has an empty site")
    result = LoadResult(
        records=RecordTable(ids=ids, sites=sites, ages=age[keep],
                            narratives=kept(texts), causes=codes),
        n_rows_read=len(ages), n_filtered_age=int(young.sum()),
        row_errors=[RowError(int(j) + 2, age_or_error[ages[j]]) for j in np.flatnonzero(bad)])
    if saw_malaria:
        result.notes.append(MALARIA_NOTE)
        warnings.warn(MALARIA_NOTE, UserWarning, stacklevel=2)
    return result


@dataclass(frozen=True)
class SplitSpec:
    """How to carve records into labeled and unlabeled subsets."""

    strategy: str = "full-random"           # or "stratified-by-cause"
    labeled_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in ("full-random", "stratified-by-cause"):
            raise ParameterError(f"unknown split strategy {self.strategy!r}")
        if not 0.0 < self.labeled_fraction < 1.0:
            raise ParameterError(
                f"labeled_fraction must lie in (0, 1), got {self.labeled_fraction}")


@dataclass(frozen=True)
class DataSplit:
    labeled: np.ndarray
    unlabeled: np.ndarray
    spec: SplitSpec

    def to_dict(self) -> dict:
        return {
            "strategy": self.spec.strategy,
            "labeled_fraction": self.spec.labeled_fraction,
            "seed": self.spec.seed,
            "n_labeled": int(len(self.labeled)),
            "n_unlabeled": int(len(self.unlabeled)),
        }


def _round_half_up(value: float) -> int:
    return int(np.floor(value + 0.5))


def split(records: RecordTable, spec: SplitSpec) -> DataSplit:
    """Deterministic labeled/unlabeled partition of record indices.

    full-random draws round(fraction * total) indices uniformly;
    stratified-by-cause rounds the fraction within each cause class so
    per-class proportions deviate by at most one record.
    """
    total = len(records)
    if total < 2:
        raise SplitError(f"need at least 2 records to split, got {total}")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.strategy == "full-random":
        n_labeled = _round_half_up(spec.labeled_fraction * total)
        perm = rng.permutation(total)
        labeled = np.sort(perm[:n_labeled])
        unlabeled = np.sort(perm[n_labeled:])
    else:
        n_missing = int((records.causes == NO_CAUSE).sum())
        if n_missing:
            raise SplitError(
                f"stratified-by-cause split needs every record labeled; "
                f"{n_missing} records lack a true cause")
        labeled_parts, unlabeled_parts = [], []
        for code, cause in enumerate(CAUSE_CLASSES):
            members = np.flatnonzero(records.causes == code)
            if not members.size:
                continue
            if len(members) < 2:
                raise SplitError(
                    f"cause class {cause.value!r} has {len(members)} record(s); "
                    "need at least 2 for a stratified split")
            n_lab = _round_half_up(spec.labeled_fraction * len(members))
            perm = rng.permutation(len(members))
            labeled_parts.append(members[perm[:n_lab]])
            unlabeled_parts.append(members[perm[n_lab:]])
        labeled = np.sort(np.concatenate(labeled_parts))
        unlabeled = np.sort(np.concatenate(unlabeled_parts))
    return DataSplit(labeled=labeled, unlabeled=unlabeled, spec=spec)
