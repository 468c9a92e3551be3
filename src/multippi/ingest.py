"""PHMRC-style CSV ingestion: cause mapping, adult filtering, and splits.

Input files are UTF-8 CSV with a header row (RFC 4180 quoting). Column
roles are bound by configuration rather than hard-coded names, so any
file with the same roles loads unchanged. Records for decedents under
12 years are dropped at load time and counted in the summary.
"""

from __future__ import annotations

import csv
import enum
import warnings
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

_BROAD_BY_VALUE = {c.value: c for c in CAUSE_CLASSES}


def map_cause(fine_label: str) -> CodClass:
    """Map a fine-grained cause label (case/whitespace-insensitive) to its class.

    Broad class names are accepted as-is so non-PHMRC files that already
    carry broad labels ingest unchanged.
    """
    key = fine_label.strip().lower()
    if key in _BROAD_BY_VALUE:
        return _BROAD_BY_VALUE[key]
    if key in CAUSE_MAP:
        return CAUSE_MAP[key]
    raise CauseMapError(f"unknown cause label: {fine_label!r}")


@dataclass(frozen=True)
class VaRecord:
    """One death record: identifiers, covariates, narrative, optional labels."""

    record_id: str
    site: str
    age: float
    narrative: str
    true_cause: CodClass | None = None

    def __post_init__(self):
        if not self.site:
            raise SchemaError(f"record {self.record_id!r} has an empty site")
        if self.age < 0:
            raise SchemaError(f"record {self.record_id!r} has negative age")
        if self.narrative is None:
            raise SchemaError(f"record {self.record_id!r} has no narrative field")


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


@dataclass(frozen=True)
class RowError:
    row_number: int             # 1-based, header is row 1
    message: str


@dataclass
class LoadResult:
    """Records plus the load summary (filter counts, row errors, notes)."""

    records: list[VaRecord]
    n_rows_read: int = 0
    n_filtered_age: int = 0
    row_errors: list[RowError] = field(default_factory=list)
    site_counts: dict[str, int] = field(default_factory=dict)
    cause_counts: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "n_records": len(self.records),
            "n_rows_read": self.n_rows_read,
            "n_filtered_age": self.n_filtered_age,
            "n_row_errors": len(self.row_errors),
            "row_errors": [{"row": e.row_number, "message": e.message}
                           for e in self.row_errors],
            "site_counts": dict(sorted(self.site_counts.items())),
            "cause_counts": dict(sorted(self.cause_counts.items())),
            "notes": list(self.notes),
        }


def load_records(path: str | Path, column_map: ColumnMap, *,
                 delimiter: str = ",", min_age: float = ADULT_MIN_AGE) -> LoadResult:
    """Load VA records from CSV, mapping causes and applying the adult filter.

    Malformed rows (unparseable age) are collected as row errors and the
    load continues; unknown cause labels fail hard. Rows with age below
    ``min_age`` are dropped and counted.
    """
    path = Path(path)
    result = LoadResult(records=[])
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        header = reader.fieldnames or []
        bound = {"id": column_map.id, "site": column_map.site,
                 "age": column_map.age, "narrative": column_map.narrative}
        if column_map.cause is not None:
            bound["cause"] = column_map.cause
        missing = {role: col for role, col in bound.items() if col not in header}
        if missing:
            raise SchemaError(
                f"{path}: bound columns not in header: "
                + ", ".join(f"{role}->{col!r}" for role, col in sorted(missing.items())))
        saw_malaria = False
        for row_number, row in enumerate(reader, start=2):
            result.n_rows_read += 1
            raw_age = (row.get(column_map.age) or "").strip()
            try:
                age = float(raw_age)
            except ValueError:
                result.row_errors.append(RowError(row_number, f"unparseable age {raw_age!r}"))
                continue
            if age < 0:
                result.row_errors.append(RowError(row_number, f"negative age {age}"))
                continue
            if age < min_age:
                result.n_filtered_age += 1
                continue
            true_cause = None
            if column_map.cause is not None:
                raw_cause = (row.get(column_map.cause) or "").strip()
                if raw_cause:
                    if raw_cause.lower() == "malaria":
                        saw_malaria = True
                    # map_cause rejects "unclassified": it is never a true cause
                    true_cause = map_cause(raw_cause)
            record = VaRecord(
                record_id=(row.get(column_map.id) or "").strip(),
                site=(row.get(column_map.site) or "").strip(),
                age=age,
                narrative=row.get(column_map.narrative) or "",
                true_cause=true_cause,
            )
            result.records.append(record)
            result.site_counts[record.site] = result.site_counts.get(record.site, 0) + 1
            if true_cause is not None:
                result.cause_counts[true_cause.value] = \
                    result.cause_counts.get(true_cause.value, 0) + 1
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


def split(records: list[VaRecord], spec: SplitSpec) -> DataSplit:
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
        missing = [r.record_id for r in records if r.true_cause is None]
        if missing:
            raise SplitError(
                f"stratified-by-cause split needs every record labeled; "
                f"{len(missing)} records lack a true cause")
        groups: dict[CodClass, list[int]] = {}
        for idx, record in enumerate(records):
            groups.setdefault(record.true_cause, []).append(idx)
        labeled_parts, unlabeled_parts = [], []
        for cause in CAUSE_CLASSES:
            if cause not in groups:
                continue
            members = np.asarray(groups[cause])
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
