"""CSV loading into the record table, cause mapping, and labeled/unlabeled splits."""

import csv
import io
import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

import oracles
from multippi import ingest
from multippi.errors import CauseMapError, ParameterError, SchemaError, SplitError
from multippi.ingest import (CAUSE_CLASSES, CAUSE_MAP, NO_CAUSE, CodClass,
                             ColumnMap, RecordTable, SplitSpec, map_cause, split)

COLUMNS = ColumnMap(id="id", site="site", age="age", narrative="text", cause="cause")


def write_csv(path, rows, header="id,site,age,text,cause"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def make_records(n, causes=None, site="a", seed=0):
    rng = np.random.default_rng(seed)
    causes = causes or [CAUSE_CLASSES[i % 5] for i in range(n)]
    return oracles.record_table([(f"r{i:04d}", site, float(20 + rng.integers(0, 60)),
                                  "some text", causes[i]) for i in range(n)])


def causes_of(table):
    return [None if c == NO_CAUSE else CAUSE_CLASSES[c] for c in table.causes.tolist()]


# -- cause map ---------------------------------------------------------------

def test_cause_map_has_34_total_entries():
    assert len(CAUSE_MAP) == 34
    assert all(isinstance(v, CodClass) for v in CAUSE_MAP.values())


def test_cause_map_surjective_onto_broad_classes():
    assert set(CAUSE_MAP.values()) == set(CAUSE_CLASSES)


def test_map_cause_examples():
    assert map_cause("fires") is CodClass.EXTERNAL
    assert map_cause("pneumonia") is CodClass.COMMUNICABLE
    # kept verbatim from the grouping table despite the usual convention
    assert map_cause("malaria") is CodClass.NON_COMMUNICABLE


def test_map_cause_normalizes_case_and_whitespace():
    assert map_cause("  Road Traffic ") is CodClass.EXTERNAL
    assert map_cause("AIDS") is CodClass.AIDS_TB


def test_map_cause_accepts_broad_labels():
    assert map_cause("external") is CodClass.EXTERNAL
    assert map_cause("aids-tb") is CodClass.AIDS_TB


def test_map_cause_unknown_label():
    with pytest.raises(CauseMapError, match="plague"):
        map_cause("plague")


# -- loading -----------------------------------------------------------------

def test_load_filters_children_and_counts(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        "r1,a,30,fell from a tree,falls",
        "r2,a,45,high fever for days,pneumonia",
        "r3,b,78,sudden chest pain,acute myocardial infarction",
        "r4,b,4,short illness,pneumonia",
    ])
    result = ingest.load_records(path, COLUMNS)
    assert len(result.records) == 3
    assert result.n_filtered_age == 1
    assert result.summary()["site_counts"] == {"a": 2, "b": 1}


def test_load_without_cause_column(tmp_path):
    path = write_csv(tmp_path / "d.csv",
                     ["r1,a,30,text one", "r2,a,40,text two"],
                     header="id,site,age,text")
    cols = ColumnMap(id="id", site="site", age="age", narrative="text")
    result = ingest.load_records(path, cols)
    assert (result.records.causes == NO_CAUSE).all()


def test_load_collects_row_errors_and_continues(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        "r1,a,30,fine,falls",
        "r2,a,unknown,bad age,falls",
        "r3,a,-3,negative,falls",
        "r4,a,50,fine,falls",
    ])
    result = ingest.load_records(path, COLUMNS)
    assert len(result.records) == 2
    assert [e.row_number for e in result.row_errors] == [3, 4]
    assert "unparseable age" in result.row_errors[0].message


def test_load_missing_bound_column(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["r1,a,30,text,falls"])
    bad = ColumnMap(id="id", site="site", age="years", narrative="text", cause="cause")
    with pytest.raises(SchemaError, match="years"):
        ingest.load_records(path, bad)


def test_load_unknown_cause_fails_hard(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["r1,a,30,text,plague"])
    with pytest.raises(CauseMapError):
        ingest.load_records(path, COLUMNS)


def test_load_warns_on_malaria_rows(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["r1,a,30,fever and chills,malaria"])
    with pytest.warns(UserWarning, match="malaria"):
        result = ingest.load_records(path, COLUMNS)
    assert causes_of(result.records) == [CodClass.NON_COMMUNICABLE]
    assert any("malaria" in note for note in result.notes)


def test_load_summary_shape(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["r1,a,30,text,falls"])
    summary = ingest.load_records(path, COLUMNS).summary()
    for key in ("n_records", "n_filtered_age", "n_row_errors", "site_counts",
                "cause_counts", "notes"):
        assert key in summary


def test_load_custom_delimiter(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id;site;age;text;cause\nr1;a;30;text here;falls\n",
                    encoding="utf-8")
    result = ingest.load_records(path, COLUMNS, delimiter=";")
    assert len(result.records) == 1
    assert causes_of(result.records) == [CodClass.EXTERNAL]


def test_load_quoted_fields(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('id,site,age,text,cause\n'
                    'r1,a,30,"fell, hit head, died",falls\n', encoding="utf-8")
    result = ingest.load_records(path, COLUMNS)
    assert result.records.narratives.tolist() == ["fell, hit head, died"]


def test_load_bom_before_a_quoted_header_cell(tmp_path):
    # as written by exports that quote every field
    path = tmp_path / "d.csv"
    path.write_bytes(b'\xef\xbb\xbf"id","site","age","text","cause"\nr1,a,30,x,falls\n')
    result = ingest.load_records(path, COLUMNS)
    assert result.records.ids.tolist() == ["r1"]


def test_load_non_finite_ages_are_row_errors(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        "r1,a,30,fine,falls",
        "r2,a,nan,no age,falls",
        "r3,a,inf,no age,falls",
        "r4,a, 1e400 ,no age,falls",
        "r5,a,-inf,no age,falls",
        "r6,a,50,fine,falls",
    ])
    result = ingest.load_records(path, COLUMNS)
    assert result.records.ids.tolist() == ["r1", "r6"]
    assert [(e.row_number, e.message) for e in result.row_errors] == [
        (3, "non-finite age 'nan'"), (4, "non-finite age 'inf'"),
        (5, "non-finite age '1e400'"), (6, "non-finite age '-inf'")]


def test_load_repeated_bound_column_in_header(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["r1,a,30,text,falls,40"],
                     header="id,site,age,text,cause,age")
    with pytest.raises(SchemaError, match="more than once.*age->'age'"):
        ingest.load_records(path, COLUMNS)
    # a repeated column that is not bound is ignored
    path = write_csv(tmp_path / "e.csv", ["r1,a,30,text,falls,x,y"],
                     header="id,site,age,text,cause,note,note")
    assert len(ingest.load_records(path, COLUMNS).records) == 1


def test_load_blank_lines_short_rows_and_stripping(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,site,age,text,cause\n\n r1 , a , 30 ,  padded text ,falls\n"
                    "\nr2,b,40\nr3,c\n", encoding="utf-8")
    result = ingest.load_records(path, ColumnMap(id="id", site="site", age="age",
                                                 narrative="text"))
    assert result.records.ids.tolist() == ["r1", "r2"]
    assert result.records.sites.tolist() == ["a", "b"]
    assert result.records.narratives.tolist() == ["  padded text ", ""]
    # blank lines are not counted: r3 is CSV record 4
    assert [(e.row_number, e.message) for e in result.row_errors] == [
        (4, "unparseable age ''")]
    assert result.n_rows_read == 3


def test_load_first_offending_kept_row_raises(tmp_path):
    rows = ["r1,a,5,child,plague", "r2,,8,child,falls", "r3,a,x,bad age,plague",
            "r4,,30,adult,falls", "r5,a,30,adult,plague"]
    path = write_csv(tmp_path / "d.csv", rows)
    with pytest.raises(SchemaError, match="'r4' has an empty site"):
        ingest.load_records(path, COLUMNS)
    path = write_csv(tmp_path / "e.csv", rows[:3] + ["r4,,30,adult,plague"])
    with pytest.raises(CauseMapError, match="plague"):
        ingest.load_records(path, COLUMNS)


def test_record_table_validation():
    def table(**changes):
        columns = {"ids": ["x"], "sites": ["a"], "ages": [30.0], "narratives": ["t"],
                   "causes": [0]}
        return RecordTable(**{**columns, **changes})

    assert len(table()) == 1
    with pytest.raises(SchemaError, match="empty site"):
        table(sites=[""])
    with pytest.raises(SchemaError, match="negative age"):
        table(ages=[-1.0])
    with pytest.raises(SchemaError, match="non-finite age"):
        table(ages=[np.nan])
    with pytest.raises(SchemaError, match="cause codes"):
        table(causes=[len(CAUSE_CLASSES)])
    with pytest.raises(SchemaError, match="differ in length"):
        table(ages=[30.0, 40.0])


FIELD_VALUES = {
    "id": ["r1", " r2 ", "r3", "", "x,y", "cr\rx", "crlf\r\nx"],
    "site": ["a", " b ", "c d", "", "  "],
    "age": ["30", " 45.5 ", "4", "11.9", "12", "-3", "abc", "", "nan", "inf", "-inf",
            "1e400", "1_000", "80"],
    "text": ["fell", "  spaced  ", 'said "hi"', "line\nbreak", "a,b;c|d\te", "", "cr\rx",
             "crlf\r\nx"],
    "cause": ["falls", " Pneumonia ", "malaria", "external", "AIDS", "", "  ",
              "plague", "unclassified"],
}


@st.composite
def csv_files(draw):
    """A header with the five bound columns and an extra one in random order,
    then records (some short), blank lines and whitespace-only lines, under a
    random delimiter."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    header = draw(st.permutations(["id", "site", "age", "text", "cause", "extra"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            buffer.write(draw(st.sampled_from(["\n", "\r\n", "  \n"])))
            continue
        row = [draw(st.sampled_from(FIELD_VALUES.get(col, ["z"]))) for col in header]
        writer.writerow(row[:draw(st.integers(1, len(row)))] if draw(st.booleans()) else row)
    return buffer.getvalue(), delimiter


@given(csv_files(), st.sampled_from([12.0, 0.0, 40.0]), st.booleans(), st.booleans())
@example(("id,site,age,text,cause,extra\r\nr1,a,4,t,plague,z\r\nr2,,30,t,plague,z\r\n", ","),
         12.0, True, True)
@settings(max_examples=200, deadline=None)
def test_table_matches_rowwise_loader(tmp_path_factory, case, min_age, with_cause, narratives):
    """Read by csv.reader (narratives loaded) or first offered to the C reader (not)."""
    text, delimiter = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    columns = ColumnMap(id="id", site="site", age="age", narrative="text",
                        cause="cause" if with_cause else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            want = oracles.load_records_rowwise(path, columns, delimiter, min_age)
        except (CauseMapError, SchemaError) as exc:
            with pytest.raises(type(exc)) as got:
                ingest.load_records(path, columns, delimiter=delimiter, min_age=min_age,
                                    narratives=narratives)
            assert str(got.value) == str(exc)
            return
        result = ingest.load_records(path, columns, delimiter=delimiter, min_age=min_age,
                                     narratives=narratives)
    records, summary = want
    table = result.records
    assert table.ids.tolist() == [r[0] for r in records]
    assert table.sites.tolist() == [r[1] for r in records]
    assert table.ages.tolist() == [r[2] for r in records]
    assert table.narratives.tolist() == [r[3] if narratives else None for r in records]
    assert causes_of(table) == [r[4] for r in records]
    assert result.summary() == summary


# -- the C reader and csv.reader -----------------------------------------------

PLAIN_ROWS = ["r1,a,30,fell from a tree,falls", "r2,b,45,fever,pneumonia", "r3,b,50,pain,stroke"]


def assert_loads_like_rowwise(path, narratives=False):
    """load_records's table and summary equal the row-wise oracle's. Without narratives
    the file is first offered to the C reader."""
    result = ingest.load_records(path, COLUMNS, narratives=narratives)
    records, summary = oracles.load_records_rowwise(path, COLUMNS)
    table = result.records
    assert list(zip(table.ids.tolist(), table.sites.tolist(), table.ages.tolist(),
                    table.narratives.tolist(), causes_of(table))) == [
        (i, s, a, t if narratives else None, c) for i, s, a, t, c in records]
    assert result.summary() == summary
    return result


# characters that CSV quoting, numpy's C reader or UTF-8 treat specially
CSV_ALPHABET = st.sampled_from(list("ab ,;|\t\"'#\\\r\nx") + ["é", "\x00", "\ufeff"])


@st.composite
def column_reads(draw):
    """A one-line header of ``width`` columns, a body, a delimiter, and the columns to read.

    The body is either full-width records written by csv.writer or raw text, which
    brings unbalanced quotes, ragged rows and whitespace-only lines.
    """
    delimiter = draw(st.sampled_from([",", ";", "\t", "|", " "]))
    width = draw(st.integers(2, 4))
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter,
                        lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([f"c{i}" for i in range(width)])
    if draw(st.booleans()):
        field = st.text(CSV_ALPHABET, max_size=5)
        writer.writerows(draw(st.lists(st.lists(field, min_size=width, max_size=width),
                                       max_size=6)))
    else:
        buffer.write(draw(st.text(CSV_ALPHABET, max_size=40)))
    at = draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=width))
    return draw(st.sampled_from(["", "\ufeff"])) + buffer.getvalue(), delimiter, at


@given(column_reads())
@settings(max_examples=300, deadline=None)
def test_c_reader_columns_equal_csv_readers(tmp_path_factory, case):
    """Wherever numpy's C reader returns columns, they are csv.reader's, value for value."""
    text, delimiter, at = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = [column.tolist() for column in ingest._read_columns(path, SchemaError, lambda h: at,
                                                              delimiter)]
    with mock.patch.object(ingest, "_loadtxt_columns", lambda *args: None):
        want = [column.tolist()
                for column in ingest._read_columns(path, SchemaError, lambda h: at, delimiter)]
    assert got == want


def test_c_reader_reads_a_plain_file(tmp_path, c_reader):
    path = tmp_path / "d.csv"
    path.write_bytes(("id,site,age,text,cause\r\n" + "\r\n".join(PLAIN_ROWS) + "\r\n\r\n")
                     .encode("utf-8"))
    assert_loads_like_rowwise(path)
    assert c_reader == [True]


def test_narratives_are_read_by_csv_reader_alone(tmp_path, c_reader):
    # a narrative may span lines; the C reader would then read such a file for nothing
    path = write_csv(tmp_path / "d.csv", PLAIN_ROWS)
    assert_loads_like_rowwise(path, narratives=True)
    assert c_reader == []


def test_short_row_goes_to_csv_reader(tmp_path, c_reader):
    path = write_csv(tmp_path / "d.csv", PLAIN_ROWS + ["r4,c,40"])
    result = assert_loads_like_rowwise(path)
    assert result.records.ids.tolist()[-1] == "r4"
    assert c_reader == [False]


def test_whitespace_only_line_goes_to_csv_reader(tmp_path, c_reader):
    path = write_csv(tmp_path / "d.csv", PLAIN_ROWS[:1] + ["   "] + PLAIN_ROWS[1:])
    result = assert_loads_like_rowwise(path)
    # the line is a record whose fields after the first are missing
    assert [(e.row_number, e.message) for e in result.row_errors] == [
        (3, "unparseable age ''")]
    assert c_reader == [False]


def test_multi_line_header_goes_to_csv_reader(tmp_path, c_reader):
    path = write_csv(tmp_path / "d.csv", [row + ",x" for row in PLAIN_ROWS],
                     header='id,site,age,text,cause,"note\non two lines"')
    assert_loads_like_rowwise(path)
    assert c_reader == []


@pytest.mark.parametrize("body", ["", "\n", "\r\n\n\r"], ids=["none", "newline", "blank-lines"])
def test_empty_body_loads_no_records_and_warns_nothing(tmp_path, c_reader, body):
    path = tmp_path / "d.csv"
    path.write_bytes(("id,site,age,text,cause" + body).encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = ingest.load_records(path, COLUMNS, narratives=False)
    assert caught == []
    assert len(result.records) == 0 and result.n_rows_read == 0
    assert c_reader == []


def test_undecodable_byte_names_its_offset_after_the_c_reader(tmp_path, c_reader):
    path = tmp_path / "d.csv"
    # past the first 8 KiB chunk, which the header's reader decodes before the C reader runs
    text = ("id,site,age,text,cause\n" + "\n".join(PLAIN_ROWS * 200) + "\n").encode("utf-8")
    at = text.rindex(b"fever")
    path.write_bytes(text[:at] + b"\xe9" + text[at:])      # Latin-1 e-acute
    with pytest.raises(SchemaError) as err:
        ingest.load_records(path, COLUMNS, narratives=False)
    assert str(err.value) == f"{path}: byte {at} is not UTF-8 (invalid continuation byte)"
    assert c_reader == [False]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
def test_fifo_is_read_once_by_csv_reader(tmp_path, c_reader):
    text = "id,site,age,text,cause\n" + "\n".join(PLAIN_ROWS) + "\n"
    want = ingest.load_records(write_csv(tmp_path / "d.csv", PLAIN_ROWS), COLUMNS,
                               narratives=False).records
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"})
    writer.start()
    got = ingest.load_records(fifo, COLUMNS, narratives=False).records
    writer.join()
    for name in ("ids", "sites", "ages", "narratives", "causes"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    assert c_reader == [True]       # the regular file only


def test_quoted_cr_in_a_kept_column_goes_to_csv_reader(tmp_path, c_reader):
    # read from a path, numpy turns a quoted \r or \r\n into \n; csv.reader keeps both
    path = tmp_path / "d.csv"
    path.write_bytes(b'id,site,age,text,cause\r\n"cr\rx",a,30,"cr\rx",falls\r\n'
                     b'"crlf\r\nx",a,40,"crlf\r\nx",falls\r\n')
    assert assert_loads_like_rowwise(path).records.ids.tolist() == ["cr\rx", "crlf\r\nx"]
    assert c_reader == [False]
    full = assert_loads_like_rowwise(path, narratives=True)
    assert full.records.narratives.tolist() == ["cr\rx", "crlf\r\nx"]
    # a narrative that is not read cannot differ
    path.write_bytes(b'id,site,age,text,cause\r\nr1,a,30,"cr\rx",falls\r\n'
                     b'r2,a,40,"crlf\r\nx",falls\r\n')
    assert assert_loads_like_rowwise(path).records.ids.tolist() == ["r1", "r2"]
    assert c_reader == [False, True]


def test_load_without_narratives_checks_the_binding_but_reads_no_text(tmp_path):
    path = write_csv(tmp_path / "d.csv", PLAIN_ROWS + ["r4,a,8,child,falls"])
    full = ingest.load_records(path, COLUMNS)
    bare = ingest.load_records(path, COLUMNS, narratives=False)
    assert bare.records.narratives.tolist() == [None] * 3
    for name in ("ids", "sites", "ages", "causes"):
        assert getattr(bare.records, name).tolist() == getattr(full.records, name).tolist()
    assert bare.summary() == full.summary()
    path = write_csv(tmp_path / "e.csv", ["r1,a,30,falls"], header="id,site,age,cause")
    with pytest.raises(SchemaError, match="not in header: narrative->'text'"):
        ingest.load_records(path, COLUMNS, narratives=False)


@pytest.mark.parametrize("reader", ["c", "csv"])
def test_field_longer_than_csv_field_limit_loads_intact(tmp_path, request, c_reader, reader):
    if reader == "csv":
        request.getfixturevalue("csv_reader_only")
    text = "x" * 140_000            # csv.reader's default limit is 131,072 characters
    path = write_csv(tmp_path / "d.csv", [f"r1,a,30,{text},falls", "r2,a,40,short,falls"],
                     header="id,site,age,text,cause,note")
    unread = ingest.load_records(path, COLUMNS, narratives=False)
    assert unread.records.ids.tolist() == ["r1", "r2"]
    assert c_reader == ([True] if reader == "c" else [])
    read = ingest.load_records(path, COLUMNS)          # csv.reader, whichever the first
    assert read.records.narratives.tolist() == [text, "short"]


# -- column map / config -----------------------------------------------------

def test_column_map_from_string():
    cm = ColumnMap.from_string("id=newid, site=site, age=age, narrative=open_response")
    assert cm.narrative == "open_response"
    assert cm.cause is None


def test_column_map_missing_role():
    with pytest.raises(SchemaError, match="missing"):
        ColumnMap.from_string("id=a,site=b,age=c")


def test_column_map_unknown_role():
    with pytest.raises(SchemaError, match="unknown"):
        ColumnMap.from_string("id=a,site=b,age=c,narrative=d,color=e")


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "cols.cfg"
    cfg.write_text("# bindings\nid = newid\nsite = site\nage = age\n"
                   "narrative = open_response\ncause = gs_text34\n"
                   "labeled_fraction = 0.2\n")
    entries = ingest.parse_config_file(cfg)
    cm = ingest.column_map_from_config(entries)
    assert cm.cause == "gs_text34"
    assert entries["labeled_fraction"] == "0.2"


# -- splits ------------------------------------------------------------------

def test_split_full_random_sizes_and_determinism():
    records = make_records(100)
    spec = SplitSpec(strategy="full-random", labeled_fraction=0.2, seed=7)
    first = split(records, spec)
    second = split(records, spec)
    assert len(first.labeled) == 20 and len(first.unlabeled) == 80
    assert np.array_equal(first.labeled, second.labeled)
    assert np.array_equal(first.unlabeled, second.unlabeled)


def test_split_stratified_proportional_rounding():
    causes = ([CodClass.NON_COMMUNICABLE] * 50 + [CodClass.COMMUNICABLE] * 30
              + [CodClass.EXTERNAL] * 20)
    records = make_records(100, causes=causes)
    result = split(records, SplitSpec(strategy="stratified-by-cause",
                                      labeled_fraction=0.2, seed=3))
    labeled_causes = [causes_of(records)[i] for i in result.labeled]
    assert labeled_causes.count(CodClass.NON_COMMUNICABLE) == 10
    assert labeled_causes.count(CodClass.COMMUNICABLE) == 6
    assert labeled_causes.count(CodClass.EXTERNAL) == 4


def test_split_minority_counts_follow_hypergeometric_law():
    # full-random split of an imbalanced set: the labeled minority count
    # across seeds matches the hypergeometric distribution
    minority = 10
    causes = [CodClass.MATERNAL] * minority + [CodClass.NON_COMMUNICABLE] * 90
    records = make_records(100, causes=causes)
    counts = np.zeros(minority + 1)
    n_seeds = 1000
    for seed in range(n_seeds):
        result = split(records, SplitSpec(labeled_fraction=0.2, seed=seed))
        k = int((records.causes[result.labeled] == CAUSE_CLASSES.index(CodClass.MATERNAL)).sum())
        counts[k] += 1
    dist = scipy.stats.hypergeom(100, minority, 20)
    expected_mean = dist.mean()
    observed_mean = np.average(np.arange(minority + 1), weights=counts)
    assert abs(observed_mean - expected_mean) <= 3 * dist.std() / np.sqrt(n_seeds)
    for k in range(minority + 1):
        p = dist.pmf(k)
        sigma = np.sqrt(n_seeds * p * (1 - p))
        assert abs(counts[k] - n_seeds * p) <= 4 * sigma + 1e-9


@given(st.integers(2, 200), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_split_is_partition(n, fraction, seed):
    records = make_records(n)
    result = split(records, SplitSpec(labeled_fraction=fraction, seed=seed))
    both = np.concatenate([result.labeled, result.unlabeled])
    assert sorted(both.tolist()) == list(range(n))
    assert len(set(result.labeled) & set(result.unlabeled)) == 0
    assert len(result.labeled) == int(np.floor(fraction * n + 0.5))


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_split_stratified_within_one_record_per_class(seed, fraction):
    sizes = {CodClass.NON_COMMUNICABLE: 37, CodClass.COMMUNICABLE: 12,
             CodClass.EXTERNAL: 5, CodClass.MATERNAL: 3}
    causes = [c for c, n in sizes.items() for _ in range(n)]
    records = make_records(len(causes), causes=causes)
    result = split(records, SplitSpec(strategy="stratified-by-cause",
                                      labeled_fraction=fraction, seed=seed))
    labeled_causes = [causes_of(records)[i] for i in result.labeled]
    for cause, size in sizes.items():
        got = labeled_causes.count(cause)
        assert abs(got - fraction * size) <= 1.0


def test_split_stratified_small_class_error():
    causes = [CodClass.NON_COMMUNICABLE] * 9 + [CodClass.MATERNAL]
    records = make_records(10, causes=causes)
    with pytest.raises(SplitError, match="maternal"):
        split(records, SplitSpec(strategy="stratified-by-cause",
                                 labeled_fraction=0.2, seed=0))


def test_split_stratified_requires_causes():
    causes = [CAUSE_CLASSES[i % 5] for i in range(10)]
    causes[3] = None
    records = make_records(10, causes=causes)
    with pytest.raises(SplitError, match="1 records lack a true cause"):
        split(records, SplitSpec(strategy="stratified-by-cause",
                                 labeled_fraction=0.2, seed=0))


def test_split_spec_validation():
    with pytest.raises(ParameterError):
        SplitSpec(labeled_fraction=0.0)
    with pytest.raises(ParameterError):
        SplitSpec(strategy="bogus")
