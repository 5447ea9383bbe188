import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulewatch import CsvFormatError, DataError, DataTable
from rulewatch.config import RunConfig, build_config, load_config_file
from rulewatch.data import _kept_fields, _read_csv_numpy, _read_csv_python


def test_from_csv_with_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x1,x2,label\n1.0,2.5,a\n-3,0.125,b\n")
    t = DataTable.from_csv(p, label_column="label")
    assert t.columns == ("x1", "x2")
    assert t.labels == ("a", "b")
    assert t.X[1, 0] == -3.0
    assert t.record(0) == {"x1": 1.0, "x2": 2.5}


def test_from_csv_without_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    t = DataTable.from_csv(p)
    assert t.labels is None
    assert t.n_rows == 2


def test_from_csv_missing_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="label"):
        DataTable.from_csv(p, label_column="zz")


@pytest.mark.parametrize("read", [_read_csv_numpy, _read_csv_python])
@pytest.mark.parametrize("header, labels", [("a,b", None), ("a,label,b", ("x", "y"))])
def test_an_optional_label_column_is_split_out_when_present(tmp_path, read, header, labels):
    p = tmp_path / "d.csv"
    p.write_text(header + "\n" + ("1,x,2\n3,y,4\n" if labels else "1,2\n3,4\n"))
    names, X, got = read(p, "label", label_required=False)
    assert (names, X.tolist(), got) == (("a", "b"), [[1.0, 2.0], [3.0, 4.0]], labels)
    t = DataTable.from_csv(p, "label", label_required=False)
    assert (t.columns, t.X.tolist(), t.labels) == (names, X.tolist(), labels)


def test_from_csv_names_the_row_over_the_csv_field_limit(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3," + "x" * 200_000 + "\n5,6\n")
    with pytest.raises(CsvFormatError) as info:
        DataTable.from_csv(p)
    assert str(info.value) == f"{p}: row 3: field larger than field limit (131072)"
    p.write_text("a," + "b" * 200_000 + "\n1,2\n")
    with pytest.raises(CsvFormatError, match="row 1: field larger"):
        DataTable.from_csv(p)


def test_from_csv_non_numeric_cell_is_hard_error(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        DataTable.from_csv(p)


def test_from_csv_error_names_the_column_past_a_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,label,b\n1,x,2\n3,y, oops \n")
    with pytest.raises(CsvFormatError) as info:
        DataTable.from_csv(p, label_column="label")
    assert str(info.value) == f"{p}: row 3, column 'b': not a number: 'oops'"


def test_from_csv_empty_cell_is_hard_error(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,\n")
    with pytest.raises(CsvFormatError):
        DataTable.from_csv(p)


def test_from_csv_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2,3\n")
    with pytest.raises(CsvFormatError, match="cells"):
        DataTable.from_csv(p)


def test_from_csv_empty_inputs(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DataError):
        DataTable.from_csv(p)
    p.write_text("a,b\n")
    with pytest.raises(DataError):
        DataTable.from_csv(p)


def test_csv_round_trip(tmp_path):
    t = DataTable(("x1", "x2"), np.array([[0.1, 2.0], [3.5, -1.25]]), ("u", "v"))
    p = tmp_path / "out.csv"
    t.to_csv(p)
    back = DataTable.from_csv(p, label_column="label")
    assert back.columns == t.columns
    assert np.array_equal(back.X, t.X)
    assert back.labels == t.labels


def test_table_validation():
    with pytest.raises(DataError):
        DataTable(("a",), np.zeros((2, 2)))
    with pytest.raises(DataError):
        DataTable(("a", "b"), np.zeros((2, 2)), labels=("x",))


def test_take_preserves_labels():
    t = DataTable(("a",), np.array([[1.0], [2.0], [3.0]]), ("p", "q", "r"))
    sub = t.take(np.array([2, 0]))
    assert sub.labels == ("r", "p")
    assert list(sub.X[:, 0]) == [3.0, 1.0]


def test_table_copies_an_array_the_caller_can_still_write():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = DataTable(("a", "b"), X)
    assert X.flags.writeable
    X[0, 0] = np.nan
    assert t.X[0, 0] == 1.0
    assert not t.X.flags.writeable
    # a slice of the caller's array, and a buffer that is not an ndarray
    base = np.arange(6.0).reshape(3, 2)
    sliced = DataTable(("a", "b"), base[1:])
    base[1, 0] = -1.0
    assert sliced.X[0, 0] == 2.0 and base.flags.writeable
    from array import array
    buf = array("d", [1.0, 2.0])
    wrapped = DataTable(("a",), np.frombuffer(buf, dtype=np.float64).reshape(2, 1))
    buf[0] = 9.0
    assert wrapped.X[0, 0] == 1.0


def test_table_keeps_a_read_only_array_uncopied():
    X = np.array([[1.0], [2.0], [3.0]])
    X.setflags(write=False)
    assert DataTable(("a",), X).X is X


# -- CSV readers ----------------------------------------------------------------
#
# from_csv tries numpy's C reader first and keeps its table only when the
# Python reader would build the same one; every other file goes to the Python
# reader. These pin the inputs where the two readers part.

@pytest.mark.parametrize(("text", "label_column", "expected"), [
    pytest.param("a,b\n1,2,3\n4,5,6\n", None, "row 2 has 3 cells, expected 2",
                 id="consistent-extra-cells"),
    pytest.param("a,b\n1,2\n#3,4\n", None, "row 3, column 'a': not a number: '#3'",
                 id="hash-cell-is-no-comment"),
    pytest.param("a,b\n1_000,2\n", None, (("a", "b"), [[1000.0, 2.0]], None),
                 id="underscored-digits"),
    pytest.param("a,b\r1,2\r3,4\r", None, (("a", "b"), [[1.0, 2.0], [3.0, 4.0]], None),
                 id="cr-line-endings"),
    pytest.param('a,label\n1,"a b"\n2,c\n', "label", (("a",), [[1.0], [2.0]], ("a b", "c")),
                 id="quoted-label"),
    pytest.param('"a","b c",label\n1,2,x\n', "label", (("a", "b c"), [[1.0, 2.0]], ("x",)),
                 id="quoted-names"),
    pytest.param('"a\n1\n2\n', None, "no data rows",  # one header cell, 'a\n1\n2\n'
                 id="header-quote-left-open"),
    pytest.param("label\n  \nx\n", "label", ((), [[]], ("x",)),
                 id="label-only-whitespace-line"),
    pytest.param("a,b\n", None, "no data rows", id="header-only"),
])
def test_from_csv_where_the_readers_part(tmp_path, text, label_column, expected):
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expected, str):
            with pytest.raises(DataError) as info:
                DataTable.from_csv(p, label_column)
            assert str(info.value) == f"{p}: {expected}"
        else:
            t = DataTable.from_csv(p, label_column)
            assert (t.columns, t.X.tolist(), t.labels) == expected
    assert not caught  # numpy's empty-input warning stays inside the fast path


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_from_csv_reads_a_pipe():
    r, w = os.pipe()
    os.write(w, b"a,b\n1,2\n3,4\n")
    os.close(w)
    try:
        t = DataTable.from_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert t.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_numpy_reader_takes_a_plain_labeled_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"x1, x2 ,label\r\n1.5,-0.0,a\r\n\r\n+.5,1e400, b \r\n")
    fast = _read_csv_numpy(p, "label")
    assert fast is not None
    names, X, labels = fast
    assert names == ("x1", "x2") and labels == ("a", "b")
    assert X.tobytes() == _read_csv_python(p, "label")[1].tobytes()


@pytest.mark.parametrize("j", [0, 2, 4])
def test_drop_column_equals_np_delete_across_blocks(j):
    # Column j is read as a one-byte field, as an unread column or the label is.
    X = np.random.default_rng(j).normal(size=(2 * 4096 + 5, 5))
    fields = [(f"f{i}", np.float64 if i != j else "S1") for i in range(5)]
    A = np.empty(len(X), dtype=fields)
    for i in range(5):
        if i != j:
            A[f"f{i}"] = X[:, i]
    expected = np.delete(X, j, axis=1)
    assert _kept_fields(A, [i for i in range(5) if i != j]).tobytes() == expected.tobytes()


_NUMBERS = (
    "0", "1.5", "-2", "-0.0", "1e-3", "1e400", "-nan", "nan", "Infinity", "-inf",
    "+.5", "5.", " 1.5 ", "\xa01.5\xa0", "\x0c2",
)
_HAZARDS = ("1_000", "\u0661", '"1.5"', '" 1.5 "', "#1", "1.5#c", "", "abc", "a b", "\x00")
_NAMES = ("a", "b", " c ", "label")
_HAZARD_NAMES = ('"q"', '"q', "", "#d")
_BLANK_LINES = ("", " ", "\t", "\xa0")
_ENDINGS = ("\n", "\r\n", "\r")


_TEXT = ("abc", "", " ", "x y", "\xe9", '1"5')


@st.composite
def csv_files(draw):
    """CSV text mixing valid rows with every cell and line the readers treat apart.

    Half the files hold only numbers in the columns a table keeps, text in
    the others, unquoted names and empty lines, so numpy's reader keeps its
    table for them and the comparison is not only of the fallback with
    itself. ``columns`` is None, or names the header may repeat, lack or
    hold as its label.
    """
    clean = draw(st.booleans())
    names = st.sampled_from(_NAMES if clean else _NAMES + _HAZARD_NAMES)
    header = draw(st.lists(names, min_size=1, max_size=4))
    label_column = draw(st.sampled_from((None, "label")))
    stripped = [h.strip() for h in header]
    columns = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(stripped), min_size=1, max_size=4),
        st.lists(st.sampled_from(stripped + ["zz"]), max_size=4),
    ))
    kept = [(columns is None or h in columns) and h != label_column for h in stripped]
    numbers = st.sampled_from(_NUMBERS if clean else _NUMBERS + _HAZARDS)
    text = st.sampled_from(_TEXT if clean else _TEXT + _HAZARDS)
    lines = [",".join(header)]
    kinds = ("row", "row", "row", "blank") if clean else ("row", "row", "ragged", "blank")
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(_BLANK_LINES[:1] if clean else _BLANK_LINES)))
        elif kind == "row":
            lines.append(",".join(draw(numbers if k else text) for k in kept))
        else:
            n = draw(st.integers(1, len(header) + 2))
            lines.append(",".join(draw(st.lists(numbers, min_size=n, max_size=n))))
    text = "".join(line + draw(st.sampled_from(_ENDINGS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, label_column, columns


def _outcome(read, path, label_column, columns):
    try:
        return read(path, label_column, columns=columns)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(csv_files())
@example(('a,b,a,label\n1,"x",2,y\n3,,4,"z"\n', "label", ["a"]))
@example(("a,b\n1,\x00\n", None, ["a"]))
def test_from_csv_equals_the_python_reader(case):
    text, label_column, columns = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_read_csv_python, path, label_column, columns)
        got = _outcome(DataTable.from_csv, path, label_column, columns)
    if isinstance(expected[0], type):
        assert got == expected
        return
    names, X, labels = expected
    assert isinstance(got, DataTable), got
    assert got.columns == names and got.labels == labels
    assert got.X.shape == X.shape
    assert got.X.tobytes() == X.tobytes()  # bit for bit: NaNs and the sign of -0.0 too


def test_numpy_reader_converts_only_the_kept_columns(tmp_path):
    # Text, empty cells and a quote inside an unread cell pass; the label
    # is unread too. A repeated name keeps its last column.
    p = tmp_path / "d.csv"
    p.write_text('a,b,a,label,c\n1,x y,2,p,\n3,,4,q,5"6\n')
    fast = _read_csv_numpy(p, "label", columns=("a",))
    assert fast is not None
    names, X, labels = fast
    assert (names, X.tolist(), labels) == (("a",), [[2.0], [4.0]], None)
    # A name the header lacks: every column is read, and b's text is the error.
    with pytest.raises(CsvFormatError) as info:
        DataTable.from_csv(p, "label", columns=("a", "zz"))
    assert str(info.value) == f"{p}: row 2, column 'b': not a number: 'x y'"
    p.write_text('a,b\n1,"x"\n')  # csv unquotes a cell that starts with a quote
    assert _read_csv_numpy(p, None, columns=("a",)) is None
    assert DataTable.from_csv(p, columns=("a",)).X.tolist() == [[1.0]]


# -- run configuration --------------------------------------------------------

def test_config_defaults_echo():
    cfg = RunConfig()
    echo = cfg.echo()
    assert echo["n_s"] == 5000
    assert echo["n_tr"] == 50
    assert echo["n_op"] == 1  # resolved for single mode
    assert RunConfig(mode="group").resolved_n_op == 10


def test_config_full_scale(tmp_path):
    # full_scale was an alias of repetitions = 2500; it is no config key now
    with pytest.raises(TypeError):
        RunConfig(full_scale=True)
    p = tmp_path / "run.cfg"
    p.write_text("full_scale = true\n")
    with pytest.raises(DataError, match="unknown config key 'full_scale'"):
        load_config_file(p)


def test_config_file_parse_and_override(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_s = 100\nmetrics = wmi, l1\nrepetitions = 7\n# note\n")
    values = load_config_file(p)
    assert values == {"n_s": 100, "metrics": ("wmi", "l1"), "repetitions": 7}
    cfg = build_config(values, n_s=250, seed=None)
    assert cfg.n_s == 250
    assert cfg.metrics == ("wmi", "l1")


def test_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("zz = 1\n")
    with pytest.raises(DataError):
        load_config_file(p)


def test_config_file_rejects_bad_value(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_s = many\n")
    with pytest.raises(DataError):
        load_config_file(p)


def test_config_rejects_unknown_mode():
    with pytest.raises(DataError):
        RunConfig(mode="both")
