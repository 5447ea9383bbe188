import numpy as np
import pytest

from rulewatch import CsvFormatError, DataError, DataTable
from rulewatch.config import RunConfig, build_config, load_config_file


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
