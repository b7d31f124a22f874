"""CSV interchange: exact round trips, pinned bytes, and the reader's checks."""

import numpy as np
import pytest

from sigspline.dataio import read_series_csv, write_batch_csv, write_series_csv


def test_series_round_trips_bit_exactly(tmp_path):
    specials = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1 / 3]
    series = np.array(specials + [0.0, 1.0]).reshape(-1, 2)
    path = tmp_path / "series.csv"
    write_series_csv(path, series, comment="config: {}")
    got = read_series_csv(path)
    assert got.shape == series.shape
    assert np.array_equal(got, series)
    assert np.array_equal(np.signbit(got), np.signbit(series))


def test_series_bytes_are_pinned(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, np.array([[0.5, -0.0], [1 / 3, 5e-324]]))
    assert path.read_text() == (
        "t,ch1,ch2\n0,0.5,-0\n1,0.33333333333333331,4.9406564584124654e-324\n"
    )


def test_batch_bytes_are_pinned(tmp_path):
    path = tmp_path / "batch.csv"
    write_batch_csv(path, np.array([[[1.0], [2.5]], [[-3.0], [1e300]]]), comment="c")
    assert path.read_text() == (
        "# c\nseq,t,ch1\n0,0,1\n0,1,2.5\n1,0,-3\n1,1,1.0000000000000001e+300\n"
    )


def test_comment_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("# first\n\nt,ch1\n  # between\n0,1.5\n\n1,2.5\n")
    assert np.array_equal(read_series_csv(path), [[1.5], [2.5]])


def test_header_must_start_with_t(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("time,ch1\n0,1.5\n")
    with pytest.raises(ValueError, match="'time'"):
        read_series_csv(path)


@pytest.mark.parametrize("text,counts", [
    ("t,ch1,ch2\n0,1.5\n1,2.5\n", "header has 3 fields, rows have 2"),
    ("t,ch1\n0,1.5,3.5\n1,2.5,4.5\n", "header has 2 fields, rows have 3"),
])
def test_header_and_rows_must_agree_on_field_count(tmp_path, text, counts):
    path = tmp_path / "series.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"series.csv: {counts}"):
        read_series_csv(path)


@pytest.mark.parametrize("text,where", [
    ("t,ch1,ch2\n0,1,2\n1,2,3,4\n", "line 3 has 4 fields, line 2 has 3"),
    ("# c\nt,ch1,ch2\n0,1,2\n\n1,2\n", "line 5 has 2 fields, line 3 has 3"),
])
def test_rows_must_agree_on_field_count(tmp_path, text, where):
    # line numbers count the file's comment and blank lines
    path = tmp_path / "series.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"series.csv: {where}$"):
        read_series_csv(path)


@pytest.mark.parametrize("text,where", [
    ("t,ch1\n0,1\n1,x\n", "line 3 field 2 is not a number: 'x'"),
    ("# c\nt,ch1,ch2\n0,1,2\n\n1,2,\n", "line 5 field 3 is not a number: ''"),
])
def test_a_field_that_is_not_a_number_is_named(tmp_path, text, where):
    # line numbers count the file's comment and blank lines, fields count the t column
    path = tmp_path / "series.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"series.csv: {where}$"):
        read_series_csv(path)


@pytest.mark.parametrize("field", ["1_0", "\u0661"])
def test_a_field_that_loadtxt_refuses_is_named_even_if_float_takes_it(tmp_path, field):
    # float() reads '1_0' as 10 and the Arabic-Indic digit one as 1; the reader's parser does not
    path = tmp_path / "series.csv"
    path.write_text(f"t,ch1\n0,1\n1,{field}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"series.csv: line 3 field 2 is not a number: '{field}'$"):
        read_series_csv(path)


@pytest.mark.parametrize("text", ["", "# only a comment\n", "t,ch1,ch2\n", "t,ch1\n\n# c\n"])
def test_no_data_rows(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="no data rows"):
        read_series_csv(path)


def test_a_header_with_no_channel_is_named(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t\n0\n1\n2\n")
    with pytest.raises(ValueError, match="series.csv: header names no channel after 't'$"):
        read_series_csv(path)


@pytest.mark.parametrize("batch", [
    np.zeros((3, 2)),
    [np.zeros((2, 1)), np.zeros((3, 1))],
])
def test_batch_must_be_one_three_dimensional_array(tmp_path, batch):
    with pytest.raises(ValueError):
        write_batch_csv(tmp_path / "batch.csv", batch)
