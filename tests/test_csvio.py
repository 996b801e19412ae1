import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rhtsketch.csvio import CsvFormatError, read_points_csv


def test_reads_plain_rows(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    pts = read_points_csv(str(path))
    assert pts.dtype == np.float64
    assert_array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])


def test_header_row_is_skipped(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n1.0,2.0\n")
    assert_array_equal(read_points_csv(str(path)), [[1.0, 2.0]])


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError):
        read_points_csv(str(path))


def test_non_numeric_data_row_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(CsvFormatError):
        read_points_csv(str(path))


def test_non_finite_cells_rejected_with_line_number(tmp_path):
    path = tmp_path / "pts.csv"
    for cell in ("nan", "inf", "-inf"):
        path.write_text(f"1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_points_csv(str(path))


def test_errors_name_the_file_line_after_a_multi_line_cell(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text('"x\ny",z\n1,2\n3,nan\n')
    with pytest.raises(CsvFormatError, match="line 4: non-finite"):
        read_points_csv(str(path))
    path.write_text('"x\ny",z\n1,2\n3,oops\n')
    with pytest.raises(CsvFormatError, match="line 4: non-numeric"):
        read_points_csv(str(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError):
        read_points_csv(str(path))


def test_header_only_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n")
    with pytest.raises(CsvFormatError):
        read_points_csv(str(path))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CsvFormatError):
        read_points_csv(str(tmp_path / "absent.csv"))


def test_header_after_leading_blank_lines_is_skipped(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("\n\nx,y\n1.0,2.0\n")
    assert_array_equal(read_points_csv(str(path)), [[1.0, 2.0]])
    # only the first non-blank row may be a header
    path.write_text("\nx,y\nu,v\n1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_points_csv(str(path))


def test_byte_order_mark_keeps_the_first_row(tmp_path):
    # spreadsheet exports start UTF-8 files with a BOM
    path = tmp_path / "pts.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
    assert_array_equal(read_points_csv(str(path)), [[1, 2], [3, 4], [5, 6]])


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"1,2\n\xff\xfe3,4\n")
    with pytest.raises(CsvFormatError, match="UTF-8"):
        read_points_csv(str(path))


def test_cell_over_the_csv_field_limit_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1," + "1" * 200_000 + "\n")
    with pytest.raises(CsvFormatError, match="field limit"):
        read_points_csv(str(path))
