from unittest import mock

import numpy as np
import pytest

from arcdesign import (
    AugmentedDesign,
    ContractionDesign,
    format_design,
    parse_design,
    read_design,
    validate_contraction,
    write_design,
)
from arcdesign.errors import ParseError


def test_contraction_round_trip(ex1_contraction, tmp_path):
    path = tmp_path / "c.txt"
    write_design(ex1_contraction, path)
    assert read_design(path) == ex1_contraction


def test_augmented_round_trip(ex2_augmented, tmp_path):
    path = tmp_path / "a.txt"
    write_design(ex2_augmented, path)
    assert read_design(path) == ex2_augmented


def test_header_format(ex1_contraction):
    text = format_design(ex1_contraction)
    assert text.splitlines()[0] == "# contraction v=12 s=8 k=3"
    assert text.splitlines()[1] == "3,7,9,1,10,8,2,6"
    assert text.endswith("\n")


def test_parse_tolerates_blank_lines_and_spaces():
    text = "\n# contraction v=3 s=3 k=2\n1, 2, 3\n\n2, 3, 1\n"
    design = parse_design(text)
    assert isinstance(design, ContractionDesign)
    assert np.array_equal(design.cells, [[1, 2, 3], [2, 3, 1]])


def test_missing_header_reports_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_design("1,2,3\n2,3,1\n")


def test_bad_field_reports_line_and_column():
    with pytest.raises(ParseError, match=r"line 3, column 2"):
        parse_design("# contraction v=3 s=3 k=2\n1,2,3\n2,x,1\n")


def test_row_count_mismatch():
    with pytest.raises(ParseError, match="declares 2 rows"):
        parse_design("# contraction v=3 s=3 k=2\n1,2,3\n")


def test_column_count_mismatch():
    with pytest.raises(ParseError, match="s=3"):
        parse_design("# contraction v=3 s=3 k=2\n1,2\n2,3\n")


def test_augmented_kind_detected(ex1_augmented):
    parsed = parse_design(format_design(ex1_augmented))
    assert isinstance(parsed, AugmentedDesign)
    assert parsed.k == 3


def test_infeasible_contraction_header_rejected_before_allocating():
    # from_cells would size a bincount by the header's v
    with mock.patch.object(ContractionDesign, "from_cells", side_effect=AssertionError):
        with pytest.raises(ParseError, match=r"residual degrees of freedom.*line 1"):
            parse_design("# contraction v=100000000000 s=2 k=1\n1,2\n")


def test_negative_label_is_left_to_validation(malformed_files):
    design = parse_design(malformed_files["negative-label"])
    assert design.r.sum() == 3 * 8 - 1  # the label outside 1..v is not counted
    assert "label -1 at (2,5) outside 1..12" in validate_contraction(design).violations


def test_label_beyond_int64_reports_line_and_column(malformed_files):
    with pytest.raises(ParseError, match=r"label 99999999999999999999 .*line 3, column 5"):
        parse_design(malformed_files["label-beyond-int64"])


def test_augmented_header_k_beyond_v_reports_header_line(malformed_files):
    with pytest.raises(ParseError, match=r"k=99999999999 out of range .*line 1\)"):
        parse_design(malformed_files["augmented-k-beyond-v"])


def test_non_utf8_file_raises_parse_error_naming_it(tmp_path):
    path = tmp_path / "h.txt"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ParseError, match=r"h\.txt is not UTF-8 text"):
        read_design(path)
