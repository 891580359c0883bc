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


def test_crlf_line_ends_parse():
    design = parse_design("# contraction v=3 s=3 k=2\r\n1,2,3\t\r\n\r\n2,3,1\r\n")
    assert np.array_equal(design.cells, [[1, 2, 3], [2, 3, 1]])


# Lines end at \n only: str.splitlines() would also end them at these.
@pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_other_line_breaks_are_not_line_ends(sep):
    with pytest.raises(ParseError, match=r"^expected an integer label, .*\(line 2, column 3\)$"):
        parse_design(f"# contraction v=3 s=3 k=2\n1,2,3{sep}2,3,1\n")
    with pytest.raises(ParseError, match=r"^expected header .*\(line 1\)$"):
        parse_design(f"# contraction v=3 s=3 k=2{sep}1,2,3\n2,3,1\n")
    with pytest.raises(ParseError, match=r"^expected header .*\(line 1\)$"):
        parse_design(f"# contraction{sep}v=3 s=3 k=2\n1,2,3\n2,3,1\n")


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


# Labels are ASCII decimal integers: int() would also take a sign of +,
# digit-group underscores and non-ASCII digits, and str.strip() would trim
# non-ASCII spaces.
@pytest.mark.parametrize("label", ["+5", "1_0", "\u0661\u0662", "\uff14", "5.0", "",
                                   "\u3000 3", "3\xa0"])
def test_label_spellings_outside_the_format_report_line_and_column(label):
    with pytest.raises(ParseError) as raised:
        parse_design(f"# contraction v=3 s=3 k=2\n1,2,3\n2,{label},1\n")
    assert str(raised.value) == f"expected an integer label, got {label!r} (line 3, column 2)"


# The header's \d would take any Unicode digit without re.ASCII.
@pytest.mark.parametrize("header", ["# contraction v=\u0663 s=3 k=2", "# contraction v=3 s=\uff13 k=2",
                                    "# augmented v=3 s=3 k=\u0662"])
def test_header_takes_ascii_digits_only(header):
    with pytest.raises(ParseError, match=r"^expected header .*\(line 1\)$"):
        parse_design(f"{header}\n1,2,3\n2,3,1\n")


def test_header_at_minus_one_residual_df_rejected():
    # with k = 2 the residual df is s - v
    with pytest.raises(ParseError, match=r"leaves -1 residual degrees of freedom.*\(line 1\)"):
        parse_design("# contraction v=4 s=3 k=2\n1,2,3\n2,3,4\n")
    assert parse_design("# contraction v=4 s=4 k=2\n1,2,3,4\n2,3,4,1\n").v == 4


def test_label_beyond_int64_reports_line_and_column(malformed_files):
    with pytest.raises(ParseError, match=r"label 99999999999999999999 .*line 3, column 5"):
        parse_design(malformed_files["label-beyond-int64"])


def test_augmented_header_k_beyond_v_reports_header_line(malformed_files):
    with pytest.raises(ParseError, match=r"k=99999999999 checks cannot be column-distinct among v=3 labels .*line 1\)"):
        parse_design(malformed_files["augmented-k-beyond-v"])


def test_non_utf8_file_raises_parse_error_naming_it(tmp_path):
    path = tmp_path / "h.txt"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ParseError, match=r"h\.txt is not UTF-8 text"):
        read_design(path)
