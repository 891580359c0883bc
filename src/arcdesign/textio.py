"""The shared design text format.

One header line, then one comma-separated line of integer labels per row::

    # contraction v=12 s=8 k=3
    3,7,9,1,10,8,2,6
    ...

The header kind is either ``contraction`` or ``augmented``; dimensions in the
header must agree with the body.  Writing then parsing a design reproduces it
exactly.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .designs import AugmentedDesign, ContractionDesign, _size_violations
from .errors import ParseError

_HEADER_RE = re.compile(
    r"^#[ \t]*(contraction|augmented)[ \t]+v=(\d+)[ \t]+s=(\d+)[ \t]+k=(\d+)$", re.ASCII
)
# Labels are ASCII decimal integers; a sign of - is kept so that validation can
# report a negative label as outside 1..v.
_LABEL_RE = re.compile(r"-?[0-9]+")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
#: Most bytes ``_read_file`` reads: 10,000 times a (48,32,6) augmented file.  A design file this
#: long holds ~10^7 cells, so it takes half a GiB to parse and solves of side >= 3,000.
_MAX_INPUT_BYTES = 64 * 2**20


def format_design(design: ContractionDesign | AugmentedDesign) -> str:
    """Render a design in the shared text format."""
    if isinstance(design, ContractionDesign):
        header = f"# contraction v={design.v} s={design.s} k={design.k}"
    elif isinstance(design, AugmentedDesign):
        header = f"# augmented v={design.v} s={design.s} k={design.k}"
    else:
        raise TypeError(f"cannot format {type(design).__name__}")
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in design.cells.tolist())
    return "\n".join(lines) + "\n"


def parse_design(text: str) -> ContractionDesign | AugmentedDesign:
    """Parse the shared text format into a design value.

    Raises ``ParseError`` with line (and column, for bad fields) context.
    """
    # Lines end at "\n", with one "\r" before it dropped; only spaces and tabs are trimmed.
    lines = [line.removesuffix("\r").strip(" \t") for line in text.split("\n")]
    idx = 0
    while idx < len(lines) and not lines[idx]:
        idx += 1
    if idx >= len(lines):
        raise ParseError("empty input: expected a header line")
    m = _HEADER_RE.match(lines[idx])
    if not m:
        raise ParseError(
            "expected header '# contraction v=.. s=.. k=..' or '# augmented v=.. s=.. k=..'",
            line=idx + 1,
        )
    kind, v, s, k = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    # Checked before anything is sized by the header: a feasible header has
    # k <= v <= k*s, and an augmented design has the size of its contraction.
    if violations := _size_violations(v, s, k):
        raise ParseError("header: " + "; ".join(violations), line=idx + 1)

    rows: list[list[int]] = []
    for lineno in range(idx + 1, len(lines)):
        line = lines[lineno]
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        row = []
        for col, field in enumerate(fields):
            field = field.strip(" \t")
            if not _LABEL_RE.fullmatch(field):
                raise ParseError(f"expected an integer label, got {field!r}",
                                 line=lineno + 1, column=col + 1)
            label = int(field)
            if not _INT64_MIN <= label <= _INT64_MAX:
                raise ParseError(f"label {label} does not fit in 64 bits",
                                 line=lineno + 1, column=col + 1)
            row.append(label)
        rows.append(row)

    expected_rows = k if kind == "contraction" else v
    if len(rows) != expected_rows:
        raise ParseError(
            f"{kind} header declares {expected_rows} rows, body has {len(rows)}",
            line=idx + 1,
        )
    widths = {len(row) for row in rows}
    if widths != {s}:
        raise ParseError(
            f"header declares s={s} columns, body rows have {sorted(widths)}",
            line=idx + 1,
        )

    cells = np.array(rows, dtype=np.int64)
    if kind == "contraction":
        return ContractionDesign.from_cells(cells, v=v)
    return AugmentedDesign(k=k, cells=cells)


def _read_file(path) -> tuple[bytes, str]:
    """The bytes of ``path``, read once, and their UTF-8 text with line ends untouched."""
    try:
        with open(path, "rb") as f:
            if len(data := f.read(_MAX_INPUT_BYTES + 1)) > _MAX_INPUT_BYTES:
                raise ParseError(f"{path} is larger than {_MAX_INPUT_BYTES} bytes")
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:  # a read that fails once the file is open names no file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def read_design(path) -> ContractionDesign | AugmentedDesign:
    """Parse a UTF-8 design file; non-UTF-8 bytes raise ``ParseError``, an ``OSError`` names ``path``."""
    return parse_design(_read_file(path)[1])


def write_design(design: ContractionDesign | AugmentedDesign, path) -> None:
    """Write a design file in the shared text format."""
    Path(path).write_text(format_design(design))
