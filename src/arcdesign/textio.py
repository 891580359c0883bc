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

from .designs import AugmentedDesign, ContractionDesign, feasibility_df
from .errors import ParseError

_HEADER_RE = re.compile(
    r"^#\s*(contraction|augmented)\s+v=(\d+)\s+s=(\d+)\s+k=(\d+)\s*$"
)
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def format_design(design: ContractionDesign | AugmentedDesign) -> str:
    """Render a design in the shared text format."""
    if isinstance(design, ContractionDesign):
        header = f"# contraction v={design.v} s={design.s} k={design.k}"
    elif isinstance(design, AugmentedDesign):
        header = f"# augmented v={design.v} s={design.s} k={design.k}"
    else:
        raise TypeError(f"cannot format {type(design).__name__}")
    lines = [header]
    lines.extend(",".join(str(int(x)) for x in row) for row in design.cells)
    return "\n".join(lines) + "\n"


def parse_design(text: str) -> ContractionDesign | AugmentedDesign:
    """Parse the shared text format into a design value.

    Raises ``ParseError`` with line (and column, for bad fields) context.
    """
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ParseError("empty input: expected a header line")
    m = _HEADER_RE.match(lines[idx].strip())
    if not m:
        raise ParseError(
            "expected header '# contraction v=.. s=.. k=..' or '# augmented v=.. s=.. k=..'",
            line=idx + 1,
        )
    kind, v, s, k = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    # Checked before anything is sized by v: a feasible header has v <= k*s,
    # the number of cells the body must hold.
    if kind == "contraction" and feasibility_df(v, s, k) < 0:
        raise ParseError(
            f"header (v={v}, s={s}, k={k}) leaves {feasibility_df(v, s, k)} residual degrees "
            "of freedom; need >= 0",
            line=idx + 1,
        )
    if kind == "augmented" and not 1 <= k <= v:
        raise ParseError(f"header k={k} out of range for a {v}-row array", line=idx + 1)

    rows: list[list[int]] = []
    for lineno in range(idx + 1, len(lines)):
        line = lines[lineno].strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        row = []
        for col, field in enumerate(fields):
            try:
                label = int(field.strip())
            except ValueError:
                raise ParseError(
                    f"expected an integer label, got {field.strip()!r}",
                    line=lineno + 1,
                    column=col + 1,
                ) from None
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


def read_design(path) -> ContractionDesign | AugmentedDesign:
    """Parse a UTF-8 design file; bytes that are not UTF-8 raise ``ParseError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_design(text)


def write_design(design: ContractionDesign | AugmentedDesign, path) -> None:
    """Write a design file in the shared text format."""
    Path(path).write_text(format_design(design))
