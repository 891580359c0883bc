"""Bundled reference designs and published efficiency values.

Two fully worked reference designs (a 12x8 array with 3 checks and a 24x16
array with 5 checks) ship as text fixtures, together with a 21-row table of
published efficiency values for equal-replication contractions.  They anchor
the regression tests and the ``reproduce-table1`` command: the closed-form
augmented efficiency recomputed from each row's summaries must match the
published six-decimal value.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .textio import parse_design


@dataclass(frozen=True)
class ReferenceRow:
    """One published parameter set: dimensions, summaries, and the resulting efficiency."""

    k: int
    v: int
    s: int
    r_bar: int
    e_con: float
    c_bar_s: float
    e_dual: float
    e_aug: float

    @property
    def v_star(self) -> int:
        return (self.v - self.k) * self.s + self.k


#: Published values for 21 equal-replication contraction settings.
REFERENCE_ROWS: tuple[ReferenceRow, ...] = tuple(
    ReferenceRow(*row)
    for row in [
        (3, 12, 8, 2, 0.5739, 0.4828, 0.4828, 0.388112),
        (3, 15, 10, 2, 0.5359, 0.4424, 0.4467, 0.368217),
        (3, 18, 12, 2, 0.5135, 0.4176, 0.4205, 0.356396),
        (4, 16, 8, 2, 0.6618, 0.5385, 0.5385, 0.450683),
        (4, 16, 12, 3, 0.7547, 0.7097, 0.7097, 0.560000),
        (4, 18, 9, 2, 0.6479, 0.5111, 0.5111, 0.441030),
        (4, 20, 10, 2, 0.6423, 0.5000, 0.5000, 0.437095),
        (4, 20, 15, 3, 0.7339, 0.6825, 0.6825, 0.549752),
        (4, 22, 11, 2, 0.6338, 0.4851, 0.4851, 0.431698),
        (4, 24, 12, 2, 0.6310, 0.4793, 0.4793, 0.429763),
        (4, 24, 18, 3, 0.7203, 0.6652, 0.6652, 0.543467),
        (4, 26, 13, 2, 0.6232, 0.4688, 0.4688, 0.425538),
        (5, 20, 8, 2, 0.6976, 0.5453, 0.5453, 0.480081),
        (5, 20, 12, 3, 0.7881, 0.7201, 0.7213, 0.590627),
        (5, 20, 16, 4, 0.8244, 0.7993, 0.8000, 0.646791),
        (5, 25, 10, 2, 0.6966, 0.5294, 0.5294, 0.476348),
        (5, 25, 15, 3, 0.7780, 0.6992, 0.7000, 0.584213),
        (5, 25, 20, 4, 0.8096, 0.7801, 0.7808, 0.640252),
        (5, 30, 12, 2, 0.6867, 0.5038, 0.5038, 0.468846),
        (5, 30, 18, 3, 0.7669, 0.6805, 0.6814, 0.578506),
        (5, 30, 24, 4, 0.7988, 0.7661, 0.7665, 0.635813),
    ]
)

#: Published summaries of the two fully worked reference designs.
EXAMPLE_12x8 = {"c_bar_v": 0.5739, "c_bar_s": 0.4828, "e_aug": 0.3881}
EXAMPLE_24x16 = {"c_bar_v": 0.7749, "c_bar_s": 0.7332, "e_aug": 0.6031}

_FIXTURES = {
    "contraction_12x8_k3": "reference_contraction_12x8_k3.txt",
    "augmented_12x8_k3": "reference_augmented_12x8_k3.txt",
    "contraction_24x16_k5": "reference_contraction_24x16_k5.txt",
    "augmented_24x16_k5": "reference_augmented_24x16_k5.txt",
}


def load_reference_design(name: str):
    """Load one of the bundled reference designs by short name."""
    try:
        filename = _FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown reference design {name!r}; available: {sorted(_FIXTURES)}") from None
    data = resources.files("arcdesign.data").joinpath(filename).read_bytes()
    return parse_design(data.decode("utf-8"))
