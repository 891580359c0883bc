"""From contraction to finished augmented design, with both efficiency routes.

The expansion rule: if pseudo-treatment l sits at contraction cell (i, j),
check number (v-k)s + i lands on plot (l, j).  Test lines fill the remaining
cells in column-major order.  The average efficiency factor of the result is
available two ways -- a closed form in two contraction summaries, and the
full eigendecomposition of the v* x v* information matrix -- and the two
agree to machine precision.
"""

import tempfile
from pathlib import Path

import numpy as np

from arcdesign import (
    SearchConfig,
    augment,
    c_bar_s,
    c_bar_v,
    e_aug_direct,
    e_aug_formula,
    extract_contraction,
    search_contraction,
    validate_augmented,
    write_design,
)

v, s, k = 10, 6, 3
result = search_contraction(v, s, k, SearchConfig(seed=1, restarts=10))
contraction = result.best
print("contraction:")
print(np.array2string(contraction.cells))

design = augment(contraction)
print(f"\naugmented design ({design.v}x{design.s}, checks"
      f" {list(design.check_labels)}):")
print(np.array2string(design.cells))

# The contraction read back from the design must be valid and, given r, have
# exactly the replication the search's contraction derived from its array.
report = validate_augmented(design, r=contraction.r)
print("\nstructural check:", "ok" if report.ok else report.violations)
assert extract_contraction(design) == contraction

v_star = design.v_star
closed_form = e_aug_formula(v_star, v, s, k, c_bar_v(contraction), c_bar_s(contraction))
direct = e_aug_direct(design)
print(f"eAug closed form = {closed_form:.10f}")
print(f"eAug direct      = {direct:.10f}")
print(f"difference       = {abs(closed_form - direct):.2e}")

# Designs serialize to a one-line-per-row text format shared by the CLI.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "augmented_10x6_k3.txt"
    write_design(design, path)
    print(f"\nwrote {path.name} ({path.stat().st_size} bytes)")
