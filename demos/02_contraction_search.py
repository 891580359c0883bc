"""Searching for an efficient contraction.

The contraction is the small k x s auxiliary array whose labels say where
checks fall in the final v x s design.  Searching this space is cheap: the
objective needs only a v x v eigendecomposition per candidate.
"""

import numpy as np

from arcdesign import SearchConfig, full_report, search_contraction

# A 12x8 layout with 3 checks; every pseudo-treatment is replicated twice.
result = search_contraction(12, 8, 3, SearchConfig(seed=0, restarts=20))

print(f"best contraction (restart {result.restart_of_best},"
      f" {result.elapsed:.2f}s):")
print(np.array2string(result.best.cells))
print(f"\nobjective E_con = {result.objective:.4f}")
print("improvement trace:", [(it, round(val, 4)) for it, val in result.trace])

# The efficiency report carries both the contraction summaries and the
# closed-form efficiency of the augmented design it will generate.
report = full_report(result.best)
print(f"\ncBarV = {report.c_bar_v:.4f}")
print(f"cBarS = {report.c_bar_s:.4f}")
print(f"eAug (closed form) = {report.e_aug_formula:.4f}")
print(f"generally balanced: {report.generally_balanced}")

# Simulated annealing and a tabu walk explore the same move space under
# different acceptance rules; both can leave a local optimum.
for strategy in ("anneal", "tabu"):
    alt = search_contraction(
        12, 8, 3, SearchConfig(seed=0, strategy=strategy, restarts=6, max_iters=4000)
    )
    print(f"{strategy:>13}: E_con = {alt.objective:.4f}")
