"""Augmented row-column designs for rectangular arrays.

A library for planning and generating experiments in which a few replicated
check treatments are laid out across a v x s grid together with unreplicated
test lines.  The generation route goes through a small auxiliary k x s design
(the contraction) whose layout dictates where checks fall; searching that
small space is far cheaper than searching the full array, and all efficiency
quantities of the final design follow from the contraction in closed form.
"""

from .augmentor import augment, extract_contraction
from .designs import (
    AugmentedDesign,
    ContractionDesign,
    IncidenceSet,
    ValidationReport,
    balanced_replication,
    feasibility_df,
    incidence,
    validate_augmented,
    validate_contraction,
)
from .efficiency import (
    EfficiencyReport,
    augmented_cefs,
    b_matrix,
    c_bar_s,
    c_bar_v,
    contraction_cefs,
    e_aug_direct,
    e_aug_formula,
    e_con,
    e_dual_column,
    full_report,
    info_matrix_augmented,
    info_matrix_contraction,
    is_generally_balanced,
)
from .errors import (
    ArcDesignError,
    ConfigError,
    ConstructionError,
    DisconnectedDesignError,
    InfeasibleParametersError,
    InvalidDesignError,
    ParseError,
    RankAnomalyError,
)
from .planner import DesignPlan, plan, plan_fixed_grid
from .search import (
    SearchConfig,
    SearchResult,
    neighbor_moves,
    random_contraction,
    search_contraction,
)
from .spectra import Spectrum, cefs_from_info, eig_symmetric, harmonic_mean_nontrivial
from .textio import format_design, parse_design, read_design, write_design

__version__ = "0.1.0"

__all__ = [
    "ArcDesignError",
    "AugmentedDesign",
    "ConfigError",
    "ConstructionError",
    "ContractionDesign",
    "DesignPlan",
    "DisconnectedDesignError",
    "EfficiencyReport",
    "IncidenceSet",
    "InfeasibleParametersError",
    "InvalidDesignError",
    "ParseError",
    "RankAnomalyError",
    "SearchConfig",
    "SearchResult",
    "Spectrum",
    "ValidationReport",
    "augment",
    "augmented_cefs",
    "b_matrix",
    "balanced_replication",
    "c_bar_s",
    "c_bar_v",
    "cefs_from_info",
    "contraction_cefs",
    "e_aug_direct",
    "e_aug_formula",
    "e_con",
    "e_dual_column",
    "eig_symmetric",
    "extract_contraction",
    "feasibility_df",
    "format_design",
    "full_report",
    "harmonic_mean_nontrivial",
    "incidence",
    "info_matrix_augmented",
    "info_matrix_contraction",
    "is_generally_balanced",
    "neighbor_moves",
    "parse_design",
    "plan",
    "plan_fixed_grid",
    "random_contraction",
    "read_design",
    "search_contraction",
    "validate_augmented",
    "validate_contraction",
    "write_design",
]
