"""Permutation codes under the Ulam metric: distances, bounds, searches."""

from .ball import (
    LisDistribution,
    ball_table,
    clt_samples,
    lis_distribution_exact,
    lis_prob_mc,
    sample_lis_lengths,
    sphere_packing_bounds,
)
from .bounds import (
    BoundReport,
    CodeParams,
    asymptotic_lower_log,
    bound_report,
    gv_lower,
    kim_rate_log,
    rate_function,
    singleton_upper,
)
from .budget import SearchBudget
from .errors import CapacityError, DistanceViolation
from .ilp import IlpSolution, export_lp, solve_ilp
from .perm import (
    Perm,
    check_permutation,
    format_permutation,
    lcs_length,
    lis_length,
    parse_permutation,
    ulam_distance,
)
from .search import (
    Code,
    SearchResult,
    SingletonSearchResult,
    TableCell,
    find_singleton_optimal,
    max_code_search,
    read_code_file,
    reproduce_tables,
    verify_code,
    write_code_file,
)

__version__ = "0.1.0"
