"""convexlab: exact-arithmetic workbench for additive growth of convex images.

Sumsets, representation functions, energy moments, point-curve incidence
counts, inequality-chain audits, growth scans, and extremal search, all over
exact rational arithmetic.
"""

from .sets import NumberSet, Scalar, difference_set, product_set, sumset
from .functions import ConvexFn, EXP2, LOG, RECIPROCAL, SQUARE, apply_fn, fn_by_name, power_fn
from .radicals import RadicalSum
from .comparison import compare_radical, power_product
from .energy import (
    EnergyReport,
    dyadic_profile,
    energy,
    energy_report,
    energy_third,
    energy_threehalves,
    level_set_count,
    rep_function,
)
from .incidence import (
    CurveFamily,
    IncidenceReport,
    PointGrid,
    build_instance,
    count_incidences,
    lemma_st1_ratio,
    lemma_st2_ratio,
)
from .audit import (
    AuditReport,
    ChainReport,
    audit_theorem,
    check_cauchy_schwarz,
    check_holder,
    check_lemma_e15,
    corollary_e3a_ratios,
)
from .families import FamilySpec, generate, growth_scan
from .search import SearchConfig, extremal_search, objective_value

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
