"""Lengths, depths and unrefinable chains of compact connected Lie groups."""

from .chains import Chain, VerifyReport, max_chain, min_chain, parse_chain_text, verify_chain
from .errors import (
    IncompleteDatabaseError,
    LieChainError,
    MalformedTypeError,
    ParseError,
    TrivialGroupError,
)
from .formulas import (
    BoundsOrExact,
    Check,
    chain_difference,
    check_dimlen,
    check_lcd,
    check_sqrt_lower_bound,
    depth,
    depth_simple,
    elem_inequalities,
    f_classical,
    is_cd_one,
    is_length_eq_depth,
    lendim_formula,
    length,
    length_complex_semisimple,
    smalll_deficit,
)
from .groups import (
    TRIVIAL,
    GroupType,
    SimpleType,
    canonicalize,
    iter_groups,
    iter_semisimple,
    iter_simple_types,
    parse_group,
    product,
    simple,
    torus,
)
from .oracle import Oracle, oracle_depth, oracle_length
from .radicals import ALPHA, BETA, QuadExpr
from .subgroups import (
    CURATED_SIMPLE,
    CompletenessFlag,
    EmbeddingKind,
    MaximalEntry,
    is_curated,
    is_maximal_step,
    maximal_connected,
    min_irrep_dim,
)
from .suites import cross_validate

__version__ = "1.0.0"
