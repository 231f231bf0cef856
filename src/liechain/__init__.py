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

__version__ = "1.0.0"

# names whose modules load on first access (PEP 562): only the theorem checks
# use the radical arithmetic and the suites, so a query compiles neither
_LAZY = {"ALPHA": "radicals", "BETA": "radicals", "QuadExpr": "radicals",
         "cross_validate": "suites", "radicals": "radicals", "suites": "suites"}


def __getattr__(name):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
