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
    chain_difference,
    depth,
    depth_simple,
    f_classical,
    is_cd_one,
    is_length_eq_depth,
    length,
    length_complex_semisimple,
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
)

__version__ = "1.0.0"

# names whose modules load on first access (PEP 562): the suites hold the
# theorem checks, the only code that uses the radical arithmetic, so a query
# compiles neither
_LAZY = {"ALPHA": "radicals", "BETA": "radicals", "QuadExpr": "radicals", "radicals": "radicals",
         **dict.fromkeys(("Check", "check_dimlen", "check_lcd", "check_sqrt_lower_bound",
                          "cross_validate", "elem_inequalities", "lendim_formula",
                          "min_irrep_dim", "smalll_deficit", "suites"), "suites")}


def __getattr__(name):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
