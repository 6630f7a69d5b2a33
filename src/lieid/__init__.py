"""Free Lie algebra over GF(2), generic-matrix identity checking on gl2,
and per-multidegree T-ideal calculus."""

from .lie_core import (
    AssocPoly,
    DegreeCapError,
    LieMonomial,
    LiePoly,
    MultiDeg,
    assoc_expand,
    bracket,
    get_degree_cap,
    is_zero,
    leaf,
    left_norm,
    multidegree,
    pair,
    polarize,
    set_degree_cap,
    substitute,
    word_monomial,
)
from .expr import ParseError, format_poly, parse
from .gf2linalg import GF2Subspace, WordIndex, kernel, span
from .eval_gl2 import (
    GMat2,
    evaluate,
    generic_matrix,
    is_identity_gl2,
    is_identity_sl2,
    lie_mat,
    sub_ij,
)
from .tideal import (
    BASE_RELATION,
    Component,
    Generator,
    GeneratorSet,
    component,
    consequences,
    check_generation,
    identities,
    multilinear_span_check,
    triple_identity,
    word_pair_element,
    zero_in_quotient,
)

__version__ = "0.1.0"
