"""Exact weight distributions of binary Reed-Muller codes and their
cosets, Walsh spectra and Krawtchouk transforms, plus exhaustive
verification harnesses for balanced-function extremal claims."""

from .bfcore import (
    MAX_M,
    AnfMonomialSet,
    PointVector,
    TruthTable,
    anf_from_tt,
    constant_tt,
    degree_of,
    is_balanced,
    linear_tt,
    monomial_tt,
    tt_from_anf,
    variable_tt,
)
from .errors import CapExceededError, ExactnessError, ParameterError, RmlabError
from .harness import (
    CosetCensus,
    Method,
    Mode,
    Scope,
    Verdict,
    balanced_count_of_coset,
    census_balanced,
    coset_representatives,
    coset_weight_distribution,
    verify_hamming_coset_equidistribution,
    verify_oddweight_cosets,
    verify_quotient_conjecture,
    verify_rm1_proposition,
    verify_theorem_basic,
)
from .krawtchouk import (
    SignClass,
    binom,
    central_K,
    central_column,
    kraw_column,
    kraw_direct,
    kraw_row,
    sign_class,
)
from .rmcodes import (
    DEFAULT_DIMENSION_CAP,
    RMParams,
    WeightDistribution,
    dimension_cap,
    dual_params,
    is_doubly_even,
    mceliece_check,
    mceliece_exponent,
    monomial_basis,
    pivot_positions,
    rm_iterate,
    rm_membership,
    rm_weight_distribution,
)
from .spectral import (
    WalshSpectrum,
    is_balanced_spectral,
    parseval_check,
    rm1_coset_balanced_count,
    wht,
    wht_many,
)
from .transforms import (
    CosetDualProfile,
    CosetSpec,
    assmus_mattson,
    balanced_gap,
    coset_dual_profile,
    hamming_closed_forms,
    macwilliams,
)

__version__ = "0.1.0"
