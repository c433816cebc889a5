"""Exact weight distributions of binary Reed-Muller codes and their
cosets, Walsh spectra and Krawtchouk transforms, plus exhaustive
verification harnesses for balanced-function extremal claims."""

from .bfcore import (
    MAX_M,
    AnfMonomialSet,
    TruthTable,
    monomial_tt,
    tt_from_anf,
)
from .errors import CapExceededError, ExactnessError, ParameterError, RmlabError
from .harness import (
    CosetCensus,
    Method,
    Mode,
    Scope,
    Verdict,
    census_balanced,
    coset_weight_distribution,
    verify_hamming_coset_equidistribution,
    verify_oddweight_cosets,
    verify_quotient_conjecture,
    verify_rm1_proposition,
    verify_theorem_basic,
)
from .krawtchouk import (
    SignClass,
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
    dual_params,
    is_doubly_even,
    mceliece_check,
    mceliece_exponent,
    monomial_basis,
    rm_membership,
    rm_weight_distribution,
)
from .spectral import (
    WalshSpectrum,
    wht,
    wht_many,
)
from .transforms import hamming_closed_forms, macwilliams

__version__ = "0.1.0"
