"""Beta-numeration toolkit for simple Parry bases.

Validates expansions of 1, generates canonical substitution fixed points,
does exact arithmetic in Z[beta], enumerates beta-integers with their gap
coding, profiles factor complexity, and decides whether the complexity is
affine, with a constructive witness in the fractional power case.
"""

from .analysis import (
    Classification,
    ComplexityProfile,
    FactorLibrary,
    GapInventoryReport,
    SpecialFactorReport,
    Trident,
    WitnessBundle,
    WitnessVerification,
    classify_affine,
    clear_factor_cache,
    complexity_profile,
    construct_witness,
    expected_gap_inventory,
    factor_library,
    find_tridents,
    full_report,
    maximal_left_special,
    special_factors,
    verify_gap_inventory,
    verify_witness,
)
from .errors import (
    BudgetExceeded,
    DigitRangeError,
    EmptyWordError,
    FractionalBudgetExceeded,
    InadmissibleInput,
    LetterRangeError,
    MixedBaseError,
    NonIntegerExpansionError,
    NotApplicable,
    ParryViolation,
    ParryscopeError,
    TrailingZeroError,
    UsageError,
    VerificationFailed,
    ZeroHasNoPredecessor,
)
from .numeration import (
    BetaExpansion,
    RenyiExpansion,
    ZBetaElement,
    beta,
    beta_integers,
    coding_of_segment,
    from_int,
    greedy_expand_integer,
    is_admissible,
    next_admissible,
    one,
    parry_polynomial,
    pred_gap_letter,
    quasi_greedy,
    radix_rank,
    succ_gap_letter,
    t_orbit,
    validate_renyi,
    value_of,
    zb_sign,
    zero,
)
from .substitution import (
    Substitution,
    build_substitution,
    fixed_point_prefix,
    incidence_matrix,
    is_primitive,
    j_indices,
    primitivity_exponent,
)
from .words import (
    Word,
    borders,
    fmt,
    primitive_root,
    satisfies_power_condition,
    word,
)

__version__ = "0.1.0"
