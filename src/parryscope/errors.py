"""Exception hierarchy, shared across modules; each class carries its CLI exit code."""


class ParryscopeError(Exception):
    """Base class for all library errors.

    ``exit_code`` is the command line exit status the error maps to: 2
    (validation failure) unless the subclass sets another.
    """

    exit_code = 2


class EmptyWordError(ParryscopeError):
    """An operation that needs a non-empty word received the empty word."""


class TrailingZeroError(ParryscopeError):
    """A candidate expansion of 1 ends in the digit 0."""


class ParryViolation(ParryscopeError):
    """A candidate expansion of 1 fails the Parry admissibility condition.

    ``index`` is the 1-based position of the offending suffix.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"Parry condition fails at suffix index {index}")


class DigitRangeError(ParryscopeError):
    """A digit exceeds the alphabet bound for the base."""


class MixedBaseError(ParryscopeError):
    """Arithmetic attempted between elements over different bases."""


class NonIntegerExpansionError(ParryscopeError):
    """A beta-expansion with fractional digits where a beta-integer is required."""


class FractionalBudgetExceeded(ParryscopeError):
    """Greedy expansion did not terminate within the fractional digit budget.

    ``partial`` holds the expansion with the digits found so far.
    """

    exit_code = 4

    def __init__(self, partial, message=None):
        self.partial = partial
        super().__init__(message or "fractional digit budget exceeded")


class InadmissibleInput(ParryscopeError):
    """A digit string that should denote a beta-integer is not admissible."""


class ZeroHasNoPredecessor(ParryscopeError):
    """The beta-integer 0 has no predecessor in the non-negative part."""


class LetterRangeError(ParryscopeError):
    """A letter lies outside the alphabet of the substitution."""


class BudgetExceeded(ParryscopeError):
    """A request would need a text longer than the text cap (the texts of a
    factor library, a fixed-point prefix or a gap coding), a factor library
    would store more bytes of factors than the stored-bytes cap, or a corpus
    has more candidate digit words than the corpus cap."""

    exit_code = 4


class NotApplicable(ParryscopeError):
    """The witness construction does not apply (the word is affine).

    ``reason`` is ``"affine"`` or ``"tm_not_one"``.
    """

    exit_code = 3

    def __init__(self, reason, message=None):
        self.reason = reason
        super().__init__(message or f"witness construction not applicable: {reason}")


class VerificationFailed(ParryscopeError):
    """An internal invariant failed (indicates a bug).

    ``condition`` names the invariant:

    * ``"i"``, ``"ii"``, ``"iii"``, ``"iv"``: the four witness conditions;
    * ``"decomposition"``: the digit prefix w does not factor as p^r p' q p
      as the witness construction requires (q is empty or does not start
      below the next digit of p, p p' q equals p' q p, or their common
      suffix is too long), or the digit-wise subtraction that builds x1 and
      x2 would borrow;
    * ``"admissible"``: a witness component z, x1 or x2, its leading zeros
      dropped, is not admissible, or a walk reached an inadmissible
      successor;
    * ``"balance"``: the n-suffixes of the (n+1)-factors are not their
      n-prefixes, so C(n+1) - C(n) is not certified;
    * ``"beta"``: the exact arithmetic of the base found a rational root or
      a gcd that does not divide the base polynomial.
    """

    exit_code = 4

    def __init__(self, condition, message=None):
        self.condition = condition
        super().__init__(message or f"witness verification condition ({condition}) failed")


class UsageError(ParryscopeError):
    """Command line usage or parse error."""

    exit_code = 1
