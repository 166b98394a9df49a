"""Exception hierarchy, shared across modules; each class carries its CLI exit code.

``cli.main`` maps the errors that reach it: UsageError and ValueError to 1,
printed on standard error, and every other ParryscopeError to its
``exit_code``, printed as JSON.  ``validate`` reports a validation error and
``witness`` a NotApplicable in their own JSON, with the same codes.  One
error never reaches ``main``: ``betaint expand`` catches
FractionalBudgetExceeded, prints the partial expansion with ``"exact":
false`` and exits 0.
"""


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
    factor library, a fixed-point prefix, a gap coding or the images of a
    substitution), a factor library would store more bytes of factors than
    the stored-bytes cap, a corpus has more candidate digit words than
    the corpus cap, or the start of a greedy expansion would pass the work
    cap of ``numeration.EXPAND_CAP`` bit operations."""

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
    """A certificate failed (indicates a bug).

    Two certificates raise it, and nothing else does.  ``condition`` names
    the failed one:

    * ``"i"``, ``"ii"``, ``"iii"``, ``"iv"``: the four witness conditions,
      checked by ``analysis.verify_witness``;
    * ``"admissible"``: ``verify_witness`` found a witness point z, x1 or
      x2 not admissible;
    * ``"balance"``: the (L-1)-suffixes of a library's factors are not
      its (L-1)-prefixes, so neither C(n) nor C(n+1) - C(n) is certified
      (``analysis.FactorLibrary``).
    """

    exit_code = 4

    def __init__(self, condition, message):
        self.condition = condition
        super().__init__(message)


class UsageError(ParryscopeError):
    """Command line usage or parse error."""

    exit_code = 1
