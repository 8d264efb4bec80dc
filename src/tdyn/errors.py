"""Exception taxonomy shared by all tdyn modules.

Every failure mode that a caller may want to branch on gets its own class,
and each class carries its stable exit code of the CLI (tdyn.cli) as
``exit_code``: 2 for a non-tame pair (including root-of-unity eigenvalues
and infinite values), 3 for an unsupported p-adic pairing, 4 for numeric
indeterminacy at the precision ceiling, and 1 for input errors and every
class that sets no code of its own.
"""


class TdynError(Exception):
    """Base class for all tdyn errors."""

    exit_code = 1


class InputError(TdynError):
    """Malformed or out-of-contract input (bad JSON, size mismatch, unknown key...)."""


class NotTameError(TdynError):
    """An operation that requires finite Reidemeister numbers met a non-tame system."""

    exit_code = 2


class RootOfUnityError(TdynError):
    """An eigenvalue is a root of unity where hyperbolicity / tameness is required."""

    exit_code = 2


class UnsupportedPairingError(TdynError):
    """The pairing of phi/psi eigenvalues at a finite place cannot be certified."""

    exit_code = 3


class HypothesisViolatedError(TdynError):
    """Two eigenvalue moduli that must differ agree within the certification limit."""

    exit_code = 4


class PrecisionError(TdynError):
    """Certified enclosures could not separate quantities at the precision ceiling."""

    exit_code = 4


class NoRecurrenceError(TdynError):
    """No linear recurrence of admissible order fits the sequence window."""


class NotSquareFreeError(TdynError):
    """A recurrence denominator has repeated factors (outside the rational-zeta normal form)."""


class NonIntegerResidueError(TdynError):
    """The per-factor exponents of an exponential sum are not integers."""


class InfiniteValueError(TdynError):
    """An infinite Reidemeister number appeared where a finite value is required."""

    exit_code = 2


class DoubleRangeError(InputError):
    """A numeric output field is past the double range; the message names it."""


def finite_float(field: str, compute) -> float:
    """compute(), a float; DoubleRangeError naming the field where the value
    is past the double range, which Python reports as an OverflowError."""
    try:
        return compute()
    except OverflowError:
        raise DoubleRangeError(f"{field} is past the double range") from None
