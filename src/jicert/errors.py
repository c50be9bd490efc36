"""Exception types shared across the package."""

from __future__ import annotations


class JicertError(Exception):
    """Base class for all package-specific errors."""


class DegreeMismatchError(JicertError):
    """Permutations or groups acting on different point sets were combined."""


class DenseBoundExceededError(JicertError):
    """An element table was asked of a group whose order exceeds its bound.

    Raised on the order of the group's stabilizer chain, before any element
    is enumerated; the group stays usable through its chain.
    """

    def __init__(self, order: int, bound: int):
        super().__init__(f"group order {order} exceeds dense bound {bound}")
        self.order = order
        self.bound = bound


class MembershipError(JicertError):
    """An element was not in the group or coset it was looked up in."""


class NotNormalError(JicertError):
    """A subgroup required to be normal is not."""


class HomomorphismError(JicertError):
    """Generator images do not extend to a homomorphism, or surjectivity failed."""


class InputFormatError(JicertError):
    """A system description file was malformed. Rejected, never repaired."""


class UnknownGroupError(JicertError):
    """A named group requested from the library is not available."""


class DerivationError(JicertError):
    """Mark derivation failed: some stage has no qualifying minimal normal subgroup.

    `level` is the index of the stage mark that could not be assigned.
    """

    def __init__(self, message: str, level: int):
        super().__init__(f"level {level}: {message}")
        self.level = level


class KernelBugError(JicertError):
    """An internal cross-check failed; indicates a defect, not bad input."""
