"""Exception hierarchy for the compiler.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto exit codes without string matching.
"""

from __future__ import annotations


class CompilerError(Exception):
    """Base class for all errors raised by this package."""


# --- matrix validation ---

class InvalidMatrix(CompilerError):
    """Input is not a usable square complex matrix (shape, NaN/Inf)."""


class DimError(CompilerError):
    """Dimension mismatch between operands."""


class ClassError(CompilerError):
    """Matrix fails its declared class check (unitarity, det 1, ...)."""


# --- finite group / representation ---

class GroupError(CompilerError):
    """Base for representation-inference failures."""


class NotClosed(GroupError):
    """Some product of listed elements matches no listed element."""


class NotIrreducible(GroupError):
    """The averaging criterion rejects the representation."""


class AmbiguousMatch(GroupError):
    """Two listed elements are phase-equivalent to each other."""


class ProjectiveUnsupported(GroupError):
    """Operation is only defined for genuine (non-projective) irreps."""


class ExtensionOverflow(GroupError):
    """A multiplier phase is not a d-th root of unity, so no k-fold cover
    with k dividing d closes the rep."""


class GroupTooLarge(GroupError):
    """Too many orderings to enumerate."""


# --- gate-set files and nets ---

class SchemaError(CompilerError):
    """Gate-set document is malformed or missing required fields."""


class IrrepError(CompilerError):
    """The designated irrep section failed validation."""


class BallError(CompilerError):
    """SL-mode generator lies outside the radius-r ball around I."""


class FormatError(CompilerError):
    """Net cache file is truncated or malformed."""


class StaleGateSet(CompilerError):
    """Net cache was built against a different gate set."""


class EmptyNet(CompilerError):
    """Nearest-neighbour query against an empty store."""


class BudgetExceeded(CompilerError):
    """Net store filled up before the requested word length was reached."""


# --- compilation ---

class NetTooCoarse(CompilerError):
    """No stored word is close enough to seed the requested compilation."""


class DimUnsupported(CompilerError):
    """The base compiler only handles 2x2 unitaries."""


class TooFar(CompilerError):
    """Commutator decomposition called outside its convergence region."""


class Stalled(CompilerError):
    """Refinement stopped contracting before reaching the target error.

    best_error is the smallest error any iterate reached, best_pass the pass
    that reached it, and floor = length * 2^-52 of that iterate, the scale
    of float64 round-off in its product.
    """

    def __init__(self, message: str, best_error: float, best_pass: int, floor: float):
        super().__init__(message)
        self.best_error = best_error
        self.best_pass = best_pass
        self.floor = floor


class NonConvergent(CompilerError):
    """Refinement diverged or exceeded its iteration cap."""


class BallExit(NonConvergent):
    """SL-mode iterate left the radius-r ball."""
