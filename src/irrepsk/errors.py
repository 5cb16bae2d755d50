"""Exception hierarchy for the compiler.

Every failure mode that callers are expected to handle gets its own class,
and the class says which exit code the CLI gives it:

- CacheError (exit 3): a net file that cannot be used (FormatError,
  StaleGateSet), as for OSError and unparsable JSON;
- CompileFailure (exit 2): the compiler cannot reach the requested
  tolerance or size (NetTooCoarse, NonConvergent and BallExit, Stalled,
  TooFar, BudgetExceeded, EmptyNet, DimUnsupported);
- any other CompilerError (exit 1): a gate set, matrix or argument fails
  validation, as for ValueError.
"""

from __future__ import annotations


class CompilerError(Exception):
    """Base class for all errors raised by this package."""


class CompileFailure(CompilerError):
    """The compiler could not reach the requested tolerance (exit code 2)."""


class CacheError(CompilerError):
    """A net cache file cannot be used (exit code 3)."""


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


class FormatError(CacheError):
    """Net cache file is truncated or malformed."""


class StaleGateSet(CacheError):
    """Net cache was built against a different gate set."""


class EmptyNet(CompileFailure):
    """An EpsNet built with no stored words."""


class BudgetExceeded(CompileFailure):
    """Net store filled up before the requested word length was reached."""


# --- compilation ---

class NetTooCoarse(CompileFailure):
    """No stored word is close enough to seed the requested compilation."""


class DimUnsupported(CompileFailure):
    """The base compiler and a net's lookup (EpsNet.nearest, a scan of the
    products' unit quaternions) handle SU(2) only."""


class TooFar(CompileFailure):
    """Commutator decomposition called outside its convergence region."""


class Stalled(CompileFailure):
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


class NonConvergent(CompileFailure):
    """Refinement diverged or exceeded its iteration cap."""


class BallExit(NonConvergent):
    """SL-mode iterate left the radius-r ball."""
