"""Inverse-free gate-set compilation around a finite-group irrep.

Given a gate set containing an irreducible (possibly projective) unitary
representation of a finite group plus extra generators, produce
eps-approximations of targets as words over the generators alone, never
using inverses of the extra gates.  The workhorse is an iterated
group-symmetrization map that squares the distance of a word carrying one
trailing gate token to the identity; stripping that token yields an
inverse-free approximation of the gate's inverse, which in turn makes an
ordinary inverse-allowed compilation inverse-free by substitution.
"""

from .errors import CompilerError
from .gateset import GateSet, GateWord, load_gateset, parse_gateset
from .net import EpsNet, build_gateset_net, load_net, save_net
from .refine import CompileReport, RefineTrace, compile_target, refine_inverse
from .skbase import SKParams, base_params

__version__ = "0.1.0"

__all__ = [
    "CompileReport", "CompilerError", "EpsNet", "GateSet", "GateWord",
    "RefineTrace", "SKParams", "base_params", "build_gateset_net",
    "compile_target", "load_gateset", "load_net", "parse_gateset",
    "refine_inverse", "save_net",
]
