"""Corecursive Horn-clause resolution with proof terms.

A resolution engine for the type-class fragment of Horn logic (matching
only, non-overlapping axiom heads, no existential variables) in three
modes: inductive, coinductive (cycle closure with nu-bound dictionaries),
and extended (corecursive proofs of implicative lemmas).  Every found proof
is re-checked by an independent judgement checker, and a bounded
Herbrand-model oracle makes the soundness theorems executable.
"""

from .engine import (
    EngineInvariantError,
    LemmaRecord,
    Mode,
    Outcome,
    Query,
    RegistrationError,
    SearchResult,
    propose_lemma,
    register_lemma,
    resolve,
)
from .proofs import (
    Apply,
    AxiomEnv,
    CheckError,
    CheckReason,
    ConstSym,
    Derivation,
    EnvEntry,
    EntryKind,
    Judgement,
    Lambda,
    Nu,
    ProofTerm,
    ProofVar,
    Rule,
    alpha_equal,
    check,
    env_for_program,
    format_proof,
    free_proof_vars,
    is_hnf,
)
from .syntax import (
    ParseError,
    ProgramLoadError,
    SourceProgram,
    format_program,
    parse_atom,
    parse_formula,
    parse_proof,
    parse_program,
)
from .terms import (
    App,
    Atom,
    BaseTooLargeError,
    EmptyUniverseError,
    ExistentialVariableError,
    HornClause,
    OverlapError,
    Program,
    Signature,
    SignatureError,
    Term,
    Var,
    apply_atom,
    apply_clause,
    apply_term,
    compose,
    enumerate_ground_terms,
    fact,
    ground_instances,
    match,
    term_depth,
    unifiable,
)

__version__ = "0.1.0"

# The oracle module and its names load `cohorn.herbrand` on first use (PEP
# 562), so a process that never asks for them does not pay for its import.
# `dir()` and `from cohorn import *` still list them.
_ORACLE_NAMES = frozenset((
    "Certificate", "HerbrandBase", "Interpretation", "ModelComparison", "Policy",
    "Semantics", "ValidityVerdict", "Verdict", "certify_gfp", "gfp_bounded",
    "herbrand_base", "lfp", "preserves_model", "tp_monotone_check", "tp_step", "valid",
))
__all__ = sorted({n for n in globals() if n[0] != "_"} | _ORACLE_NAMES | {"herbrand"})


def __getattr__(name: str):
    if name == "herbrand" or name in _ORACLE_NAMES:
        # Not `from . import herbrand`, whose attribute check would call
        # this function again.
        from importlib import import_module

        herbrand = import_module(".herbrand", __name__)
        return herbrand if name == "herbrand" else getattr(herbrand, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
