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
from .herbrand import (
    BaseTooLargeError,
    Certificate,
    HerbrandBase,
    Interpretation,
    ModelComparison,
    Policy,
    Semantics,
    ValidityVerdict,
    Verdict,
    certify_gfp,
    gfp_bounded,
    herbrand_base,
    lfp,
    preserves_model,
    tp_monotone_check,
    tp_step,
    valid,
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
