"""Shared corpus loading and seeded random generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

from cohorn import (
    App,
    Atom,
    HornClause,
    OverlapError,
    Program,
    Var,
    apply_atom,
    fact,
    parse_program,
)

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"


def load(name: str):
    return parse_program((PROGRAMS_DIR / f"{name}.hc").read_text())


# ---------------------------------------------------------------------------
# Random terms and substitutions
# ---------------------------------------------------------------------------

VARS = ("X", "Y", "Z")
FUNCS = (("c", 0), ("d", 0), ("f", 1), ("g", 2))


def random_term(rng: random.Random, depth: int, allow_vars: bool = True):
    if depth <= 1 or rng.random() < 0.3:
        if allow_vars and rng.random() < 0.4:
            return Var(rng.choice(VARS))
        return App(rng.choice(["c", "d"]))
    name, arity = rng.choice([("f", 1), ("g", 2)])
    return App(name, tuple(random_term(rng, depth - 1, allow_vars) for _ in range(arity)))


def random_subst(rng: random.Random, ground: bool = False):
    out = {}
    for v in VARS:
        if rng.random() < 0.7:
            out[v] = random_term(rng, rng.randint(1, 3), allow_vars=not ground)
    return out


def random_atom(rng: random.Random, depth: int = 3, allow_vars: bool = True) -> Atom:
    pred, arity = rng.choice([("p", 1), ("q", 2)])
    return Atom(pred, tuple(random_term(rng, depth, allow_vars) for _ in range(arity)))


# ---------------------------------------------------------------------------
# Random restriction-respecting programs (for the soundness bridge)
# ---------------------------------------------------------------------------

_GEN_PREDS = (("p", 1), ("q", 1))
_GEN_TERMS_BY_VAR: dict[tuple[str, ...], list] = {}


def _pattern_terms(rng: random.Random, vars_allowed: tuple[str, ...]) -> list:
    """Small pool of terms over the given variables and functors c, f."""
    pool = [App("c"), App("f", (App("c"),))]
    for v in vars_allowed:
        pool.append(Var(v))
        pool.append(App("f", (Var(v),)))
        pool.append(App("f", (App("f", (Var(v),)),)))
    return pool


def random_clause(rng: random.Random) -> HornClause:
    pred = rng.choice(_GEN_PREDS)[0]
    head_vars = tuple(v for v in ("X", "Y") if rng.random() < 0.5)
    head_arg = rng.choice(_pattern_terms(rng, head_vars))
    from cohorn.terms import term_vars

    bound = tuple(term_vars(head_arg))
    head = Atom(pred, (head_arg,))
    body = []
    for _ in range(rng.randint(0, 2)):
        bpred = rng.choice(_GEN_PREDS)[0]
        body.append(Atom(bpred, (rng.choice(_pattern_terms(rng, bound)),)))
    return HornClause(tuple(body), head)


def random_program(rng: random.Random) -> Program:
    """Up to 4 clauses over <=2 predicates and <=2 functors, restriction-valid."""
    for _ in range(50):
        n = rng.randint(1, 4)
        clauses: list[HornClause] = []
        for _ in range(n):
            clause = random_clause(rng)
            try:
                Program(tuple(clauses) + (clause,))
            except OverlapError:
                continue
            clauses.append(clause)
        if clauses:
            return Program(tuple(clauses))
    raise AssertionError("generator failed to produce a program")


def program_queries(rng: random.Random, program: Program) -> list[HornClause]:
    """A deterministic mix of ground, non-ground, and Horn queries."""
    queries: list[HornClause] = []
    ground_pool = [App("c"), App("f", (App("c"),)), App("f", (App("f", (App("c"),)),))]
    for clause in program.clauses:
        queries.append(fact(clause.head))
        grounding = {v: rng.choice(ground_pool) for v in _clause_var_names(clause)}
        queries.append(fact(apply_atom(grounding, clause.head)))
    preds = sorted(program.signature.predicates)
    if len(program.clauses) >= 2 and all(
        program.signature.predicates[p] == 1 for p in preds
    ):
        a = program.clauses[0].head
        b = program.clauses[-1].head
        queries.append(HornClause((Atom(b.predicate, (Var("X"),)),), Atom(a.predicate, (Var("X"),))))
    return queries


def _clause_var_names(clause: HornClause) -> list[str]:
    from cohorn.terms import clause_vars

    return clause_vars(clause)


# ---------------------------------------------------------------------------
# Random axiom heads for the head index
# ---------------------------------------------------------------------------

_HEAD_PREDS = (("p", 1), ("q", 2), ("r", 0))


def random_heads(rng: random.Random, n: int) -> list[Atom]:
    """n heads with variable, nested, zero-arity and two-argument shapes.

    About a third of the heads are forced overlaps: an instance of an
    earlier head (which unifies with it), inserted at a random place."""
    heads: list[Atom] = []
    for _ in range(n):
        if heads and rng.random() < 0.35:
            copy = apply_atom(random_subst(rng), rng.choice(heads))
            heads.insert(rng.randint(0, len(heads)), copy)
            continue
        pred, arity = rng.choice(_HEAD_PREDS)
        heads.append(Atom(pred, tuple(random_term(rng, rng.randint(1, 3)) for _ in range(arity))))
    return heads
