"""Naive oracle routines: references for tests.

The grounding as it was before the column join: `matches` filters each
argument position's column of universe ids, then matches the whole head
again for every combination of the filtered columns.  `ground_program`
builds each body atom of each instance with `apply_atom` and looks it up.
`tests/test_herbrand.py` checks that `cohorn.herbrand._ground_program`
returns the same `_Grounding`, in the same instance order, on random, corpus
and benchmark-shaped inputs.

The one-step consequence operator as the definition states it: `tp_step`
fires every instance whose body the interpretation holds.  The tests re-apply
it to check the fixpoints, certificates and monotonicity that the oracle
computes by counter propagation.

The base route for a ground atom, as `certify_gfp` and `valid` took it
before they grounded only the atoms the atom reaches: `certify_by_base` and
`valid_by_base` build the whole depth-bounded base, ground the program over
it and read the atom off its fixpoints.  `tests/test_closure.py` compares
them with `cohorn.herbrand`.

The closure judge as plain recursion over `terms.match` and `apply_atom`:
`closure_judge` decides a ground atom's membership in the greatest and the
least model, and its least-model stage, from the graph of the clause
instances it reaches.  `tests/test_closure.py` holds it against the engine
and against the fixpoints of `cohorn.herbrand._reach`'s grounding.
"""

from __future__ import annotations

from functools import reduce
from itertools import product, repeat
from typing import Iterator, Optional

from cohorn.herbrand import (
    AtomSet,
    Certificate,
    HerbrandBase,
    Interpretation,
    Policy,
    Semantics,
    ValidityVerdict,
    Verdict,
    _Grounding,
    _ground_program,
    _propagate,
    _support,
    herbrand_base,
)
from cohorn import terms
from cohorn.terms import DEFAULT_MAX_ATOMS, Atom, Program, Term, Var, apply_atom, atom_vars


def match(base: HerbrandBase, p: Term, t: int, env: dict[str, int]) -> bool:
    if isinstance(p, Var):
        return env.setdefault(p.name, t) == t
    functor, children = base.terms[t]
    return functor == p.functor and all(map(match, repeat(base), p.args, children, repeat(env)))


def matches(base: HerbrandBase, pattern: Atom) -> Iterator[tuple[int, dict[str, int]]]:
    """(id, variable -> term id) for each base atom that `pattern`
    matches, in id order; each argument position is filtered first."""
    arity, lo = base.offsets.get(pattern.predicate, (-1, 0))
    if arity != len(pattern.args):
        return
    n = len(base.universe)
    columns = [[t for t in range(n) if match(base, p, t, {})] for p in pattern.args]
    for combo in product(*columns):
        env: dict[str, int] = {}
        if all(map(match, repeat(base), pattern.args, combo, repeat(env))):
            yield lo + reduce(lambda k, t: k * n + t, combo, 0), env


def ground_program(program: Program, base: HerbrandBase) -> _Grounding:
    g = _Grounding([], [], {}, base.size)
    for clause in program.clauses:
        for head, env in matches(base, clause.head):
            terms = {v: base.universe[t] for v, t in env.items()}
            atoms = [apply_atom(terms, b) for b in clause.body]
            body = [base.atom_id(b) for b in atoms]
            if None in body:
                g.outside[len(g.heads)] = tuple(b for b, k in zip(atoms, body) if k is None)
                body = [k for k in body if k is not None]
            g.heads.append(head)
            g.bodies.append(tuple(body))
    return g


def empty_interpretation(base: HerbrandBase) -> Interpretation:
    return Interpretation(frozenset(), base)


def full_interpretation(base: HerbrandBase) -> Interpretation:
    return Interpretation(base.atoms, base)


def _step(g: _Grounding, mask: bytes, policy: Policy) -> bytearray:
    produced = bytearray(len(mask))
    for i, (head, body) in enumerate(zip(g.heads, g.bodies)):
        if all(mask[b] for b in body) and not (policy is Policy.PESSIMISTIC and i in g.outside):
            produced[head] = 1
    return produced


def tp_step(
    program: Program, interp: Interpretation, policy: Policy = Policy.PESSIMISTIC
) -> Interpretation:
    """One application of the bounded one-step consequence operator."""
    base = interp.base
    mask = bytearray(base.size)
    for k in map(base.atom_id, interp.atoms):
        if k is not None:
            mask[k] = 1
    produced = _step(_ground_program(program, base), mask, policy)
    return Interpretation(AtomSet(base, bytes(produced)), base)


def tp_monotone_check(
    program: Program,
    i: Interpretation,
    j: Interpretation,
    policy: Policy = Policy.PESSIMISTIC,
) -> bool:
    if i.base != j.base:
        raise ValueError("interpretations must share a base")
    if not i.atoms <= j.atoms:
        raise ValueError("monotonicity check requires i.atoms <= j.atoms")
    return tp_step(program, i, policy).atoms <= tp_step(program, j, policy).atoms


def _base_of(program: Program, atom: Atom, depth: int, extra_constants, max_atoms) -> HerbrandBase:
    sig = program.signature.merged([atom])
    return herbrand_base(sig, depth, extra_constants, max_atoms)


def certify_by_base(
    program: Program,
    target: Atom,
    depth: int,
    *,
    extra_constants=(),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Optional[Certificate]:
    """The support of `target` in the optimistic gfp of the whole base,
    with the base's counters; its support is an `AtomSet` and its frontier
    a plain frozenset of `Atom`s."""
    if atom_vars(target):
        raise ValueError("certificate targets must be ground atoms")
    base = _base_of(program, target, depth, extra_constants, max_atoms)
    k = base.atom_id(target)
    if k is None:
        return None
    g = _ground_program(program, base)
    live, rounds = _propagate(g, True, {})
    if not live[k]:
        return None
    support, frontier = _support(g, live, (k,))
    return Certificate(
        target, AtomSet(base, bytes(support)), frozenset(frontier), depth,
        base_atoms=base.size, instances=len(g.heads), rounds=rounds,
    )


def valid_by_base(
    program: Program, atom: Atom, semantics: Semantics, depth: int, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ValidityVerdict:
    """`valid` of the ground atomic formula `atom` on the whole base: a
    formula with no variable and no body has one grounding, the atom, if
    the base holds it; VALID when the pessimistic fixpoint holds it,
    UNKNOWN when only the optimistic one does, else INVALID."""
    base = _base_of(program, atom, depth, (), max_atoms)
    k = base.atom_id(atom)
    if k is None:
        note = "no grounding of the formula fits inside the bounded base"
        return ValidityVerdict(Verdict.UNKNOWN, None, semantics, depth, note=note)
    g = _ground_program(program, base)
    greatest = semantics is Semantics.COIND
    sure, maybe = (_propagate(g, greatest, mute)[0][k] for mute in (g.outside, {}))
    if sure:
        return ValidityVerdict(Verdict.VALID, None, semantics, depth)
    if maybe:
        note = "some instance is boundary-uncertain at this depth"
        return ValidityVerdict(Verdict.UNKNOWN, None, semantics, depth, note=note)
    return ValidityVerdict(Verdict.INVALID, {}, semantics, depth, note=f"instance {atom} fails at depth {depth}")


class ClosureTooLarge(Exception):
    """The closure holds more atoms than the judge was allowed to visit."""


def closure_graph(program: Program, atom: Atom, limit: int) -> dict[Atom, Optional[tuple[Atom, ...]]]:
    """The closure of the ground atom `atom` as a graph, found by plain
    recursion: each atom it reaches maps to the body of the one clause
    instance whose head matches it, or to None when no clause head
    matches.  Raises ClosureTooLarge past `limit` atoms."""
    graph: dict[Atom, Optional[tuple[Atom, ...]]] = {}

    def visit(a: Atom) -> None:
        if a in graph:
            return
        if len(graph) == limit:
            raise ClosureTooLarge(a)
        bodies = [
            tuple(apply_atom(s, b) for b in c.body)
            for c in program.clauses
            if (s := terms.match(c.head, a)) is not None
        ]
        assert len(bodies) <= 1, "axiom heads overlap"
        graph[a] = bodies[0] if bodies else None
        for b in graph[a] or ():
            visit(b)

    visit(atom)
    return graph


def closure_judge(program: Program, atom: Atom, limit: int) -> tuple[bool, Optional[int], int]:
    """(whether `atom` is in the greatest model, its stage in the least
    model or None when it is not in it, the number of atoms in its
    closure), read off `closure_graph`.  An atom with an instance whose body
    is empty has stage 1, and any other atom of the least model one more
    than the highest stage in its body; an atom on, or above, a cycle has
    none."""
    graph = closure_graph(program, atom, limit)
    stages: dict[Atom, Optional[int]] = {}

    def stage(a: Atom) -> Optional[int]:
        if a not in stages:
            stages[a] = None  # open: a cycle back to `a` finds no stage
            body = graph[a]
            if body is not None:
                below = [stage(b) for b in body]
                if None not in below:
                    stages[a] = 1 + max(below, default=0)
        return stages[a]

    return all(body is not None for body in graph.values()), stage(atom), len(graph)
