"""The oracle's grounding as it was before the column join: a reference for tests.

`matches` filters each argument position's column of universe ids, then
matches the whole head again for every combination of the filtered columns.
`ground_program` looks each body atom of each instance up through a dict
env.  `tests/test_herbrand.py` checks that `cohorn.herbrand._ground_program`
returns the same `_Grounding`, in the same instance order, on random, corpus
and benchmark-shaped inputs.
"""

from __future__ import annotations

from functools import reduce
from itertools import product, repeat
from typing import Iterator

from cohorn.herbrand import HerbrandBase, _Grounding
from cohorn.terms import Atom, Program, Term, Var, apply_atom


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
            body = [base.atom_id(b, env) for b in clause.body]
            if None in body:
                terms = {v: base.universe[t] for v, t in env.items()}
                g.outside[len(g.heads)] = tuple(
                    apply_atom(terms, b) for b, k in zip(clause.body, body) if k is None
                )
                body = [k for k in body if k is not None]
            g.heads.append(head)
            g.bodies.append(tuple(body))
    return g
