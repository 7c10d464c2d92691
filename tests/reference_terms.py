"""Brute-force term helpers: references for tests.

`enumerate_ground_terms` is the universe enumeration as it was before
layer-by-layer building.  Layer k rescans `product(result, repeat=arity)`
over every term built so far and keeps the tuples with an argument of depth
k - 1.  `tests/test_terms.py` checks that a base's `universe` is the same
list, in the same order.

`term_sort_key` and `atom_sort_key` state that order as a sort key: depth,
then functor, then arguments; atoms by predicate, then arguments.  The
oracle numbers terms and atoms in it, and lists sets of atoms in it.

`ground_instances` instantiates a clause's variables over a universe in
every way; the oracle's head-driven grounding is tested against it.

`term_depth` and `compose` serve only tests, so they live here, not in
`cohorn.terms`.
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, Sequence

from cohorn.terms import App, Atom, HornClause, Signature, Subst, Term, Var, apply_atom, apply_term, clause_vars


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + max((term_depth(a) for a in t.args), default=0)


def compose(s: Mapping[str, Term], t: Mapping[str, Term]) -> Subst:
    """compose(s, t) applied to x equals s applied to (t applied to x)."""
    out: Subst = {}
    for v, term in t.items():
        mapped = apply_term(s, term)
        if not (isinstance(mapped, Var) and mapped.name == v):
            out[v] = mapped
    for v, term in s.items():
        if v not in t and not (isinstance(term, Var) and term.name == v):
            out[v] = term
    return out


def term_sort_key(t: Term):
    if isinstance(t, Var):
        return (1, t.name, ())
    args = tuple(term_sort_key(a) for a in t.args)
    return (1 + max((k[0] for k in args), default=0), t.functor, args)


def atom_sort_key(a: Atom):
    return (a.predicate, tuple(term_sort_key(t) for t in a.args))


def enumerate_ground_terms(sig: Signature, depth: int) -> list[Term]:
    funcs = sorted(sig.functions.items())
    layer: list[Term] = [App(n) for n, a in funcs if a == 0]
    result: list[Term] = list(layer)
    depths: dict[Term, int] = {t: 1 for t in layer}
    for k in range(2, depth + 1):
        layer = []
        for name, arity in funcs:
            if arity == 0:
                continue
            for args in product(result, repeat=arity):
                if max(depths[a] for a in args) == k - 1:
                    layer.append(App(name, args))
        if not layer:
            break
        for t in layer:
            depths[t] = k
        result.extend(layer)
    return result


def apply_clause(s: Mapping[str, Term], c: HornClause) -> HornClause:
    return HornClause(tuple(apply_atom(s, b) for b in c.body), apply_atom(s, c.head))


def ground_instances(clause: HornClause, universe: Sequence[Term]) -> list[HornClause]:
    """All instantiations of the clause's variables over the universe."""
    names = clause_vars(clause)
    if not names:
        return [clause]
    out = []
    for combo in product(universe, repeat=len(names)):
        s = dict(zip(names, combo))
        out.append(apply_clause(s, clause))
    return out
