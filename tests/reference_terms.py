"""The universe enumeration as it was before layer-by-layer building: a
reference for tests.

Layer k rescans `product(result, repeat=arity)` over every term built so far
and keeps the tuples with an argument of depth k - 1.  `tests/test_terms.py`
checks that `cohorn.terms.enumerate_ground_terms` returns the same list, in
the same order.
"""

from __future__ import annotations

from itertools import product

from cohorn.terms import App, Signature, Term


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
