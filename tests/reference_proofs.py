"""Recursive proof-term and derivation helpers that only tests use.

`normalize_binders` renames bound proof variables canonically, so
`tests/test_proofs.py` can compare `alpha_equal` against plain equality of
normalised terms, and `tests/test_acceptance.py` can print proofs up to
binder names.  `check_derivation` validates a derivation node by node
against its rule, and `admissibility_view` re-expresses a Nu'-rooted
derivation as Nu over a zero-binder Lam, the shape the paper uses to show
that Nu' is admissible.  They recurse, so they suit the small terms of the
tests, not deep ones.  `format_derivation` prints a derivation as the tree
it unfolds to, two spaces per level: `tests/test_tabling.py` unfolds the
`#k#` references of a text report's derivation and compares the result
with it.  `depth` counts the nodes on a derivation's longest path.  These
two run on `proofs.walk`, so they take deep and shared derivations too.
`hypothesis` reads a name's binding off an env's hypothesis chain by
walking it, as `check` once did.
"""

from __future__ import annotations

from typing import Optional

from cohorn.proofs import (
    Apply,
    AxiomEnv,
    CheckError,
    CheckReason,
    ConstSym,
    Derivation,
    EnvEntry,
    Lambda,
    Nu,
    ProofTerm,
    ProofVar,
    Rule,
    check,
    is_hnf,
    shared_nodes,
    walk,
)
from cohorn.terms import format_formula, format_subst


def hypothesis(env: AxiomEnv, name: str) -> Optional[EnvEntry]:
    """The innermost binding of `name` in `env.hyps`, None if unbound."""
    link = env.hyps
    while link and link[0].evidence.name != name:
        link = link[2]
    return link[0] if link else None


def _normalize(e: ProofTerm, env: dict[str, str], counter: list[int]) -> ProofTerm:
    if isinstance(e, ConstSym):
        return e
    if isinstance(e, ProofVar):
        return ProofVar(env.get(e.name, e.name))
    if isinstance(e, Apply):
        return Apply(_normalize(e.fun, env, counter), _normalize(e.arg, env, counter))
    if isinstance(e, Lambda):
        inner = dict(env)
        fresh = []
        for b in e.binders:
            counter[0] += 1
            name = f"v{counter[0]}"
            inner[b] = name
            fresh.append(name)
        return Lambda(tuple(fresh), _normalize(e.body, inner, counter))
    counter[0] += 1
    name = f"v{counter[0]}"
    inner = dict(env)
    inner[e.binder] = name
    return Nu(name, _normalize(e.body, inner, counter))


def normalize_binders(e: ProofTerm) -> ProofTerm:
    """Rename bound proof variables to a canonical v1, v2, ... sequence."""
    return _normalize(e, {}, [0])


def check_derivation(d: Derivation) -> None:
    """Validate every node of a derivation tree locally against its rule.

    Unlike `check`, this accepts the Nu-with-empty-Lam trees produced by
    `admissibility_view`.  Raises CheckError on the first invalid node.
    """
    env, e, f = d.judgement.env, d.judgement.evidence, d.judgement.formula
    if d.rule is Rule.LP_M:
        again = check(env, e, f)
        if again.rule is not Rule.LP_M or again.matcher != d.matcher:
            raise CheckError(
                CheckReason.RULE_SHAPE, "node does not re-check as Lp-m", (), e, f
            )
        for child in d.children:
            check_derivation(child)
        return
    if d.rule is Rule.LAM:
        if isinstance(e, Lambda):
            check(env, e, f)
        else:
            # Zero-binder form from admissibility_view: same judgement below.
            if f.body or len(d.children) != 1:
                raise CheckError(
                    CheckReason.RULE_SHAPE, "empty Lam must target an atomic formula", (), e, f
                )
            child = d.children[0]
            if child.judgement.evidence != e or child.judgement.formula != f:
                raise CheckError(
                    CheckReason.RULE_SHAPE, "empty Lam child judgement mismatch", (), e, f
                )
        for child in d.children:
            check_derivation(child)
        return
    if d.rule in (Rule.NU, Rule.NU_PRIME):
        if not isinstance(e, Nu):
            raise CheckError(CheckReason.RULE_SHAPE, "nu rule without nu evidence", (), e, f)
        if not is_hnf(e.body):
            raise CheckError(CheckReason.HNF_REQUIRED, "nu body not in HNF", (), e, f)
        if len(d.children) != 1:
            raise CheckError(CheckReason.RULE_SHAPE, "nu node needs one child", (), e, f)
        child = d.children[0]
        if child.judgement.formula != f:
            raise CheckError(CheckReason.RULE_SHAPE, "nu child formula mismatch", (), e, f)
        check_derivation(child)
        return
    raise CheckError(CheckReason.RULE_SHAPE, f"unknown rule {d.rule}", (), e, f)


def admissibility_view(d: Derivation) -> Derivation:
    """Re-express a Nu'-rooted derivation as Nu over a zero-binder Lam child."""
    if d.rule is not Rule.NU_PRIME:
        raise CheckError(
            CheckReason.RULE_SHAPE,
            "admissibility view requires a Nu' root",
            (),
            d.judgement.evidence,
            d.judgement.formula,
        )
    inner = d.children[0]
    lam = Derivation(Rule.LAM, inner.judgement, None, (inner,))
    return Derivation(Rule.NU, d.judgement, None, (lam,))


def format_derivation(d: Derivation, indent: int = 0) -> str:
    """The derivation as the tree it unfolds to, a line per node visit, each
    child two spaces under its parent, starting `indent` levels in."""

    # A node's value is its list of lines, so the text is joined once.
    def lines(d: Derivation, indent: int):
        label = d.rule.value
        if d.matcher is not None:
            sig = format_subst(d.matcher) if d.matcher else "{}"
            label = f"{label} [{d.entry_name} {sig}]"
        out = [f"{'  ' * indent}{label} {format_formula(d.judgement.formula)}"]
        for c in d.children:
            out += yield c, indent + 1, lines
        return out

    return "\n".join(walk(d, indent, lines, shared_nodes(d, lambda n: n.children)))


def depth(d: Derivation) -> int:
    """The number of nodes on the longest root-to-leaf path of `d`; a shared
    node is visited once."""

    def go(d: Derivation, ctx: None):
        deepest = 0
        for c in d.children:
            deepest = max(deepest, (yield c, None, go))
        return deepest + 1

    return walk(d, None, go)
