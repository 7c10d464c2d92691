"""Proof terms, axiom environments, and the judgement checker.

A judgement env |- e : F is checked against four rules:

  Lp-m  (e : B1,...,Bn => A) in env,  e e1...en : sA  when s matches A on the goal
  Lam   lambda b1...bn. e : B1,...,Bn => A  extends env with facts bi : => Bi
  Nu'   nu a. e : A          extends env with a : => A, e in head normal form
  Nu    nu a. e : B... => A  extends env with the full Horn hypothesis, e in HNF

Checking is search-free: the evidence term dictates the derivation shape and
matchers against a fixed clause head are unique, so for a given judgement the
derivation (or the rejection) is unique.

Proof terms and derivations may be DAGs: the search shares the evidence of a
repeated subgoal, and `check` then shares the subgoal's derivation, which
the CLI lists as one node per distinct node.  `walk`, which runs every
traversal here on an explicit stack, visits each distinct node once per
context, keyed by object identity, so a walk's cost follows the DAG.
Checking keeps the derivation of every (node, env, formula) it checks,
which the result holds anyway; proof rendering keeps text only for the
nodes reached by more than one edge (`shared_nodes`).  `walk` also drives
the engine's search, whose goals it keeps no value for: the search tables
its own subgoals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import AbstractSet, Callable, Optional, Sequence

from .terms import (
    HornClause,
    Program,
    Value,
    _lazy,
    _setattr,
    apply_atom,
    fact,
    format_formula,
    head_key,
    match,
)


# ---------------------------------------------------------------------------
# Proof term syntax
# ---------------------------------------------------------------------------

# Proof terms are dataclasses as well as `Value`s, because the benchmark's
# tracer (bench/tracer.py) finds their sub-terms with `dataclasses.fields`.
# The decorator only records the fields: `Value` supplies the methods, so no
# code is generated.  Proof terms, judgements and derivations are built by
# the hundred per search and check, so each sets its slots in an `__init__`
# of its own, as terms do.
_fields_only = dataclass(init=False, repr=False, eq=False)


@_fields_only
class ConstSym(Value):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        _setattr(self, "name", name)


@_fields_only
class ProofVar(Value):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        _setattr(self, "name", name)


@_fields_only
class Apply(Value):
    __slots__ = ("fun", "arg")
    fun: ProofTerm
    arg: ProofTerm

    def __init__(self, fun: ProofTerm, arg: ProofTerm):
        _setattr(self, "fun", fun)
        _setattr(self, "arg", arg)


@_fields_only
class Lambda(Value):
    __slots__ = ("binders", "body")
    binders: tuple[str, ...]
    body: ProofTerm

    def __init__(self, binders: tuple[str, ...], body: ProofTerm):
        if not binders:
            raise ValueError("Lambda requires at least one binder")
        _setattr(self, "binders", binders)
        _setattr(self, "body", body)


@_fields_only
class Nu(Value):
    __slots__ = ("binder", "body")
    binder: str
    body: ProofTerm

    def __init__(self, binder: str, body: ProofTerm):
        _setattr(self, "binder", binder)
        _setattr(self, "body", body)


ProofTerm = ConstSym | ProofVar | Apply | Lambda | Nu
_LEAVES = (ConstSym, ProofVar)


def spine(e: ProofTerm) -> tuple[ProofTerm, tuple[ProofTerm, ...]]:
    """Unwind left-associated application: e == head a1 ... an."""
    args: list[ProofTerm] = []
    while isinstance(e, Apply):
        args.append(e.arg)
        e = e.fun
    args.reverse()
    return e, tuple(args)


def make_apply(head: ProofTerm, args: Sequence[ProofTerm]) -> ProofTerm:
    out = head
    for a in args:
        out = Apply(out, a)
    return out


def proof_children(e: ProofTerm) -> tuple[ProofTerm, ...]:
    if isinstance(e, Apply):
        return (e.fun, e.arg)
    if isinstance(e, (Lambda, Nu)):
        return (e.body,)
    return ()


def shared_nodes(root, children) -> set[int]:
    """The ids of the nodes that `root` reaches by more than one edge."""
    seen: set[int] = set()
    shared: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            shared.add(id(node))
        else:
            seen.add(id(node))
            stack.extend(children(node))
    return shared


def walk(root, ctx, step: Callable, shared: Optional[AbstractSet[int]] = None):
    """The value of `step(root, ctx)`, computed on a heap stack, not by recursion.

    `step(node, ctx)` returns a generator shaped like a recursive function:
    where that would call itself on a child, it yields `(child, ctx', step')`
    and is sent the child's value; it returns the node's value.  A kept
    node's value is stored under `(id(node), ctx)` for the rest of the walk,
    and a later visit of that pair gets it without running a generator.
    `shared` holds the ids of the kept nodes (`shared_nodes`, so a tree keeps
    nothing); None keeps every node.  An exception from a step propagates."""
    memo: dict = {}
    key = (id(root), ctx) if shared is None or id(root) in shared else None
    send, value, stack = step(root, ctx).send, None, []  # stack: waiting (send, key)
    while True:
        try:
            node, ctx, step = send(value)
        except StopIteration as done:
            value = done.value
            if key is not None:
                memo[key] = value
            if not stack:
                return value
            send, key = stack.pop()
            continue
        child = (id(node), ctx) if shared is None or id(node) in shared else None
        if child in memo:
            value = memo[child]
        else:
            stack.append((send, key))
            send, key, value = step(node, ctx).send, child, None


def free_proof_vars(e: ProofTerm) -> frozenset[str]:
    def free(t: ProofTerm, ctx: None):
        # Constants are read in place, not walked: the engine asks at every ν.
        if isinstance(t, ProofVar):
            return frozenset((t.name,))
        if isinstance(t, Apply):
            fun = frozenset() if isinstance(t.fun, ConstSym) else (yield t.fun, None, free)
            arg = frozenset() if isinstance(t.arg, ConstSym) else (yield t.arg, None, free)
            return fun | arg
        if isinstance(t, Lambda):
            return (yield t.body, None, free) - frozenset(t.binders)
        if isinstance(t, Nu):
            return (yield t.body, None, free) - frozenset((t.binder,))
        return frozenset()

    return walk(e, None, free)


def is_hnf(e: ProofTerm) -> bool:
    """Head normal form: lambda binders over a constant-headed application."""
    while isinstance(e, Lambda):
        e = e.body
    head, _ = spine(e)
    return isinstance(head, ConstSym)


def _bound_at(name: str, binders: tuple[str, ...]) -> Optional[int]:
    """How many binders out the innermost binder of `name` is; None if free."""
    for k, b in enumerate(reversed(binders)):
        if b == name:
            return k
    return None


def alpha_equal(a: ProofTerm, b: ProofTerm) -> bool:
    """Equality up to the names of bound proof variables.  The terms are
    walked side by side, so the walk stops at the first difference, and a
    subterm shared by both under the same binders is not walked at all."""
    stack = [(a, b, (), ())]
    while stack:
        x, y, bx, by = stack.pop()
        if x is y and bx == by:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, ConstSym):
            if x.name != y.name:
                return False
        elif isinstance(x, ProofVar):
            k = _bound_at(x.name, bx)
            if k != _bound_at(y.name, by) or (k is None and x.name != y.name):
                return False
        elif isinstance(x, Apply):
            stack.append((x.arg, y.arg, bx, by))
            stack.append((x.fun, y.fun, bx, by))
        elif isinstance(x, Lambda):
            if len(x.binders) != len(y.binders):
                return False
            stack.append((x.body, y.body, bx + x.binders, by + y.binders))
        else:
            stack.append((x.body, y.body, bx + (x.binder,), by + (y.binder,)))
    return True


def format_proof(e: ProofTerm, unicode: bool = False) -> str:
    """The text of `e`.  Only the nodes shared within `e` keep their text,
    so a shared subterm is rendered at most twice: with parentheses and
    without."""

    def text(t: ProofTerm, wrap: bool):
        # One join, parentheses included; leaves are written in place.
        if isinstance(t, _LEAVES):
            return t.name
        parts = ["("] if wrap else []
        if isinstance(t, Apply):
            head, args = spine(t)
            parts.append(head.name if isinstance(head, _LEAVES) else (yield head, True, text))
            for a in args:
                parts += (" ", a.name if isinstance(a, _LEAVES) else (yield a, True, text))
        elif isinstance(t, Lambda):
            binders = " ".join(t.binders)
            parts += ("λ ", binders, ". ") if unicode else ("\\", binders, " -> ")
            parts.append((yield t.body, False, text))
        else:
            parts += ("ν " if unicode else "nu ", t.binder, ". ", (yield t.body, False, text))
        if wrap:
            parts.append(")")
        return "".join(parts)

    return walk(e, False, text, shared_nodes(e, proof_children))


# ---------------------------------------------------------------------------
# Axiom environments
# ---------------------------------------------------------------------------


class EnvEntry(Value):
    # Lambda-bound hypotheses are `rigid`, monomorphic (a dictionary
    # parameter has one type): they resolve only their literal formula.
    # Axioms, lemmas, and nu-bound hypotheses are implicitly universally
    # quantified and may be used at any instance.  Without this split, lambda
    # hypotheses could be instantiated at unrelated instances, deriving Horn
    # formulas that are invalid in both the least and the greatest model.
    __slots__ = ("evidence", "formula", "rigid")

    def __init__(self, evidence: ProofTerm, formula: HornClause, rigid: bool = False):
        _setattr(self, "evidence", evidence)
        _setattr(self, "formula", formula)
        _setattr(self, "rigid", rigid)


def bind(hyps: Optional[tuple], *entries: EnvEntry) -> Optional[tuple]:
    """The chain `hyps` with `entries` bound inside it in order, one link
    (entry, count of the hypotheses at and above it, parent) each."""
    for e in entries:
        hyps = (e, (hyps[1] if hyps else 0) + 1, hyps)
    return hyps


class AxiomEnv(Value):
    """Axioms and lemmas in `entries`, the path's hypotheses in the `bind`
    chain `hyps`; a binder adds a link and shares the rest, the axiom and
    lemma indexes included.  Only the search reads `axiom_keys`, and it runs
    on no binder's env."""

    __slots__ = ("entries", "hyps", "_axioms", "_lemmas", "_axiom_keys")
    _defaults = {"entries": (), "hyps": None}

    def extended(self, *hyps: EnvEntry) -> "AxiomEnv":
        env = AxiomEnv(self.entries, bind(self.hyps, *hyps))
        _setattr(env, "_axioms", self.axioms)
        _setattr(env, "_lemmas", self.lemmas)
        return env

    @_lazy
    def axioms(self) -> dict[str, EnvEntry]:
        """Each constant's first entry, by name."""
        index: dict[str, EnvEntry] = {}
        for e in self.entries:
            if isinstance(e.evidence, ConstSym):
                index.setdefault(e.evidence.name, e)
        return index

    @_lazy
    def axiom_keys(self) -> tuple[tuple[str, Optional[str]], ...]:
        """The `head_key` of each entry of `axioms`, in its order."""
        return tuple([head_key(e.formula.head) for e in self.axioms.values()])

    @_lazy
    def lemmas(self) -> tuple[EnvEntry, ...]:
        return tuple(e for e in self.entries if not isinstance(e.evidence, ConstSym))

    def axiom(self, name: str) -> Optional[EnvEntry]:
        return self.axioms.get(name)

    def lemma_for(self, evidence: ProofTerm) -> Optional[EnvEntry]:
        for e in self.lemmas:
            if alpha_equal(e.evidence, evidence):
                return e
        return None

    def add_lemma(self, evidence: ProofTerm, formula: HornClause) -> "AxiomEnv":
        if isinstance(evidence, (ConstSym, ProofVar)):
            raise ValueError("lemma evidence must be a compound proof term")
        if free_proof_vars(evidence):
            raise ValueError("lemma evidence must be a closed proof term")
        env = AxiomEnv(self.entries + (EnvEntry(evidence, formula),), self.hyps)
        # A lemma is no constant: the axiom index and its keys stay the same.
        _setattr(env, "_axioms", self.axioms)
        _setattr(env, "_axiom_keys", self.axiom_keys)
        return env


def env_for_program(program: Program, names: Optional[Sequence[str]] = None) -> AxiomEnv:
    """Axiom entries k1..kn in clause order, per the axiom-environment translation."""
    if names is None:
        names = [f"k{i + 1}" for i in range(len(program.clauses))]
    if len(names) != len(program.clauses) or len(set(names)) != len(names):
        raise ValueError("one distinct name per clause is required")
    env = AxiomEnv(tuple(map(EnvEntry, map(ConstSym, names), program.clauses)))
    # The names are distinct, so `axioms` lists every clause, in order.
    _setattr(env, "_axiom_keys", program.head_keys)
    return env


# ---------------------------------------------------------------------------
# Judgements, derivations, checking
# ---------------------------------------------------------------------------


class Rule(Enum):
    LP_M = "Lp-m"
    LAM = "Lam"
    NU_PRIME = "Nu'"
    NU = "Nu"


class Judgement(Value):
    __slots__ = ("env", "evidence", "formula")

    def __init__(self, env: AxiomEnv, evidence: ProofTerm, formula: HornClause):
        _setattr(self, "env", env)
        _setattr(self, "evidence", evidence)
        _setattr(self, "formula", formula)


class Derivation(Value):
    __slots__ = ("rule", "judgement", "matcher", "children")  # matcher: None unless Lp-m

    def __init__(self, rule: Rule, judgement: Judgement, matcher: Optional[dict], children: tuple):
        _setattr(self, "rule", rule)
        _setattr(self, "judgement", judgement)
        _setattr(self, "matcher", matcher)
        _setattr(self, "children", children)

    @property
    def formula(self) -> HornClause:
        return self.judgement.formula

    @property
    def evidence(self) -> ProofTerm:
        return self.judgement.evidence

    def rules_used(self) -> frozenset[Rule]:
        """The rules of the distinct nodes, each visited once."""
        found: set[Rule] = set()
        seen: set[int] = set()
        stack = [self]
        while stack:
            d = stack.pop()
            if id(d) not in seen:
                seen.add(id(d))
                found.add(d.rule)
                stack.extend(d.children)
        return frozenset(found)

    @property
    def entry_name(self) -> Optional[str]:
        """The entry an Lp-m node resolves with: its constant or variable
        name, or "lemma" for a compound lemma term; None for other rules.
        An atomic lemma used by its bare evidence has no children, whatever
        the arguments on its evidence's spine."""
        if self.matcher is None:
            return None
        head, args = spine(self.evidence)
        if isinstance(head, (ConstSym, ProofVar)) and len(args) == len(self.children):
            return head.name
        return "lemma"


class CheckReason(Enum):
    UNBOUND_VAR = "UNBOUND_VAR"
    NO_MATCH = "NO_MATCH"
    HNF_REQUIRED = "HNF_REQUIRED"
    RULE_SHAPE = "RULE_SHAPE"
    ARITY = "ARITY"


class CheckError(Exception):
    """Rejection of a judgement: deepest-leftmost failing node plus reason.
    `path` comes as linked `(index, parent)` pairs and is kept as a tuple."""

    def __init__(
        self,
        reason: CheckReason,
        message: str,
        path: Optional[tuple],
        evidence: ProofTerm,
        formula: HornClause,
    ):
        indices = []
        while path:
            i, path = path
            indices.append(i)
        path = self.path = tuple(reversed(indices))
        self.reason = reason
        self.evidence = evidence
        self.formula = formula
        loc = "/".join(str(i) for i in path) or "root"
        super().__init__(f"{reason.value} at {loc}: {message}")


def _resolve_head(
    env: AxiomEnv, bound: dict, head: ProofTerm, path: Optional[tuple], e: ProofTerm, f: HornClause
) -> EnvEntry:
    if isinstance(head, ConstSym):
        entry = env.axiom(head.name)
        if entry is None:
            raise CheckError(
                CheckReason.UNBOUND_VAR, f"unknown constant {head.name}", path, e, f
            )
        return entry
    if isinstance(head, ProofVar):
        entries = bound.get(head.name)
        if not entries:
            raise CheckError(
                CheckReason.UNBOUND_VAR, f"unbound proof variable {head.name}", path, e, f
            )
        return entries[-1]
    entry = env.lemma_for(head)
    if entry is None:
        raise CheckError(
            CheckReason.RULE_SHAPE,
            "application head is not an axiom, hypothesis, or registered lemma",
            path,
            e,
            f,
        )
    return entry


def _goal(env: AxiomEnv, bound: dict, e: ProofTerm, f: HornClause, path: Optional[tuple]):
    """The `walk` triple that checks env |- e : f at `path`.  The context
    `(id(env), f)` keys the memo; a stored derivation holds its env, so the
    id stays that of a live object.  `bound` maps each hypothesis name to
    its bindings in `env`, innermost last: a binder pushes its hypotheses
    there while its body is checked and pops them after, so a lookup reads
    one list instead of walking `env.hyps`."""
    return e, (id(env), f), partial(_check, env, bound, path)


def _check(
    env: AxiomEnv, bound: dict, path: Optional[tuple], e: ProofTerm, goal: tuple[int, HornClause]
):
    f = goal[1]
    # The engine uses an atomic lemma by its bare evidence, which may be a nu
    # term or an application; at an atomic goal that the lemma's head
    # matches, that term is an Lp-m step on the lemma entry, not a fresh Nu'
    # step or an application of its head.  The search may also build the
    # same term afresh at a goal the lemma does not match; it is read by its
    # shape there.
    lemma = None
    if not f.body and env.lemmas and not isinstance(e, (ConstSym, ProofVar)):
        lemma = next((
            entry for entry in env.lemmas
            if not entry.formula.body
            and match(entry.formula.head, f.head) is not None
            and alpha_equal(entry.evidence, e)
        ), None)
    if isinstance(e, Nu) and lemma is None:
        # Nu on a Horn formula, Nu' on an atom: the hypothesis is f itself.
        if not is_hnf(e.body):
            raise CheckError(
                CheckReason.HNF_REQUIRED, "nu body is not in head normal form", path, e, f
            )
        hyp = EnvEntry(ProofVar(e.binder), f)
        entries = bound.setdefault(e.binder, [])
        entries.append(hyp)
        child = yield _goal(env.extended(hyp), bound, e.body, f, (0, path))
        entries.pop()
        rule = Rule.NU if f.body else Rule.NU_PRIME
        return Derivation(rule, Judgement(env, e, f), None, (child,))
    if f.body:
        if isinstance(e, Lambda):
            if len(e.binders) != len(f.body):
                raise CheckError(
                    CheckReason.RULE_SHAPE,
                    f"{len(e.binders)} binder(s) against {len(f.body)} body atom(s)",
                    path,
                    e,
                    f,
                )
            hyps = tuple(
                EnvEntry(ProofVar(b), fact(a), rigid=True)
                for b, a in zip(e.binders, f.body)
            )
            for hyp in hyps:
                bound.setdefault(hyp.evidence.name, []).append(hyp)
            child = yield _goal(env.extended(*hyps), bound, e.body, fact(f.head), (0, path))
            for hyp in hyps:
                bound[hyp.evidence.name].pop()
            return Derivation(Rule.LAM, Judgement(env, e, f), None, (child,))
        raise CheckError(
            CheckReason.RULE_SHAPE,
            "a Horn formula needs lambda or nu evidence",
            path,
            e,
            f,
        )
    # Atomic formula.
    if isinstance(e, Lambda):
        raise CheckError(
            CheckReason.RULE_SHAPE,
            "lambda evidence against an atomic formula",
            path,
            e,
            f,
        )
    if lemma is None:
        head, args = spine(e)
        entry = _resolve_head(env, bound, head, path, e, f)
    else:
        entry, args = lemma, ()
    clause = entry.formula
    if len(args) != len(clause.body):
        raise CheckError(
            CheckReason.ARITY,
            f"{_entry_label(entry)} expects {len(clause.body)} argument(s), got {len(args)}",
            path,
            e,
            f,
        )
    sigma = match(clause.head, f.head)
    if sigma is None:
        raise CheckError(
            CheckReason.NO_MATCH,
            f"head of {_entry_label(entry)} ({clause.head}) does not match goal {f.head}",
            path,
            e,
            f,
        )
    if entry.rigid and sigma:
        raise CheckError(
            CheckReason.NO_MATCH,
            f"lambda hypothesis {_entry_label(entry)} is monomorphic; "
            f"it cannot be instantiated at {f.head}",
            path,
            e,
            f,
        )
    children = []
    for i, (arg, b) in enumerate(zip(args, clause.body)):
        children.append((yield _goal(env, bound, arg, fact(apply_atom(sigma, b)), (i, path))))
    return Derivation(Rule.LP_M, Judgement(env, e, f), sigma, tuple(children))


def _entry_label(entry: EnvEntry) -> str:
    if isinstance(entry.evidence, (ConstSym, ProofVar)):
        return entry.evidence.name
    return f"lemma ({format_formula(entry.formula)})"


def check(env: AxiomEnv, evidence: ProofTerm, formula: HornClause) -> Derivation:
    """Return the unique derivation of env |- evidence : formula.

    Raises CheckError with the deepest-leftmost failure otherwise.  A
    subterm shared within `evidence` is checked once per environment and
    formula, and its derivation is shared too.
    """
    # The innermost binding of each name in `env.hyps`; the binders of
    # `evidence` push and pop theirs above it.
    bound: dict[str, list[EnvEntry]] = {}
    link = env.hyps
    while link:
        bound.setdefault(link[0].evidence.name, [link[0]])
        link = link[2]
    return walk(*_goal(env, bound, evidence, formula, None))
