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
repeated subgoal, and `check` then shares the subgoal's derivation.  `walk`,
which runs every traversal here on an explicit stack, visits each distinct
node once per context, keyed by object identity, so a walk's cost follows
the DAG, not the tree it unfolds to.  Checking and rendering keep values
only for the nodes reached by more than one edge (`shared_nodes`).
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
    format_subst,
    match,
)


# ---------------------------------------------------------------------------
# Proof term syntax
# ---------------------------------------------------------------------------

# Proof terms are dataclasses as well as `Value`s, because the benchmark's
# tracer (bench/tracer.py) finds their sub-terms with `dataclasses.fields`.
# The decorator only records the fields: `Value` supplies the methods, so no
# code is generated.
_fields_only = dataclass(init=False, repr=False, eq=False)


@_fields_only
class ConstSym(Value):
    __slots__ = ("name",)
    name: str


@_fields_only
class ProofVar(Value):
    __slots__ = ("name",)
    name: str


@_fields_only
class Apply(Value):
    __slots__ = ("fun", "arg")
    fun: ProofTerm
    arg: ProofTerm


@_fields_only
class Lambda(Value):
    __slots__ = ("binders", "body")
    binders: tuple[str, ...]
    body: ProofTerm

    def __init__(self, binders: tuple[str, ...], body: ProofTerm):
        if not binders:
            raise ValueError("Lambda requires at least one binder")
        super().__init__(binders, body)


@_fields_only
class Nu(Value):
    __slots__ = ("binder", "body")
    binder: str
    body: ProofTerm


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


def walk(root, ctx, step: Callable, shared: Optional[AbstractSet[int]] = None, memo: Optional[dict] = None):
    """The value of `step(root, ctx)`, computed on a heap stack, not by recursion.

    `step(node, ctx)` returns a generator shaped like a recursive function:
    where that would call itself on a child, it yields `(child, ctx', step')`
    and is sent the child's value; it returns the node's value.  A kept
    node's value is stored in `memo` under `(id(node), ctx)`, and a later
    visit of that pair gets it without running a generator.  `shared` holds
    the ids of the kept nodes (`shared_nodes`, so a tree keeps nothing);
    None keeps every node.  A caller's `memo` may serve several walks if the
    nodes outlive it.  An exception from a step propagates, and nothing is
    stored for the nodes that were waiting on it."""
    if memo is None:
        memo = {}
    key = (id(root), ctx) if shared is None or id(root) in shared else None
    if key in memo:
        return memo[key]
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


def format_proof(
    e: ProofTerm, unicode: bool = False, memo: Optional[dict[tuple[int, bool], str]] = None
) -> str:
    """The text of `e`.  Without `memo` only the nodes shared within `e`
    keep their text.  A caller that prints many subterms of one proof (a
    derivation's evidence, node by node) passes one dict to every call, with
    one `unicode` setting; it then keeps the text of every compound node, so
    each is rendered once per report.  The terms must outlive that dict,
    which is keyed by their ids."""

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

    shared = shared_nodes(e, proof_children) if memo is None else None
    return walk(e, False, text, shared, memo)


# ---------------------------------------------------------------------------
# Axiom environments
# ---------------------------------------------------------------------------


class EntryKind(Enum):
    AXIOM = "axiom"
    HYPOTHESIS = "hypothesis"
    LEMMA = "lemma"


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

    @property
    def kind(self) -> EntryKind:
        if isinstance(self.evidence, ConstSym):
            return EntryKind.AXIOM
        if isinstance(self.evidence, ProofVar):
            return EntryKind.HYPOTHESIS
        return EntryKind.LEMMA


class AxiomEnv(Value):
    # The caches are built on first use, for the checker asks at every node.
    __slots__ = ("entries", "_axioms", "_lemmas")  # _lemmas: lemmas()
    _defaults = {"entries": ()}

    def extended(self, *entries: EnvEntry) -> "AxiomEnv":
        env = AxiomEnv(self.entries + entries)
        if all(isinstance(e.evidence, ProofVar) for e in entries):
            # Hypotheses add no axiom or lemma: the caches stay valid.
            _setattr(env, "_axioms", self._axioms)
            _setattr(env, "_lemmas", self._lemmas)
        return env

    @_lazy
    def axioms(self) -> dict[str, EnvEntry]:
        """Each constant's first entry, by name."""
        index: dict[str, EnvEntry] = {}
        for e in self.entries:
            if isinstance(e.evidence, ConstSym):
                index.setdefault(e.evidence.name, e)
        return index

    def axiom(self, name: str) -> Optional[EnvEntry]:
        return self.axioms.get(name)

    def hypothesis(self, name: str) -> Optional[EnvEntry]:
        # Newest binding wins, so inner binders shadow outer ones.
        for e in reversed(self.entries):
            if isinstance(e.evidence, ProofVar) and e.evidence.name == name:
                return e
        return None

    def lemma_for(self, evidence: ProofTerm) -> Optional[EnvEntry]:
        for e in self.lemmas():
            if alpha_equal(e.evidence, evidence):
                return e
        return None

    def lemmas(self) -> tuple[EnvEntry, ...]:
        found = self._lemmas
        if found is None:
            found = tuple(e for e in self.entries if e.kind is EntryKind.LEMMA)
            _setattr(self, "_lemmas", found)
        return found

    def add_lemma(self, evidence: ProofTerm, formula: HornClause) -> "AxiomEnv":
        if isinstance(evidence, (ConstSym, ProofVar)):
            raise ValueError("lemma evidence must be a compound proof term")
        if free_proof_vars(evidence):
            raise ValueError("lemma evidence must be a closed proof term")
        return self.extended(EnvEntry(evidence, formula))


def env_for_program(program: Program, names: Optional[Sequence[str]] = None) -> AxiomEnv:
    """Axiom entries k1..kn in clause order, per the axiom-environment translation."""
    if names is None:
        names = [f"k{i + 1}" for i in range(len(program.clauses))]
    if len(names) != len(program.clauses):
        raise ValueError("one name per clause is required")
    return AxiomEnv(
        tuple(EnvEntry(ConstSym(n), c) for n, c in zip(names, program.clauses))
    )


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


class Derivation(Value):
    __slots__ = ("rule", "judgement", "matcher", "children")  # matcher: None unless Lp-m

    @property
    def formula(self) -> HornClause:
        return self.judgement.formula

    @property
    def evidence(self) -> ProofTerm:
        return self.judgement.evidence

    def rules_used(self) -> frozenset[Rule]:
        def rules(d: Derivation, ctx: None):
            found = {d.rule}
            for c in d.children:
                found |= yield c, None, rules
            return frozenset(found)

        return walk(self, None, rules)

    def depth(self) -> int:
        def go(d: Derivation, ctx: None):
            deepest = 0
            for c in d.children:
                deepest = max(deepest, (yield c, None, go))
            return deepest + 1

        return walk(self, None, go)

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
    env: AxiomEnv, head: ProofTerm, path: Optional[tuple], e: ProofTerm, f: HornClause
) -> EnvEntry:
    if isinstance(head, ConstSym):
        entry = env.axiom(head.name)
        if entry is None:
            raise CheckError(
                CheckReason.UNBOUND_VAR, f"unknown constant {head.name}", path, e, f
            )
        return entry
    if isinstance(head, ProofVar):
        entry = env.hypothesis(head.name)
        if entry is None:
            raise CheckError(
                CheckReason.UNBOUND_VAR, f"unbound proof variable {head.name}", path, e, f
            )
        return entry
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


def _goal(env: AxiomEnv, e: ProofTerm, f: HornClause, path: Optional[tuple]):
    """The `walk` triple that checks env |- e : f at `path`.  The context
    `(id(env), f)` keys the memo; a stored derivation holds its env, so the
    id stays that of a live object."""
    return e, (id(env), f), partial(_check, env, path)


def _check(env: AxiomEnv, path: Optional[tuple], e: ProofTerm, goal: tuple[int, HornClause]):
    f = goal[1]
    # The engine uses an atomic lemma by its bare evidence, which may be a nu
    # term or an application; at an atomic goal that the lemma's head
    # matches, that term is an Lp-m step on the lemma entry, not a fresh Nu'
    # step or an application of its head.  The search may also build the
    # same term afresh at a goal the lemma does not match; it is read by its
    # shape there.
    lemma = None
    if not f.body and not isinstance(e, (ConstSym, ProofVar)):
        lemma = next((
            entry for entry in env.lemmas()
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
        child = yield _goal(env.extended(hyp), e.body, f, (0, path))
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
            child = yield _goal(env.extended(*hyps), e.body, fact(f.head), (0, path))
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
        entry = _resolve_head(env, head, path, e, f)
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
        children.append((yield _goal(env, arg, fact(apply_atom(sigma, b)), (i, path))))
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
    return walk(*_goal(env, evidence, formula, None), shared_nodes(evidence, proof_children))


def format_derivation(d: Derivation, indent: int = 0) -> str:
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
