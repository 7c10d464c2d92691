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
repeated subgoal, and `check` then shares the subgoal's derivation.  Every
walk here (free variables, rule sets, depth, checking, rendering) visits
each distinct node once, keyed by object identity, so its cost follows the
DAG, not the tree it unfolds to.  Checking and rendering keep results only
for the nodes reached by more than one edge (`shared_nodes`), so a tree
costs no more memory than before.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .terms import (
    HornClause,
    Program,
    Subst,
    apply_atom,
    fact,
    format_formula,
    format_subst,
    match,
)


# ---------------------------------------------------------------------------
# Proof term syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstSym:
    name: str


@dataclass(frozen=True)
class ProofVar:
    name: str


@dataclass(frozen=True)
class Apply:
    fun: "ProofTerm"
    arg: "ProofTerm"


@dataclass(frozen=True)
class Lambda:
    binders: tuple[str, ...]
    body: "ProofTerm"

    def __post_init__(self) -> None:
        if not self.binders:
            raise ValueError("Lambda requires at least one binder")


@dataclass(frozen=True)
class Nu:
    binder: str
    body: "ProofTerm"


ProofTerm = ConstSym | ProofVar | Apply | Lambda | Nu


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


def free_proof_vars(e: ProofTerm) -> frozenset[str]:
    memo: dict[int, frozenset[str]] = {}

    def free(t: ProofTerm) -> frozenset[str]:
        found = memo.get(id(t))
        if found is None:
            if isinstance(t, ConstSym):
                found = frozenset()
            elif isinstance(t, ProofVar):
                found = frozenset((t.name,))
            elif isinstance(t, Apply):
                found = free(t.fun) | free(t.arg)
            elif isinstance(t, Lambda):
                found = free(t.body) - frozenset(t.binders)
            else:
                found = free(t.body) - frozenset((t.binder,))
            memo[id(t)] = found
        return found

    return free(e)


def is_hnf(e: ProofTerm) -> bool:
    """Head normal form: lambda binders over a constant-headed application."""
    while isinstance(e, Lambda):
        e = e.body
    head, _ = spine(e)
    return isinstance(head, ConstSym)


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
    shared = None  # None: keep every compound node
    if memo is None:
        shared, memo = shared_nodes(e, proof_children), {}

    def fmt(t: ProofTerm, wrap: bool) -> str:
        if isinstance(t, (ConstSym, ProofVar)):
            return t.name
        if shared is not None and id(t) not in shared:
            return render(t, wrap)
        key = (id(t), wrap)
        text = memo.get(key)
        if text is None:
            text = memo[key] = render(t, wrap)
        return text

    def render(t: ProofTerm, wrap: bool) -> str:
        # One join, parentheses included.
        parts = ["("] if wrap else []
        if isinstance(t, Apply):
            head, args = spine(t)
            parts.append(fmt(head, True))
            for a in args:
                parts += (" ", fmt(a, True))
        elif isinstance(t, Lambda):
            binders = " ".join(t.binders)
            parts += ("λ ", binders, ". ") if unicode else ("\\", binders, " -> ")
            parts.append(fmt(t.body, False))
        else:
            parts += ("ν " if unicode else "nu ", t.binder, ". ", fmt(t.body, False))
        if wrap:
            parts.append(")")
        return "".join(parts)

    return fmt(e, False)


# ---------------------------------------------------------------------------
# Axiom environments
# ---------------------------------------------------------------------------


class EntryKind(Enum):
    AXIOM = "axiom"
    HYPOTHESIS = "hypothesis"
    LEMMA = "lemma"


@dataclass(frozen=True)
class EnvEntry:
    evidence: ProofTerm
    formula: HornClause
    # Lambda-bound hypotheses are monomorphic (a dictionary parameter has one
    # type): they resolve only their literal formula.  Axioms, lemmas, and
    # nu-bound hypotheses are implicitly universally quantified and may be
    # used at any instance.  Without this split, lambda hypotheses could be
    # instantiated at unrelated instances, deriving Horn formulas that are
    # invalid in both the least and the greatest model.
    rigid: bool = False

    @property
    def kind(self) -> EntryKind:
        if isinstance(self.evidence, ConstSym):
            return EntryKind.AXIOM
        if isinstance(self.evidence, ProofVar):
            return EntryKind.HYPOTHESIS
        return EntryKind.LEMMA


@dataclass(frozen=True)
class AxiomEnv:
    entries: tuple[EnvEntry, ...] = ()

    def extended(self, *entries: EnvEntry) -> "AxiomEnv":
        return AxiomEnv(self.entries + entries)

    def axiom(self, name: str) -> Optional[EnvEntry]:
        for e in self.entries:
            if isinstance(e.evidence, ConstSym) and e.evidence.name == name:
                return e
        return None

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

    _lemmas = None  # filled by lemmas(): the checker asks at every compound node

    def lemmas(self) -> tuple[EnvEntry, ...]:
        found = self._lemmas
        if found is None:
            found = tuple(e for e in self.entries if e.kind is EntryKind.LEMMA)
            object.__setattr__(self, "_lemmas", found)
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


@dataclass(frozen=True)
class Judgement:
    env: AxiomEnv
    evidence: ProofTerm
    formula: HornClause


@dataclass(frozen=True)
class Derivation:
    rule: Rule
    judgement: Judgement
    matcher: Optional[Subst]
    children: tuple["Derivation", ...]

    @property
    def formula(self) -> HornClause:
        return self.judgement.formula

    @property
    def evidence(self) -> ProofTerm:
        return self.judgement.evidence

    def rules_used(self) -> frozenset[Rule]:
        seen: set[int] = set()
        rules: set[Rule] = set()
        stack = [self]
        while stack:
            d = stack.pop()
            if id(d) not in seen:
                seen.add(id(d))
                rules.add(d.rule)
                stack.extend(d.children)
        return frozenset(rules)

    def depth(self) -> int:
        depths: dict[int, int] = {}

        def go(d: Derivation) -> int:
            if id(d) not in depths:
                depths[id(d)] = 1 + max((go(c) for c in d.children), default=0)
            return depths[id(d)]

        return go(self)

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
    """Rejection of a judgement: deepest-leftmost failing node plus reason."""

    def __init__(
        self,
        reason: CheckReason,
        message: str,
        path: tuple[int, ...],
        evidence: ProofTerm,
        formula: HornClause,
    ):
        self.reason = reason
        self.path = path
        self.evidence = evidence
        self.formula = formula
        loc = "/".join(str(i) for i in path) or "root"
        super().__init__(f"{reason.value} at {loc}: {message}")


def _resolve_head(
    env: AxiomEnv, head: ProofTerm, path: tuple[int, ...], e: ProofTerm, f: HornClause
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


class _Memo:
    """Successful checks of the shared subterms of one evidence term, keyed
    by (id(env), id(subterm), formula).  Each stored derivation holds its
    env and subterm, so the ids stay those of live objects.  Failures are
    not stored, so a rejection always names the same deepest-leftmost node."""

    def __init__(self, evidence: ProofTerm):
        self.shared = shared_nodes(evidence, proof_children)
        self.found: dict[tuple[int, int, HornClause], Derivation] = {}


def _check(
    env: AxiomEnv, e: ProofTerm, f: HornClause, path: tuple[int, ...], memo: _Memo
) -> Derivation:
    if id(e) not in memo.shared:
        return _check_node(env, e, f, path, memo)
    key = (id(env), id(e), f)
    found = memo.found.get(key)
    if found is None:
        found = memo.found[key] = _check_node(env, e, f, path, memo)
    return found


def _check_node(
    env: AxiomEnv, e: ProofTerm, f: HornClause, path: tuple[int, ...], memo: _Memo
) -> Derivation:
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
        child = _check(env.extended(hyp), e.body, f, path + (0,), memo)
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
            child = _check(env.extended(*hyps), e.body, fact(f.head), path + (0,), memo)
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
    children = tuple(
        _check(env, arg, fact(apply_atom(sigma, b)), path + (i,), memo)
        for i, (arg, b) in enumerate(zip(args, clause.body))
    )
    return Derivation(Rule.LP_M, Judgement(env, e, f), sigma, children)


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
    return _check(env, evidence, formula, (), _Memo(evidence))


def check_derivation(d: Derivation) -> None:
    """Validate every node of a derivation tree locally against its rule.

    Unlike `check`, this accepts the Nu-with-empty-Lam trees produced by
    `admissibility_view`.  Raises CheckError on the first invalid node.
    """
    env, e, f = d.judgement.env, d.judgement.evidence, d.judgement.formula
    if d.rule is Rule.LP_M:
        again = _check(env, e, f, (), _Memo(e))
        if again.rule is not Rule.LP_M or again.matcher != d.matcher:
            raise CheckError(
                CheckReason.RULE_SHAPE, "node does not re-check as Lp-m", (), e, f
            )
        for child in d.children:
            check_derivation(child)
        return
    if d.rule is Rule.LAM:
        if isinstance(e, Lambda):
            _check(env, e, f, (), _Memo(e))
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
    shared = shared_nodes(d, lambda n: n.children)
    memo: dict[tuple[int, int], str] = {}

    def fmt(d: Derivation, indent: int) -> str:
        if id(d) not in shared:
            return render(d, indent)
        key = (id(d), indent)
        if key not in memo:
            memo[key] = render(d, indent)
        return memo[key]

    def render(d: Derivation, indent: int) -> str:
        label = d.rule.value
        if d.matcher is not None:
            sig = format_subst(d.matcher) if d.matcher else "{}"
            label = f"{label} [{d.entry_name} {sig}]"
        line = f"{'  ' * indent}{label} {format_formula(d.judgement.formula)}"
        return "\n".join([line] + [fmt(c, indent + 1) for c in d.children])

    return fmt(d, indent)
