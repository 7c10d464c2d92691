"""Proof search for the three resolution modes.

Matching-only resolution never instantiates a goal, so the subgoals produced
by a clause step are fixed the moment the head matches; conjuncts are solved
independently and no bindings flow between them.  The search is a plain
depth-bounded DFS over one environment of `proofs.EnvEntry` values, the
checker's own: the axioms and registered lemmata of the `AxiomEnv` that the
result is re-checked against, plus the hypotheses of the current path, added
as the checker adds them under Lam (rigid lambda-facts) and Nu (nu-hyps).
Every goal walks those entries in one fixed option order:

  1. nu-hyps, oldest first,
  2. registered lemmata, registration order,
  3. axioms, source order (at most one can match, by non-overlap),
  4. rigid lambda-facts, oldest first.

The static entries (lemmata and axioms) are looked up by `terms.head_key`,
predicate and functor at argument 0, so a goal skips only the entries whose
heads cannot match it; the path's hypotheses are walked in full.

A nu-hyp is usable only while its name is armed: the goal that introduced it
has been expanded by an axiom step on the current path.  That is the
operational form of the head-normal-form side condition: the binder's body
is then necessarily headed by a proof-term constant, so every emitted
nu-wrap satisfies HNF by construction (asserted anyway).  Nu-hyps resolve
any instance of their head; rigid entries are monomorphic and resolve only
their literal atom, mirroring the checker.

Depth counts resolution (Lp-m) nodes on the current path; Lam and Nu steps
are free.  FAILED means the whole finite tree below the limit closed with
no depth cut anywhere; EXHAUSTED means at least one branch was cut.

Repeated subgoals are tabled (OLD resolution with tabulation, Tamaki and
Sato 1986): each search keeps a memo from (goal, depth) to the goal's
evidence, its exhausted flag, the number of nu-names its subtree used and
the evidence's free proof variables, which every solved subgoal carries up
so that a nu-wrap need not walk its body.
A goal's result is stored only when it cannot depend on the path above it:
auto-lemma is off (its triggers look at ancestors), no nu-hyp older than
the goal's own candidate was matched anywhere in its subtree (guarded
matches included, since arming depends on the path), and no nu-wrap was
made there (so the evidence holds no fresh binder names).  A hit also needs
the hypothesis stack under the goal to be the one the entry was stored
under (the same top entry object): another path may hold nu-hyps that match
inside the subtree and change its result, so there the goal is solved
afresh.  A hit advances the nu-name counter by the stored count, records
one `reuse` event in place of the subtree, and returns the stored evidence
object itself, so proofs of repeated subgoals are shared DAGs.  Results are
those of the untabled search; only the trace is shorter.

A single run is single-threaded and fully deterministic (including its
trace); distinct runs may share Program and AxiomEnv values freely.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .proofs import (
    AxiomEnv,
    CheckError,
    ConstSym,
    Derivation,
    EntryKind,
    EnvEntry,
    Lambda,
    Nu,
    ProofTerm,
    ProofVar,
    Rule,
    check,
    env_for_program,
    format_proof,
    free_proof_vars,  # unused here; the benchmark tracer counts calls through it
    is_hnf,
    make_apply,
)
from .terms import (
    App,
    Atom,
    HornClause,
    Program,
    Term,
    Value,
    Var,
    _setattr,
    apply_atom,
    fact,
    format_formula,
    format_subst,
    head_key,
    match,
    subterms,
)


class Mode(Enum):
    INDUCTIVE = "inductive"
    COINDUCTIVE = "coinductive"
    EXTENDED = "extended"


class Outcome(Enum):
    PROVED = "PROVED"
    EXHAUSTED = "EXHAUSTED"
    FAILED = "FAILED"


_ALLOWED_RULES = {
    Mode.INDUCTIVE: frozenset({Rule.LP_M, Rule.LAM}),
    Mode.COINDUCTIVE: frozenset({Rule.LP_M, Rule.NU_PRIME}),
    Mode.EXTENDED: frozenset({Rule.LP_M, Rule.LAM, Rule.NU, Rule.NU_PRIME}),
}


class EngineInvariantError(Exception):
    """An internal invariant failed; a found proof did not re-check."""


class RegistrationError(Exception):
    """A lemma was refused registration."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class Query(Value):
    __slots__ = ("goal", "mode", "depth_limit", "lemmas", "auto_lemma")

    def __init__(
        self,
        goal: HornClause,
        mode: Mode,
        depth_limit: int = 8,
        lemmas: tuple[HornClause, ...] = (),
        auto_lemma: bool = False,
    ):
        if depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")
        super().__init__(goal, mode, depth_limit, lemmas, auto_lemma)


class TraceEvent(Value):
    # kind: try | guarded | cut | dead-end | note | reuse (a tabled subgoal:
    # the stored outcome in `detail` stands for the subtree's events)
    __slots__ = ("kind", "depth", "goal", "entry", "detail")

    def __init__(self, kind: str, depth: int, goal: str, entry: str = "", detail: str = ""):
        _setattr(self, "kind", kind)
        _setattr(self, "depth", depth)
        _setattr(self, "goal", goal)
        _setattr(self, "entry", entry)
        _setattr(self, "detail", detail)


class LemmaRecord(Value):
    __slots__ = ("formula", "evidence", "registered", "note")  # evidence: None if unproved
    _defaults = {"note": ""}


class SearchResult(Value):
    # evidence, derivation and auto_lemma are None unless found or proposed.
    __slots__ = ("outcome", "evidence", "derivation", "trace", "env", "lemmas", "auto_lemma")
    _defaults = {"lemmas": (), "auto_lemma": None}


# ---------------------------------------------------------------------------
# Lemma registration and proposal
# ---------------------------------------------------------------------------


def register_lemma(
    env: AxiomEnv, evidence: ProofTerm, formula: HornClause, mode: Mode
) -> AxiomEnv:
    """Check a proved lemma against `env`, then add it (`add_checked_lemma`)."""
    try:
        check(env, evidence, formula)
    except CheckError as err:
        raise RegistrationError("CHECK_FAILED", str(err)) from err
    return add_checked_lemma(env, evidence, formula, mode)


def add_checked_lemma(
    env: AxiomEnv, evidence: ProofTerm, formula: HornClause, mode: Mode
) -> AxiomEnv:
    """Extend the environment with a lemma whose evidence already checks.

    Under the coinductive semantics the evidence (under a leading nu, if
    any) must be in head normal form; that side condition is what makes the
    transformation model-preserving, and it is exactly what rules out
    registering the identity proof of A => A.
    """
    if mode is not Mode.INDUCTIVE:
        inner = evidence.body if isinstance(evidence, Nu) else evidence
        if not is_hnf(inner):
            raise RegistrationError(
                "HNF_REQUIRED",
                f"evidence {format_proof(evidence)} is not in head normal form",
            )
    if isinstance(evidence, (ConstSym, ProofVar)):
        # A bare entry reference is not a lemma; the entry is already usable.
        return env
    return env.add_lemma(evidence, formula)


def _generalize(s: Term, t: Term, memo: dict, counter: list[int]) -> Term:
    if s == t:
        return s
    if isinstance(s, App) and isinstance(t, App) and s.functor == t.functor:
        return App(s.functor, tuple(_generalize(a, b, memo, counter) for a, b in zip(s.args, t.args)))
    key = (s, t)
    if key not in memo:
        counter[0] += 1
        memo[key] = Var(f"X{counter[0]}")
    return memo[key]


def propose_lemma(goal: Atom, ancestor: Atom) -> Optional[HornClause]:
    """Anti-unify a goal against a structurally embedded ancestor.

    Only unary predicates are generalized; everything ambiguous yields None,
    which is a normal result.
    """
    if not _embeds(goal, ancestor):
        return None
    memo: dict = {}
    counter = [0]
    head_arg = _generalize(goal.args[0], ancestor.args[0], memo, counter)
    if isinstance(head_arg, Var):
        return None
    body = tuple(Atom(goal.predicate, (v,)) for v in memo.values())
    if not body:
        return None
    return HornClause(body, Atom(goal.predicate, (head_arg,)))


def _embeds(goal: Atom, ancestor: Atom) -> bool:
    if goal.predicate != ancestor.predicate:
        return False
    if len(goal.args) != 1 or len(ancestor.args) != 1:
        return False
    g, a = goal.args[0], ancestor.args[0]
    return g != a and a in set(subterms(g))


# ---------------------------------------------------------------------------
# The searcher
# ---------------------------------------------------------------------------


_NO_NAMES: frozenset[str] = frozenset()


class _Search:
    def __init__(
        self,
        env: AxiomEnv,
        mode: Mode,
        limit: int,
        trace: list[TraceEvent],
        auto_lemma: bool = False,
    ):
        # Lemmas, then axioms: the option order, and a lemma's 1-based
        # position is its number in the trace.
        self.entries = env.lemmas() + tuple(
            e for e in env.entries if e.kind is EntryKind.AXIOM
        )
        self.by_pred: dict[str, list[EnvEntry]] = {}
        for e in self.entries:
            self.by_pred.setdefault(e.formula.head.predicate, []).append(e)
        # (head_key, arity) of a goal -> its static candidates; see _static.
        self.by_key: dict[tuple, tuple[EnvEntry, ...]] = {}
        self.mode = mode
        self.limit = limit
        self.trace = trace
        self.auto_lemma = auto_lemma
        # Hypotheses on the current path, oldest first, as proofs._check adds
        # them: rigid lambda-facts under Lam, Horn or atomic nu-hyps under Nu.
        self.hyps: list[EnvEntry] = []
        self.armed: set[str] = set()
        self.goal_stack: list[Atom] = []
        self.triggers: list[tuple[Atom, Atom]] = []
        # (goal, depth) -> (evidence, exhausted, nu-names the subtree used,
        # top of the hypothesis stack under the goal, the evidence's free
        # proof variables); see the module doc.
        self.memo: dict[tuple[Atom, int], tuple] = {}
        # Lowest stack index of a nu-hyp matched in the current subtree, and
        # the number of nu-wraps made so far: what decides a memo store.
        self._oldest_match = 0
        self._nu_wraps = 0
        self._nu_names = 0
        self._fact_names = 0

    def fresh_nu(self) -> str:
        self._nu_names += 1
        return f"a{self._nu_names}"

    def fresh_fact(self) -> str:
        self._fact_names += 1
        return f"b{self._fact_names}"

    def note(self, kind: str, depth: int, goal, entry: str = "", detail: str = "") -> None:
        self.trace.append(TraceEvent(kind, depth, str(goal), entry, detail))

    def _label(self, entry: EnvEntry) -> str:
        ev = entry.evidence
        if isinstance(ev, ConstSym):
            return ev.name
        if isinstance(ev, ProofVar):
            return f"fact {ev.name}" if entry.rigid else f"hyp {ev.name}"
        return f"lemma[{next(i for i, e in enumerate(self.entries, 1) if e is entry)}]"

    def _static(self, goal: Atom) -> tuple[EnvEntry, ...]:
        """The lemmas and axioms, in option order, whose heads may match
        `goal` by `head_key`.  An entry is left out only where `match`
        returns None without raising, so every arity clash still raises:
        the predicate's whole list stands unless all its entries have the
        goal's arity."""
        key = (head_key(goal), len(goal.args))
        found = self.by_key.get(key)
        if found is None:
            (pred, functor), arity = key
            entries = self.by_pred.get(pred, ())
            if all(len(e.formula.head.args) == arity for e in entries):
                entries = [e for e in entries if head_key(e.formula.head)[1] in (None, functor)]
            found = self.by_key[key] = tuple(entries)
        return found

    def _nu_wrap(
        self, binder: Optional[str], body: ProofTerm, free: frozenset[str]
    ) -> tuple[ProofTerm, frozenset[str]]:
        """Close `body`, whose free proof variables are `free`, under
        `nu binder` when it uses that hypothesis; the result and its free
        proof variables."""
        if binder is None or binder not in free:
            return body, free
        if not is_hnf(body):
            raise EngineInvariantError("nu body not in HNF despite guard")
        self._nu_wraps += 1
        return Nu(binder, body), free - {binder}

    def _candidates(self, goal: Atom):
        """The entries that may match `goal`, in option order: nu-hyps,
        lemmas, axioms, lambda-facts.  Nested goals restore `self.hyps`
        before this walk resumes."""
        for e in self.hyps:
            if not e.rigid:
                yield e
        yield from self._static(goal)
        for e in self.hyps:
            if e.rigid:
                yield e

    # -- queries -------------------------------------------------------------

    def solve_query(self, goal: HornClause) -> tuple[Optional[ProofTerm], bool]:
        if goal.is_atomic:
            return self.solve_atomic(goal.head, 0)[:2]
        if self.mode is Mode.COINDUCTIVE:
            self.note("note", 0, goal, "", "no rule derives a Horn formula in coinductive mode")
            return None, False
        binders = tuple(self.fresh_fact() for _ in goal.body)
        mark = len(self.hyps)
        self.hyps.extend(
            EnvEntry(ProofVar(b), fact(a), rigid=True) for b, a in zip(binders, goal.body)
        )
        alpha: Optional[str] = None
        if self.mode is Mode.EXTENDED:
            alpha = self.fresh_nu()
            self.hyps.append(EnvEntry(ProofVar(alpha), goal))
        try:
            # The body goal registers no candidate of its own: cycle closure
            # at the root is the job of the Horn hypothesis.
            ev, exhausted, free = self.solve_atomic(
                goal.head, 0, (alpha,) if alpha else (), candidate=False
            )
        finally:
            del self.hyps[mark:]
        if ev is None:
            return None, exhausted
        return self._nu_wrap(alpha, Lambda(binders, ev), free.difference(binders))[0], exhausted

    # -- atomic goals ----------------------------------------------------------

    def solve_atomic(
        self,
        goal: Atom,
        depth: int,
        intro: tuple[str, ...] = (),
        candidate: bool = True,
    ) -> tuple[Optional[ProofTerm], bool, frozenset[str]]:
        """The goal's evidence (None if not found), whether a branch was
        cut, and the evidence's free proof variables."""
        below = self.hyps[-1] if self.hyps else None
        tabled = candidate and not self.auto_lemma
        if tabled:
            hit = self.memo.get((goal, depth))
            if hit is not None and hit[3] is below:
                ev, exhausted, names, _, free = hit
                self._nu_names += names
                if ev is not None:
                    outcome = Outcome.PROVED
                else:
                    outcome = Outcome.EXHAUSTED if exhausted else Outcome.FAILED
                self.note("reuse", depth, goal, "", outcome.value)
                return ev, exhausted, free
        mark = len(self.hyps)
        names, wraps, oldest = self._nu_names, self._nu_wraps, self._oldest_match
        self._oldest_match = mark
        cand: Optional[str] = None
        if candidate and self.mode is not Mode.INDUCTIVE:
            cand = self.fresh_nu()
            self.hyps.append(EnvEntry(ProofVar(cand), fact(goal)))
            intro += (cand,)
        if self.auto_lemma:
            for anc in reversed(self.goal_stack):
                if _embeds(goal, anc):
                    self.triggers.append((goal, anc))
                    break
            self.goal_stack.append(goal)
        try:
            ev, exhausted, free = self._options(goal, depth, intro)
        finally:
            if self.auto_lemma:
                self.goal_stack.pop()
            del self.hyps[mark:]
        if ev is not None:
            ev, free = self._nu_wrap(cand, ev, free)
        if tabled and self._oldest_match >= mark and self._nu_wraps == wraps:
            self.memo[goal, depth] = (ev, exhausted, self._nu_names - names, below, free)
        self._oldest_match = min(oldest, self._oldest_match)
        return ev, exhausted, free

    def _options(
        self, goal: Atom, depth: int, intro: tuple[str, ...]
    ) -> tuple[Optional[ProofTerm], bool, frozenset[str]]:
        exhausted = False
        matched_any = False
        axiom_matched = False
        for entry in self._candidates(goal):
            s = match(entry.formula.head, goal)
            if s is None:
                continue
            ev = entry.evidence
            if isinstance(ev, ProofVar) and not entry.rigid:
                position = next(i for i, h in enumerate(self.hyps) if h is entry)
                self._oldest_match = min(self._oldest_match, position)
            if entry.rigid and s:
                # Lambda hypotheses are monomorphic: literal uses only.
                self.note("guarded", depth, goal, self._label(entry), "monomorphic")
                continue
            matched_any = True
            is_axiom = isinstance(ev, ConstSym)
            if is_axiom:
                if axiom_matched:
                    raise EngineInvariantError(f"goal {goal} matched by two axiom heads")
                axiom_matched = True
            elif isinstance(ev, ProofVar) and not entry.rigid and ev.name not in self.armed:
                self.note("guarded", depth, goal, self._label(entry))
                continue
            label = self._label(entry)
            if depth >= self.limit:
                exhausted = True
                self.note("cut", depth, goal, label)
                continue
            self.note("try", depth, goal, label, format_subst(s))
            # An axiom step arms the nu-hyps this goal introduced.
            arm = intro if is_axiom else ()
            self.armed.update(arm)
            try:
                evs, exh, free = self.solve_conj(
                    [apply_atom(s, b) for b in entry.formula.body], depth + 1
                )
            finally:
                self.armed.difference_update(arm)
            exhausted |= exh
            if evs is not None:
                # Lemma evidence is closed: it checked with no hypotheses.
                if isinstance(ev, ProofVar):
                    free = free | {ev.name}
                return make_apply(ev, evs), exhausted, free
        if not matched_any:
            self.note("dead-end", depth, goal)
        return None, exhausted, _NO_NAMES

    def solve_conj(
        self, goals: Sequence[Atom], depth: int
    ) -> tuple[Optional[list[ProofTerm]], bool, frozenset[str]]:
        evs: list[ProofTerm] = []
        exhausted = False
        free = _NO_NAMES
        for g in goals:
            ev, exh, names = self.solve_atomic(g, depth)
            exhausted |= exh
            if ev is None:
                return None, exhausted, _NO_NAMES
            evs.append(ev)
            if names:
                free = free | names
        return evs, exhausted, free


# ---------------------------------------------------------------------------
# Top-level resolution
# ---------------------------------------------------------------------------


def _attempt(
    env: AxiomEnv,
    query: Query,
    lemma_formulas: Sequence[HornClause],
    trace: list[TraceEvent],
) -> tuple[SearchResult, list[tuple[Atom, Atom]]]:
    records: list[LemmaRecord] = []
    triggers: list[tuple[Atom, Atom]] = []

    def search(goal: HornClause) -> tuple[Optional[ProofTerm], Outcome]:
        searcher = _Search(env, query.mode, query.depth_limit, trace, query.auto_lemma)
        ev, exhausted = searcher.solve_query(goal)
        triggers.extend(searcher.triggers)
        return ev, Outcome.EXHAUSTED if exhausted else Outcome.FAILED

    def finish(
        outcome: Outcome, ev: Optional[ProofTerm] = None, derivation: Optional[Derivation] = None
    ) -> tuple[SearchResult, list[tuple[Atom, Atom]]]:
        return SearchResult(outcome, ev, derivation, tuple(trace), env, tuple(records)), triggers

    for lf in lemma_formulas:
        trace.append(TraceEvent("note", 0, str(lf), "", "proving lemma"))
        ev, outcome = search(lf)
        if ev is None:
            records.append(LemmaRecord(lf, None, False, "lemma not proved"))
            return finish(outcome)
        try:
            env = register_lemma(env, ev, lf, query.mode)
        except RegistrationError as err:
            records.append(LemmaRecord(lf, ev, False, str(err)))
            return finish(Outcome.FAILED)
        records.append(LemmaRecord(lf, ev, True))
    ev, outcome = search(query.goal)
    if ev is None:
        return finish(outcome)
    try:
        derivation = check(env, ev, query.goal)
    except CheckError as err:  # engine bug: emitted evidence must re-check
        raise EngineInvariantError(
            f"emitted proof failed to re-check: {err}"
        ) from err
    if not derivation.rules_used() <= _ALLOWED_RULES[query.mode]:
        raise EngineInvariantError(
            f"derivation uses rules outside mode {query.mode.value}"
        )
    return finish(Outcome.PROVED, ev, derivation)


def resolve(
    program: Program, query: Query, names: Optional[Sequence[str]] = None
) -> SearchResult:
    """Run proof search; every PROVED result has been re-checked.

    Lemma formulas are proved and registered first, in order; a lemma that
    cannot be proved or registered aborts the whole query.  With
    `auto_lemma`, a failed search is retried once after proposing a lemma by
    anti-unification from the first goal/ancestor embedding seen in the
    failed run.
    """
    env0 = env_for_program(program, names)
    trace: list[TraceEvent] = []
    result, triggers = _attempt(env0, query, query.lemmas, trace)
    if result.outcome is Outcome.PROVED or not query.auto_lemma:
        return result
    for goal_atom, ancestor in triggers:
        lemma = propose_lemma(goal_atom, ancestor)
        if lemma is None:
            continue
        retry_trace: list[TraceEvent] = [
            TraceEvent(
                "note",
                0,
                str(goal_atom),
                "",
                f"auto-lemma proposed from ancestor {ancestor}: {format_formula(lemma)}",
            )
        ]
        retried, _ = _attempt(env0, query, (lemma,) + query.lemmas, retry_trace)
        return SearchResult(
            retried.outcome, retried.evidence, retried.derivation,
            result.trace + retried.trace, retried.env, retried.lemmas, lemma,
        )
    return result
