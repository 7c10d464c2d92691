"""Proof search for the three resolution modes.

Matching-only resolution never instantiates a goal, so the subgoals produced
by a clause step are fixed the moment the head matches; conjuncts are solved
independently and no bindings flow between them.  The search is a
depth-bounded DFS that runs as `proofs.walk` steps on a heap stack, the
driver of the checker and the renderers, so proof depth has no recursion
limit.  It works over one environment of `proofs.EnvEntry` values, the
checker's own: the axioms and registered lemmata of the `AxiomEnv` that the
result is re-checked against, plus the hypotheses of the current path, bound
on a `proofs.bind` chain as the checker binds them under Lam (rigid
lambda-facts) and Nu (nu-hyps).
Every goal walks those entries in one fixed option order:

  1. nu-hyps, oldest first,
  2. registered lemmata, registration order,
  3. axioms, source order (at most one can match, by non-overlap),
  4. rigid lambda-facts, oldest first.

Every entry is looked up by `terms.head_key`, predicate and functor at
argument 0, so a goal skips only the entries whose heads cannot match it:
the static entries (lemmata and axioms) through an index built once per
search, the path's hypotheses through an index beside the chain whose
buckets are pushed where a hypothesis is bound and popped where the chain is
restored (as a trail is undone on backtracking in Warren's abstract machine,
1983).  An entry is skipped only where `match` would return None without
raising: where a predicate's entries disagree with the goal on its arity,
all of them are walked, so every arity clash still raises.

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
no nu-hyp older than the goal's own candidate was matched anywhere in its
subtree (guarded matches included, since arming depends on the path), and
no nu-wrap was made there (so the evidence holds no fresh binder names).
A hit also needs the hypotheses under the goal to be the ones the entry was
stored under (the same chain link object): another path may hold nu-hyps
that match inside the subtree and change its result, so there the goal is
solved afresh.  An auto-lemma trigger pairs a goal with an ancestor, so a
hit also needs the same chain of goals above the goal, `(goal, parent)`
links (None without auto-lemma): a reused subtree's triggers are those its
first visit, earlier in DFS order, recorded.  A hit is answered where the
subgoal is made, without a `walk` step: it advances the nu-name counter by
the stored count, records one `reuse` event in place of the subtree, and
returns the stored evidence object itself, so proofs of repeated subgoals
are shared DAGs.  Results are those of the untabled search; only the trace
is shorter.

The search notes its trace as raw records, and `SearchResult.trace` formats
them into `TraceEvent`s when first read: a run that reads no trace renders
no goal, matcher or entry label.

A single run is single-threaded and fully deterministic (including its
trace); distinct runs may share Program and AxiomEnv values freely.

An exception raised in a step (an arity clash in `match`, a failed
invariant) propagates out of `walk` without closing the steps waiting
below it, so their `finally` restores of the path state run only when the
generators are collected.  The `_Search` that raised is thrown away, and
nothing reads its state again.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import Optional, Sequence

from .proofs import (
    AxiomEnv,
    CheckError,
    ConstSym,
    Derivation,
    EnvEntry,
    Lambda,
    Nu,
    ProofTerm,
    ProofVar,
    Rule,
    bind,
    check,
    env_for_program,
    format_proof,
    free_proof_vars,  # unused here; the benchmark tracer counts calls through it
    is_hnf,
    make_apply,
    walk,
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


def _event(kind: str, depth: int, goal, entry, detail) -> TraceEvent:
    """The `TraceEvent` of a raw trace record: `entry` is a label or the
    `EnvEntry` of an axiom or hypothesis, `detail` a text or a `try`
    record's matcher."""
    if not isinstance(entry, str):
        name = entry.evidence.name
        if not isinstance(entry.evidence, ConstSym):
            name = f"fact {name}" if entry.rigid else f"hyp {name}"
        entry = name
    if not isinstance(detail, str):
        detail = format_subst(detail)
    return TraceEvent(kind, depth, str(goal), entry, detail)


class Trace:
    """A search's trace events as a read-only sequence, kept as the raw
    `(kind, depth, goal, entry, detail)` records the search noted and made
    into `TraceEvent`s on first read, so a run that reads no trace formats
    nothing for it.  Equality, hashing and `repr` go by the events, and a
    trace equals the tuple of its events; a pickle or copy carries the
    records, not the events."""

    __slots__ = ("records", "_events")

    def __init__(self, records: tuple):
        self.records = records

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        try:
            return self._events
        except AttributeError:
            self._events = tuple([_event(*r) for r in self.records])
            return self._events

    def goals(self, kind: str) -> set[str]:
        """The text of the goals of the `kind` events, formatting no other
        event."""
        return {str(r[2]) for r in self.records if r[0] == kind}

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        return self.events[index]

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other):
        if isinstance(other, Trace):
            other = other.events
        return self.events == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return repr(self.events)

    def __reduce__(self):
        return Trace, (self.records,)


class LemmaRecord(Value):
    __slots__ = ("formula", "evidence", "registered", "note")  # evidence: None if unproved
    _defaults = {"note": ""}


class SearchResult(Value):
    # evidence, derivation and auto_lemma are None unless found or proposed;
    # trace is a `Trace`, or any tuple of `TraceEvent`s.
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
_COUNT = itemgetter(1)  # a `bind` link's count: its age on the chain
_Key = tuple[str, Optional[str]]  # a `terms.head_key`


class _Search:
    def __init__(
        self,
        env: AxiomEnv,
        mode: Mode,
        limit: int,
        trace: list[tuple],
        auto_lemma: bool = False,
    ):
        # Lemmas, then the checker's axiom index: the option order, and a
        # lemma's 1-based position is its number in the trace.
        lemmas = env.lemmas
        self.entries = lemmas + tuple(env.axioms.values())
        keys = tuple([head_key(e.formula.head) for e in lemmas]) + env.axiom_keys
        # Per predicate, the arities of its heads; per head_key, the option
        # positions of its entries.
        self.arities: dict[str, set[int]] = {}
        self.by_head: dict[_Key, list[int]] = {}
        for k, (e, key) in enumerate(zip(self.entries, keys)):
            self.arities.setdefault(key[0], set()).add(len(e.formula.head.args))
            self.by_head.setdefault(key, []).append(k)
        # (head_key, arity) of a goal -> its static candidates; see _static.
        self.by_key: dict[tuple, tuple[EnvEntry, ...]] = {}
        self.mode = mode
        self.limit = limit
        # Raw trace records; see `Trace`.
        self.trace = trace
        self.auto_lemma = auto_lemma
        # The path's hypotheses, a `proofs.bind` chain as in an AxiomEnv:
        # rigid lambda-facts under Lam, Horn or atomic nu-hyps under Nu.
        # Beside it, its links by the head_key of their heads, oldest first,
        # and per predicate the arities of every hypothesis bound so far.
        self.hyps: Optional[tuple] = None
        self.hyp_index: dict[_Key, list[tuple]] = {}
        self.hyp_arities: dict[str, set[int]] = {}
        self.armed: set[str] = set()
        # The goals above, as `(goal, parent)` links, under auto-lemma only.
        self.above: Optional[tuple] = None
        self.triggers: list[tuple[Atom, Atom]] = []
        # (goal, depth) -> (evidence, exhausted, nu-names the subtree used,
        # the hypothesis link and the goal chain under the goal, the
        # evidence's free proof variables); see the module doc.
        self.memo: dict[tuple[Atom, int], tuple] = {}
        # Least link count of a nu-hyp matched in the current subtree, and
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

    def note(self, kind: str, depth: int, goal, entry="", detail="") -> None:
        """Record a trace event raw; `_event` says what `entry` and `detail` hold."""
        self.trace.append((kind, depth, goal, entry, detail))

    def _lemma_label(self, entry: EnvEntry) -> str:
        return f"lemma[{next(i for i, e in enumerate(self.entries, 1) if e is entry)}]"

    def _bind(self, entry: EnvEntry, key: _Key) -> list[tuple]:
        """Bind `entry`, whose head has the `head_key` `key`, on the path's
        hypotheses; the index bucket that now ends with its link, which the
        binder pops where it restores `hyps`."""
        self.hyps = link = bind(self.hyps, entry)
        bucket = self.hyp_index.setdefault(key, [])
        bucket.append(link)
        self.hyp_arities.setdefault(key[0], set()).add(len(entry.formula.head.args))
        return bucket

    def _static(self, goal: Atom, key: _Key) -> tuple[EnvEntry, ...]:
        """The lemmas and axioms, in option order, whose heads may match
        `goal`, whose `head_key` is `key`.  An entry is left out only where
        `match` returns None without raising, so every arity clash still
        raises: the predicate's whole list stands unless all its entries
        have the goal's arity."""
        arity = len(goal.args)
        found = self.by_key.get((key, arity))
        if found is None:
            pred, functor = key
            ks = self.by_head.get(key, []) + (self.by_head.get((pred, None), []) if functor else [])
            if self.arities.get(pred, {arity}) != {arity}:
                ks = [k for k, e in enumerate(self.entries) if e.formula.head.predicate == pred]
            found = self.by_key[key, arity] = tuple(self.entries[k] for k in sorted(ks))
        return found

    def _hypotheses(self, goal: Atom, key: _Key) -> Sequence[tuple]:
        """The links of the path's hypotheses whose heads may match `goal`,
        whose `head_key` is `key`, oldest first, left out as `_static`
        leaves entries out: once a hypothesis of the goal's predicate has
        been bound at another arity, the whole chain is walked."""
        if self.hyps is None:
            return ()
        pred, functor = key
        arities = self.hyp_arities.get(pred)
        if arities is None:
            return ()
        if len(arities) > 1 or len(goal.args) not in arities:
            links, link = [], self.hyps
            while link:
                links.append(link)
                link = link[2]
            links.reverse()
            return links
        exact = self.hyp_index.get(key, ())
        loose = self.hyp_index.get((pred, None)) if functor is not None else None
        if not loose:
            return exact
        return sorted(exact + loose, key=_COUNT) if exact else loose

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

    def _candidates(self, goal: Atom, key: _Key):
        """The entries that may match `goal`, whose `head_key` is `key`, as
        `bind` links, a lemma or axiom with count 0, in option order:
        nu-hyps, lemmas, axioms, lambda-facts."""
        nus, facts = [], []
        for link in self._hypotheses(goal, key):
            (facts if link[0].rigid else nus).append(link)
        yield from nus
        for e in self._static(goal, key):
            yield e, 0, None
        yield from facts

    # -- queries -------------------------------------------------------------

    def solve_query(self, goal: HornClause) -> tuple[Optional[ProofTerm], bool]:
        if goal.is_atomic:
            return walk(goal.head, (0, (), True), self.solve_atomic, frozenset())[:2]
        if self.mode is Mode.COINDUCTIVE:
            self.note("note", 0, goal, "", "no rule derives a Horn formula in coinductive mode")
            return None, False
        binders = tuple(self.fresh_fact() for _ in goal.body)
        outer = self.hyps
        buckets = [
            self._bind(EnvEntry(ProofVar(b), fact(a), rigid=True), head_key(a))
            for b, a in zip(binders, goal.body)
        ]
        alpha: Optional[str] = None
        if self.mode is Mode.EXTENDED:
            alpha = self.fresh_nu()
            buckets.append(self._bind(EnvEntry(ProofVar(alpha), goal), head_key(goal.head)))
        try:
            # The body goal registers no candidate of its own: cycle closure
            # at the root is the job of the Horn hypothesis.
            ctx = (0, (alpha,) if alpha else (), False)
            ev, exhausted, free = walk(goal.head, ctx, self.solve_atomic, frozenset())
        finally:
            self.hyps = outer
            for bucket in buckets:
                bucket.pop()
        if ev is None:
            return None, exhausted
        return self._nu_wrap(alpha, Lambda(binders, ev), free.difference(binders))[0], exhausted

    # -- atomic goals ----------------------------------------------------------

    def _reuse(self, goal: Atom, depth: int) -> Optional[tuple]:
        """What `solve_atomic` would return for a candidate `goal` at
        `depth`, where the memo holds it for the current path; None
        otherwise.  A hit advances the nu-name counter by the stored count
        and records one `reuse` event."""
        hit = self.memo.get((goal, depth))
        if hit is None or hit[3] is not self.hyps or hit[4] is not self.above:
            return None
        ev, exhausted, names, _, _, free = hit
        self._nu_names += names
        if ev is not None:
            outcome = Outcome.PROVED
        else:
            outcome = Outcome.EXHAUSTED if exhausted else Outcome.FAILED
        self.note("reuse", depth, goal, "", outcome.value)
        return ev, exhausted, free

    def solve_atomic(self, goal: Atom, ctx: tuple[int, tuple[str, ...], bool]):
        """A `walk` step for `goal` under `ctx`: its depth, the nu-names it
        arms when an axiom expands it, and whether it adds a candidate of
        its own.  Returns the goal's evidence (None if not found), whether a
        branch was cut, and the evidence's free proof variables.  A
        candidate goal is stored in the memo where the module doc says, and
        a caller asks `_reuse` before it makes the step.  The goal's
        `head_key` is computed here once, for its binding and its
        candidates."""
        depth, intro, candidate = ctx
        key = head_key(goal)
        below, above = self.hyps, self.above
        mark = below[1] if below else 0
        names, wraps, oldest = self._nu_names, self._nu_wraps, self._oldest_match
        self._oldest_match = mark + 1  # the count the goal's own candidate gets
        cand: Optional[str] = None
        if candidate and self.mode is not Mode.INDUCTIVE:
            cand = self.fresh_nu()
            bucket = self._bind(EnvEntry(ProofVar(cand), fact(goal)), key)
            intro += (cand,)
        if self.auto_lemma:
            link = above
            while link and not _embeds(goal, link[0]):
                link = link[1]
            if link:
                self.triggers.append((goal, link[0]))
            self.above = (goal, above)
        try:
            ev, exhausted, free = yield from self._options(goal, key, depth, intro)
        finally:
            if self.auto_lemma:
                self.above = above
            self.hyps = below
            if cand is not None:
                bucket.pop()
        if ev is not None:
            ev, free = self._nu_wrap(cand, ev, free)
        if candidate and self._oldest_match > mark and self._nu_wraps == wraps:
            self.memo[goal, depth] = (ev, exhausted, self._nu_names - names, below, above, free)
        self._oldest_match = min(oldest, self._oldest_match)
        return ev, exhausted, free

    def _options(self, goal: Atom, key: _Key, depth: int, intro: tuple[str, ...]):
        """Try the goal's candidates in option order, solving each one's
        body atoms left to right, from the memo or as `walk` children; the
        first candidate whose every body atom is solved gives the goal's
        evidence."""
        exhausted = False
        matched_any = False
        axiom_matched = False
        for entry, count, _ in self._candidates(goal, key):
            s = match(entry.formula.head, goal)
            if s is None:
                continue
            ev = entry.evidence
            is_hyp = isinstance(ev, ProofVar)
            if is_hyp and not entry.rigid:
                self._oldest_match = min(self._oldest_match, count)
            if entry.rigid and s:
                # Lambda hypotheses are monomorphic: literal uses only.
                self.note("guarded", depth, goal, entry, "monomorphic")
                continue
            matched_any = True
            is_axiom = isinstance(ev, ConstSym)
            if is_axiom:
                if axiom_matched:
                    raise EngineInvariantError(f"goal {goal} matched by two axiom heads")
                axiom_matched = True
            elif is_hyp and not entry.rigid and ev.name not in self.armed:
                self.note("guarded", depth, goal, entry)
                continue
            label = entry if is_hyp or is_axiom else self._lemma_label(entry)
            if depth >= self.limit:
                exhausted = True
                self.note("cut", depth, goal, label)
                continue
            self.note("try", depth, goal, label, s)
            # An axiom step arms the nu-hyps this goal introduced.
            arm = intro if is_axiom else ()
            self.armed.update(arm)
            evs: list[ProofTerm] = []
            free = _NO_NAMES
            try:
                for b in entry.formula.body:
                    subgoal = apply_atom(s, b)
                    solved = self._reuse(subgoal, depth + 1)
                    if solved is None:
                        solved = yield subgoal, (depth + 1, (), True), self.solve_atomic
                    sub, exh, names = solved
                    exhausted |= exh
                    if sub is None:
                        break  # a failed conjunct ends this candidate
                    evs.append(sub)
                    if names:
                        free = free | names
                else:
                    # Lemma evidence is closed: it checked with no hypotheses.
                    if is_hyp:
                        free = free | {ev.name}
                    return make_apply(ev, evs), exhausted, free
            finally:
                self.armed.difference_update(arm)
        if not matched_any:
            self.note("dead-end", depth, goal)
        return None, exhausted, _NO_NAMES


# ---------------------------------------------------------------------------
# Top-level resolution
# ---------------------------------------------------------------------------


def _attempt(
    env: AxiomEnv, query: Query, trace: list[tuple]
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
        return SearchResult(outcome, ev, derivation, Trace(tuple(trace)), env, tuple(records)), triggers

    for lf in query.lemmas:
        trace.append(("note", 0, lf, "", "proving lemma"))
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
    failed run; the retry collects no triggers.
    """
    env0 = env_for_program(program, names)
    result, triggers = _attempt(env0, query, [])
    if result.outcome is Outcome.PROVED or not query.auto_lemma:
        return result
    for goal_atom, ancestor in triggers:
        lemma = propose_lemma(goal_atom, ancestor)
        if lemma is None:
            continue
        retry_trace = [(
            "note", 0, goal_atom, "", f"auto-lemma proposed from ancestor {ancestor}: {format_formula(lemma)}"
        )]
        retry = Query(query.goal, query.mode, query.depth_limit, (lemma,) + query.lemmas)
        retried, _ = _attempt(env0, retry, retry_trace)
        return SearchResult(
            retried.outcome, retried.evidence, retried.derivation,
            Trace(result.trace.records + retried.trace.records), retried.env, retried.lemmas, lemma,
        )
    return result
