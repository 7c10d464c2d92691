"""Executable model theory over depth-bounded Herbrand bases.

The true semantic operator ranges over an infinite base whenever the
signature has a non-constant functor, so every computation here is relative
to a bounded base (all ground atoms whose terms have depth <= d) plus a
boundary policy for clause instances whose body mentions atoms beyond the
base:

  PESSIMISTIC  out-of-base body atoms count as absent; the instance is mute.
  OPTIMISTIC   out-of-base body atoms count as present.

Guarantees, relative to the true models:

  * the pessimistic computations under-approximate: lfp contains only
    genuinely derivable atoms, and the pessimistic gfp is a post-fixed
    point of the true operator, hence inside the true greatest model;
  * the optimistic computations over-approximate: the true least or
    greatest model restricted to the base is contained in them, so absence
    from an optimistic model is sound evidence of non-membership;
  * a Certificate with an empty frontier is a finite post-fixed point of the
    true operator and therefore a sound membership witness; a non-empty
    frontier means the support leans on out-of-base atoms and certifies
    membership in the bounded optimistic model only.

Cost model.  Atoms are dense integer ids, never built up front: ground
terms are numbered in `term_sort_key` order and interned as (functor, child
ids) -> id, and an atom's id is its predicate's offset plus its argument ids
read as a mixed-radix number, so id order is `atom_sort_key` order and a
base costs O(|universe|) to set up; `max_atoms` bounds it, checked from the
universe-size recurrence before anything is enumerated.  Grounding is a
column join on the head: each argument pattern is matched once against
every universe term, O(|universe| * head arguments) matches per clause,
and the columns are joined in id order on the variables they share.  Since
clauses have no existential variables the head grounds the whole clause,
one instance per (clause, head).  A body atom's ids are then slot
arithmetic over the instances' variable ids, O(instances * body); only a
compound argument with variables goes through the intern table per
instance.  A miss means the atom lies beyond the base, and only such atoms
become `Atom` objects.  The fixpoints propagate counters over the ids in the
style of Dowling and Gallier's linear-time Horn satisfiability: the least
fixed point counts, per instance, the body atoms still missing, and the
greatest counts, per head, the instances still alive.  Each counter moves
at most once per body atom, so a fixpoint costs O(instances * body) on top
of the grounding.  Results are byte masks over the ids, printed in id order
with no sort.
"""

from __future__ import annotations

from collections.abc import Set
from enum import Enum
from itertools import compress, product, repeat
from operator import gt
from typing import AbstractSet, Iterable, Iterator, Optional

from .terms import (
    DEFAULT_MAX_ATOMS,
    Atom,
    BaseTooLargeError,
    CertificateInvariantError,
    HornClause,
    Program,
    Signature,
    Term,
    Value,
    Var,
    _lazy,
    apply_atom,
    atom_sort_key,
    atom_vars,
    clause_vars,
    enumerate_ground_terms,
    is_ground_atom,
    signature_of_atom,
    signature_of_clause,
    term_vars,
)


class Policy(Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class Semantics(Enum):
    IND = "inductive"
    COIND = "coinductive"


DEFAULT_MAX_ITERS = 10_000


# ---------------------------------------------------------------------------
# Bases and interpretations
# ---------------------------------------------------------------------------


class HerbrandBase(Value, compared=3, shown=3):
    """The ground atoms whose terms have depth <= `depth`, numbered densely.

    Term k is `universe[k]`, with (functor, child ids) `terms[k]`, and
    `intern` maps those back to k.  `offsets` maps each predicate, in name
    order, to (arity, first atom id); p(t1..tn) is p's first id plus the ids
    of t1..tn read as a number in base |universe|.  There are `size` atoms;
    `atoms` is the set of them all."""

    __slots__ = ("signature", "depth", "universe", "terms", "intern", "offsets", "size", "_atoms")

    @_lazy
    def atoms(self) -> AtomSet:
        return AtomSet(self, None)

    def sorted_atoms(self) -> tuple[Atom, ...]:
        return tuple(self.atoms)

    def atom_id(self, atom: Atom, env: Optional[dict[str, int]] = None) -> Optional[int]:
        """The id of `atom`, its variables read through `env`, or None when
        that atom lies outside the base."""
        arity, lo = self.offsets.get(atom.predicate, (-1, 0))
        if arity != len(atom.args):
            return None
        k, n, env = 0, len(self.universe), env or {}
        for arg in atom.args:
            t = env.get(arg.name) if isinstance(arg, Var) else self._term_id(arg, env)
            if t is None:
                return None
            k = k * n + t
        return lo + k

    def _term_id(self, t: Term, env: dict[str, int]) -> Optional[int]:
        if isinstance(t, Var):
            return env.get(t.name)
        return self.intern.get((t.functor, tuple(self._term_id(a, env) for a in t.args)))

    def _match(self, p: Term, t: int, env: dict[str, int]) -> bool:
        if isinstance(p, Var):
            return env.setdefault(p.name, t) == t
        functor, children = self.terms[t]
        return functor == p.functor and all(map(self._match, p.args, children, repeat(env)))

    def join(self, head: Atom) -> tuple[list[int], list[tuple[int, ...]]]:
        """The ids of the base atoms that `head` matches, in id order, and
        for each the ids its variables take, in `atom_vars(head)` order.

        Each argument position is matched once against every universe term,
        and the positions' columns are joined left to right on the
        variables an earlier position bound.  An id is the argument ids
        read as a mixed-radix number, so joining sorted columns in order
        yields the ids in order."""
        arity, lo = self.offsets.get(head.predicate, (-1, 0))
        if arity != len(head.args):
            return [], []
        n = len(self.universe)
        names: list[str] = []
        # (id without the offset, ids of `names`) per partial match.
        rows: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        for p in head.args:
            here = term_vars(p)
            old = [v for v in here if v in names]
            slots = [names.index(v) for v in old]
            new = [v for v in here if v not in names]
            # The terms that p matches, keyed by the ids of its old variables.
            column: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
            for t in range(n):
                bound: dict[str, int] = {}
                if self._match(p, t, bound):
                    key = tuple(bound[v] for v in old)
                    column.setdefault(key, []).append((t, tuple(bound[v] for v in new)))
            names += new
            rows = [
                (k * n + t, env + fresh)
                for k, env in rows
                for t, fresh in column.get(tuple(env[s] for s in slots), ())
            ]
        return [lo + k for k, _ in rows], [env for _, env in rows]

    def ids_under(
        self, atom: Atom, names: list[str], envs: list[tuple[int, ...]]
    ) -> list[Optional[int]]:
        """The id of `atom` under each env (the ids of `names`, in order),
        None where that atom lies outside the base."""
        arity, lo = self.offsets.get(atom.predicate, (-1, 0))
        if arity != len(atom.args):
            return [None] * len(envs)
        n = len(self.universe)
        ids: list = [lo] * len(envs)
        compound = []
        for j, arg in enumerate(atom.args):
            w = n ** (arity - 1 - j)
            if isinstance(arg, Var):
                s = names.index(arg.name)
                ids = [k + e[s] * w for k, e in zip(ids, envs)]
            elif term_vars(arg):
                compound.append((arg, w))
            else:
                t = self._term_id(arg, {})
                if t is None:
                    return [None] * len(envs)
                ids = [k + t * w for k in ids]
        if compound:
            dicts = [dict(zip(names, e)) for e in envs]
            for arg, w in compound:
                ids = [
                    None if k is None or (t := self._term_id(arg, d)) is None else k + t * w
                    for k, d in zip(ids, dicts)
                ]
        return ids

    def mask(self, atoms: AbstractSet[Atom]) -> bytes:
        """A byte per base id, 1 for the members of `atoms`."""
        if isinstance(atoms, AtomSet) and atoms.base is self:
            return atoms.mask or b"\x01" * self.size
        out = bytearray(self.size)
        for k in map(self.atom_id, atoms):
            if k is not None:
                out[k] = 1
        return bytes(out)


class AtomSet(Set):
    """An immutable set of base atoms: a byte per base id (None for the
    whole base), iterated in id order, which is `atom_sort_key` order.  It
    equals, and hashes like, the frozenset of the same atoms."""

    def __init__(self, base: HerbrandBase, mask: Optional[bytes]):
        self.base = base
        self.mask = mask

    def __len__(self) -> int:
        return self.base.size if self.mask is None else self.mask.count(1)

    def __contains__(self, atom: object) -> bool:
        k = self.base.atom_id(atom) if isinstance(atom, Atom) else None
        return k is not None and (self.mask is None or self.mask[k] == 1)

    def __iter__(self) -> Iterator[Atom]:
        universe = self.base.universe
        for pred, (arity, lo) in self.base.offsets.items():
            args = product(universe, repeat=arity)
            if self.mask is not None:
                args = compress(args, self.mask[lo:lo + len(universe) ** arity])
            yield from map(Atom, repeat(pred), args)

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, atoms: Iterable[Atom]) -> frozenset[Atom]:
        return frozenset(atoms)


def _ordered(atoms: AbstractSet[Atom]) -> tuple[Atom, ...]:
    return tuple(atoms) if isinstance(atoms, AtomSet) else tuple(sorted(atoms, key=atom_sort_key))


def bounded_size(signature: Signature, depth: int, cap: int) -> int:
    """The number of atoms or universe terms of the depth-`depth` base,
    whichever is larger, or cap + 1 if that exceeds `cap`.

    Read off the universe-size recurrence u_1 = c, u_d = c + sum over
    functors f of u_(d-1)^arity(f), where c counts the constants, with u
    saturated at cap + 1 at every level: nothing is enumerated, and a large
    depth builds no large number."""
    top = cap + 1
    arities = list(signature.functions.values())
    constants = arities.count(0)
    u = constants
    for _ in range(depth - 1):
        bigger = min(constants + sum(u ** a for a in arities if a), top)
        if bigger == u:
            break
        u = bigger
    atoms = sum(u ** a for a in signature.predicates.values())
    return min(max(u, atoms), top)


def herbrand_base(
    signature: Signature,
    depth: int,
    extra_constants: Iterable[str] = (),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> HerbrandBase:
    """The depth-bounded base; `BaseTooLargeError`, before anything is
    enumerated, when it would hold more than `max_atoms` atoms or terms."""
    sig = signature.with_constants(extra_constants)
    if bounded_size(sig, depth, max_atoms) > max_atoms:
        raise BaseTooLargeError(
            f"the Herbrand base at depth {depth} has more than {max_atoms} atoms or terms"
        )
    universe = tuple(enumerate_ground_terms(sig, depth, allow_empty=True))
    ids = {t: k for k, t in enumerate(universe)}
    terms = tuple((t.functor, tuple(ids[a] for a in t.args)) for t in universe)
    offsets, size = {}, 0
    for pred in sorted(sig.predicates):
        offsets[pred] = (sig.predicates[pred], size)
        size += len(universe) ** sig.predicates[pred]
    intern = {node: k for k, node in enumerate(terms)}
    return HerbrandBase(sig, depth, universe, terms, intern, offsets, size)


class Interpretation(Value, compared=3):
    """A set of base atoms (an `AtomSet` when the oracle computed it).
    When an oracle computation returns one, the counters say how much work
    it did: the size of the base, the number of ground clause instances,
    and the rounds of the operator applied."""

    __slots__ = ("atoms", "base", "converged", "base_atoms", "instances", "rounds")
    _defaults = {"converged": True, "base_atoms": 0, "instances": 0, "rounds": 0}

    def sorted_atoms(self) -> tuple[Atom, ...]:
        return _ordered(self.atoms)


def empty_interpretation(base: HerbrandBase) -> Interpretation:
    return Interpretation(frozenset(), base)


def full_interpretation(base: HerbrandBase) -> Interpretation:
    return Interpretation(base.atoms, base)


# ---------------------------------------------------------------------------
# The semantic operator
# ---------------------------------------------------------------------------


class _Grounding(Value):
    """Clause instances with an in-base head, over a base of `size` atoms.
    Instance i has head id `heads[i]`, in-base body ids `bodies[i]`, in body
    order, and, if it has any, out-of-base body atoms `outside[i]`.
    Instances come clause by clause, each clause's in head id order (the
    order of its head join), and each clause has at most one instance per
    head (the head binds every variable), so one head's instances are in
    clause order.  The indexes over the instances are built on first use,
    once per grounding, however many fixpoints and certificates read it."""

    __slots__ = ("heads", "bodies", "outside", "size", "_watchers", "_by_head")

    @_lazy
    def watchers(self) -> list[list[int]]:
        """Per base atom, the instances whose body holds it."""
        watchers: list[list[int]] = [[] for _ in range(self.size)]
        for i, body in enumerate(self.bodies):
            for b in body:
                watchers[b].append(i)
        return watchers

    @_lazy
    def by_head(self) -> dict[int, list[int]]:
        """Per head id, its instances, in clause order."""
        by_head: dict[int, list[int]] = {}
        for i, head in enumerate(self.heads):
            by_head.setdefault(head, []).append(i)
        return by_head


def _ground_program(program: Program, base: HerbrandBase) -> _Grounding:
    g = _Grounding([], [], {}, base.size)
    for clause in program.clauses:
        heads, envs = base.join(clause.head)
        names = atom_vars(clause.head)
        columns = [base.ids_under(b, names, envs) for b in clause.body]
        bodies = list(zip(*columns)) if columns else [()] * len(heads)
        if any(None in column for column in columns):
            for i, body in enumerate(bodies):
                if None in body:
                    terms = {v: base.universe[t] for v, t in zip(names, envs[i])}
                    g.outside[len(g.heads) + i] = tuple(
                        apply_atom(terms, b) for b, k in zip(clause.body, body) if k is None
                    )
                    bodies[i] = tuple(k for k in body if k is not None)
        g.heads.extend(heads)
        g.bodies.extend(bodies)
    return g


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
    produced = _step(_ground_program(program, base), base.mask(interp.atoms), policy)
    return Interpretation(AtomSet(base, bytes(produced)), base)


def _fixpoint(
    g: _Grounding,
    base: HerbrandBase,
    start: AbstractSet[Atom],
    policy: Policy,
    max_iters: int,
) -> Interpretation:
    """Iterate the bounded operator from `start` until it stops changing.

    `start` is empty for the least fixed point, where the iterates grow, or
    the whole base for the greatest, where they shrink.  Each round is one
    application of the operator, so after `max_iters` rounds the result is
    the same iterate, with the same `converged` flag, as re-applying the
    operator naively; but a round only visits the instances whose body
    holds an atom that the previous round added or removed.
    """
    if start and start is not base.atoms and start != base.atoms:
        raise ValueError("a fixpoint starts from the empty set or the whole base")
    heads, watchers = g.heads, g.watchers
    # Under the pessimistic policy an instance with an out-of-base body atom
    # never fires.
    mute = g.outside if policy is Policy.PESSIMISTIC else {}
    current = bytearray(b"\x01" if start else b"\x00") * base.size
    rounds = 0
    converged = False
    if not start:
        # changed: atoms the next application adds.
        missing = [len(body) for body in g.bodies]
        changed = {heads[i] for i, m in enumerate(missing) if not m and i not in mute}
        while rounds < max_iters:
            rounds += 1
            if not changed:
                converged = True
                break
            for a in changed:
                current[a] = 1
            fresh, changed = changed, set()
            for a in fresh:
                for i in watchers[a]:
                    missing[i] -= 1
                    if not missing[i] and i not in mute and not current[heads[i]]:
                        changed.add(heads[i])
    else:
        # changed: atoms the next application removes.
        alive = [i not in mute for i in range(len(heads))]
        support = [0] * base.size
        for head in compress(heads, alive):
            support[head] += 1
        changed = {a for a, n in enumerate(support) if not n}
        while rounds < max_iters:
            rounds += 1
            if not changed:
                converged = True
                break
            for a in changed:
                current[a] = 0
            gone, changed = changed, set()
            for a in gone:
                for i in watchers[a]:
                    if alive[i]:
                        alive[i] = False
                        support[heads[i]] -= 1
                        if not support[heads[i]]:
                            changed.add(heads[i])
    return Interpretation(
        AtomSet(base, bytes(current)), base, converged,
        base_atoms=base.size, instances=len(heads), rounds=rounds,
    )


def lfp(
    program: Program,
    depth: int,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
    extra_constants: Iterable[str] = (),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Interpretation:
    """Least fixed point of the bounded operator, iterated up from empty."""
    base = herbrand_base(program.signature, depth, extra_constants, max_atoms)
    g = _ground_program(program, base)
    return _fixpoint(g, base, frozenset(), Policy.PESSIMISTIC, max_iters)


def gfp_bounded(
    program: Program,
    depth: int,
    policy: Policy = Policy.PESSIMISTIC,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
    extra_constants: Iterable[str] = (),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Interpretation:
    """Greatest fixed point of the bounded operator, iterated down from full."""
    base = herbrand_base(program.signature, depth, extra_constants, max_atoms)
    g = _ground_program(program, base)
    return _fixpoint(g, base, base.atoms, policy, max_iters)


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


# ---------------------------------------------------------------------------
# Greatest-model membership certificates
# ---------------------------------------------------------------------------


class Certificate(Value, compared=4):
    """A support set S with target in S and S <= T_P(S) under the bounded
    optimistic operator.  `frontier` lists the out-of-base body atoms the
    support leans on; when it is empty the certificate is a post-fixed point
    of the true operator and hence a sound witness of greatest-model
    membership.  The counters are those of the optimistic gfp."""

    __slots__ = ("target", "support", "frontier", "depth", "base_atoms", "instances", "rounds")
    _defaults = {"base_atoms": 0, "instances": 0, "rounds": 0}

    @property
    def exact(self) -> bool:
        return not self.frontier

    def sorted_support(self) -> tuple[Atom, ...]:
        return _ordered(self.support)

    def sorted_frontier(self) -> tuple[Atom, ...]:
        return _ordered(self.frontier)


def certify_gfp(
    program: Program,
    target: Atom,
    search_depth: int,
    *,
    extra_constants: Iterable[str] = (),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Optional[Certificate]:
    """Search for a finite support set witnessing membership of `target`.

    The signature is extended with the target's own symbols, so targets may
    mention constants that the program never writes down.  Returns None when
    no support exists within the bound; that is not a proof of absence.
    """
    if not is_ground_atom(target):
        raise ValueError("certificate targets must be ground atoms")
    sig = program.signature.merged(signature_of_atom(target))
    base = herbrand_base(sig, search_depth, extra_constants, max_atoms)
    if target not in base.atoms:
        return None
    g = _ground_program(program, base)
    model = _fixpoint(g, base, base.atoms, Policy.OPTIMISTIC, DEFAULT_MAX_ITERS)
    live = base.mask(model.atoms)
    k = base.atom_id(target)
    if not live[k]:
        return None
    support, frontier = _support(g, base, live, (k,))
    return Certificate(
        target, AtomSet(base, bytes(support)), frozenset(frontier), base.depth,
        base_atoms=model.base_atoms, instances=model.instances, rounds=model.rounds,
    )


def _support(
    g: _Grounding, base: HerbrandBase, live: bytes, roots: Iterable[int]
) -> tuple[bytearray, set[Atom]]:
    """The support of `roots`, members of the optimistic gfp of `g` whose
    mask is `live`, and the out-of-base atoms it leans on.

    The support is the least set that holds the roots and, with each member,
    the in-base body of the member's first instance whose body is live.
    Each member is visited once, so the cost is linear in the instances of
    the support's atoms.  The support is then re-validated on its own
    (`_check_post_fixed`), which makes it a witness for every atom in it."""
    support = bytearray(base.size)
    frontier: set[Atom] = set()
    by_head, bodies, outside = g.by_head, g.bodies, g.outside
    stack = list(roots)
    while stack:
        a = stack.pop()
        if support[a]:
            continue
        support[a] = 1
        for i in by_head.get(a, ()):
            if all(live[b] for b in bodies[i]):
                break
        else:  # cannot happen for members of the optimistic gfp
            raise CertificateInvariantError(f"no supporting instance for {base.sorted_atoms()[a]}")
        frontier.update(outside.get(i, ()))
        stack.extend(b for b in bodies[i] if not support[b])
    _check_post_fixed(g, support)
    return support, frontier


def _check_post_fixed(g: _Grounding, support: bytes) -> None:
    """Raise unless the support S satisfies S <= T_P(S) under the optimistic
    operator: each member has an instance whose in-base body lies in S.
    Only the instances whose head is in S are read."""
    by_head, bodies = g.by_head, g.bodies
    for a in compress(range(len(support)), support):
        if not any(all(support[b] for b in bodies[i]) for i in by_head.get(a, ())):
            raise CertificateInvariantError("support is not a post-fixed point")


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------


class Verdict(Enum):
    VALID = "VALID"
    INVALID = "INVALID"
    UNKNOWN = "UNKNOWN"


class ValidityVerdict(Value):
    # counterexample: the failing substitution of an INVALID verdict, else None
    __slots__ = ("status", "counterexample", "semantics", "depth", "note")
    _defaults = {"note": ""}

    @property
    def is_valid(self) -> bool:
        return self.status is Verdict.VALID


def valid(
    program: Program,
    formula: HornClause,
    semantics: Semantics,
    depth: int,
    *,
    extra_constants: Iterable[str] = (),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> ValidityVerdict:
    """Validity of an atomic or Horn formula in the bounded model.

    Membership is decided three-valued so that verdicts are sound relative
    to the true (unbounded) models: an atom is surely in when the
    pessimistic computation contains it (pessimistic derivations and
    post-fixed points are genuine), surely out when even the optimistic
    over-approximation lacks it, and boundary-uncertain otherwise.  INVALID
    is reported only for a definitive counterexample (bodies surely in,
    head surely out), the first in `product(universe, ...)` order over the
    formula's variables; groundings the bound cannot decide yield UNKNOWN,
    as do formulas with no grounding inside the base.  Only the body-only
    variables range over the universe; the rest come from the head's
    join with the base.
    """
    sig = program.signature.merged(signature_of_clause(formula))
    base = herbrand_base(sig, depth, extra_constants, max_atoms)
    g = _ground_program(program, base)
    start = frozenset() if semantics is Semantics.IND else base.atoms
    sure, maybe = (
        base.mask(_fixpoint(g, base, start, policy, DEFAULT_MAX_ITERS).atoms)
        for policy in (Policy.PESSIMISTIC, Policy.OPTIMISTIC)
    )
    names = clause_vars(formula)
    bound = len(atom_vars(formula.head))
    # The head's matches, ordered by its variables' ids, each extended over
    # the body-only variables: the groundings in `product` order.
    head_ids, envs = base.join(formula.head)
    heads = sorted(zip(envs, head_ids))
    checked = 0
    undecided = False
    for ids, head in heads:
        for rest in product(range(len(base.universe)), repeat=len(names) - bound):
            env = dict(zip(names, ids + rest))
            body = [base.atom_id(b, env) for b in formula.body]
            if None in body:
                continue
            checked += 1
            if not all(maybe[b] for b in body) or sure[head]:
                continue  # a premise surely fails, or the head surely holds
            if not all(sure[b] for b in body) or maybe[head]:
                undecided = True
                continue
            s = {v: base.universe[t] for v, t in env.items()}
            return ValidityVerdict(
                Verdict.INVALID, s, semantics, depth,
                note=f"instance {apply_atom(s, formula.head)} fails at depth {depth}",
            )
    if checked == 0:
        return ValidityVerdict(
            Verdict.UNKNOWN, None, semantics, depth,
            note="no grounding of the formula fits inside the bounded base",
        )
    if undecided:
        return ValidityVerdict(
            Verdict.UNKNOWN, None, semantics, depth,
            note="some instance is boundary-uncertain at this depth",
        )
    return ValidityVerdict(Verdict.VALID, None, semantics, depth)


# ---------------------------------------------------------------------------
# Model preservation under program transformation
# ---------------------------------------------------------------------------


class ModelComparison(Value):
    # removed: the atoms in the base program's model only, added: those in
    # the extended program's only; certificates: (atom, found in the base
    # program, found in the extended one) per differing atom.
    __slots__ = ("preserved", "semantics", "depth", "removed", "added", "certificates")
    _defaults = {"certificates": ()}

    def difference(self) -> tuple[Atom, ...]:
        return tuple(sorted(set(self.removed) | set(self.added), key=atom_sort_key))


def preserves_model(
    program: Program,
    formula: HornClause,
    semantics: Semantics,
    depth: int,
    *,
    extra_constants: Iterable[str] = (),
) -> ModelComparison:
    """Compare the bounded model of P against P extended with `formula`.

    Coinductively, the differing atoms are certified from the two
    groundings at hand, with one support per program.  The atoms a target
    reaches through clause bodies carry only its own and the program's
    symbols, so the larger base of the extended signature gives
    `certify_gfp`'s answer.
    """
    extended = program.extended(formula)
    base = herbrand_base(extended.signature, depth, extra_constants)
    if semantics is Semantics.IND:
        start, policy = frozenset(), Policy.PESSIMISTIC
    else:
        start, policy = base.atoms, Policy.OPTIMISTIC
    grounds = (_ground_program(program, base), _ground_program(extended, base))
    models = [_fixpoint(g, base, start, policy, DEFAULT_MAX_ITERS) for g in grounds]
    old, new = (base.mask(m.atoms) for m in models)
    gone, came = bytes(map(gt, old, new)), bytes(map(gt, new, old))
    removed, added = tuple(AtomSet(base, gone)), tuple(AtomSet(base, came))
    certs: list[tuple[Atom, bool, bool]] = []
    if semantics is Semantics.COIND:
        # A removed atom lies in the first program's optimistic gfp only, an
        # added one in the second's only, and a certificate exists exactly
        # for the members.  One support per program, checked once, certifies
        # all of its members: a union of post-fixed points is one.
        for g, live, members in zip(grounds, (old, new), (gone, came)):
            _support(g, base, live, compress(range(base.size), members))
        certs = [(a, True, False) for a in removed] + [(a, False, True) for a in added]
    return ModelComparison(
        preserved=not removed and not added,
        semantics=semantics,
        depth=depth,
        removed=removed,
        added=added,
        certificates=tuple(certs),
    )
