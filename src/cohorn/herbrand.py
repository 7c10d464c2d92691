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
terms are numbered by depth, then functor, then arguments, in a table of
(functor, child ids) interned back to ids, and become `App`s only when
`universe` is read; an atom's id is its predicate's offset plus its
argument ids read as a mixed-radix number.  A base costs O(|universe|) to
set up; `max_atoms` bounds it, checked from the universe-size recurrence
before anything is enumerated.  Grounding is a column join on the head:
each argument pattern with variables is matched once against every
universe term, O(|universe| * head arguments) matches per clause, a ground
argument is looked up by its id, and the columns are joined in id order on
the variables they share.  Since clauses have no existential variables the
head grounds the whole clause, one instance per (clause, head).  A body
atom's ids are then slot arithmetic over the instances' variable ids,
O(instances * body); only a compound argument with variables goes through
the intern table per instance.  A miss means the atom lies beyond the
base, and only such atoms become `Atom` objects (their terms read
`universe`).  The fixpoints propagate counters over the ids in the style
of Dowling and Gallier's linear-time Horn satisfiability: the least fixed
point counts, per instance, the body atoms still missing, and the greatest
counts, per head, the instances still alive.  Each counter moves at most
once per body atom, so a fixpoint costs O(instances * body) on top of the
grounding.  A fixpoint runs until a round changes nothing, at most one
round per base atom and that last one, so `max_atoms` is the only budget.
Results are byte masks over the ids, printed in id order with no sort.

A question with no variables needs no base: the membership of its atoms
in either model depends only on the atoms they reach through clause
bodies.  `certify_gfp`, and `valid` of a formula without variables, ground
just those atoms (`_reach`), interning only the terms they meet, after the
same signature checks; `max_atoms` bounds that walk, not a base.  A body
atom with a term beyond the depth is an out-of-base atom of its instance,
as in a base's grounding, and is not walked.  The walk costs O(reached
instances * clause body), plus matching each reached atom against the
clause heads of its predicate and first functor; the same fixpoints and
support then run on it, so the answer equals the base's.
"""

from __future__ import annotations

from collections.abc import Set
from enum import Enum
from itertools import compress, groupby, islice, product, repeat
from operator import gt
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence

from .terms import (
    DEFAULT_MAX_ATOMS,
    App,
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
    atom_vars,
    clause_vars,
    signature_of,
    term_vars,
)


class Policy(Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class Semantics(Enum):
    IND = "inductive"
    COIND = "coinductive"


# ---------------------------------------------------------------------------
# Bases and interpretations
# ---------------------------------------------------------------------------


def _term_id(t: Term, env: dict[str, int], node_id) -> Optional[int]:
    """The id of `t`, its variables read through `env` and each of its
    nodes, (functor, child ids), through `node_id`; None as soon as one of
    them has none.  A post-order walk on an explicit stack: a `(functor,
    arity)` entry stands for a compound term whose argument ids are the
    last `arity` ids found."""
    ids: list[int] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if type(t) is tuple:
            functor, n = t
            k = node_id((functor, tuple(ids[-n:])))
            del ids[-n:]
        elif isinstance(t, Var):
            k = env.get(t.name)
        elif t.args:
            stack.append((t.functor, len(t.args)))
            stack += reversed(t.args)
            continue
        else:
            k = node_id((t.functor, ()))
        if k is None:
            return None
        ids.append(k)
    return ids[0]


def _texts(terms: Iterable[tuple[str, tuple[int, ...]]]) -> list[str]:
    """The text of each term (functor, child ids), as `str` prints it,
    built from its children's texts: a child's id is below its parent's."""
    names: list[str] = []
    for functor, children in terms:
        names.append(f"{functor}({','.join([names[c] for c in children])})" if children else functor)
    return names


def _apps(terms: Iterable[tuple[str, tuple[int, ...]]]) -> list[App]:
    """Each term (functor, child ids) as an `App`, built bottom up and
    hashed from its children's cached hashes, so no hash recurses."""
    apps: list[App] = []
    for functor, children in terms:
        apps.append(App(functor, tuple([apps[c] for c in children])))
        hash(apps[-1])
    return apps


def _match(terms, p: Term, t: int, env: dict[str, int]) -> bool:
    """Whether `p` matches term t, where `terms[t]` is (functor, child
    ids); binds the ids of p's variables in `env`."""
    if isinstance(p, Var):
        return env.setdefault(p.name, t) == t
    functor, children = terms[t]
    return functor == p.functor and all(map(_match, repeat(terms), p.args, children, repeat(env)))


class HerbrandBase(Value, compared=2, shown=2):
    """The ground atoms whose terms have depth <= `depth`, numbered densely.

    Term k is (functor, child ids) `terms[k]`, numbered by depth, then
    functor, then arguments, and `intern` maps those back to k.  `offsets`
    maps each predicate, in name order, to (arity, first atom id);
    p(t1..tn) is p's first id plus the ids of t1..tn read as a number in
    base |universe|.  There are `size` atoms; `atoms` is the set of them
    all.  The rest is a function of the signature and depth, the `==` key."""

    __slots__ = ("signature", "depth", "terms", "intern", "offsets", "size", "_universe", "_atoms")

    @_lazy
    def universe(self) -> tuple[App, ...]:
        """Term k as an `App`, built on first read."""
        return tuple(_apps(self.terms))

    @_lazy
    def atoms(self) -> AtomSet:
        return AtomSet(self, None)

    def atom_id(self, atom: Atom) -> Optional[int]:
        """The id of `atom`, or None when it is not a ground atom of the
        base."""
        arity, lo = self.offsets.get(atom.predicate, (-1, 0))
        if arity != len(atom.args):
            return None
        k, n = 0, len(self.terms)
        for arg in atom.args:
            t = _term_id(arg, {}, self.intern.get)
            if t is None:
                return None
            k = k * n + t
        return lo + k

    def join(self, head: Atom) -> tuple[list[int], list[tuple[int, ...]]]:
        """The ids of the base atoms that `head` matches, in id order, and
        for each the ids its variables take, in `atom_vars(head)` order.

        An argument with variables is matched once against every universe
        term, and a ground one is looked up by its id.  The positions'
        columns are joined left to right on the variables an earlier
        position bound.  An id is the argument ids read as a mixed-radix
        number, so joining sorted columns in order yields the ids in order."""
        arity, lo = self.offsets.get(head.predicate, (-1, 0))
        if arity != len(head.args):
            return [], []
        n = len(self.terms)
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
            if here:
                for t in range(n):
                    bound: dict[str, int] = {}
                    if _match(self.terms, p, t, bound):
                        key = tuple(bound[v] for v in old)
                        column.setdefault(key, []).append((t, tuple(bound[v] for v in new)))
            elif (t := _term_id(p, {}, self.intern.get)) is not None:
                column[()] = [(t, ())]
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
        n = len(self.terms)
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
                t = _term_id(arg, {}, self.intern.get)
                if t is None:
                    return [None] * len(envs)
                ids = [k + t * w for k in ids]
        if compound:
            dicts = [dict(zip(names, e)) for e in envs]
            for arg, w in compound:
                ids = [
                    None if k is None or (t := _term_id(arg, d, self.intern.get)) is None else k + t * w
                    for k, d in zip(ids, dicts)
                ]
        return ids


class AtomSet(Set):
    """An immutable set of base atoms: a byte per base id (None for the
    whole base), iterated in id order: by predicate, then arguments.  It
    equals, and hashes like, the frozenset of the same atoms."""

    def __init__(self, base: HerbrandBase, mask: Optional[bytes]):
        self.base = base
        self.mask = mask

    def __len__(self) -> int:
        return self.base.size if self.mask is None else self.mask.count(1)

    def __contains__(self, atom: object) -> bool:
        k = self.base.atom_id(atom) if isinstance(atom, Atom) else None
        return k is not None and (self.mask is None or self.mask[k] == 1)

    def _rows(self, terms: Sequence) -> Iterator[tuple[str, int, Iterator[tuple]]]:
        """Per predicate, in id order: its name, its arity and the members'
        argument tuples, term k read as `terms[k]`, in id order."""
        n = len(self.base.terms)
        for pred, (arity, lo) in self.base.offsets.items():
            args = product(terms, repeat=arity)
            if self.mask is not None:
                args = compress(args, self.mask[lo:lo + n ** arity])
            yield pred, arity, args

    def __iter__(self) -> Iterator[Atom]:
        if self.mask is not None and 1 not in self.mask:
            return  # no member, so no need of the universe's terms
        for pred, _, args in self._rows(self.base.universe):
            yield from map(Atom, repeat(pred), args)

    def texts(self) -> Iterator[str]:
        """The members as `str` prints them, in id order, built without
        `Atom`s: each universe term is rendered once, from its children's
        texts (a child's id is below its parent's, as the universe is in
        depth order), and only the members' argument tuples are joined."""
        for pred, arity, args in self._rows(_texts(self.base.terms)):
            # A 0-ary predicate's text has no `{}`, so it prints bare.
            yield from map(f"{pred}({{}})".format if arity else pred.format, map(",".join, args))

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, atoms: Iterable[Atom]) -> frozenset[Atom]:
        return frozenset(atoms)


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
    enumerated, when it would hold more than `max_atoms` atoms or terms.
    Depth 1 holds the constants; each functor builds depth d from the
    shallower ids (`_args_with_fresh`), so each layer costs its own size."""
    sig = signature.with_constants(extra_constants)
    if bounded_size(sig, depth, max_atoms) > max_atoms:
        raise BaseTooLargeError(
            f"the Herbrand base at depth {depth} has more than {max_atoms} atoms or terms"
        )
    if depth < 1:
        raise ValueError("depth must be >= 1")
    funcs = sorted(sig.functions.items())
    terms = [(name, ()) for name, arity in funcs if not arity]
    start = 0
    for _ in range(depth - 1):
        end = len(terms)
        terms += [(name, args) for name, arity in funcs if arity for args in _args_with_fresh(start, end, arity)]
        if len(terms) == end:
            break
        start = end
    offsets, size = {}, 0
    for pred in sorted(sig.predicates):
        offsets[pred] = (sig.predicates[pred], size)
        size += len(terms) ** sig.predicates[pred]
    intern = {node: k for k, node in enumerate(terms)}
    return HerbrandBase(sig, depth, tuple(terms), intern, offsets, size)


def _args_with_fresh(start: int, end: int, arity: int) -> list[tuple[int, ...]]:
    """The tuples of `product(range(end), repeat=arity)` that hold at least
    one id of range(start, end), in that product's order: those led by an
    earlier id and followed by such a tuple, then those led by an id of
    range(start, end), which come later in that order."""
    if arity == 1:
        return [(t,) for t in range(start, end)]
    tails = _args_with_fresh(start, end, arity - 1)
    return [(t, *tail) for t in range(start) for tail in tails] + [
        (t, *tail) for t in range(start, end) for tail in product(range(end), repeat=arity - 1)
    ]


class Interpretation(Value, compared=2):
    """A set of base atoms (an `AtomSet` when the oracle computed it).
    When an oracle fixpoint returns one, the counters say how much work it
    did: the size of the base, the number of ground clause instances, and
    the rounds of the operator applied until the fixpoint, at most
    `base_atoms + 1`."""

    __slots__ = ("atoms", "base", "base_atoms", "instances", "rounds")
    _defaults = {"base_atoms": 0, "instances": 0, "rounds": 0}


# ---------------------------------------------------------------------------
# The semantic operator
# ---------------------------------------------------------------------------


class _Grounding(Value):
    """Clause instances with an in-base head, over `size` atoms: a whole
    base's (`_ground_program`) or those a ground atom reaches (`_reach`).
    Instance i has head id `heads[i]`, in-base body ids `bodies[i]`, in body
    order, and, if it has any, out-of-base body atoms `outside[i]`.  Each
    clause has at most one instance per head (the head binds every
    variable), and one head's instances are in clause order.  The indexes
    over the instances are built on first use, once per grounding, however
    many fixpoints and certificates read it."""

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


def _fixpoint(
    program: Program, depth: int, greatest: bool, policy: Policy, extra_constants: Iterable[str], max_atoms: int
) -> Interpretation:
    base = herbrand_base(program.signature, depth, extra_constants, max_atoms)
    g = _ground_program(program, base)
    # Under the pessimistic policy an instance with an out-of-base body atom
    # never fires.
    current, rounds = _propagate(g, greatest, g.outside if policy is Policy.PESSIMISTIC else {})
    return Interpretation(
        AtomSet(base, bytes(current)), base,
        base_atoms=base.size, instances=len(g.heads), rounds=rounds,
    )


def _propagate(g: _Grounding, greatest: bool, mute: AbstractSet[int]) -> tuple[bytearray, int]:
    """Iterate the bounded operator until it stops changing, with the
    instances in `mute` never firing; the fixpoint's mask and rounds.

    The least fixed point starts from the empty set, and the iterates grow;
    the greatest starts from the whole base, and they shrink.  Each round is
    one application of the operator, so the result and its round count are
    those of re-applying the operator naively until it stops changing; but
    a round only visits the instances whose body holds an atom that the
    previous round added or removed.  Every round but the last adds or
    removes an atom, so there are at most `g.size + 1` rounds.
    """
    heads, watchers = g.heads, g.watchers
    current = bytearray(b"\x01" if greatest else b"\x00") * g.size
    # The last round, which changes nothing.
    rounds = 1
    if not greatest:
        # changed: atoms the next application adds.
        missing = [len(body) for body in g.bodies]
        changed = {heads[i] for i, m in enumerate(missing) if not m and i not in mute}
        while changed:
            rounds += 1
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
        support = [0] * g.size
        for head in compress(heads, alive):
            support[head] += 1
        changed = {a for a, n in enumerate(support) if not n}
        while changed:
            rounds += 1
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
    return current, rounds


def lfp(
    program: Program,
    depth: int,
    *,
    extra_constants: Iterable[str] = (),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Interpretation:
    """Least fixed point of the bounded operator, iterated up from empty."""
    return _fixpoint(program, depth, False, Policy.PESSIMISTIC, extra_constants, max_atoms)


def gfp_bounded(
    program: Program,
    depth: int,
    policy: Policy = Policy.PESSIMISTIC,
    *,
    extra_constants: Iterable[str] = (),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Interpretation:
    """Greatest fixed point of the bounded operator, iterated down from full."""
    return _fixpoint(program, depth, True, policy, extra_constants, max_atoms)


# ---------------------------------------------------------------------------
# The atoms a ground atom reaches
# ---------------------------------------------------------------------------


_Key = tuple[str, tuple[int, ...]]


def _reach(
    program: Program, roots: Sequence[Atom], depth: int, max_atoms: int = DEFAULT_MAX_ATOMS
) -> Optional[tuple[_Grounding, list[int], list[_Key], list[_Key]]]:
    """The grounding of the atoms that the ground atoms `roots` reach
    through clause bodies, with each root's id, the atoms as (predicate,
    argument term ids) and the term table of (functor, child ids), each
    child first.  The roots are numbered first, in order, a repeated root
    once.  None when a root lies outside the base; `BaseTooLargeError` as
    soon as the walk has interned more than `max_atoms` atoms or terms.

    Each reached atom gets every clause instance whose head it is, in clause
    order; the head binds every variable, so the body is ground.  A body
    atom with a term deeper than `depth` is an out-of-base atom of its
    instance, and is not walked.  The reached atoms are closed under the
    bodies of their instances, so their fixpoints are the base's."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    terms: list[_Key] = []
    intern: dict[_Key, int] = {}
    depths: list[int] = []

    def node_id(node: _Key) -> int:
        k = intern.get(node)
        if k is None:
            if len(terms) == max_atoms:
                raise _walk_too_large(depth, max_atoms)
            k = intern[node] = len(terms)
            terms.append(node)
            depths.append(1 + max([depths[c] for c in node[1]], default=0))
        return k

    def atom_key(a: Atom, env: dict[str, int]) -> _Key:
        args = tuple(env[t.name] if isinstance(t, Var) else _term_id(t, env, node_id) for t in a.args)
        return a.predicate, args

    keys = [atom_key(root, {}) for root in roots]
    if any(depths[t] > depth for _, args in keys for t in args):
        return None
    index: dict[_Key, int] = {}
    ids = [index.setdefault(key, len(index)) for key in keys]
    atoms = list(index)
    by_key: dict[tuple[str, Optional[str]], list[int]] = {}
    for k, key in enumerate(program.head_keys):
        by_key.setdefault(key, []).append(k)
    # (predicate, first functor) -> the numbers of the clauses whose heads
    # may match such an atom, in clause order.
    tried: dict[tuple[str, Optional[str]], list[int]] = {}
    heads: list[int] = []
    bodies: list[tuple[int, ...]] = []
    outside: dict[int, tuple[_Key, ...]] = {}
    for a, (pred, args) in enumerate(atoms):  # the list grows as the walk goes
        if a == max_atoms:  # every listed atom is walked in turn
            raise _walk_too_large(depth, max_atoms)
        key = (pred, terms[args[0]][0] if args else None)
        if key not in tried:
            tried[key] = sorted(by_key.get(key, []) + (by_key.get((pred, None), []) if key[1] else []))
        for k in tried[key]:
            c, env = program.clauses[k], {}
            if not all(map(_match, repeat(terms), c.head.args, args, repeat(env))):
                continue
            body, out = [], []
            for b in map(atom_key, c.body, repeat(env)):
                if any(depths[t] > depth for t in b[1]):
                    out.append(b)
                    continue
                if index.setdefault(b, len(atoms)) == len(atoms):
                    atoms.append(b)
                body.append(index[b])
            if out:
                outside[len(heads)] = tuple(out)
            heads.append(a)
            bodies.append(tuple(body))
    return _Grounding(heads, bodies, outside, len(atoms)), ids, atoms, terms


def _walk_too_large(depth: int, max_atoms: int) -> BaseTooLargeError:
    return BaseTooLargeError(
        f"the atoms reached at depth {depth} hold more than {max_atoms} atoms or terms"
    )


class _Listed(frozenset):
    """A frozenset of atoms that iterates, and lists its `texts`, in the
    order given, as an `AtomSet` does in id order."""

    def __new__(cls, atoms: list[Atom], texts: Iterable[str]):
        self = super().__new__(cls, atoms)
        self.order, self.names = tuple(atoms), tuple(texts)
        return self

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.order)

    def texts(self) -> Iterator[str]:
        return iter(self.names)


def _listed(terms: list[_Key], *groups: list[_Key]) -> list[_Listed]:
    """Each group of atoms (predicate, argument term ids) as a set listed as
    a base numbers it: by predicate, then arguments, each term by depth,
    then functor, then arguments.  Terms are ranked depth by depth, so no
    sort key nests, and built by `_apps`, so neither a text nor a hash
    recurses."""
    depths: list[int] = []
    rank: dict[int, int] = {}
    for functor, children in terms:
        depths.append(1 + max([depths[c] for c in children], default=0))
    apps = _apps(terms)
    for _, level in groupby(sorted(range(len(terms)), key=depths.__getitem__), depths.__getitem__):
        for k in sorted(level, key=lambda k: (terms[k][0], [rank[c] for c in terms[k][1]])):
            rank[k] = len(rank)
    names, out = _texts(terms), []
    for atoms in groups:
        atoms = sorted(atoms, key=lambda a: (a[0], [rank[t] for t in a[1]]))
        texts = [f"{p}({','.join([names[t] for t in args])})" if args else p for p, args in atoms]
        out.append(_Listed([Atom(p, tuple(apps[t] for t in args)) for p, args in atoms], texts))
    return out


# ---------------------------------------------------------------------------
# Greatest-model membership certificates
# ---------------------------------------------------------------------------


class Certificate(Value, compared=4):
    """A support set S with target in S and S <= T_P(S) under the bounded
    optimistic operator.  `frontier` lists the out-of-base body atoms the
    support leans on; when it is empty the certificate is a post-fixed point
    of the true operator and hence a sound witness of greatest-model
    membership.  Both are listed as a base numbers atoms, with their
    `texts`.  The counters are those of the optimistic gfp of the atoms the
    target reaches: the atoms, their instances and the rounds."""

    __slots__ = ("target", "support", "frontier", "depth", "base_atoms", "instances", "rounds")
    _defaults = {"base_atoms": 0, "instances": 0, "rounds": 0}

    @property
    def exact(self) -> bool:
        return not self.frontier


def certify_gfp(
    program: Program,
    target: Atom,
    search_depth: int,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Optional[Certificate]:
    """Search for a finite support set witnessing membership of `target`.

    The signature is extended with the target's own symbols, so targets may
    mention constants that the program never writes down.  Returns None when
    no support exists within the bound; that is not a proof of absence.
    Only the atoms the target reaches are grounded: no base is built, and
    `max_atoms` bounds the atoms and terms that walk interns.
    """
    if atom_vars(target):
        raise ValueError("certificate targets must be ground atoms")
    # A base would first refuse a symbol clash.
    program.signature.merged(signature_of([target]))
    reached = _reach(program, [target], search_depth, max_atoms)
    if reached is None:
        return None
    g, _, atoms, terms = reached
    live, rounds = _propagate(g, True, {})
    if not live[0]:
        return None
    support, frontier = _support(g, live, (0,))
    members = [atoms[a] for a in compress(range(g.size), support)]
    return Certificate(
        target, *_listed(terms, members, list(frontier)), search_depth,
        base_atoms=g.size, instances=len(g.heads), rounds=rounds,
    )


def _support(g: _Grounding, live: bytes, roots: Iterable[int]) -> tuple[bytearray, set]:
    """The support of `roots`, members of the optimistic gfp of `g` whose
    mask is `live`, and the out-of-base atoms it leans on.

    The support is the least set that holds the roots and, with each member,
    the in-base body of the member's first instance whose body is live.
    Each member is visited once, so the cost is linear in the instances of
    the support's atoms.  The support is then re-validated on its own
    (`_check_post_fixed`), which makes it a witness for every atom in it."""
    support = bytearray(g.size)
    frontier = set()
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
            raise CertificateInvariantError(f"no supporting instance for atom {a} of the grounding")
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


_NO_GROUNDING = "no grounding of the formula fits inside the bounded base"
_UNDECIDED = "some instance is boundary-uncertain at this depth"


class ValidityVerdict(Value):
    # counterexample: the failing substitution of an INVALID verdict, else None
    __slots__ = ("status", "counterexample", "semantics", "depth", "note")
    _defaults = {"note": ""}


def valid(
    program: Program,
    formula: HornClause,
    semantics: Semantics,
    depth: int,
    *,
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
    as do formulas with no grounding inside the base.

    A formula without variables is read off the fixpoints of the atoms it
    reaches (`_reach`), with no base built, and `max_atoms` bounds that
    walk; one with variables is grounded over the base (`_groundings`).
    """
    sig = program.signature.merged(signature_of([formula.head, *formula.body]))
    names = clause_vars(formula)
    if names:
        base = herbrand_base(sig, depth, max_atoms=max_atoms)
        g = _ground_program(program, base)
        rows: Iterable[tuple[tuple[int, ...], int, tuple[int, ...]]] = _groundings(base, formula, names)
        def instance(ids: tuple[int, ...], head: int) -> tuple[dict, str]:
            # The text from the id, so a deep atom needs no recursion.
            text = next(AtomSet(base, bytes(head) + b"\x01" + bytes(base.size - head - 1)).texts())
            return {v: base.universe[t] for v, t in zip(names, ids)}, text
    else:
        reached = _reach(program, [formula.head, *formula.body], depth, max_atoms)
        # A root beyond the depth leaves the formula no grounding.
        g, roots, atoms, terms = reached or (_Grounding([], [], {}, 0), [], [], [])
        rows = [((), roots[0], tuple(roots[1:]))] if reached else []
        def instance(ids: tuple[int, ...], head: int) -> tuple[dict, str]:
            return {}, next(_listed(terms, [atoms[head]])[0].texts())  # no variable takes a term

    greatest = semantics is Semantics.COIND
    sure = _propagate(g, greatest, g.outside)[0]
    # Without out-of-base atoms the optimistic fixpoint is the pessimistic one.
    maybe = _propagate(g, greatest, {})[0] if g.outside else sure
    checked, undecided = 0, False
    for ids, head, body in rows:
        checked += 1
        if not all(maybe[b] for b in body) or sure[head]:
            continue  # a premise surely fails, or the head surely holds
        if not all(sure[b] for b in body) or maybe[head]:
            undecided = True
            continue
        counterexample, text = instance(ids, head)
        return ValidityVerdict(
            Verdict.INVALID, counterexample, semantics, depth, note=f"instance {text} fails at depth {depth}"
        )
    if checked == 0:
        return ValidityVerdict(Verdict.UNKNOWN, None, semantics, depth, note=_NO_GROUNDING)
    if undecided:
        return ValidityVerdict(Verdict.UNKNOWN, None, semantics, depth, note=_UNDECIDED)
    return ValidityVerdict(Verdict.VALID, None, semantics, depth)


def _groundings(
    base: HerbrandBase, formula: HornClause, names: list[str]
) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The groundings of `formula` inside the base as (ids of `names`, its
    variables, head id, body ids), in `product(universe, ...)` order: the
    head's `join` rows sorted by their variables' ids, each extended over
    the body-only variables.  Body ids are read by `ids_under`, one slice of
    |universe| groundings at a time, so stopping early grounds one slice."""
    n = len(base.terms)
    head_ids, envs = base.join(formula.head)
    rows = ((env + more, head) for env, head in sorted(zip(envs, head_ids))
            for more in product(range(n), repeat=len(names) - len(env)))
    while chunk := list(islice(rows, max(n, 1))):
        columns = [base.ids_under(b, names, [env for env, _ in chunk]) for b in formula.body]
        for (env, head), body in zip(chunk, zip(*columns) if columns else repeat(())):
            if None not in body:
                yield env, head, body


# ---------------------------------------------------------------------------
# Model preservation under program transformation
# ---------------------------------------------------------------------------


class ModelComparison(Value):
    # removed: the atoms in the base program's model only, added: those in
    # the extended program's only; certificates: (atom, found in the base
    # program, found in the extended one) per differing atom.
    __slots__ = ("preserved", "semantics", "depth", "removed", "added", "certificates")
    _defaults = {"certificates": ()}


def preserves_model(
    program: Program,
    formula: HornClause,
    semantics: Semantics,
    depth: int,
) -> ModelComparison:
    """Compare the bounded model of P against P extended with `formula`.

    Coinductively, the differing atoms are certified from the two
    groundings at hand, with one support per program.  The atoms a target
    reaches through clause bodies carry only its own and the program's
    symbols, so the larger base of the extended signature gives
    `certify_gfp`'s answer.
    """
    extended = program.extended(formula)
    base = herbrand_base(extended.signature, depth)
    greatest = semantics is Semantics.COIND
    grounds = (_ground_program(program, base), _ground_program(extended, base))
    # The optimistic greatest model, or the pessimistic least one.
    old, new = (_propagate(g, greatest, {} if greatest else g.outside)[0] for g in grounds)
    gone, came = bytes(map(gt, old, new)), bytes(map(gt, new, old))
    removed, added = tuple(AtomSet(base, gone)), tuple(AtomSet(base, came))
    certs: list[tuple[Atom, bool, bool]] = []
    if semantics is Semantics.COIND:
        # A removed atom lies in the first program's optimistic gfp only, an
        # added one in the second's only, and a certificate exists exactly
        # for the members.  One support per program, checked once, certifies
        # all of its members: a union of post-fixed points is one.
        for g, live, members in zip(grounds, (old, new), (gone, came)):
            _support(g, live, compress(range(base.size), members))
        certs = [(a, True, False) for a in removed] + [(a, False, True) for a in added]
    return ModelComparison(
        preserved=not removed and not added,
        semantics=semantics,
        depth=depth,
        removed=removed,
        added=added,
        certificates=tuple(certs),
    )
