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

Cost model.  Grounding is head-driven: each clause head is matched against
the base atoms of its predicate, and since clauses have no existential
variables the match grounds the whole clause, so grounding costs
O(|base| * clauses) matches and yields one instance per (clause, head).
The fixpoints then propagate counters in the style of Dowling and Gallier's
linear-time Horn satisfiability: the least fixed point counts, per
instance, the body atoms still missing, and the greatest counts, per head,
the instances still alive.  Each counter moves at most once per body atom,
so a fixpoint costs O(instances * body) on top of the grounding.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Iterable, Optional, Sequence

from .terms import (
    Atom,
    HornClause,
    Program,
    Signature,
    Subst,
    Term,
    apply_atom,
    atom_sort_key,
    clause_vars,
    enumerate_ground_terms,
    is_ground_atom,
    match,
    signature_of_atom,
    signature_of_clause,
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


@dataclass(frozen=True)
class HerbrandBase:
    signature: Signature
    depth: int
    universe: tuple[Term, ...]
    atoms: frozenset[Atom]

    def sorted_atoms(self) -> tuple[Atom, ...]:
        return tuple(sorted(self.atoms, key=atom_sort_key))


def herbrand_base(
    signature: Signature, depth: int, extra_constants: Iterable[str] = ()
) -> HerbrandBase:
    sig = signature.with_constants(extra_constants)
    universe = tuple(enumerate_ground_terms(sig, depth, allow_empty=True))
    atoms: set[Atom] = set()
    for pred, arity in sig.predicates.items():
        if arity == 0:
            atoms.add(Atom(pred))
        else:
            for args in product(universe, repeat=arity):
                atoms.add(Atom(pred, args))
    return HerbrandBase(sig, depth, universe, frozenset(atoms))


@dataclass(frozen=True)
class Interpretation:
    """A set of base atoms.  When an oracle computation returns one, the
    counters say how much work it did: the size of the base, the number of
    ground clause instances, and the rounds of the operator applied."""

    atoms: frozenset[Atom]
    base: HerbrandBase
    converged: bool = True
    base_atoms: int = field(default=0, compare=False)
    instances: int = field(default=0, compare=False)
    rounds: int = field(default=0, compare=False)

    def sorted_atoms(self) -> tuple[Atom, ...]:
        return tuple(sorted(self.atoms, key=atom_sort_key))


def empty_interpretation(base: HerbrandBase) -> Interpretation:
    return Interpretation(frozenset(), base)


def full_interpretation(base: HerbrandBase) -> Interpretation:
    return Interpretation(base.atoms, base)


# ---------------------------------------------------------------------------
# The semantic operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GroundInstance:
    head: Atom
    in_base: tuple[Atom, ...]
    out_of_base: tuple[Atom, ...]


def _ground_program(program: Program, base: HerbrandBase) -> list[_GroundInstance]:
    """All clause instances with an in-base head, bodies split by the base.

    Instances come clause by clause, and each clause has at most one
    instance per head (the head match binds every variable), so the
    instances of one head appear in clause order.
    """
    by_predicate: dict[str, list[Atom]] = {}
    for atom in base.atoms:
        by_predicate.setdefault(atom.predicate, []).append(atom)
    out: list[_GroundInstance] = []
    for clause in program.clauses:
        for head in by_predicate.get(clause.head.predicate, ()):
            s = match(clause.head, head)
            if s is None:
                continue
            body = tuple(apply_atom(s, b) for b in clause.body)
            inside = tuple(b for b in body if b in base.atoms)
            outside = tuple(b for b in body if b not in base.atoms)
            out.append(_GroundInstance(head, inside, outside))
    return out


def _step(
    instances: Sequence[_GroundInstance], atoms: frozenset[Atom], policy: Policy
) -> frozenset[Atom]:
    produced = set()
    for inst in instances:
        if inst.out_of_base and policy is Policy.PESSIMISTIC:
            continue
        if all(b in atoms for b in inst.in_base):
            produced.add(inst.head)
    return frozenset(produced)


def tp_step(
    program: Program, interp: Interpretation, policy: Policy = Policy.PESSIMISTIC
) -> Interpretation:
    """One application of the bounded one-step consequence operator."""
    instances = _ground_program(program, interp.base)
    return Interpretation(_step(instances, interp.atoms, policy), interp.base)


def _fixpoint(
    instances: Sequence[_GroundInstance],
    base: HerbrandBase,
    start: frozenset[Atom],
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
    if start and start != base.atoms:
        raise ValueError("a fixpoint starts from the empty set or the whole base")
    watchers: dict[Atom, list[int]] = {}
    for k, inst in enumerate(instances):
        for b in inst.in_base:
            watchers.setdefault(b, []).append(k)
    # Under the pessimistic policy an instance with an out-of-base body atom
    # never fires.
    mute = [policy is Policy.PESSIMISTIC and bool(inst.out_of_base) for inst in instances]
    current = set(start)
    rounds = 0
    converged = False
    if not start:
        # changed: atoms the next application adds.
        missing = [len(inst.in_base) for inst in instances]
        changed = {
            inst.head for inst, m, muted in zip(instances, missing, mute) if not m and not muted
        }
        while rounds < max_iters:
            rounds += 1
            if not changed:
                converged = True
                break
            current |= changed
            fresh, changed = changed, set()
            for atom in fresh:
                for k in watchers.get(atom, ()):
                    missing[k] -= 1
                    if not missing[k] and not mute[k] and instances[k].head not in current:
                        changed.add(instances[k].head)
    else:
        # changed: atoms the next application removes.
        alive = [not muted for muted in mute]
        support = Counter(inst.head for inst, live in zip(instances, alive) if live)
        changed = {atom for atom in current if not support[atom]}
        while rounds < max_iters:
            rounds += 1
            if not changed:
                converged = True
                break
            current -= changed
            gone, changed = changed, set()
            for atom in gone:
                for k in watchers.get(atom, ()):
                    if alive[k]:
                        alive[k] = False
                        head = instances[k].head
                        support[head] -= 1
                        if not support[head]:
                            changed.add(head)
    return Interpretation(
        frozenset(current), base, converged,
        base_atoms=len(base.atoms), instances=len(instances), rounds=rounds,
    )


def lfp(
    program: Program,
    depth: int,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
    extra_constants: Iterable[str] = (),
) -> Interpretation:
    """Least fixed point of the bounded operator, iterated up from empty."""
    base = herbrand_base(program.signature, depth, extra_constants)
    instances = _ground_program(program, base)
    return _fixpoint(instances, base, frozenset(), Policy.PESSIMISTIC, max_iters)


def gfp_bounded(
    program: Program,
    depth: int,
    policy: Policy = Policy.PESSIMISTIC,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
    extra_constants: Iterable[str] = (),
) -> Interpretation:
    """Greatest fixed point of the bounded operator, iterated down from full."""
    base = herbrand_base(program.signature, depth, extra_constants)
    instances = _ground_program(program, base)
    return _fixpoint(instances, base, base.atoms, policy, max_iters)


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


@dataclass(frozen=True)
class Certificate:
    """A support set S with target in S and S <= T_P(S) under the bounded
    optimistic operator.  `frontier` lists the out-of-base body atoms the
    support leans on; when it is empty the certificate is a post-fixed point
    of the true operator and hence a sound witness of greatest-model
    membership."""

    target: Atom
    support: frozenset[Atom]
    frontier: frozenset[Atom]
    depth: int
    base_atoms: int = field(default=0, compare=False)
    instances: int = field(default=0, compare=False)
    rounds: int = field(default=0, compare=False)  # of the optimistic gfp

    @property
    def exact(self) -> bool:
        return not self.frontier

    def sorted_support(self) -> tuple[Atom, ...]:
        return tuple(sorted(self.support, key=atom_sort_key))

    def sorted_frontier(self) -> tuple[Atom, ...]:
        return tuple(sorted(self.frontier, key=atom_sort_key))


class CertificateInvariantError(Exception):
    """Internal re-validation of a certificate failed (an oracle bug)."""


def certify_gfp(
    program: Program,
    target: Atom,
    search_depth: int,
    *,
    extra_constants: Iterable[str] = (),
) -> Optional[Certificate]:
    """Search for a finite support set witnessing membership of `target`.

    The signature is extended with the target's own symbols, so targets may
    mention constants that the program never writes down.  Returns None when
    no support exists within the bound; that is not a proof of absence.
    """
    if not is_ground_atom(target):
        raise ValueError("certificate targets must be ground atoms")
    sig = program.signature.merged(signature_of_atom(target))
    base = herbrand_base(sig, search_depth, extra_constants)
    if target not in base.atoms:
        return None
    instances = _ground_program(program, base)
    model = _fixpoint(instances, base, base.atoms, Policy.OPTIMISTIC, DEFAULT_MAX_ITERS)
    if target not in model.atoms:
        return None
    by_head: dict[Atom, list[_GroundInstance]] = {}
    for inst in instances:
        by_head.setdefault(inst.head, []).append(inst)
    support: set[Atom] = set()
    frontier: set[Atom] = set()
    queue = deque([target])
    while queue:
        atom = queue.popleft()
        if atom in support:
            continue
        support.add(atom)
        chosen = None
        for inst in by_head.get(atom, ()):
            if all(b in model.atoms for b in inst.in_base):
                chosen = inst
                break
        if chosen is None:  # cannot happen for members of the optimistic gfp
            raise CertificateInvariantError(f"no supporting instance for {atom}")
        frontier.update(chosen.out_of_base)
        for b in chosen.in_base:
            if b not in support:
                queue.append(b)
    cert = Certificate(
        target, frozenset(support), frozenset(frontier), search_depth,
        base_atoms=model.base_atoms, instances=model.instances, rounds=model.rounds,
    )
    revalidated = _step(instances, cert.support, Policy.OPTIMISTIC)
    if not cert.support <= revalidated:
        raise CertificateInvariantError("support is not a post-fixed point")
    return cert


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------


class Verdict(Enum):
    VALID = "VALID"
    INVALID = "INVALID"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ValidityVerdict:
    status: Verdict
    counterexample: Optional[Subst]
    semantics: Semantics
    depth: int
    note: str = ""

    @property
    def is_valid(self) -> bool:
        return self.status is Verdict.VALID


def _groundings(names: Sequence[str], universe: Sequence[Term]):
    if not names:
        yield {}
        return
    if not universe:
        return
    for combo in product(universe, repeat=len(names)):
        yield dict(zip(names, combo))


def valid(
    program: Program,
    formula: HornClause,
    semantics: Semantics,
    depth: int,
    *,
    extra_constants: Iterable[str] = (),
) -> ValidityVerdict:
    """Validity of an atomic or Horn formula in the bounded model.

    Membership is decided three-valued so that verdicts are sound relative
    to the true (unbounded) models: an atom is surely in when the
    pessimistic computation contains it (pessimistic derivations and
    post-fixed points are genuine), surely out when even the optimistic
    over-approximation lacks it, and boundary-uncertain otherwise.  INVALID
    is reported only for a definitive counterexample (bodies surely in,
    head surely out); groundings the bound cannot decide yield UNKNOWN, as
    do formulas with no grounding inside the base.
    """
    sig = program.signature.merged(signature_of_clause(formula))
    base = herbrand_base(sig, depth, extra_constants)
    instances = _ground_program(program, base)
    start = frozenset() if semantics is Semantics.IND else base.atoms
    sure = _fixpoint(instances, base, start, Policy.PESSIMISTIC, DEFAULT_MAX_ITERS)
    maybe = _fixpoint(instances, base, start, Policy.OPTIMISTIC, DEFAULT_MAX_ITERS)
    names = clause_vars(formula)
    checked = 0
    undecided = False
    for s in _groundings(names, base.universe):
        head = apply_atom(s, formula.head)
        body = [apply_atom(s, b) for b in formula.body]
        if head not in base.atoms or any(b not in base.atoms for b in body):
            continue
        checked += 1
        if any(b not in maybe.atoms for b in body):
            continue  # some premise surely fails: vacuously satisfied
        if head in sure.atoms:
            continue
        if all(b in sure.atoms for b in body) and head not in maybe.atoms:
            return ValidityVerdict(
                Verdict.INVALID, s, semantics, depth,
                note=f"instance {head} fails at depth {depth}",
            )
        undecided = True
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


@dataclass(frozen=True)
class ModelComparison:
    preserved: bool
    semantics: Semantics
    depth: int
    removed: tuple[Atom, ...]  # in the base program's model only
    added: tuple[Atom, ...]  # in the extended program's model only
    certificates: tuple[tuple[Atom, bool, bool], ...] = ()

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
    """Compare the bounded model of P against P extended with `formula`."""
    extended = program.extended(formula)
    base = herbrand_base(extended.signature, depth, extra_constants)
    if semantics is Semantics.IND:
        start, policy = frozenset(), Policy.PESSIMISTIC
    else:
        start, policy = base.atoms, Policy.OPTIMISTIC
    before = _fixpoint(_ground_program(program, base), base, start, policy, DEFAULT_MAX_ITERS)
    after = _fixpoint(_ground_program(extended, base), base, start, policy, DEFAULT_MAX_ITERS)
    removed = tuple(sorted(before.atoms - after.atoms, key=atom_sort_key))
    added = tuple(sorted(after.atoms - before.atoms, key=atom_sort_key))
    certs: list[tuple[Atom, bool, bool]] = []
    if semantics is Semantics.COIND:
        for atom in removed + added:
            in_before = certify_gfp(program, atom, depth, extra_constants=extra_constants)
            in_after = certify_gfp(extended, atom, depth, extra_constants=extra_constants)
            certs.append((atom, in_before is not None, in_after is not None))
    return ModelComparison(
        preserved=not removed and not added,
        semantics=semantics,
        depth=depth,
        removed=removed,
        added=added,
        certificates=tuple(certs),
    )
