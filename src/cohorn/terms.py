"""First-order term algebra: terms, atoms, Horn clauses, programs, substitutions.

Resolution in this engine is matching-only (the goal is never instantiated),
so substitutions here are plain dicts from variable names to terms and the
only full unification lives in `unifiable`, which backs the load-time
non-overlap check on axiom heads.

Lexical convention: identifiers starting with an uppercase letter are
variables when they occur in term position.  Predicate names may use any
case (the classic counterexample programs use A, B, D as predicates).

Every class here is an immutable `Value` and every operation is a pure
function, so values can be shared freely across threads.  App fills its
hash, sort-key and rendered-string caches on first use, Atom its hash
cache; each write stores the value any thread would compute, so the sharing
stays safe.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice, product
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class SignatureError(Exception):
    """A functor or predicate is used with two different arities."""


class ExistentialVariableError(Exception):
    """A clause body mentions a variable that its head does not bind."""

    def __init__(self, clause: "HornClause", variables: Sequence[str]):
        self.clause = clause
        self.variables = tuple(variables)
        names = ", ".join(self.variables)
        super().__init__(
            f"existential variable(s) {names} in clause: {format_clause(clause)}"
        )


class OverlapError(Exception):
    """Two axiom heads unify, violating the non-overlap restriction."""

    def __init__(self, index_a: int, index_b: int, a: "HornClause", b: "HornClause"):
        self.index_a = index_a
        self.index_b = index_b
        self.clause_a = a
        self.clause_b = b
        super().__init__(
            f"axiom heads overlap: clause {index_a + 1} ({format_clause(a)}) "
            f"unifies with clause {index_b + 1} ({format_clause(b)})"
        )


class EmptyUniverseError(Exception):
    """The signature has no constants, so there are no ground terms."""


# The oracle's budget and errors are defined here, in a module that every
# command loads, so that the CLI names them without loading `herbrand`,
# which re-exports them.  The budget is far above every base the corpus, the
# tests and the benchmark build (at most 1,535 atoms), and small enough that
# a base this wide is grounded and solved within tens of megabytes.
DEFAULT_MAX_ATOMS = 100_000


class BaseTooLargeError(Exception):
    """The bounded base would hold more atoms, or universe terms, than the
    budget allows."""


class CertificateInvariantError(Exception):
    """Internal re-validation of a certificate failed (an oracle bug)."""


def is_variable_name(name: str) -> bool:
    return name[:1].isupper()


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------

_setattr = object.__setattr__


class Value:
    """The base of the package's immutable records.

    A subclass lists its slots in `__slots__`: first its fields, then its
    caches, whose names start with `_`.  `__init__` takes the fields,
    positionally or by keyword, with defaults from `_defaults`, and sets the
    caches to None; a cache is filled later through `object.__setattr__`,
    by hand or by a `_lazy` property.
    The first `compared` fields (all by default) make up `==` and the hash,
    and the first `shown` fields (all by default) the `repr`, which reads as
    a dataclass's.  Pickles and copies call the class on the fields, so they
    carry no cache (a `str` hash differs from process to process).
    Assigning or deleting an attribute raises AttributeError.  Unlike
    `@dataclass`, nothing is compiled per class."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, compared: Optional[int] = None, shown: Optional[int] = None):
        fields = tuple(n for n in cls.__slots__ if n[0] != "_")
        if cls.__slots__[:len(fields)] != fields:
            raise TypeError(f"{cls.__name__}: the fields must precede the caches")
        cls._fields = fields
        cls._nones = (None,) * (len(cls.__slots__) - len(fields))  # the caches' values
        # The slots' own setters, which skip the frozen `__setattr__`.
        cls._setters = tuple(vars(cls)[n].__set__ for n in cls.__slots__)
        cls._key = attrgetter(*fields[:compared])
        cls._shown = fields[:shown]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        for set_slot, value in zip(self._setters, args + self._nones):
            set_slot(self, value)

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call that names fields or leaves some out."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() is missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated {', '.join(kwargs)}")
        return tuple(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _lazy(build):
    """A read-only property that runs `build` on first use and keeps the
    value in the cache slot named after it with a leading `_`."""
    slot = "_" + build.__name__

    def get(self):
        value = getattr(self, slot)
        if value is None:
            value = build(self)
            _setattr(self, slot, value)
        return value

    return property(get, doc=build.__doc__)


# ---------------------------------------------------------------------------
# Terms and atoms
# ---------------------------------------------------------------------------

# Terms, atoms and clauses are built by the thousand while parsing and
# searching, so each sets its slots in an `__init__` of its own.  App and
# Atom cache their hash on first use: set lookups hash ground atoms over and
# over, and would re-hash the whole tree each time.  App also caches its
# rendered string, because a subterm shared by many atoms is printed once
# per atom.


class Var(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _setattr(self, "name", name)

    def __str__(self) -> str:
        return self.name


class App(Value):
    __slots__ = ("functor", "args", "_hash", "_sort_key", "_str")  # term_sort_key fills _sort_key

    def __init__(self, functor: str, args: tuple["Term", ...] = ()):
        _setattr(self, "functor", functor)
        _setattr(self, "args", args)
        _setattr(self, "_hash", None)
        _setattr(self, "_sort_key", None)
        _setattr(self, "_str", None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.functor, self.args))
            _setattr(self, "_hash", h)
        return h

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = self.functor
            if self.args:
                s = f"{s}({','.join(str(a) for a in self.args)})"
            _setattr(self, "_str", s)
        return s


Term = Var | App


class Atom(Value):
    __slots__ = ("predicate", "args", "_hash")

    def __init__(self, predicate: str, args: tuple[Term, ...] = ()):
        _setattr(self, "predicate", predicate)
        _setattr(self, "args", args)
        _setattr(self, "_hash", None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.predicate, self.args))
            _setattr(self, "_hash", h)
        return h

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(map(str, self.args))})"


class HornClause(Value):
    """body => head; an atomic formula is a clause with an empty body."""

    __slots__ = ("body", "head")

    def __init__(self, body: tuple[Atom, ...], head: Atom):
        _setattr(self, "body", body)
        _setattr(self, "head", head)

    @property
    def is_atomic(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        return format_formula(self)


def fact(head: Atom) -> HornClause:
    return HornClause((), head)


def format_clause(clause: HornClause) -> str:
    """Program-line form: the `=>` is printed even for facts."""
    body = ", ".join(str(b) for b in clause.body)
    return f"{body} => {clause.head}" if body else f"=> {clause.head}"


def format_formula(clause: HornClause, unicode: bool = False) -> str:
    """Query form: an atomic formula prints as a bare atom."""
    if clause.is_atomic:
        return str(clause.head)
    if unicode:
        return ", ".join(str(b) for b in clause.body) + f" ⇒ {clause.head}"
    return format_clause(clause)


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + max((term_depth(a) for a in t.args), default=0)


def term_vars(t: Term, out: Optional[list[str]] = None) -> list[str]:
    """Variable names in first-occurrence order."""
    if out is None:
        out = []
    if isinstance(t, Var):
        if t.name not in out:
            out.append(t.name)
    else:
        for a in t.args:
            term_vars(a, out)
    return out


def atom_vars(a: Atom, out: Optional[list[str]] = None) -> list[str]:
    if out is None:
        out = []
    for t in a.args:
        term_vars(t, out)
    return out


def clause_vars(c: HornClause) -> list[str]:
    out = atom_vars(c.head)
    for b in c.body:
        atom_vars(b, out)
    return out


def is_ground_term(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground_term(a) for a in t.args)


def is_ground_atom(a: Atom) -> bool:
    return all(is_ground_term(t) for t in a.args)


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def term_sort_key(t: Term):
    """Deterministic order: depth first, then name, then arguments."""
    if isinstance(t, Var):
        return (1, t.name, ())
    key = t._sort_key
    if key is None:
        args = tuple(term_sort_key(a) for a in t.args)
        key = (1 + max((k[0] for k in args), default=0), t.functor, args)
        _setattr(t, "_sort_key", key)
    return key


def atom_sort_key(a: Atom):
    return (a.predicate, tuple(term_sort_key(t) for t in a.args))


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

Subst = dict  # variable name -> Term


def apply_term(s: Mapping[str, Term], t: Term) -> Term:
    if isinstance(t, Var):
        return s.get(t.name, t)
    if not t.args:
        return t
    return App(t.functor, tuple(apply_term(s, a) for a in t.args))


def apply_atom(s: Mapping[str, Term], a: Atom) -> Atom:
    if not a.args:
        return a
    return Atom(a.predicate, tuple(apply_term(s, t) for t in a.args))


def apply_clause(s: Mapping[str, Term], c: HornClause) -> HornClause:
    return HornClause(tuple(apply_atom(s, b) for b in c.body), apply_atom(s, c.head))


def compose(s: Mapping[str, Term], t: Mapping[str, Term]) -> Subst:
    """compose(s, t) applied to x equals s applied to (t applied to x)."""
    out: Subst = {}
    for v, term in t.items():
        mapped = apply_term(s, term)
        if not (isinstance(mapped, Var) and mapped.name == v):
            out[v] = mapped
    for v, term in s.items():
        if v not in t and not (isinstance(term, Var) and term.name == v):
            out[v] = term
    return out


def format_subst(s: Mapping[str, Term]) -> str:
    inner = ", ".join(f"{v} -> {s[v]}" for v in sorted(s))
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Matching and unification
# ---------------------------------------------------------------------------


def _match_term(pattern: Term, target: Term, bindings: Subst) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in bindings:
            return bindings[pattern.name] == target
        bindings[pattern.name] = target
        return True
    if isinstance(target, Var):
        # Matching is one-directional: the target is never instantiated.
        return False
    if pattern.functor != target.functor:
        return False
    if len(pattern.args) != len(target.args):
        raise SignatureError(
            f"functor {pattern.functor} used with arities "
            f"{len(pattern.args)} and {len(target.args)}"
        )
    return all(_match_term(p, t, bindings) for p, t in zip(pattern.args, target.args))


def match(pattern: Atom, target: Atom) -> Optional[Subst]:
    """Matcher s with s(pattern) == target, or None.

    Only pattern variables are bound; failure is a normal result.  An arity
    clash under a shared predicate or functor raises SignatureError.
    """
    if pattern.predicate != target.predicate:
        return None
    if len(pattern.args) != len(target.args):
        raise SignatureError(
            f"predicate {pattern.predicate} used with arities "
            f"{len(pattern.args)} and {len(target.args)}"
        )
    bindings: Subst = {}
    for p, t in zip(pattern.args, target.args):
        if not _match_term(p, t, bindings):
            return None
    return {v: t for v, t in bindings.items() if not (isinstance(t, Var) and t.name == v)}


def _walk(t: Term, s: Subst) -> Term:
    while isinstance(t, Var) and t.name in s:
        t = s[t.name]
    return t


def _occurs(name: str, t: Term, s: Subst) -> bool:
    t = _walk(t, s)
    if isinstance(t, Var):
        return t.name == name
    return any(_occurs(name, a, s) for a in t.args)


def _unify_term(a: Term, b: Term, s: Subst) -> bool:
    a = _walk(a, s)
    b = _walk(b, s)
    if a == b:
        return True
    if isinstance(a, Var):
        if _occurs(a.name, b, s):
            return False
        s[a.name] = b
        return True
    if isinstance(b, Var):
        return _unify_term(b, a, s)
    if a.functor != b.functor:
        return False
    if len(a.args) != len(b.args):
        raise SignatureError(
            f"functor {a.functor} used with arities {len(a.args)} and {len(b.args)}"
        )
    return all(_unify_term(x, y, s) for x, y in zip(a.args, b.args))


def unifiable(a: Atom, b: Atom) -> bool:
    """First-order unifiability with occurs check (load-time overlap test).

    Callers are expected to rename the atoms apart first.
    """
    if a.predicate != b.predicate:
        return False
    if len(a.args) != len(b.args):
        raise SignatureError(
            f"predicate {a.predicate} used with arities {len(a.args)} and {len(b.args)}"
        )
    s: Subst = {}
    return all(_unify_term(x, y, s) for x, y in zip(a.args, b.args))


def rename_term(t: Term, suffix: str) -> Term:
    if isinstance(t, Var):
        return Var(t.name + suffix)
    return App(t.functor, tuple(rename_term(a, suffix) for a in t.args))


def rename_atom(a: Atom, suffix: str) -> Atom:
    return Atom(a.predicate, tuple(rename_term(t, suffix) for t in a.args))


def head_key(atom: Atom, position: int = 0) -> tuple[str, Optional[str]]:
    """(predicate, functor at argument `position`); None there for a
    variable or no such argument.  Atoms of one predicate and arity with two
    different functors at one argument position neither match nor unify."""
    if position >= len(atom.args) or isinstance(atom.args[position], Var):
        return atom.predicate, None
    return atom.predicate, atom.args[position].functor


def _first_overlap(heads: Sequence[Atom]) -> Optional[tuple[int, int]]:
    """The least pair (i, j), i < j, of unifiable heads, or None.

    The heads must agree on every arity.  Each predicate is keyed on the
    argument position where the fewest of its heads have a variable (the
    lowest such position on a tie).  Head i is tried against the later heads
    of its predicate that may unify with it by that key: all of them when
    head i has a variable there, else those with its functor or a variable
    there.  So the cost is near-linear when, at some argument position, the
    heads have distinct principal functors.
    """
    by_pred: dict[str, list[int]] = {}
    for k, h in enumerate(heads):
        by_pred.setdefault(h.predicate, []).append(k)
    position: dict[str, int] = {}
    for pred, ks in by_pred.items():
        position[pred] = min(
            range(len(heads[ks[0]].args)),
            key=lambda p: sum(isinstance(heads[k].args[p], Var) for k in ks),
            default=0,
        )
    keys = [head_key(h, position[h.predicate]) for h in heads]
    by_key: dict[tuple[str, Optional[str]], list[int]] = {}
    for k, key in enumerate(keys):
        by_key.setdefault(key, []).append(k)
    renamed: dict[int, Atom] = {}

    def apart(k: int) -> Atom:
        # One renaming per head; the suffixes `_k` keep any two heads apart.
        if k not in renamed:
            renamed[k] = rename_atom(heads[k], f"_{k}")
        return renamed[k]

    for i, (pred, functor) in enumerate(keys):
        if functor is None:
            later = by_pred[pred]
        else:
            later = sorted(by_key[pred, functor] + by_key.get((pred, None), []))
        for j in later[bisect_right(later, i):]:
            if unifiable(apart(i), apart(j)):
                return i, j
    return None


# ---------------------------------------------------------------------------
# Signatures and programs
# ---------------------------------------------------------------------------


class Signature(Value):
    __slots__ = ("functions", "predicates")  # Mapping[str, int] each

    def constants(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, a in self.functions.items() if a == 0))

    def merged(self, other: "Signature") -> "Signature":
        funcs = dict(self.functions)
        preds = dict(self.predicates)
        for n, a in other.functions.items():
            if funcs.setdefault(n, a) != a:
                raise SignatureError(f"functor {n} used with arities {funcs[n]} and {a}")
        for n, a in other.predicates.items():
            if preds.setdefault(n, a) != a:
                raise SignatureError(f"predicate {n} used with arities {preds[n]} and {a}")
        return Signature(funcs, preds)

    def with_constants(self, names: Iterable[str]) -> "Signature":
        funcs = dict(self.functions)
        for n in names:
            if funcs.setdefault(n, 0) != 0:
                raise SignatureError(f"functor {n} used with arities {funcs[n]} and 0")
        return Signature(funcs, self.predicates)


def _collect_term(t: Term, funcs: dict[str, int]) -> None:
    if isinstance(t, Var):
        return
    if funcs.setdefault(t.functor, len(t.args)) != len(t.args):
        raise SignatureError(
            f"functor {t.functor} used with arities {funcs[t.functor]} and {len(t.args)}"
        )
    for a in t.args:
        _collect_term(a, funcs)


def _collect_atom(a: Atom, funcs: dict[str, int], preds: dict[str, int]) -> None:
    if preds.setdefault(a.predicate, len(a.args)) != len(a.args):
        raise SignatureError(
            f"predicate {a.predicate} used with arities {preds[a.predicate]} and {len(a.args)}"
        )
    for t in a.args:
        _collect_term(t, funcs)


def signature_of_atom(a: Atom) -> Signature:
    funcs: dict[str, int] = {}
    preds: dict[str, int] = {}
    _collect_atom(a, funcs, preds)
    return Signature(funcs, preds)


def signature_of_clause(c: HornClause) -> Signature:
    funcs: dict[str, int] = {}
    preds: dict[str, int] = {}
    _collect_atom(c.head, funcs, preds)
    for b in c.body:
        _collect_atom(b, funcs, preds)
    return Signature(funcs, preds)


class Program(Value):
    """A validated clause list.

    Clauses up to `axiom_count` are axioms and must satisfy the type-class
    restrictions: pairwise non-unifiable heads and no existential variables.
    Clauses beyond `axiom_count` are transformation-added (lemma) clauses;
    they are exempt from the overlap restriction but still may not have
    existential variables.
    """

    __slots__ = ("clauses", "axiom_count", "_signature")

    def __init__(self, clauses: tuple[HornClause, ...], axiom_count: int = -1):
        super().__init__(clauses, len(clauses) if axiom_count < 0 else axiom_count)
        funcs: dict[str, int] = {}
        preds: dict[str, int] = {}
        for c in clauses:
            _collect_atom(c.head, funcs, preds)
            for b in c.body:
                _collect_atom(b, funcs, preds)
        _setattr(self, "_signature", Signature(funcs, preds))
        for c in clauses:
            head_vars = atom_vars(c.head)
            loose = [v for b in c.body for v in atom_vars(b) if v not in head_vars]
            if loose:
                seen: list[str] = []
                for v in loose:
                    if v not in seen:
                        seen.append(v)
                raise ExistentialVariableError(c, seen)
        axioms = self.clauses[: self.axiom_count]
        pair = _first_overlap([c.head for c in axioms])
        if pair is not None:
            i, j = pair
            raise OverlapError(i, j, axioms[i], axioms[j])

    @property
    def signature(self) -> Signature:
        return self._signature

    def extended(self, *clauses: HornClause) -> "Program":
        """Add clauses exempt from the overlap restriction."""
        return Program(self.clauses + tuple(clauses), self.axiom_count)


# ---------------------------------------------------------------------------
# Ground enumeration
# ---------------------------------------------------------------------------


def enumerate_ground_terms(
    sig: Signature, depth: int, *, allow_empty: bool = False
) -> list[Term]:
    """All ground terms of depth <= depth, ordered by depth, functor, args.

    The terms of depth k are built from those of depth k-1: each functor
    takes the argument tuples of `product(shallower, repeat=arity)` with at
    least one argument of depth k-1, in that product's order, so each layer
    costs its own size."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    funcs = sorted(sig.functions.items())
    layer: list[Term] = [App(n) for n, a in funcs if a == 0]
    if not layer:
        if allow_empty:
            return []
        raise EmptyUniverseError("signature has no constants; the Herbrand universe is empty")
    result: list[Term] = list(layer)
    for _ in range(2, depth + 1):
        start = len(result) - len(layer)
        layer = [
            App(name, args)
            for name, arity in funcs
            if arity
            for args in _args_with_fresh(result, start, arity)
        ]
        if not layer:
            break
        result.extend(layer)
    return result


def _args_with_fresh(terms: list[Term], start: int, arity: int) -> list[tuple[Term, ...]]:
    """The tuples of `product(terms, repeat=arity)` that hold at least one
    term of `terms[start:]`, in that product's order: those led by an
    earlier term and followed by such a tuple, then those led by a term of
    `terms[start:]`, which come later in that order."""
    fresh = terms[start:]
    if arity == 1:
        return [(t,) for t in fresh]
    tails = _args_with_fresh(terms, start, arity - 1)
    return [(t, *tail) for t in islice(terms, start) for tail in tails] + [
        (t, *tail) for t in fresh for tail in product(terms, repeat=arity - 1)
    ]


def ground_instances(clause: HornClause, universe: Sequence[Term]) -> list[HornClause]:
    """All instantiations of the clause's variables over the universe.

    Brute force: the reference that the oracle's head-driven grounding is
    tested against."""
    names = clause_vars(clause)
    if not names:
        return [clause]
    out = []
    for combo in product(universe, repeat=len(names)):
        s = dict(zip(names, combo))
        out.append(apply_clause(s, clause))
    return out
