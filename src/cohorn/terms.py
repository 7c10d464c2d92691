"""First-order term algebra: terms, atoms, Horn clauses, programs, substitutions.

Resolution in this engine is matching-only (the goal is never instantiated),
so substitutions here are plain dicts from variable names to terms and the
only full unification lives in `unifiable`, which backs the load-time
non-overlap check on axiom heads.

Lexical convention: identifiers starting with an uppercase letter are
variables when they occur in term position.  Predicate names may use any
case (the classic counterexample programs use A, B, D as predicates).

Every class here is an immutable `Value` and every operation is a pure
function, so values can be shared freely across threads.  A cache slot is
unset until first use: App then fills its hash and rendered-string caches,
Atom its hash cache; each write stores the value any thread would compute,
so the sharing stays safe.
"""

from __future__ import annotations

from bisect import bisect_right
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


# The oracle's budget and errors are defined here, in a module that every
# command loads, so that the CLI names them without loading `herbrand`,
# which re-exports them.  The budget is far above every base the corpus, the
# tests and the benchmark build (at most 1,535 atoms), and small enough that
# a base this wide is grounded and solved within tens of megabytes.
DEFAULT_MAX_ATOMS = 100_000


class BaseTooLargeError(Exception):
    """The bounded base would hold, or the atoms a ground atom reaches do
    hold, more atoms or terms than the budget allows."""


class CertificateInvariantError(Exception):
    """Internal re-validation of a certificate failed (an oracle bug)."""


def is_variable_name(name: str) -> bool:
    return name[:1].isupper()


def is_constant_name(name: str) -> bool:
    """Whether `name` reads as a term constant under the program grammar: a
    name token (a letter or `_`, then letters, digits, `_` and `'`) that does
    not start with an uppercase letter."""
    head = name[:1]
    return (head.isalpha() or head == "_") and not is_variable_name(name) and all(
        c.isalnum() or c in "_'" for c in name
    )


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------

_setattr = object.__setattr__


class Value:
    """The base of the package's immutable records.

    A subclass lists its slots in `__slots__`: first its fields, then its
    caches, whose names start with `_`.  `__init__` takes the fields,
    positionally or by keyword, with defaults from `_defaults`, and sets
    only them: a cache stays unset, so reading it raises AttributeError,
    until it is filled through `object.__setattr__`, by hand or by a
    `_lazy` property.
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
        # The fields' own setters, which skip the frozen `__setattr__`.
        cls._setters = tuple(vars(cls)[n].__set__ for n in fields)
        cls._key = attrgetter(*fields[:compared])
        cls._shown = fields[:shown]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        for set_slot, value in zip(self._setters, args):
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
        try:
            return getattr(self, slot)
        except AttributeError:
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
    __slots__ = ("functor", "args", "_hash", "_str")

    def __init__(self, functor: str, args: tuple["Term", ...] = ()):
        _setattr(self, "functor", functor)
        _setattr(self, "args", args)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.functor, self.args))
            _setattr(self, "_hash", h)
            return h

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
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

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
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


def term_vars(t: Term, out: Optional[list[str]] = None) -> list[str]:
    """Variable names in first-occurrence order."""
    return atom_vars(Atom("", (t,)), out)


def atom_vars(a: Atom, out: Optional[list[str]] = None) -> list[str]:
    """Append to `out` the variable names of `a` it lacks, in first-occurrence order."""
    out = [] if out is None else out
    _collect_atom(a, {}, {}, out)
    return out


def clause_vars(c: HornClause) -> list[str]:
    out = atom_vars(c.head)
    for b in c.body:
        atom_vars(b, out)
    return out


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


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
    if not s or not a.args:
        return a
    return Atom(a.predicate, tuple(apply_term(s, t) for t in a.args))


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
    clash under a shared predicate or functor raises SignatureError.  An
    atom matches itself with the empty matcher, read off without a walk.
    """
    if pattern is target:
        return {}
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


def head_key(atom: Atom, position: int = 0) -> tuple[str, Optional[str]]:
    """(predicate, functor at argument `position`); None there for a
    variable or no such argument.  Atoms of one predicate and arity with two
    different functors at one argument position neither match nor unify."""
    if position >= len(atom.args) or isinstance(atom.args[position], Var):
        return atom.predicate, None
    return atom.predicate, atom.args[position].functor


def _first_overlap(
    heads: Sequence[Atom], keys: Sequence[tuple[str, Optional[str]]]
) -> Optional[tuple[int, int]]:
    """The least pair (i, j), i < j, of unifiable heads, or None.

    `keys` holds each head's `head_key` at argument 0.  The heads must agree
    on every arity.  Each predicate is keyed on the argument position where
    the fewest of its heads have a variable (the lowest such position on a
    tie).  Head i is tried against the later heads of its predicate that
    may unify with it by that key: all of them when head i has a variable
    there, else those with its functor or a variable there.  So the cost is
    near-linear when, at some argument position, the heads have distinct
    principal functors.
    """
    by_pred: dict[str, list[int]] = {}
    for k, h in enumerate(heads):
        by_pred.setdefault(h.predicate, []).append(k)
    position: dict[str, int] = {}
    for pred, ks in by_pred.items():
        position[pred] = min(
            range(len(heads[ks[0]].args)),
            key=lambda p: sum([isinstance(heads[k].args[p], Var) for k in ks]),
            default=0,
        )
    keys = [head_key(h, p) if (p := position[h.predicate]) else key for h, key in zip(heads, keys)]
    by_key: dict[tuple[str, Optional[str]], list[int]] = {}
    for k, key in enumerate(keys):
        by_key.setdefault(key, []).append(k)
    renamed: dict[int, Atom] = {}

    def apart(k: int) -> Atom:
        # One renaming per head; the suffixes `_k` keep any two heads apart.
        if k not in renamed:
            h = heads[k]
            renamed[k] = apply_atom({v: Var(f"{v}_{k}") for v in atom_vars(h)}, h)
        return renamed[k]

    for i, (pred, functor) in enumerate(keys):
        if functor is None:
            later = by_pred[pred]
        elif (pred, None) in by_key:
            later = sorted(by_key[pred, functor] + by_key[pred, None])
        else:
            later = by_key[pred, functor]
            if len(later) == 1:
                continue  # head i alone has its functor, and no head a variable
        for j in later[bisect_right(later, i):]:
            if unifiable(apart(i), apart(j)):
                return i, j
    return None


# ---------------------------------------------------------------------------
# Signatures and programs
# ---------------------------------------------------------------------------


class Signature(Value):
    __slots__ = ("functions", "predicates")  # Mapping[str, int] each

    def merged(self, other: "Signature") -> "Signature":
        funcs = dict(self.functions)
        preds = dict(self.predicates)
        for n, a in other.functions.items():
            if funcs.setdefault(n, a) != a:
                raise _clash("functor", n, funcs[n], a)
        for n, a in other.predicates.items():
            if preds.setdefault(n, a) != a:
                raise _clash("predicate", n, preds[n], a)
        return Signature(funcs, preds)

    def with_constants(self, names: Iterable[str]) -> "Signature":
        funcs = dict(self.functions)
        for n in names:
            if not is_constant_name(n):
                raise SignatureError(f"extra constant {n!r} is not a term constant")
            if funcs.setdefault(n, 0) != 0:
                raise _clash("functor", n, funcs[n], 0)
        return Signature(funcs, self.predicates)


def _clash(kind: str, name: str, first: int, second: int) -> SignatureError:
    return SignatureError(f"{kind} {name} used with arities {first} and {second}")


def _collect_atom(a: Atom, funcs: dict[str, int], preds: dict[str, int], names: list[str]) -> None:
    """Add the predicate of `a` to `preds`, its functors to `funcs` and the
    variable names `names` lacks to `names`, in pre-order, raising on the
    first arity clash.  Only the arguments of compound terms are walked on
    a stack, so a load stays as fast as recursion."""
    if preds.setdefault(a.predicate, len(a.args)) != len(a.args):
        raise _clash("predicate", a.predicate, preds[a.predicate], len(a.args))
    for t in a.args:
        if isinstance(t, Var):
            if t.name not in names:
                names.append(t.name)
            continue
        if funcs.setdefault(t.functor, len(t.args)) != len(t.args):
            raise _clash("functor", t.functor, funcs[t.functor], len(t.args))
        stack = [iter(t.args)]
        while stack:
            for t in stack[-1]:
                if isinstance(t, Var):
                    if t.name not in names:
                        names.append(t.name)
                    continue
                if funcs.setdefault(t.functor, len(t.args)) != len(t.args):
                    raise _clash("functor", t.functor, funcs[t.functor], len(t.args))
                if t.args:
                    stack.append(iter(t.args))
                    break
            else:
                stack.pop()


def signature_of(atoms: Iterable[Atom]) -> Signature:
    """The functors and predicates of `atoms` with their arities; a
    SignatureError names the first clash met, reading `atoms` in order."""
    funcs: dict[str, int] = {}
    preds: dict[str, int] = {}
    for a in atoms:
        _collect_atom(a, funcs, preds, [])
    return Signature(funcs, preds)


class Program(Value):
    """A validated clause list.

    Clauses up to `axiom_count` are axioms and must satisfy the type-class
    restrictions: pairwise non-unifiable heads and no existential variables.
    Clauses beyond `axiom_count` are transformation-added (lemma) clauses;
    they are exempt from the overlap restriction but still may not have
    existential variables.
    """

    __slots__ = ("clauses", "axiom_count", "_signature", "_head_keys")

    def __init__(self, clauses: tuple[HornClause, ...], axiom_count: int = -1):
        super().__init__(clauses, len(clauses) if axiom_count < 0 else axiom_count)
        # One walk over the atoms: an arity clash anywhere is raised before
        # the first clause with existential variables.
        funcs: dict[str, int] = {}
        preds: dict[str, int] = {}
        existential = None
        for c in clauses:
            # Only names not yet listed are added, so the names past the
            # head's are the body's unbound ones, each once.
            names: list[str] = []
            _collect_atom(c.head, funcs, preds, names)
            bound = len(names)
            for b in c.body:
                _collect_atom(b, funcs, preds, names)
            if len(names) > bound and existential is None:
                existential = ExistentialVariableError(c, names[bound:])
        if existential is not None:
            raise existential
        _setattr(self, "_signature", Signature(funcs, preds))
        heads = [c.head for c in clauses]
        _setattr(self, "_head_keys", tuple([head_key(h) for h in heads]))
        count = self.axiom_count
        pair = _first_overlap(heads[:count], self._head_keys[:count])
        if pair is not None:
            i, j = pair
            raise OverlapError(i, j, clauses[i], clauses[j])

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def head_keys(self) -> tuple[tuple[str, Optional[str]], ...]:
        """Each clause head's `head_key` at argument 0, computed once at
        load for the overlap check, the search and the oracle."""
        return self._head_keys

    def extended(self, *clauses: HornClause) -> "Program":
        """Add clauses exempt from the overlap restriction."""
        return Program(self.clauses + tuple(clauses), self.axiom_count)
