"""Tests for the first-order term algebra."""

import copy
import gc
import importlib
import pickle
import random
import sys
import weakref

import pytest

from cohorn import (
    App,
    Atom,
    EmptyUniverseError,
    ExistentialVariableError,
    HornClause,
    OverlapError,
    Program,
    Signature,
    SignatureError,
    Var,
    apply_atom,
    apply_term,
    compose,
    enumerate_ground_terms,
    fact,
    ground_instances,
    match,
    parse_formula,
    parse_program,
    term_depth,
    unifiable,
)
from cohorn import terms
from cohorn.herbrand import bounded_size
from cohorn.terms import atom_vars, head_key, is_ground_term, rename_atom

import reference_terms
from helpers import load, random_atom, random_heads, random_subst, random_term


def atom(text: str) -> Atom:
    return parse_formula(text).head


class TestMatch:
    def test_pair_example(self):
        """Both pattern variables bound, target untouched."""
        s = match(atom("eq(pair(X,Y))"), atom("eq(pair(int,int))"))
        assert s == {"X": App("int"), "Y": App("int")}

    def test_identity(self):
        assert match(atom("eq(X)"), atom("eq(X)")) == {}

    def test_directional(self):
        """A constant pattern cannot match a variable target."""
        assert match(atom("A(g)"), atom("A(X)")) is None

    def test_pattern_var_may_capture(self):
        """{X -> f(X)} is a valid matcher; matching applies it only once."""
        s = match(atom("A(X)"), atom("A(f(X))"))
        assert s == {"X": App("f", (Var("X"),))}
        assert apply_atom(s, atom("A(X)")) == atom("A(f(X))")

    def test_inconsistent_repeat(self):
        assert match(atom("p(X,X)"), atom("p(a,b)")) is None

    def test_arity_clash_is_error(self):
        with pytest.raises(SignatureError):
            match(Atom("p", (Var("X"),)), Atom("p", (Var("X"), Var("Y"))))

    def test_soundness_and_minimality_randomized(self):
        """match(p, s(p)) always succeeds with a matcher no larger than vars(p)."""
        rng = random.Random(7)
        for _ in range(300):
            pattern = random_atom(rng)
            grounding = random_subst(rng, ground=True)
            target = apply_atom(grounding, pattern)
            s = match(pattern, target)
            assert s is not None
            assert apply_atom(s, pattern) == target
            assert set(s) <= set(atom_vars(pattern))


class TestSubstitution:
    def test_apply_direct(self):
        s = {"X": App("int")}
        assert apply_atom(s, atom("eq(pair(X,X))")) == atom("eq(pair(int,int))")

    def test_apply_empty(self):
        t = random_term(random.Random(1), 3)
        assert apply_term({}, t) == t

    def test_compose_identities(self):
        s = {"X": App("int")}
        assert compose({}, s) == s
        assert compose(s, {}) == s

    def test_compose_example(self):
        s = {"X": App("int")}
        t = {"Y": App("pair", (Var("X"), Var("X")))}
        assert apply_atom(compose(s, t), atom("A(Y)")) == atom("A(pair(int,int))")

    def test_compose_law_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            s, t = random_subst(rng), random_subst(rng)
            x = random_term(rng, 3)
            assert apply_term(compose(s, t), x) == apply_term(s, apply_term(t, x))

    def test_compose_applies_right_side_first(self):
        # compose(s, t) x == s(t(x)); s's own ranges are not rewritten by t.
        s = {"X": App("f", (Var("Y"),))}
        t = {"Y": App("g")}
        composed = compose(s, t)
        assert apply_atom(composed, atom("A(X)")) == atom("A(f(Y))")
        assert apply_atom(composed, atom("A(Y)")) == atom("A(g)")
        assert apply_atom(compose(t, s), atom("A(X)")) == atom("A(f(g))")


class TestUnifiable:
    def test_distinct_functors(self):
        assert not unifiable(atom("eq(int)"), atom("eq(pair(X,Y))"))

    def test_var_against_term(self):
        assert unifiable(atom("eq(X)"), atom("eq(pair(Y,Z))"))

    def test_occurs_check(self):
        assert not unifiable(atom("A(X)"), atom("A(f(X))"))


class TestEnumeration:
    def test_unary_signature(self):
        sig = Signature({"f": 1, "g": 0}, {})
        assert enumerate_ground_terms(sig, 2) == [App("g"), App("f", (App("g"),))]

    def test_single_constant(self):
        sig = Signature({"g": 0}, {})
        assert enumerate_ground_terms(sig, 5) == [App("g")]

    def test_pair_signature(self):
        src = load("pair")
        terms = enumerate_ground_terms(src.program.signature, 2)
        assert terms == [App("int"), App("pair", (App("int"), App("int")))]

    def test_no_constants(self):
        sig = Signature({"f": 1}, {})
        with pytest.raises(EmptyUniverseError):
            enumerate_ground_terms(sig, 3)
        assert enumerate_ground_terms(sig, 3, allow_empty=True) == []

    def test_completeness_and_uniqueness(self):
        """Every ground term of depth <= d appears exactly once."""
        sig = Signature({"f": 1, "g": 2, "c": 0}, {})
        terms = enumerate_ground_terms(sig, 3)
        assert len(terms) == len(set(terms))
        assert all(term_depth(t) <= 3 for t in terms)
        rng = random.Random(3)

        def build(depth):
            if depth == 1:
                return App("c")
            name, arity = rng.choice([("f", 1), ("g", 2)])
            args = [build(rng.randint(1, depth - 1)) for _ in range(arity)]
            return App(name, tuple(args))

        for _ in range(200):
            t = build(rng.randint(1, 3))
            assert is_ground_term(t)
            assert t in terms

    @pytest.mark.parametrize(
        "functions, depths",
        [
            ({"a": 0, "b": 0, "c": 0}, (1, 2, 5)),  # constants only
            ({"z": 0, "s": 1, "p": 1}, (1, 2, 3, 6)),  # unary
            ({"c": 0, "d": 0, "g": 2}, (1, 2, 3)),  # binary
            ({"c": 0, "f": 1, "g": 2, "h": 3, "k": 0}, (1, 2, 3)),  # mixed arities
            ({"c": 0, "t": 3}, (1, 2, 3)),  # ternary
        ],
    )
    def test_layers_equal_the_rescanning_reference(self, functions, depths):
        """Building each layer from the last gives the list, in the order,
        that rescanning every term built so far gave."""
        sig = Signature(functions, {})
        for depth in depths:
            assert enumerate_ground_terms(sig, depth) == reference_terms.enumerate_ground_terms(sig, depth)

    def test_random_signatures_equal_the_rescanning_reference(self):
        rng = random.Random(11)
        for _ in range(60):
            functions = {f"f{i}": rng.choice([0, 0, 1, 2, 3]) for i in range(rng.randint(1, 4))}
            functions["c"] = 0
            sig = Signature(functions, {})
            for depth in range(1, 5):
                if bounded_size(sig, depth, 2000) > 2000:
                    break
                expected = reference_terms.enumerate_ground_terms(sig, depth)
                assert enumerate_ground_terms(sig, depth) == expected, (functions, depth)


class TestGroundInstances:
    def test_fact_unchanged(self):
        src = load("pair")
        k2 = src.clause_named("k2")
        assert ground_instances(k2, [App("int")]) == [k2]

    def test_pair_clause(self):
        src = load("pair")
        k1 = src.clause_named("k1")
        out = ground_instances(k1, [App("int")])
        assert out == [parse_program("k : eq(int), eq(int) => eq(pair(int,int)).").program.clauses[0]]

    def test_instances_are_ground(self):
        src = load("evenodd")
        universe = enumerate_ground_terms(src.program.signature, 2)
        for clause in src.program.clauses:
            for inst in ground_instances(clause, universe):
                assert not atom_vars(inst.head)
                assert all(not atom_vars(b) for b in inst.body)


class TestProgramRestrictions:
    def test_corpus_loads(self):
        for name in ("pair", "evenodd", "bush", "p6", "p7", "p11", "chain", "loop"):
            load(name)

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            Program((fact(atom("A(X)")), fact(atom("A(f(Y))"))))

    def test_existential_rejected(self):
        with pytest.raises(ExistentialVariableError):
            Program((HornClause((atom("q(Y)"),), atom("p(X)")),))

    def test_body_deeper_than_head_is_fine(self):
        Program((HornClause((atom("p(f(X))"),), atom("p(X)")),))

    def test_arity_clash_rejected(self):
        with pytest.raises(SignatureError):
            Program((fact(Atom("p", (App("c"),))), fact(Atom("p", (App("c"), App("c"))))))

    def test_extension_exempt_from_overlap(self):
        src = load("bush")
        extended = src.program.extended(parse_formula("eq(X) => eq(bush(X))"))
        assert len(extended.clauses) == 3

    def test_depth_measure(self):
        assert term_depth(App("int")) == 1
        assert term_depth(Var("X")) == 1
        assert term_depth(App("f", (App("g", (Var("X"), App("c"))),))) == 3


class TestCachedHashes:
    def test_pickle_drops_the_cache(self):
        term = App("f", (App("c"), App("g", (App("c"), App("d")))))
        a = Atom("q", (term, App("c")))
        hash(a)  # fill the caches of the atom and its terms
        restored = pickle.loads(pickle.dumps(a))
        assert a._hash is not None and term._hash is not None
        assert restored._hash is None
        assert restored.args[0]._hash is None
        fresh = {Atom("q", (App("f", (App("c"), App("g", (App("c"), App("d"))))), App("c")))}
        assert restored in fresh
        assert restored.args[0] in {App("f", (App("c"), App("g", (App("c"), App("d")))))}

    def test_equality_and_repr_ignore_the_cache(self):
        hashed, plain = App("f", (App("c"),)), App("f", (App("c"),))
        hash(hashed)
        assert hashed == plain
        assert repr(hashed) == repr(plain) == "App(functor='f', args=(App(functor='c', args=()),))"
        ha, pa = Atom("p", (hashed,)), Atom("p", (plain,))
        hash(ha)
        assert ha == pa and repr(ha) == repr(pa)

    def test_hash_agrees_with_equality(self):
        rng = random.Random(17)
        for _ in range(300):
            t = random_term(rng, 4)
            copy = pickle.loads(pickle.dumps(t))
            assert t == copy and hash(t) == hash(copy)

    def test_rendered_string_cache_stays_out_of_pickles_and_copies(self):
        term = App("f", (App("c"), App("g", (Var("X"), App("d")))))
        assert str(term) == "f(c,g(X,d))"
        assert term._str is not None and term.args[1]._str is not None
        assert copy.copy(term)._str is None  # a shallow copy shares the args
        for restored in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
            assert restored._str is None
            assert restored.args[1]._str is None
            assert restored == term and str(restored) == "f(c,g(X,d))"

    def test_shared_subterm_renders_once(self):
        shared = App("g", (App("c"), App("d")))
        a, b = Atom("p", (App("f", (shared,)),)), Atom("q", (shared, App("c")))
        assert (str(a), str(b)) == ("p(f(g(c,d)))", "q(g(c,d),c)")
        assert shared._str == "g(c,d)"


def pairwise_first_overlap(heads):
    """The reference: every pair of heads, renamed apart, in (i, j) order."""
    for i in range(len(heads)):
        for j in range(i + 1, len(heads)):
            if unifiable(rename_atom(heads[i], "_l"), rename_atom(heads[j], "_r")):
                return i, j
    return None


def agrees_with_pairwise(head_lists) -> None:
    """The indexed check names the pair the reference names; both outcomes
    occur at least 100 times."""
    outcomes = {"overlap": 0, "clean": 0}
    for heads in head_lists:
        expected = pairwise_first_overlap(heads)
        try:
            Program(tuple(fact(h) for h in heads))
            found = None
        except OverlapError as err:
            found = (err.index_a, err.index_b)
        assert found == expected, heads
        outcomes["overlap" if found else "clean"] += 1
    assert min(outcomes.values()) >= 100, outcomes


class TestHeadIndex:
    def test_head_key(self):
        assert head_key(atom("eq(pair(X,Y))")) == ("eq", "pair")
        assert head_key(atom("eq(int)")) == ("eq", "int")
        assert head_key(atom("eq(X)")) == ("eq", None)
        assert head_key(atom("q(X,f(c))")) == ("q", None)
        assert head_key(atom("A")) == ("A", None)
        assert head_key(atom("q(X,f(c))"), 1) == ("q", "f")
        assert head_key(atom("q(g(Y),X)"), 1) == ("q", None)
        assert head_key(atom("A"), 1) == ("A", None)

    def test_indexed_overlap_check_agrees_with_pairwise(self):
        rng = random.Random(4404)
        agrees_with_pairwise(random_heads(rng, rng.randint(1, 9)) for _ in range(600))

    def test_variable_first_arguments_agree_with_pairwise(self):
        # Two-argument heads with a variable at argument 0 are keyed on
        # argument 1 when fewer heads have a variable there.
        rng = random.Random(4405)
        agrees_with_pairwise(
            [
                Atom("q", (Var(rng.choice("XYZ")), h.args[1]))
                if h.predicate == "q" and rng.random() < 0.7
                else h
                for h in random_heads(rng, rng.randint(1, 9))
            ]
            for _ in range(600)
        )

    def test_variable_first_arguments_load_in_near_linear_time(self, monkeypatch):
        # Argument 1 has no variable heads, so each head meets only its own
        # bucket there: no pair is tried at all.
        calls = []
        real = terms.unifiable
        monkeypatch.setattr(terms, "unifiable", lambda a, b: calls.append(1) or real(a, b))
        n = 800
        parse_program("\n".join(f"k{i} : => q(X, t{i}(X))." for i in range(n)))
        assert len(calls) <= 2 * n, len(calls)

    def test_first_overlap_is_least_pair(self):
        # (1, 3) and (0, 4) both overlap; (0, 4) comes first in (i, j) order.
        heads = ("p(c)", "q(f(X),c)", "p(d)", "q(f(c),Y)", "p(X)")
        with pytest.raises(OverlapError) as info:
            Program(tuple(fact(atom(h)) for h in heads))
        assert (info.value.index_a, info.value.index_b) == (0, 4)

    def test_extension_keeps_the_axiom_check(self):
        base = Program((fact(atom("p(f(X))")), fact(atom("p(c)"))))
        extended = base.extended(fact(atom("p(f(c))")), fact(atom("p(X)")))
        assert extended.axiom_count == 2
        with pytest.raises(OverlapError) as info:
            Program(base.clauses + (fact(atom("p(f(c))")),))
        assert (info.value.index_a, info.value.index_b) == (0, 2)


class TestModuleCopies:
    def test_reimport_frees_the_earlier_copy(self):
        """Nothing outside cohorn (such as typing's caches) keeps an imported copy alive."""

        def drop():
            names = [n for n in sys.modules if n == "cohorn" or n.startswith("cohorn.")]
            return {n: sys.modules.pop(n) for n in names}

        saved = drop()
        try:
            importlib.import_module("cohorn.cli")
            first = weakref.ref(sys.modules["cohorn.terms"].App)
            drop()
            importlib.import_module("cohorn.cli")
            gc.collect()
            assert first() is None
            assert sys.modules["cohorn.terms"].App is not App
        finally:
            drop()
            sys.modules.update(saved)
