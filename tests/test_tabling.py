"""Tests for tabled search and shared proof DAGs.

The tabled search must give what the untabled search gives, apart from the
trace; the untabled search is the same searcher with a memo that never
stores.
"""

import random

import pytest

from cohorn import (
    Atom,
    CheckError,
    Mode,
    Outcome,
    Program,
    Query,
    check,
    engine,
    env_for_program,
    format_proof,
    free_proof_vars,
    parse_formula,
    parse_program,
    parse_proof,
    resolve,
)
from cohorn.proofs import (
    Apply,
    ConstSym,
    Lambda,
    Nu,
    ProofVar,
    format_derivation,
    proof_children,
    shared_nodes,
)
from cohorn.terms import HornClause, fact

from helpers import program_queries, random_program


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


@pytest.fixture
def untabled(monkeypatch):
    """Within the test, call the result with the same arguments as `resolve`
    to search without the memo."""
    init = engine._Search.__init__

    def run(*args, **kwargs):
        def without_memo(self, *a, **k):
            init(self, *a, **k)
            self.memo = _NeverStores()

        with monkeypatch.context() as m:
            m.setattr(engine._Search, "__init__", without_memo)
            return resolve(*args, **kwargs)

    return run


def diamond(n: int):
    """k_i : eq(c_{i-1}), eq(c_{i-1}) => eq(c_i), with k0 : => eq(c0)."""
    lines = ["k0 : => eq(c0)."]
    lines += [f"k{i} : eq(c{i - 1}), eq(c{i - 1}) => eq(c{i})." for i in range(1, n + 1)]
    return parse_program("\n".join(lines))


def diamond_proof(n: int) -> str:
    proof = "k0"
    for i in range(1, n + 1):
        arg = f"({proof})" if " " in proof else proof
        proof = f"k{i} {arg} {arg}"
    return proof


def unshared(e):
    """The proof tree that a DAG unfolds to, every node a fresh object."""
    if isinstance(e, Apply):
        return Apply(unshared(e.fun), unshared(e.arg))
    if isinstance(e, Lambda):
        return Lambda(e.binders, unshared(e.body))
    if isinstance(e, Nu):
        return Nu(e.binder, unshared(e.body))
    return type(e)(e.name)


def random_program_runs(rng, count):
    """`random_program` goals in every mode at depth 4, with no lemma, a
    program clause as a Horn lemma or an atomic lemma, and with auto-lemma."""
    for _ in range(count):
        program = random_program(rng)
        clause = rng.choice(program.clauses)
        horn = clause if clause.body else HornClause((clause.head,), clause.head)
        lemma_sets = [(), (horn,), (fact(rng.choice(program.clauses).head),)]
        for goal in program_queries(rng, program):
            for lemmas in lemma_sets:
                for mode in Mode:
                    for auto in (False, True):
                        yield program, Query(goal, mode, 4, lemmas, auto)


def propositional_runs(rng, count):
    """One clause per 0-ary predicate, bodies with repeats: shared subgoals
    under many different nu-hyp paths, with and without a lemma."""
    for _ in range(count):
        used = "ABCDE"[: rng.randint(2, 5)]
        clauses = [
            HornClause(tuple(Atom(rng.choice(used)) for _ in range(rng.randint(0, 3))), Atom(p))
            for p in used
            if rng.random() < 0.9
        ]
        if not clauses:
            continue
        program = Program(tuple(clauses))
        horn = HornClause((Atom(rng.choice(used)),), Atom(rng.choice(used)))
        for p in used:
            for lemmas in ((), (horn,), (fact(Atom(rng.choice(used))),)):
                for mode in Mode:
                    yield program, Query(fact(Atom(p)), mode, rng.randint(3, 6), lemmas)


def same_result(tabled, plain) -> None:
    assert tabled.outcome is plain.outcome
    pairs = [(tabled.evidence, plain.evidence)]
    pairs += [(r.evidence, s.evidence) for r, s in zip(tabled.lemmas, plain.lemmas)]
    for a, b in pairs:
        assert (a is None) == (b is None)
        if a is not None:
            assert format_proof(a) == format_proof(b)
    assert tabled.derivation == plain.derivation
    assert tabled.lemmas == plain.lemmas
    assert tabled.env == plain.env
    assert tabled.auto_lemma == plain.auto_lemma


def outcome_or_error(search, program, query):
    # An atomic lemma whose evidence is a nu-term can make the emitted
    # proof fail its re-check; both searches must then fail alike.
    try:
        return search(program, query)
    except engine.EngineInvariantError as err:
        return str(err)


def compare(runs, untabled) -> tuple[int, dict]:
    """Compare every run with the untabled search; count the runs and the
    reuse events by mode."""
    calls = 0
    reuses = dict.fromkeys(Mode, 0)
    for program, query in runs:
        tabled = outcome_or_error(resolve, program, query)
        plain = outcome_or_error(untabled, program, query)
        calls += 1
        if isinstance(tabled, str) or isinstance(plain, str):
            assert tabled == plain
            continue
        same_result(tabled, plain)
        assert not any(e.kind == "reuse" for e in plain.trace)
        reuses[query.mode] += sum(e.kind == "reuse" for e in tabled.trace)
        if query.auto_lemma:
            assert tabled == plain  # no memo under auto-lemma
    return calls, reuses


class TestDifferential:
    def test_random_programs_match_the_untabled_search(self, untabled):
        calls, reuses = compare(random_program_runs(random.Random(5150), 60), untabled)
        assert calls > 3000 and reuses[Mode.INDUCTIVE] > 100, (calls, reuses)
        assert reuses[Mode.EXTENDED] > 50, reuses

    def test_propositional_cycles_match_the_untabled_search(self, untabled):
        calls, reuses = compare(propositional_runs(random.Random(5151), 120), untabled)
        assert calls > 2000 and min(reuses.values()) > 50, (calls, reuses)

    def test_a_path_whose_hypotheses_match_inside_the_subgoal_solves_it_afresh(self, untabled):
        # g at depth 2 is first met under the lemma m => q, whose branch is
        # cut at the limit, and then under y, whose nu-hyp closes the cycle
        # g -> y.  Reusing the first result would report EXHAUSTED.
        src = parse_program(
            "kq : y => q.\nky : b, g => y.\nkm : g => m.\nkg : y => g.\nkb : c => b.\nkc : => c."
        )
        query = Query(parse_formula("q"), Mode.EXTENDED, 5, (parse_formula("m => q"),))
        tabled = resolve(src.program, query, names=src.names)
        assert tabled.outcome is Outcome.PROVED
        assert format_proof(tabled.evidence) == "kq (nu a7. ky (kb kc) (kg a7))"
        same_result(tabled, untabled(src.program, query, names=src.names))

    def test_carried_free_variables_are_those_of_the_evidence(self, monkeypatch):
        """Each solved subgoal carries its evidence's free proof variables,
        memo hits included, so a nu-wrap walks no body."""
        solve_atomic = engine._Search.solve_atomic
        solved = []

        def checked(self, *args, **kwargs):
            ev, exhausted, free = solve_atomic(self, *args, **kwargs)
            if ev is not None:
                assert free == free_proof_vars(ev), format_proof(ev)
                solved.append(bool(free))
            return ev, exhausted, free

        monkeypatch.setattr(engine._Search, "solve_atomic", checked)
        monkeypatch.setattr(engine, "free_proof_vars", None)
        runs = list(random_program_runs(random.Random(5152), 15))
        runs += list(propositional_runs(random.Random(5153), 20))
        for program, query in runs:
            resolve(program, query)
        assert len(solved) > 1000 and sum(solved) > 100, (len(solved), sum(solved))


class TestDiamond:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_closed_form_and_shared_derivation(self, mode):
        for n in range(1, 15):
            src = diamond(n)
            result = resolve(src.program, Query(parse_formula(f"eq(c{n})"), mode, n + 1), names=src.names)
            assert result.outcome is Outcome.PROVED
            assert format_proof(result.evidence) == diamond_proof(n)
            assert result.evidence.arg is result.evidence.fun.arg
            tries = sum(e.kind == "try" for e in result.trace)
            reuses = [e for e in result.trace if e.kind == "reuse"]
            assert tries == n + 1 and len(reuses) == n
            assert all(e.detail == "PROVED" for e in reuses)
            d = result.derivation
            while d.children:
                assert d.children[0] is d.children[1]
                d = d.children[0]

    def test_one_below_the_limit_is_cut_once(self):
        src = diamond(12)
        result = resolve(src.program, Query(parse_formula("eq(c12)"), Mode.INDUCTIVE, 12), names=src.names)
        assert result.outcome is Outcome.EXHAUSTED
        assert [e.kind for e in result.trace] == ["try"] * 12 + ["cut"]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_diamond_18_is_linear(self, mode):
        # Untabled, this search makes 2^19 - 1 nodes.
        src = diamond(18)
        result = resolve(src.program, Query(parse_formula("eq(c18)"), mode, 19), names=src.names)
        assert result.outcome is Outcome.PROVED
        assert len(result.trace) <= 3 * 19
        assert result.derivation.depth() == 19
        assert free_proof_vars(result.evidence) == frozenset()


    @pytest.mark.parametrize("mode", list(Mode))
    def test_atomic_lemma_on_a_deep_diamond(self, mode):
        # Every compound subproof of an atomic goal is compared with the
        # lemma's evidence; a walk of the 2^31-node tree would not finish.
        src = diamond(30)
        query = Query(parse_formula("eq(c30)"), mode, 31, lemmas=(parse_formula("eq(c5)"),))
        result = resolve(src.program, query, names=src.names)
        assert result.outcome is Outcome.PROVED
        assert result.lemmas[0].registered
        assert len(result.trace) <= 4 * 31
        d = result.derivation
        while d.children:
            d = d.children[0]
        assert (d.judgement.formula, d.entry_name) == (parse_formula("eq(c5)"), "lemma")


class TestSharedTerms:
    def test_rendering_a_dag_equals_rendering_its_tree(self):
        src = diamond(8)
        result = resolve(src.program, Query(parse_formula("eq(c8)"), Mode.INDUCTIVE, 9), names=src.names)
        tree = unshared(result.evidence)
        assert tree == result.evidence and tree.arg is not tree.fun.arg
        tree_derivation = check(result.env, tree, result.derivation.formula)
        assert tree_derivation.children[0] is not tree_derivation.children[1]
        assert format_derivation(tree_derivation, indent=1) == format_derivation(result.derivation, indent=1)
        for unicode in (False, True):
            assert format_proof(tree, unicode) == format_proof(result.evidence, unicode)

    def test_only_shared_nodes_are_memoised(self):
        src = diamond(6)
        result = resolve(src.program, Query(parse_formula("eq(c6)"), Mode.INDUCTIVE, 7), names=src.names)
        # The six proofs of eq(c0) .. eq(c5), each the argument of two Applys.
        assert len(shared_nodes(result.evidence, proof_children)) == 6
        assert len(shared_nodes(result.derivation, lambda d: d.children)) == 6
        assert shared_nodes(unshared(result.evidence), proof_children) == set()

    def test_deep_dag_walks_are_linear(self):
        # 200 levels of x (x): a tree of 2^200 nodes.
        e = ProofVar("a")
        for _ in range(200):
            e = Apply(Apply(ConstSym("k"), e), e)
        assert free_proof_vars(e) == {"a"}
        assert free_proof_vars(Nu("a", e)) == frozenset()

    def test_a_shared_failing_subterm_is_rejected_at_its_first_occurrence(self):
        src = parse_program("k1 : eq(X), eq(X) => eq(f(X)).\nk2 : => eq(c).")
        env = env_for_program(src.program, src.names)
        bad = parse_proof("k1 k2 k2")
        shared = Apply(Apply(ConstSym("k1"), bad), bad)
        tree = parse_proof("k1 (k1 k2 k2) (k1 k2 k2)")
        errors = []
        for term in (shared, tree):
            with pytest.raises(CheckError) as info:
                check(env, term, parse_formula("eq(f(c))"))
            errors.append((info.value.reason, info.value.path, str(info.value)))
        assert errors[0] == errors[1] and errors[0][1] == (0,)

    def test_rules_used_and_depth_visit_a_dag(self):
        src = diamond(60)
        env = env_for_program(src.program, src.names)
        e = ConstSym("k0")
        for i in range(1, 61):
            e = Apply(Apply(ConstSym(f"k{i}"), e), e)
        d = check(env, e, parse_formula("eq(c60)"))
        assert d.depth() == 61
        assert {r.value for r in d.rules_used()} == {"Lp-m"}
