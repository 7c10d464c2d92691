"""Tests for proof search: modes, lemmas, negatives, and invariants."""

import copy
import io
import pickle
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cohorn import (
    Atom,
    Mode,
    Outcome,
    OverlapError,
    Program,
    Query,
    RegistrationError,
    Rule,
    SignatureError,
    Var,
    alpha_equal,
    apply_atom,
    check,
    engine,
    env_for_program,
    format_proof,
    match,
    parse_atom,
    parse_formula,
    parse_program,
    parse_proof,
    propose_lemma,
    register_lemma,
    resolve,
)
from cohorn import proofs, terms
from cohorn.cli import cli
from cohorn.proofs import Apply, ConstSym
from cohorn.terms import HornClause, atom_vars, head_key

from helpers import (
    load,
    program_queries,
    random_atom,
    random_heads,
    random_program,
    random_subst,
)


def run(name, query_text, mode, depth=8, lemmas=(), auto=False):
    src = load(name)
    q = Query(
        goal=parse_formula(query_text),
        mode=mode,
        depth_limit=depth,
        lemmas=tuple(parse_formula(t) for t in lemmas),
        auto_lemma=auto,
    )
    return resolve(src.program, q, names=src.names)


def assert_proof(result, expected_text):
    assert result.outcome is Outcome.PROVED
    assert alpha_equal(result.evidence, parse_proof(expected_text)), format_proof(
        result.evidence
    )


def events(result):
    return [(t.kind, t.depth, t.goal, t.entry, t.detail) for t in result.trace]


class TestGoldenProofs:
    def test_pair_inductive(self):
        assert_proof(run("pair", "eq(pair(int,int))", Mode.INDUCTIVE), "k1 k2 k2")

    def test_evenodd_coinductive(self):
        assert_proof(
            run("evenodd", "eq(evenList(int))", Mode.COINDUCTIVE),
            "nu a. k2 k3 (k1 k3 a)",
        )

    def test_evenodd_inductive_exhausts(self):
        assert run("evenodd", "eq(evenList(int))", Mode.INDUCTIVE).outcome is Outcome.EXHAUSTED

    def test_bush_extended_with_lemma(self):
        result = run(
            "bush", "eq(bush(int))", Mode.EXTENDED, lemmas=["eq(X) => eq(bush(X))"]
        )
        assert_proof(result, "(nu a. \\b -> k2 b (a (a b))) k1")
        assert result.lemmas[0].registered
        assert alpha_equal(
            result.lemmas[0].evidence, parse_proof("nu a. \\b -> k2 b (a (a b))")
        )

    def test_bush_auto_lemma(self):
        result = run("bush", "eq(bush(int))", Mode.EXTENDED, auto=True)
        assert_proof(result, "(nu a. \\b -> k2 b (a (a b))) k1")
        assert result.auto_lemma == parse_formula("eq(X1) => eq(bush(X1))")

    def test_lemma_searches_feed_auto_lemma_triggers(self):
        """At depth 2 the query's own search meets no goal that embeds an
        ancestor.  The given lemma's search, which fails, meets
        eq(bush(bush(X))) under eq(bush(X)), and that trigger proposes the
        auto-lemma."""
        query = "eq(bush(bush(bush(int))))"
        assert run("bush", query, Mode.EXTENDED, depth=2, auto=True).auto_lemma is None
        result = run("bush", query, Mode.EXTENDED, depth=2, lemmas=["eq(X) => eq(bush(X))"], auto=True)
        assert result.auto_lemma == parse_formula("eq(X1) => eq(bush(X1))")
        assert not result.lemmas[0].registered
        note = "auto-lemma proposed from ancestor eq(bush(X)): eq(X1) => eq(bush(X1))"
        assert ("note", 0, "eq(bush(bush(X)))", "", note) in events(result)

    def test_chain_horn_query(self):
        assert_proof(run("chain", "A => C", Mode.INDUCTIVE), "\\a -> k2 (k1 a)")

    def test_identity_extended(self):
        assert_proof(run("empty", "A => A", Mode.EXTENDED, depth=4), "\\a -> a")

    def test_identity_inductive(self):
        assert_proof(run("empty", "A => A", Mode.INDUCTIVE, depth=4), "\\a -> a")


class TestNegatives:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_p6_fails_every_mode(self, mode):
        assert run("p6", "A(X)", mode).outcome is Outcome.FAILED

    @pytest.mark.parametrize("mode", [Mode.INDUCTIVE, Mode.EXTENDED])
    def test_p7_fails(self, mode):
        assert run("p7", "B(X) => A(X)", mode).outcome is Outcome.FAILED

    def test_p7_coinductive_has_no_horn_rule(self):
        assert run("p7", "B(X) => A(X)", Mode.COINDUCTIVE).outcome is Outcome.FAILED

    def test_p11_exhausts(self):
        assert run("p11", "D(z,z)", Mode.EXTENDED, depth=12).outcome is Outcome.EXHAUSTED

    def test_loop_fails_finitely(self):
        """p(X) has a finite failed tree: matching never instantiates the goal."""
        assert run("loop", "p(X)", Mode.COINDUCTIVE).outcome is Outcome.FAILED

    def test_failed_lemma_aborts_query(self):
        result = run("pair", "eq(int)", Mode.INDUCTIVE, lemmas=["eq(list(X)) => eq(X)"])
        assert result.outcome is not Outcome.PROVED
        assert not result.lemmas[0].registered


class TestRegisterLemma:
    def test_bush_nu_term_accepted_coinductively(self):
        src = load("bush")
        env = env_for_program(src.program, src.names)
        out = register_lemma(
            env,
            parse_proof("nu a. \\b -> k2 b (a (a b))"),
            parse_formula("eq(X) => eq(bush(X))"),
            Mode.EXTENDED,
        )
        assert len(out.lemmas) == 1

    def test_identity_rejected_coinductively(self):
        src = load("chain")
        env = env_for_program(src.program, src.names)
        with pytest.raises(RegistrationError) as err:
            register_lemma(env, parse_proof("\\a -> a"), parse_formula("A => A"), Mode.EXTENDED)
        assert err.value.code == "HNF_REQUIRED"

    def test_identity_accepted_inductively(self):
        src = load("chain")
        env = env_for_program(src.program, src.names)
        out = register_lemma(env, parse_proof("\\a -> a"), parse_formula("A => A"), Mode.INDUCTIVE)
        assert len(out.lemmas) == 1

    def test_chain_lemma_accepted_inductively(self):
        src = load("chain")
        env = env_for_program(src.program, src.names)
        out = register_lemma(
            env, parse_proof("\\a -> k2 (k1 a)"), parse_formula("A => C"), Mode.INDUCTIVE
        )
        assert len(out.lemmas) == 1

    def test_unsound_evidence_rejected(self):
        src = load("chain")
        env = env_for_program(src.program, src.names)
        with pytest.raises(RegistrationError) as err:
            register_lemma(env, parse_proof("k1 k2"), parse_formula("A => C"), Mode.INDUCTIVE)
        assert err.value.code == "CHECK_FAILED"

    def test_bare_axiom_reference_registers_as_noop(self):
        src = load("pair")
        env = env_for_program(src.program, src.names)
        out = register_lemma(env, parse_proof("k2"), parse_formula("eq(int)"), Mode.EXTENDED)
        assert out == env
        result = run("pair", "eq(pair(int,int))", Mode.INDUCTIVE, lemmas=["eq(int)"])
        assert result.outcome is Outcome.PROVED
        # No lemma entry is added, so the search uses the axiom by its own name.
        assert result.env == env
        assert events(result) == [
            ("note", 0, "eq(int)", "", "proving lemma"),
            ("try", 0, "eq(int)", "k2", "{}"),
            ("try", 0, "eq(pair(int,int))", "k1", "{X -> int, Y -> int}"),
            ("try", 1, "eq(int)", "k2", "{}"),
            # The second eq(int) at depth 1 is tabled: one event, same proof.
            ("reuse", 1, "eq(int)", "", "PROVED"),
        ]

    def test_compound_atomic_lemma_registers(self):
        result = run("pair", "eq(pair(int,int))", Mode.INDUCTIVE, lemmas=["eq(pair(int,int))"])
        assert result.outcome is Outcome.PROVED
        assert result.lemmas[0].registered

    @pytest.mark.parametrize("text,goal,evidence", [
        # Evidence a nu term: read by its shape, a Nu' step, the hypothesis
        # a1 : q(c) is too specific for the body.
        ("k1 : p(f(f(X))), q(f(X)) => q(X).\nk2 : q(f(X)) => p(X).", "q(c)",
         "nu a1. k1 (k2 a1) a1"),
        # Evidence an application: read by its shape, a k2 step, its nu
        # hypothesis is p(f(c)), again too specific.
        ("k1 : p(f(f(Y))) => p(Y).\nk2 : p(X) => q(X).", "q(f(c))", "k2 (nu a2. k1 a2)"),
    ])
    def test_atomic_lemma_evidence_rechecks_as_lemma_step(self, text, goal, evidence):
        src = parse_program(text)
        query = Query(goal=parse_formula(goal), mode=Mode.COINDUCTIVE, depth_limit=4,
                      lemmas=(parse_formula("q(X)"),))
        result = resolve(src.program, query, names=src.names)
        assert result.outcome is Outcome.PROVED
        assert result.lemmas[0].registered
        assert alpha_equal(result.evidence, parse_proof(evidence))
        d = check(result.env, result.evidence, parse_formula(goal))
        assert (d.rule, d.children, d.entry_name) == (Rule.LP_M, (), "lemma")
        # Without the lemma entry the same term is read by its shape, and fails.
        with pytest.raises(engine.CheckError):
            check(env_for_program(src.program, src.names), result.evidence, parse_formula(goal))

    def test_atomic_lemma_evidence_at_a_goal_it_does_not_match(self):
        # The search proves q(d) with a term alpha-equal to the evidence of
        # the lemma q(f(c)); there it is a Nu' step, as without the lemma.
        src = parse_program("k1 : q(X) => q(X).\nk3 : => r(d).\nk4 : => r(f(c)).")
        query = Query(goal=parse_formula("q(d)"), mode=Mode.COINDUCTIVE, depth_limit=4,
                      lemmas=(parse_formula("q(f(c))"),))
        result = resolve(src.program, query, names=src.names)
        assert result.outcome is Outcome.PROVED
        assert alpha_equal(result.evidence, result.lemmas[0].evidence)
        assert result.derivation.rule is Rule.NU_PRIME


class TestMonomorphicFacts:
    """Lambda hypotheses resolve only their literal atom.

    With instantiation allowed, p(X) => q(X) would be derivable below while
    being invalid in both the least and the greatest model (p(f(c)) holds
    but q(f(c)) needs p(c), which never holds).
    """

    PROGRAM = "k1 : p(Y), p(c) => q(Y).\nk2 : => p(f(c))."

    def test_engine_refuses(self):
        from cohorn import parse_program

        src = parse_program(self.PROGRAM)
        for mode in (Mode.INDUCTIVE, Mode.EXTENDED):
            q = Query(goal=parse_formula("p(X) => q(X)"), mode=mode, depth_limit=4)
            assert resolve(src.program, q, names=src.names).outcome is Outcome.FAILED

    def test_checker_refuses(self):
        from cohorn import CheckError, CheckReason, parse_program

        src = parse_program(self.PROGRAM)
        env = env_for_program(src.program, src.names)
        with pytest.raises(CheckError) as err:
            check(env, parse_proof("\\b -> k1 b b"), parse_formula("p(X) => q(X)"))
        assert err.value.reason is CheckReason.NO_MATCH

    def test_literal_use_still_works(self):
        from cohorn import parse_program

        src = parse_program(self.PROGRAM)
        q = Query(goal=parse_formula("p(f(c)) => q(f(c))"), mode=Mode.INDUCTIVE, depth_limit=4)
        result = resolve(src.program, q, names=src.names)
        assert result.outcome is Outcome.FAILED  # still needs p(c)
        q = Query(goal=parse_formula("p(c) => q(c)"), mode=Mode.INDUCTIVE, depth_limit=4)
        result = resolve(src.program, q, names=src.names)
        assert result.outcome is Outcome.PROVED  # b proves p(c); k2 is unused


class TestGoldenTraces:
    """Full trace event lists of small corpus queries, pinned event by event."""

    def test_evenodd_coinductive(self):
        assert events(run("evenodd", "eq(evenList(int))", Mode.COINDUCTIVE)) == [
            ("guarded", 0, "eq(evenList(int))", "hyp a1", ""),
            ("try", 0, "eq(evenList(int))", "k2", "{X -> int}"),
            ("guarded", 1, "eq(int)", "hyp a2", ""),
            ("try", 1, "eq(int)", "k3", "{}"),
            ("guarded", 1, "eq(oddList(int))", "hyp a3", ""),
            ("try", 1, "eq(oddList(int))", "k1", "{X -> int}"),
            ("guarded", 2, "eq(int)", "hyp a4", ""),
            ("try", 2, "eq(int)", "k3", "{}"),
            ("try", 2, "eq(evenList(int))", "hyp a1", "{}"),
        ]

    def test_bush_extended_with_lemma(self):
        result = run("bush", "eq(bush(int))", Mode.EXTENDED, lemmas=["eq(X) => eq(bush(X))"])
        assert events(result) == [
            ("note", 0, "eq(X) => eq(bush(X))", "", "proving lemma"),
            ("guarded", 0, "eq(bush(X))", "hyp a1", ""),
            ("try", 0, "eq(bush(X))", "k2", "{}"),
            ("guarded", 1, "eq(X)", "hyp a2", ""),
            ("try", 1, "eq(X)", "fact b1", "{}"),
            ("try", 1, "eq(bush(bush(X)))", "hyp a1", "{X -> bush(X)}"),
            ("try", 2, "eq(bush(X))", "hyp a1", "{}"),
            ("guarded", 3, "eq(X)", "hyp a5", ""),
            ("try", 3, "eq(X)", "fact b1", "{}"),
            ("guarded", 0, "eq(bush(int))", "hyp a1", ""),
            ("try", 0, "eq(bush(int))", "lemma[1]", "{X -> int}"),
            ("guarded", 1, "eq(int)", "hyp a2", ""),
            ("try", 1, "eq(int)", "k1", "{}"),
        ]

    def test_chain_horn_query_inductive(self):
        assert events(run("chain", "A => C", Mode.INDUCTIVE)) == [
            ("try", 0, "C", "k2", "{}"),
            ("try", 1, "B", "k1", "{}"),
            ("try", 2, "A", "fact b1", "{}"),
        ]

    def test_monomorphic_fact_guard(self):
        from cohorn import parse_program

        src = parse_program(TestMonomorphicFacts.PROGRAM)
        q = Query(goal=parse_formula("p(X) => q(X)"), mode=Mode.INDUCTIVE, depth_limit=4)
        assert events(resolve(src.program, q, names=src.names)) == [
            ("try", 0, "q(X)", "k1", "{Y -> X}"),
            ("try", 1, "p(X)", "fact b1", "{}"),
            ("guarded", 1, "p(c)", "fact b1", "monomorphic"),
            ("dead-end", 1, "p(c)", "", ""),
        ]


class TestProposeLemma:
    def test_bush_generalization(self):
        lemma = propose_lemma(parse_atom("eq(bush(bush(X)))"), parse_atom("eq(bush(X))"))
        assert lemma == parse_formula("eq(X1) => eq(bush(X1))")

    def test_equal_goals_yield_nothing(self):
        assert propose_lemma(parse_atom("eq(evenList(int))"), parse_atom("eq(evenList(int))")) is None

    def test_binary_predicate_yields_nothing(self):
        assert propose_lemma(parse_atom("D(s(z),z)"), parse_atom("D(z,s(z))")) is None

    def test_total_generalization_yields_nothing(self):
        """Anti-unifying structurally unrelated arguments leaves a bare variable."""
        assert propose_lemma(parse_atom("p(f(c))"), parse_atom("p(c)")) is None

    def test_shared_spine_generalizes(self):
        lemma = propose_lemma(parse_atom("p(f(f(c)))"), parse_atom("p(f(c))"))
        assert lemma == parse_formula("p(X1) => p(f(X1))")


class TestInvariants:
    def test_determinism(self):
        a = run("evenodd", "eq(evenList(int))", Mode.COINDUCTIVE)
        b = run("evenodd", "eq(evenList(int))", Mode.COINDUCTIVE)
        assert a.evidence == b.evidence
        assert a.trace == b.trace

    def test_every_proved_result_rechecks(self):
        rng = random.Random(17)
        for _ in range(60):
            program = random_program(rng)
            for goal in program_queries(rng, program):
                for mode in Mode:
                    q = Query(goal=goal, mode=mode, depth_limit=4)
                    result = resolve(program, q)
                    if result.outcome is Outcome.PROVED:
                        check(result.env, result.evidence, goal)

    def test_mode_monotonicity_on_corpus(self):
        pair = run("pair", "eq(pair(int,int))", Mode.INDUCTIVE)
        for mode in (Mode.COINDUCTIVE, Mode.EXTENDED):
            other = run("pair", "eq(pair(int,int))", mode)
            assert other.outcome is Outcome.PROVED
            assert other.evidence == pair.evidence

    def test_mode_monotonicity_randomized(self):
        rng = random.Random(23)
        for _ in range(40):
            program = random_program(rng)
            for goal in program_queries(rng, program):
                q = Query(goal=goal, mode=Mode.INDUCTIVE, depth_limit=4)
                base = resolve(program, q)
                if base.outcome is not Outcome.PROVED:
                    continue
                modes = [Mode.EXTENDED] if not goal.is_atomic else [Mode.COINDUCTIVE, Mode.EXTENDED]
                for mode in modes:
                    again = resolve(program, Query(goal=goal, mode=mode, depth_limit=4))
                    assert again.outcome is Outcome.PROVED
                    assert alpha_equal(again.evidence, base.evidence)

    def test_duplicate_clause_names_are_bad_input(self):
        """Two clauses named alike are refused before any search, not
        reported as a proof that failed to re-check."""
        program = Program((HornClause((), parse_atom("p(c)")), HornClause((), parse_atom("q(c)"))))
        with pytest.raises(ValueError, match="distinct"):
            resolve(program, Query(parse_formula("q(c)"), Mode.INDUCTIVE), names=["k", "k"])

    def test_rule_sets_respect_mode(self):
        result = run("evenodd", "eq(evenList(int))", Mode.COINDUCTIVE)
        assert result.derivation.rules_used() <= {Rule.LP_M, Rule.NU_PRIME}
        result = run("chain", "A => C", Mode.INDUCTIVE)
        assert result.derivation.rules_used() <= {Rule.LP_M, Rule.LAM}


def head_index_programs(rng, count):
    """Programs over `random_heads`: the non-overlapping heads, each with a
    body p(V) for each of its variables; with goals for each program."""
    for _ in range(count):
        clauses = []
        for h in random_heads(rng, rng.randint(2, 8)):
            clause = HornClause(tuple(Atom("p", (Var(v),)) for v in atom_vars(h)), h)
            try:
                Program(tuple(clauses) + (clause,))
            except OverlapError:
                continue
            clauses.append(clause)
        goals = [c.head for c in clauses]
        goals += [apply_atom(random_subst(rng, ground=True), c.head) for c in clauses]
        goals += [random_atom(rng) for _ in range(3)] + [Atom("r")]
        yield Program(tuple(clauses)), goals


def index_runs(rng):
    """(program, query) pairs over the corpus, `random_program` and
    `head_index_programs`, in every mode."""
    corpus = (
        ("pair", "eq(pair(int,int))", ()), ("pair", "eq(X)", ()),
        ("evenodd", "eq(evenList(int))", ()), ("bush", "eq(bush(int))", ("eq(X) => eq(bush(X))",)),
        ("chain", "A => C", ()), ("p6", "A(X)", ()), ("p7", "B(X) => A(X)", ()),
        ("p11", "D(z,z)", ()), ("loop", "p(X)", ()),
    )
    for name, text, lemmas in corpus:
        for mode in Mode:
            for auto in (False, True):
                yield load(name).program, Query(
                    parse_formula(text), mode, 6, tuple(parse_formula(t) for t in lemmas), auto
                )
    for _ in range(30):
        program = random_program(rng)
        for goal in program_queries(rng, program):
            for mode in Mode:
                yield program, Query(goal, mode, 4, auto_lemma=True)
    for program, goals in head_index_programs(rng, 40):
        for goal in goals:
            for mode in Mode:
                yield program, Query(HornClause((), goal), mode, 4)


class TestHeadIndex:
    def test_candidates_are_the_matching_full_walk(self, monkeypatch):
        walks, goals = [], []
        indexed_walk, options = engine._Search._candidates, engine._Search._options

        def goal_noting(self, goal, *args):
            # `_options` asks for its goal's candidates before its first step.
            goals.append(goal)
            return options(self, goal, *args)

        def recording(self, key):
            goal = goals[-1]
            links = list(indexed_walk(self, key))
            hyps, link = [], self.hyps  # the path's hypotheses, oldest first
            while link:
                hyps.insert(0, link[0])
                link = link[2]
            full = (
                [e for e in hyps if not e.rigid]
                + list(self.entries)
                + [e for e in hyps if e.rigid]
            )
            walks.append((goal, [e for e, _, _ in links], full))
            return iter(links)

        monkeypatch.setattr(engine._Search, "_options", goal_noting)
        monkeypatch.setattr(engine._Search, "_candidates", recording)
        for program, query in index_runs(random.Random(31)):
            resolve(program, query)
        assert len(walks) > 2000
        for goal, indexed, full in walks:
            rest = iter(full)
            assert all(any(e is f for f in rest) for e in indexed), goal  # in order
            matching = [e for e in full if match(e.formula.head, goal) is not None]
            assert [e for e in indexed if match(e.formula.head, goal) is not None] == matching

    def test_results_equal_the_unindexed_search(self, monkeypatch):
        """Whole results, traces included, equal those of a search that
        tries every lemma and axiom and walks the whole hypothesis chain."""
        runs = list(index_runs(random.Random(37)))
        indexed = [resolve(program, query) for program, query in runs]
        assert sum(len(r.trace) for r in indexed) > 3000

        def full_walk(self, key):
            nus, facts, link = [], [], self.hyps
            while link:
                (facts if link[0].rigid else nus).append(link)
                link = link[2]
            yield from reversed(nus)
            for e in self.entries:
                yield e, 0, None
            yield from reversed(facts)

        monkeypatch.setattr(engine._Search, "_candidates", full_walk)
        for (program, query), expected in zip(runs, indexed):
            assert resolve(program, query) == expected

    @pytest.mark.parametrize("mode, code", [("ind", 65), ("coind", 65), ("ext", 65)])
    def test_a_clash_with_a_hypothesis_of_another_key_still_raises(self, mode, code, tmp_path):
        """The lambda-fact p(a,b) has another head key than the subgoal
        p(c), and its arity clashes with the program's p(c): the query is
        refused before the search, in coinductive mode too, which derives
        no Horn formula and so tries no goal."""
        path = tmp_path / "clash.hc"
        path.write_text("k1 : p(c) => q(c).\n")
        argv = ["resolve", str(path), "--query", "p(a,b) => q(c)", "--mode", mode]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert cli(argv) == code
        assert (out.getvalue(), err.getvalue()) == ("", "input error: predicate p used with arities 1 and 2\n")

    def test_coinductive_chain_matches_at_most_two_entries_per_goal(self, monkeypatch):
        """chain-2,000, k_i : a_(i-1) => a_i: each goal matches its axiom and
        its own nu-hyp, not every nu-hyp on the path (2,005,002 calls)."""
        n = 2000
        calls = []
        real = engine.match
        monkeypatch.setattr(engine, "match", lambda *args: calls.append(1) or real(*args))
        text = "k0 : => a0.\n" + "".join(f"k{i} : a{i - 1} => a{i}.\n" for i in range(1, n + 1))
        query = Query(parse_formula(f"a{n}"), Mode.COINDUCTIVE, n + 2)
        assert resolve(parse_program(text).program, query).outcome is Outcome.PROVED
        assert len(calls) <= 2 * (n + 1)

    def test_arity_clashes_are_refused_before_the_search(self, monkeypatch):
        """A goal or lemma that clashes with the program, or a lemma that
        clashes with the goal, raises before any search, in every mode:
        the first clash read goal first, head before body.  So the index
        keys entries by head key alone."""
        program = load("pair").program
        env = env_for_program(program)
        search = engine._Search(env, Mode.INDUCTIVE, 4, [])
        assert search._static(head_key(parse_atom("eq(int)"))) == (env.entries[1],)
        assert search._static(head_key(parse_atom("ne(int)"))) == ()

        def searched(*args):
            raise AssertionError("a refused query was searched")

        monkeypatch.setattr(engine, "_attempt", searched)
        for goal, lemmas, message in (
            ("eq(int,int)", (), "predicate eq used with arities 1 and 2"),
            ("eq", (), "predicate eq used with arities 1 and 0"),
            ("eq(pair(int))", (), "functor pair used with arities 2 and 1"),
            ("eq(int) => eq(int,int)", (), "predicate eq used with arities 1 and 2"),
            ("eq(int)", ("eq(X) => eq(pair(X))",), "functor pair used with arities 2 and 1"),
            ("ne(f(int))", ("ne(f(int,int))",), "functor f used with arities 1 and 2"),
            ("ne(f(int,int))", ("ne(int) => ne(f(int))",), "functor f used with arities 2 and 1"),
        ):
            for mode in Mode:
                query = Query(parse_formula(goal), mode, lemmas=tuple(map(parse_formula, lemmas)))
                with pytest.raises(SignatureError, match=rf"^{re.escape(message)}$"):
                    resolve(program, query)

    def test_head_keys_are_computed_once_per_entry_and_goal(self, monkeypatch):
        """The chain k_i : p(c_(i-1)) => p(c_i) gives each goal its own head
        key.  Each entry's key is read once per search and each goal's once
        per visit, not the whole predicate's once per new goal key."""
        n = 300
        calls = []
        key = engine.head_key
        monkeypatch.setattr(engine, "head_key", lambda *args: calls.append(args) or key(*args))
        text = "k0 : => p(c0).\n" + "".join(f"k{i} : p(c{i - 1}) => p(c{i}).\n" for i in range(1, n + 1))
        program = parse_program(text).program
        result = resolve(program, Query(parse_formula(f"p(c{n})"), Mode.INDUCTIVE, n + 2))
        assert result.outcome is Outcome.PROVED
        assert len(calls) < 4 * (n + 1)

    def test_a_coinductive_goal_is_keyed_once_per_step(self, monkeypatch):
        """diamond-n, k_i : eq(c_(i-1)), eq(c_(i-1)) => eq(c_i): each of the
        n + 1 goal steps binds its own nu-hyp and collects its hypotheses
        and axioms with one `head_key` (three, one per use, before)."""
        n = 12
        keyed, steps = [], []
        key, step = engine.head_key, engine._Search.solve_atomic
        monkeypatch.setattr(engine, "head_key", lambda *args: keyed.append(args) or key(*args))
        monkeypatch.setattr(
            engine._Search, "solve_atomic", lambda self, goal, ctx: steps.append(goal) or step(self, goal, ctx)
        )
        text = "k0 : => eq(c0).\n" + "".join(
            f"k{i} : eq(c{i - 1}), eq(c{i - 1}) => eq(c{i}).\n" for i in range(1, n + 1)
        )
        query = Query(parse_formula(f"eq(c{n})"), Mode.COINDUCTIVE, n + 1)
        assert resolve(parse_program(text).program, query).outcome is Outcome.PROVED
        assert len(steps) == n + 1
        assert keyed == [(goal,) for goal in steps]

    def test_each_axiom_head_is_keyed_once_per_load_and_resolve(self, monkeypatch):
        """The load keys every head at argument 0 for the overlap check; the
        environment and the search take those keys from the program."""
        keyed = []
        for module in (terms, proofs, engine):
            real = module.head_key
            monkeypatch.setattr(
                module, "head_key", lambda atom, *rest, real=real: keyed.append(atom) or real(atom, *rest)
            )
        n = 40
        text = "k0 : => eq(c).\n" + "".join(f"k{i} : eq(X), eq(Y) => eq(t{i}(X,Y)).\n" for i in range(1, n + 1))
        src = parse_program(text)
        result = resolve(src.program, Query(parse_formula("eq(t7(c,t3(c,c)))"), Mode.EXTENDED), src.names)
        assert result.outcome is Outcome.PROVED
        heads = {id(c.head) for c in src.program.clauses}
        assert sorted(id(a) for a in keyed if id(a) in heads) == sorted(heads)
        # With a lemma, the search keys the lemma's head and keeps the axioms' keys.
        keyed.clear()
        lemma = parse_formula("eq(X) => eq(t7(c,X))")
        lemma_env = env_for_program(src.program, src.names).add_lemma(
            Apply(ConstSym("k7"), ConstSym("k0")), lemma
        )
        search = engine._Search(lemma_env, Mode.EXTENDED, 4, [])
        assert keyed == [lemma.head] and search.entries[0] is lemma_env.lemmas[0]
        assert search.by_head[("eq", "t7")] == [0, 8]

    def test_embedding_scan_only_under_auto_lemma(self, monkeypatch):
        calls = []
        embeds = engine._embeds
        monkeypatch.setattr(engine, "_embeds", lambda g, a: calls.append(g) or embeds(g, a))
        plain = run("bush", "eq(bush(int))", Mode.EXTENDED, depth=6)
        assert plain.outcome is Outcome.EXHAUSTED and calls == []
        auto = run("bush", "eq(bush(int))", Mode.EXTENDED, depth=6, auto=True)
        assert auto.outcome is Outcome.PROVED and calls


class TestLazyTrace:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_trace_never_read_is_never_formatted(self, mode, monkeypatch):
        """Search notes raw records; no matcher is rendered and no
        TraceEvent is built until `trace` is read."""
        counts = {"format_subst": 0, "TraceEvent": 0}
        real_subst, real_event = engine.format_subst, engine.TraceEvent

        def format_subst(s):
            counts["format_subst"] += 1
            return real_subst(s)

        def trace_event(*args):
            counts["TraceEvent"] += 1
            return real_event(*args)

        monkeypatch.setattr(engine, "format_subst", format_subst)
        monkeypatch.setattr(engine, "TraceEvent", trace_event)
        for name, text in (("bush", "eq(bush(int))"), ("evenodd", "eq(evenList(int))")):
            result = run(name, text, mode, depth=6, auto=True)
            assert len(result.trace) > 5
            assert counts == {"format_subst": 0, "TraceEvent": 0}
        events = tuple(result.trace)
        tries = sum(e.kind == "try" for e in events)
        assert counts == {"format_subst": tries, "TraceEvent": len(events)} and tries
        assert result.trace == events and counts["TraceEvent"] == len(events)

    def test_pickles_copies_and_tuples_see_the_same_events(self):
        result = run("bush", "eq(bush(int))", Mode.EXTENDED, depth=6, auto=True)
        events = tuple(result.trace)
        assert any(e.entry == "lemma[1]" for e in events)
        for restored in (pickle.loads(pickle.dumps(result)), copy.copy(result), copy.deepcopy(result)):
            assert restored == result and restored.trace == events and events == restored.trace
            assert repr(restored) == repr(result)
        assert hash(result.trace) == hash(events) and repr(result.trace) == repr(events)
        assert result.trace != events[1:] and result.trace != list(events)
