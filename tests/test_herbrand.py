"""Tests for the bounded Herbrand-model oracle."""

import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohorn import (
    Interpretation,
    Policy,
    Semantics,
    Verdict,
    certify_gfp,
    gfp_bounded,
    herbrand_base,
    lfp,
    parse_atom,
    parse_formula,
    preserves_model,
    valid,
)
from cohorn import herbrand
from cohorn.herbrand import (
    AtomSet,
    BaseTooLargeError,
    CertificateInvariantError,
    HerbrandBase,
    _check_post_fixed,
    _ground_program,
    bounded_size,
)
from cohorn.terms import (
    App,
    Atom,
    HornClause,
    Program,
    Signature,
    Var,
    apply_atom,
    atom_vars,
    clause_vars,
    signature_of,
)

import reference_herbrand
from reference_herbrand import empty_interpretation, full_interpretation, tp_monotone_check, tp_step
from reference_terms import (
    apply_clause,
    atom_sort_key,
    enumerate_ground_terms,
    ground_instances,
    term_sort_key,
)
from helpers import load, program_queries, random_clause, random_program


def atoms(interp_or_set):
    source = getattr(interp_or_set, "atoms", interp_or_set)
    return [str(a) for a in sorted(source, key=atom_sort_key)]


class TestTpStep:
    def test_pair_from_empty(self):
        src = load("pair")
        base = herbrand_base(src.program.signature, 2)
        out = tp_step(src.program, empty_interpretation(base))
        assert atoms(out) == ["eq(int)"]

    def test_pair_second_step(self):
        src = load("pair")
        base = herbrand_base(src.program.signature, 2)
        start = Interpretation(frozenset({parse_atom("eq(int)")}), base)
        out = tp_step(src.program, start)
        assert atoms(out) == ["eq(int)", "eq(pair(int,int))"]

    def test_contained_in_base(self):
        src = load("evenodd")
        base = herbrand_base(src.program.signature, 2)
        out = tp_step(src.program, full_interpretation(base))
        assert out.atoms <= base.atoms


class TestLfp:
    def test_pair(self):
        src = load("pair")
        assert atoms(lfp(src.program, 2)) == ["eq(int)", "eq(pair(int,int))"]

    def test_evenodd_stays_finite(self):
        src = load("evenodd")
        assert atoms(lfp(src.program, 2)) == ["eq(int)"]

    def test_p6_truncated(self):
        src = load("p6")
        assert atoms(lfp(src.program, 3)) == ["A(g)", "A(f(g))", "A(f(f(g)))"]

    def test_is_fixed_point(self):
        for name in ("pair", "evenodd", "p6", "p11"):
            src = load(name)
            m = lfp(src.program, 3)
            assert tp_step(src.program, m).atoms == m.atoms


class TestGfpBounded:
    def test_evenodd_pessimistic(self):
        src = load("evenodd")
        out = gfp_bounded(src.program, 2, Policy.PESSIMISTIC)
        assert atoms(out) == ["eq(int)", "eq(evenList(int))", "eq(oddList(int))"]

    def test_loop_is_empty(self):
        src = load("loop")
        out = gfp_bounded(src.program, 4, Policy.PESSIMISTIC, extra_constants=["g"])
        assert atoms(out) == []
        out = gfp_bounded(src.program, 4, Policy.OPTIMISTIC, extra_constants=["g"])
        assert atoms(out) == []

    def test_policy_monotonicity(self):
        for name in ("pair", "evenodd", "bush", "p11"):
            src = load(name)
            pess = gfp_bounded(src.program, 3, Policy.PESSIMISTIC)
            opt = gfp_bounded(src.program, 3, Policy.OPTIMISTIC)
            assert pess.atoms <= opt.atoms

    def test_pessimistic_is_fixed_point(self):
        for name in ("pair", "evenodd", "bush"):
            src = load(name)
            m = gfp_bounded(src.program, 3, Policy.PESSIMISTIC)
            assert tp_step(src.program, m, Policy.PESSIMISTIC).atoms == m.atoms

    def test_lfp_below_optimistic_gfp(self):
        for name in ("pair", "evenodd", "bush", "p6", "p7", "p11", "chain"):
            src = load(name)
            low = lfp(src.program, 3)
            high = gfp_bounded(src.program, 3, Policy.OPTIMISTIC)
            assert low.atoms <= high.atoms


class TestCertificates:
    def test_evenodd_support(self):
        src = load("evenodd")
        cert = certify_gfp(src.program, parse_atom("eq(evenList(int))"), 3)
        assert atoms(cert.support) == ["eq(int)", "eq(evenList(int))", "eq(oddList(int))"]
        assert cert.exact

    def test_pair_lfp_members_certify(self):
        src = load("pair")
        cert = certify_gfp(src.program, parse_atom("eq(pair(int,int))"), 2)
        assert atoms(cert.support) == ["eq(int)", "eq(pair(int,int))"]
        assert cert.exact

    def test_loop_has_no_certificate(self):
        src = load("loop")
        assert certify_gfp(src.program, parse_atom("p(g)"), 5) is None

    def test_p11_support_within_bound(self):
        src = load("p11")
        cert = certify_gfp(src.program, parse_atom("D(z,z)"), 6)
        assert cert is not None
        for text in ("D(z,z)", "D(s(z),z)", "D(z,s(z))", "D(s(z),s(z))"):
            assert parse_atom(text) in cert.support
        assert not cert.exact  # the chain leans on the bound

    def test_revalidation_by_tp_step(self):
        src = load("p11")
        cert = certify_gfp(src.program, parse_atom("D(z,z)"), 6)
        base = herbrand_base(src.program.signature, 6)
        stepped = tp_step(src.program, Interpretation(cert.support, base), Policy.OPTIMISTIC)
        assert cert.support <= stepped.atoms

    def test_exact_certificates_are_true_post_fixed_points(self):
        src = load("evenodd")
        cert = certify_gfp(src.program, parse_atom("eq(oddList(int))"), 3)
        assert cert.exact
        base = herbrand_base(src.program.signature, 3)
        stepped = tp_step(src.program, Interpretation(cert.support, base), Policy.PESSIMISTIC)
        assert cert.support <= stepped.atoms

    def test_a_support_missing_a_supporting_instance_is_refused(self):
        """The post-fixed-point check reads the support alone: drop q(c)
        and p(c) keeps no instance whose body lies in the support."""
        src = parse_program_text("k1 : q(X) => p(X).\nk2 : r(X) => q(X).\nk3 : => r(c).\n")
        cert = certify_gfp(src.program, parse_atom("p(c)"), 1)
        assert atoms(cert.support) == ["p(c)", "q(c)", "r(c)"]
        base = herbrand_base(src.program.signature, 1)
        g = _ground_program(src.program, base)
        support = bytearray(base.size)
        for a in cert.support:
            support[base.atom_id(a)] = 1
        _check_post_fixed(g, support)
        support[base.atom_id(parse_atom("q(c)"))] = 0
        with pytest.raises(CertificateInvariantError, match="not a post-fixed point"):
            _check_post_fixed(g, support)


class TestValidity:
    def test_p7_horn_formula_inductively_valid(self):
        src = load("p7")
        v = valid(src.program, parse_formula("B(X) => A(X)"), Semantics.IND, 1)
        assert v.status is Verdict.VALID

    def test_evenodd_coinductive_vs_inductive(self):
        src = load("evenodd")
        f = parse_formula("eq(evenList(int))")
        assert valid(src.program, f, Semantics.COIND, 2).status is Verdict.VALID
        v = valid(src.program, f, Semantics.IND, 2)
        assert v.status is Verdict.INVALID
        assert v.counterexample == {}

    def test_facts_valid_in_both_semantics(self):
        for name in ("pair", "evenodd", "p6", "p7"):
            src = load(name)
            for clause in src.program.clauses:
                if clause.is_atomic:
                    for sem in Semantics:
                        assert valid(src.program, clause, sem, 2).status is Verdict.VALID

    def test_unknown_when_bound_too_small(self):
        src = load("p6")
        v = valid(src.program, parse_formula("A(f(f(f(f(g)))))"), Semantics.IND, 2)
        assert v.status is Verdict.UNKNOWN

    def test_deep_counterexample_is_written_without_recursion(self):
        """The INVALID note names its instance from the base's ids, so a
        1,500-deep counterexample raises no RecursionError."""
        src = parse_program_text("k1 : => p(z).\nk2 : p(X) => p(s(X)).\n")
        term = App("z")
        for _ in range(1500):
            term = App("s", (term,))
        v = valid(src.program, HornClause((), Atom("q", (term,))), Semantics.IND, 1600)
        assert v.status is Verdict.INVALID
        assert v.note == f"instance q({'s(' * 1500}z{')' * 1501} fails at depth 1600"


class TestLemmaOneExecutable:
    """Facts are valid, and clause steps preserve validity, in both semantics."""

    def test_clause_step_preserves_validity(self):
        rng = random.Random(5)
        from cohorn.terms import clause_vars
        from cohorn import App

        pool = [App("c"), App("f", (App("c"),))]
        checked = 0
        for _ in range(40):
            program = random_program(rng)
            for sem in Semantics:
                model = (
                    lfp(program, 3)
                    if sem is Semantics.IND
                    else gfp_bounded(program, 3, Policy.OPTIMISTIC)
                )
                for clause in program.clauses:
                    grounding = {v: rng.choice(pool) for v in clause_vars(clause)}
                    inst = apply_clause(grounding, clause)
                    if inst.head not in model.base.atoms:
                        continue
                    if any(b not in model.base.atoms for b in inst.body):
                        continue
                    if all(b in model.atoms for b in inst.body):
                        assert inst.head in model.atoms
                        checked += 1
        assert checked > 50


class TestStepLamExecutable:
    """If P plus facts B1..Bn gives A, then B1,...,Bn => A holds in P.

    Verdicts are bound-relative, so the executable reading is: a VALID
    premise never yields a definitively INVALID conclusion (a conclusion
    instance may remain boundary-uncertain, as for the bush lemma whose
    pessimistic support always leans on the bound).
    """

    @pytest.mark.parametrize("name,formula,sem,expect", [
        ("p7", "B(X) => A(X)", Semantics.IND, Verdict.VALID),
        ("chain", "A => C", Semantics.IND, Verdict.VALID),
        ("chain", "A => C", Semantics.COIND, Verdict.VALID),
        ("bush", "eq(X) => eq(bush(X))", Semantics.COIND, Verdict.UNKNOWN),
    ])
    def test_on_corpus(self, name, formula, sem, expect):
        from cohorn.terms import fact

        src = load(name)
        f = parse_formula(formula)
        with_facts = src.program
        for b in f.body:
            with_facts = with_facts.extended(fact(b))
        head_valid = valid(with_facts, fact(f.head), sem, 2)
        assert head_valid.status is Verdict.VALID
        conclusion = valid(src.program, f, sem, 2)
        assert conclusion.status is not Verdict.INVALID
        assert conclusion.status is expect


class TestPreservesModel:
    def test_chain_lemma_inductively(self):
        src = load("chain")
        cmp = preserves_model(src.program, parse_formula("A => C"), Semantics.IND, 1)
        assert cmp.preserved

    def test_no_difference_builds_no_universe(self, monkeypatch):
        """Where no atom differs, the base's terms are never built as `App`s."""
        bases = []
        build = herbrand.herbrand_base
        monkeypatch.setattr(herbrand, "herbrand_base", lambda *args: bases.append(build(*args)) or bases[-1])
        cmp = preserves_model(load("pair").program, parse_formula("eq(X) => eq(pair(X,X))"), Semantics.IND, 4)
        assert cmp.preserved and cmp.removed == cmp.added == ()
        assert len(bases) == 1 and not hasattr(bases[0], "_universe")
        assert list(AtomSet(bases[0], bytes(bases[0].size))) == []
        assert not hasattr(bases[0], "_universe")

    def test_identity_breaks_coinductive_model(self):
        src = parse_program_text("k1 : A => B.")
        cmp = preserves_model(src.program, parse_formula("A => A"), Semantics.COIND, 1)
        assert not cmp.preserved
        assert [str(a) for a in cmp.removed + cmp.added] == ["A", "B"]
        # the difference atoms certify in the extended program only
        for atom, before, after in cmp.certificates:
            assert not before and after

    def test_certificates_match_certify_gfp(self):
        """Each differing atom is certified from the one grounding per
        program, with its indexes built once; the answers are those of a
        fresh `certify_gfp` per atom and program."""
        src = parse_program_text("k1 : p(X) => p(s(X)).\nk2 : q(X), p(X) => q(s(X)).\nk3 : => q(z).\n")
        extended = src.program.extended(parse_formula("p(z)"))
        cmp = preserves_model(src.program, parse_formula("p(z)"), Semantics.COIND, 4)
        assert len(cmp.certificates) >= 6
        for atom, before, after in cmp.certificates:
            assert before == (certify_gfp(src.program, atom, 4) is not None), atom
            assert after == (certify_gfp(extended, atom, 4) is not None), atom
        assert {before for _, before, _ in cmp.certificates} == {False}
        assert {after for _, _, after in cmp.certificates} == {True}

    def test_certificates_take_one_checked_support_per_program(self, monkeypatch):
        """At depth 400 the 799 differing atoms are certified from one
        support per program, each checked once, so the work is linear in
        the base rather than one support and one check per atom."""
        sizes = []
        check = herbrand._check_post_fixed

        def counted(g, support):
            sizes.append(support.count(1))
            check(g, support)

        monkeypatch.setattr(herbrand, "_check_post_fixed", counted)
        src = parse_program_text("k1 : p(X) => p(s(X)).\nk2 : q(X), p(X) => q(s(X)).\nk3 : => q(z).\n")
        cmp = preserves_model(src.program, parse_formula("p(z)"), Semantics.COIND, 400)
        assert len(cmp.certificates) == 799
        assert len(sizes) == 2 and sum(sizes) <= 800, sizes

    def test_bush_lemma_coinductively(self):
        src = load("bush")
        cmp = preserves_model(
            src.program, parse_formula("eq(X) => eq(bush(X))"), Semantics.COIND, 3
        )
        assert cmp.preserved

    def test_chain_lemma_coinductively(self):
        src = load("chain")
        cmp = preserves_model(src.program, parse_formula("A => C"), Semantics.COIND, 1)
        assert cmp.preserved


def parse_program_text(text):
    from cohorn import parse_program

    return parse_program(text)


class TestMonotonicity:
    def test_empty_below_base(self):
        src = load("evenodd")
        base = herbrand_base(src.program.signature, 2)
        assert tp_monotone_check(
            src.program, empty_interpretation(base), full_interpretation(base)
        )

    def test_reflexive(self):
        src = load("pair")
        base = herbrand_base(src.program.signature, 2)
        i = tp_step(src.program, full_interpretation(base))
        assert tp_monotone_check(src.program, i, i)

    def test_randomized_chains(self):
        rng = random.Random(29)
        for _ in range(60):
            program = random_program(rng)
            base = herbrand_base(program.signature, 3)
            all_atoms = sorted(base.atoms, key=str)
            small = frozenset(a for a in all_atoms if rng.random() < 0.4)
            big = small | frozenset(a for a in all_atoms if rng.random() < 0.4)
            for policy in Policy:
                assert tp_monotone_check(
                    program,
                    Interpretation(small, base),
                    Interpretation(big, base),
                    policy,
                )


# ---------------------------------------------------------------------------
# The oracle against its naive references
# ---------------------------------------------------------------------------


def brute_force_grounding(program, base):
    """Every instantiation over the universe with an in-base head, as
    (head, in-base body atoms, out-of-base body atoms)."""
    out = []
    for clause in program.clauses:
        for inst in ground_instances(clause, base.universe):
            if inst.head not in base.atoms:
                continue
            inside = tuple(b for b in inst.body if b in base.atoms)
            outside = tuple(b for b in inst.body if b not in base.atoms)
            out.append((inst.head, inside, outside))
    return out


def read_instances(grounding, base):
    """The oracle's id-based instances in the same atom form."""
    atoms = tuple(base.atoms)
    return [
        (atoms[head], tuple(atoms[b] for b in body), grounding.outside.get(i, ()))
        for i, (head, body) in enumerate(zip(grounding.heads, grounding.bodies))
    ]


def by_head(instances):
    out = {}
    for inst in instances:
        out.setdefault(inst[0], []).append(inst)
    return out


def naive_iterate(program, base, start, policy):
    """The fixpoint loop as the definition states it: re-apply T_P until it
    stops changing; (atoms, applications of T_P)."""
    current = Interpretation(start, base)
    rounds = 1
    while (nxt := tp_step(program, current, policy)).atoms != current.atoms:
        current = nxt
        rounds += 1
    return current.atoms, rounds


def seeded_programs(seed, count):
    """Random programs; every other one gains an added (lemma) clause, which
    is exempt from the overlap check, so some heads get two instances."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        program = random_program(rng)
        out.append(program.extended(random_clause(rng)) if k % 2 else program)
    return out


class TestOracleAgainstReferences:
    def test_head_driven_grounding_matches_brute_force(self):
        for k, program in enumerate(seeded_programs(61, 200)):
            base = herbrand_base(program.signature, 1 + k % 3)
            fast = read_instances(_ground_program(program, base), base)
            slow = brute_force_grounding(program, base)
            # Same instances, and each head keeps its clause order, which
            # certify_gfp relies on when it picks a supporting instance.
            assert by_head(fast) == by_head(slow)
            assert len(fast) == len(slow)

    def test_fixpoints_match_naive_iteration(self):
        for k, program in enumerate(seeded_programs(62, 200)):
            depth = 1 + k % 3
            base = herbrand_base(program.signature, depth)
            got = lfp(program, depth)
            assert (got.atoms, got.rounds) == naive_iterate(program, base, frozenset(), Policy.PESSIMISTIC)
            assert got.rounds <= got.base_atoms + 1
            for policy in Policy:
                got = gfp_bounded(program, depth, policy)
                assert (got.atoms, got.rounds) == naive_iterate(program, base, base.atoms, policy)
                assert got.rounds <= got.base_atoms + 1


class TestOracleScale:
    """The bounded base of pair at depth 5 has u_5 = 677 terms.  Grounding
    over universe^vars made this lfp take seconds."""

    def test_pair_lfp_depth_five(self):
        src = load("pair")
        m = lfp(src.program, 5)
        assert len(m.atoms) == 677
        assert all(a.predicate == "eq" for a in m.atoms)

    def test_p11_certificate_depth_seven(self):
        src = load("p11")
        cert = certify_gfp(src.program, parse_atom("D(z,z)"), 7)
        assert cert is not None
        assert parse_atom("D(z,z)") in cert.support


class TestFixpointsRunToConvergence:
    """A fixpoint runs until a round changes nothing: one round per atom
    added or removed, plus that last one.  These climb past 10,000 rounds."""

    def test_least_model_of_a_long_unary_chain(self):
        program = parse_program_text("k1 : => p(z).\nk2 : p(X) => p(s(X)).\n").program
        m = lfp(program, 10_002)
        assert (len(m.atoms), m.rounds) == (10_002, 10_003)
        formula = parse_formula("p(X) => p(s(X))")
        assert valid(program, formula, Semantics.IND, 10_002).status is Verdict.VALID

    def test_pessimistic_greatest_model_drops_a_long_chain(self):
        # p(s^k(z)) leans on p(s^(k+1)(z)), which the base cuts off at its
        # top; removing them takes one round each.
        program = parse_program_text("k1 : p(s(X)) => p(X).\nk2 : => q(z).\n").program
        m = gfp_bounded(program, 10_002)
        assert atoms(m) == ["q(z)"]
        assert m.rounds == 10_003


class TestGroundHeadLookup:
    def test_ground_heads_make_no_match_call(self, monkeypatch):
        """A ground head argument is looked up by its id, not matched
        against every universe term."""
        calls = Counter()
        match = herbrand._match

        def counting(terms, p, t, env):
            calls["match"] += 1
            return match(terms, p, t, env)

        monkeypatch.setattr(herbrand, "_match", counting)
        # q(f(f(c0))) lies beyond the depth-2 base.
        src = parse_program_text(
            "k0 : => p(c0).\nk1 : p(c0) => p(f(c0)).\nk2 : p(f(c0)) => q(f(f(c0))).\n"
            "k3 : p(f(c0)), q(f(f(c0))) => q(c1).\n"
        )
        base = herbrand_base(src.program.signature, 2)
        g = _ground_program(src.program, base)
        assert read_instances(g, base) == brute_force_grounding(src.program, base)
        assert len(g.heads) == 3
        assert atoms(lfp(src.program, 2)) == ["p(c0)", "p(f(c0))"]
        assert calls["match"] == 0
        # A head argument with a variable is still matched.
        lfp(load("pair").program, 2)
        assert calls["match"] > 0


class TestOracleCounters:
    def test_lfp_counters(self):
        src = load("pair")
        m = lfp(src.program, 2)
        # base {eq(int), eq(pair(int,int))}; one instance per head; the third
        # round finds nothing new.
        assert (m.base_atoms, m.instances, m.rounds) == (2, 2, 3)

    def test_counters_ignored_by_equality(self):
        src = load("pair")
        m = lfp(src.program, 2)
        assert m == Interpretation(m.atoms, m.base)

    def test_certificate_counters(self):
        """The optimistic gfp of the atoms the target reaches: D(z,z) at
        depth 6 reaches the 21 atoms D(s^i(z),s^j(z)) with i + j <= 5, one
        instance each, and the gfp takes one round; eq(evenList(int))
        reaches three atoms."""
        cert = certify_gfp(load("p11").program, parse_atom("D(z,z)"), 6)
        assert (cert.base_atoms, cert.instances, cert.rounds) == (21, 21, 1)
        cert = certify_gfp(load("evenodd").program, parse_atom("eq(evenList(int))"), 3)
        assert (cert.base_atoms, cert.instances, cert.rounds) == (3, 3, 1)
        assert len(cert.support) == 3


# ---------------------------------------------------------------------------
# Integer ids: the base's numbering against its definition
# ---------------------------------------------------------------------------


def random_signature(rng):
    """Signatures with no constants (an empty universe), constants only,
    zero-arity predicates, and unary and binary functors."""
    funcs = {name: 0 for name in rng.sample(["a", "b", "c"], rng.randint(0, 2))}
    for name in rng.sample(["f", "g"], rng.randint(0, 2)):
        funcs[name] = rng.randint(1, 2)
    preds = {p: rng.randint(0, 2) for p in rng.sample(["p", "q", "r", "s"], rng.randint(1, 3))}
    return Signature(funcs, preds)


class TestBaseIds:
    def test_id_order_is_atom_sort_key_order(self):
        rng = random.Random(71)
        seen = Counter()
        for _ in range(300):
            sig = random_signature(rng)
            extra = rng.sample(["a", "k", "z"], rng.randint(0, 2))
            binary = 2 in sig.functions.values()
            depth = rng.randint(1, 2 if binary else 3)
            base = herbrand_base(sig, depth, extra)
            universe = enumerate_ground_terms(sig.with_constants(extra), depth)
            want = sorted(
                (Atom(p, args) for p, n in sig.predicates.items() for args in product(universe, repeat=n)),
                key=atom_sort_key,
            )
            assert list(base.atoms) == want
            assert list(base.universe) == sorted(universe, key=term_sort_key)
            assert len(base.atoms) == len(want)
            assert [base.atom_id(a) for a in want] == list(range(len(want)))
            assert base.atoms == frozenset(want) and frozenset(want) == base.atoms
            assert hash(base.atoms) == hash(frozenset(want))
            assert all(a in base.atoms for a in want)
            for p, n in sig.predicates.items():
                assert Atom(p, (Var("X"),) * n) not in base.atoms or n == 0
                assert Atom(p, (App("c"),) * (n + 1)) not in base.atoms
            seen["empty universe"] += not universe
            seen["constants only"] += bool(universe) and not any(sig.functions.values())
            seen["zero-arity predicate"] += 0 in sig.predicates.values()
            seen["extra constants"] += bool(extra)
        assert min(seen.values()) >= 20, seen

    def test_texts_are_the_members_strings(self):
        """`AtomSet.texts` prints what `str` prints of each member, in id
        order, for the whole base, empty sets and random masks."""
        rng = random.Random(73)
        for _ in range(300):
            sig = random_signature(rng)
            depth = rng.randint(1, 2 if 2 in sig.functions.values() else 3)
            base = herbrand_base(sig, depth, rng.sample(["a", "k"], rng.randint(0, 1)))
            for mask in (None, bytes(base.size), bytes(rng.randint(0, 1) for _ in range(base.size))):
                atoms = AtomSet(base, mask)
                assert list(atoms.texts()) == [str(a) for a in atoms]

    def test_bounded_size_is_the_enumerated_size(self):
        rng = random.Random(72)
        for _ in range(300):
            sig = random_signature(rng)
            extra = rng.sample(["a", "k", "z"], rng.randint(0, 2))
            depth = rng.randint(1, 3)
            base = herbrand_base(sig, depth, extra, max_atoms=10**6)
            size = max(len(base.universe), base.size)
            full = sig.with_constants(extra)
            assert bounded_size(full, depth, 10**6) == size
            assert bounded_size(full, depth, size) == size
            assert bounded_size(full, depth, size - 1) == size
            assert herbrand_base(sig, depth, extra, max_atoms=size) == base
            with pytest.raises(BaseTooLargeError):
                herbrand_base(sig, depth, extra, max_atoms=size - 1)

    def test_bounded_size_saturates(self):
        # u_d grows doubly exponentially; no number beyond cap + 1 is built.
        sig = Signature({"c": 0, "f": 2}, {"p": 1})
        assert bounded_size(sig, 10**9, 100) == 101
        assert bounded_size(Signature({"c": 0, "f": 1}, {"p": 0}), 10**9, 10**4) == 10**4 + 1
        assert bounded_size(Signature({"f": 2}, {"p": 1, "q": 0}), 10**9, 10) == 1

    def test_interpretations_print_in_id_order(self):
        src = load("pair")
        m = gfp_bounded(src.program, 3, Policy.OPTIMISTIC)
        assert list(m.atoms) == sorted(m.atoms, key=atom_sort_key)


class TestLazyUniverse:
    """A base holds term ids only, and builds its `universe` of `App`s when
    an atom beyond it or a counterexample needs one."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The bases that the oracle builds, each holding no `App` when built."""
        bases = []

        def build(*args, **kwargs):
            base = herbrand_base(*args, **kwargs)
            assert not hasattr(base, "_universe")
            bases.append(base)
            return base

        monkeypatch.setattr(herbrand, "herbrand_base", build)
        return bases

    def test_a_model_without_out_of_base_atoms_builds_no_term(self, built):
        m = lfp(load("pair").program, 5)
        assert len(m.atoms) == 677 and len(list(m.atoms.texts())) == 677
        assert built == [m.base] and not hasattr(m.base, "_universe")

    def test_out_of_base_atoms_build_the_universe(self, built):
        m = gfp_bounded(parse_program_text(_CYCLE).program, 2, Policy.OPTIMISTIC)
        assert built == [m.base] and m.base._universe == (App("c"), App("f", (App("c"), App("c"))))

    def test_only_an_invalid_verdict_builds_the_universe(self, built):
        program = load("pair").program
        v = valid(program, parse_formula("eq(X), eq(Y) => eq(pair(Y,X))"), Semantics.IND, 3)
        assert v.status is Verdict.VALID
        assert not hasattr(built[0], "_universe")
        v = valid(program, parse_formula("eq(X) => r(X)"), Semantics.IND, 3)
        assert (v.status, v.counterexample) == (Verdict.INVALID, {"X": App("int")})
        assert hasattr(built[1], "_universe")


# ---------------------------------------------------------------------------
# valid and preserves_model against the universe^vars enumeration
# ---------------------------------------------------------------------------


def reference_valid(program, formula, semantics, depth):
    """valid as first written: every grounding of universe^vars, in product
    order, against naively iterated fixpoints; (status, counterexample, note)."""
    sig = program.signature.merged(signature_of([formula.head, *formula.body]))
    base = herbrand_base(sig, depth)
    start = frozenset() if semantics is Semantics.IND else base.atoms
    sure, _ = naive_iterate(program, base, start, Policy.PESSIMISTIC)
    maybe, _ = naive_iterate(program, base, start, Policy.OPTIMISTIC)
    names = clause_vars(formula)
    checked, undecided = 0, False
    for combo in product(base.universe, repeat=len(names)):
        s = dict(zip(names, combo))
        head = apply_atom(s, formula.head)
        body = [apply_atom(s, b) for b in formula.body]
        if head not in base.atoms or any(b not in base.atoms for b in body):
            continue
        checked += 1
        if any(b not in maybe for b in body) or head in sure:
            continue
        if all(b in sure for b in body) and head not in maybe:
            return Verdict.INVALID, s, f"instance {head} fails at depth {depth}"
        undecided = True
    if checked == 0:
        return Verdict.UNKNOWN, None, "no grounding of the formula fits inside the bounded base"
    if undecided:
        return Verdict.UNKNOWN, None, "some instance is boundary-uncertain at this depth"
    return Verdict.VALID, None, ""


def reference_preserves_model(program, formula, semantics, depth):
    """preserves_model as first written: naive fixpoints, and a fresh
    certify_gfp (own base, own grounding) per differing atom and program."""
    extended = program.extended(formula)
    base = herbrand_base(extended.signature, depth)
    if semantics is Semantics.IND:
        start, policy = frozenset(), Policy.PESSIMISTIC
    else:
        start, policy = base.atoms, Policy.OPTIMISTIC
    before, _ = naive_iterate(program, base, start, policy)
    after, _ = naive_iterate(extended, base, start, policy)
    removed = tuple(sorted(set(before) - set(after), key=atom_sort_key))
    added = tuple(sorted(set(after) - set(before), key=atom_sort_key))
    certs = ()
    if semantics is Semantics.COIND:
        certs = tuple(
            (a, certify_gfp(program, a, depth) is not None, certify_gfp(extended, a, depth) is not None)
            for a in removed + added
        )
    return not removed and not added, removed, added, certs


def random_formula(rng, signature):
    """A Horn formula over the signature's predicates whose body may use
    variables that its head does not bind."""

    def term(d):
        funcs = sorted(signature.functions.items())
        compound = [(f, n) for f, n in funcs if n]
        if d <= 1 or not compound or rng.random() < 0.4:
            if rng.random() < 0.6:
                return Var(rng.choice("XYZ"))
            return App(rng.choice([f for f, n in funcs if not n] or ["c"]))
        f, n = rng.choice(compound)
        return App(f, tuple(term(d - 1) for _ in range(n)))

    def atom():
        p, n = rng.choice(sorted(signature.predicates.items()))
        return Atom(p, tuple(term(3) for _ in range(n)))

    return HornClause(tuple(atom() for _ in range(rng.randint(0, 2))), atom())


class TestGroundingsAgainstEnumeration:
    def test_valid_matches_enumeration(self):
        rng = random.Random(73)
        verdicts = Counter()
        for k, program in enumerate(seeded_programs(74, 120)):
            depth = 1 + k % 3
            formulas = program_queries(rng, program) + [random_clause(rng)]
            formulas += [random_formula(rng, program.signature) for _ in range(3)]
            for formula in formulas:
                for semantics in Semantics:
                    v = valid(program, formula, semantics, depth)
                    want = reference_valid(program, formula, semantics, depth)
                    assert (v.status, v.counterexample, v.note) == want, (k, str(formula))
                    verdicts[v.status] += 1
        assert min(verdicts.values()) >= 50, verdicts

    def test_ground_horn_formulas_match_enumeration(self):
        """Horn formulas without variables, judged from the atoms they
        reach, against the whole base's verdict: repeated atoms, atoms
        beyond the depth and atoms no clause defines included."""
        rng = random.Random(77)
        # c to f(f(f(c))), of depths 1 to 4, under p and q and under r,
        # which no clause defines.
        nats = [App("c")]
        while len(nats) < 4:
            nats.append(App("f", (nats[-1],)))
        pool = [Atom(p, (t,)) for p in "pqr" for t in nats]
        verdicts = Counter()
        for k, program in enumerate(seeded_programs(78, 300)):
            depth = 3 + k % 2
            for _ in range(4):
                body = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
                formula = HornClause(body, rng.choice(pool + list(body)))
                for semantics in Semantics:
                    v = valid(program, formula, semantics, depth)
                    want = reference_valid(program, formula, semantics, depth)
                    assert (v.status, v.counterexample, v.note) == want, (k, str(formula))
                    verdicts[v.status] += 1
        assert min(verdicts[v] for v in Verdict) >= 50, verdicts

    def test_preserves_model_matches_enumeration(self):
        rng = random.Random(75)
        changed = 0
        for k, program in enumerate(seeded_programs(76, 120)):
            depth = 1 + k % 3
            for formula in program_queries(rng, program) + [random_clause(rng)]:
                for semantics in Semantics:
                    cmp = preserves_model(program, formula, semantics, depth)
                    got = (cmp.preserved, cmp.removed, cmp.added, cmp.certificates)
                    assert got == reference_preserves_model(program, formula, semantics, depth)
                    changed += bool(cmp.certificates)
        assert changed >= 50

    def test_least_counterexample_in_enumeration_order(self):
        # The head's match order puts f(f(c,c),c) (depth 3) before
        # f(c,f(f(c,c),c)) (depth 4); the enumeration order of (X, Y) puts
        # X = c first.  The verdict names the enumeration's first.
        src = parse_program_text("k1 : => pr(c, f(f(c,c),c)).\nk2 : => pr(f(c,c), c).")
        formula = parse_formula("pr(X,Y) => p(f(X,Y))")
        v = valid(src.program, formula, Semantics.IND, 4)
        assert v.status is Verdict.INVALID
        assert {x: str(t) for x, t in v.counterexample.items()} == {"X": "c", "Y": "f(f(c,c),c)"}
        assert v.note == "instance p(f(c,f(f(c,c),c))) fails at depth 4"
        assert (v.status, v.counterexample, v.note) == reference_valid(
            src.program, formula, Semantics.IND, 4
        )

    def test_first_counterexample_ends_the_search(self, monkeypatch):
        # q has no clauses, so the first grounding, X = Y = Z = int, is a
        # counterexample; only the first slice of |universe| = 26
        # groundings is grounded, none of the other 26^3 - 26.
        src = load("pair")
        formula = parse_formula("eq(X), eq(Y), eq(Z) => q(X)")
        rows = []
        ids_under = HerbrandBase.ids_under

        def counting(base, atom, names, envs):
            rows.append(len(envs))
            return ids_under(base, atom, names, envs)

        monkeypatch.setattr(HerbrandBase, "ids_under", counting)
        v = valid(src.program, formula, Semantics.COIND, 4)
        assert v.status is Verdict.INVALID
        assert {x: str(t) for x, t in v.counterexample.items()} == {"X": "int", "Y": "int", "Z": "int"}
        # k1's body over its 25 instances, then the formula's body over one slice.
        assert rows == [25, 25, 26, 26, 26]
        monkeypatch.undo()
        assert (v.status, v.counterexample, v.note) == reference_valid(
            src.program, formula, Semantics.COIND, 4
        )

    def test_body_only_variables_ground_by_slices(self, monkeypatch):
        # 26^3 = 17,576 groundings, all valid: 676 slices of 26, three body
        # atoms each, read as ids with no atom lookup.
        src = load("pair")
        formula = parse_formula("eq(X), eq(Y), eq(Z) => eq(X)")
        rows, looked_up = Counter(), []
        ids_under = HerbrandBase.ids_under

        def counting(base, atom, names, envs):
            rows[len(envs)] += 1
            return ids_under(base, atom, names, envs)

        monkeypatch.setattr(HerbrandBase, "ids_under", counting)
        monkeypatch.setattr(HerbrandBase, "atom_id", lambda *args: looked_up.append(args))
        verdicts = [valid(src.program, formula, semantics, 4) for semantics in Semantics]
        monkeypatch.undo()
        assert looked_up == []
        assert rows == {25: 2 * 2, 26: 2 * 3 * 676}
        for semantics, v in zip(Semantics, verdicts):
            assert v.status is Verdict.VALID
            assert (v.status, v.counterexample, v.note) == reference_valid(src.program, formula, semantics, 4)

    def test_three_variable_formula_on_pair(self):
        src = load("pair")
        formula = parse_formula("eq(X), eq(Y), eq(Z) => eq(pair(X,pair(Y,Z)))")
        for semantics in Semantics:
            assert valid(src.program, formula, semantics, 4).status is Verdict.VALID


# ---------------------------------------------------------------------------
# The column join against the per-combination grounding it replaced
# ---------------------------------------------------------------------------

# The benchmark's oracle programs (bench/workloads.py `oracle`), each a
# superset of the last.
_PAIR = "k1 : eq(X), eq(Y) => eq(f(X,Y)).\nk2 : => eq(c).\n"
_CYCLE = _PAIR + "ks : r(X,Y) => r(Y,X).\nkg : s(f(X,X)) => s(X).\n"
_TRIPLE = _CYCLE + "kt : eq(X), eq(Y), eq(Z) => t(f(X,f(Y,Z))).\n"
ORACLE_PROGRAMS = (_PAIR, _CYCLE, _TRIPLE)
GOLDEN_PROGRAM = Path(__file__).resolve().parent / "golden" / "oracle.hc"

_VARS = ("X", "Y", "Z")
# Fixed arities, so that a formula drawn over them always fits the program.
_HEAD_PREDS = (("p", 1), ("q", 2), ("r", 0))
_BODY_ONLY_PREDS = (("w", 1), ("v", 2))


def _terms(names, depth):
    """Terms over c, d, f/1 and g/2 whose variables come from `names`."""
    leaves = st.sampled_from([Var(v) for v in names] + [App("c"), App("d")])
    if depth <= 1:
        return leaves
    sub = _terms(names, depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda a: App("f", (a,)), sub),
        st.builds(lambda a, b: App("g", (a, b)), sub, sub),
    )


@st.composite
def _atoms(draw, preds, names):
    pred, arity = draw(st.sampled_from(preds))
    return Atom(pred, tuple(draw(_terms(names, 3)) for _ in range(arity)))


@st.composite
def _clauses(draw, body_names=None):
    """Heads that repeat variables across and inside positions and nest
    compounds; bodies with ground compound arguments and predicates that no
    head defines.  With `body_names`, the body may use variables the head
    does not bind (a formula for `valid`)."""
    head = draw(_atoms(_HEAD_PREDS, _VARS[: draw(st.integers(1, 3))]))
    names = body_names or atom_vars(head)
    body = draw(st.lists(_atoms(_HEAD_PREDS + _BODY_ONLY_PREDS, names), max_size=3))
    return HornClause(tuple(body), head)


@st.composite
def _grounding_inputs(draw):
    """(program, base): the program's clauses are all lemma clauses, so heads
    may overlap and one head may have several instances; the base's
    signature may lack a predicate or give one another arity."""
    program = Program(tuple(draw(st.lists(_clauses(), min_size=1, max_size=4))), axiom_count=0)
    preds = dict(program.signature.predicates)
    pred = draw(st.sampled_from(sorted(preds)))
    change = draw(st.sampled_from(["none", "drop", "arity"]))
    if change == "drop":
        del preds[pred]
    elif change == "arity":
        preds[pred] = (preds[pred] + 1) % 3
    sig = Signature(program.signature.functions, preds)
    extra = draw(st.sampled_from([(), ("c",)]))
    depth = draw(st.integers(1, 3))
    base = herbrand_base(sig, depth, extra)
    while depth > 1 and base.size > 3000:
        depth -= 1
        base = herbrand_base(sig, depth, extra)
    return program, base


def assert_same_grounding(program, base):
    got = _ground_program(program, base)
    want = reference_herbrand.ground_program(program, base)
    # Instance order across heads, and the keys of `outside`, included.
    assert got == want
    assert list(got.outside) == list(want.outside)


class TestGroundingAgainstReference:
    def test_seeded_programs(self):
        for k, program in enumerate(seeded_programs(81, 200)):
            assert_same_grounding(program, herbrand_base(program.signature, 1 + k % 3))

    def test_oracle_programs_at_depth_four(self):
        for text in ORACLE_PROGRAMS + (GOLDEN_PROGRAM.read_text(),):
            program = parse_program_text(text).program
            for depth in (1, 2, 3, 4):
                assert_same_grounding(program, herbrand_base(program.signature, depth))

    @given(_grounding_inputs())
    @settings(max_examples=100, deadline=None)
    def test_drawn_programs(self, inputs):
        assert_same_grounding(*inputs)

    @given(_grounding_inputs(), st.lists(_clauses(_VARS), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_valid_on_drawn_programs(self, inputs, formulas):
        program, base = inputs
        depth = min(base.depth, 2)
        for formula in formulas:
            for semantics in Semantics:
                v = valid(program, formula, semantics, depth)
                want = reference_valid(program, formula, semantics, depth)
                assert (v.status, v.counterexample, v.note) == want, str(formula)

    def test_valid_on_oracle_programs_at_depth_four(self):
        formulas = [
            "eq(X), eq(Y) => eq(f(X,Y))",
            "r(X,Y) => r(Y,X)",
            "s(f(X,X)) => s(X)",
            "eq(X) => r(X, f(X,X))",
            "r(X, f(Y,X)) => eq(Y)",
            "eq(Y) => t(f(c,f(Y,Y)))",
        ]
        for text in ORACLE_PROGRAMS:
            program = parse_program_text(text).program
            for formula in map(parse_formula, formulas):
                for semantics in Semantics:
                    v = valid(program, formula, semantics, 4)
                    want = reference_valid(program, formula, semantics, 4)
                    assert (v.status, v.counterexample, v.note) == want, str(formula)

    def test_each_head_argument_matched_once_per_term(self, monkeypatch):
        # triple at depth 4: 26 terms and six head argument positions (eq(c),
        # eq(f(X,Y)), r(X,Y), s(f(X,X)), t(f(X,f(Y,Z)))).  The grounding
        # this replaced made 1,850 match calls here, recursion included.
        program = parse_program_text(_TRIPLE).program
        base = herbrand_base(program.signature, 4)
        positions = sum(len(c.head.args) for c in program.clauses)
        assert (len(base.universe), positions) == (26, 6)
        calls = Counter()
        match = herbrand._match

        def counting(terms, p, t, env):
            calls["top-level"] += not calls["open"]
            calls["open"] += 1
            try:
                return match(terms, p, t, env)
            finally:
                calls["open"] -= 1

        monkeypatch.setattr(herbrand, "_match", counting)
        g = _ground_program(program, base)
        assert calls["top-level"] <= len(base.universe) * positions
        assert len(g.heads) == 748
