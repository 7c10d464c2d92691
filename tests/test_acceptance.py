"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

from cohorn import (
    Interpretation,
    Mode,
    Outcome,
    Policy,
    Query,
    Semantics,
    Verdict,
    apply_atom,
    apply_term,
    certify_gfp,
    check,
    format_proof,
    gfp_bounded,
    herbrand_base,
    lfp,
    match,
    parse_formula,
    parse_proof,
    parse_program,
    preserves_model,
    resolve,
    valid,
)
from cohorn.cli import cli
from cohorn.syntax import SourceProgram
from cohorn.terms import atom_vars

from helpers import (
    PROGRAMS_DIR,
    load,
    program_queries,
    random_atom,
    random_program,
    random_subst,
    random_term,
)
from reference_herbrand import tp_monotone_check, tp_step
from reference_proofs import normalize_binders
from reference_syntax import format_program
from reference_terms import apply_clause, compose


def report(criterion: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    assert ok, criterion


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli(argv)
    return code, out.getvalue()


def hc(name):
    return str(PROGRAMS_DIR / f"{name}.hc")


def canonical(term) -> str:
    return format_proof(normalize_binders(term))


def solve(name, query, mode, depth=8, lemmas=(), auto=False):
    src = load(name)
    q = Query(
        goal=parse_formula(query),
        mode=mode,
        depth_limit=depth,
        lemmas=tuple(parse_formula(t) for t in lemmas),
        auto_lemma=auto,
    )
    return resolve(src.program, q, names=src.names), src


# ---------------------------------------------------------------------------
# 1. Golden proofs (byte-compared after normalization of bound names)
# ---------------------------------------------------------------------------


class TestGoldenProofs:
    def test_1_pair(self):
        result, src = solve("pair", "eq(pair(int,int))", Mode.INDUCTIVE)
        ok = result.outcome is Outcome.PROVED
        ok = ok and canonical(result.evidence) == canonical(parse_proof("k1 k2 k2"))
        from cohorn import env_for_program

        check(env_for_program(src.program, src.names), result.evidence, result.derivation.formula)
        report("1. golden: P_Pair |- eq(pair(int,int)) by k1 k2 k2 (inductive, checker accepts)", ok)

    def test_1_evenodd(self):
        result, _ = solve("evenodd", "eq(evenList(int))", Mode.COINDUCTIVE)
        ok = result.outcome is Outcome.PROVED
        ok = ok and canonical(result.evidence) == canonical(parse_proof("nu a. k2 k3 (k1 k3 a)"))
        report("1. golden: P_EvenOdd |- eq(evenList(int)) by nu a. k2 k3 (k1 k3 a) (coinductive)", ok)

    def test_1_bush_with_lemma(self):
        result, _ = solve(
            "bush", "eq(bush(int))", Mode.EXTENDED, lemmas=["eq(X) => eq(bush(X))"]
        )
        expected = canonical(parse_proof("(nu a. \\b -> k2 b (a (a b))) k1"))
        ok = result.outcome is Outcome.PROVED and canonical(result.evidence) == expected
        report("1. golden: P_Bush |- eq(bush(int)) by (nu a. \\b -> k2 b (a (a b))) k1 (extended + lemma)", ok)

    def test_1_bush_auto_lemma(self):
        result, _ = solve("bush", "eq(bush(int))", Mode.EXTENDED, auto=True)
        expected = canonical(parse_proof("(nu a. \\b -> k2 b (a (a b))) k1"))
        same_lemma = result.auto_lemma is not None and canonical_formula(
            result.auto_lemma
        ) == canonical_formula(parse_formula("eq(Y) => eq(bush(Y))"))
        ok = result.outcome is Outcome.PROVED and canonical(result.evidence) == expected and same_lemma
        report("1. golden: P_Bush --auto-lemma proposes eq(X) => eq(bush(X)) and finds the same proof", ok)

    def test_1_chain_and_identity(self):
        chain, _ = solve("chain", "A => C", Mode.INDUCTIVE)
        ident, _ = solve("empty", "A => A", Mode.EXTENDED, depth=4)
        ok = chain.outcome is Outcome.PROVED
        ok = ok and canonical(chain.evidence) == canonical(parse_proof("\\a -> k2 (k1 a)"))
        ok = ok and ident.outcome is Outcome.PROVED
        ok = ok and canonical(ident.evidence) == canonical(parse_proof("\\a -> a"))
        report("1. golden: {A=>B,B=>C} |- A=>C by \\a -> k2 (k1 a); empty |- A=>A by \\a -> a", ok)


def canonical_formula(f) -> str:
    """Rename term variables to a canonical sequence for comparison."""
    names = {}
    out = []
    for v in atom_vars(f.head) + [v for b in f.body for v in atom_vars(b)]:
        if v not in names:
            names[v] = f"V{len(names) + 1}"
    from cohorn.terms import Var, format_formula

    renamed = apply_clause({v: Var(n) for v, n in names.items()}, f)
    return format_formula(renamed)


# ---------------------------------------------------------------------------
# 2. Incompleteness negatives (exact exit codes)
# ---------------------------------------------------------------------------


class TestIncompleteness:
    def test_2_p6_failed_all_modes(self):
        codes = [
            run_cli(["resolve", hc("p6"), "--query", "A(X)", "--mode", m, "--depth", "8"])[0]
            for m in ("ind", "coind", "ext")
        ]
        report("2. incompleteness: P_6 query A(X) exits 1 (FAILED) in all modes at depth 8", codes == [1, 1, 1])

    def test_2_p7_failed_but_inductively_valid(self):
        code, _ = run_cli(
            ["resolve", hc("p7"), "--query", "B(X) => A(X)", "--mode", "ind", "--depth", "8"]
        )
        src = load("p7")
        verdict = valid(src.program, parse_formula("B(X) => A(X)"), Semantics.IND, 1)
        ok = code == 1 and verdict.status is Verdict.VALID
        report("2. incompleteness: P_7 B(X)=>A(X) FAILED yet inductively VALID at depth 1", ok)

    def test_2_p11_exhausted_but_certifiable(self):
        code_resolve, _ = run_cli(
            ["resolve", hc("p11"), "--query", "D(z,z)", "--mode", "ext", "--depth", "12"]
        )
        code_certify, _ = run_cli(["certify", hc("p11"), "--atom", "D(z,z)", "--depth", "6"])
        ok = code_resolve == 2 and code_certify == 0
        report("2. incompleteness: P_11 D(z,z) exits 2 (EXHAUSTED) at depth 12; certify exits 0 at depth 6", ok)


# ---------------------------------------------------------------------------
# 3. Model-theory checks
# ---------------------------------------------------------------------------


class TestModelTheory:
    def test_3_lfp_p6(self):
        src = load("p6")
        got = {str(a) for a in lfp(src.program, 3).atoms}
        ok = got == {"A(g)", "A(f(g))", "A(f(f(g)))"}
        report("3. model: lfp(P_6, depth 3) = {A(g), A(f(g)), A(f(f(g)))}", ok)

    def test_3_gfp_loop_empty(self):
        src = load("loop")
        got = gfp_bounded(src.program, 4, Policy.PESSIMISTIC, extra_constants=["g"])
        report("3. model: gfp_bounded({p(X) => p(f(X))}, depth 4, pessimistic) = {}", not got.atoms)

    def test_3_evenodd_validity_split(self):
        src = load("evenodd")
        f = parse_formula("eq(evenList(int))")
        coind = valid(src.program, f, Semantics.COIND, 2)
        ind = valid(src.program, f, Semantics.IND, 2)
        ok = coind.status is Verdict.VALID and ind.status is Verdict.INVALID
        report("3. model: eq(evenList(int)) VALID coinductively, INVALID inductively (depth 2)", ok)

    def test_3_identity_changes_greatest_model(self):
        src = parse_program("k1 : A => B.")
        cmp = preserves_model(src.program, parse_formula("A => A"), Semantics.COIND, 1)
        ok = not cmp.preserved and {str(a) for a in cmp.removed + cmp.added} == {"A", "B"}
        report("3. model: adding A=>A to {A=>B} changes the greatest model by {A, B}", ok)

    def test_3_registered_lemmas_preserve_models(self):
        checks = []
        # Bush lemma, registered by the extended-mode engine run (HNF evidence).
        bush_result, bush_src = solve(
            "bush", "eq(bush(int))", Mode.EXTENDED, lemmas=["eq(X) => eq(bush(X))"]
        )
        for rec in bush_result.lemmas:
            assert rec.registered
            checks.append(
                preserves_model(bush_src.program, rec.formula, Semantics.COIND, 3).preserved
            )
        # Auto-proposed lemma from the same program.
        auto_result, _ = solve("bush", "eq(bush(int))", Mode.EXTENDED, auto=True)
        for rec in auto_result.lemmas:
            assert rec.registered
            checks.append(
                preserves_model(bush_src.program, rec.formula, Semantics.COIND, 3).preserved
            )
        # Inductively registered chain lemma (HNF as well) preserves both models.
        chain_result, chain_src = solve("chain", "C", Mode.INDUCTIVE, lemmas=["A => C"])
        for rec in chain_result.lemmas:
            assert rec.registered
            checks.append(
                preserves_model(chain_src.program, rec.formula, Semantics.IND, 1).preserved
            )
            checks.append(
                preserves_model(chain_src.program, rec.formula, Semantics.COIND, 1).preserved
            )
        ok = bool(checks) and all(checks)
        report("3. model: every engine-registered HNF lemma over the corpus preserves its model", ok)


# ---------------------------------------------------------------------------
# 4. Property-based acceptance
# ---------------------------------------------------------------------------


class TestProperties:
    def test_4_soundness_bridge_500_programs(self):
        rng = random.Random(2024)
        proved = 0
        violations = 0
        rechecks = 0
        valids = 0
        unknowns = 0
        for _ in range(500):
            program = random_program(rng)
            queries = program_queries(rng, program)
            for goal in queries:
                for mode in Mode:
                    result = resolve(program, Query(goal=goal, mode=mode, depth_limit=4))
                    if result.outcome is not Outcome.PROVED:
                        continue
                    proved += 1
                    check(result.env, result.evidence, goal)
                    rechecks += 1
                    semantics = Semantics.IND if mode is Mode.INDUCTIVE else Semantics.COIND
                    verdict = valid(program, goal, semantics, 3)
                    if verdict.status is Verdict.INVALID:
                        violations += 1
                    elif verdict.status is Verdict.VALID:
                        valids += 1
                    else:
                        unknowns += 1  # bound too small to decide; never a violation
        ok = violations == 0 and proved > 500 and rechecks == proved and valids > unknowns
        report(
            f"4. properties: soundness bridge over 500 programs "
            f"({proved} proofs, {violations} violations, {valids} valid, "
            f"{unknowns} bound-undecided, {rechecks} rechecks)",
            ok,
        )

    def test_4_corpus_engine_checker_agreement(self):
        cases = [
            ("pair", "eq(pair(int,int))", Mode.INDUCTIVE, ()),
            ("evenodd", "eq(evenList(int))", Mode.COINDUCTIVE, ()),
            ("bush", "eq(bush(int))", Mode.EXTENDED, ("eq(X) => eq(bush(X))",)),
            ("chain", "A => C", Mode.INDUCTIVE, ()),
            ("empty", "A => A", Mode.EXTENDED, ()),
        ]
        agreed = 0
        for name, query, mode, lemmas in cases:
            result, _ = solve(name, query, mode, lemmas=lemmas)
            assert result.outcome is Outcome.PROVED
            check(result.env, result.evidence, parse_formula(query))
            agreed += 1
        report(f"4. properties: engine/checker agreement on {agreed}/{len(cases)} corpus proofs", agreed == len(cases))

    def test_4_tp_monotonicity_1000(self):
        rng = random.Random(31)
        checked = 0
        while checked < 1000:
            program = random_program(rng)
            base = herbrand_base(program.signature, 3)
            ordered = sorted(base.atoms, key=str)
            small = frozenset(a for a in ordered if rng.random() < 0.4)
            big = small | frozenset(a for a in ordered if rng.random() < 0.4)
            policy = rng.choice(list(Policy))
            assert tp_monotone_check(
                program, Interpretation(small, base), Interpretation(big, base), policy
            )
            checked += 1
        report("4. properties: T_P monotonicity on 1000 randomized instances", checked == 1000)

    def test_4_lfp_below_gfp_1000(self):
        rng = random.Random(37)
        checked = 0
        while checked < 1000:
            program = random_program(rng)
            depth = rng.choice([2, 3])
            low = lfp(program, depth)
            high = gfp_bounded(program, depth, Policy.OPTIMISTIC)
            assert low.atoms <= high.atoms
            checked += 1
        report("4. properties: lfp <= optimistic gfp on 1000 randomized instances", checked == 1000)

    def test_4_certificate_revalidation_1000(self):
        rng = random.Random(41)
        checked = 0
        while checked < 1000:
            program = random_program(rng)
            model = gfp_bounded(program, 3, Policy.OPTIMISTIC)
            targets = [a for a in sorted(model.atoms, key=str) if rng.random() < 0.6]
            for target in targets[:4]:
                cert = certify_gfp(program, target, 3)
                assert cert is not None
                base = herbrand_base(program.signature, 3)
                stepped = tp_step(program, Interpretation(cert.support, base), Policy.OPTIMISTIC)
                assert cert.support <= stepped.atoms
                checked += 1
        report("4. properties: certificate re-validation on 1000 randomized instances", checked >= 1000)

    def test_4_matching_and_composition_laws_1000(self):
        rng = random.Random(43)
        for _ in range(1000):
            pattern = random_atom(rng)
            grounding = random_subst(rng, ground=True)
            target = apply_atom(grounding, pattern)
            s = match(pattern, target)
            assert s is not None
            assert apply_atom(s, pattern) == target
            assert set(s) <= set(atom_vars(pattern))
        for _ in range(1000):
            s, t = random_subst(rng), random_subst(rng)
            x = random_term(rng, 3)
            assert apply_term(compose(s, t), x) == apply_term(s, apply_term(t, x))
        report("4. properties: matching soundness/minimality and composition law, 1000 instances each", True)

    def test_4_parser_round_trip_500(self):
        rng = random.Random(47)
        from test_syntax import random_proof

        for _ in range(250):
            program = random_program(rng)
            names = tuple(f"k{i + 1}" for i in range(len(program.clauses)))
            src = SourceProgram(program, names, {n: i for i, n in enumerate(names)})
            again = parse_program(format_program(src))
            assert again.program.clauses == program.clauses
        for _ in range(250):
            e = random_proof(rng, 4, ())
            assert parse_proof(format_proof(e)) == e
        report("4. properties: parser round-trip on 500 generated programs/proof terms", True)
