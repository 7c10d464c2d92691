"""Tests for proof terms, environments, and the judgement checker."""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cohorn import (
    Apply,
    AxiomEnv,
    CheckError,
    CheckReason,
    ConstSym,
    Lambda,
    Mode,
    Nu,
    ProofVar,
    Rule,
    alpha_equal,
    check,
    env_for_program,
    format_proof,
    free_proof_vars,
    is_hnf,
    parse_formula,
    parse_program,
    parse_proof,
    register_lemma,
)
from cohorn import proofs
from cohorn.proofs import proof_children, shared_nodes, walk

from helpers import load
from reference_proofs import admissibility_view, check_derivation, depth, hypothesis, normalize_binders


def env_of(name: str) -> AxiomEnv:
    src = load(name)
    return env_for_program(src.program, src.names)


def bush_env_with_lemma() -> AxiomEnv:
    env = env_of("bush")
    lemma = parse_proof("nu a. \\b -> k2 b (a (a b))")
    return register_lemma(env, lemma, parse_formula("eq(X) => eq(bush(X))"), Mode.EXTENDED)


class TestHeadNormalForm:
    def test_constant_headed_application(self):
        assert is_hnf(parse_proof("k2 k3 (k1 k3 a)"))

    def test_lambda_over_constant_head(self):
        assert is_hnf(parse_proof("\\b -> k2 b (a (a b))"))

    def test_variable_head_rejected(self):
        assert not is_hnf(parse_proof("\\a -> a"))

    def test_nu_head_rejected(self):
        assert not is_hnf(parse_proof("\\b -> nu a. k1 a"))


class TestFreeVars:
    def test_constants_only(self):
        assert free_proof_vars(parse_proof("k1 k2 k2")) == frozenset()

    def test_nu_binds(self):
        assert free_proof_vars(parse_proof("nu a. k2 k3 (k1 k3 a)")) == frozenset()

    def test_unbound_under_lambda(self):
        # Parsed standalone, a free name reads as a constant; build the body
        # of the bush witness directly to expose the free proof variable.
        from cohorn import Nu

        whole = parse_proof("nu a. \\b -> k2 b (a (a b))")
        assert isinstance(whole, Nu)
        assert free_proof_vars(whole.body) == {"a"}


class TestCheckAccepts:
    def test_pair(self):
        from cohorn import App

        d = check(env_of("pair"), parse_proof("k1 k2 k2"), parse_formula("eq(pair(int,int))"))
        assert d.rule is Rule.LP_M
        assert depth(d) == 2
        assert d.matcher == {"X": App("int"), "Y": App("int")}

    def test_evenodd_nu_prime_root(self):
        d = check(
            env_of("evenodd"),
            parse_proof("nu a. k2 k3 (k1 k3 a)"),
            parse_formula("eq(evenList(int))"),
        )
        assert d.rule is Rule.NU_PRIME

    def test_bush_lemma_application(self):
        d = check(
            bush_env_with_lemma(),
            parse_proof("(nu a. \\b -> k2 b (a (a b))) k1"),
            parse_formula("eq(bush(int))"),
        )
        assert d.rule is Rule.LP_M

    def test_chain_lam_root(self):
        d = check(env_of("chain"), parse_proof("\\a -> k2 (k1 a)"), parse_formula("A => C"))
        assert d.rule is Rule.LAM

    def test_identity_lambda_checks(self):
        """lambda a. a : A => A is derivable; only registration refuses it."""
        d = check(AxiomEnv(), parse_proof("\\a -> a"), parse_formula("A => A"))
        assert d.rule is Rule.LAM

    def test_atomic_lemma_found_past_an_alpha_equal_one_that_does_not_match(self):
        # Two lemmas with alpha-equal evidence; only the second one's head
        # matches q(c), and the term checks as a step on it.
        src = parse_program("k1 : p(f(f(X))), q(f(X)) => q(X).\nk2 : q(f(X)) => p(X).")
        env = env_for_program(src.program, src.names)
        env = env.add_lemma(parse_proof("nu a1. k1 (k2 a1) a1"), parse_formula("q(f(c))"))
        env = env.add_lemma(parse_proof("nu b. k1 (k2 b) b"), parse_formula("q(X)"))
        d = check(env, parse_proof("nu a1. k1 (k2 a1) a1"), parse_formula("q(c)"))
        assert (d.rule, d.children, d.entry_name) == (Rule.LP_M, (), "lemma")
        assert d.matcher == {"X": parse_formula("q(c)").head.args[0]}

    def test_determinism(self):
        env = env_of("evenodd")
        e = parse_proof("nu a. k2 k3 (k1 k3 a)")
        f = parse_formula("eq(evenList(int))")
        assert check(env, e, f) == check(env, e, f)


class TestCheckRejects:
    def test_nu_over_bare_variable(self):
        with pytest.raises(CheckError) as err:
            check(AxiomEnv(), parse_proof("nu a. a"), parse_formula("A"))
        assert err.value.reason is CheckReason.HNF_REQUIRED

    def test_identity_lambda_at_atomic_type(self):
        with pytest.raises(CheckError) as err:
            check(AxiomEnv(), parse_proof("\\a -> a"), parse_formula("A"))
        assert err.value.reason is CheckReason.RULE_SHAPE

    def test_p6_no_match(self):
        with pytest.raises(CheckError) as err:
            check(env_of("p6"), parse_proof("k1"), parse_formula("A(X)"))
        assert err.value.reason is CheckReason.NO_MATCH

    def test_unbound_constant(self):
        with pytest.raises(CheckError) as err:
            check(env_of("pair"), parse_proof("k9"), parse_formula("eq(int)"))
        assert err.value.reason is CheckReason.UNBOUND_VAR

    def test_partial_application(self):
        with pytest.raises(CheckError) as err:
            check(env_of("pair"), parse_proof("k1 k2"), parse_formula("eq(pair(int,int))"))
        assert err.value.reason is CheckReason.ARITY

    def test_over_application(self):
        with pytest.raises(CheckError) as err:
            check(env_of("pair"), parse_proof("k2 k2"), parse_formula("eq(int)"))
        assert err.value.reason is CheckReason.ARITY

    def test_deepest_leftmost_path(self):
        with pytest.raises(CheckError) as err:
            check(env_of("pair"), parse_proof("k1 k1 k2"), parse_formula("eq(pair(int,int))"))
        assert err.value.path == (0,)


class TestEnvironmentDiscipline:
    def test_lam_hypotheses_are_facts(self):
        d = check(env_of("chain"), parse_proof("\\a -> k2 (k1 a)"), parse_formula("A => C"))
        inner_env = d.children[0].judgement.env
        hyp = hypothesis(inner_env, "a")
        assert hyp is not None and hyp.formula.is_atomic
        assert isinstance(hyp.evidence, ProofVar)
        # A check that starts under the binder reads `a` off the env.
        assert check(inner_env, d.evidence.body, parse_formula("C")) == d.children[0]

    def test_nu_hypothesis_keeps_full_formula(self):
        env = env_of("bush")
        d = check(env, parse_proof("nu a. \\b -> k2 b (a (a b))"), parse_formula("eq(X) => eq(bush(X))"))
        assert d.rule is Rule.NU
        hyp = hypothesis(d.children[0].judgement.env, "a")
        assert hyp.formula == parse_formula("eq(X) => eq(bush(X))")

    def test_binder_nesting_is_linear_in_memory(self):
        """n nested nu binders on an (n+1)-clause cycle parse and check with
        no copy of the binder scope or of the env per binder.  At n = 4,000
        (a derivation 8,003 deep) those copies peaked at about 350 MB in the
        parse and 200 MB in the check."""
        n = 4000
        src = parse_program(
            "".join(f"k{i} : a{i + 1} => a{i}.\n" for i in range(n)) + f"k{n} : a0 => a{n}.\n"
        )
        env = env_for_program(src.program, src.names)
        text = "".join(f"nu x{i}. k{i} (" for i in range(n + 1)) + "x0" + ")" * (n + 1)
        tracemalloc.start()
        try:
            proof = parse_proof(text)
            parsed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            d = check(env, proof, parse_formula("a0"))
            checked = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert depth(d) == 2 * n + 3
        assert parsed < 20e6 and checked < 40e6, (parsed, checked)

    def test_outer_binder_lookups_read_no_chain(self, monkeypatch):
        """On the cycle k_i : a_(i+1), a0 => a_i, k_n : a0 => a_n, the proof
        nu x0. k0 (nu x1. k1 (… (nu xn. kn x0) …) x0) x0 names the outermost
        binder under each of the n + 1 binders.  `check` finds a hypothesis
        by its name, so it reads one link per bind, n in all; a walk from
        the innermost link would read about n^2 / 2 (0.085 / 0.87 / 2.72 s
        at n = 1,000 / 4,000 / 8,000)."""
        reads = []

        class Link(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        bind = proofs.bind
        monkeypatch.setattr(proofs, "bind", lambda hyps, *entries: Link(bind(hyps, *entries)))
        for n in (1000, 4000):
            src = parse_program(
                "".join(f"k{i} : a{i + 1}, a0 => a{i}.\n" for i in range(n)) + f"k{n} : a0 => a{n}.\n"
            )
            env = env_for_program(src.program, src.names)
            text = "".join(f"nu x{i}. k{i} (" for i in range(n)) + f"nu x{n}. k{n} x0" + ") x0" * n
            reads.clear()
            d = check(env, parse_proof(text), parse_formula("a0"))
            assert depth(d) == 2 * n + 3
            assert len(reads) <= n + 1, (n, len(reads))


class TestGuardedness:
    def scan(self, e, under_kappa=frozenset()):
        """Every nu-bound variable must occur beneath a constant application."""
        from cohorn.proofs import Apply, Lambda, Nu, spine

        ok = True
        if isinstance(e, ProofVar):
            return True  # occurrences checked at application spines below
        if isinstance(e, Nu):
            return self._nu_ok(e) and self.scan(e.body)
        if isinstance(e, Lambda):
            return self.scan(e.body)
        if isinstance(e, Apply):
            head, args = spine(e)
            return all(self.scan(a) for a in args)
        return ok

    def _nu_ok(self, nu):
        from cohorn.proofs import Apply, Lambda, Nu, spine

        def occurs_guarded(e, guarded):
            if isinstance(e, ProofVar):
                return e.name != nu.binder or guarded
            if isinstance(e, ConstSym):
                return True
            if isinstance(e, Lambda):
                return occurs_guarded(e.body, guarded)
            if isinstance(e, Nu):
                return occurs_guarded(e.body, guarded)
            head, args = spine(e)
            head_guard = guarded or isinstance(head, ConstSym)
            return occurs_guarded(head, guarded) and all(
                occurs_guarded(a, head_guard) for a in args
            )

        return occurs_guarded(nu.body, False)

    def test_accepted_nu_terms_are_guarded(self):
        for name, proof, formula in [
            ("evenodd", "nu a. k2 k3 (k1 k3 a)", "eq(evenList(int))"),
            ("bush", "nu a. \\b -> k2 b (a (a b))", "eq(X) => eq(bush(X))"),
        ]:
            e = parse_proof(proof)
            check(env_of(name), e, parse_formula(formula))
            assert self.scan(e)


class TestAdmissibilityView:
    def make(self):
        return check(
            env_of("evenodd"),
            parse_proof("nu a. k2 k3 (k1 k3 a)"),
            parse_formula("eq(evenList(int))"),
        )

    def test_view_shape(self):
        view = admissibility_view(self.make())
        assert view.rule is Rule.NU
        assert view.children[0].rule is Rule.LAM
        assert view.children[0].judgement.formula == view.judgement.formula
        check_derivation(view)

    def test_requires_nu_prime_root(self):
        d = check(env_of("pair"), parse_proof("k1 k2 k2"), parse_formula("eq(pair(int,int))"))
        with pytest.raises(CheckError):
            admissibility_view(d)

    def test_not_idempotent(self):
        view = admissibility_view(self.make())
        with pytest.raises(CheckError):
            admissibility_view(view)


class TestAlphaEquivalence:
    def test_binder_names_ignored(self):
        a = parse_proof("nu a. \\b -> k2 b (a (a b))")
        b = parse_proof("nu x. \\y -> k2 y (x (x y))")
        assert alpha_equal(a, b)
        assert format_proof(normalize_binders(a)) == format_proof(normalize_binders(b))

    def test_structure_matters(self):
        assert not alpha_equal(parse_proof("k1 k2"), parse_proof("k2 k1"))

    def test_agrees_with_normalized_equality(self):
        from test_syntax import random_proof

        def rename(e, env):
            # Fresh names for every binder, so equal pairs differ in names.
            if isinstance(e, ProofVar):
                return ProofVar(env.get(e.name, e.name))
            if isinstance(e, Apply):
                return Apply(rename(e.fun, env), rename(e.arg, env))
            if isinstance(e, Lambda):
                fresh = tuple(f"{b}r" for b in e.binders)
                return Lambda(fresh, rename(e.body, {**env, **dict(zip(e.binders, fresh))}))
            if isinstance(e, Nu):
                return Nu(e.binder + "r", rename(e.body, {**env, e.binder: e.binder + "r"}))
            return e

        rng = random.Random(53)
        equal = 0
        for _ in range(400):
            a = random_proof(rng, 4, ("h",))
            for b in (rename(a, {}), random_proof(rng, 4, ("h",))):
                same = normalize_binders(a) == normalize_binders(b)
                assert alpha_equal(a, b) == same == alpha_equal(b, a)
                equal += same
        assert equal >= 400

    def test_shared_subterms_are_not_walked(self):
        # 200 levels of k x x: a tree of 2^200 nodes.
        e = ConstSym("k0")
        for i in range(200):
            e = Apply(Apply(ConstSym(f"k{i + 1}"), e), e)
        assert alpha_equal(e, e)
        assert alpha_equal(Apply(e.fun, e.arg), e)
        assert not alpha_equal(e, e.arg)
        assert not alpha_equal(Nu("a", e), Nu("b", e.arg))


class TestWalk:
    @staticmethod
    def text(runs: list):
        """A `walk` step that renders applications and nu terms, wrapped in
        parentheses where its context says so, and logs each run."""

        def step(t, wrap: bool):
            runs.append((t, wrap))
            if isinstance(t, ConstSym):
                return t.name
            if isinstance(t, Apply):
                fun = yield t.fun, False, step
                arg = yield t.arg, True, step
                body = f"{fun} {arg}"
            else:
                body = f"nu {t.binder}. " + (yield t.body, False, step)
            return f"({body})" if wrap else body

        return step

    # `s` is reached three times: as a function and under the nu without
    # parentheses, and as an argument with them.
    s = Apply(ConstSym("f"), ConstSym("a"))
    root = Apply(Apply(s, s), Nu("x", s))
    TEXT = "f a (f a) (nu x. f a)"

    def test_kept_child_once_per_context(self):
        runs: list = []
        shared = shared_nodes(self.root, proof_children)
        assert walk(self.root, False, self.text(runs), shared) == self.TEXT
        assert [wrap for t, wrap in runs if t is self.s] == [False, True]

    def test_every_node_kept_without_shared(self):
        runs: list = []
        assert walk(self.root, False, self.text(runs)) == self.TEXT
        assert [wrap for t, wrap in runs if t is self.s] == [False, True]
        assert len(runs) == 7

    def test_child_outside_shared_walked_at_every_visit(self):
        runs: list = []
        assert walk(self.root, False, self.text(runs), set()) == self.TEXT
        assert [wrap for t, wrap in runs if t is self.s] == [False, True, False]

    def test_exception_propagates(self):
        def step(t, ctx):
            if isinstance(t, ConstSym):
                if t.name == "bad":
                    raise ValueError(t.name)
                return t.name
            return (yield t.fun, ctx, step) + (yield t.arg, ctx, step)

        root = Apply(Apply(ConstSym("a"), ConstSym("b")), Apply(ConstSym("c"), ConstSym("bad")))
        with pytest.raises(ValueError, match="bad"):
            walk(root, None, step)


DEEP_PROOF = """
from cohorn import (
    Rule, alpha_equal, check, env_for_program, format_proof, free_proof_vars,
    parse_formula, parse_program, parse_proof,
)
from reference_proofs import depth

n = 5000
src = parse_program("k0 : => a0.\\n" + "".join(f"k{i} : a{i - 1} => a{i}.\\n" for i in range(1, n + 1)))
text = "k0"
for i in range(1, n + 1):
    text = f"k{i} ({text})"
e = parse_proof(text)
d = check(env_for_program(src.program, src.names), e, parse_formula(f"a{n}"))
assert alpha_equal(parse_proof(format_proof(e)), e)
assert free_proof_vars(e) == frozenset()
assert depth(d) == n + 1
assert d.rules_used() == {Rule.LP_M}
"""


def test_deep_proof_in_a_fresh_interpreter():
    """A 5,000-step chain proof parses, checks, prints, parses back and has
    its free variables, depth and rules taken at the default recursion
    limit.  `alpha_equal`, not `==`: dataclass equality recurses."""
    tests_dir = Path(__file__).resolve().parent
    path = [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", DEEP_PROOF], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
