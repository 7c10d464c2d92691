"""The package's records are `terms.Value` slot classes, not dataclasses.

They keep the value semantics the dataclasses had: `==` and the hash over
the compared fields, the dataclass `repr` text, pickles and copies without
filled caches, and read-only fields.  The oracle module loads only when a
command or a caller needs it.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cohorn import (
    App,
    Apply,
    Atom,
    AxiomEnv,
    ConstSym,
    EnvEntry,
    Judgement,
    Lambda,
    LemmaRecord,
    Mode,
    Nu,
    Outcome,
    ProofVar,
    Query,
    SearchResult,
    Signature,
    Var,
    check,
    env_for_program,
    engine,
    herbrand,
    parse_formula,
    parse_program,
    syntax,
)
from cohorn.proofs import make_apply
from cohorn.terms import Value, term_sort_key

ROOT = Path(__file__).resolve().parent.parent
TEXT = "k1 : => p(c).\nk2 : p(X) => p(f(X)).\n"
PC = Atom("p", (App("c"),))


def program():
    return parse_program(TEXT).program


def env():
    return env_for_program(program(), ("k1", "k2"))


def base():
    return herbrand.herbrand_base(program().signature, 2)


CLAUSE_TEXT = (
    "HornClause(body=(Atom(predicate='p', args=(Var(name='X'),)),), "
    "head=Atom(predicate='p', args=(App(functor='f', args=(Var(name='X'),)),)))"
)
PC_TEXT = "Atom(predicate='p', args=(App(functor='c', args=()),))"
PROGRAM_TEXT = f"Program(clauses=(HornClause(body=(), head={PC_TEXT}), {CLAUSE_TEXT}), axiom_count=2)"
ENV_TEXT = (
    f"AxiomEnv(entries=(EnvEntry(evidence=ConstSym(name='k1'), formula=HornClause(body=(), "
    f"head={PC_TEXT}), rigid=False), EnvEntry(evidence=ConstSym(name='k2'), "
    f"formula={CLAUSE_TEXT}, rigid=False)))"
)
SIGNATURE_TEXT = "Signature(functions={'c': 0, 'f': 1}, predicates={'p': 1})"
BASE_TEXT = (
    f"HerbrandBase(signature={SIGNATURE_TEXT}, depth=2, universe=(App(functor='c', args=()), "
    "App(functor='f', args=(App(functor='c', args=()),))))"
)

# name: (a builder of one instance, its repr as the dataclass printed it,
# whether it hashes; a dict or list among the compared fields does not).
SAMPLES = {
    "Var": (lambda: Var("X"), "Var(name='X')", True),
    "App": (
        lambda: App("f", (App("c"), Var("X"))),
        "App(functor='f', args=(App(functor='c', args=()), Var(name='X')))",
        True,
    ),
    "Atom": (
        lambda: Atom("p", (App("f", (App("c"),)),)),
        "Atom(predicate='p', args=(App(functor='f', args=(App(functor='c', args=()),)),))",
        True,
    ),
    "HornClause": (lambda: parse_formula("p(X) => p(f(X))"), CLAUSE_TEXT, True),
    "Signature": (lambda: Signature({"c": 0, "f": 1}, {"p": 1}), SIGNATURE_TEXT, False),
    "Program": (program, PROGRAM_TEXT, True),
    "EnvEntry": (
        lambda: EnvEntry(ConstSym("k1"), parse_formula("p(c)"), rigid=True),
        f"EnvEntry(evidence=ConstSym(name='k1'), formula=HornClause(body=(), head={PC_TEXT}), "
        "rigid=True)",
        True,
    ),
    "AxiomEnv": (env, ENV_TEXT, True),
    "Judgement": (
        lambda: Judgement(AxiomEnv(), ConstSym("k1"), parse_formula("p(c)")),
        "Judgement(env=AxiomEnv(entries=()), evidence=ConstSym(name='k1'), "
        f"formula=HornClause(body=(), head={PC_TEXT}))",
        True,
    ),
    "Derivation": (
        lambda: check(env(), ConstSym("k1"), parse_formula("p(c)")),
        f"Derivation(rule=<Rule.LP_M: 'Lp-m'>, judgement=Judgement(env={ENV_TEXT}, "
        f"evidence=ConstSym(name='k1'), formula=HornClause(body=(), head={PC_TEXT})), "
        "matcher={}, children=())",
        False,
    ),
    "Query": (
        lambda: Query(goal=parse_formula("p(f(c))"), mode=Mode.COINDUCTIVE, depth_limit=3),
        "Query(goal=HornClause(body=(), head=Atom(predicate='p', args=(App(functor='f', "
        "args=(App(functor='c', args=()),)),))), mode=<Mode.COINDUCTIVE: 'coinductive'>, "
        "depth_limit=3, lemmas=(), auto_lemma=False)",
        True,
    ),
    "TraceEvent": (
        lambda: engine.TraceEvent("try", 1, "p(c)", "k1", "{}"),
        "TraceEvent(kind='try', depth=1, goal='p(c)', entry='k1', detail='{}')",
        True,
    ),
    "LemmaRecord": (
        lambda: LemmaRecord(parse_formula("p(X) => p(X)"), None, False, "lemma not proved"),
        "LemmaRecord(formula=HornClause(body=(Atom(predicate='p', args=(Var(name='X'),)),), "
        "head=Atom(predicate='p', args=(Var(name='X'),))), evidence=None, registered=False, "
        "note='lemma not proved')",
        True,
    ),
    "SearchResult": (
        lambda: SearchResult(Outcome.FAILED, None, None, (), AxiomEnv()),
        "SearchResult(outcome=<Outcome.FAILED: 'FAILED'>, evidence=None, derivation=None, "
        "trace=(), env=AxiomEnv(entries=()), lemmas=(), auto_lemma=None)",
        True,
    ),
    "SourceProgram": (
        lambda: parse_program(TEXT),
        f"SourceProgram(program={PROGRAM_TEXT}, names=('k1', 'k2'), by_name={{'k1': 0, 'k2': 1}})",
        True,
    ),
    "ConstSym": (lambda: ConstSym("k1"), "ConstSym(name='k1')", True),
    "ProofVar": (lambda: ProofVar("a"), "ProofVar(name='a')", True),
    "Apply": (
        lambda: Apply(ConstSym("k1"), ProofVar("a")),
        "Apply(fun=ConstSym(name='k1'), arg=ProofVar(name='a'))",
        True,
    ),
    "Lambda": (
        lambda: Lambda(("b",), ConstSym("k2")),
        "Lambda(binders=('b',), body=ConstSym(name='k2'))",
        True,
    ),
    "Nu": (
        lambda: Nu("a", Apply(ConstSym("k1"), ProofVar("a"))),
        "Nu(binder='a', body=Apply(fun=ConstSym(name='k1'), arg=ProofVar(name='a')))",
        True,
    ),
    "_Tok": (
        lambda: syntax._tokenize("k1 :")[1],
        "_Tok(kind='colon', text=':', line=1, col=4)",
        True,
    ),
    "HerbrandBase": (base, BASE_TEXT, False),
    "Interpretation": (
        lambda: herbrand.Interpretation(frozenset({PC}), base(), False, 3, 4, 5),
        f"Interpretation(atoms=frozenset({{{PC_TEXT}}}), base={BASE_TEXT}, converged=False, "
        "base_atoms=3, instances=4, rounds=5)",
        False,
    ),
    "_Grounding": (
        lambda: herbrand._ground_program(program(), base()),
        "_Grounding(heads=[0, 1], bodies=[(), (0,)], outside={}, size=2)",
        False,
    ),
    "Certificate": (
        lambda: herbrand.Certificate(PC, frozenset({PC}), frozenset(), 2, 3, 1, 1),
        f"Certificate(target={PC_TEXT}, support=frozenset({{{PC_TEXT}}}), frontier=frozenset(), "
        "depth=2, base_atoms=3, instances=1, rounds=1)",
        True,
    ),
    "ValidityVerdict": (
        lambda: herbrand.ValidityVerdict(
            herbrand.Verdict.INVALID, {"X": App("c")}, herbrand.Semantics.IND, 2, "instance fails"
        ),
        "ValidityVerdict(status=<Verdict.INVALID: 'INVALID'>, counterexample={'X': "
        "App(functor='c', args=())}, semantics=<Semantics.IND: 'inductive'>, depth=2, "
        "note='instance fails')",
        False,
    ),
    "ModelComparison": (
        lambda: herbrand.ModelComparison(False, herbrand.Semantics.COIND, 2, (PC,), ()),
        "ModelComparison(preserved=False, semantics=<Semantics.COIND: 'coinductive'>, depth=2, "
        f"removed=({PC_TEXT},), added=(), certificates=())",
        True,
    ),
}

# How to fill each class's caches.  Program's `_signature` is derived in
# `__init__`, not filled later, so it is no cache.
FILL = {
    "App": lambda t: (hash(t), str(t), term_sort_key(t)),
    "Atom": hash,
    "AxiomEnv": lambda e: (e.axiom("k1"), e.lemmas()),
    "HerbrandBase": lambda b: b.atoms,
    "_Grounding": lambda g: (g.watchers, g.by_head),
}
DERIVED = {"Program": ("_signature",)}


def caches(value) -> tuple[str, ...]:
    cls = type(value)
    return tuple(
        n for n in cls.__slots__[len(cls._fields):] if n not in DERIVED.get(cls.__name__, ())
    )


def value_classes() -> set[str]:
    found, stack = set(), [Value]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("cohorn."):
                found.add(sub.__name__)
                stack.append(sub)
    return found


def test_every_value_class_has_a_sample():
    assert value_classes() == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestValueSemantics:
    def test_equal_instances_agree(self, name):
        build, _, hashable = SAMPLES[name]
        a, b = build(), build()
        assert type(a).__name__ == name
        assert a == b and not a != b
        assert a != object() and a != 0
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_repr_reads_as_the_dataclass_text(self, name):
        build, text, _ = SAMPLES[name]
        assert repr(build()) == text

    def test_pickles_and_copies_carry_no_filled_cache(self, name):
        build = SAMPLES[name][0]
        value = build()
        FILL.get(name, lambda v: None)(value)
        names = caches(value)
        assert all(getattr(value, n) is not None for n in names)
        for restored in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(restored) is type(value) and restored == value
            assert repr(restored) == repr(value)
            assert all(getattr(restored, n) is None for n in names)

    def test_fields_are_read_only(self, name):
        value = SAMPLES[name][0]()
        for field in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")


class TestArguments:
    def test_keywords_and_defaults(self):
        goal = parse_formula("p(c)")
        assert Query(goal, Mode.INDUCTIVE) == Query(
            goal=goal, mode=Mode.INDUCTIVE, depth_limit=8, lemmas=(), auto_lemma=False
        )
        record = LemmaRecord(formula=goal, evidence=None, registered=True)
        assert (record.formula, record.evidence, record.registered, record.note) == (goal, None, True, "")
        assert AxiomEnv().entries == ()

    def test_bad_calls_raise_type_error(self):
        goal = parse_formula("p(c)")
        for call in (
            lambda: LemmaRecord(goal, None),  # registered is missing
            lambda: LemmaRecord(goal, None, True, "", "extra"),
            lambda: LemmaRecord(goal, None, True, formula=goal),
            lambda: LemmaRecord(goal, None, True, colour="red"),
        ):
            with pytest.raises(TypeError):
                call()

    def test_query_and_lambda_check_their_arguments(self):
        with pytest.raises(ValueError):
            Query(parse_formula("p(c)"), Mode.INDUCTIVE, depth_limit=0)
        with pytest.raises(ValueError):
            Lambda((), ConstSym("k1"))

    def test_uncompared_fields(self):
        """An interpretation's counters, a base's tables and a source
        program's name index are left out of `==`, as the dataclasses had it."""
        b = base()
        assert b == herbrand.HerbrandBase(b.signature, b.depth, b.universe, (), {}, {}, 0)
        a = herbrand.Interpretation(frozenset({PC}), b, True, 1, 2, 3)
        assert a == herbrand.Interpretation(frozenset({PC}), b, True, 9, 9, 9)
        assert a != herbrand.Interpretation(frozenset({PC}), b, False, 1, 2, 3)
        src = parse_program(TEXT)
        assert src == syntax.SourceProgram(src.program, src.names, {})

    def test_fields_precede_caches(self):
        with pytest.raises(TypeError):
            type("Bad", (Value,), {"__slots__": ("_cache", "field")})


class TestAxiomIndex:
    def test_first_entry_of_a_name_wins(self):
        first = EnvEntry(ConstSym("k"), parse_formula("p(c)"))
        second = EnvEntry(ConstSym("k"), parse_formula("q(c)"))
        env = AxiomEnv((first, second))
        assert env.axiom("k") is first and env.axiom("missing") is None
        assert env.extended(EnvEntry(ConstSym("j"), parse_formula("r(c)"))).axiom("j") is not None

    def test_hypotheses_keep_the_index(self):
        e = env()
        e.axiom("k1")
        inner = e.extended(EnvEntry(ProofVar("a"), parse_formula("p(c)")))
        assert inner._axioms is e._axioms
        assert inner.axiom("k2") is e.axiom("k2")
        assert inner.hypothesis("a").formula == parse_formula("p(c)")
        assert e.lemmas() == ()
        with_lemma = e.add_lemma(Apply(ConstSym("k2"), ConstSym("k1")), parse_formula("p(f(c))"))
        assert len(with_lemma.lemmas()) == 1 and with_lemma.axiom("k1") is e.axiom("k1")

    def test_chain_check_is_linear(self):
        """Each constant is looked up by name, not by a scan of the entries:
        checking 5,000 steps walks the entries once for the index and once
        for the lemmas."""
        n = 5000
        src = parse_program(
            "k0 : => a0.\n" + "".join(f"k{i} : a{i - 1} => a{i}.\n" for i in range(1, n + 1))
        )
        walks = []

        class Entries(tuple):
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        e = AxiomEnv(Entries(env_for_program(src.program, src.names).entries))
        proof = ConstSym("k0")
        for i in range(1, n + 1):
            proof = make_apply(ConstSym(f"k{i}"), (proof,))
        assert check(e, proof, parse_formula(f"a{n}")).depth() == n + 1
        assert len(walks) <= 2


CLI = "import sys\nfrom cohorn.cli import cli\n"


def assert_runs(code: str, cli: bool = True) -> None:
    """`code` runs cleanly in a fresh interpreter that imports cohorn from
    this checkout, after `from cohorn.cli import cli` if `cli`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-c", CLI * cli + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr


class TestLazyOracle:
    def test_resolve_and_check_leave_the_oracle_unloaded(self):
        assert_runs("""
            assert "cohorn.herbrand" not in sys.modules
            assert cli(["resolve", "programs/pair.hc", "--query", "eq(pair(int,int))", "--mode", "ind"]) == 0
            assert cli(["check", "programs/pair.hc", "--proof", "k1 k2 k2", "--formula", "eq(pair(int,int))"]) == 0
            assert "cohorn.herbrand" not in sys.modules
        """)

    def test_model_loads_the_oracle(self):
        assert_runs("""
            assert cli(["model", "programs/pair.hc", "--semantics", "least", "--depth", "2"]) == 0
            assert "cohorn.herbrand" in sys.modules
        """)

    def test_the_package_exports_the_oracle_names(self):
        assert_runs("""
            from cohorn import BaseTooLargeError, lfp
            import cohorn, cohorn.herbrand
            assert lfp is cohorn.herbrand.lfp and cohorn.Verdict is cohorn.herbrand.Verdict
            assert BaseTooLargeError is cohorn.herbrand.BaseTooLargeError
            try:
                cohorn.no_such_name
            except AttributeError:
                pass
            else:
                raise AssertionError("no AttributeError")
        """, cli=False)

    def test_the_package_serves_the_oracle_module(self):
        """`cohorn.herbrand` is an attribute of a bare `import cohorn`, as it
        was when the package imported it eagerly, and `dir` and the star
        import still list the oracle's names; only the attribute access
        and the star import load the module."""
        assert_runs("""
            import sys
            import cohorn
            assert {"herbrand", "lfp", "valid", "Verdict"} <= set(dir(cohorn))
            assert "cohorn.herbrand" not in sys.modules
            lfp = cohorn.herbrand.lfp
            assert sys.modules["cohorn.herbrand"] is cohorn.herbrand and cohorn.lfp is lfp
            namespace = {}
            exec("from cohorn import *", namespace)
            assert namespace["lfp"] is lfp and namespace["herbrand"] is cohorn.herbrand
            assert namespace["resolve"] is cohorn.resolve
        """, cli=False)

    def test_an_oversized_base_exits_64(self):
        assert_runs("""
            argv = ["certify", "programs/pair.hc", "--atom", "eq(pair(int,int))", "--max-atoms", "4"]
            assert cli(argv) == 64
        """)

    def test_a_broken_certificate_exits_70(self):
        """The CLI calls the oracle through the module's attributes, so a
        replaced `herbrand.certify_gfp` is the one that runs."""
        assert_runs("""
            import cohorn.herbrand as herbrand

            def broken(*args, **kwargs):
                raise herbrand.CertificateInvariantError("support is not a post-fixed point")

            herbrand.certify_gfp = broken
            assert cli(["certify", "programs/pair.hc", "--atom", "eq(int)"]) == 70
        """)

    def test_import_generates_no_code(self):
        """No method is compiled from generated source, as `@dataclass` and
        `namedtuple` do, with or without the oracle.  The five proof-term
        classes are the only dataclasses, and their decorator only records
        their fields."""
        assert_runs("""
            import dataclasses, sys
            import cohorn.cli

            def found():
                classes = [
                    (name, k, v) for name, module in list(sys.modules.items())
                    if name.startswith("cohorn")
                    for k, v in vars(module).items()
                    if isinstance(v, type) and v.__module__ == name
                ]
                for name, k, cls in classes:
                    for attr, f in vars(cls).items():
                        f = getattr(f, "fget", f)
                        code = getattr(f, "__code__", None)
                        assert code is None or code.co_filename != "<string>", (k, attr, code)
                return sorted(f"{name}.{k}" for name, k, v in classes if dataclasses.is_dataclass(v))

            five = [f"cohorn.proofs.{k}" for k in ("Apply", "ConstSym", "Lambda", "Nu", "ProofVar")]
            assert found() == five, found()
            import cohorn.herbrand
            assert found() == five, found()
        """, cli=False)

    def test_the_proof_terms_keep_their_dataclass_fields(self):
        term = Nu("a", Apply(Lambda(("b",), ProofVar("b")), ConstSym("k1")))
        assert [f.name for f in dataclasses.fields(term)] == ["binder", "body"]
        assert [f.name for f in dataclasses.fields(term.body)] == ["fun", "arg"]
        assert [f.name for f in dataclasses.fields(term.body.fun)] == ["binders", "body"]
        assert [f.name for f in dataclasses.fields(ConstSym("k"))] == ["name"]
