"""Ground atoms judged from the atoms they reach, against the base route
and the engine.

`certify_gfp`, and `valid` of a formula without variables, ground only
the atoms the question reaches through clause bodies (`herbrand._reach`)
and never build a Herbrand base.  Here:

  * a differential: on seeded random programs, with and without a lemma
    clause, and ground atoms, each answers exactly as the base route does
    (`reference_herbrand.certify_by_base` and `valid_by_base`);
  * the completeness bridge: an independent judge written as plain
    recursion (`reference_herbrand.closure_judge`) against the engine and
    the reached grounding's fixpoints, on seeded programs and on generated
    chains and cycles;
  * the no-base pins: which calls build a base, and which need none;
  * a property test over the CLI: on the generated closures and a term
    chain, a query refused for an arity clash is exactly one whose atoms
    clash with the program's signature.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohorn import App, Atom, HornClause, SignatureError, engine, herbrand, parse_program
from cohorn.herbrand import Semantics, Verdict
from cohorn.syntax import parse_atom, parse_formula
from cohorn.terms import fact, format_formula
from helpers import load, random_clause, random_program
from reference_herbrand import ClosureTooLarge, certify_by_base, closure_judge, valid_by_base
from reference_terms import atom_sort_key
from test_cli import hc, run

ROOT = Path(__file__).resolve().parent.parent


def nat_term(n: int, top: str = "z") -> App:
    t = App(top)
    for _ in range(n):
        t = App("f", (t,))
    return t


def ground_atoms(rng: random.Random, program) -> list[Atom]:
    """Four ground atoms over c, d and f: mostly of the program's
    predicates, now and then of `r`, which no clause defines, or with two
    arguments, which clashes with the program's arity."""
    preds = sorted(program.signature.predicates) + ["r"]
    out = []
    for _ in range(4):
        arity = 2 if rng.random() < 0.1 else 1
        args = tuple(nat_term(rng.randint(0, 4), rng.choice("ccd")) for _ in range(arity))
        out.append(Atom(rng.choice(preds), args))
    return out


def listed(atoms) -> tuple[list, list]:
    """A certificate's support or frontier: its atoms and their texts, in
    the order it lists them."""
    return list(atoms), list(atoms.texts())


def by_sort_key(atoms) -> tuple[list, list]:
    """A plain set of atoms as `listed` should list it: in `atom_sort_key`
    order, with the texts `str` gives."""
    atoms = sorted(atoms, key=atom_sort_key)
    return atoms, [str(a) for a in atoms]


def answers(program, atom: Atom, depth: int, certify, valid, frontier=listed) -> tuple:
    """What `certify` and `valid` in both semantics answer, or the type of
    the error they raise."""
    out = []
    try:
        cert = certify(program, atom, depth)
        out.append(cert and (listed(cert.support), frontier(cert.frontier), cert.exact))
    except Exception as err:  # compared by type below
        out.append(type(err))
    for semantics in Semantics:
        try:
            v = valid(program, atom, semantics, depth)
            out.append((v.status, v.note, v.counterexample))
        except Exception as err:
            out.append(type(err))
    return tuple(out)


def valid_atom(program, atom: Atom, semantics: Semantics, depth: int):
    return herbrand.valid(program, fact(atom), semantics, depth)


class TestDifferential:
    def test_closure_answers_as_the_base_does(self, monkeypatch):
        """Seeded programs, then every other one extended with a lemma
        clause, whose head may overlap an axiom's: 600 and 300 programs, four
        ground atoms each, at depths 0 to 4.  Depth 0 is refused with a
        ValueError, as the base refuses it."""
        rng, lemmas = random.Random(7), random.Random(8)
        programs = [random_program(rng) for _ in range(600)]
        programs += [p.extended(random_clause(lemmas)) for p in programs[::2]]
        seen = Counter()
        real = herbrand._reach

        def spy(*args):
            grounding = real(*args)
            if grounding is not None:
                g = grounding[0]
                seen["overlap"] += len(set(g.heads)) < len(g.heads)
            return grounding

        monkeypatch.setattr(herbrand, "_reach", spy)
        for program in programs:
            for atom in ground_atoms(rng, program):
                for depth in range(5):
                    got = answers(program, atom, depth, herbrand.certify_gfp, valid_atom)
                    want = answers(program, atom, depth, certify_by_base, valid_by_base, by_sort_key)
                    assert got == want, (program, atom, depth)
                    cert = got[0] if isinstance(got[0], tuple) else None
                    seen["cases"] += 1
                    seen["certificates"] += cert is not None
                    seen["frontiers"] += cert is not None and bool(cert[1][0])
        assert seen["cases"] == 18_000, seen
        assert min(seen["overlap"], seen["frontiers"]) > 200 and seen["certificates"] > 1000, seen


def families(n: int):
    """(name, program text, goal) of generated closures of n atoms."""
    steps = "".join(f"k{i} : a{i - 1} => a{i}.\n" for i in range(1, n))
    doubled = "".join(f"k{i} : a{i - 1}, a{i - 1} => a{i}.\n" for i in range(1, n))
    back = "".join(f"k{i} : a{i + 1} => a{i}.\n" for i in range(n - 1))
    yield "chain", "k0 : => a0.\n" + steps, f"a{n - 1}"
    yield "open chain", steps, f"a{n - 1}"
    yield "diamond", "k0 : => a0.\n" + doubled, f"a{n - 1}"
    yield "cycle", back + f"k{n - 1} : a0 => a{n - 1}.\n", "a0"
    yield "lasso", back + f"k{n - 1} : a{n // 2} => a{n - 1}.\n", "a0"


class TestCompletenessBridge:
    """On a finite closure, the engine is complete: coinductive resolution
    at depth |closure| + 2 proves the atom iff it is in the greatest model,
    and inductive resolution proves it at depth h and not at h - 1, where h
    is its least-model stage.  The fixpoints of the oracle's grounding of
    the atoms it reaches agree with the judge."""

    def bridge(self, program, atom, limit) -> tuple[bool, bool]:
        gfp, stage, size = closure_judge(program, atom, limit)
        g, *_ = herbrand._reach(program, [atom], 10**6)
        assert (g.size, g.outside) == (size, {}), atom
        in_model = [herbrand._propagate(g, greatest, {})[0][0] == 1 for greatest in (True, False)]
        assert in_model == [gfp, stage is not None], atom
        coind = engine.resolve(program, engine.Query(fact(atom), engine.Mode.COINDUCTIVE, size + 2))
        assert (coind.outcome is engine.Outcome.PROVED) == gfp, atom
        if stage is not None:
            ind = engine.resolve(program, engine.Query(fact(atom), engine.Mode.INDUCTIVE, stage))
            assert ind.outcome is engine.Outcome.PROVED, atom
            if stage > 1:
                ind = engine.resolve(program, engine.Query(fact(atom), engine.Mode.INDUCTIVE, stage - 1))
                assert ind.outcome is not engine.Outcome.PROVED, atom
        return gfp, stage is not None

    def test_seeded_programs(self):
        rng = random.Random(11)
        seen = Counter()
        for _ in range(400):
            program = random_program(rng)
            preds = sorted(program.signature.predicates)
            for _ in range(4):
                atom = Atom(rng.choice(preds), (nat_term(rng.randint(0, 3), "c"),))
                try:
                    seen[self.bridge(program, atom, 60)] += 1
                except ClosureTooLarge:
                    seen["open"] += 1
        # (in the gfp, in the lfp): every kind of answer occurs.
        assert min(seen[True, True], seen[True, False], seen[False, False]) > 50, seen

    def test_generated_chains_and_cycles(self):
        for n in (1, 2, 3, 50, 200):
            for name, text, goal in families(n):
                want = {"chain": (True, True), "diamond": (True, True), "open chain": (False, False)}
                got = self.bridge(parse_program(text).program, parse_atom(goal), 1000)
                assert got == want.get(name, (True, False)), (name, n)
        # A term chain: p(f^79(z)) reaches p(z) through 80 atoms.
        nat = parse_program("k1 : p(X) => p(f(X)).\nk2 : => p(z).\n").program
        assert self.bridge(nat, Atom("p", (nat_term(79),)), 1000) == (True, True)


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    """`TestRoutes`'s program: k0 : => p(c0) and k_i : p(c_(i-1)) => p(c_i)
    for i up to 10,001."""
    path = tmp_path_factory.mktemp("chain") / "chain.hc"
    steps = "".join(f"k{i} : p(c{i - 1}) => p(c{i}).\n" for i in range(1, 10_002))
    path.write_text("k0 : => p(c0).\n" + steps)
    return path


class BaseBuilt(Exception):
    """A Herbrand base was asked for."""


@pytest.fixture
def no_base(monkeypatch):
    """Make building a Herbrand base raise `BaseBuilt`."""
    def refuse(*args, **kwargs):
        raise BaseBuilt

    monkeypatch.setattr(herbrand, "herbrand_base", refuse)


class TestRoutes:
    def test_long_chain_is_judged_without_a_base_or_recursion(self, long_chain, no_base):
        program = parse_program(long_chain.read_text()).program
        goal = fact(parse_atom("p(c10001)"))
        for semantics in Semantics:
            assert herbrand.valid(program, goal, semantics, 1).status is Verdict.VALID
        code, out, _ = run(["certify", str(long_chain), "--atom", "p(c10001)", "--depth", "1", "--json"])
        report = json.loads(out)
        assert (code, report["exact"]) == (0, True)
        assert report["stats"] == {"base_atoms": 10_002, "instances": 10_002, "rounds": 1}
        assert len(report["support"]) == 10_002
        for mode in ("ind", "coind"):
            code, out, _ = run(
                ["verify-soundness", str(long_chain), "--query", "p(c3)", "--mode", mode, "--base-depth", "1"]
            )
            assert code == 0 and "base depth 1): VALID\nsoundness: ok\n" in out, mode

    def test_closing_atoms_build_no_base(self, no_base):
        code, out, _ = run(["certify", hc("evenodd"), "--atom", "eq(evenList(int))", "--depth", "3"])
        assert code == 0 and "exact post-fixed point" in out
        code, out, _ = run(["certify", hc("loop"), "--atom", "p(f(c))", "--depth", "3"])
        assert code == 1 and "depth: 3\nresult: no certificate within bound\n" in out
        # The inductive search exhausts on the cyclic evenodd goal: no verdict.
        for name, query, mode, verdict in (
            ("evenodd", "eq(evenList(int))", "coind", "VALID"),
            ("evenodd", "eq(evenList(int))", "ind", None),
            ("pair", "eq(pair(int,int))", "ind", "VALID"),
        ):
            argv = ["verify-soundness", hc(name), "--query", query, "--mode", mode, "--base-depth", "2"]
            code, out, _ = run(argv)
            assert code == 0 and "soundness: ok" in out
            assert (f"): {verdict}\n" in out) if verdict else "oracle" not in out
        # A reached grounding whose target is in no model: INVALID.
        src = load("evenodd")
        v = herbrand.valid(src.program, fact(parse_atom("eq(evenList(int))")), Semantics.IND, 2)
        assert (v.status, v.counterexample, v.note) == (
            Verdict.INVALID, {}, "instance eq(evenList(int)) fails at depth 2"
        )
        # p(z) leans on p(s(s(z))), beyond depth 2: boundary-uncertain.
        down = parse_program("k1 : p(s(X)) => p(X).\n").program
        v = herbrand.valid(down, fact(parse_atom("p(z)")), Semantics.COIND, 2)
        assert (v.status, v.note) == (Verdict.UNKNOWN, "some instance is boundary-uncertain at this depth")

    def test_ground_horn_formulas_build_no_base(self, no_base, tmp_path):
        """A Horn formula without variables is judged from the atoms its
        head and body reach.  The base of the 5,000-functor program at depth
        3 is far past --max-atoms; the walk holds three atoms."""
        wide = tmp_path / "wide.hc"
        clauses = "".join(f"k{i} : eq(X), eq(Y) => eq(t{i}(X,Y)).\n" for i in range(1, 5001))
        wide.write_text("k0 : => eq(c).\n" + clauses)
        query = "eq(c) => eq(t17(c,t4999(c,c)))"
        code, out, _ = run(["verify-soundness", str(wide), "--query", query, "--mode", "ind", "--base-depth", "3"])
        assert code == 0 and "oracle (inductive, base depth 3): VALID\nsoundness: ok\n" in out
        code, out, _ = run(["verify-soundness", hc("chain"), "--query", "A => C", "--mode", "ind", "--base-depth", "1"])
        assert code == 0 and "oracle (inductive, base depth 1): VALID\nsoundness: ok\n" in out
        # A repeated atom is numbered once; a root beyond the depth leaves
        # no grounding; a body that surely holds and a head that surely
        # fails make a counterexample with no variable in it.
        evenodd = load("evenodd").program
        for text, semantics, depth, want in (
            ("eq(int) => eq(int)", Semantics.IND, 1, (Verdict.VALID, None, "")),
            ("eq(int) => eq(evenList(evenList(int)))", Semantics.COIND, 1, (
                Verdict.UNKNOWN, None, "no grounding of the formula fits inside the bounded base"
            )),
            ("eq(int) => eq(evenList(int))", Semantics.IND, 2, (
                Verdict.INVALID, {}, "instance eq(evenList(int)) fails at depth 2"
            )),
        ):
            v = herbrand.valid(evenodd, parse_formula(text), semantics, depth)
            assert (v.status, v.counterexample, v.note) == want, text

    @pytest.mark.parametrize("argv", [
        ["certify", "tests/golden/oracle.hc", "--atom", "s(c)", "--depth", "4"],
        ["certify", "programs/p11.hc", "--atom", "D(z,z)", "--depth", "7"],
        ["verify-soundness", "programs/pair.hc", "--query", "eq(pair(int,int))", "--mode", "ind",
         "--lemma", "eq(X) => eq(pair(X,X))", "--base-depth", "2"],
        ["certify", "tests/golden/oracle.hc", "--atom", "r(c,f(c,c))", "--depth", "4"],
    ])
    def test_these_build_no_base(self, argv, no_base, monkeypatch):
        """The s chain and p11's D(z,z) lean on atoms beyond the depth; the
        certify calls, goldens 28, 17 and 27, print their goldens.  The
        oracle judges the lemma run's query in the program extended with
        the registered lemma, whose head overlaps an axiom's, so the
        reached atoms get every instance."""
        monkeypatch.chdir(ROOT)
        programs = []
        reach = herbrand._reach

        def spy(program, *args):
            programs.append(program)
            return reach(program, *args)

        monkeypatch.setattr(herbrand, "_reach", spy)
        for json_flag in ([], ["--json"]) if argv[0] == "certify" else ([],):
            code, out, _ = run(argv + json_flag)
            assert code == 0
            if argv[0] == "certify":
                index = json.loads((ROOT / "tests" / "golden" / "index.json").read_text(encoding="utf-8"))
                [name] = [name for name, entry in index.items() if entry["argv"] == argv + json_flag]
                assert out == (ROOT / "tests" / "golden" / name).read_text(encoding="utf-8"), name
            else:
                assert "oracle (inductive, base depth 2): VALID\nsoundness: ok\n" in out
        assert {len(p.clauses) - p.axiom_count for p in programs} == {argv.count("--lemma")}

    @pytest.mark.parametrize("argv", [
        ["model", "programs/pair.hc", "--semantics", "least", "--depth", "2"],
        ["model", "programs/p11.hc", "--semantics", "greatest", "--depth", "3", "--policy", "opt"],
        ["verify-soundness", "programs/pair.hc", "--query", "eq(X) => eq(pair(X,X))", "--mode", "ind",
         "--base-depth", "2"],
    ])
    def test_these_still_build_a_base(self, argv, no_base, monkeypatch):
        """A model, and the validity of a formula with variables, are
        computed over the whole base."""
        monkeypatch.chdir(ROOT)
        with pytest.raises(BaseBuilt):
            run(argv)


# The closures of one to three atoms, and a term chain over z and f.
SHAPES = [text for n in (1, 2, 3) for _, text, _ in families(n) if text]
SHAPES.append("k1 : p(X) => p(f(X)).\nk2 : => p(z).\n")
SHAPE_PROGRAMS = [parse_program(text).program for text in SHAPES]


@pytest.fixture(scope="module")
def shape_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("shapes")
    paths = [root / f"shape{i}.hc" for i in range(len(SHAPES))]
    for path, text in zip(paths, SHAPES):
        path.write_text(text)
    return paths


@st.composite
def shape_queries(draw):
    """A shape's index and a query over its predicates and `r`, which no
    clause defines, and over z, c and f: one arity in eight is wrong."""
    index = draw(st.integers(0, len(SHAPES) - 1))
    arities = dict(SHAPE_PROGRAMS[index].signature.predicates, r=1, z=0, c=0, f=1)

    def arity(name):
        usual = arities[name]
        return usual if draw(st.integers(0, 7)) else draw(st.sampled_from([a for a in (0, 1, 2) if a != usual]))

    def term(depth):
        functor = draw(st.sampled_from("zcf"))
        return App(functor, tuple(term(depth - 1) if depth else App("c") for _ in range(arity(functor))))

    def atom():
        pred = draw(st.sampled_from(sorted(arities.keys() - set("zcf"))))
        return Atom(pred, tuple(term(2) for _ in range(arity(pred))))

    body = tuple(atom() for _ in range(draw(st.integers(0, 2))))
    return index, HornClause(body, atom())


class TestArityClashes:
    @given(shape_queries())
    @settings(max_examples=100, deadline=None)
    def test_exit_65_exactly_on_a_signature_clash(self, shape_paths, case):
        """In every mode a query exits 65 with one input-error line exactly
        when its atoms clash with the program's signature; otherwise the
        search ends as PROVED, FAILED or EXHAUSTED, and a proof it finds
        passes `check`."""
        index, query = case
        try:
            SHAPE_PROGRAMS[index].signature.merged([query.head, *query.body])
            clash = False
        except SignatureError:
            clash = True
        path, text = str(shape_paths[index]), format_formula(query)
        for mode in ("ind", "coind", "ext"):
            code, out, err = run(["resolve", path, "--query", text, "--mode", mode, "--json"])
            if clash:
                assert (code, out) == (65, "") and err.startswith("input error: ") and err.count("\n") == 1
                continue
            assert code in (0, 1, 2), (mode, err)
            if code == 0:
                proof = json.loads(out)["proof"]
                assert run(["check", path, "--proof", proof, "--formula", text])[0] == 0, (mode, proof)
