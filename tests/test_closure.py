"""The closure route of the oracle against its base route and the engine.

`herbrand.closure` answers a ground atom from the finite AND-graph it
reaches through its clause instances, and `certify_gfp` and `valid` take
that route first when the graph stays within the depth bound.  Here:

  * a differential: on seeded random programs and ground atoms, each
    caller answers exactly as it does with the closure forced to fall
    back to the base (patched to report that it left the depth);
  * the completeness bridge: an independent judge written as plain
    recursion (`reference_herbrand.closure_judge`) against the engine, on
    seeded programs and on generated chains and cycles;
  * the route pins: which calls build a base, and which need none.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from cohorn import App, Atom, engine, herbrand, parse_program
from cohorn.herbrand import Semantics, Verdict
from cohorn.syntax import parse_atom
from cohorn.terms import fact
from helpers import load, random_program
from reference_herbrand import ClosureTooLarge, closure_judge
from test_cli import hc, run


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


def answers(program, atom: Atom, depth: int) -> tuple:
    """What `certify_gfp` and `valid` in both semantics answer, or the type
    of the error they raise."""
    out = []
    try:
        cert = herbrand.certify_gfp(program, atom, depth)
        out.append(cert and (
            list(cert.support), list(cert.support.texts()), cert.sorted_frontier(), cert.exact
        ))
    except Exception as err:  # compared by type below
        out.append(type(err))
    for semantics in Semantics:
        try:
            v = herbrand.valid(program, fact(atom), semantics, depth)
            out.append((v.status, v.note, v.counterexample))
        except Exception as err:
            out.append(type(err))
    return tuple(out)


def left_the_depth(*args):
    return None


class TestDifferential:
    def test_closure_answers_as_the_base_does(self):
        """9,600 cases.  Where no call of a case closed, all three callers
        took the base route, which is the forced run itself, so only the
        cases where a closure answered are run again with it forced."""
        rng = random.Random(7)
        real = herbrand.closure
        cases = closed = 0
        for _ in range(600):
            program = random_program(rng)
            for atom in ground_atoms(rng, program):
                for depth in range(1, 5):
                    judged = []

                    def spy(*args):
                        judged.append(real(*args))
                        return judged[-1]

                    with mock.patch.object(herbrand, "closure", spy):
                        got = answers(program, atom, depth)
                    cases += 1
                    if any(c is not None for c in judged):
                        closed += 1
                        with mock.patch.object(herbrand, "closure", left_the_depth):
                            assert got == answers(program, atom, depth), (program, atom, depth)
        assert cases == 9600
        assert closed > 4000


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
    """On a closure that closes, the engine is complete: coinductive
    resolution at depth |closure| + 2 proves the atom iff it is in the
    greatest model, and inductive resolution proves it at depth h and not at
    h - 1, where h is its least-model stage.  The oracle's own closure
    agrees with the judge."""

    def bridge(self, program, atom, limit) -> tuple[bool, bool]:
        gfp, stage, size = closure_judge(program, atom, limit)
        closed = herbrand.closure(program, atom, 10**6)
        assert (closed.greatest, closed.least) == (gfp, stage is not None), atom
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
    """`TestLongChain`'s program: k0 : => p(c0) and k_i : p(c_(i-1)) => p(c_i)
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
        assert (code, report["judge"], report["exact"]) == (0, "closure", True)
        assert report["stats"] == {"base_atoms": 0, "instances": 10_002, "rounds": 0}
        assert len(report["support"]) == 10_002
        for mode in ("ind", "coind"):
            code, out, _ = run(
                ["verify-soundness", str(long_chain), "--query", "p(c3)", "--mode", mode, "--base-depth", "1"]
            )
            assert code == 0 and "base depth 1): VALID\nsoundness: ok\n" in out, mode

    def test_closing_atoms_build_no_base(self, no_base):
        code, out, _ = run(["certify", hc("evenodd"), "--atom", "eq(evenList(int))", "--depth", "3"])
        assert code == 0 and "judge: closure\n" in out and "exact post-fixed point" in out
        code, out, _ = run(["certify", hc("loop"), "--atom", "p(f(c))", "--depth", "3", "--const", "c"])
        assert code == 1 and "judge: closure\nresult: no certificate within bound\n" in out
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
        # A closed closure that is not in the model: INVALID, from the closure.
        src = load("evenodd")
        v = herbrand.valid(src.program, fact(parse_atom("eq(evenList(int))")), Semantics.IND, 2)
        assert (v.status, v.counterexample, v.note) == (
            Verdict.INVALID, {}, "instance eq(evenList(int)) fails at depth 2"
        )

    @pytest.mark.parametrize("argv", [
        ["certify", "tests/golden/oracle.hc", "--atom", "s(c)", "--depth", "4"],
        ["certify", "programs/p11.hc", "--atom", "D(z,z)", "--depth", "7"],
        ["verify-soundness", "programs/pair.hc", "--query", "eq(pair(int,int))", "--mode", "ind",
         "--lemma", "eq(X) => eq(pair(X,X))", "--base-depth", "2"],
    ])
    def test_these_still_build_a_base(self, argv, no_base, monkeypatch):
        """The s chain and p11's D(z,z) leave the depth, and a registered
        lemma makes heads overlap."""
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        with pytest.raises(BaseBuilt):
            run(argv)
