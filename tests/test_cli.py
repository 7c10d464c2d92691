"""Tests for the command-line driver: exit codes, reports, determinism."""

import argparse
import gc
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest

import cohorn.cli
from cohorn import engine
from cohorn.cli import _UsageError, _build_parser, _cut_goals, cli
from cohorn.engine import Outcome, SearchResult, TraceEvent
from cohorn.proofs import Lambda, Nu, check, env_for_program, format_proof, spine
from cohorn.syntax import parse_formula, parse_program, parse_proof

import reference_cli
from helpers import PROGRAMS_DIR
from reference_proofs import format_derivation
from test_tabling import diamond, propositional_runs, random_program_runs, unfolded_text


def hc(name: str) -> str:
    return str(PROGRAMS_DIR / f"{name}.hc")


ORACLE_HC = str(Path(__file__).resolve().parent / "golden" / "oracle.hc")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli(argv)
    return code, out.getvalue(), err.getvalue()


def json_depth(value) -> int:
    """How many lists and dicts deep `value` nests: 0 for a scalar."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(json_depth, value), default=0)
    return 0


def run_process(argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m cohorn.cli` in a fresh interpreter, with no test-runner
    frames on the stack and the default recursion limit.  Keyword
    arguments go to `subprocess.run`; by default it captures stdout and
    stderr as text."""
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    kwargs = {"capture_output": True, "text": True, **kwargs}
    return subprocess.run([sys.executable, "-m", "cohorn.cli", *argv], env=env, **kwargs)


class TestResolveCommand:
    def test_proved_exit_zero(self):
        code, out, _ = run(
            ["resolve", hc("evenodd"), "--query", "eq(evenList(int))", "--mode", "coind", "--depth", "8"]
        )
        assert code == 0
        assert "proof: nu a1. k2 k3 (k1 k3 a1)" in out

    def test_failed_exit_one(self):
        code, _, _ = run(["resolve", hc("p6"), "--query", "A(X)", "--mode", "ind", "--depth", "8"])
        assert code == 1

    def test_exhausted_exit_two(self):
        code, _, _ = run(
            ["resolve", hc("p11"), "--query", "D(z,z)", "--mode", "ext", "--depth", "12"]
        )
        assert code == 2

    def test_lemma_flag(self):
        code, out, _ = run(
            [
                "resolve", hc("bush"), "--query", "eq(bush(int))", "--mode", "ext",
                "--lemma", "eq(X) => eq(bush(X))", "--depth", "8",
            ]
        )
        assert code == 0
        assert "(nu a1. \\b1 -> k2 b1 (a1 (a1 b1))) k1" in out

    def test_nu_evidence_atomic_lemma(self, tmp_path):
        # The lemma's evidence is a nu term, used bare as the proof of q(c);
        # it re-checks as a step on the lemma.
        program = tmp_path / "nu_lemma.hc"
        program.write_text("k1 : p(f(f(X))), q(f(X)) => q(X).\nk2 : q(f(X)) => p(X).\n")
        argv = ["resolve", str(program), "--query", "q(c)", "--mode", "coind",
                "--lemma", "q(X)", "--depth", "4"]
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert "outcome: PROVED" in out
        assert "proof: nu a1. k1 (k2 a1) a1" in out
        assert "Lp-m [lemma {X -> c}] q(c)" in out
        check = ["check", str(program), "--proof", "nu a1. k1 (k2 a1) a1", "--formula", "q(c)"]
        code, out, _ = run(check + ["--lemma", "q(X)", "--depth", "4"])
        assert code == 0 and "result: valid" in out
        code, out, _ = run(check)  # without the lemma the term is a Nu' step, and fails
        assert code == 1 and "rejected (NO_MATCH)" in out

    def test_auto_lemma_flag(self):
        code, out, _ = run(
            ["resolve", hc("bush"), "--query", "eq(bush(int))", "--mode", "ext", "--depth", "8", "--auto-lemma"]
        )
        assert code == 0
        assert "auto-lemma: eq(X1) => eq(bush(X1))" in out

    def test_json_report(self):
        code, out, _ = run(
            ["resolve", hc("pair"), "--query", "eq(pair(int,int))", "--mode", "ind", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "PROVED"
        assert report["proof"] == "k1 k2 k2"
        assert report["derivation"][0]["rule"] == "Lp-m"
        assert report["exit_code"] == 0

    def test_unicode_flag(self):
        _, out, _ = run(
            ["resolve", hc("evenodd"), "--query", "eq(evenList(int))", "--mode", "coind", "--unicode"]
        )
        assert "ν" in out

    def test_byte_determinism(self):
        argv = ["resolve", hc("bush"), "--query", "eq(bush(int))", "--mode", "ext", "--auto-lemma", "--json"]
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert first == second

    @pytest.mark.parametrize("mode", ["ind", "coind", "ext"])
    def test_json_carries_the_trace_only_under_the_flag(self, mode):
        argv = ["resolve", hc("evenodd"), "--query", "eq(evenList(int))", "--mode", mode, "--json"]
        _, out, _ = run(argv)
        report = json.loads(out)
        assert "trace" not in report
        _, out, _ = run(argv + ["--trace"])
        traced = json.loads(out)
        assert list(traced)[-4:] == ["derivation", "trace", "cut_goals", "exit_code"]
        assert traced.pop("trace")
        assert list(traced.items()) == list(report.items())

    @pytest.mark.parametrize(
        "argv, goals",
        [
            (["resolve", hc("p11"), "--query", "D(z,z)", "--mode", "coind", "--depth", "12"],
             ["D(s(s(z)),s(s(z)))"]),
            (["resolve", hc("evenodd"), "--query", "eq(evenList(int))", "--mode", "ind"], ["eq(int)"]),
        ],
    )
    def test_exhausted_reports_name_the_cut_goals(self, argv, goals):
        code, out, _ = run(argv)
        assert code == 2 and out.splitlines()[-1] == f"cut goals: {', '.join(goals)}"
        code, out, _ = run(argv + ["--json"])
        assert code == 2 and json.loads(out)["cut_goals"] == goals
        _, out, _ = run(argv + ["--json", "--trace"])
        report = json.loads(out)
        assert sorted({e["goal"] for e in report["trace"] if e["kind"] == "cut"}) == goals

    def test_other_outcomes_have_no_cut_goals(self):
        for argv in (
            ["resolve", hc("evenodd"), "--query", "eq(evenList(int))", "--mode", "coind"],
            ["resolve", hc("p6"), "--query", "A(X)", "--mode", "ind"],
        ):
            code, out, _ = run(argv)
            assert code in (0, 1) and "cut goals" not in out
            _, out, _ = run(argv + ["--json"])
            assert json.loads(out)["cut_goals"] is None

    def test_cut_goals_are_distinct_sorted_and_capped(self):
        trace = tuple(TraceEvent("cut", 3, f"p(c{i % 12})", "k1") for i in range(30))
        trace += (TraceEvent("try", 0, "a", "k0"),)
        assert _cut_goals(SearchResult(Outcome.EXHAUSTED, None, None, trace, None)) == sorted(
            f"p(c{i})" for i in range(12)
        )[:10]
        assert _cut_goals(SearchResult(Outcome.FAILED, None, None, trace, None)) is None

    def test_the_engine_trace_is_the_same_under_every_flag(self, monkeypatch):
        """The flags only choose what a report shows: `engine.resolve`
        returns the same trace with and without --json and --trace, and the
        JSON trace is that trace, event by event."""
        results = []
        resolve = engine.resolve

        def recorded(*args, **kwargs):
            results.append(resolve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(engine, "resolve", recorded)
        argv = ["resolve", hc("p11"), "--query", "D(z,z)", "--mode", "coind", "--depth", "12"]
        for flags in ([], ["--trace"], ["--json"], ["--json", "--trace"]):
            run(argv + flags)
        trace = results[0].trace
        assert len(results) == 4 and all(r.trace == trace for r in results)
        assert [e.kind for e in trace] == ["guarded", "try"] * 12 + ["guarded", "cut"]
        _, out, _ = run(argv + ["--json", "--trace"])
        fields = ("kind", "depth", "goal", "entry", "detail")
        assert json.loads(out)["trace"] == [{f: getattr(e, f) for f in fields} for e in trace]


class TestCheckCommand:
    def test_valid(self):
        code, out, _ = run(
            ["check", hc("pair"), "--proof", "k1 k2 k2", "--formula", "eq(pair(int,int))"]
        )
        assert code == 0
        assert "result: valid" in out

    def test_rejected_with_reason(self):
        code, out, _ = run(["check", hc("pair"), "--proof", "k1 k2", "--formula", "eq(pair(int,int))"])
        assert code == 1
        assert "ARITY" in out

    def test_with_lemma(self):
        code, out, _ = run(
            [
                "check", hc("bush"),
                "--proof", "(nu a. \\b -> k2 b (a (a b))) k1",
                "--formula", "eq(bush(int))",
                "--lemma", "eq(X) => eq(bush(X))",
            ]
        )
        assert code == 0
        assert "result: valid" in out

    def test_lemma_proof_checked_once(self, monkeypatch):
        from cohorn import engine

        checked = []
        engine_check = engine.check
        monkeypatch.setattr(
            engine, "check", lambda env, ev, f: checked.append(str(f)) or engine_check(env, ev, f)
        )
        code, out, _ = run(
            [
                "check", hc("bush"),
                "--proof", "(nu a. \\b -> k2 b (a (a b))) k1",
                "--formula", "eq(bush(int))",
                "--lemma", "eq(X) => eq(bush(X))",
            ]
        )
        assert code == 0
        assert "result: valid" in out
        assert checked == ["eq(X) => eq(bush(X))"]

    def test_lemma_refused_registration(self):
        code, out, err = run(
            ["check", hc("chain"), "--proof", "k1", "--formula", "A", "--lemma", "A => A"]
        )
        assert code == 1
        assert out == ""
        assert err == "error: lemma A => A could not be registered (HNF_REQUIRED)\n"


class TestModelCommand:
    def test_least(self):
        code, out, _ = run(["model", hc("p6"), "--semantics", "least", "--depth", "3"])
        assert code == 0
        assert out.index("A(g)") < out.index("A(f(g))") < out.index("A(f(f(g)))")

    def test_greatest_pessimistic_empty(self):
        code, out, _ = run(
            ["model", hc("loop"), "--semantics", "greatest", "--depth", "4", "--policy", "pess", "--const", "g"]
        )
        assert code == 0
        assert "atoms (0):" in out

    def test_policy_documented_in_output(self):
        _, out, _ = run(
            ["model", hc("evenodd"), "--semantics", "greatest", "--depth", "2", "--policy", "opt"]
        )
        assert "out-of-base body atoms treated as present" in out

    def test_oracle_stats(self):
        argv = ["model", hc("pair"), "--semantics", "least", "--depth", "2"]
        _, out, _ = run(argv)
        assert "stats: base_atoms=2 instances=2 rounds=3" in out
        _, out, _ = run(argv + ["--json"])
        assert json.loads(out)["stats"] == {"base_atoms": 2, "instances": 2, "rounds": 3}


class TestLongChain:
    """k0 : => p(c0) and k_i : p(c_(i-1)) => p(c_i) for i up to 10,001:
    the least model takes a round per atom, 10,002 of them, and a last
    round that adds nothing."""

    @pytest.fixture
    def chain(self, tmp_path):
        prog = tmp_path / "chain.hc"
        prog.write_text(
            "k0 : => p(c0).\n" + "".join(f"k{i} : p(c{i - 1}) => p(c{i}).\n" for i in range(1, 10_002))
        )
        return str(prog)

    def test_verify_soundness(self, chain):
        argv = ["verify-soundness", chain, "--query", "p(c9999) => p(c10000)", "--mode", "ind",
                "--base-depth", "1"]
        code, out, _ = run(argv)
        assert code == 0
        assert "oracle (inductive, base depth 1): VALID\nsoundness: ok\n" in out

    def test_least_model(self, chain):
        code, out, _ = run(["model", chain, "--semantics", "least", "--depth", "1"])
        assert code == 0
        assert "stats: base_atoms=10002 instances=10002 rounds=10003\natoms (10002):\n" in out
        assert out.count("\n  p(c") == 10_002


class TestCertifyCommand:
    def test_found(self):
        code, out, _ = run(["certify", hc("p11"), "--atom", "D(z,z)", "--depth", "6"])
        assert code == 0
        assert "certificate found" in out
        assert "frontier" in out  # leans on the bound, prominently noted

    def test_not_found(self):
        code, out, _ = run(["certify", hc("loop"), "--atom", "p(g)", "--depth", "5"])
        assert code == 1
        assert "no certificate within bound" in out

    def test_exact(self):
        code, out, _ = run(["certify", hc("evenodd"), "--atom", "eq(evenList(int))", "--depth", "3"])
        assert code == 0
        assert "exact post-fixed point" in out

    def test_deep_frontier(self, tmp_path):
        """At depth 1,000, p(z) reaches p(s^i(z)) for i < 1,000 and leans on
        p(s^1000(z)), a 3,004-character atom: listed, printed and written as
        JSON without recursion."""
        prog = tmp_path / "down.hc"
        prog.write_text("k1 : p(s(X)) => p(X).\n")
        argv = ["certify", str(prog), "--atom", "p(z)", "--depth", "1000"]
        deep = "p(" + "s(" * 1000 + "z" + ")" * 1001
        code, out, _ = run(argv)
        assert code == 0 and "support (1000):\n  p(z)\n  p(s(z))\n" in out
        assert out.endswith(f"frontier (1), assumed present beyond the bound:\n  {deep}\n")
        code, out, _ = run(argv + ["--json"])
        report = json.loads(out)
        assert (code, len(report["support"]), report["frontier"]) == (0, 1000, [deep])
        assert report["stats"] == {"base_atoms": 1000, "instances": 1000, "rounds": 1}

    def test_oracle_stats(self):
        # The optimistic gfp of the atoms D(z,z) reaches: the six
        # D(s^i(z),s^j(z)) with i + j <= 2, one instance each.
        argv = ["certify", hc("p11"), "--atom", "D(z,z)", "--depth", "3"]
        _, out, _ = run(argv)
        assert "stats: base_atoms=6 instances=6 rounds=1" in out
        _, out, _ = run(argv + ["--json"])
        assert json.loads(out)["stats"] == {"base_atoms": 6, "instances": 6, "rounds": 1}
        # eq(evenList(int)) reaches three atoms, all in its support.
        argv = ["certify", hc("evenodd"), "--atom", "eq(evenList(int))", "--depth", "3"]
        _, out, _ = run(argv)
        assert "stats: base_atoms=3 instances=3 rounds=1" in out
        report = json.loads(run(argv + ["--json"])[1])
        assert report["stats"] == {"base_atoms": 3, "instances": 3, "rounds": 1}
        assert len(report["support"]) == 3
        _, out, _ = run(["certify", hc("loop"), "--atom", "p(g)", "--depth", "5", "--json"])
        assert json.loads(out)["stats"] is None


class TestOracleStatsPinned:
    """The `stats` of the corpus `model` calls at depth 3 (least, greatest
    pessimistic, greatest optimistic) and of a `certify` call on the last
    atom, in string order, of each optimistic model: (base_atoms,
    instances, rounds) of the optimistic gfp of the atoms it reaches."""

    STATS = {
        "bush": ([(3, 3, 2), (3, 3, 3), (3, 3, 1)], ("eq(int)", (1, 1, 1))),
        "chain": ([(3, 2, 1), (3, 2, 4), (3, 2, 4)], None),
        "empty": ([(0, 0, 1), (0, 0, 1), (0, 0, 1)], None),
        "evenodd": ([(7, 7, 2), (7, 7, 1), (7, 7, 1)], ("eq(oddList(oddList(int)))", (5, 5, 1))),
        "loop": ([(0, 0, 1), (0, 0, 1), (0, 0, 1)], None),
        "p11": ([(9, 9, 1), (9, 9, 7), (9, 9, 1)], ("D(z,z)", (6, 6, 1))),
        "p6": ([(3, 3, 2), (3, 3, 1), (3, 3, 1)], ("A(g)", (1, 1, 1))),
        "p7": ([(2, 2, 2), (2, 2, 1), (2, 2, 1)], ("B(f)", (1, 1, 1))),
        "pair": ([(5, 5, 4), (5, 5, 1), (5, 5, 1)], ("eq(pair(pair(int,int),pair(int,int)))", (3, 3, 1))),
    }

    def test_corpus(self):
        """The least model is pessimistic whatever --policy says, so least
        with --policy opt reports what least with --policy pess does."""
        variants = (("least", "pess"), ("greatest", "pess"), ("greatest", "opt"), ("least", "opt"))
        for name, (models, cert) in self.STATS.items():
            for (semantics, policy), want in zip(variants, models + models[:1]):
                argv = ["model", hc(name), "--semantics", semantics, "--depth", "3", "--policy", policy]
                report = json.loads(run(argv + ["--json"])[1])
                assert tuple(report["stats"].values()) == want, (name, semantics, policy)
                if semantics == "least":
                    assert report["policy"] == "pessimistic", name
                    assert report["note"].endswith("absent (pessimistic)"), name
            if cert:
                atom, want = cert
                argv = ["certify", hc(name), "--atom", atom, "--depth", "3", "--json"]
                assert tuple(json.loads(run(argv)[1])["stats"].values()) == want, name


class TestVerifySoundness:
    def test_proved_and_valid(self):
        code, out, _ = run(
            [
                "verify-soundness", hc("evenodd"), "--query", "eq(evenList(int))",
                "--mode", "coind", "--depth", "8", "--base-depth", "2",
            ]
        )
        assert code == 0
        assert "soundness: ok" in out

    def test_oracle_stats_only_in_model_and_certify(self):
        reports = {
            name: json.loads(run(argv + ["--json"])[1])
            for name, argv in (
                ("resolve", ["resolve", hc("pair"), "--query", "eq(int)", "--mode", "ind"]),
                ("verify-soundness", ["verify-soundness", hc("pair"), "--query", "eq(int)",
                                      "--mode", "ind", "--base-depth", "2"]),
                ("model", ["model", hc("pair"), "--semantics", "least", "--depth", "2"]),
                ("certify", ["certify", hc("pair"), "--atom", "eq(int)", "--depth", "2"]),
            )
        }
        assert "stats" not in reports["resolve"]
        assert "stats" not in reports["verify-soundness"]
        assert list(reports["model"]) == [
            "command", "program", "semantics", "depth", "policy", "note",
            "stats", "atoms", "exit_code",
        ]
        assert list(reports["certify"]) == [
            "command", "program", "atom", "depth", "found", "exact", "stats", "support", "frontier",
            "exit_code",
        ]

    def test_not_proved_is_not_a_violation(self):
        code, out, _ = run(
            [
                "verify-soundness", hc("p7"), "--query", "B(X) => A(X)",
                "--mode", "ind", "--depth", "8", "--base-depth", "1",
            ]
        )
        assert code == 0
        assert "outcome: FAILED" in out

    def test_corpus_never_trips_exit_three(self):
        cases = [
            (hc("pair"), "eq(pair(int,int))", "ind", "2"),
            (hc("evenodd"), "eq(evenList(int))", "coind", "2"),
            (hc("chain"), "A => C", "ind", "1"),
            (hc("p6"), "A(X)", "ext", "3"),
            (hc("p11"), "D(z,z)", "ext", "4"),
        ]
        for prog, query, mode, base_depth in cases:
            code, _, _ = run(
                [
                    "verify-soundness", prog, "--query", query, "--mode", mode,
                    "--depth", "8", "--base-depth", base_depth,
                ]
            )
            assert code == 0


class TestErrorChannels:
    def test_usage_error(self):
        code, _, err = run(["resolve"])
        assert code == 64

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["resolve", "--query", "eq(int)", "--mode", "ind"], "--depth", "0"),
            (["resolve", "--query", "eq(int)", "--mode", "ind"], "--depth", "-1"),
            (["resolve", "--query", "eq(int)", "--mode", "ind"], "--depth", "abc"),
            (["check", "--proof", "k1", "--formula", "eq(int)", "--lemma", "eq(X) => eq(bush(X))"], "--depth", "0"),
            (["model", "--semantics", "least"], "--depth", "0"),
            (["model", "--semantics", "least", "--depth", "2"], "--max-atoms", "0"),
            (["certify", "--atom", "eq(int)"], "--depth", "-2"),
            (["certify", "--atom", "eq(int)"], "--max-atoms", "-1"),
            (["verify-soundness", "--query", "eq(int)", "--mode", "ind"], "--base-depth", "0"),
            (["verify-soundness", "--query", "eq(int)", "--mode", "ind", "--base-depth", "2"], "--depth", "0"),
            (["verify-soundness", "--query", "eq(int)", "--mode", "ind", "--base-depth", "2"], "--max-atoms", "0"),
        ],
    )
    def test_non_positive_bounds_are_usage_errors(self, argv, flag, value):
        """Depths and the base budget must be positive integers: one
        `usage error:` line and exit 64, before the program is read."""
        code, out, err = run([argv[0], hc("bush"), *argv[1:], flag, value])
        assert (code, out) == (64, "")
        assert err == f"usage error: argument {flag}: invalid positive int value: '{value}'\n"

    def test_unknown_command(self):
        code, _, _ = run(["frobnicate"])
        assert code == 64

    def test_missing_file(self):
        code, _, err = run(["resolve", "no-such.hc", "--query", "A", "--mode", "ind"])
        assert code == 66

    def test_malformed_program(self, tmp_path):
        bad = tmp_path / "bad.hc"
        bad.write_text("k1 : => eq(int)")  # missing final dot
        code, _, err = run(["resolve", str(bad), "--query", "A", "--mode", "ind"])
        assert code == 65

    def test_malformed_query(self):
        code, _, _ = run(["resolve", hc("pair"), "--query", "eq((", "--mode", "ind"])
        assert code == 65

    def test_load_restriction_violation(self, tmp_path):
        bad = tmp_path / "overlap.hc"
        bad.write_text("k1 : => A(X).\nk2 : => A(f(Y)).\n")
        code, _, err = run(["model", str(bad), "--semantics", "least", "--depth", "2"])
        assert code == 65
        assert "overlap" in err

    @pytest.mark.parametrize("const", ["", "X", "f(a)", "a b"])
    @pytest.mark.parametrize("argv", [["model", "--semantics", "greatest", "--depth", "1"]])
    def test_const_must_be_a_term_constant(self, tmp_path, argv, const):
        """An empty name, a variable, a compound term or two names is no
        constant of the universe."""
        program = tmp_path / "k1.hc"
        program.write_text("k1 : eq(X) => eq(X).\n")
        assert run([argv[0], str(program), *argv[1:], "--const", const]) == (
            65, "", f"input error: extra constant {const!r} is not a term constant\n"
        )

    def test_internal_error_exit_70(self, tmp_path):
        """A query nested 700 terms deep overflows the recursion: exit 70, no traceback."""
        prog = tmp_path / "nat.hc"
        prog.write_text("k1 : => eq(z).\nk2 : eq(X) => eq(s(X)).\n")
        query = "eq(" + "s(" * 700 + "z" + ")" * 700 + ")"
        proc = run_process(["resolve", str(prog), "--query", query, "--mode", "ind", "--depth", "800"])
        assert proc.returncode == 70
        assert proc.stderr.startswith("internal error: RecursionError")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["model", hc("loop"), "--semantics", "greatest", "--depth", "4", "--policy", "pess", "--const", "g"],
        ["resolve", hc("evenodd"), "--query", "eq(evenList(int))", "--mode", "coind", "--json"],
    ])
    def test_closed_stdout_exit_74(self, argv):
        """A reader that has closed standard output (`cohorn ... | head`)
        ends the run with a quiet exit 74, not a traceback."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_process(argv, stdout=write, stderr=subprocess.PIPE, capture_output=False)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (74, "")

    def test_deep_derivation_json(self, tmp_path):
        """A 1,000-step chain proves at the default recursion limit, and
        its JSON report holds one flat node per step, so the stdlib reads
        it at that limit too."""
        n = 1000
        prog = tmp_path / "chain.hc"
        lines = ["k0 : => a0."] + [f"k{i} : a{i - 1} => a{i}." for i in range(1, n + 1)]
        prog.write_text("\n".join(lines) + "\n")
        argv = ["resolve", str(prog), "--query", f"a{n}", "--mode", "ind", "--depth", str(n + 1), "--json"]
        proc = run_process(argv)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["outcome"] == "PROVED"
        assert proc.stdout == json.dumps(report, indent=2) + "\n"
        nodes = report["derivation"]
        assert len(nodes) == n + 1
        assert [node["children"] for node in nodes] == [[i + 1] for i in range(n)] + [[]]

    def test_deep_search(self, tmp_path):
        """The search runs on a heap stack: a 1,500-step chain resolves in
        every mode, as text and as JSON, and `check` accepts each proof;
        the coinductive 500-cycle closes through all 500 clauses."""
        n = 1500
        chain = tmp_path / "chain.hc"
        chain.write_text("".join(["k0 : => a0.\n"] + [f"k{i} : a{i - 1} => a{i}.\n" for i in range(1, n + 1)]))
        for mode in ("ind", "coind", "ext"):
            argv = ["resolve", str(chain), "--query", f"a{n}", "--mode", mode, "--depth", str(n + 1)]
            text = run_process(argv)
            assert (text.returncode, text.stderr) == (0, ""), (mode, text.stderr)
            assert "outcome: PROVED" in text.stdout
            proc = run_process(argv + ["--json"])
            assert (proc.returncode, proc.stderr) == (0, ""), (mode, proc.stderr)
            proof = json.loads(proc.stdout)["proof"]
            assert proof.count("k") == n + 1
            checked = run_process(["check", str(chain), "--formula", f"a{n}", "--proof", proof, "--json"])
            assert checked.returncode == 0, (mode, checked.stderr)
            assert json.loads(checked.stdout)["valid"] is True
        m = 500
        cycle = tmp_path / "cycle.hc"
        cycle.write_text("".join(f"k{i} : a{i + 1} => a{i}.\n" for i in range(m)) + f"k{m} : a0 => a{m}.\n")
        proc = run_process(["resolve", str(cycle), "--query", "a0", "--mode", "coind", "--depth", str(m + 2), "--json"])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["outcome"] == "PROVED"
        assert report["proof"].startswith("nu a1. k0 (k1 (") and report["proof"].count("k") == m + 1

    def test_deep_check(self, tmp_path):
        """A 1,000-step chain proof checks as text, with --unicode and as
        JSON, and the same proof with a wrong leaf is rejected with a path
        1,000 steps long: proof parsing, checking and rendering have no
        depth limit of their own."""
        n = 1000
        prog = tmp_path / "chain.hc"
        prog.write_text("".join(["k0 : => a0.\n"] + [f"k{i} : a{i - 1} => a{i}.\n" for i in range(1, n + 1)]))
        proof = "k0"
        for i in range(1, n + 1):
            proof = f"k{i} ({proof})"
        argv = ["check", str(prog), "--formula", f"a{n}", "--proof"]
        for flags in ([], ["--unicode"], ["--json"]):
            proc = run_process(argv + [proof] + flags)
            assert proc.returncode == 0, (flags, proc.stderr)
        assert "result: valid" in run_process(argv + [proof]).stdout
        report = json.loads(proc.stdout)
        assert proc.stdout == json.dumps(report, indent=2) + "\n"
        assert json_depth(report) <= 4
        wrong = run_process(argv + [proof.replace("(k0)", "(k5)"), "--json"])
        assert wrong.returncode == 1, wrong.stderr
        assert len(json.loads(wrong.stdout)["rejection"]["path"]) == n

    def test_deep_certify(self, tmp_path):
        """A ground atom 1,500 terms deep certifies: collecting its
        variables and symbols and finding its base id have no depth limit
        of their own."""
        prog = tmp_path / "nat.hc"
        prog.write_text("k1 : p(X) => p(s(X)).\nk2 : => p(z).\n")
        atom = "p(" + "s(" * 1500 + "z" + ")" * 1501
        proc = run_process(["certify", str(prog), "--atom", atom, "--depth", "1600", "--json"])
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        assert report["found"] and report["exact"]
        assert report["support"][-1] == atom and len(report["support"]) == 1501


class TestBaseBudget:
    """`--max-atoms` bounds the Herbrand base of `model` and of a non-ground
    `verify-soundness`, found before anything is enumerated; `certify`, and
    `verify-soundness` of a ground atom, build no base, and the budget
    bounds the atoms and terms their walk interns instead."""

    USAGE = "usage error: the Herbrand base at depth {} has more than {} atoms or terms; " \
        "raise --max-atoms or lower the depth\n"
    REACHED = "usage error: the atoms reached at depth {} hold more than {} atoms or terms; " \
        "raise --max-atoms or lower the depth\n"
    # Four atoms over four terms at any depth from 4 on; the base at depth 6
    # holds about 4.4e12 terms.
    DEEP = "eq(pair(pair(int,int),pair(int,pair(int,int))))"

    def test_runaway_certificate_returns_at_once(self, tmp_path):
        # p(z) reaches p(s^i(z)) for every i below the depth, interning one
        # more term: at depth 1,000 that is 1,000 atoms over 1,001 terms, and
        # at depth 10^9 the walk would run for hours.
        prog = tmp_path / "down.hc"
        prog.write_text("k1 : p(s(X)) => p(X).\n")
        argv = ["certify", str(prog), "--atom", "p(z)", "--depth"]
        start = time.perf_counter()
        code, out, err = run(argv + ["1000000000", "--max-atoms", "10000"])
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (64, "", self.REACHED.format(1000000000, 10000))
        assert run(argv + ["1000", "--max-atoms", "1001"])[0] == 0
        assert run(argv + ["1000", "--max-atoms", "1000"]) == (64, "", self.REACHED.format(1000, 1000))

    def test_a_ground_atom_is_judged_past_the_base_budget(self):
        for depth in ("5", "6", "12"):
            code, out, _ = run(["certify", hc("pair"), "--atom", self.DEEP, "--depth", depth, "--json"])
            assert code == 0, depth
            assert json.loads(out)["stats"] == {"base_atoms": 4, "instances": 4, "rounds": 1}, depth
        code, out, _ = run(["verify-soundness", hc("pair"), "--query", self.DEEP, "--mode", "ind",
                            "--base-depth", "6"])
        assert code == 0 and "oracle (inductive, base depth 6): VALID" in out

    def test_huge_depth_saturates(self):
        argv = ["model", hc("pair"), "--semantics", "greatest", "--depth", "1000000000"]
        assert run(argv) == (64, "", self.USAGE.format(1000000000, 100000))

    def test_budget_is_inclusive(self):
        # pair's base at depth 3: five terms, five eq atoms; DEEP's walk at
        # depth 6: four atoms over four terms.
        for command, n, usage in (
            (["model", hc("pair"), "--semantics", "least", "--depth", "3"], 5, self.USAGE.format(3, 4)),
            (["certify", hc("pair"), "--atom", self.DEEP, "--depth", "6"], 4, self.REACHED.format(6, 3)),
            (["verify-soundness", hc("pair"), "--query", self.DEEP, "--mode", "ind", "--base-depth", "6"],
             4, self.REACHED.format(6, 3)),
        ):
            assert run(command + ["--max-atoms", str(n)])[0] == 0, command
            assert run(command + ["--max-atoms", str(n - 1)]) == (64, "", usage), command

    def test_deep_unary_universe(self, tmp_path):
        """A unary chain 2,000 terms deep, inside the budget, is built layer
        by layer, not by rescanning every shallower term at each depth."""
        prog = tmp_path / "nat.hc"
        prog.write_text("k1 : p(X) => p(s(X)).\nk2 : => p(z).\n")
        start = time.perf_counter()
        code, out, _ = run(["model", str(prog), "--semantics", "least", "--depth", "2000", "--json"])
        assert time.perf_counter() - start < 10.0
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert len(atoms) == 2000 and atoms[-1] == "p(" + "s(" * 1999 + "z" + ")" * 2000

    def test_only_oracle_commands_take_the_flag(self):
        for argv in (
            ["resolve", hc("pair"), "--query", "eq(int)", "--mode", "ind"],
            ["check", hc("pair"), "--proof", "k2", "--formula", "eq(int)"],
        ):
            code, out, err = run(argv + ["--max-atoms", "5"])
            assert (code, out, err) == (64, "", "usage error: unrecognized arguments: --max-atoms 5\n")


class TestFlagScope:
    """Each command offers only the flags that change its report: `--trace`
    and `--timings` on `resolve`, `--unicode` on `resolve`, `check` and
    `verify-soundness`."""

    ARGV = {
        "check": ["check", hc("pair"), "--proof", "k1 k2 k2", "--formula", "eq(pair(int,int))"],
        "model": ["model", hc("pair"), "--semantics", "least", "--depth", "2"],
        "certify": ["certify", hc("pair"), "--atom", "eq(int)", "--depth", "2"],
        "verify-soundness": ["verify-soundness", hc("pair"), "--query", "eq(int)", "--mode", "ind",
                             "--base-depth", "2"],
    }
    NOT_OFFERED = [(command, flag) for command in ARGV for flag in ("--trace", "--timings")] + [
        ("model", "--unicode"),
        ("certify", "--unicode"),
    ]

    def test_flags_a_command_ignores_are_usage_errors(self):
        assert len(self.NOT_OFFERED) == 10
        for command, flag in self.NOT_OFFERED:
            assert run(self.ARGV[command])[0] == 0
            code, out, err = run(self.ARGV[command] + [flag])
            assert (code, out) == (64, ""), (command, flag)
            assert err == f"usage error: unrecognized arguments: {flag}\n", (command, flag)


def readme_commands() -> list[list[str]]:
    """The argv of every `cohorn` command in the README's `sh` blocks."""
    readme = (PROGRAMS_DIR.parent / "README.md").read_text(encoding="utf-8")
    return [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("cohorn ")
    ]


class TestReadmeExamples:
    def test_every_example_command_succeeds(self, monkeypatch):
        monkeypatch.chdir(PROGRAMS_DIR.parent)
        commands = readme_commands()
        assert len(commands) >= 8
        for argv in commands:
            code, _, err = run(argv)
            assert (code, err) == (0, ""), argv


class _Stop(Exception):
    """Raised in place of loading the program, once `cli` has parsed."""


def parse(parser, argv):
    """What `parser` makes of `argv`: its namespace as a dict, or the
    message of its usage error."""
    try:
        return vars(parser.parse_args(argv))
    except _UsageError as err:
        return str(err)


P = "programs/pair.hc"
RESOLVE = ["resolve", P, "--query", "eq(int)", "--mode", "ind"]
VERIFY = ["verify-soundness", P, "--query", "eq(int)", "--mode", "ind", "--base-depth", "2"]
MODEL = ["model", P, "--semantics", "least", "--depth", "2"]

# Argvs `cli` must refuse with one usage line, whichever flags it built.
MALFORMED = [
    [],
    ["frobnicate"],
    ["frobnicate", P, "--json"],
    ["Resolve", *RESOLVE[1:]],
    ["res", *RESOLVE[1:]],
    ["--json", *RESOLVE],
    ["--depth", "3", *RESOLVE],
    [*RESOLVE, "--bogus"],
    [*MODEL, "--unicode"],
    ["check", P, "--proof", "k2", "--formula", "eq(int)", "--max-atoms", "5"],
    [*RESOLVE[:-1], "fast"],
    [*VERIFY[:5], "co", *VERIFY[6:]],
    ["model", P, "--semantics", "largest", "--depth", "2"],
    [*MODEL, "--policy", "maybe"],
    ["resolve", P, "--mode", "ind"],
    ["resolve", "--query", "eq(int)", "--mode", "ind"],
    ["check", P, "--proof", "k2"],
    ["model", P, "--semantics", "least"],
    ["certify", P],
    VERIFY[:-2],
    [*RESOLVE, "--depth", "0"],
    [*RESOLVE, "--depth"],
    [*RESOLVE, P],
    ["check", P, "--proof", "k2", "--formula", "eq(int)", "--lemma", "eq(int)", "--depth", "0"],
    [*MODEL[:-1], "0"],
    ["certify", P, "--atom", "eq(int)", "--depth", "-1"],
    [*VERIFY[:-1], "0"],
    [*MODEL, "--max-atoms", "0"],
    ["certify", P, "--atom", "eq(int)", "--const", "c"],
]

# Argvs that parse: repeated appends and flags in odd places.
EDGE = [
    [*RESOLVE, "--lemma", "eq(int)", "--lemma", "eq(X) => eq(pair(X,X))"],
    ["check", P, "--proof", "k2", "--formula", "eq(int)", "--lemma", "eq(int)", "--lemma", "eq(int)"],
    [*MODEL, "--const", "c", "--const", "d", "--const", "c"],
    [*VERIFY, "--lemma", "eq(int)", "--lemma", "eq(int)"],
    ["resolve", "--json", "--query", "eq(int)", P, "--mode", "ind", "--depth", "3", "--json"],
    ["model", "--depth=2", P, "--semantics=greatest", "--policy=opt"],
]


class TestPerCommandParser:
    """A call whose first argument names a command builds that command's
    parser alone, `cohorn <command>`, and parses the arguments after the
    command with it; any other call builds the full parser.  Every argv
    parses to the same namespace, or fails with the same usage error, as
    under the full parser."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The parsers `cli` builds, in call order; `cli` stops before it
        loads the program."""
        parsers = []

        def build(command=None):
            parsers.append(_build_parser(command))
            return parsers[-1]

        def stop(path):
            raise _Stop

        monkeypatch.setattr("cohorn.cli._build_parser", build)
        monkeypatch.setattr("cohorn.cli._load_program", stop)
        return parsers

    def test_argvs_parse_as_under_every_flag(self, built):
        index = json.loads((PROGRAMS_DIR.parent / "tests" / "golden" / "index.json").read_text())
        argvs = [call["argv"] for call in index.values()] + readme_commands() + EDGE + MALFORMED
        assert len(MALFORMED) >= 20
        full = _build_parser()
        paths = Counter()
        for argv in argvs:
            built.clear()
            try:
                code, out, err = run(argv)
            except _Stop:
                code = None
            (parser,) = built
            expected = parse(full, argv)
            if argv and argv[0] in cohorn.cli._COMMANDS:
                paths["named"] += 1
                assert parser.prog == f"cohorn {argv[0]}", argv
                assert parse(parser, argv[1:]) == expected, argv
            else:
                paths["full"] += 1
                assert parser.prog == "cohorn", argv
                assert parse(parser, argv) == expected, argv
            if argv in MALFORMED:
                assert isinstance(expected, str), argv
                assert (code, out, err) == (64, "", f"usage error: {expected}\n"), argv
            else:
                assert code is None and isinstance(expected, dict), argv
        assert min(paths.values()) >= 5, paths

    def test_one_argument_parser_per_named_call(self, monkeypatch):
        """A named command constructs one `ArgumentParser`; any other first
        argument builds the full parser, with one subparser per command.
        Each command's flags are declared before counting: that parser is
        built once per process."""
        for name in cohorn.cli._SPECS:
            cohorn.cli._flags(name)
        inits = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            inits.append(parser)
            init(parser, *args, **kwargs)

        def stop(path):
            raise _Stop

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        monkeypatch.setattr("cohorn.cli._load_program", stop)
        check = ["check", P, "--proof", "k2", "--formula", "eq(int)"]
        for argv in (RESOLVE, check, MODEL, ["certify", P, "--atom", "eq(int)"], VERIFY):
            inits.clear()
            with pytest.raises(_Stop):
                run(argv)
            assert [p.prog for p in inits] == [f"cohorn {argv[0]}"], argv
        for argv in (["--json", *RESOLVE], ["frobnicate"], []):
            inits.clear()
            assert run(argv)[0] == 64, argv
            assert [p.prog for p in inits] == ["cohorn"] + [f"cohorn {c}" for c in cohorn.cli._COMMANDS], argv

    def test_flags_are_declared_once_per_process(self, built, monkeypatch):
        """After a warm call per command, a named call declares no flag:
        every flag, `-h/--help` first, is the same `Action` object in every
        call's parser."""
        check = ["check", P, "--proof", "k2", "--formula", "eq(int)"]
        argvs = (RESOLVE, check, MODEL, ["certify", P, "--atom", "eq(int)"], VERIFY)
        for argv in argvs:
            with pytest.raises(_Stop):
                run(argv)
        declared = []
        add_argument = argparse._ActionsContainer.add_argument

        def counted(container, *args, **kwargs):
            declared.append(args)
            return add_argument(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        for argv in argvs:
            built.clear()
            for _ in range(2):
                declared.clear()
                with pytest.raises(_Stop):
                    run(argv)
                assert declared == [], argv
            first, second = built
            assert len(first._actions) == len(second._actions) > 1, argv
            assert first._actions[0].option_strings == ["-h", "--help"], argv
            for a, b in zip(first._actions, second._actions):
                assert a is b, (argv, a.dest)

    def test_no_state_across_calls(self, monkeypatch):
        """A `--lemma` or `--const` of one call is absent from the next,
        also when a full-parser call parses one between two named calls;
        the flags' `default=[]` lists stay empty, and no parser outlives
        its call."""
        parsers, seen = [], []

        def build(command=None):
            parsers.append(_build_parser(command))
            return parsers[-1]

        monkeypatch.setattr("cohorn.cli._build_parser", build)
        for name in ("resolve", "check", "model", "verify-soundness"):
            command = cohorn.cli._COMMANDS[name]
            monkeypatch.setitem(
                cohorn.cli._COMMANDS, name, lambda src, args, command=command: seen.append(args) or command(src, args)
            )
        resolve = ["resolve", hc("pair"), "--query", "eq(pair(int,int))", "--mode", "ind"]
        check = ["check", hc("pair"), "--proof", "k2", "--formula", "eq(int)"]
        verify = ["verify-soundness", hc("pair"), "--query", "eq(pair(int,int))", "--mode", "ind", "--base-depth", "2"]
        model = ["model", hc("loop"), "--semantics", "least", "--depth", "2"]
        assert run(resolve + ["--lemma", "eq(int)"])[0] == 0
        assert run(["--json", *resolve, "--lemma", "eq(int)"])[0] == 64
        assert run(resolve)[0] == 0
        for argv in (
            check + ["--lemma", "eq(X) => eq(pair(X,X))"], check,
            verify + ["--lemma", "eq(int)"], verify,
            model + ["--const", "c"], model,
        ):
            assert run(argv)[0] == 0, argv
        assert [args.lemma for args in seen[:6]] == [["eq(int)"], [], ["eq(X) => eq(pair(X,X))"], [], ["eq(int)"], []]
        assert [args.const for args in seen[6:]] == [["c"], []]
        full = parsers.pop(1)
        assert full.prog == "cohorn"
        (sub,) = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
        defaults = [
            action.default
            for parser in parsers + list(sub.choices.values())
            for action in parser._actions
            if action.dest in ("lemma", "const")
        ]
        assert defaults == [[]] * 12
        refs = list(map(weakref.ref, parsers + [full]))
        del parsers[:], seen[:], defaults, full, sub
        gc.collect()
        assert [ref() for ref in refs] == [None] * 9


class TestHeadIndexBoundaries:
    """Goals the head index must not filter: arity clashes still exit 65."""

    def resolve(self, query):
        return run(["resolve", hc("pair"), "--query", query, "--mode", "ind", "--json"])

    def test_signature_clashes_exit_65(self):
        for query in ("eq(int,int)", "eq", "eq(pair(int))"):
            code, out, err = self.resolve(query)
            assert code == 65, query
            assert out == ""
            assert err.startswith("input error: ") and "used with arities" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["resolve", "--query", "eq(int,int)", "--mode", "ind"], "predicate eq used with arities 1 and 2"),
            (["resolve", "--query", "eq", "--mode", "ind"], "predicate eq used with arities 1 and 0"),
            (["resolve", "--query", "eq(pair(int))", "--mode", "ind"], "functor pair used with arities 2 and 1"),
            (["certify", "--atom", "eq(int,int)"], "predicate eq used with arities 1 and 2"),
            (["certify", "--atom", "eq(pair(int))"], "functor pair used with arities 2 and 1"),
            (["certify", "--atom", "eq(pair(f(int),f(int,int)))"], "functor f used with arities 1 and 2"),
            (
                ["verify-soundness", "--query", "eq(pair(int)) => eq(int)", "--mode", "ind", "--base-depth", "2"],
                "functor pair used with arities 2 and 1",
            ),
            (
                ["verify-soundness", "--query", "eq(f(c,c)), eq(f(c)) => eq(int)", "--mode", "ind", "--base-depth", "2"],
                "functor f used with arities 2 and 1",
            ),
            # A target with a variable and a clash: the clash is reported.
            (["certify", "--atom", "eq(pair(pair(X,int),pair(int)))"], "functor pair used with arities 2 and 1"),
        ],
    )
    def test_clash_with_the_program_text(self, argv, message):
        """The first clash of a query or `--atom` with the program, or
        within itself, read left to right."""
        assert run([argv[0], hc("pair"), *argv[1:]]) == (65, "", f"input error: {message}\n")

    def test_clash_below_the_root_exits_65(self, tmp_path):
        """A clash met by a subgoal ends the run while the steps above it
        are still waiting: the same one-line input error in every mode,
        with and without --auto-lemma, and the next run is unaffected."""
        prog = tmp_path / "clash.hc"
        prog.write_text("k1 : q(X) => p(X).\nk2 : => q(f(a)).\n")
        for mode in ("ind", "coind", "ext"):
            for extra in ([], ["--auto-lemma"]):
                argv = ["resolve", str(prog), "--query", "p(f(a,b))", "--mode", mode, *extra]
                assert run(argv) == (65, "", "input error: functor f used with arities 1 and 2\n"), argv
                code, out, _ = run(argv[:3] + ["p(f(a))"] + argv[4:])
                assert code == 0 and "outcome: PROVED" in out, argv

    def test_variable_goal_fails(self):
        code, out, _ = self.resolve("eq(X)")
        assert code == 1
        assert json.loads(out)["outcome"] == "FAILED"

    def test_overlap_error_names_the_first_pair(self, tmp_path):
        bad = tmp_path / "overlaps.hc"
        bad.write_text(
            "k1 : => p(c).\n"
            "k2 : => q(f(X)).\n"
            "k3 : => p(d).\n"
            "k4 : => q(f(c)).\n"
            "k5 : => q(Y).\n"
            "k6 : => p(c).\n"
        )
        code, out, err = run(["resolve", str(bad), "--query", "p(c)", "--mode", "ind"])
        assert code == 65
        assert out == ""
        assert err == (
            "input error: axiom heads overlap: k1 (=> p(c)) unifies with k6 (=> p(c))\n"
        )


# Every --json report of the corpus: all five commands, all modes, lemmas,
# auto-lemma, rejections and timings.
CORPUS_REPORTS = [
    ["resolve", hc("pair"), "--query", "eq(pair(int,int))", "--mode", "ind"],
    ["resolve", hc("pair"), "--query", "eq(pair(int,int))", "--mode", "ind", "--lemma", "eq(int)"],
    ["resolve", hc("evenodd"), "--query", "eq(evenList(int))", "--mode", "coind"],
    ["resolve", hc("evenodd"), "--query", "eq(oddList(int))", "--mode", "ext", "--depth", "3"],
    ["resolve", hc("bush"), "--query", "eq(bush(int))", "--mode", "ext", "--lemma", "eq(X) => eq(bush(X))"],
    ["resolve", hc("bush"), "--query", "eq(bush(int))", "--mode", "ext", "--auto-lemma"],
    ["resolve", hc("chain"), "--query", "A => C", "--mode", "ind", "--timings"],
    ["resolve", hc("p6"), "--query", "A(X)", "--mode", "ext"],
    ["resolve", hc("p7"), "--query", "B(X) => A(X)", "--mode", "ext"],
    ["resolve", hc("p11"), "--query", "D(z,z)", "--mode", "coind", "--depth", "5"],
    ["resolve", hc("loop"), "--query", "p(X)", "--mode", "ind"],
    ["check", hc("evenodd"), "--proof", "nu a. k2 k3 (k1 k3 a)", "--formula", "eq(evenList(int))"],
    ["check", hc("pair"), "--proof", "k1 k2", "--formula", "eq(pair(int,int))"],
    ["check", hc("bush"), "--proof", "k2 k1 k1", "--formula", "eq(bush(int))", "--lemma", "eq(X) => eq(bush(X))"],
    ["model", hc("pair"), "--semantics", "least", "--depth", "3"],
    ["model", hc("evenodd"), "--semantics", "greatest", "--depth", "3", "--policy", "opt"],
    ["certify", hc("p11"), "--atom", "D(z,z)", "--depth", "7"],
    ["certify", hc("loop"), "--atom", "p(f(c))", "--depth", "3"],
    ["verify-soundness", hc("pair"), "--query", "eq(pair(int,int))", "--mode", "ind", "--base-depth", "2"],
    ["verify-soundness", hc("evenodd"), "--query", "eq(evenList(int))", "--mode", "coind", "--base-depth", "2"],
] + [
    # Oracle shapes: repeated and swapped variables, nested and ground
    # compound arguments, an undefined body predicate, zero-arity atoms.
    ["model", ORACLE_HC, "--semantics", semantics, "--depth", depth, "--policy", policy]
    for depth in ("3", "4")
    for semantics, policy in (("least", "pess"), ("greatest", "pess"), ("greatest", "opt"))
] + [
    ["certify", ORACLE_HC, "--atom", "r(c,f(c,c))", "--depth", "4"],
    ["certify", ORACLE_HC, "--atom", "s(c)", "--depth", "4"],
    ["verify-soundness", ORACLE_HC, "--query", "t(f(c,f(c,c)))", "--mode", "ind", "--base-depth", "3"],
    ["verify-soundness", ORACLE_HC, "--query", "eq(X) => q(X, f(X,c))", "--mode", "ind", "--base-depth", "3"],
    ["verify-soundness", ORACLE_HC, "--query", "r(c,f(c,c))", "--mode", "coind", "--base-depth", "4"],
]


class TestJsonWriter:
    def test_corpus_reports_equal_the_stdlib_encoder(self):
        """Each corpus report, and each resolve report with its trace, nests
        at most four levels, so `json.dumps` never recurses deeply."""
        depths = []
        for argv in CORPUS_REPORTS:
            traced = [["--json", "--trace"]] if argv[0] == "resolve" else []
            for flags in [["--json"], *traced]:
                _, out, _ = run(argv + flags)
                report = json.loads(out)
                assert out == json.dumps(report, indent=2) + "\n", argv + flags
                depths.append(json_depth(report))
        assert max(depths) == 4

    def test_shared_derivation_report(self, tmp_path):
        n = 10
        lines = ["k0 : => eq(c0)."]
        lines += [f"k{i} : eq(c{i - 1}), eq(c{i - 1}) => eq(c{i})." for i in range(1, n + 1)]
        program = tmp_path / "diamond.hc"
        program.write_text("\n".join(lines) + "\n")
        for mode in ("ind", "coind", "ext"):
            argv = ["resolve", str(program), "--query", f"eq(c{n})", "--mode", mode]
            code, out, _ = run(argv + ["--depth", str(n + 1), "--json"])
            report = json.loads(out)
            assert code == 0 and out == json.dumps(report, indent=2) + "\n"
            nodes = report["derivation"]
            assert [node["children"] for node in nodes] == [[i + 1, i + 1] for i in range(n)] + [[]]
            assert [node["entry"] for node in nodes] == [f"k{n - i}" for i in range(n + 1)]


def nested_from_flat(nodes, proof: str) -> dict:
    """The nested derivation tree that the flat `nodes` stand for, each
    node's evidence re-derived from `proof`, the report's proof text, read
    from the root down through each node's binders and children.  Asserts
    that the binders, the entry names and a lemma step's evidence agree
    with that proof."""

    def build(i: int, e) -> dict:
        node = nodes[i]
        keys = ["rule", "formula", "entry", "matcher", "children"]
        if node["entry"] == "lemma":
            keys.insert(2, "evidence")
            assert node["evidence"] == format_proof(e)
        if node["rule"] in ("Nu", "Nu'", "Lam"):
            keys.insert(-1, "binders")
            assert isinstance(e, Lambda if node["rule"] == "Lam" else Nu)
            assert node["binders"] == ([e.binder] if isinstance(e, Nu) else list(e.binders))
            args = [e.body]
        else:
            head, args = spine(e)
            if node["entry"] != "lemma":
                assert head.name == node["entry"]
        assert list(node) == keys
        if not node["children"]:
            args = []
        assert len(args) == len(node["children"])
        return {
            "rule": node["rule"],
            "formula": node["formula"],
            "evidence": format_proof(e),
            "entry": node["entry"],
            "matcher": node["matcher"],
            "children": [build(c, a) for c, a in zip(node["children"], args)],
        }

    # Node 0 is the root, and the rest follow in first-visit pre-order.
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        if i not in order:
            order.append(i)
            stack.extend(reversed(nodes[i]["children"]))
    assert order == list(range(len(nodes)))
    return build(0, parse_proof(proof))


def _reachable(d) -> set:
    """The ids of the distinct derivation nodes under `d`."""
    seen, stack = set(), [d]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(n.children)
    return seen


class TestFlatDerivation:
    """A JSON derivation is one node per distinct derivation node, and the
    tree it unfolds to, with each node's evidence read off the report's
    proof, is the nested derivation that `reference_cli` builds.  The text
    derivation lists the same nodes, and with its `#k#` references unfolded
    it is the tree text of `reference_proofs.format_derivation`."""

    def assert_flat(self, nodes, proof: str, derivation) -> None:
        assert len(nodes) == len(_reachable(derivation))
        assert nested_from_flat(nodes, proof) == reference_cli.derivation_json(derivation)
        assert unfolded_text(derivation) == format_derivation(derivation, indent=1)

    def test_corpus_reports(self, monkeypatch):
        reports = []
        emit = cohorn.cli._emit
        monkeypatch.setattr(cohorn.cli, "_emit", lambda report, *rest: reports.append(report) or emit(report, *rest))
        checked = 0
        for argv in CORPUS_REPORTS:
            if argv[0] not in ("resolve", "check"):
                continue
            reports.clear()
            _, out, _ = run(argv + ["--json"])
            report = json.loads(out)
            derivation = reports[0]["derivation"]
            if derivation is None:
                assert report["derivation"] is None
                continue
            self.assert_flat(report["derivation"], report["proof"], derivation)
            checked += 1
        assert checked == 8

    def test_random_programs(self):
        """The proofs found on seeded random and propositional programs, and
        the proofs of their Horn lemmas, checked against the axioms."""
        runs = chain(
            random_program_runs(random.Random(6160), 20), propositional_runs(random.Random(6161), 40)
        )
        seen = Counter()
        for program, query in runs:
            result = engine.resolve(program, query)
            found = [(result.evidence, result.derivation)] if result.derivation else []
            for rec in result.lemmas:
                if rec.evidence is not None and rec.formula.body:
                    found.append((rec.evidence, check(env_for_program(program), rec.evidence, rec.formula)))
            for evidence, derivation in found:
                nodes = cohorn.cli._derivation_json(derivation)
                self.assert_flat(nodes, format_proof(evidence), derivation)
                seen["derivations"] += 1
                seen["shared"] += len(nodes) <= sum(len(node["children"]) for node in nodes)
                for node in nodes:
                    seen[node["rule"]] += 1
                    seen["lemma steps"] += node["entry"] == "lemma"
        assert min(seen.values()) >= 80, seen

    @pytest.mark.parametrize("mode", list(engine.Mode))
    def test_diamonds(self, mode):
        for n in range(1, 11):
            src = diamond(n)
            query = engine.Query(parse_formula(f"eq(c{n})"), mode, n + 1)
            result = engine.resolve(src.program, query, names=src.names)
            self.assert_flat(cohorn.cli._derivation_json(result.derivation), format_proof(result.evidence),
                             result.derivation)

    def test_shared_nodes_past_32_levels(self):
        """a40 uses a39 twice, a_i uses a_(i-1) for i from 2 to 39, and a1
        uses a0 twice: the lines deeper than 32 levels stop indenting and
        name their depth, and each shared node lists once."""
        n = 40
        lines = ["k0 : => a0.", "k1 : a0, a0 => a1."] + [f"k{i} : a{i - 1} => a{i}." for i in range(2, n)]
        src = parse_program("\n".join(lines + [f"k{n} : a{n - 1}, a{n - 1} => a{n}."]))
        query = engine.Query(parse_formula(f"a{n}"), engine.Mode.INDUCTIVE, n + 1)
        result = engine.resolve(src.program, query, names=src.names)
        text = cohorn.cli._derivation_lines(result.derivation, False)
        assert len(text) == n + 4
        assert text[2] == f"    #1= Lp-m [k{n - 1} {{}}] a{n - 1}"
        assert text[33:35] == ["  " * 33 + "Lp-m [k8 {}] a8", "  " * 33 + "[33] Lp-m [k7 {}] a7"]
        assert text[-3:] == ["  " * 33 + "[40] #40= Lp-m [k0 {}] a0", "  " * 33 + "[40] #40#", "    #1#"]
        self.assert_flat(cohorn.cli._derivation_json(result.derivation), format_proof(result.evidence),
                         result.derivation)


class TestTextReportSize:
    """The text derivation lists each distinct node once and indents at
    most 32 levels, so a text report is smaller than its JSON report even
    on a deep or widely shared derivation."""

    def sizes(self, argv) -> tuple[int, int]:
        code, text, err = run(argv)
        assert (code, err) == (0, "")
        code, report, err = run(argv + ["--json"])
        assert (code, err) == (0, "")
        return len(text.encode()), len(report.encode())

    def test_check_under_4001_nested_binders(self, tmp_path):
        n = 4000
        program = tmp_path / "cycle.hc"
        program.write_text("".join(f"k{i} : a{i + 1} => a{i}.\n" for i in range(n)) + f"k{n} : a0 => a{n}.\n")
        proof = "".join(f"nu x{i}. k{i} (" for i in range(n + 1)) + "x0" + ")" * (n + 1)
        text, report = self.sizes(["check", str(program), "--proof", proof, "--formula", "a0"])
        assert text < report and text < 1_000_000, (text, report)

    def test_chain_2000(self, tmp_path):
        n = 2000
        program = tmp_path / "chain.hc"
        program.write_text("k0 : => a0.\n" + "".join(f"k{i} : a{i - 1} => a{i}.\n" for i in range(1, n + 1)))
        text, report = self.sizes(["resolve", str(program), "--query", f"a{n}", "--mode", "ind",
                                   "--depth", str(n + 1)])
        assert text < report, (text, report)

    def test_diamond_14(self, tmp_path):
        n = 14
        program = tmp_path / "diamond.hc"
        program.write_text("k0 : => eq(c0).\n" + "".join(
            f"k{i} : eq(c{i - 1}), eq(c{i - 1}) => eq(c{i}).\n" for i in range(1, n + 1)))
        text, report = self.sizes(["resolve", str(program), "--query", f"eq(c{n})", "--mode", "ind",
                                   "--depth", str(n + 1)])
        assert text < report, (text, report)
