"""Tests for the command-line driver: exit codes, reports, determinism."""

import io
import json
import json.scanner
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohorn import engine
from cohorn.cli import _cut_goals, _json_text, cli
from cohorn.engine import Outcome, SearchResult, TraceEvent

from helpers import PROGRAMS_DIR


def hc(name: str) -> str:
    return str(PROGRAMS_DIR / f"{name}.hc")


ORACLE_HC = str(Path(__file__).resolve().parent / "golden" / "oracle.hc")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli(argv)
    return code, out.getvalue(), err.getvalue()


def run_process(argv) -> subprocess.CompletedProcess:
    """`python -m cohorn.cli` in a fresh interpreter, with the default
    recursion limit and no test-runner frames on the stack."""
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "cohorn.cli", *argv], capture_output=True, text=True, env=env
    )


def json_roundtrip(text: str) -> str:
    """`json.dumps(json.loads(text), indent=2)` plus a newline, for text
    nested deeper than the C decoder's recursion limit, which
    `sys.setrecursionlimit` does not raise on Python 3.12: the stdlib's
    pure-Python scanner and encoder under a raised limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        decoder = json.JSONDecoder()
        decoder.scan_once = json.scanner.py_make_scanner(decoder)
        return json.dumps(decoder.decode(text), indent=2) + "\n"
    finally:
        sys.setrecursionlimit(limit)


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
        assert report["derivation"]["rule"] == "Lp-m"
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

    def test_oracle_stats(self):
        argv = ["certify", hc("evenodd"), "--atom", "eq(evenList(int))", "--depth", "3"]
        _, out, _ = run(argv)
        assert "stats: base_atoms=7 instances=7 rounds=1" in out
        _, out, _ = run(argv + ["--json"])
        assert json.loads(out)["stats"] == {"base_atoms": 7, "instances": 7, "rounds": 1}
        _, out, _ = run(["certify", hc("loop"), "--atom", "p(g)", "--depth", "5", "--json"])
        assert json.loads(out)["stats"] is None


class TestOracleStatsPinned:
    """The `stats` of the corpus `model` calls at depth 3 (least, greatest
    pessimistic, greatest optimistic) and of a `certify` call on the last
    atom, in string order, of each optimistic model: (base_atoms,
    instances, rounds)."""

    STATS = {
        "bush": ([(3, 3, 2), (3, 3, 3), (3, 3, 1)], ("eq(int)", (3, 3, 1))),
        "chain": ([(3, 2, 1), (3, 2, 4), (3, 2, 4)], None),
        "empty": ([(0, 0, 1), (0, 0, 1), (0, 0, 1)], None),
        "evenodd": ([(7, 7, 2), (7, 7, 1), (7, 7, 1)], ("eq(oddList(oddList(int)))", (7, 7, 1))),
        "loop": ([(0, 0, 1), (0, 0, 1), (0, 0, 1)], None),
        "p11": ([(9, 9, 1), (9, 9, 7), (9, 9, 1)], ("D(z,z)", (9, 9, 1))),
        "p6": ([(3, 3, 2), (3, 3, 1), (3, 3, 1)], ("A(g)", (3, 3, 1))),
        "p7": ([(2, 2, 2), (2, 2, 1), (2, 2, 1)], ("B(f)", (2, 2, 1))),
        "pair": ([(5, 5, 4), (5, 5, 1), (5, 5, 1)], ("eq(pair(pair(int,int),pair(int,int)))", (5, 5, 1))),
    }

    def test_corpus(self):
        variants = (("least", "pess"), ("greatest", "pess"), ("greatest", "opt"))
        for name, (models, cert) in self.STATS.items():
            for (semantics, policy), want in zip(variants, models):
                argv = ["model", hc(name), "--semantics", semantics, "--depth", "3", "--policy", policy]
                report = json.loads(run(argv + ["--json"])[1])
                assert tuple(report["stats"].values()) == want, (name, semantics, policy)
            if cert:
                report = json.loads(run(["certify", hc(name), "--atom", cert[0], "--depth", "3", "--json"])[1])
                assert tuple(report["stats"].values()) == cert[1], name


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
            "command", "program", "semantics", "depth", "policy", "converged", "note",
            "stats", "atoms", "exit_code",
        ]
        assert list(reports["certify"]) == [
            "command", "program", "atom", "depth", "found", "exact", "stats", "support",
            "frontier", "exit_code",
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

    def test_internal_error_exit_70(self, tmp_path):
        """A query nested 700 terms deep overflows the recursion: exit 70, no traceback."""
        prog = tmp_path / "nat.hc"
        prog.write_text("k1 : => eq(z).\nk2 : eq(X) => eq(s(X)).\n")
        query = "eq(" + "s(" * 700 + "z" + ")" * 700 + ")"
        proc = run_process(["resolve", str(prog), "--query", query, "--mode", "ind", "--depth", "800"])
        assert proc.returncode == 70
        assert proc.stderr.startswith("internal error: RecursionError")
        assert "Traceback" not in proc.stderr

    def test_deep_derivation_json(self, tmp_path):
        """A 250-step chain proves, and its JSON report, about 500 levels
        deep, prints: the JSON writer has no depth limit of its own."""
        n = 250
        prog = tmp_path / "chain.hc"
        lines = ["k0 : => a0."] + [f"k{i} : a{i - 1} => a{i}." for i in range(1, n + 1)]
        prog.write_text("\n".join(lines) + "\n")
        proc = run_process(
            ["resolve", str(prog), "--query", f"a{n}", "--mode", "ind", "--depth", str(n + 1), "--json"]
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["outcome"] == "PROVED"
        assert proc.stdout == json.dumps(report, indent=2) + "\n"

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
        assert proc.stdout == json_roundtrip(proc.stdout)
        wrong = run_process(argv + [proof.replace("(k0)", "(k5)"), "--json"])
        assert wrong.returncode == 1, wrong.stderr
        assert len(json.loads(wrong.stdout)["rejection"]["path"]) == n


class TestBaseBudget:
    """`--max-atoms` bounds the Herbrand base of `model`, `certify` and
    `verify-soundness`; an oversized base is a usage error, found before
    anything is enumerated."""

    USAGE = "usage error: the Herbrand base at depth {} has more than {} atoms or terms; " \
        "raise --max-atoms or lower the depth\n"

    def test_runaway_certificate_returns_at_once(self):
        # About 4.4e12 universe terms at depth 6; this call used to run for minutes.
        argv = ["certify", hc("pair"), "--atom", "eq(pair(int,int))", "--depth", "6", "--const", "c"]
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (64, "", self.USAGE.format(6, 100000))

    def test_huge_depth_saturates(self):
        argv = ["model", hc("pair"), "--semantics", "greatest", "--depth", "1000000000"]
        assert run(argv) == (64, "", self.USAGE.format(1000000000, 100000))

    def test_budget_is_inclusive(self):
        # pair at depth 3: five terms, five eq atoms.
        for command in (
            ["model", hc("pair"), "--semantics", "least", "--depth", "3"],
            ["certify", hc("pair"), "--atom", "eq(pair(int,int))", "--depth", "3"],
            ["verify-soundness", hc("pair"), "--query", "eq(pair(int,int))", "--mode", "ind",
             "--base-depth", "3"],
        ):
            assert run(command + ["--max-atoms", "5"])[0] == 0, command
            assert run(command + ["--max-atoms", "4"]) == (64, "", self.USAGE.format(3, 4)), command

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


class TestReadmeExamples:
    def test_every_example_command_succeeds(self, monkeypatch):
        root = PROGRAMS_DIR.parent
        monkeypatch.chdir(root)
        readme = (root / "README.md").read_text(encoding="utf-8")
        commands = [
            shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("cohorn ")
        ]
        assert len(commands) >= 8
        for argv in commands:
            code, _, err = run(argv)
            assert (code, err) == (0, ""), argv


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
    ["certify", hc("loop"), "--atom", "p(f(c))", "--depth", "3", "--const", "c"],
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


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def _json_values(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=30,
    )


@st.composite
def _aliased_json(draw):
    """A JSON value that holds one list or dict object at several positions
    and nesting levels, and a second list that holds the first."""
    values = _json_values(_JSON_LEAVES)
    first = draw(st.lists(values, max_size=3) | st.dictionaries(st.text(), values, max_size=3))
    second = draw(st.lists(_JSON_LEAVES | st.just(first), max_size=3))
    return draw(_json_values(_JSON_LEAVES | st.just(first) | st.just(second)))


class TestJsonWriter:
    def test_corpus_reports_equal_the_stdlib_encoder(self):
        for argv in CORPUS_REPORTS:
            _, out, _ = run(argv + ["--json"])
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv

    # About half the examples hold aliased containers, which the writer
    # renders once per nesting level.
    @given(_json_values(_JSON_LEAVES) | _aliased_json())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_stdlib_encoder(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_deep_nesting(self):
        """A list nested 5,000 deep.  `json.dumps` itself recurses, so the
        expected text is checked piece by piece."""
        depth = 5000
        value: list = []
        for _ in range(depth):
            value = [value]
        text = _json_text(value)
        opening = (f"[\n{'  ' * (level + 1)}" for level in range(depth))
        closing = (f"\n{'  ' * level}]" for level in reversed(range(depth)))
        at = 0
        for piece in chain(opening, ["[]"], closing):
            assert text.startswith(piece, at), at
            at += len(piece)
        assert at == len(text)

    def test_shared_values_and_control_characters(self):
        leaf = {"s": "é \x00\n\"\\", "n": [1, -2.5, 1e300, float("nan"), True, None]}
        shared = [leaf, leaf, [leaf, []], {}, (leaf,)]
        assert _json_text(shared) == json.dumps(shared, indent=2)

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
            node = report["derivation"]
            for _ in range(n):
                assert node["children"][0] == node["children"][1]
                node = node["children"][0]
