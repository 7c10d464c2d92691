"""Workload generators and known answers for the cohorn benchmark.

A workload is a set of program files plus a list of calls.  Each call is the
argv of one ``cohorn`` CLI invocation and a function that checks the call's
exit code and standard output against an answer known by construction (or,
for the hand-written corpus, taken from the paper and the README).  Checkers
return ``None`` when the answer matches and a short description otherwise.

The seed chooses symbol names, query targets and, for ``mixed``, the random
programs.  It never changes the sizes: names keep a fixed length, so every
seed of ``diamond``, ``wide`` and ``oracle`` does the same work and prints the
same number of bytes.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

MODES = ("ind", "coind", "ext")

# Exit codes documented in the README.
EXIT = {"PROVED": 0, "FAILED": 1, "EXHAUSTED": 2}


class Recheck:
    """Runs ``cohorn check`` on proofs printed by earlier calls, once each."""

    def __init__(self, run: Callable[[list[str]], tuple[int, str]], directory: str):
        self._run = run
        self._directory = directory
        self._seen: dict[tuple[str, str, str], bool] = {}

    def valid(self, program: str, proof: str, formula: str) -> bool:
        key = (program, proof, formula)
        if key not in self._seen:
            code, out = self._run(["check", f"{self._directory}/{program}",
                                   "--proof", proof, "--formula", formula])
            self._seen[key] = code == 0 and "result: valid" in out
        return self._seen[key]


Checker = Callable[[int, str, Recheck], Optional[str]]


@dataclass(frozen=True)
class Call:
    command: str
    program: str  # file name inside the workload's directory
    args: tuple[str, ...]
    check: Checker

    def argv(self, directory: str) -> list[str]:
        return [self.command, f"{directory}/{self.program}", *self.args]


@dataclass(frozen=True)
class Workload:
    programs: dict[str, str]  # file name -> program text
    calls: tuple[Call, ...]

    def warmup(self) -> tuple[Call, ...]:
        """The first call of each command kind; workloads list cheap ones first."""
        return tuple({c.command: c for c in reversed(self.calls)}.values())

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.programs.items():
            (directory / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Names and known-answer helpers
# ---------------------------------------------------------------------------


class _Names:
    """Distinct lowercase identifiers of a fixed width, drawn from the seed."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used = {"nu"}  # reserved in proof terms

    def take(self, width: int) -> str:
        while True:
            name = "".join(self._rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(width))
            if name not in self._used:
                self._used.add(name)
                return name


def _wrap(proof: str) -> str:
    return f"({proof})" if " " in proof else proof


def _app(head: str, *args: str) -> str:
    return " ".join([head, *(_wrap(a) for a in args)])


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def alpha(proof: str, constants: frozenset[str]) -> str:
    """Rename every bound proof variable to v1, v2, ... by first occurrence."""
    names: dict[str, str] = {}

    def sub(m: re.Match) -> str:
        word = m.group(0)
        if word == "nu" or word in constants:
            return word
        return names.setdefault(word, f"v{len(names) + 1}")

    return re.sub(_NAME, sub, proof)


def _text_fields(out: str) -> dict[str, str]:
    """First value of each unindented `key: value` line of a text report."""
    fields: dict[str, str] = {}
    for line in out.splitlines():
        if line[:1].isspace() or ": " not in line:
            continue
        key, value = line.split(": ", 1)
        fields.setdefault(key, value)
    return fields


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {str(got)[:80]!r}, want {str(want)[:80]!r}"


def expect_outcome(
    outcome: str,
    proof: Optional[str] = None,
    constants: frozenset[str] = frozenset(),
    *,
    as_json: bool,
) -> Checker:
    """A `resolve` report with this outcome and, up to bound names, this proof."""
    want_code = EXIT[outcome]

    def check(code: int, out: str, _: Recheck) -> Optional[str]:
        if code != want_code:
            return _mismatch("exit code", code, want_code)
        if as_json:
            report = json.loads(out)
            got_outcome, got_proof = report["outcome"], report["proof"]
            if report["exit_code"] != code:
                return _mismatch("reported exit code", report["exit_code"], code)
        else:
            fields = _text_fields(out)
            got_outcome, got_proof = fields.get("outcome"), fields.get("proof")
        if got_outcome != outcome:
            return _mismatch("outcome", got_outcome, outcome)
        if proof is None:
            return None if got_proof is None else _mismatch("proof", got_proof, None)
        if got_proof is None or alpha(got_proof, constants) != alpha(proof, constants):
            return _mismatch("proof", got_proof, proof)
        return None

    return check


def expect_valid_check(code: int, out: str, _: Recheck) -> Optional[str]:
    result = _text_fields(out).get("result")
    return None if (code, result) == (0, "valid") else _mismatch("check", (code, result), (0, "valid"))


def expect_sound(outcome: str, proof: Optional[str], constants: frozenset[str]) -> Checker:
    """A JSON `verify-soundness` report: this outcome, and VALID when proved."""
    want_verdict = "VALID" if outcome == "PROVED" else None

    def check(code: int, out: str, _: Recheck) -> Optional[str]:
        report = json.loads(out)
        got = (code, report["outcome"], report["verdict"], report["soundness_violation"])
        want = (0, outcome, want_verdict, False)
        if got != want:
            return _mismatch("verify-soundness", got, want)
        if proof is not None and alpha(report["proof"] or "", constants) != alpha(proof, constants):
            return _mismatch("proof", report["proof"], proof)
        return None

    return check


# ---------------------------------------------------------------------------
# diamond: shared subgoals, search and rendering grow as 2^n
# ---------------------------------------------------------------------------

# (n, depth offset, modes, copies).  Depth n+1 proves, depth n is cut at the
# leaf.  The mix is weighted so that the median call sits inside the n = 8
# block and the 90th percentile inside the n = 10 block.
DIAMOND = ((6, 1, ("ind", "coind"), 1), (7, 1, ("ind", "coind"), 1),
           (8, 1, ("ind", "coind"), 2), (9, 1, ("ind", "coind"), 1),
           (10, 1, ("ind", "coind"), 1), (8, 0, ("ind", "coind"), 1))
DIAMOND_SMALL = ((2, 1, ("ind", "coind"), 1), (3, 1, ("ind", "coind"), 1),
                 (3, 0, ("coind",), 1))


def diamond(seed: int, small: bool = False) -> Workload:
    rng = random.Random(seed)
    names = _Names(rng)
    pred, const, clause = names.take(3), names.take(2), names.take(2)
    spec = DIAMOND_SMALL if small else DIAMOND
    programs: dict[str, str] = {}
    calls: list[Call] = []
    for n, offset, modes, copies in spec:
        file = f"diamond-{n}.hc"
        lines = [f"{clause}0 : => {pred}({const}0)."]
        proof = f"{clause}0"
        for i in range(1, n + 1):
            prev = f"{pred}({const}{i - 1})"
            lines.append(f"{clause}{i} : {prev}, {prev} => {pred}({const}{i}).")
            proof = _app(f"{clause}{i}", proof, proof)
        programs[file] = "\n".join(lines) + "\n"
        if offset:
            check = expect_outcome("PROVED", proof, as_json=True)
        else:
            check = expect_outcome("EXHAUSTED", as_json=True)
        for mode in modes:
            args = ("--query", f"{pred}({const}{n})", "--mode", mode,
                    "--depth", str(n + offset), "--json")
            calls.extend([Call("resolve", file, args, check)] * copies)
    return Workload(programs, tuple(calls))


# ---------------------------------------------------------------------------
# wide: many instances, shallow goals; the O(n^2) load check dominates
# ---------------------------------------------------------------------------

# (n, arities).  The two-parameter variant is left out at the middle size so
# that the median call sits inside the n = 80 block.
WIDE = ((40, (1, 2)), (80, (1,)), (120, (1, 2)))
WIDE_SMALL = ((4, (1, 2)), (6, (1,)))


def wide(seed: int, small: bool = False) -> Workload:
    """n clauses `k_i : eq(X) => eq(t_i(X))`, and a variant with two parameters.

    The goal t_i(t_j(c)) is proved by k_i (k_j k0); with the leaf replaced by
    a constant no clause mentions, the same goal fails.
    """
    rng = random.Random(seed)
    names = _Names(rng)
    pred, const, missing = names.take(3), names.take(2), names.take(2)
    functor, clause = names.take(2), names.take(2)
    programs: dict[str, str] = {}
    calls: list[Call] = []
    for n, arities in WIDE_SMALL if small else WIDE:
        for arity in arities:
            file = f"wide-{n}-{arity}.hc"
            params = ",".join(("X", "Y")[:arity])
            body = ", ".join(f"{pred}({v})" for v in params.split(","))
            lines = [f"{clause}0 : => {pred}({const})."]
            lines += [f"{clause}{i} : {body} => {pred}({functor}{i}({params}))."
                      for i in range(1, n + 1)]
            programs[file] = "\n".join(lines) + "\n"
            i, j = rng.randint(1, n), rng.randint(1, n)

            def goal(leaf: str) -> str:
                inner = f"{functor}{j}({','.join([leaf] * arity)})"
                return f"{pred}({functor}{i}({','.join([inner] + [leaf] * (arity - 1))}))"

            k0 = [f"{clause}0"] * arity
            proof = _app(f"{clause}{i}", _app(f"{clause}{j}", *k0), *k0[1:])
            proved = expect_outcome("PROVED", proof, as_json=False)
            for mode in MODES:
                calls.append(Call("resolve", file, ("--query", goal(const), "--mode", mode), proved))
            calls.append(Call("check", file, ("--proof", proof, "--formula", goal(const)),
                              expect_valid_check))
            calls.append(Call("resolve", file,
                              ("--query", goal(missing), "--mode", MODES[len(programs) % 3]),
                              expect_outcome("FAILED", as_json=False)))
    return Workload(programs, tuple(calls))


# ---------------------------------------------------------------------------
# oracle: bounded models, certificates and validity; grounding dominates
# ---------------------------------------------------------------------------


def _universe(const: str, functor: str, depth: int) -> list[str]:
    """Ground terms over one constant and one binary functor, depth <= depth."""
    terms = [const]
    for _ in range(depth - 1):
        terms = [const] + [f"{functor}({a},{b})" for a in terms for b in terms]
    return terms


def _subterms(term: str, functor: str) -> list[str]:
    out = [term]
    if term.startswith(functor + "("):
        inner, depth, cut = term[len(functor) + 1:-1], 0, 0
        for k, ch in enumerate(inner):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                cut = k
                break
        out += _subterms(inner[:cut], functor) + _subterms(inner[cut + 1:], functor)
    return out


def oracle(seed: int, small: bool = False) -> Workload:
    """Three generated programs, each a superset of the last:

    pair   k1 : eq(X), eq(Y) => eq(f(X,Y)).   k2 : => eq(c).
    cycle  + ks : r(X,Y) => r(Y,X).   kg : s(f(X,X)) => s(X).
    triple + kt : eq(X), eq(Y), eq(Z) => t(f(X,f(Y,Z))).

    Over the universe U_d (u_1 = 1, u_d = 1 + u_{d-1}^2) the least model is
    every eq atom plus every t atom of the right shape.  The greatest model
    adds every r atom (each supports its mirror), and under the optimistic
    policy every s atom too, since the body of each s atom at the depth bound
    lies outside the base.  The pessimistic policy removes all s atoms.

    Grounding enumerates U_d^vars, so the two-variable programs run at base
    depth 4 (u_4 = 26) and the three-variable one mostly at depth 3.
    """
    rng = random.Random(seed)
    names = _Names(rng)
    eq, r, s, t = (names.take(3) for _ in range(4))
    c, f = names.take(2), names.take(2)
    k1, k2, ks, kg, kt = (names.take(2) for _ in range(5))
    pair = [f"{k1} : {eq}(X), {eq}(Y) => {eq}({f}(X,Y)).", f"{k2} : => {eq}({c})."]
    cycle = pair + [f"{ks} : {r}(X,Y) => {r}(Y,X).", f"{kg} : {s}({f}(X,X)) => {s}(X)."]
    triple = cycle + [f"{kt} : {eq}(X), {eq}(Y), {eq}(Z) => {t}({f}(X,{f}(Y,Z)))."]
    programs = {name: "\n".join(lines) + "\n"
                for name, lines in (("pair.hc", pair), ("cycle.hc", cycle), ("triple.hc", triple))}
    constants = frozenset((k1, k2, ks, kg, kt))
    calls: list[Call] = []

    def model(file: str, depth: int, semantics: str, policy: str) -> None:
        u, inner, lower = (_universe(c, f, depth - k) for k in range(3))
        want = {f"{eq}({x})" for x in u}
        if file == "triple.hc":
            want |= {f"{t}({f}({x},{f}({y},{z})))" for x in inner for y in lower for z in lower}
        if semantics == "greatest" and file != "pair.hc":
            want |= {f"{r}({x},{y})" for x in u for y in u}
            if policy == "opt":
                want |= {f"{s}({x})" for x in u}

        def check(code: int, out: str, _: Recheck) -> Optional[str]:
            atoms = json.loads(out)["atoms"]
            if code != 0 or len(atoms) != len(want) or set(atoms) != want:
                return _mismatch("model", (code, len(atoms)), (0, len(want)))
            return None

        args = ("--semantics", semantics, "--depth", str(depth), "--policy", policy, "--json")
        calls.append(Call("model", file, args, check))

    def certify(file: str, depth: int, atom: str, support: set[str], frontier: set[str]) -> None:
        def check(code: int, out: str, _: Recheck) -> Optional[str]:
            report = json.loads(out)
            got = (code, report["found"], set(report["support"]), set(report["frontier"]))
            if got != (0, True, support, frontier):
                return _mismatch("certificate", got, (0, True, support, frontier))
            return None

        args = ("--atom", atom, "--depth", str(depth), "--json")
        calls.append(Call("certify", file, args, check))

    def verify(file: str, depth: int, goal: str, mode: str, proof: str) -> None:
        args = ("--query", goal, "--mode", mode, "--base-depth", str(depth), "--json")
        calls.append(Call("verify-soundness", file, args, expect_sound("PROVED", proof, constants)))

    def proof_of(term: str) -> str:
        parts = _subterms(term, f)
        if len(parts) == 1:
            return k2
        left = parts[1]
        right = term[len(f) + 2 + len(left):-1]
        return _app(k1, proof_of(left), proof_of(right))

    def eq_closure(*terms: str) -> set[str]:
        return {f"{eq}({v})" for w in terms for v in _subterms(w, f)}

    big = 3 if small else 4
    model("pair.hc", big, "least", "pess")
    for semantics, policy in (("least", "pess"), ("greatest", "pess"), ("greatest", "opt")):
        model("cycle.hc", big, semantics, policy)
    u, inner, lower = (_universe(c, f, big - k) for k in range(3))
    x, y = rng.choice(inner), rng.choice(inner)
    certify("cycle.hc", big, f"{eq}({f}({x},{y}))", eq_closure(f"{f}({x},{y})"), set())
    certify("cycle.hc", big, f"{r}({x},{y})", {f"{r}({x},{y})", f"{r}({y},{x})"}, set())
    chain, top = [], rng.choice(lower)
    while top in u:
        chain.append(f"{s}({top})")
        top = f"{f}({top},{top})"
    certify("cycle.hc", big, chain[0], set(chain), {f"{s}({top})"})
    verify("cycle.hc", big, f"{eq}({f}({x},{y}))", "ind", _app(k1, proof_of(x), proof_of(y)))
    a, b = rng.choice(lower), rng.choice(lower)
    while a == f"{f}({b},{b})":  # r(a,a) would close its cycle one step earlier
        a, b = rng.choice(lower), rng.choice(lower)
    verify("cycle.hc", big, f"{r}({a},{f}({b},{b}))", "coind", f"nu h. {_app(ks, _app(ks, 'h'))}")

    small_depth = 3
    inner, lower = _universe(c, f, small_depth - 1), _universe(c, f, small_depth - 2)
    x, y, z = rng.choice(inner), rng.choice(lower), rng.choice(lower)
    target = f"{t}({f}({x},{f}({y},{z})))"
    for semantics, policy in (("least", "pess"), ("greatest", "opt")):
        model("triple.hc", small_depth, semantics, policy)
    certify("triple.hc", small_depth, target, {target} | eq_closure(x, y, z), set())
    verify("triple.hc", small_depth, target, "ind",
           _app(kt, proof_of(x), proof_of(y), proof_of(z)))
    if not small:
        model("triple.hc", big, "least", "pess")
    return Workload(programs, tuple(calls))


# ---------------------------------------------------------------------------
# mixed: the corpus and small random programs; per-call fixed cost dominates
# ---------------------------------------------------------------------------

# (file, query, extra args, expected outcome per mode, proof when proved).
# Outcomes follow the README and the paper: evenodd cycles, so it needs
# coinduction; bush needs the corecursive lemma, which only extended mode
# proves (coinductive mode derives no Horn formula, inductive search never
# closes); p6, p7 and p11 are the incompleteness witnesses.
CORPUS = (
    ("pair.hc", "eq(pair(int,int))", (), ("PROVED",) * 3, "k1 k2 k2"),
    ("evenodd.hc", "eq(evenList(int))", (), ("EXHAUSTED", "PROVED", "PROVED"),
     "nu a. k2 k3 (k1 k3 a)"),
    ("bush.hc", "eq(bush(int))", ("--lemma", "eq(X) => eq(bush(X))"),
     ("EXHAUSTED", "FAILED", "PROVED"), "(nu a. \\b -> k2 b (a (a b))) k1"),
    ("bush.hc", "eq(bush(int))", ("--auto-lemma",),
     ("EXHAUSTED", "FAILED", "PROVED"), "(nu a. \\b -> k2 b (a (a b))) k1"),
    ("p6.hc", "A(X)", (), ("FAILED",) * 3, None),
    ("p7.hc", "B(X) => A(X)", (), ("FAILED",) * 3, None),
    ("p11.hc", "D(z,z)", ("--depth", "12"), ("EXHAUSTED",) * 3, None),
    ("chain.hc", "A => C", (), ("PROVED", "FAILED", "PROVED"), "\\a -> k2 (k1 a)"),
    ("empty.hc", "A => A", ("--depth", "4"), ("PROVED", "FAILED", "PROVED"), "\\a -> a"),
    ("loop.hc", "p(f(c))", (), ("FAILED",) * 3, None),
)
CORPUS_BASE_DEPTH = {"bush.hc": 3, "p11.hc": 3}
CORPUS_CONSTANTS = frozenset(("k1", "k2", "k3"))

RANDOM_PROGRAMS = 80
RANDOM_PROGRAMS_SMALL = 4
RANDOM_DEPTH = 4
RANDOM_BASE_DEPTH = 3


def _random_term(rng: random.Random, variables: tuple[str, ...]) -> tuple[int, str]:
    """A term f^k(base), base being c or a variable, from the generator's pool."""
    pool = [(0, "c"), (1, "c")] + [(k, v) for v in variables for k in (0, 1, 2)]
    return rng.choice(pool)


def _render(term: tuple[int, str]) -> str:
    k, base = term
    return "f(" * k + base + ")" * k


def _unify_heads(a: tuple[int, str], b: tuple[int, str]) -> bool:
    """Unifiability of two renamed-apart unary-functor terms f^k(base)."""
    (ka, va), (kb, vb) = a, b
    if va == "c" and vb == "c":
        return ka == kb
    if va == "c":
        return ka >= kb
    if vb == "c":
        return kb >= ka
    return True


def random_program(rng: random.Random) -> list[tuple]:
    """Up to four clauses over predicates p, q with non-overlapping heads.

    The shape is the one the soundness-bridge tests use: one head term with at
    most the variables X and Y, and up to two body atoms over the head's
    variables, so no clause has an existential variable.
    """
    clauses: list = []
    for _ in range(rng.randint(1, 4)):
        pred = rng.choice("pq")
        head_vars = tuple(v for v in ("X", "Y") if rng.random() < 0.5)
        head = _random_term(rng, head_vars)
        bound = () if head[1] == "c" else (head[1],)
        body = [(rng.choice("pq"), _random_term(rng, bound)) for _ in range(rng.randint(0, 2))]
        if any(p == pred and _unify_heads(h, head) for p, h, _ in clauses):
            continue
        clauses.append((pred, head, body))
    return clauses


def _program_text(clauses) -> str:
    lines = []
    for i, (pred, head, body) in enumerate(clauses, 1):
        atoms = "".join(f"{p}({_render(t)}), " for p, t in body)[:-2]
        lines.append(f"k{i} : {atoms + ' ' if atoms else ''}=> {pred}({_render(head)}).")
    return "\n".join(lines) + "\n"


def _random_queries(rng: random.Random, clauses) -> list[str]:
    queries = []
    for pred, head, _ in clauses:
        queries.append(f"{pred}({_render(head)})")
        if head[1] != "c":
            queries.append(f"{pred}({_render((head[0] + rng.randint(0, 2), 'c'))})")
    if len(clauses) >= 2:
        queries.append(f"{clauses[-1][0]}(X) => {clauses[0][0]}(X)")
    return queries


def _any_outcome(program_file: str, query: str) -> Checker:
    """A random program has no known outcome; a proof must still re-check."""

    def check(code: int, out: str, recheck: Recheck) -> Optional[str]:
        report = json.loads(out)
        if EXIT.get(report["outcome"]) != code or report["exit_code"] != code:
            return _mismatch("exit code for outcome", code, report["outcome"])
        if code == 0 and not recheck.valid(program_file, report["proof"], query):
            return _mismatch("re-check of proof", report["proof"], "valid")
        return None

    return check


def _never_unsound(program_file: str, query: str) -> Checker:
    def check(code: int, out: str, recheck: Recheck) -> Optional[str]:
        report = json.loads(out)
        if code != 0 or report["soundness_violation"]:
            return _mismatch("verify-soundness", (code, report["verdict"]), (0, "not INVALID"))
        if report["outcome"] == "PROVED" and not recheck.valid(program_file, report["proof"], query):
            return _mismatch("re-check of proof", report["proof"], "valid")
        return None

    return check


def mixed(seed: int, corpus_dir: Path, small: bool = False) -> Workload:
    rng = random.Random(seed)
    programs: dict[str, str] = {}
    calls: list[Call] = []
    for file, query, extra, outcomes, proof in CORPUS:
        programs[file] = (corpus_dir / file).read_text(encoding="utf-8")
        base = ("--base-depth", str(CORPUS_BASE_DEPTH.get(file, 2)))
        for mode, outcome in zip(MODES, outcomes):
            want = proof if outcome == "PROVED" else None
            args = ("--query", query, "--mode", mode, *extra)
            calls.append(Call("resolve", file, args,
                              expect_outcome(outcome, want, CORPUS_CONSTANTS, as_json=False)))
            calls.append(Call("verify-soundness", file, (*args, *base, "--json"),
                              expect_sound(outcome, want, CORPUS_CONSTANTS)))
    for k in range(RANDOM_PROGRAMS_SMALL if small else RANDOM_PROGRAMS):
        clauses = random_program(rng)
        file = f"random-{k}.hc"
        programs[file] = _program_text(clauses)
        for query in _random_queries(rng, clauses):
            for mode in MODES:
                args = ("--query", query, "--mode", mode, "--depth", str(RANDOM_DEPTH))
                calls.append(Call("resolve", file, (*args, "--json"), _any_outcome(file, query)))
                calls.append(Call("verify-soundness", file,
                                  (*args, "--base-depth", str(RANDOM_BASE_DEPTH), "--json"),
                                  _never_unsound(file, query)))
    return Workload(programs, tuple(calls))


WORKLOADS = ("diamond", "wide", "oracle", "mixed")


def build(name: str, seed: int, corpus_dir: Path, small: bool = False) -> Workload:
    if name == "mixed":
        return mixed(seed, corpus_dir, small)
    return {"diamond": diamond, "wide": wide, "oracle": oracle}[name](seed, small)
