"""Tests for tabled search and shared proof DAGs.

The tabled search must give what the untabled search gives, apart from the
trace; the untabled search is the same searcher with a memo that never
stores.
"""

import io
import json
import random
import re
from contextlib import redirect_stdout

import pytest

import cohorn.cli
from cohorn import (
    Atom,
    CheckError,
    Mode,
    Outcome,
    Program,
    Query,
    check,
    engine,
    env_for_program,
    format_proof,
    free_proof_vars,
    parse_formula,
    parse_program,
    parse_proof,
    resolve,
)
from cohorn import proofs
from cohorn.proofs import (
    Apply,
    ConstSym,
    Lambda,
    Nu,
    ProofVar,
    proof_children,
    shared_nodes,
)
from cohorn.terms import HornClause, fact

from helpers import program_queries, random_program
from reference_proofs import depth, format_derivation


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


@pytest.fixture
def untabled(monkeypatch):
    """Within the test, call the result with the same arguments as `resolve`
    to search without the memo."""
    init = engine._Search.__init__

    def run(*args, **kwargs):
        def without_memo(self, *a, **k):
            init(self, *a, **k)
            self.memo = _NeverStores()

        with monkeypatch.context() as m:
            m.setattr(engine._Search, "__init__", without_memo)
            return resolve(*args, **kwargs)

    return run


def diamond_source(n: int) -> str:
    """k_i : eq(c_{i-1}), eq(c_{i-1}) => eq(c_i), with k0 : => eq(c0)."""
    lines = ["k0 : => eq(c0)."]
    lines += [f"k{i} : eq(c{i - 1}), eq(c{i - 1}) => eq(c{i})." for i in range(1, n + 1)]
    return "\n".join(lines)


def diamond(n: int):
    return parse_program(diamond_source(n))


def diamond_proof(n: int) -> str:
    proof = "k0"
    for i in range(1, n + 1):
        arg = f"({proof})" if " " in proof else proof
        proof = f"k{i} {arg} {arg}"
    return proof


def unshared(e):
    """The proof tree that a DAG unfolds to, every node a fresh object."""
    if isinstance(e, Apply):
        return Apply(unshared(e.fun), unshared(e.arg))
    if isinstance(e, Lambda):
        return Lambda(e.binders, unshared(e.body))
    if isinstance(e, Nu):
        return Nu(e.binder, unshared(e.body))
    return type(e)(e.name)


def unfolded_text(d) -> str:
    """The tree text that the text report's derivation lines of `d` stand
    for: each `#k#` line replaced by node k's lines, re-indented, with the
    `#k= ` labels and `[depth] ` prefixes dropped and every line indented
    two spaces per level.  Asserts that the i-th line that is no reference
    is node i of the JSON node list, labelled `#i= ` exactly when a later
    `#i#` line names it, and that only a line more than 32 levels deep
    stops indenting and names its depth."""
    nodes = cohorn.cli._derivation_json(d)
    lines = cohorn.cli._derivation_lines(d, False)
    assert lines[0] == "derivation:"
    rows = []
    for line in lines[1:]:
        body = line.lstrip(" ")
        spaces = len(line) - len(body)
        assert spaces % 2 == 0 and 2 <= spaces <= 66, line
        depth = spaces // 2 - 1
        deep = re.match(r"\[(\d+)\] ", body)
        if deep:
            assert depth == 32 < int(deep[1]), line
            depth, body = int(deep[1]), body[deep.end():]
        rows.append([depth, body])
    first = {}  # node index -> the rows of its first listing
    labelled, named = set(), set()
    for r, (depth, body) in enumerate(rows):
        ref = re.fullmatch(r"#(\d+)#", body)
        if ref:
            assert int(ref[1]) in first, body
            named.add(int(ref[1]))
            continue
        k = len(first)
        label = re.match(r"#(\d+)= ", body)
        if label:
            assert int(label[1]) == k, body
            labelled.add(k)
            rows[r][1] = body = body[label.end():]
        assert body.startswith(nodes[k]["rule"] + " ") and body.endswith(" " + nodes[k]["formula"]), body
        end = r + 1
        while end < len(rows) and rows[end][0] > depth:
            end += 1
        first[k] = (r, end)
    assert len(first) == len(nodes) and labelled == named

    out = []

    def unfold(start: int, end: int, shift: int) -> None:
        for depth, body in rows[start:end]:
            ref = re.fullmatch(r"#(\d+)#", body)
            if ref:
                at, to = first[int(ref[1])]
                unfold(at, to, depth + shift - rows[at][0])
            else:
                out.append("  " * (depth + shift + 1) + body)

    unfold(0, len(rows), 0)
    return "\n".join(out)


def random_program_runs(rng, count):
    """`random_program` goals in every mode at depth 4, with no lemma, a
    program clause as a Horn lemma or an atomic lemma, and with auto-lemma."""
    for _ in range(count):
        program = random_program(rng)
        clause = rng.choice(program.clauses)
        horn = clause if clause.body else HornClause((clause.head,), clause.head)
        lemma_sets = [(), (horn,), (fact(rng.choice(program.clauses).head),)]
        for goal in program_queries(rng, program):
            for lemmas in lemma_sets:
                for mode in Mode:
                    for auto in (False, True):
                        yield program, Query(goal, mode, 4, lemmas, auto)


def propositional_runs(rng, count):
    """One clause per 0-ary predicate, bodies with repeats: shared subgoals
    under many different nu-hyp paths, with and without a lemma."""
    for _ in range(count):
        used = "ABCDE"[: rng.randint(2, 5)]
        clauses = [
            HornClause(tuple(Atom(rng.choice(used)) for _ in range(rng.randint(0, 3))), Atom(p))
            for p in used
            if rng.random() < 0.9
        ]
        if not clauses:
            continue
        program = Program(tuple(clauses))
        horn = HornClause((Atom(rng.choice(used)),), Atom(rng.choice(used)))
        for p in used:
            for lemmas in ((), (horn,), (fact(Atom(rng.choice(used))),)):
                for mode in Mode:
                    yield program, Query(fact(Atom(p)), mode, rng.randint(3, 6), lemmas)


def same_result(tabled, plain) -> None:
    assert tabled.outcome is plain.outcome
    pairs = [(tabled.evidence, plain.evidence)]
    pairs += [(r.evidence, s.evidence) for r, s in zip(tabled.lemmas, plain.lemmas)]
    for a, b in pairs:
        assert (a is None) == (b is None)
        if a is not None:
            assert format_proof(a) == format_proof(b)
    assert tabled.derivation == plain.derivation
    assert tabled.lemmas == plain.lemmas
    assert tabled.env == plain.env
    assert tabled.auto_lemma == plain.auto_lemma


def outcome_or_error(search, program, query):
    # An atomic lemma whose evidence is a nu-term can make the emitted
    # proof fail its re-check; both searches must then fail alike.
    try:
        return search(program, query)
    except engine.EngineInvariantError as err:
        return str(err)


def compare(runs, untabled) -> tuple[int, dict, int]:
    """Compare every run with the untabled search; count the runs, the
    reuse events by mode and the reuse events under auto-lemma."""
    calls = auto_reuses = 0
    reuses = dict.fromkeys(Mode, 0)
    for program, query in runs:
        tabled = outcome_or_error(resolve, program, query)
        plain = outcome_or_error(untabled, program, query)
        calls += 1
        if isinstance(tabled, str) or isinstance(plain, str):
            assert tabled == plain
            continue
        same_result(tabled, plain)
        assert not any(e.kind == "reuse" for e in plain.trace)
        count = sum(e.kind == "reuse" for e in tabled.trace)
        reuses[query.mode] += count
        if query.auto_lemma:
            auto_reuses += count
    return calls, reuses, auto_reuses


class TestDifferential:
    def test_random_programs_match_the_untabled_search(self, untabled):
        calls, reuses, auto_reuses = compare(random_program_runs(random.Random(5150), 60), untabled)
        assert calls > 3000 and reuses[Mode.INDUCTIVE] > 100, (calls, reuses)
        assert reuses[Mode.EXTENDED] > 50, reuses
        assert auto_reuses > 250, auto_reuses

    def test_propositional_cycles_match_the_untabled_search(self, untabled):
        calls, reuses, _ = compare(propositional_runs(random.Random(5151), 120), untabled)
        assert calls > 2000 and min(reuses.values()) > 50, (calls, reuses)

    def test_a_path_whose_hypotheses_match_inside_the_subgoal_solves_it_afresh(self, untabled):
        # g at depth 2 is first met under the lemma m => q, whose branch is
        # cut at the limit, and then under y, whose nu-hyp closes the cycle
        # g -> y.  Reusing the first result would report EXHAUSTED.
        src = parse_program(
            "kq : y => q.\nky : b, g => y.\nkm : g => m.\nkg : y => g.\nkb : c => b.\nkc : => c."
        )
        query = Query(parse_formula("q"), Mode.EXTENDED, 5, (parse_formula("m => q"),))
        tabled = resolve(src.program, query, names=src.names)
        assert tabled.outcome is Outcome.PROVED
        assert format_proof(tabled.evidence) == "kq (nu a7. ky (kb kc) (kg a7))"
        same_result(tabled, untabled(src.program, query, names=src.names))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_auto_lemma_reuses_a_subgoal_only_under_the_same_ancestors(self, mode, untabled):
        # g(s(s(c))) at depth 2 is solved first under a, then under g(s(c)),
        # which it embeds.  Inductive mode binds no hypothesis per goal, so
        # only the chain of goals above tells the two apart; reusing the
        # first result would skip the trigger and propose nothing.
        src = parse_program(
            "k0 : a, g(s(c)), z => start.\nk1 : g(s(s(c))) => a.\n"
            "k2 : g(s(s(c))) => g(s(c)).\nk3 : => g(s(s(c)))."
        )
        query = Query(parse_formula("start"), mode, 8, auto_lemma=True)
        tabled = resolve(src.program, query, names=src.names)
        assert tabled.auto_lemma == parse_formula("g(X1) => g(s(X1))")
        same_result(tabled, untabled(src.program, query, names=src.names))

    def test_carried_free_variables_are_those_of_the_evidence(self, monkeypatch):
        """Each solved subgoal carries its evidence's free proof variables,
        memo hits included, so a nu-wrap walks no body.  The search step is
        a generator that `walk` drives, so its wrapper is one too; a memo
        hit is answered by `_reuse`, with no step."""
        solve_atomic, reuse = engine._Search.solve_atomic, engine._Search._reuse
        solved, hits = [], []

        def carried(found, kind):
            ev, _, free = found
            if ev is not None:
                assert free == free_proof_vars(ev), format_proof(ev)
                solved.append(bool(free))
                hits.append(kind == "hit")

        def checked(self, *args, **kwargs):
            found = yield from solve_atomic(self, *args, **kwargs)
            carried(found, "step")
            return found

        def checked_reuse(self, goal, depth):
            found = reuse(self, goal, depth)
            if found is not None:
                carried(found, "hit")
            return found

        monkeypatch.setattr(engine._Search, "solve_atomic", checked)
        monkeypatch.setattr(engine._Search, "_reuse", checked_reuse)
        monkeypatch.setattr(engine, "free_proof_vars", None)
        runs = list(random_program_runs(random.Random(5152), 15))
        runs += list(propositional_runs(random.Random(5153), 20))
        for program, query in runs:
            resolve(program, query)
        assert len(solved) > 1000 and sum(solved) > 100, (len(solved), sum(solved))
        hits_with_free = sum(f and h for f, h in zip(solved, hits))
        assert sum(hits) > 100 and hits_with_free > 10, (sum(hits), hits_with_free)


class TestDiamond:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_closed_form_and_shared_derivation(self, mode):
        for n in range(1, 15):
            src = diamond(n)
            result = resolve(src.program, Query(parse_formula(f"eq(c{n})"), mode, n + 1), names=src.names)
            assert result.outcome is Outcome.PROVED
            assert format_proof(result.evidence) == diamond_proof(n)
            assert result.evidence.arg is result.evidence.fun.arg
            tries = sum(e.kind == "try" for e in result.trace)
            reuses = [e for e in result.trace if e.kind == "reuse"]
            assert tries == n + 1 and len(reuses) == n
            assert all(e.detail == "PROVED" for e in reuses)
            d = result.derivation
            while d.children:
                assert d.children[0] is d.children[1]
                d = d.children[0]

    @pytest.mark.parametrize("mode", ["ind", "coind", "ext"])
    def test_auto_lemma_changes_no_byte_of_a_proved_report(self, mode, tmp_path):
        """A proved goal is never retried, and its search is tabled with or
        without `--auto-lemma`: the reports are the same bytes, and the
        trace holds the 11 `try` and 10 `reuse` events of the tabled DAG
        and, in coinductive and extended mode, one `guarded` event per goal
        for its own nu-hyp."""
        path = tmp_path / "diamond.hc"
        path.write_text(diamond_source(10))
        for flags in ([], ["--json"], ["--trace"], ["--json", "--trace"]):
            reports = []
            for auto in ([], ["--auto-lemma"]):
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cohorn.cli.cli(
                        ["resolve", str(path), "--query", "eq(c10)", "--mode", mode, "--depth", "11"]
                        + flags + auto
                    )
                reports.append((code, out.getvalue()))
            assert reports[1] == reports[0] and reports[0][0] == 0
            if flags == ["--json", "--trace"]:
                trace = [e["kind"] for e in json.loads(reports[1][1])["trace"]]
                guarded = 0 if mode == "ind" else 11
                assert (trace.count("try"), trace.count("reuse"), len(trace)) == (11, 10, 21 + guarded)

    def test_one_below_the_limit_is_cut_once(self):
        src = diamond(12)
        result = resolve(src.program, Query(parse_formula("eq(c12)"), Mode.INDUCTIVE, 12), names=src.names)
        assert result.outcome is Outcome.EXHAUSTED
        assert [e.kind for e in result.trace] == ["try"] * 12 + ["cut"]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_diamond_18_is_linear(self, mode):
        # Untabled, this search makes 2^19 - 1 nodes.
        src = diamond(18)
        result = resolve(src.program, Query(parse_formula("eq(c18)"), mode, 19), names=src.names)
        assert result.outcome is Outcome.PROVED
        assert len(result.trace) <= 3 * 19
        assert depth(result.derivation) == 19
        assert free_proof_vars(result.evidence) == frozenset()


    @pytest.mark.parametrize("mode", list(Mode))
    def test_atomic_lemma_on_a_deep_diamond(self, mode):
        # Every compound subproof of an atomic goal is compared with the
        # lemma's evidence; a walk of the 2^31-node tree would not finish.
        src = diamond(30)
        query = Query(parse_formula("eq(c30)"), mode, 31, lemmas=(parse_formula("eq(c5)"),))
        result = resolve(src.program, query, names=src.names)
        assert result.outcome is Outcome.PROVED
        assert result.lemmas[0].registered
        assert len(result.trace) <= 4 * 31
        d = result.derivation
        while d.children:
            d = d.children[0]
        assert (d.judgement.formula, d.entry_name) == (parse_formula("eq(c5)"), "lemma")


class TestSharedTerms:
    def test_rendering_a_dag_equals_rendering_its_tree(self):
        src = diamond(8)
        result = resolve(src.program, Query(parse_formula("eq(c8)"), Mode.INDUCTIVE, 9), names=src.names)
        tree = unshared(result.evidence)
        assert tree == result.evidence and tree.arg is not tree.fun.arg
        tree_derivation = check(result.env, tree, result.derivation.formula)
        assert tree_derivation.children[0] is not tree_derivation.children[1]
        tree_text = format_derivation(tree_derivation, indent=1)
        assert unfolded_text(result.derivation) == tree_text
        assert cohorn.cli._derivation_lines(tree_derivation, False)[1:] == tree_text.split("\n")
        for unicode in (False, True):
            assert format_proof(tree, unicode) == format_proof(result.evidence, unicode)

    def test_only_shared_nodes_are_memoised(self):
        src = diamond(6)
        result = resolve(src.program, Query(parse_formula("eq(c6)"), Mode.INDUCTIVE, 7), names=src.names)
        # The six proofs of eq(c0) .. eq(c5), each the argument of two Applys.
        assert len(shared_nodes(result.evidence, proof_children)) == 6
        assert len(shared_nodes(result.derivation, lambda d: d.children)) == 6
        assert shared_nodes(unshared(result.evidence), proof_children) == set()

    def test_deep_dag_walks_are_linear(self):
        # 200 levels of x (x): a tree of 2^200 nodes.
        e = ProofVar("a")
        for _ in range(200):
            e = Apply(Apply(ConstSym("k"), e), e)
        assert free_proof_vars(e) == {"a"}
        assert free_proof_vars(Nu("a", e)) == frozenset()

    def test_a_shared_failing_subterm_is_rejected_at_its_first_occurrence(self):
        src = parse_program("k1 : eq(X), eq(X) => eq(f(X)).\nk2 : => eq(c).")
        env = env_for_program(src.program, src.names)
        bad = parse_proof("k1 k2 k2")
        shared = Apply(Apply(ConstSym("k1"), bad), bad)
        tree = parse_proof("k1 (k1 k2 k2) (k1 k2 k2)")
        errors = []
        for term in (shared, tree):
            with pytest.raises(CheckError) as info:
                check(env, term, parse_formula("eq(f(c))"))
            errors.append((info.value.reason, info.value.path, str(info.value)))
        assert errors[0] == errors[1] and errors[0][1] == (0,)

    def test_check_runs_one_step_per_distinct_subterm(self, monkeypatch):
        """The proof of diamond-n has n + 1 distinct subterms: `check` runs
        one `_check` step for each and no pass over the DAG beforehand."""
        n = 12
        src = diamond(n)
        e = ConstSym("k0")
        for i in range(1, n + 1):
            e = Apply(Apply(ConstSym(f"k{i}"), e), e)
        steps, scans = [], []
        step, scan = proofs._check, proofs.shared_nodes
        monkeypatch.setattr(proofs, "_check", lambda *args: steps.append(args) or step(*args))
        monkeypatch.setattr(proofs, "shared_nodes", lambda *args: scans.append(args) or scan(*args))
        d = check(env_for_program(src.program, src.names), e, parse_formula(f"eq(c{n})"))
        assert depth(d) == n + 1
        assert (len(steps), scans) == (n + 1, [])

    def test_rules_used_and_depth_visit_a_dag(self):
        src = diamond(60)
        env = env_for_program(src.program, src.names)
        e = ConstSym("k0")
        for i in range(1, 61):
            e = Apply(Apply(ConstSym(f"k{i}"), e), e)
        d = check(env, e, parse_formula("eq(c60)"))
        assert depth(d) == 61
        assert {r.value for r in d.rules_used()} == {"Lp-m"}
