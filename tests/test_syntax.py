"""Tests for the concrete syntax: parsing, printing, round-trips."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohorn import (
    App,
    Apply,
    Atom,
    ConstSym,
    Lambda,
    Nu,
    ParseError,
    ProgramLoadError,
    ProofVar,
    SignatureError,
    Var,
    format_proof,
    parse_atom,
    parse_formula,
    parse_proof,
    parse_program,
)
from cohorn import syntax
from cohorn.syntax import SourceProgram, _tokenize
from cohorn.terms import format_formula, is_constant_name

import reference_syntax
from reference_syntax import clause_named, format_program
from helpers import PROGRAMS_DIR, load, program_queries, random_program


class TestProgramParsing:
    def test_pair_program(self):
        src = parse_program("k1 : eq(X), eq(Y) => eq(pair(X,Y)).\nk2 : => eq(int).")
        assert src.names == ("k1", "k2")
        k1 = clause_named(src, "k1")
        assert k1.head == Atom("eq", (App("pair", (Var("X"), Var("Y"))),))
        assert len(k1.body) == 2

    def test_comments_and_blank_lines(self):
        src = parse_program("% a comment\n\nk1 : => eq(int). % trailing\n")
        assert src.names == ("k1",)

    def test_body_deeper_than_head_loads(self):
        src = parse_program("k1 : p(f(X)) => p(X).")
        assert len(src.program.clauses) == 1

    def test_existential_variable_reported(self):
        with pytest.raises(ProgramLoadError) as err:
            parse_program("k1 : q(Y) => p(X).")
        assert "EXISTENTIAL_VAR(Y)" in str(err.value)
        assert "k1" in str(err.value)

    def test_existential_variables_listed_once_in_first_occurrence_order(self):
        with pytest.raises(ProgramLoadError) as err:
            parse_program("k1 : => p(c).\nk2 : q(X, Y), r(Y, X, Z), q(Z, Y), s(W) => p(X).")
        assert str(err.value) == (
            "EXISTENTIAL_VAR(Y, Z, W) in clause k2: q(X,Y), r(Y,X,Z), q(Z,Y), s(W) => p(X)"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            # A clause's head is read before its body ...
            ("k1 : q(f(c,c)) => p(f(c)).", "functor f used with arities 1 and 2"),
            ("k1 : p(c,c) => p(c).", "predicate p used with arities 1 and 2"),
            # ... and a clause's body before the next clause's head.
            ("k1 : q(f(c)) => p(c).\nk2 : => q(f(c,c)).", "functor f used with arities 1 and 2"),
            ("k1 : q(c) => p(c).\nk2 : => q(c,c).", "predicate q used with arities 1 and 2"),
        ],
    )
    def test_first_signature_clash_reported(self, text, message):
        with pytest.raises(SignatureError) as err:
            parse_program(text)
        assert str(err.value) == message

    def test_overlap_reported_with_both_clauses(self):
        with pytest.raises(ProgramLoadError) as err:
            parse_program("k1 : => A(X).\nk2 : => A(f(Y)).")
        msg = str(err.value)
        assert "k1" in msg and "k2" in msg

    def test_positioned_errors(self):
        with pytest.raises(ParseError) as err:
            parse_program("k1 : => eq(int)\nk2 : => eq(bool).")
        assert err.value.line == 2

    def test_tokens(self):
        toks = _tokenize("k1 : => eq(X).  % note\n \\b -> nu")
        assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
            ("name", "k1", 1, 1), ("colon", ":", 1, 4), ("arrow", "=>", 1, 6),
            ("name", "eq", 1, 9), ("lparen", "(", 1, 11), ("name", "X", 1, 12),
            ("rparen", ")", 1, 13), ("dot", ".", 1, 14), ("lambda", "\\", 2, 2),
            ("name", "b", 2, 3), ("to", "->", 2, 5), ("name", "nu", 2, 8), ("eof", "", 2, 10),
        ]

    def test_error_messages(self):
        cases = {
            "k1 : => eq(int)\nk2 : => eq(bool).": "expected '.', found 'k2' (line 2, column 1)",
            "k1 : => eq(#).": "unexpected character '#' (line 1, column 12)",
            "k1 => eq(int).": "expected ':', found '=>' (line 1, column 4)",
            "k1 : => eq(int": "expected ')', found 'end of input' (line 1, column 15)",
        }
        for text, message in cases.items():
            with pytest.raises(ParseError) as err:
                parse_program(text)
            assert str(err.value) == message

    def test_variables_cannot_take_arguments(self):
        with pytest.raises(ParseError):
            parse_formula("p(X(a))")

    def test_duplicate_clause_names(self):
        with pytest.raises(ParseError):
            parse_program("k1 : => A.\nk1 : => B.")


class TestFormulaParsing:
    def test_atomic(self):
        f = parse_formula("eq(evenList(int))")
        assert f.is_atomic

    def test_horn(self):
        f = parse_formula("eq(X) => eq(bush(X))")
        assert len(f.body) == 1

    def test_fact_form(self):
        assert parse_formula("=> eq(int)") == parse_formula("eq(int)")

    def test_uppercase_predicates(self):
        f = parse_formula("D(z,z)")
        assert f.head.predicate == "D"
        f = parse_formula("B(X) => A(X)")
        assert f.body[0].args == (Var("X"),)


class TestProofParsing:
    def test_application_left_associative(self):
        e = parse_proof("k1 k2 k2")
        assert e == Apply(Apply(ConstSym("k1"), ConstSym("k2")), ConstSym("k2"))

    def test_evenodd_witness(self):
        e = parse_proof("nu a. k2 k3 (k1 k3 a)")
        assert isinstance(e, Nu)
        inner = e.body
        assert isinstance(inner, Apply)
        assert free_vars_none(e)

    def test_bush_witness(self):
        e = parse_proof("(nu a. \\b -> k2 b (a (a b))) k1")
        assert isinstance(e, Apply)
        assert isinstance(e.fun, Nu)
        assert isinstance(e.fun.body, Lambda)

    def test_binders_shadow(self):
        e = parse_proof("\\a -> nu a. k1 a")
        assert isinstance(e.body, Nu)
        assert e.body.body == Apply(ConstSym("k1"), ProofVar("a"))

    def test_nu_reserved(self):
        with pytest.raises(ParseError):
            parse_proof("k1 nu")


def free_vars_none(e):
    from cohorn import free_proof_vars

    return not free_proof_vars(e)


class TestRoundTrips:
    def test_corpus_programs(self):
        for name in ("pair", "evenodd", "bush", "p6", "p7", "p11", "chain", "loop"):
            src = load(name)
            again = parse_program(format_program(src))
            assert again.program.clauses == src.program.clauses
            assert again.names == src.names

    def test_formula_round_trip(self):
        for text in ("eq(int)", "eq(X) => eq(bush(X))", "B(X) => A(X)", "A => C"):
            f = parse_formula(text)
            assert parse_formula(format_formula(f)) == f

    def test_proof_round_trip_goldens(self):
        for text in (
            "k1 k2 k2",
            "nu a. k2 k3 (k1 k3 a)",
            "(nu a. \\b -> k2 b (a (a b))) k1",
            "\\a -> k2 (k1 a)",
            "\\b1 b2 -> k1 (k2 b2) b1",
        ):
            e = parse_proof(text)
            assert parse_proof(format_proof(e)) == e

    def test_random_program_round_trip(self):
        rng = random.Random(41)
        from cohorn.syntax import SourceProgram

        for _ in range(120):
            program = random_program(rng)
            names = tuple(f"k{i + 1}" for i in range(len(program.clauses)))
            src = SourceProgram(program, names, {n: i for i, n in enumerate(names)})
            again = parse_program(format_program(src))
            assert again.program.clauses == program.clauses

    def test_random_proof_round_trip(self):
        rng = random.Random(43)
        for _ in range(200):
            e = random_proof(rng, 4, ())
            assert parse_proof(format_proof(e)) == e


def random_proof(rng, depth, scope):
    roll = rng.random()
    if depth <= 1 or roll < 0.35:
        if scope and rng.random() < 0.5:
            return ProofVar(rng.choice(scope))
        return ConstSym(rng.choice(["k1", "k2", "k3"]))
    if roll < 0.55:
        binders = tuple(
            f"b{rng.randint(1, 3)}{i}" for i in range(rng.randint(1, 2))
        )
        return Lambda(binders, random_proof(rng, depth - 1, scope + binders))
    if roll < 0.7:
        binder = f"a{rng.randint(1, 9)}"
        return Nu(binder, random_proof(rng, depth - 1, scope + (binder,)))
    return Apply(random_proof(rng, depth - 1, scope), random_proof(rng, depth - 1, scope))


class TestUnicodeRendering:
    def test_proof_symbols(self):
        e = parse_proof("(nu a. \\b -> k2 b (a (a b))) k1")
        text = format_proof(e, unicode=True)
        assert "ν" in text and "λ" in text

    def test_formula_arrow(self):
        assert format_formula(parse_formula("A, B => C"), unicode=True) == "A, B ⇒ C"
        assert format_formula(parse_formula("A"), unicode=True) == "A"


# ---------------------------------------------------------------------------
# The front end against the reference copy of the per-character tokenizer
# and method-per-token parser it replaced
# ---------------------------------------------------------------------------

ENTRY_POINTS = ("parse_program", "parse_formula", "parse_atom", "parse_proof")

# Every character class the scanner treats specially: letters that are and
# are not `str.isalpha` (`²` and `Ⅳ` are `isalnum` only), whitespace that is
# not a newline (`\x1c`, `\x1f`, `\x85` and `\u3000` are whitespace to
# `str.split` and `\s` alike), comment and arrow starts, and characters no
# token takes (`\ufeff` is no whitespace).
ALPHABET = "kqXY_abnu0123'éª²Ⅳ \t\n\r\x0b\xa0\u2028\x1c\x1f\x85\u3000%=->:,().\\#$\ufeff"
FRAGMENTS = (
    "k1", "k2", "eq", "X", "Y", "f", "int", "nu", "a", "_b", "b'", "é", "²", "Ⅳ", "0",
    " ", "\n", "\t", "\r", "\r\n", "\x0b", "\xa0", "\u2028", "\x1c", "\x1f", "\x85",
    "\u3000", ":", " : ", "=>", "->", "=", "-", ",", "(", ")", ".", "\\", "%", "% c", "#",
    "$", "\ufeff",
)


def outcome(parse, text):
    try:
        value = parse(text)
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.col)
    except Exception as err:
        return (type(err).__name__, str(err))
    if isinstance(value, SourceProgram):
        return ("ok", value, value.by_name)
    return ("ok", value)


def assert_same_as_reference(text, entries=ENTRY_POINTS):
    for entry in entries:
        got = outcome(getattr(syntax, entry), text)
        want = outcome(getattr(reference_syntax, entry), text)
        assert got == want, (entry, text)


def random_text(rng):
    if rng.random() < 0.5:
        return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 30)))
    return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 20)))


def edited(rng, text):
    """The text with one random fragment inserted, or one character removed."""
    at = rng.randint(0, len(text))
    if text and rng.random() < 0.4:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(FRAGMENTS) + text[at:]


class TestAgainstReference:
    def test_quirks(self):
        for text in (
            "eq(Ⅳ)", "k1 : => eq(Ⅳ).", "k1 : => eq(²).", "k1 : => eq(a²).", "k1 : => eq(é).",
            "k1 : => eq(int % c", "k1 : => eq(int\r\x0b\xa0\u2028", "k1 : => A.\nk1 : => B(",
            "k1 : => eq(int)\n% only a comment", "\\nu -> k1", "nu nu. k1", "\\a nu -> k1",
            "(k1", "k1 )", "p(X(a))", "k1 # => =", "", "% c", "\n\n  ",
            "k1 : => eq(int).\r\nk2 : => eq(c).\r\n", "k1 : => eq(int). % end",
            "k1 : => eq(int).\r\n% end", "k1 : => eq(int)\r\n% end", "eq(\u3000c\x85)",
            "eq(c\ufeff)", "k1 : => eq($).",
        ):
            assert_same_as_reference(text)
        with pytest.raises(ParseError) as err:
            syntax.parse_atom("eq(Ⅳ)")
        assert str(err.value) == "unexpected character 'Ⅳ' (line 1, column 4)"
        with pytest.raises(ParseError) as err:
            parse_program("k1 : => eq(int % c")
        assert (err.value.line, err.value.col) == (1, 16)

    @given(st.text(alphabet=ALPHABET, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_characters(self, text):
        assert_same_as_reference(text)

    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_fragments(self, text):
        assert_same_as_reference(text)

    def test_seeded_random_strings(self):
        rng = random.Random(47)
        corpus = [path.read_text() for path in sorted(PROGRAMS_DIR.glob("*.hc"))]
        for k in range(20_000):
            if k % 2:
                assert_same_as_reference(random_text(rng))
            else:  # an edited program is read as a program only
                assert_same_as_reference(edited(rng, rng.choice(corpus)), ("parse_program",))

    def test_corpus_and_every_prefix(self):
        for path in sorted(PROGRAMS_DIR.glob("*.hc")):
            text = path.read_text()
            for end in range(len(text) + 1):
                assert_same_as_reference(text[:end])
            for line in text.splitlines():
                assert_same_as_reference(line)

    def test_helper_programs_queries_and_proofs(self):
        rng = random.Random(53)
        for _ in range(200):
            program = random_program(rng)
            names = tuple(f"k{i + 1}" for i in range(len(program.clauses)))
            src = SourceProgram(program, names, {n: i for i, n in enumerate(names)})
            assert_same_as_reference(format_program(src))
            for query in program_queries(rng, program):
                assert_same_as_reference(format_formula(query))
            assert_same_as_reference(format_proof(random_proof(rng, 4, ())))


class TestSplitRoute:
    """`_whole` reads ASCII text with string methods alone: `_tokenize`
    runs only for a text with an unexpected character or a non-ASCII name."""

    def count_tokenize(self, monkeypatch) -> list:
        calls = []

        def counted(text):
            calls.append(text)
            return _tokenize(text)

        monkeypatch.setattr(syntax, "_tokenize", counted)
        return calls

    def test_corpus_programs_queries_and_proofs_skip_tokenize(self, monkeypatch):
        from test_cli import CORPUS_REPORTS, run

        calls = self.count_tokenize(monkeypatch)
        for path in sorted(PROGRAMS_DIR.glob("*.hc")):
            assert path.read_text().isascii()
            parse_program(path.read_text())
        for argv in CORPUS_REPORTS:
            assert run(argv)[0] in (0, 1, 2), argv
        assert calls == []

    def test_other_texts_take_tokenize(self, monkeypatch):
        calls = self.count_tokenize(monkeypatch)
        assert parse_atom("eq(é)") == Atom("eq", (App("é"),))
        with pytest.raises(ParseError):
            parse_atom("eq($)")
        assert calls == ["eq(é)", "eq($)"]


class TestConstantNames:
    """`terms.is_constant_name`, which `--const` values must pass, accepts
    exactly the texts that the parser reads as one term constant."""

    @given(st.text(alphabet=ALPHABET + "ǅ", max_size=6))
    @example("")
    @example("f(a)")
    @example("a b")
    @example("_b'é0")
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_the_parser(self, text):
        try:
            parsed = syntax.parse_atom(f"p({text})")
        except ParseError:
            parsed = None
        assert is_constant_name(text) == (parsed == Atom("p", (App(text),)))


class TestLeafSharing:
    """One parse builds one `Var` or constant `App` per distinct name; the
    table that holds them lives for that parse only."""

    TEXT = "k1 : eq(X), eq(Y) => eq(pair(X,Y)).\nk2 : => eq(int).\nk3 : eq(X) => eq(f(X,int,g(int)))."

    def leaves(self, src: SourceProgram) -> dict:
        found: dict = {}
        for c in src.program.clauses:
            stack = [t for a in (c.head, *c.body) for t in a.args]
            while stack:
                t = stack.pop()
                if isinstance(t, Var) or not t.args:
                    found.setdefault(str(t), set()).add(id(t))
                else:
                    stack.extend(t.args)
        return found

    def test_equal_leaves_are_one_object_within_and_across_clauses(self):
        src = parse_program(self.TEXT)
        k1, k3 = src.program.clauses[0], src.program.clauses[2]
        assert k1.body[0].args[0] is k1.head.args[0].args[0]  # X within k1
        assert k3.body[0].args[0] is k1.body[0].args[0]  # X across clauses
        leaves = self.leaves(src)
        assert sorted(leaves) == ["X", "Y", "int"]
        assert all(len(ids) == 1 for ids in leaves.values())

    def test_compound_terms_and_formulas_are_not_shared(self):
        src = parse_program("k1 : => p(f(c)).\nk2 : => q(f(c)).")
        a, b = (c.head.args[0] for c in src.program.clauses)
        assert a == b and a is not b
        assert a.args[0] is b.args[0]
        goal = parse_formula("p(X), q(X) => r(X)")
        assert goal.body[0].args[0] is goal.head.args[0]

    def test_two_parses_share_no_leaf(self):
        one, two = parse_program(self.TEXT), parse_program(self.TEXT)
        assert one == two
        ids_one = set().union(*self.leaves(one).values())
        ids_two = set().union(*self.leaves(two).values())
        assert not ids_one & ids_two
        assert parse_atom("p(X, c)").args[0] is not parse_atom("p(X, c)").args[0]
        # No table outlives a parse: no module-level dict holds a term.
        tables = [v for v in vars(syntax).values() if isinstance(v, dict)]
        assert not any(isinstance(t, (Var, App)) for table in tables for t in table.values())


class TestParseCost:
    def test_call_events_per_token(self):
        """A 120-clause two-parameter instance program costs at most one
        Python call a token, parsing and validation together."""
        text = "k0 : => eq(c).\n" + "".join(
            f"k{i} : eq(X), eq(Y) => eq(t{i}(X,Y)).\n" for i in range(1, 121)
        )
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            src = parse_program(text)
        finally:
            sys.setprofile(None)
        assert len(src.names) == 121
        assert calls <= len(_tokenize(text))
