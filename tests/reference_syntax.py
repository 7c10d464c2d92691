"""The front end as it was before the one-regex scanner: a reference for tests.

A per-character tokenizer that builds `_Tok` records, and a recursive-descent
parser with `peek`/`next`/`expect` methods over them.  `tests/test_syntax.py`
checks that `cohorn.syntax` returns the same values and raises the same
errors, at the same positions, on random and corpus inputs.

`format_program` (a program as source text, which parses back to it) and
`clause_named` serve only tests, so they live here, not in `cohorn.syntax`.
"""

from __future__ import annotations

from typing import NamedTuple

from cohorn.proofs import ConstSym, Lambda, Nu, ProofTerm, ProofVar, make_apply
from cohorn.syntax import ParseError, ProgramLoadError, SourceProgram
from cohorn.terms import (
    App,
    Atom,
    ExistentialVariableError,
    HornClause,
    OverlapError,
    Program,
    Term,
    Var,
    format_clause,
    is_variable_name,
)


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_PUNCT = {
    ":": "colon",
    ",": "comma",
    "(": "lparen",
    ")": "rparen",
    ".": "dot",
    "\\": "lambda",
}


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("=>", i):
            toks.append(_Tok("arrow", "=>", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("->", i):
            toks.append(_Tok("to", "->", line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            toks.append(_Tok(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    # -- terms and atoms ---------------------------------------------------

    def term(self) -> Term:
        t = self.expect("name", "a term")
        if self.peek().kind == "lparen":
            if is_variable_name(t.text):
                raise ParseError(f"variable {t.text} cannot take arguments", t.line, t.col)
            self.next()
            args = [self.term()]
            while self.peek().kind == "comma":
                self.next()
                args.append(self.term())
            self.expect("rparen", "')'")
            return App(t.text, tuple(args))
        if is_variable_name(t.text):
            return Var(t.text)
        return App(t.text)

    def atom(self) -> Atom:
        t = self.expect("name", "a predicate")
        args: list[Term] = []
        if self.peek().kind == "lparen":
            self.next()
            args.append(self.term())
            while self.peek().kind == "comma":
                self.next()
                args.append(self.term())
            self.expect("rparen", "')'")
        return Atom(t.text, tuple(args))

    def formula(self) -> HornClause:
        # [atom {"," atom}] "=>" atom   |   atom
        if self.peek().kind == "arrow":
            self.next()
            return HornClause((), self.atom())
        first = self.atom()
        if self.peek().kind not in ("comma", "arrow"):
            return HornClause((), first)
        body = [first]
        while self.peek().kind == "comma":
            self.next()
            body.append(self.atom())
        self.expect("arrow", "'=>'")
        return HornClause(tuple(body), self.atom())

    # -- proof terms --------------------------------------------------------

    def proof(self, bound: frozenset[str]) -> ProofTerm:
        t = self.peek()
        if t.kind == "lambda":
            self.next()
            binders = [self.expect("name", "a binder name").text]
            while self.peek().kind == "name" and self.peek().text != "nu":
                binders.append(self.next().text)
            self.expect("to", "'->'")
            body = self.proof(bound | frozenset(binders))
            return Lambda(tuple(binders), body)
        if t.kind == "name" and t.text == "nu":
            self.next()
            binder = self.expect("name", "a binder name").text
            self.expect("dot", "'.'")
            body = self.proof(bound | {binder})
            return Nu(binder, body)
        head = self.proof_atom(bound)
        args = []
        while self.peek().kind in ("name", "lparen") and not (
            self.peek().kind == "name" and self.peek().text == "nu"
        ):
            args.append(self.proof_atom(bound))
        return make_apply(head, args)

    def proof_atom(self, bound: frozenset[str]) -> ProofTerm:
        t = self.peek()
        if t.kind == "lparen":
            self.next()
            inner = self.proof(bound)
            self.expect("rparen", "')'")
            return inner
        if t.kind == "name":
            if t.text == "nu":
                self.fail("'nu' is reserved")
            self.next()
            if t.text in bound:
                return ProofVar(t.text)
            return ConstSym(t.text)
        self.fail("expected a proof term")
        raise AssertionError  # unreachable


def parse_program(text: str) -> SourceProgram:
    p = _Parser(text)
    names: list[str] = []
    clauses: list[HornClause] = []
    while p.peek().kind != "eof":
        name = p.expect("name", "a clause name")
        p.expect("colon", "':'")
        body: list[Atom] = []
        if p.peek().kind != "arrow":
            body.append(p.atom())
            while p.peek().kind == "comma":
                p.next()
                body.append(p.atom())
        p.expect("arrow", "'=>'")
        head = p.atom()
        p.expect("dot", "'.'")
        if name.text in names:
            raise ParseError(f"duplicate clause name {name.text}", name.line, name.col)
        names.append(name.text)
        clauses.append(HornClause(tuple(body), head))
    try:
        program = Program(tuple(clauses))
    except OverlapError as err:
        raise ProgramLoadError(
            f"axiom heads overlap: {names[err.index_a]} ({format_clause(err.clause_a)}) "
            f"unifies with {names[err.index_b]} ({format_clause(err.clause_b)})"
        ) from err
    except ExistentialVariableError as err:
        which = names[clauses.index(err.clause)]
        raise ProgramLoadError(
            f"EXISTENTIAL_VAR({', '.join(err.variables)}) in clause "
            f"{which}: {format_clause(err.clause)}"
        ) from err
    return SourceProgram(program, tuple(names), {n: i for i, n in enumerate(names)})


def parse_formula(text: str) -> HornClause:
    p = _Parser(text)
    f = p.formula()
    p.expect("eof", "end of input")
    return f


def parse_atom(text: str) -> Atom:
    p = _Parser(text)
    a = p.atom()
    p.expect("eof", "end of input")
    return a


def parse_proof(text: str) -> ProofTerm:
    p = _Parser(text)
    e = p.proof(frozenset())
    p.expect("eof", "end of input")
    return e


def format_program(src: SourceProgram) -> str:
    lines = [
        f"{name} : {format_clause(clause)}."
        for name, clause in zip(src.names, src.program.clauses)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def clause_named(src: SourceProgram, name: str) -> HornClause:
    return src.program.clauses[src.by_name[name]]
