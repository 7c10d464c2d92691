"""Concrete syntax: program files, query formulae, and proof terms.

Program grammar, one clause per line::

    NAME ":" [atom {"," atom}] "=>" atom "."

Atoms are `pred(term,...)` or a bare `pred`; identifiers starting with an
uppercase letter are variables in term position (predicates may use any
case); `%` starts a line comment.  Clause names become the proof-term
constants of the axiom environment, in source order.

Proof terms: application is juxtaposition and associates left,
`\\b1 b2 -> e` binds lambda variables, `nu a. e` binds a corecursion
variable, parentheses group.  `nu` is reserved.

Cost model: string methods, run in C, turn the text into a list of token
strings, with `""` at the end of input: one `re.sub` blanks the `%`
comments if there are any, a chain of `str.replace` puts spaces around the
eight symbols, and `str.split` cuts the result at whitespace.  Each distinct
token is then checked to be a symbol or an ASCII name; only text with some
other token (an unexpected character, or a non-ASCII name) is scanned by
`_tokenize`, which raises at the first unexpected character or else gives
the same tokens.  The parsers walk the list by index; terms nest on an
explicit stack, so a term costs no Python call beyond the constructors, and
proof terms nest on `proofs.walk`.  One parse builds one `Var` or constant
`App` per distinct name, so a leaf costs a dict lookup, and the loaded
`Program` is validated in one walk over its atoms.  Source positions are
computed only when a `ParseError` is raised: `_tokenize` re-scans the text
with the `_TOKEN` regex and counts lines and columns up to the offending
token.
"""

from __future__ import annotations

import re
from collections import Counter

from .proofs import ConstSym, Lambda, Nu, ProofTerm, ProofVar, make_apply, walk
from .terms import (
    App,
    Atom,
    ExistentialVariableError,
    HornClause,
    OverlapError,
    Program,
    Value,
    Var,
    format_clause,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class ProgramLoadError(Exception):
    """A parsed program violates a load-time restriction."""


# `_tokenize`'s scanner, for positions and for text that `_split` cannot read:
# whitespace and `%` comments, then a token in group 1 or else one unexpected
# character (group 1 is None).  `\s` is `str.isspace`, the characters that
# `str.split` splits at, and `\w` is `isalnum` or `_`; `[^\W\d]` also admits
# `²` and `Ⅳ`, which `_tokenize` rejects as not `isalpha`.  The text is
# scanned with "\n\0" appended: the newline ends a trailing comment and the
# unexpected `\0` marks the end of input.
_TOKEN = re.compile(r"\s*(?:%[^\n]*\s*)*(?:(=>|->|[:,().\\]|[^\W\d][\w']*)|[^\s%])")
_END = "\n\0"

_KINDS = {"=>": "arrow", "->": "to", ":": "colon", ",": "comma", "(": "lparen", ")": "rparen",
          ".": "dot", "\\": "lambda"}
_SYMBOLS = frozenset(_KINDS) | {""}  # every token that is not a name
_COMMENT = re.compile(r"%[^\n]*")


class _Tok(Value):
    __slots__ = ("kind", "text", "line", "col")


def _tokenize(text: str) -> list[_Tok]:
    """The tokens with their positions; raises at the first unexpected character."""
    toks: list[_Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text + _END):
        tok = m.group(1)
        at = m.end() - 1 if tok is None else m.start(1)
        newlines = text.count("\n", m.start(), at)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", m.start(), at) + 1
        if tok is None and at > len(text):
            break  # the end marker
        if tok is None or not (tok[0].isalpha() or tok[0] == "_" or tok in _KINDS):
            raise ParseError(f"unexpected character {text[at]!r}", line, at - line_start + 1)
        toks.append(_Tok(_KINDS.get(tok, "name"), tok, line, at - line_start + 1))
    # A trailing comment with no newline leaves the end-of-input column at its `%`.
    comment = text.find("%", line_start)
    at = len(text) if comment < 0 else comment
    toks.append(_Tok("eof", "", line, at - line_start + 1))
    return toks


class _Fail(Exception):
    """(message, token index) of a syntax error; `_whole` adds the position."""


def _expected(toks: list[str], i: int, what: str) -> _Fail:
    return _Fail(f"expected {what}, found {toks[i] or 'end of input'!r}", i)


# -- terms and atoms ---------------------------------------------------------
# Each rule takes the tokens and a start index and returns the value and the
# index after it.  `leaves` maps each variable and constant name met so far
# to its one `Var` or `App`; it lives for one parse, which builds one object
# per leaf name.  `name[0].isupper()` is `terms.is_variable_name`, inlined.


def _atom(toks: list[str], i: int, leaves: dict) -> tuple[Atom, int]:
    """`pred` or `pred "(" term {"," term} ")"`, nested terms on an explicit stack."""
    predicate = toks[i]
    if predicate in _SYMBOLS:
        raise _expected(toks, i, "a predicate")
    if toks[i + 1] != "(":
        return Atom(predicate), i + 1
    i += 2
    stack: list[tuple[str, list]] = []
    args: list = []
    while True:
        name = toks[i]
        if name in _SYMBOLS:
            raise _expected(toks, i, "a term")
        if toks[i + 1] == "(":
            if name[0].isupper():
                raise _Fail(f"variable {name} cannot take arguments", i)
            stack.append((name, args))
            args = []
            i += 2
            continue
        leaf = leaves.get(name)
        if leaf is None:
            leaf = leaves[name] = Var(name) if name[0].isupper() else App(name)
        args.append(leaf)
        i += 1
        while toks[i] != ",":
            if toks[i] != ")":
                raise _expected(toks, i, "')'")
            i += 1
            if not stack:
                return Atom(predicate, tuple(args)), i
            functor, outer = stack.pop()
            outer.append(App(functor, tuple(args)))
            args = outer
        i += 1


def _formula(toks: list[str], i: int, query: bool, leaves: dict) -> tuple[HornClause, int]:
    """`[atom {"," atom}] "=>" atom`; a query may also be a bare atom."""
    body: list[Atom] = []
    if toks[i] != "=>":
        atom, i = _atom(toks, i, leaves)
        if query and toks[i] != "," and toks[i] != "=>":
            return HornClause((), atom), i
        body.append(atom)
        while toks[i] == ",":
            atom, i = _atom(toks, i + 1, leaves)
            body.append(atom)
        if toks[i] != "=>":
            raise _expected(toks, i, "'=>'")
    head, i = _atom(toks, i + 1, leaves)
    return HornClause(tuple(body), head), i


# -- proof terms -------------------------------------------------------------


def _proof(i: int, ctx: tuple[list[str], Counter]):
    """A `walk` step: the proof term at `toks[i]` and the index after it.
    `bound`, which the walk shares, counts each name's binders in scope."""
    toks, bound = ctx
    tok = toks[i]
    if tok == "\\":
        if toks[i + 1] in _SYMBOLS:
            raise _expected(toks, i + 1, "a binder name")
        end = i + 2  # the first binder may be `nu`, the others may not
        while toks[end] not in _SYMBOLS and toks[end] != "nu":
            end += 1
        if toks[end] != "->":
            raise _expected(toks, end, "'->'")
        binders = tuple(toks[i + 1:end])
        bound.update(binders)
        body, i = yield end + 1, ctx, _proof
        bound.subtract(binders)
        return Lambda(binders, body), i
    if tok == "nu":
        binder = toks[i + 1]
        if binder in _SYMBOLS:
            raise _expected(toks, i + 1, "a binder name")
        if toks[i + 2] != ".":
            raise _expected(toks, i + 2, "'.'")
        bound[binder] += 1
        body, i = yield i + 3, ctx, _proof
        bound[binder] -= 1
        return Nu(binder, body), i
    # The head, then the arguments; these stop at `nu`, which the head cannot be.
    parts = []
    while True:
        if tok == "(":
            inner, i = yield i + 1, ctx, _proof
            if toks[i] != ")":
                raise _expected(toks, i, "')'")
            parts.append(inner)
        elif tok in _SYMBOLS:
            raise _Fail("expected a proof term", i)
        else:
            parts.append(ProofVar(tok) if bound[tok] else ConstSym(tok))
        i += 1
        tok = toks[i]
        if tok != "(" and (tok in _SYMBOLS or tok == "nu"):
            return make_apply(parts[0], parts[1:]), i


def _split(text: str) -> list[str]:
    """The token texts, `""` last; raises at the first unexpected character."""
    spaced = _COMMENT.sub(" ", text) if "%" in text else text
    # `str.translate` with a dict would pad in one call, but ten times slower.
    toks = (
        spaced.replace("=>", " => ").replace("->", " -> ").replace(":", " : ")
        .replace(",", " , ").replace("(", " ( ").replace(")", " ) ")
        .replace(".", " . ").replace("\\", " \\ ").split()
    )
    toks.append("")
    # An ASCII name is an identifier once its primes are gone.  Any other
    # token holds an unexpected character or is a non-ASCII name, which
    # `_tokenize` reads as the `_TOKEN` regex does.
    for tok in set(toks):
        if tok not in _SYMBOLS and (
            tok[0] == "'" or not tok.replace("'", "").isidentifier() or not tok.isascii()
        ):
            return [t.text for t in _tokenize(text)]
    return toks


def _whole(rule, text: str):
    """Run `rule(toks, 0)` over the whole text and turn a `_Fail` into a ParseError."""
    toks = _split(text)
    try:
        value, i = rule(toks, 0)
        if toks[i]:
            raise _expected(toks, i, "end of input")
    except _Fail as fail:
        message, at = fail.args
        tok = _tokenize(text)[at]
        raise ParseError(message, tok.line, tok.col) from None
    return value


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


class SourceProgram(Value, compared=2):
    # names: the clause names in source order; by_name: name -> clause index
    __slots__ = ("program", "names", "by_name")


def _clauses(toks: list[str], i: int) -> tuple[tuple[dict[str, int], list[HornClause]], int]:
    by_name: dict[str, int] = {}  # in source order
    clauses: list[HornClause] = []
    leaves: dict = {}
    while toks[i]:
        name = toks[i]
        if name in _SYMBOLS:
            raise _expected(toks, i, "a clause name")
        if toks[i + 1] != ":":
            raise _expected(toks, i + 1, "':'")
        clause, end = _formula(toks, i + 2, False, leaves)
        if toks[end] != ".":
            raise _expected(toks, end, "'.'")
        if name in by_name:
            raise _Fail(f"duplicate clause name {name}", i)
        by_name[name] = len(clauses)
        clauses.append(clause)
        i = end + 1
    return (by_name, clauses), i


def parse_program(text: str) -> SourceProgram:
    by_name, clauses = _whole(_clauses, text)
    names = tuple(by_name)
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
    return SourceProgram(program, names, by_name)


def parse_formula(text: str) -> HornClause:
    return _whole(lambda toks, i: _formula(toks, i, True, {}), text)


def parse_atom(text: str) -> Atom:
    return _whole(lambda toks, i: _atom(toks, i, {}), text)


def parse_proof(text: str) -> ProofTerm:
    return _whole(lambda toks, i: walk(i, (toks, Counter()), _proof, shared=frozenset()), text)
