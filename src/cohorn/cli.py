"""Command-line driver: resolve, check, model, certify, verify-soundness.

Exit codes: 0 success (resolve: proved), 1 failed/rejected/no certificate,
2 search exhausted, 3 soundness violation (verify-soundness only), 64 usage
errors (a Herbrand base over --max-atoms among them), 65 malformed input,
66 unreadable files, 70 internal errors (input nested too deep to process,
or a broken engine or certificate invariant).
Reports are byte-stable for fixed inputs; timings are printed only on
request because they would break that.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import AbstractSet, Optional, Sequence

# The oracle, `herbrand`, is imported by the three commands that use it, so
# `resolve` and `check` never load it.  They look its functions up as
# `herbrand.<name>` at call time, so a wrapper set on the module is used.
from . import engine
from .proofs import (
    CheckError,
    Derivation,
    ProofTerm,
    check,
    env_for_program,
    format_derivation,
    format_proof,
    walk,
)
from .syntax import (
    ParseError,
    ProgramLoadError,
    SourceProgram,
    parse_atom,
    parse_formula,
    parse_proof,
    parse_program,
)
from .terms import (
    DEFAULT_MAX_ATOMS,
    BaseTooLargeError,
    CertificateInvariantError,
    HornClause,
    SignatureError,
    format_formula,
    format_subst,
)

EX_OK = 0
EX_REJECTED = 1
EX_EXHAUSTED = 2
EX_UNSOUND = 3
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66
EX_SOFTWARE = 70

_OUTCOME_CODES = {
    engine.Outcome.PROVED: EX_OK,
    engine.Outcome.FAILED: EX_REJECTED,
    engine.Outcome.EXHAUSTED: EX_EXHAUSTED,
}

_MODES = {
    "ind": engine.Mode.INDUCTIVE,
    "coind": engine.Mode.COINDUCTIVE,
    "ext": engine.Mode.EXTENDED,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise _UsageError(message)


# The flags several commands share, declared once.  A parent parser only
# holds declarations, which each command's parser copies, so these are built
# once per process rather than on every call.
_COMMON = argparse.ArgumentParser(add_help=False)
_COMMON.add_argument("program", help="program file (.hc)")
_COMMON.add_argument("--json", action="store_true", help="emit a JSON report")
_UNICODE = argparse.ArgumentParser(add_help=False)
_UNICODE.add_argument("--unicode", action="store_true", help="render nu/lambda/=> as unicode")
_ORACLE = argparse.ArgumentParser(add_help=False)
_ORACLE.add_argument(
    "--max-atoms", type=int, default=DEFAULT_MAX_ATOMS,
    help="refuse a Herbrand base of more atoms or universe terms than this",
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cohorn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", parents=[_COMMON, _UNICODE], help="search for a proof")
    p.add_argument("--query", required=True, help="atomic or Horn formula")
    p.add_argument("--mode", required=True, choices=sorted(_MODES))
    p.add_argument("--lemma", action="append", default=[], help="prove and register first (repeatable)")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--auto-lemma", action="store_true", help="propose a lemma by anti-unification on failure")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.add_argument("--trace", action="store_true", help="include the resolution trace")

    p = sub.add_parser("check", parents=[_COMMON, _UNICODE], help="check a proof term")
    p.add_argument("--proof", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--lemma", action="append", default=[], help="prove (extended mode) and register first")
    p.add_argument("--depth", type=int, default=8, help="depth limit for --lemma proofs")

    p = sub.add_parser("model", parents=[_COMMON, _ORACLE], help="print a bounded Herbrand model")
    p.add_argument("--semantics", required=True, choices=["least", "greatest"])
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--policy", choices=["opt", "pess"], default="pess")
    p.add_argument("--const", action="append", default=[], help="extra constant for the universe")

    p = sub.add_parser("certify", parents=[_COMMON, _ORACLE], help="search a greatest-model membership certificate")
    p.add_argument("--atom", required=True, help="ground atom")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--const", action="append", default=[])

    p = sub.add_parser(
        "verify-soundness",
        parents=[_COMMON, _UNICODE, _ORACLE],
        help="resolve, then validate the result against the matching semantics",
    )
    p.add_argument("--query", required=True)
    p.add_argument("--mode", required=True, choices=sorted(_MODES))
    p.add_argument("--lemma", action="append", default=[])
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--base-depth", type=int, required=True)
    p.add_argument("--auto-lemma", action="store_true")
    return parser


def _load_program(path: str) -> SourceProgram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise FileNotFoundError(str(err)) from err
    return parse_program(text)


def _json_text(value, shared: AbstractSet[int] = frozenset()) -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for str-keyed dicts,
    lists, tuples, strings, numbers, booleans and None.

    One post-order walk on an explicit stack, so nesting has no limit of its
    own.  A container writes its pieces (bracket, newline and indent, then
    key, `": "` and value per item, with a comma between items) into the
    buffer of the container around it, and the whole text is joined once at
    the end.  A container whose id is in `shared` is rendered once per
    nesting level, into a buffer of its own that is joined and kept: the
    stdlib encoder walks a shared derivation as the tree it unfolds to.  So
    each byte is copied at most once per nesting level: once per shared
    container around it, and once by the final join.  Any other container
    met twice is simply rendered twice."""
    if type(value) not in _CONTAINERS or not value:
        return json.dumps(value)
    memo: dict[tuple[int, int], str] = {}
    pads = ["\n", "\n  "]  # pads[level]: a newline and that level's indent
    out: list[str] = []
    # A frame: the buffer its container writes to and the index of its
    # first piece there, the container and its items still to write, its
    # level, and its memo key if it is shared.
    stack = [(out, 0, value, iter(value.items() if type(value) is dict else value), 0, None)]
    while stack:
        buf, start, v, items, level, key = stack[-1]
        is_dict = type(v) is dict
        pad = pads[level + 1]
        for x in items:
            if is_dict:
                buf += (",", pad, encode_basestring_ascii(x[0]), ": ")
                x = x[1]
            else:
                buf += (",", pad)
            t = type(x)
            if t is str:
                buf.append(encode_basestring_ascii(x))
                continue
            if t is int or x is None:
                buf.append("null" if x is None else int.__repr__(x))
                continue
            if t not in _CONTAINERS or not x:
                buf.append(json.dumps(x))
                continue
            k = (id(x), level + 1) if id(x) in shared else None
            if k in memo:
                buf.append(memo[k])
                continue
            into = buf if k is None else []
            stack.append((into, len(into), x, iter(x.items() if t is dict else x), level + 1, k))
            if len(pads) == level + 2:
                pads.append(pad + "  ")
            break
        else:
            stack.pop()
            # The first item's comma becomes the opening bracket.
            buf[start] = "{" if is_dict else "["
            buf += (pads[level], "}" if is_dict else "]")
            if key is not None:
                text = memo[key] = "".join(buf)
                stack[-1][0].append(text)
    return "".join(out)


_CONTAINERS = frozenset((dict, list, tuple))


def _json_value(v, texts: dict, shared: set):
    """A report field as JSON: engine values become ASCII strings and dicts.
    `texts` is the report's proof-text memo (see `format_proof`); the ids of
    the dicts that stand for shared derivation nodes are added to `shared`."""
    if isinstance(v, ProofTerm):
        return format_proof(v, memo=texts)
    if isinstance(v, HornClause):
        return format_formula(v)
    if isinstance(v, Derivation):
        return _derivation_json(v, texts, shared)
    if isinstance(v, tuple):  # lemma records, trace events
        return [_json_value(x, texts, shared) for x in v]
    if isinstance(v, engine.LemmaRecord):
        return {
            "formula": _json_value(v.formula, texts, shared),
            "proof": _json_value(v.evidence, texts, shared),
            "registered": v.registered,
            "note": v.note,
        }
    if isinstance(v, engine.TraceEvent):
        return {"kind": v.kind, "depth": v.depth, "goal": v.goal, "entry": v.entry, "detail": v.detail}
    if isinstance(v, CheckError):
        return {"reason": v.reason.value, "message": str(v), "path": list(v.path)}
    return v


def _text_value(v, unicode: bool) -> str:
    if isinstance(v, ProofTerm):
        return format_proof(v, unicode)
    if isinstance(v, HornClause):
        return format_formula(v, unicode)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6f}"
    if isinstance(v, dict):
        return " ".join(f"{k}={x}" for k, x in v.items())
    if isinstance(v, list):
        return ", ".join(v)
    if isinstance(v, engine.TraceEvent):
        entry = f" {v.entry}" if v.entry else ""
        detail = f" {v.detail}" if v.detail else ""
        return f"[{v.depth}] {v.kind}{entry}: {v.goal}{detail}"
    return str(v)


def _emit(report: dict, rows, as_json: bool, unicode: bool = False) -> int:
    """Print `report` as JSON, or as text row by row, and return its exit
    code.  A row is a report key, or a `(label, key)` pair, and prints
    `label: value` unless the value is missing or None; a callable row takes
    `unicode` and returns the lines of a multi-line block; a false row
    prints nothing."""
    if as_json:
        texts: dict = {}
        shared: set[int] = set()
        print(_json_text({k: _json_value(v, texts, shared) for k, v in report.items()}, shared))
        return report["exit_code"]
    lines = []
    for row in filter(None, rows):
        if callable(row):
            lines.extend(row(unicode))
            continue
        label, key = (row, row) if isinstance(row, str) else row
        if report.get(key) is not None:
            lines.append(f"{label}: {_text_value(report[key], unicode)}")
    print("\n".join(lines))
    return report["exit_code"]


def _block(title: str, items, unicode: bool = False) -> list[str]:
    return [f"{title}:", *(f"  {_text_value(x, unicode)}" for x in items)]


def _derivation_lines(d, unicode: bool) -> list[str]:
    return [] if d is None else ["derivation:", format_derivation(d, indent=1)]


def _lemma_lines(records, unicode: bool) -> list[str]:
    lines = []
    for rec in records:
        status = "registered" if rec.registered else f"NOT registered ({rec.note})"
        proof = f" with proof {format_proof(rec.evidence, unicode)}" if rec.evidence else ""
        lines.append(f"lemma: {format_formula(rec.formula, unicode)}{proof} -- {status}")
    return lines


def _oracle_stats(result) -> dict:
    return {"base_atoms": result.base_atoms, "instances": result.instances, "rounds": result.rounds}


def _derivation_json(d, texts: dict, shared: set) -> dict:
    seen: set[int] = set()

    def node(d, ctx):
        children = []
        for c in d.children:
            child = yield c, None, node
            # A shared derivation node comes back as the same dict.
            if id(child) in seen:
                shared.add(id(child))
            else:
                seen.add(id(child))
            children.append(child)
        return {
            "rule": d.rule.value,
            "formula": format_formula(d.judgement.formula),
            "evidence": format_proof(d.judgement.evidence, memo=texts),
            "entry": d.entry_name,
            "matcher": {v: str(t) for v, t in sorted(d.matcher.items())}
            if d.matcher is not None
            else None,
            "children": children,
        }

    # Every node is kept, so a shared derivation node becomes one shared dict.
    return walk(d, None, node)


def _run_resolve_query(src: SourceProgram, args) -> tuple[engine.Query, engine.SearchResult]:
    query = engine.Query(
        goal=parse_formula(args.query),
        mode=_MODES[args.mode],
        depth_limit=args.depth,
        lemmas=tuple(parse_formula(t) for t in args.lemma),
        auto_lemma=args.auto_lemma,
    )
    return query, engine.resolve(src.program, query, names=src.names)


_CUT_GOALS_SHOWN = 10


def _cut_goals(result: engine.SearchResult) -> Optional[list[str]]:
    """Why an EXHAUSTED search stopped: the distinct goals cut at the depth
    limit, sorted, at most `_CUT_GOALS_SHOWN` of them; None otherwise."""
    if result.outcome is not engine.Outcome.EXHAUSTED:
        return None
    return sorted({e.goal for e in result.trace if e.kind == "cut"})[:_CUT_GOALS_SHOWN]


def _cmd_resolve(src: SourceProgram, args) -> int:
    started = time.perf_counter()
    query, result = _run_resolve_query(src, args)
    elapsed = time.perf_counter() - started
    report = {
        "command": "resolve",
        "program": args.program,
        "query": args.query,
        "mode": query.mode.value,
        "depth": args.depth,
        "outcome": result.outcome.value,
        "proof": result.evidence,
        "lemmas": result.lemmas,
        "auto_lemma": result.auto_lemma,
        "derivation": result.derivation,
    }
    if args.trace:
        report["trace"] = result.trace
    report["cut_goals"] = _cut_goals(result)
    report["exit_code"] = _OUTCOME_CODES[result.outcome]
    if args.timings:
        report["seconds"] = round(elapsed, 6)

    rows = (
        "command", "program", "query", "mode", ("depth limit", "depth"), "outcome",
        partial(_lemma_lines, result.lemmas), ("auto-lemma", "auto_lemma"), "proof",
        partial(_derivation_lines, result.derivation),
        args.trace and partial(_block, "trace", result.trace), ("cut goals", "cut_goals"), "seconds",
    )
    return _emit(report, rows, args.json, args.unicode)


def _cmd_check(src: SourceProgram, args) -> int:
    proof = parse_proof(args.proof)
    formula = parse_formula(args.formula)
    env = env_for_program(src.program, src.names)
    lemmas = []
    for text in args.lemma:
        lf = parse_formula(text)
        q = engine.Query(goal=lf, mode=engine.Mode.EXTENDED, depth_limit=args.depth)
        sub = engine.resolve(src.program, q, names=src.names)
        if sub.outcome is not engine.Outcome.PROVED:
            print(f"error: lemma {text} could not be proved", file=sys.stderr)
            return EX_REJECTED
        try:
            # resolve re-checked the proof against the axioms; the earlier
            # lemmas in `env` cannot invalidate it.
            env = engine.add_checked_lemma(env, sub.evidence, lf, engine.Mode.EXTENDED)
        except engine.RegistrationError as err:
            print(f"error: lemma {text} could not be registered ({err.code})", file=sys.stderr)
            return EX_REJECTED
        lemmas.append(engine.LemmaRecord(lf, sub.evidence, registered=True))
    try:
        derivation = check(env, proof, formula)
        rejection = None
    except CheckError as err:
        derivation = None
        rejection = err
    report = {
        "command": "check",
        "program": args.program,
        "proof": args.proof,
        "formula": args.formula,
        "valid": rejection is None,
        "rejection": rejection,
        "derivation": derivation,
        "exit_code": EX_OK if rejection is None else EX_REJECTED,
    }

    def result_lines(unicode: bool) -> list[str]:
        if rejection is None:
            return ["result: valid"]
        return [f"result: rejected ({rejection.reason.value})", f"reason: {rejection}"]

    rows = (
        "command", "program", "formula", "proof", partial(_lemma_lines, lemmas),
        result_lines, partial(_derivation_lines, derivation),
    )
    return _emit(report, rows, args.json, args.unicode)


def _cmd_model(src: SourceProgram, args) -> int:
    from . import herbrand

    policy = herbrand.Policy.OPTIMISTIC if args.policy == "opt" else herbrand.Policy.PESSIMISTIC
    if args.semantics == "least":
        interp = herbrand.lfp(
            src.program, args.depth, extra_constants=args.const, max_atoms=args.max_atoms
        )
    else:
        interp = herbrand.gfp_bounded(
            src.program, args.depth, policy, extra_constants=args.const, max_atoms=args.max_atoms
        )
    atoms = [str(a) for a in interp.sorted_atoms()]
    note = (
        "bounded-base computation; out-of-base body atoms treated as "
        + ("present (optimistic)" if policy is herbrand.Policy.OPTIMISTIC else "absent (pessimistic)")
    )
    report = {
        "command": "model",
        "program": args.program,
        "semantics": args.semantics,
        "depth": args.depth,
        "policy": policy.value if args.semantics == "greatest" else "pessimistic",
        "converged": interp.converged,
        "note": note,
        "stats": _oracle_stats(interp),
        "atoms": atoms,
        "exit_code": EX_OK,
    }
    rows = (
        "command", "program", "semantics", "depth", "policy", "note", "converged", "stats",
        partial(_block, f"atoms ({len(atoms)})", atoms),
    )
    return _emit(report, rows, args.json)


def _cmd_certify(src: SourceProgram, args) -> int:
    from . import herbrand

    atom = parse_atom(args.atom)
    cert = herbrand.certify_gfp(
        src.program, atom, args.depth, extra_constants=args.const, max_atoms=args.max_atoms
    )
    report = {
        "command": "certify",
        "program": args.program,
        "atom": args.atom,
        "depth": args.depth,
        "found": cert is not None,
        "exact": cert.exact if cert else None,
        "stats": _oracle_stats(cert) if cert else None,
        "support": [str(a) for a in cert.sorted_support()] if cert else [],
        "frontier": [str(a) for a in cert.sorted_frontier()] if cert else [],
        "exit_code": EX_OK if cert else EX_REJECTED,
    }

    def certificate_lines(unicode: bool) -> list[str]:
        if cert is None:
            return ["result: no certificate within bound"]
        kind = "exact post-fixed point" if cert.exact else "optimistic (leans on out-of-base atoms)"
        lines = [f"result: certificate found ({kind})", f"stats: {_text_value(report['stats'], unicode)}"]
        lines += _block(f"support ({len(cert.support)})", report["support"])
        if cert.frontier:
            title = f"frontier ({len(cert.frontier)}), assumed present beyond the bound"
            lines += _block(title, report["frontier"])
        return lines

    rows = ("command", "program", "atom", "depth", certificate_lines)
    return _emit(report, rows, args.json)


def _cmd_verify_soundness(src: SourceProgram, args) -> int:
    from . import herbrand

    query, result = _run_resolve_query(src, args)
    semantics = (
        herbrand.Semantics.IND
        if query.mode is engine.Mode.INDUCTIVE
        else herbrand.Semantics.COIND
    )
    verdict = None
    violation = False
    if result.outcome is engine.Outcome.PROVED:
        program = src.program
        for rec in result.lemmas:
            if rec.registered:
                program = program.extended(rec.formula)
        verdict = herbrand.valid(
            program, query.goal, semantics, args.base_depth, max_atoms=args.max_atoms
        )
        violation = verdict.status is herbrand.Verdict.INVALID
    report = {
        "command": "verify-soundness",
        "program": args.program,
        "query": args.query,
        "mode": query.mode.value,
        "depth": args.depth,
        "base_depth": args.base_depth,
        "outcome": result.outcome.value,
        "proof": result.evidence,
        "semantics": semantics.value,
        "verdict": verdict.status.value if verdict else None,
        "counterexample": format_subst(verdict.counterexample)
        if verdict and verdict.counterexample is not None
        else None,
        "soundness_violation": violation,
        "exit_code": EX_UNSOUND if violation else EX_OK,
    }

    def verdict_lines(unicode: bool) -> list[str]:
        lines = []
        if verdict is not None:
            lines.append(f"oracle ({semantics.value}, base depth {args.base_depth}): {verdict.status.value}")
            if verdict.note:
                lines.append(f"note: {verdict.note}")
            if verdict.status is herbrand.Verdict.UNKNOWN:
                lines.append("warning: bound too small for a verdict; not counted as a violation")
        if violation:
            lines.append("SOUNDNESS VIOLATION: proved but invalid (engine bug)")
        else:
            lines.append("soundness: ok")
        return lines

    rows = ("command", "program", "query", "mode", "outcome", "proof", verdict_lines)
    return _emit(report, rows, args.json, args.unicode)


_COMMANDS = {
    "resolve": _cmd_resolve,
    "check": _cmd_check,
    "model": _cmd_model,
    "certify": _cmd_certify,
    "verify-soundness": _cmd_verify_soundness,
}


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EX_USAGE
    try:
        return _COMMANDS[args.command](_load_program(args.program), args)
    except BaseTooLargeError as err:
        print(f"usage error: {err}; raise --max-atoms or lower the depth", file=sys.stderr)
        return EX_USAGE
    except FileNotFoundError as err:
        print(f"file error: {err}", file=sys.stderr)
        return EX_NOINPUT
    except (ParseError, ProgramLoadError, SignatureError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EX_DATA
    except (RecursionError, engine.EngineInvariantError, CertificateInvariantError) as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EX_SOFTWARE


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
