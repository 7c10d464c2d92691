"""Command-line driver: resolve, check, model, certify, verify-soundness.

Exit codes: 0 success (resolve: proved), 1 failed/rejected/no certificate,
2 search exhausted, 3 soundness violation (verify-soundness only), 64 usage
errors (a non-positive --depth, --base-depth or --max-atoms, or a Herbrand
base over --max-atoms, among them), 65 malformed input,
66 unreadable files, 70 internal errors (input nested too deep to process,
or a broken engine or certificate invariant), 74 a closed standard output
(`cohorn ... | head`).
Reports are byte-stable for fixed inputs; timings are printed only on
request because they would break that.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from functools import cache, partial
from typing import Optional, Sequence

# The oracle, `herbrand`, is imported by the three commands that use it, so
# `resolve` and `check` never load it.  They look its functions up as
# `herbrand.<name>` at call time, so a wrapper set on the module is used.
from . import engine
from .proofs import (
    CheckError,
    Derivation,
    Lambda,
    ProofTerm,
    check,
    env_for_program,
    format_proof,
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
EX_IOERR = 74

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


def _positive_int(text: str) -> int:
    """The argparse type of the depth and size bounds."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid positive int value: {text!r}")
    return value


# The flags several commands share.  A parent parser only holds
# declarations, which `_flags` copies into each command's flags.
_COMMON = argparse.ArgumentParser(add_help=False)
_COMMON.add_argument("program", help="program file (.hc)")
_COMMON.add_argument("--json", action="store_true", help="emit a JSON report")
_UNICODE = argparse.ArgumentParser(add_help=False)
_UNICODE.add_argument("--unicode", action="store_true", help="render nu/lambda/=> as unicode")
_ORACLE = argparse.ArgumentParser(add_help=False)
_ORACLE.add_argument(
    "--max-atoms", type=_positive_int, default=DEFAULT_MAX_ATOMS,
    help="refuse a Herbrand base of more atoms or universe terms than this",
)

# Each command's help line and parent parsers, in the order `cohorn -h` lists them.
_SPECS = {
    "resolve": ("search for a proof", [_COMMON, _UNICODE]),
    "check": ("check a proof term", [_COMMON, _UNICODE]),
    "model": ("print a bounded Herbrand model", [_COMMON, _ORACLE]),
    "certify": ("search a greatest-model membership certificate", [_COMMON, _ORACLE]),
    "verify-soundness": (
        "resolve, then validate the result against the matching semantics",
        [_COMMON, _UNICODE, _ORACLE],
    ),
}


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of one `cohorn` call: with `command`, that command's parser
    alone, `cohorn <command>`, which parses the arguments after the command;
    otherwise the full parser, with every command and its flags (help, a
    typo, an option first, no arguments).  Either way a command's flags,
    `-h` among them, are copied from `_flags(command)`, so parses, help
    texts and usage errors agree, and a command's parser declares no flag
    of its own."""
    if command in _SPECS:
        p = _Parser(prog=f"cohorn {command}", parents=[_flags(command)], add_help=False)
        p.set_defaults(command=command)
        return p
    parser = _Parser(prog="cohorn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, _) in _SPECS.items():
        sub.add_parser(name, parents=[_flags(name)], help=help, add_help=False)
    return parser


@cache
def _flags(command: str) -> argparse.ArgumentParser:
    """Every flag of `command`, `-h/--help` first, declared once per process,
    on first use; a call's parser copies the declarations through
    `parents=`.  The copied `Action`s, and the `default=[]` lists of
    `--lemma` and `--const`, are thus shared by every call: argparse's
    append action copies that list before it appends, and no command may
    mutate `args.lemma` or `args.const`.  The help action prints the help
    of the parser that parses, the call's own."""
    return _add_flags(argparse.ArgumentParser(parents=_SPECS[command][1]), command)


def _add_flags(p: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """`p` with the flags of `command` that its parent parsers lack."""
    if command == "resolve":
        p.add_argument("--query", required=True, help="atomic or Horn formula")
        p.add_argument("--mode", required=True, choices=sorted(_MODES))
        p.add_argument("--lemma", action="append", default=[], help="prove and register first (repeatable)")
        p.add_argument("--depth", type=_positive_int, default=8)
        p.add_argument("--auto-lemma", action="store_true", help="propose a lemma by anti-unification on failure")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
        p.add_argument("--trace", action="store_true", help="include the resolution trace")
    elif command == "check":
        p.add_argument("--proof", required=True)
        p.add_argument("--formula", required=True)
        p.add_argument("--lemma", action="append", default=[], help="prove (extended mode) and register first")
        p.add_argument("--depth", type=_positive_int, default=8, help="depth limit for --lemma proofs")
    elif command == "model":
        p.add_argument("--semantics", required=True, choices=["least", "greatest"])
        p.add_argument("--depth", type=_positive_int, required=True)
        p.add_argument("--policy", choices=["opt", "pess"], default="pess")
        p.add_argument("--const", action="append", default=[], help="extra constant for the universe")
    elif command == "certify":
        p.add_argument("--atom", required=True, help="ground atom")
        p.add_argument("--depth", type=_positive_int, default=6)
    else:  # verify-soundness
        p.add_argument("--query", required=True)
        p.add_argument("--mode", required=True, choices=sorted(_MODES))
        p.add_argument("--lemma", action="append", default=[])
        p.add_argument("--depth", type=_positive_int, default=8)
        p.add_argument("--base-depth", type=_positive_int, required=True)
        p.add_argument("--auto-lemma", action="store_true")
    return p


def _load_program(path: str) -> SourceProgram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise FileNotFoundError(str(err)) from err
    return parse_program(text)


def _json_value(v):
    """A report field as JSON: engine values become ASCII strings and dicts."""
    if isinstance(v, ProofTerm):
        return format_proof(v)
    if isinstance(v, HornClause):
        return format_formula(v)
    if isinstance(v, Derivation):
        return _derivation_json(v)
    if isinstance(v, (tuple, engine.Trace)):  # lemma records, trace events
        return [_json_value(x) for x in v]
    if isinstance(v, engine.LemmaRecord):
        return {
            "formula": _json_value(v.formula),
            "proof": _json_value(v.evidence),
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
        print(json.dumps({k: _json_value(v) for k, v in report.items()}, indent=2))
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


def _derivation_lines(d: Derivation, unicode: bool) -> list[str]:
    """The derivation as text: a line per visit of its JSON nodes from node
    0, children two spaces in.  A node met more than once opens its first
    line with `#k= `, k its index, and prints as `#k#` after that.  A line
    deeper than 32 levels keeps the 32-level indent and opens with `[depth] `."""
    nodes = _derivation_json(d)
    shared = Counter(c for node in nodes for c in node["children"])
    lines, fresh, stack = ["derivation:"], 0, [(0, 0)]
    while stack:
        k, depth = stack.pop()
        lead = "  " * (depth + 1) if depth <= 32 else f"{'  ' * 33}[{depth}] "
        if k < fresh:  # nodes are numbered in first-visit order
            lines.append(f"{lead}#{k}#")
            continue
        fresh, node = k + 1, nodes[k]
        label = f"#{k}= {node['rule']}" if shared[k] > 1 else node["rule"]
        if node["matcher"] is not None:
            label += f" [{node['entry']} {format_subst(node['matcher'])}]"
        lines.append(f"{lead}{label} {node['formula']}")
        stack += [(c, depth + 1) for c in reversed(node["children"])]
    return lines


def _lemma_lines(records, unicode: bool) -> list[str]:
    lines = []
    for rec in records:
        status = "registered" if rec.registered else f"NOT registered ({rec.note})"
        proof = f" with proof {format_proof(rec.evidence, unicode)}" if rec.evidence else ""
        lines.append(f"lemma: {format_formula(rec.formula, unicode)}{proof} -- {status}")
    return lines


def _oracle_stats(result) -> dict:
    return {"base_atoms": result.base_atoms, "instances": result.instances, "rounds": result.rounds}


def _derivation_json(root: Derivation) -> list[dict]:
    """The derivation DAG as a list with one node per distinct derivation
    node, in first-visit pre-order, children left to right, so the root is
    node 0; `children` holds indices into the list.  A node's evidence is
    left out: the report's proof, read from the root down through each
    node's `binders` (Lam, Nu, Nu') and its children (the arguments of an
    Lp-m step), gives it.  Only a lemma step keeps its `evidence`, for
    nothing else names the lemma it used."""
    index: dict[int, int] = {}
    order: list[Derivation] = []
    stack = [root]
    while stack:
        d = stack.pop()
        if id(d) not in index:
            index[id(d)] = len(order)
            order.append(d)
            stack.extend(reversed(d.children))
    nodes = []
    for d in order:
        entry = d.entry_name
        node = {"rule": d.rule.value, "formula": format_formula(d.formula)}
        if entry == "lemma":
            node["evidence"] = format_proof(d.evidence)
        node["entry"] = entry
        node["matcher"] = None if d.matcher is None else {v: str(t) for v, t in sorted(d.matcher.items())}
        if d.matcher is None:
            e = d.evidence
            node["binders"] = list(e.binders) if isinstance(e, Lambda) else [e.binder]
        node["children"] = [index[id(c)] for c in d.children]
        nodes.append(node)
    return nodes


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
    limit, sorted, at most `_CUT_GOALS_SHOWN` of them; None otherwise.  A
    search's `Trace` formats its `cut` records alone."""
    if result.outcome is not engine.Outcome.EXHAUSTED:
        return None
    trace = result.trace
    if isinstance(trace, engine.Trace):
        goals = trace.goals("cut")
    else:
        goals = {e.goal for e in trace if e.kind == "cut"}
    return sorted(goals)[:_CUT_GOALS_SHOWN]


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
        result.derivation and partial(_derivation_lines, result.derivation),
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
        result_lines, derivation and partial(_derivation_lines, derivation),
    )
    return _emit(report, rows, args.json, args.unicode)


def _cmd_model(src: SourceProgram, args) -> int:
    from . import herbrand

    # The least model is computed pessimistically whatever --policy says.
    optimistic = args.policy == "opt" and args.semantics == "greatest"
    policy = herbrand.Policy.OPTIMISTIC if optimistic else herbrand.Policy.PESSIMISTIC
    if args.semantics == "least":
        interp = herbrand.lfp(
            src.program, args.depth, extra_constants=args.const, max_atoms=args.max_atoms
        )
    else:
        interp = herbrand.gfp_bounded(
            src.program, args.depth, policy, extra_constants=args.const, max_atoms=args.max_atoms
        )
    atoms = list(interp.atoms.texts())
    note = (
        "bounded-base computation; out-of-base body atoms treated as "
        + ("present (optimistic)" if optimistic else "absent (pessimistic)")
    )
    report = {
        "command": "model",
        "program": args.program,
        "semantics": args.semantics,
        "depth": args.depth,
        "policy": policy.value,
        "note": note,
        "stats": _oracle_stats(interp),
        "atoms": atoms,
        "exit_code": EX_OK,
    }
    rows = (
        "command", "program", "semantics", "depth", "policy", "note", "stats",
        partial(_block, f"atoms ({len(atoms)})", atoms),
    )
    return _emit(report, rows, args.json)


def _cmd_certify(src: SourceProgram, args) -> int:
    from . import herbrand

    atom = parse_atom(args.atom)
    cert = herbrand.certify_gfp(src.program, atom, args.depth, max_atoms=args.max_atoms)
    report = {
        "command": "certify",
        "program": args.program,
        "atom": args.atom,
        "depth": args.depth,
        "found": cert is not None,
        "exact": cert.exact if cert else None,
        "stats": _oracle_stats(cert) if cert else None,
        "support": list(cert.support.texts()) if cert else [],
        "frontier": list(cert.frontier.texts()) if cert else [],
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
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _SPECS else None
    try:
        args = _build_parser(command).parse_args(argv[1:] if command else argv)
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
    try:
        code = cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output (`cohorn ... | head`).  Point it
        # at devnull, so that the interpreter's final flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EX_IOERR
    sys.exit(code)


if __name__ == "__main__":
    main()
