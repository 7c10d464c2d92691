"""Command-line driver: resolve, check, model, certify, verify-soundness.

Exit codes: 0 success (resolve: proved), 1 failed/rejected/no certificate,
2 search exhausted, 3 soundness violation (verify-soundness only), 64 usage
errors, 65 malformed input, 66 unreadable files, 70 internal errors (input
nested too deep to process, or a broken engine or certificate invariant).
Reports are byte-stable for fixed inputs; timings are printed only on
request because they would break that.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from . import engine, herbrand
from .proofs import (
    CheckError,
    check,
    env_for_program,
    format_derivation,
    format_proof,
    shared_nodes,
)
from .syntax import (
    ParseError,
    ProgramLoadError,
    SourceProgram,
    format_formula_unicode,
    parse_atom,
    parse_formula,
    parse_proof,
    parse_program,
)
from .terms import SignatureError, format_formula, format_subst

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


def _build_parser() -> _Parser:
    parser = _Parser(prog="cohorn", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("program", help="program file (.hc)")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--unicode", action="store_true", help="render nu/lambda/=> as unicode")
    common.add_argument("--timings", action="store_true", help="include wall-clock timings")
    common.add_argument("--trace", action="store_true", help="include the resolution trace")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", parents=[common], help="search for a proof")
    p.add_argument("--query", required=True, help="atomic or Horn formula")
    p.add_argument("--mode", required=True, choices=sorted(_MODES))
    p.add_argument("--lemma", action="append", default=[], help="prove and register first (repeatable)")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--auto-lemma", action="store_true", help="propose a lemma by anti-unification on failure")

    p = sub.add_parser("check", parents=[common], help="check a proof term")
    p.add_argument("--proof", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--lemma", action="append", default=[], help="prove (extended mode) and register first")
    p.add_argument("--depth", type=int, default=8, help="depth limit for --lemma proofs")

    p = sub.add_parser("model", parents=[common], help="print a bounded Herbrand model")
    p.add_argument("--semantics", required=True, choices=["least", "greatest"])
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--policy", choices=["opt", "pess"], default="pess")
    p.add_argument("--const", action="append", default=[], help="extra constant for the universe")

    p = sub.add_parser("certify", parents=[common], help="search a greatest-model membership certificate")
    p.add_argument("--atom", required=True, help="ground atom")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--const", action="append", default=[])

    p = sub.add_parser(
        "verify-soundness",
        parents=[common],
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


def _json_text(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for str-keyed dicts,
    lists, tuples, strings, numbers, booleans and None.  A dict or list met
    again at the same nesting level is rendered once: the stdlib encoder
    walks a shared derivation as the tree it unfolds to."""
    shared = shared_nodes(value, _json_children)
    memo: dict[tuple[int, int], str] = {}

    def text(v, level: int) -> str:
        if isinstance(v, str):
            return encode_basestring_ascii(v)
        if not isinstance(v, (dict, list, tuple)):
            return json.dumps(v)
        if not v:
            return "{}" if isinstance(v, dict) else "[]"
        if id(v) not in shared:
            return container(v, level)
        key = (id(v), level)
        if key not in memo:
            memo[key] = container(v, level)
        return memo[key]

    def container(v, level: int) -> str:
        # Strings, the common leaves, skip the call to `text`.
        if isinstance(v, dict):
            items = [
                f"{encode_basestring_ascii(k)}: "
                + (encode_basestring_ascii(x) if type(x) is str else text(x, level + 1))
                for k, x in v.items()
            ]
            ends = "{}"
        else:
            items = [
                encode_basestring_ascii(x) if type(x) is str else text(x, level + 1) for x in v
            ]
            ends = "[]"
        pad = "\n" + "  " * (level + 1)
        return ends[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + ends[1]

    return text(value, 0)


_CONTAINERS = dict.fromkeys((dict, list, tuple), True)


def _json_children(v):
    """The dicts and lists inside a JSON value: only those can be shared.
    Iterates in C, because reports hold long lists of strings."""
    if type(v) is dict:
        v = v.values()
    elif type(v) not in _CONTAINERS:
        return ()
    return compress(v, map(_CONTAINERS.get, map(type, v)))


def _emit(report: dict, args, lines: list[str]) -> None:
    if args.json:
        print(_json_text(report))
    else:
        print("\n".join(lines))


def _oracle_stats(result) -> dict:
    return {"base_atoms": result.base_atoms, "instances": result.instances, "rounds": result.rounds}


def _oracle_stats_line(stats: dict) -> str:
    return "stats: " + " ".join(f"{k}={v}" for k, v in stats.items())


def _proof_str(term, args) -> str:
    return format_proof(term, unicode=args.unicode)


def _formula_str(clause, args) -> str:
    return format_formula_unicode(clause) if args.unicode else format_formula(clause)


def _derivation_json(d) -> dict:
    memo: dict[int, dict] = {}

    def node(d) -> dict:
        # A shared derivation node becomes one shared dict.
        if id(d) not in memo:
            memo[id(d)] = {
                "rule": d.rule.value,
                "formula": format_formula(d.judgement.formula),
                "evidence": format_proof(d.judgement.evidence),
                "entry": d.entry_name,
                "matcher": {v: str(t) for v, t in sorted(d.matcher.items())}
                if d.matcher is not None
                else None,
                "children": [node(c) for c in d.children],
            }
        return memo[id(d)]

    return node(d)


def _trace_json(trace) -> list[dict]:
    return [
        {"kind": t.kind, "depth": t.depth, "goal": t.goal, "entry": t.entry, "detail": t.detail}
        for t in trace
    ]


def _trace_lines(trace) -> list[str]:
    out = ["trace:"]
    for t in trace:
        entry = f" {t.entry}" if t.entry else ""
        detail = f" {t.detail}" if t.detail else ""
        out.append(f"  [{t.depth}] {t.kind}{entry}: {t.goal}{detail}")
    return out


def _lemma_records_json(result) -> list[dict]:
    return [
        {
            "formula": format_formula(r.formula),
            "proof": format_proof(r.evidence) if r.evidence is not None else None,
            "registered": r.registered,
            "note": r.note,
        }
        for r in result.lemmas
    ]


def _run_resolve_query(src: SourceProgram, args) -> engine.SearchResult:
    goal = parse_formula(args.query)
    lemmas = tuple(parse_formula(t) for t in args.lemma)
    query = engine.Query(
        goal=goal,
        mode=_MODES[args.mode],
        depth_limit=args.depth,
        lemmas=lemmas,
        auto_lemma=getattr(args, "auto_lemma", False),
    )
    return engine.resolve(src.program, query, names=src.names)


def _cmd_resolve(src: SourceProgram, args) -> int:
    started = time.perf_counter()
    result = _run_resolve_query(src, args)
    elapsed = time.perf_counter() - started
    code = _OUTCOME_CODES[result.outcome]
    report = {
        "command": "resolve",
        "program": args.program,
        "query": args.query,
        "mode": _MODES[args.mode].value,
        "depth": args.depth,
        "outcome": result.outcome.value,
        "proof": format_proof(result.evidence) if result.evidence else None,
        "lemmas": _lemma_records_json(result),
        "auto_lemma": format_formula(result.auto_lemma) if result.auto_lemma else None,
        "derivation": _derivation_json(result.derivation) if result.derivation else None,
        "trace": _trace_json(result.trace),
        "exit_code": code,
    }
    lines = [
        "command: resolve",
        f"program: {args.program}",
        f"query: {args.query}",
        f"mode: {_MODES[args.mode].value}",
        f"depth limit: {args.depth}",
        f"outcome: {result.outcome.value}",
    ]
    for rec in result.lemmas:
        status = "registered" if rec.registered else f"NOT registered ({rec.note})"
        proof = f" with proof {_proof_str(rec.evidence, args)}" if rec.evidence else ""
        lines.append(f"lemma: {_formula_str(rec.formula, args)}{proof} -- {status}")
    if result.auto_lemma is not None:
        lines.append(f"auto-lemma: {_formula_str(result.auto_lemma, args)}")
    if result.evidence is not None:
        lines.append(f"proof: {_proof_str(result.evidence, args)}")
        lines.append("derivation:")
        lines.append(format_derivation(result.derivation, indent=1))
    if args.trace:
        lines.extend(_trace_lines(result.trace))
    if args.timings:
        report["seconds"] = round(elapsed, 6)
        lines.append(f"seconds: {elapsed:.6f}")
    _emit(report, args, lines)
    return code


def _cmd_check(src: SourceProgram, args) -> int:
    proof = parse_proof(args.proof)
    formula = parse_formula(args.formula)
    env = env_for_program(src.program, src.names)
    lemma_reports = []
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
        lemma_reports.append((lf, sub.evidence))
    try:
        derivation = check(env, proof, formula)
        rejection = None
        code = EX_OK
    except CheckError as err:
        derivation = None
        rejection = err
        code = EX_REJECTED
    report = {
        "command": "check",
        "program": args.program,
        "proof": args.proof,
        "formula": args.formula,
        "valid": rejection is None,
        "rejection": None
        if rejection is None
        else {
            "reason": rejection.reason.value,
            "message": str(rejection),
            "path": list(rejection.path),
        },
        "derivation": _derivation_json(derivation) if derivation else None,
        "exit_code": code,
    }
    lines = [
        "command: check",
        f"program: {args.program}",
        f"formula: {args.formula}",
        f"proof: {args.proof}",
    ]
    for lf, ev in lemma_reports:
        lines.append(f"lemma: {_formula_str(lf, args)} with proof {_proof_str(ev, args)} -- registered")
    if rejection is None:
        lines.append("result: valid")
        lines.append("derivation:")
        lines.append(format_derivation(derivation, indent=1))
    else:
        lines.append(f"result: rejected ({rejection.reason.value})")
        lines.append(f"reason: {rejection}")
    _emit(report, args, lines)
    return code


def _cmd_model(src: SourceProgram, args) -> int:
    policy = herbrand.Policy.OPTIMISTIC if args.policy == "opt" else herbrand.Policy.PESSIMISTIC
    if args.semantics == "least":
        interp = herbrand.lfp(src.program, args.depth, extra_constants=args.const)
    else:
        interp = herbrand.gfp_bounded(
            src.program, args.depth, policy, extra_constants=args.const
        )
    atoms = [str(a) for a in interp.sorted_atoms()]
    note = (
        "bounded-base computation; out-of-base body atoms treated as "
        + ("present (optimistic)" if policy is herbrand.Policy.OPTIMISTIC else "absent (pessimistic)")
    )
    stats = _oracle_stats(interp)
    report = {
        "command": "model",
        "program": args.program,
        "semantics": args.semantics,
        "depth": args.depth,
        "policy": policy.value if args.semantics == "greatest" else "pessimistic",
        "converged": interp.converged,
        "note": note,
        "stats": stats,
        "atoms": atoms,
        "exit_code": EX_OK,
    }
    lines = [
        "command: model",
        f"program: {args.program}",
        f"semantics: {args.semantics}",
        f"depth: {args.depth}",
        f"policy: {report['policy']}",
        f"note: {note}",
        f"converged: {str(interp.converged).lower()}",
        _oracle_stats_line(stats),
        f"atoms ({len(atoms)}):",
    ]
    lines.extend(f"  {a}" for a in atoms)
    _emit(report, args, lines)
    return EX_OK


def _cmd_certify(src: SourceProgram, args) -> int:
    atom = parse_atom(args.atom)
    cert = herbrand.certify_gfp(
        src.program, atom, args.depth, extra_constants=args.const
    )
    found = cert is not None
    code = EX_OK if found else EX_REJECTED
    stats = _oracle_stats(cert) if cert else None
    report = {
        "command": "certify",
        "program": args.program,
        "atom": args.atom,
        "depth": args.depth,
        "found": found,
        "exact": cert.exact if cert else None,
        "stats": stats,
        "support": [str(a) for a in cert.sorted_support()] if cert else [],
        "frontier": [str(a) for a in cert.sorted_frontier()] if cert else [],
        "exit_code": code,
    }
    lines = [
        "command: certify",
        f"program: {args.program}",
        f"atom: {args.atom}",
        f"depth: {args.depth}",
    ]
    if cert is None:
        lines.append("result: no certificate within bound")
    else:
        kind = "exact post-fixed point" if cert.exact else "optimistic (leans on out-of-base atoms)"
        lines.append(f"result: certificate found ({kind})")
        lines.append(_oracle_stats_line(stats))
        lines.append(f"support ({len(cert.support)}):")
        lines.extend(f"  {a}" for a in cert.sorted_support())
        if cert.frontier:
            lines.append(f"frontier ({len(cert.frontier)}), assumed present beyond the bound:")
            lines.extend(f"  {a}" for a in cert.sorted_frontier())
    _emit(report, args, lines)
    return code


def _cmd_verify_soundness(src: SourceProgram, args) -> int:
    result = _run_resolve_query(src, args)
    goal = parse_formula(args.query)
    semantics = (
        herbrand.Semantics.IND
        if _MODES[args.mode] is engine.Mode.INDUCTIVE
        else herbrand.Semantics.COIND
    )
    verdict = None
    violation = False
    if result.outcome is engine.Outcome.PROVED:
        program = src.program
        for rec in result.lemmas:
            if rec.registered:
                program = program.extended(rec.formula)
        verdict = herbrand.valid(program, goal, semantics, args.base_depth)
        violation = verdict.status is herbrand.Verdict.INVALID
    code = EX_UNSOUND if violation else EX_OK
    report = {
        "command": "verify-soundness",
        "program": args.program,
        "query": args.query,
        "mode": _MODES[args.mode].value,
        "depth": args.depth,
        "base_depth": args.base_depth,
        "outcome": result.outcome.value,
        "proof": format_proof(result.evidence) if result.evidence else None,
        "semantics": semantics.value,
        "verdict": verdict.status.value if verdict else None,
        "counterexample": format_subst(verdict.counterexample)
        if verdict and verdict.counterexample is not None
        else None,
        "soundness_violation": violation,
        "exit_code": code,
    }
    lines = [
        "command: verify-soundness",
        f"program: {args.program}",
        f"query: {args.query}",
        f"mode: {_MODES[args.mode].value}",
        f"outcome: {result.outcome.value}",
    ]
    if result.evidence is not None:
        lines.append(f"proof: {_proof_str(result.evidence, args)}")
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
    _emit(report, args, lines)
    return code


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
    except FileNotFoundError as err:
        print(f"file error: {err}", file=sys.stderr)
        return EX_NOINPUT
    except (ParseError, ProgramLoadError, SignatureError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EX_DATA
    except (RecursionError, engine.EngineInvariantError, herbrand.CertificateInvariantError) as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EX_SOFTWARE


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
