"""The nested JSON derivation, as reports wrote it before the flat node list:
a reference for tests.

Each node is a dict with its `evidence` text and its children's dicts
inline, so a derivation DAG is written as the tree it unfolds to.
`tests/test_cli.py` rebuilds this tree from a report's flat nodes and its
proof, and checks that it equals `derivation_json` of the same derivation.
"""

from __future__ import annotations

from cohorn.proofs import Derivation, format_proof, walk
from cohorn.terms import format_formula


def derivation_json(d: Derivation) -> dict:
    """The nested derivation dict; a shared derivation node comes back as
    the same dict."""

    def node(d: Derivation, ctx: None):
        children = []
        for c in d.children:
            children.append((yield c, None, node))
        return {
            "rule": d.rule.value,
            "formula": format_formula(d.judgement.formula),
            "evidence": format_proof(d.judgement.evidence),
            "entry": d.entry_name,
            "matcher": {v: str(t) for v, t in sorted(d.matcher.items())}
            if d.matcher is not None
            else None,
            "children": children,
        }

    return walk(d, None, node)
