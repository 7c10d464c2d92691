"""Per-layer tracing for the cohorn benchmark, from outside the program.

The layers are cohorn's modules.  `Tracer.install` replaces the module-level
names through which one layer calls another with wrappers that record a span
(name, start, end, parent, call id) or bump a counter, and `uninstall` puts
the originals back.  Results the program returns (search traces, proof terms,
derivations, Herbrand bases) are kept and measured after the call ends, so
that walking them is not charged to any layer.

The wrappers are installed only in the traced run; the end-to-end numbers
come from a run without them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Span name -> the module (layer) its self time is charged to.
LAYER_OF = {
    "cli.call": "cli",
    "syntax.load": "syntax",
    "terms.validate": "terms",
    "engine.resolve": "engine",
    "engine.register": "engine",
    "proofs.check": "proofs",
    "herbrand.base": "herbrand",
    "herbrand.oracle": "herbrand",
}

# (module, name, span or counter name).  Every name here is looked up by the
# calling module at call time, so replacing the attribute reroutes the call.
SPANS = (
    ("cohorn.cli", "parse_program", "syntax.load"),
    ("cohorn.syntax", "Program", "terms.validate"),
    ("cohorn.engine", "resolve", "engine.resolve"),
    ("cohorn.engine", "register_lemma", "engine.register"),
    ("cohorn.engine", "check", "proofs.check"),
    ("cohorn.cli", "check", "proofs.check"),
    ("cohorn.herbrand", "herbrand_base", "herbrand.base"),
    ("cohorn.herbrand", "lfp", "herbrand.oracle"),
    ("cohorn.herbrand", "gfp_bounded", "herbrand.oracle"),
    ("cohorn.herbrand", "certify_gfp", "herbrand.oracle"),
    ("cohorn.herbrand", "valid", "herbrand.oracle"),
)
COUNTERS = (
    ("cohorn.terms", "unifiable", "terms.unifiable"),
    ("cohorn.engine", "match", "engine.match"),
    ("cohorn.proofs", "match", "proofs.match"),
    ("cohorn.engine", "free_proof_vars", "engine.free_proof_vars"),
    ("cohorn.herbrand", "apply_atom", "herbrand.apply_atom"),
)


def _tree_size(node: Any, children: Callable[[Any], tuple]) -> int:
    size, stack = 0, [node]
    while stack:
        n = stack.pop()
        size += 1
        stack.extend(children(n))
    return size


def _proof_children(term: Any) -> tuple:
    # Proof terms are frozen dataclasses whose sub-terms are the fields that
    # are themselves dataclasses (Apply.fun/arg, Lambda.body, Nu.body).
    return tuple(getattr(term, f.name) for f in fields(term)
                 if is_dataclass(getattr(term, f.name)))


def proof_size(term: Any) -> int:
    return _tree_size(term, _proof_children)


def derivation_size(d: Any) -> int:
    return _tree_size(d, lambda n: n.children)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, call id]; parents precede children.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._returned: list[tuple[str, Any]] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.call_id = 0
        self.recording = True  # False while the benchmark checks answers

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, returned = self.spans, self._stack, self._returned

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            returned.append((name, result))
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- one CLI call ------------------------------------------------------------

    def call(self, fn: Callable[[], int]) -> tuple[int, float, float]:
        """Run one CLI call under a root span; returns (exit code, start, end)."""
        self.call_id += 1
        record = ["cli.call", 0.0, 0.0, -1, self.call_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = perf_counter()
        try:
            code = fn()
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        return code, record[1], record[2]

    def collect_returned(self) -> None:
        """Measure what the layers returned during the last call."""
        counts = self.counts
        for name, result in self._returned:
            if name == "engine.resolve":
                kinds = Counter(event.kind for event in result.trace)
                counts["engine.nodes"] += kinds["try"]
                counts["engine.cuts"] += kinds["cut"]
                counts["engine.trace_events"] += len(result.trace)
                counts["engine.auto_lemma_retries"] += result.auto_lemma is not None
                if result.evidence is not None:
                    counts["engine.proof_size"] += proof_size(result.evidence)
            elif name == "proofs.check":
                counts["proofs.derivation_nodes"] += derivation_size(result)
            elif name == "herbrand.base":
                counts["herbrand.base_atoms"] += len(result.atoms)
        self._returned.clear()

    # -- summaries ---------------------------------------------------------------

    def times(self) -> dict[str, float]:
        """Total seconds by span name (inclusive) and by `self.<span>` and
        `self.<layer>` (the span's time minus its child spans')."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - child_time[k]
            if not _nested_in_same(spans, k, name):
                out[name] += end - start
            out["self." + name] += own
            out["self." + LAYER_OF[name]] += own
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")


def _nested_in_same(spans: list[list], k: int, name: str) -> bool:
    """True when span k lies inside another span of the same name.

    Such time is already inside the outer span's inclusive total.
    """
    parent = spans[k][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
