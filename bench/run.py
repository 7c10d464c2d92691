"""The cohorn benchmark: CLI calls in a closed loop, checked against known answers.

    python3 bench/run.py --workload diamond --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports cohorn from ``src/``.  Each
workload runs in this one process as a closed loop with one client: the next
call starts when the previous one has returned.  A call is one in-process
``cohorn.cli.cli(argv)`` with standard output captured, so start-up is left
out of the call; importing cohorn is counted in ``setup_s`` instead.  After
each call, outside the timed region, its exit code and report are checked
against the known answer.

Time metrics are given in nominal seconds: each call's wall time is scaled
by the machine speed measured around it with a fixed reference routine (see
`Speed`), because on a shared machine the same work can take twice as long
from one minute to the next.

The calls of a workload form a pass; the loop runs whole passes, each in a
fresh order drawn from the seed, until the time is used up.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, which holds the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  The traced run spends half its
time untraced and half with the boundary wrappers of ``tracer.py``
installed, and writes its spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT = "bench/out"  # relative to ROOT, so reports print the same paths anywhere
SETUP_REPEATS = 11
MAX_FAILURES_SHOWN = 5

# Time metrics are rescaled to a nominal machine speed: the speed at which
# `reference_work` takes REFERENCE_S.  It is sampled every CALIBRATE_EVERY_S
# between calls, and a call is rescaled by the mean of the samples within
# SPEED_WINDOW_S of it.
REFERENCE_S = 0.0012
CALIBRATE_EVERY_S = 0.1
SPEED_WINDOW_S = 0.5

# Per-layer counts, summed over one pass; they repeat exactly from run to run.
# NOTES.md maps each per-layer metric to the end-to-end metric it should move.
COUNTS = {
    "terms.unifiable_calls": "terms.unifiable",
    "engine.nodes": "engine.nodes",
    "engine.cuts": "engine.cuts",
    "engine.trace_events": "engine.trace_events",
    "engine.free_proof_vars_calls": "engine.free_proof_vars",
    "engine.proof_size": "engine.proof_size",
    "engine.register_calls": "engine.register",
    "engine.auto_lemma_retries": "engine.auto_lemma_retries",
    "proofs.check_calls": "proofs.check",
    "proofs.derivation_nodes": "proofs.derivation_nodes",
    "herbrand.base_atoms": "herbrand.base_atoms",
    "herbrand.apply_atom_calls": "herbrand.apply_atom",
}

# Mean seconds per call spent in a span (inclusive) or a layer (self time).
TIMES = {
    "syntax.load_s": "syntax.load",
    "syntax.self_s": "self.syntax",
    "terms.validate_s": "terms.validate",
    "engine.resolve_s": "engine.resolve",
    "engine.search_s": "self.engine.resolve",
    "engine.register_s": "engine.register",
    "engine.self_s": "self.engine",
    "proofs.check_s": "proofs.check",
    "herbrand.base_s": "herbrand.base",
    "herbrand.oracle_s": "herbrand.oracle",
    "herbrand.self_s": "self.herbrand",
    "cli.self_s": "self.cli",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def check_checkout() -> None:
    """Refuse to run without this checkout's cohorn sources and corpus."""
    src = ROOT / "src"
    if not (src / "cohorn" / "cli.py").is_file():
        raise BenchError(f"no cohorn sources under {src}")
    if not (ROOT / "programs").is_dir():
        raise BenchError(f"no corpus directory {ROOT / 'programs'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def import_cli() -> Callable:
    """Import cohorn afresh from this checkout's src/ and return its CLI entry.

    Earlier imports are dropped first, so every call runs cohorn's module
    code again, as a new `cohorn` process would.
    """
    check_checkout()
    for name in [n for n in sys.modules if n == "cohorn" or n.startswith("cohorn.")]:
        del sys.modules[name]
    cli = importlib.import_module("cohorn.cli")
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "cohorn":
        raise BenchError(f"imported cohorn from {cli.__file__}, not {ROOT / 'src'}")
    return cli.cli


class _Node:
    __slots__ = ("label", "kids")

    def __init__(self, label: str, kids: tuple):
        self.label = label
        self.kids = kids


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(f"c{i % 7}", ())
    return _Node(f"f{i % 5}", (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


def _labels(node: _Node, out: list[str]) -> list[str]:
    out.append(node.label)
    for kid in node.kids:
        _labels(kid, out)
    return out


def reference_work() -> int:
    """A fixed amount of interpreter work shaped like cohorn's own: small
    objects built and walked recursively, tuples hashed into dicts, strings
    joined."""
    seen: dict = {}
    total = 0
    for r in range(12):
        labels = _labels(_tree(6, r), [])
        seen[tuple(labels)] = r
        total += len(",".join(labels))
        index = {(label, j % 9): j for j, label in enumerate(labels)}
        total += sum(1 for key in index if key[1] == 3)
    return total + len(seen)


class Speed:
    """The machine's speed over time, from timed runs of `reference_work`.

    On a shared machine the same work can take twice as long from one
    minute to the next.  Scaling each call's time by the speed measured
    around it removes that drift from the time metrics.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        gc.disable()  # a collection of the program's garbage is not machine speed
        try:
            start = perf_counter()
            reference_work()
            end = perf_counter()
        finally:
            gc.enable()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds measured in [start, end] into nominal seconds."""
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        # The mean, not the median: a long call lives through the fast and
        # the slow moments of its window alike.
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi] or self.durations)

    def nominal(self) -> float:
        """The machine's median speed over the run, as a multiple of nominal."""
        return REFERENCE_S / statistics.median(self.durations)


@dataclass
class Run:
    intervals: list[tuple[float, float]] = field(default_factory=list)  # timed calls
    report_bytes: list[int] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    passes: int = 0

    def wall(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def latencies(self, speed: Speed) -> list[float]:
        """Call times in nominal seconds."""
        return [(end - start) * speed.scale(start, end) for start, end in self.intervals]


class Bench:
    def __init__(self, cli: Callable, workload: workloads.Workload, directory: str,
                 seed: int, speed: Speed):
        self.cli = cli
        self.workload = workload
        self.directory = directory
        self.seed = seed
        self.speed = speed
        self.tracer: Optional[Tracer] = None
        self.recheck = workloads.Recheck(self.untimed, directory)

    def invoke(self, argv: list[str]) -> tuple[int, str, float, float]:
        """One CLI call: exit code, standard output, start and end time."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer is not None:
                code, start, end = self.tracer.call(lambda: self.cli(argv))
            else:
                start = perf_counter()
                code = self.cli(argv)
                end = perf_counter()
        return code, out.getvalue(), start, end

    def untimed(self, argv: list[str]) -> tuple[int, str]:
        """A call made only to check an answer; the tracer does not see it.

        It runs while `one_pass` has the tracer's recording switched off.
        """
        tracer, self.tracer = self.tracer, None
        try:
            code, out, _, _ = self.invoke(argv)
        finally:
            self.tracer = tracer
        return code, out

    def one_pass(self, run: Run) -> None:
        calls = list(self.workload.calls)
        random.Random(self.seed * 7919 + run.passes).shuffle(calls)
        for call in calls:
            self.speed.sample_if_due()
            run.attempted += 1
            try:
                code, out, start, end = self.invoke(call.argv(self.directory))
            except Exception as err:  # a crash is a failed call, not a failed run
                run.failures.append(f"{call.argv(self.directory)}: raised {err!r}")
                continue
            if self.tracer is not None:
                self.tracer.collect_returned()
                self.tracer.recording = False
            try:
                problem = call.check(code, out, self.recheck)
            except Exception as err:
                problem = f"unreadable report ({err!r})"
            finally:
                if self.tracer is not None:
                    self.tracer.recording = True
            run.intervals.append((start, end))
            run.report_bytes.append(len(out.encode("utf-8")))
            if problem is not None:
                run.failures.append(f"{call.argv(self.directory)}: {problem}")
        self.speed.sample()
        run.passes += 1

    def measure(self, seconds: float, after_pass: Callable[[], None] = lambda: None) -> Run:
        """Whole passes, until one more would end over half a pass past `seconds`."""
        run = Run()
        start = perf_counter()
        while True:
            self.one_pass(run)
            after_pass()
            elapsed = perf_counter() - start
            if elapsed + elapsed / run.passes / 2 >= seconds:
                return run


def setup(name: str, seed: int, small: bool, directory: str, speed: Speed):
    """Import, program generation and warm-up, several times.

    Returns the CLI entry point, the workload and the median set-up time in
    nominal seconds.
    """
    check_checkout()
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # frees the module copies of earlier repeats, untimed
        speed.sample()
        start = perf_counter()
        cli = import_cli()
        workload = workloads.build(name, seed, ROOT / "programs", small)
        shutil.rmtree(directory, ignore_errors=True)
        workload.write(Path(directory))
        bench = Bench(cli, workload, directory, seed, speed)
        for call in workload.warmup():
            try:
                bench.invoke(call.argv(directory))
            except Exception:  # counted when the same call runs in the loop
                pass
        end = perf_counter()
        speed.sample()
        times.append((end - start) * speed.scale(start, end))
    gc.collect()
    return cli, workload, statistics.median(times)


def percentile_90(values: list[float]) -> float:
    beyond = len(values) - int(0.9 * len(values))
    if beyond < 10:
        print(f"warning: only {beyond} calls beyond the 90th percentile", file=sys.stderr)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, speed: Speed, setup_s: float) -> dict:
    attempted = run.attempted
    latencies = run.latencies(speed)
    return {
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": metric(percentile_90(latencies) * 1e3, "ms"),
        "throughput_qps": metric(len(latencies) / sum(latencies), "1/s"),
        "success_rate": metric((attempted - len(run.failures)) / attempted, "ratio"),
        "report_bytes": metric(statistics.fmean(run.report_bytes), "B"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(untraced: Run, traced: Run, speed: Speed, tracer: Tracer, counts: dict,
              pass_size: int) -> dict:
    out = {name: metric(counts.get(key, 0), "count") for name, key in COUNTS.items()}
    out["terms.match_calls"] = metric(
        counts.get("engine.match", 0) + counts.get("proofs.match", 0), "count")
    nodes = counts.get("engine.nodes", 0)
    out["engine.match_per_node"] = metric(
        counts.get("engine.match", 0) / nodes if nodes else 0.0, "ratio")
    out["engine.proof_per_node"] = metric(
        counts.get("engine.proof_size", 0) / nodes if nodes else 0.0, "ratio")
    atoms = counts.get("herbrand.base_atoms", 0)
    out["herbrand.apply_per_base_atom"] = metric(
        counts.get("herbrand.apply_atom", 0) / atoms if atoms else 0.0, "ratio")
    traced_latencies = traced.latencies(speed)
    # Span times are rescaled by the traced calls' overall wall-to-nominal ratio.
    scale = sum(traced_latencies) / sum(traced.wall())
    times = tracer.times()
    for name, key in TIMES.items():
        out[name] = metric(times.get(key, 0.0) * scale / len(traced_latencies), "s")
    out["trace.calls"] = metric(pass_size, "count")
    traced_p50 = statistics.median(traced_latencies) * 1e3
    untraced_p50 = statistics.median(untraced.latencies(speed)) * 1e3
    out["trace.latency_p50_ms"] = metric(traced_p50, "ms")
    out["trace.overhead_ms"] = metric(traced_p50 - untraced_p50, "ms")
    out["trace.wall_p50_ms"] = metric(statistics.median(untraced.wall()) * 1e3, "ms")
    out["trace.machine_speed"] = metric(speed.nominal(), "factor")
    return out


def traced_run(bench: Bench, seconds: float, spans_path: Path) -> tuple[Run, Run, dict]:
    untraced = bench.measure(seconds / 2)
    tracer = Tracer()
    per_pass: list[dict] = []

    def snapshot() -> None:
        per_pass.append(dict(tracer.counts))
        tracer.counts.clear()

    bench.tracer = tracer
    tracer.install()
    try:
        traced = bench.measure(seconds / 2, snapshot)
    finally:
        tracer.uninstall()
        bench.tracer = None
    if any(p != per_pass[0] for p in per_pass):
        traced.failures.append("count metrics differ between passes of the same calls")
    metrics = per_layer(untraced, traced, bench.speed, tracer, per_pass[0],
                        len(bench.workload.calls))
    tracer.write(spans_path)
    return untraced, traced, metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny program sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    directory = f"{OUT}/work-{args.workload}{'-small' if args.small else ''}"
    speed = Speed()
    try:
        cli, workload, setup_s = setup(args.workload, args.seed, args.small, directory, speed)
    except (BenchError, ImportError, OSError) as err:
        print(f"benchmark cannot run here: {err}", file=sys.stderr)
        return 2
    bench = Bench(cli, workload, directory, args.seed, speed)
    try:
        if args.trace:
            spans = Path(OUT) / f"spans-{args.workload}-seed{args.seed}.jsonl"
            untraced, traced, metrics = traced_run(bench, args.seconds, spans)
            runs = (untraced, traced)
        else:
            run = bench.measure(args.seconds)
            metrics = end_to_end(run, speed, setup_s)
            runs = (run,)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for failure in failures[:MAX_FAILURES_SHOWN]:
        print(f"mismatch: {failure}", file=sys.stderr)
    wall = [w for r in runs for w in r.wall()]
    print(f"{args.workload}: {len(wall)} calls in {sum(r.passes for r in runs)} passes "
          f"of {len(workload.calls)}, {len(failures)} failed; wall p50 "
          f"{statistics.median(wall) * 1e3:.3f} ms at machine speed {speed.nominal():.3f}",
          file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
