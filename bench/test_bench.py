"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from cohorn.syntax import parse_program  # noqa: E402

SEEDS = (0, 1, 2)


def bench_command(*args: str, cwd: Path = ROOT, hash_seed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


class GeneratedPrograms(unittest.TestCase):
    def test_every_generated_program_loads(self):
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                for small in (True, False):
                    workload = workloads.build(name, seed, ROOT / "programs", small)
                    for file, text in workload.programs.items():
                        with self.subTest(workload=name, seed=seed, small=small, file=file):
                            parse_program(text)  # raises ProgramLoadError or ParseError

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 7, ROOT / "programs", small=True)
            b = workloads.build(name, 7, ROOT / "programs", small=True)
            self.assertEqual(a.programs, b.programs)
            self.assertEqual([(c.program, c.args) for c in a.calls],
                             [(c.program, c.args) for c in b.calls])


class KnownAnswers(unittest.TestCase):
    def test_known_answers_hold_at_small_sizes(self):
        cli = run.import_cli()
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                workload = workloads.build(name, seed, ROOT / "programs", small=True)
                directory = f"{run.OUT}/test-{name}"
                workload.write(ROOT / directory)
                cwd = os.getcwd()
                os.chdir(ROOT)
                try:
                    bench = run.Bench(cli, workload, directory, seed, run.Speed())
                    result = run.Run()
                    bench.one_pass(result)
                finally:
                    os.chdir(cwd)
                    shutil.rmtree(ROOT / directory, ignore_errors=True)
                with self.subTest(workload=name, seed=seed):
                    self.assertEqual(result.failures, [])
                    self.assertEqual(result.attempted, len(workload.calls))

    def test_a_wrong_answer_is_counted(self):
        proved = workloads.expect_outcome("PROVED", "k1 k2 k2", as_json=False)
        self.assertIsNone(proved(0, "outcome: PROVED\nproof: k1 k2 k2\n", None))
        self.assertIsNotNone(proved(0, "outcome: PROVED\nproof: k1 k2\n", None))
        self.assertIsNotNone(proved(1, "outcome: FAILED\n", None))

    def test_bound_names_compare_up_to_renaming(self):
        constants = frozenset(("k1", "k2", "k3"))
        self.assertEqual(workloads.alpha("nu a1. k2 k3 (k1 k3 a1)", constants),
                         workloads.alpha("nu a. k2 k3 (k1 k3 a)", constants))
        self.assertNotEqual(workloads.alpha("\\a b -> k1 a", constants),
                            workloads.alpha("\\a b -> k1 b", constants))


class TracedRuns(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        for name in workloads.WORKLOADS:
            results = []
            for hash_seed in ("1", "2"):
                done = bench_command("--workload", name, "--seed", "5", "--seconds", "0.5",
                                     "--trace", "1", "--small", hash_seed=hash_seed)
                self.assertEqual(done.returncode, 0, done.stderr)
                results.append(json.loads(done.stdout.splitlines()[-1]))
            with self.subTest(workload=name):
                self.assertTrue(results[0]["correct"])
                self.assertEqual(set(results[0]["metrics"]), set(units))
                counts = [{k: v["value"] for k, v in r["metrics"].items()
                           if units[k] in ("count", "ratio")} for r in results]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["trace.calls"], 0)


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = ROOT / run.OUT / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = bench_command("--workload", "mixed", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
