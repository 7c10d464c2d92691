"""Whole-report goldens: stdout, stderr and exit code of each corpus report.

Every `CORPUS_REPORTS` call (without `--timings`, whose numbers change from
run to run) is run as text, with `--json`, and with the rendering flags its
command takes.  `tests/golden/index.json` pins each call's argv, exit code
and stderr; the file it names holds the stdout.  Program paths are relative
to the repo root, where the calls run.

After a deliberate report change, regenerate the goldens from the repo root
with `PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import json
import os
from pathlib import Path

from test_cli import CORPUS_REPORTS, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# The flags that change a command's report beyond `--json`.
RENDERING = {
    "resolve": ["--unicode", "--trace"],
    "check": ["--unicode"],
    "verify-soundness": ["--unicode"],
}


def golden_calls():
    """(stdout file name, argv) for every golden call, in a fixed order."""
    for i, argv in enumerate(CORPUS_REPORTS, 1):
        argv = [a for a in argv if a != "--timings"]
        argv[1] = os.path.relpath(argv[1], ROOT)
        name = f"{i:02d}-{argv[0]}"
        yield f"{name}.txt", argv
        yield f"{name}.json", argv + ["--json"]
        if argv[0] in RENDERING:
            yield f"{name}.unicode.txt", argv + RENDERING[argv[0]]


def test_reports_match_goldens(monkeypatch):
    monkeypatch.chdir(ROOT)
    index = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
    calls = list(golden_calls())
    assert list(index) == [name for name, _ in calls]
    for name, argv in calls:
        code, out, err = run(argv)
        assert {"argv": argv, "exit_code": code, "stderr": err} == index[name], name
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in golden_calls():
        code, out, err = run(argv)
        (GOLDEN / name).write_text(out, encoding="utf-8")
        index[name] = {"argv": argv, "exit_code": code, "stderr": err}
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in index.items())
    (GOLDEN / "index.json").write_text("{\n" + rows + "\n}\n", encoding="utf-8")
