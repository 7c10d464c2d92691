"""Whole-report goldens: stdout, stderr and exit code of each corpus report.

Every `CORPUS_REPORTS` call (without `--timings`, whose numbers change from
run to run) is run as text, with `--json`, and with the rendering flags its
command takes, as text and, where they change the JSON too, as JSON.
`tests/golden/index.json` pins each call's argv, exit code and stderr; the
file it names holds the stdout.  Program paths are relative to the repo
root, where the calls run.

The help texts of `cohorn --help` and of each `cohorn <command> --help` are
pinned too, at 80 columns, in `tests/golden/help/`.

After a deliberate report or help change, regenerate the goldens from the
repo root with `PYTHONPATH=src python tests/test_golden.py` and review the
diff.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

from cohorn.cli import cli
from test_cli import CORPUS_REPORTS, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# The flags that change a command's report beyond `--json`.
RENDERING = {
    "resolve": ["--unicode", "--trace"],
    "check": ["--unicode"],
    "verify-soundness": ["--unicode"],
}
# Those of them that change its JSON report.
JSON_RENDERING = {"resolve": ["--trace"]}


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
        if argv[0] in JSON_RENDERING:
            yield f"{name}.trace.json", argv + ["--json"] + JSON_RENDERING[argv[0]]

HELP_COMMANDS = ["resolve", "check", "model", "certify", "verify-soundness"]


def help_calls():
    """(file name under `help/`, argv) for each help text."""
    yield "cohorn.txt", ["--help"]
    for command in HELP_COMMANDS:
        yield f"{command}.txt", [command, "--help"]


def run_help(argv):
    """The exit code and the text of `cli(argv)` for a help argv, with the
    terminal width fixed at 80 columns."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out):
        try:
            cli(argv)
        except SystemExit as stop:
            return stop.code, out.getvalue()
    raise AssertionError(f"{argv} did not exit")


def test_reports_match_goldens(monkeypatch):
    monkeypatch.chdir(ROOT)
    index = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
    calls = list(golden_calls())
    assert list(index) == [name for name, _ in calls]
    for name, argv in calls:
        code, out, err = run(argv)
        assert {"argv": argv, "exit_code": code, "stderr": err} == index[name], name
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name


def test_help_texts_match_goldens():
    for name, argv in help_calls():
        assert run_help(argv) == (0, (GOLDEN / "help" / name).read_text(encoding="utf-8")), name


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
    (GOLDEN / "help").mkdir(exist_ok=True)
    for name, argv in help_calls():
        (GOLDEN / "help" / name).write_text(run_help(argv)[1], encoding="utf-8")
