"""Golden CLI corpus: every subcommand pinned by exit code and stdout.

tests/data/cli_golden.jsonl holds one {"argv", "exit", "stdout"} record per
line.  The commands run in order from a scratch directory with relative
paths; the leading `gen` commands write the diagram files the later ones
read.  After an intended output change, rewrite the expected values with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

from knotcode.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_golden.jsonl"

FIXTURES = {
    "mz.json": {"entries": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]},
    "mp.json": {"entries": [[[0, 1], [0, 0, 1]], [[], {"min_deg": 1, "coeffs": [1, 2]}]]},
    "broken.json": {
        "crossings": [{"under_in": 0, "under_out": 1, "over_in": 0, "over_out": 1, "sign": 1}],
        "outer": {"edge": 0, "side": "left"},
    },
}


def run_corpus(workdir, records):
    """(exit, stdout) of each record's argv, run in order inside workdir."""
    os.makedirs(os.path.join(workdir, "batch"))
    for name, obj in FIXTURES.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(obj, fh)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        results = []
        for rec in records:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(rec["argv"])
            results.append((code, out.getvalue()))
        return results
    finally:
        os.chdir(cwd)


def load_corpus():
    with open(CORPUS) as fh:
        return [json.loads(line) for line in fh]


def test_cli_golden_corpus(tmp_path):
    records = load_corpus()
    for rec, (code, out) in zip(records, run_corpus(str(tmp_path), records)):
        assert (code, out) == (rec["exit"], rec["stdout"]), rec["argv"]


if __name__ == "__main__":
    import tempfile

    records = load_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        results = run_corpus(tmp, records)
    with open(CORPUS, "w") as fh:
        for rec, (code, out) in zip(records, results):
            fh.write(json.dumps({"argv": rec["argv"], "exit": code, "stdout": out}) + "\n")
