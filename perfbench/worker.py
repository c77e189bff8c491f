"""One pass over a workload's batch, in a fresh interpreter.

    python3 perfbench/worker.py <workdir> <trace 0|1>

Reads <workdir>/plan.json, imports knotcode from ./src, writes the input
files, then calls knotcode.cli.main once per report and prints one JSON
object: set-up and batch times, each report's time, exit code and
output, peak RSS, and with trace 1 the per-layer metrics.

Shared hosts change speed by tens of percent within seconds, for every
process alike.  So a fixed slice of pure-Python work (calibrate) is timed
before the batch, after it, and between reports at least every
CALIBRATE_EVERY_S; each time is also reported scaled by CALIBRATION_REF_S
over the calibrations around it: the time the host would have taken at
the speed where calibrate takes CALIBRATION_REF_S.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

CALIBRATE_EVERY_S = 0.1
CALIBRATION_REF_S = 0.015


def calibration_work():
    """Interpreter work like knotcode's: modular row operations on lists,
    tuple keys in a dict, small function calls."""
    rows = [[(i * j + 1) % 7 for j in range(96)] for i in range(96)]
    for r in range(96):
        pivot = rows[r]
        for i in range(r + 1, 96):
            f = rows[i][r]
            if f:
                rows[i] = [(x - f * y) % 7 for x, y in zip(rows[i], pivot)]
    seen = {}
    for k in range(30000):
        key = (k & 63, k % 11)
        seen[key] = seen.get(key, 0) + abs(-k)
    return rows, seen


def calibrate() -> tuple[float, float]:
    """(when, how long) one slice of calibration work took."""
    t0 = time.perf_counter()
    calibration_work()
    t1 = time.perf_counter()
    return t1, t1 - t0


def scaled(raw: float, start: float, end: float, marks) -> float:
    """raw at the reference speed, judged by the calibrations just before
    start and just after end."""
    before = max((m for m in marks if m[0] <= start), default=marks[0])[1]
    after = min((m for m in marks if m[0] >= end), default=marks[-1])[1]
    return raw * CALIBRATION_REF_S / ((before + after) / 2)


def main():
    workdir, traced = sys.argv[1], sys.argv[2] == "1"
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with open(os.path.join(workdir, "plan.json")) as fh:
        plan = json.load(fh)

    tracer = None
    start = time.perf_counter()
    import knotcode.cli as cli
    import knotcode.generators as gen

    if traced:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        start = time.perf_counter()  # tracer installation is not set-up work
    os.chdir(workdir)
    for path, recipe in plan["files"].items():
        text = render(gen, recipe)
        with open(path, "w") as fh:
            fh.write(text)
    setup_end = time.perf_counter()

    gc.collect()
    marks = [calibrate()]
    spans, codes, outputs, errors = [], [], [], []
    for report in plan["reports"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(report["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed report, not a failed pass
                rc = f"raised {type(exc).__name__}: {exc}"
        spans.append((t0, time.perf_counter()))
        codes.append(rc)
        outputs.append(out.getvalue())
        errors.append(err.getvalue())
        if spans[-1][1] - marks[-1][0] >= CALIBRATE_EVERY_S:
            marks.append(calibrate())
    if marks[-1][0] < spans[-1][1]:
        marks.append(calibrate())

    raw = [t1 - t0 for t0, t1 in spans]
    times = [scaled(r, t0, t1, marks) for r, (t0, t1) in zip(raw, spans)]
    result = {
        "setup_s": scaled(setup_end - start, setup_end, setup_end, marks),
        "raw_setup_s": setup_end - start,
        "batch_s": sum(times),
        "raw_batch_s": spans[-1][1] - spans[0][0],
        "times_s": times,
        "raw_times_s": raw,
        "calibrations_s": [m[1] for m in marks],
        "exit_codes": codes,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.metrics(tracer)
        result["shares"] = layers.shares(tracer)
        result["absent"] = tracer.absent
    sys.stdout.write(json.dumps(result) + "\n")


def render(gen, recipe: dict) -> str:
    """Text of one input file from its plan recipe."""
    if "matrix" in recipe:
        return json.dumps({"entries": recipe["matrix"]}) + "\n"
    if "torus" in recipe:
        d = gen.torus_diagram(*recipe["torus"])
    elif "pretzel" in recipe:
        d = gen.pretzel_diagram(recipe["pretzel"])
    elif "braid" in recipe:
        d = gen.from_braid(*recipe["braid"])
    elif "trefoil_sum" in recipe:
        d = gen.builtin("trefoil")
        for arc1, arc2 in recipe["trefoil_sum"]:
            d = gen.connected_sum(d, arc1, gen.builtin("trefoil"), arc2)
    else:
        raise ValueError(f"unknown input recipe {sorted(recipe)}")
    return d.dumps()


if __name__ == "__main__":
    main()
