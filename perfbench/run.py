"""knotcode benchmark: seeded CLI workloads, checked by independent oracles.

    python3 perfbench/run.py --workload codes_ladder --seed 1 --seconds 20 --trace 0

Run from the repository root (knotcode is imported from ./src).  Each pass
runs the workload's whole batch of reports in a fresh interpreter, one
knotcode.cli.main call per report, closed loop with one caller.  Passes
repeat until --seconds have gone by and at least MIN_SAMPLES report times
are pooled.  Every report is checked against perfbench/oracles.py outside
the timed region; each distinct output is judged once.

Times are wall times scaled to a reference host speed (see worker.py):
on a shared host the raw times of one run drift by 20% and more.  The
raw figures are in the context line, the last but one line of stdout;
the last line is the result object.

--trace 0 reports the end-to-end metrics:
  batch_s        wall time of one pass over the batch; median over passes
  report_p50_ms  each report's time is the mean of its middle half of passes
  report_p90_ms  (interquartile mean); these are the 50th and 90th
                 percentiles over the batch's reports, interpolated
  setup_s        importing knotcode, generating and writing the input files;
                 median over passes
  peak_rss_mb    peak resident memory of a pass's process; median over passes
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (medians over passes), plus trace.overhead_frac.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 100  # report times pooled per run: >= 10 lie beyond p90
DEADLINE_S = 160  # a run, checks included, must end within 180 s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "knotcode", "cli.py")):
        print("error: run from the repository root: src/knotcode not found", file=sys.stderr)
        return 2
    plan = workloads.build(args.workload, args.seed)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "inputs"))
    try:
        with open(os.path.join(workdir, "plan.json"), "w") as fh:
            json.dump(plan, fh)
        passes = run_passes(workdir, args.seconds, args.trace == 1)
        attempted, failed, failures = verify(plan, passes, workdir)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_report = [interquartile_mean(ts) for ts in zip(*(p["times_s"] for p in plain))]
    if args.trace:
        metrics = layer_metrics(traced)
        overhead = statistics.median(p["batch_s"] for p in traced) / statistics.median(p["batch_s"] for p in plain) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    else:
        metrics = {
            "batch_s": {"value": statistics.median(p["batch_s"] for p in plain), "unit": "s"},
            "report_p50_ms": {"value": 1e3 * percentile(per_report, 0.50), "unit": "ms"},
            "report_p90_ms": {"value": 1e3 * percentile(per_report, 0.90), "unit": "ms"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain), "unit": "MB"},
        }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "passes": len(plain),
        "traced_passes": len(traced),
        "reports_per_pass": len(plan["reports"]),
        "report_samples": len(per_report) * len(plain),
        "pass_batch_s": [round(p["batch_s"], 4) for p in plain],
        "raw_pass_batch_s": [round(p["raw_batch_s"], 4) for p in plain],
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in plain),
        "calibration_ms": statistics.median(1e3 * c for p in plain for c in p["calibrations_s"]),
        "failed_frac": failed / attempted,
        "failures": failures,
    }
    if traced:
        context["layer_shares"] = {
            k: round(statistics.median(p["shares"].get(k, 0.0) for p in traced), 4)
            for k in sorted({k for p in traced for k in p["shares"]})
        }
        context["absent"] = traced[0]["absent"]
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


class PassError(RuntimeError):
    pass


def run_passes(workdir: str, seconds: float, trace: bool) -> list[dict]:
    """Fresh-interpreter passes, one at a time, until the time is used and
    enough report times are pooled.  Traced runs alternate plain and traced
    passes so that the overhead is measured under the same conditions."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("KNOTCODE_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    passes = []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    samples = 0
    while True:
        round_start = time.monotonic()
        for traced in (False, True) if trace else (False,):
            result = run_worker(workdir, traced, env, deadline - time.monotonic())
            result["traced"] = traced
            passes.append(result)
            if not traced:
                samples += len(result["times_s"])
        now = time.monotonic()
        if now - start >= seconds and (samples >= MIN_SAMPLES or trace):
            return passes
        if now + 1.5 * (now - round_start) > deadline:
            return passes


def run_worker(workdir: str, traced: bool, env: dict, timeout: float = DEADLINE_S) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workdir, "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise PassError(f"a pass ran past the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise PassError(f"worker exited with {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.splitlines()[-1])


def verify(plan: dict, passes: list[dict], workdir: str):
    """Count wrong reports over all passes; each distinct (report, exit
    code, output) is judged by its oracle once."""
    verdicts = {}
    attempted = failed = 0
    failures = []
    for p in passes:
        reports = zip(plan["reports"], p["exit_codes"], p["outputs"], p["errors"])
        for i, (spec, rc, out, err) in enumerate(reports):
            key = (i, repr(rc), out)
            if key not in verdicts:
                verdicts[key] = checks.check_report(spec["check"], spec["argv"], rc, out, workdir)
            attempted += 1
            if verdicts[key] is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{' '.join(spec['argv'])}: {verdicts[key]} {err.strip()[-200:]}".strip())
    return attempted, failed, failures


def layer_metrics(traced: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(p["layers"][name] for p in traced), "unit": layers.unit(name)}
        for name in traced[0]["layers"]
    }


def percentile(values, frac: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = frac * (len(ordered) - 1)
    i = math.floor(pos)
    if i + 1 >= len(ordered):
        return ordered[-1]
    return ordered[i] + (pos - i) * (ordered[i + 1] - ordered[i])


def interquartile_mean(values) -> float:
    """Mean of the middle half: robust to a pass the host slowed."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str):
    if shutil.which("git") is None or not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or None


def source_digest(root: str) -> str:
    """sha256 over src/knotcode/*.py: identifies the code when no git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "knotcode")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
