"""Self-tests of the benchmark's checking and tracing.

    python3 -m unittest discover -s perfbench -t perfbench

Run from the repository root: the failure-counting tests run one real
pass of knotcode from ./src.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as orc  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Plan  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TracerArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # outer [0, 10] holds a [1, 3] and b [4, 9]; b holds c [5, 6]
        tr = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 9, 10]))
        outer = tr.begin("outer")
        a = tr.begin("a")
        tr.end(a)
        b = tr.begin("b")
        c = tr.begin("c")
        tr.end(c)
        tr.end(b)
        tr.end(outer)
        self.assertEqual(tr.self_times(), {"outer": 3, "a": 2, "b": 4, "c": 1})
        self.assertEqual(tr.total_times(), {"outer": 10, "a": 2, "b": 5, "c": 1})
        self.assertEqual(sum(tr.self_times().values()), 10)

    def test_same_layer_spans_add_up(self):
        tr = Tracer(clock=FakeClock([0, 2, 5, 6, 7, 8]))
        outer = tr.begin("x")
        inner = tr.begin("x")
        tr.end(inner)
        tr.end(outer)
        other = tr.begin("x")
        tr.end(other)
        self.assertEqual(tr.self_times(), {"x": 7})
        self.assertEqual(tr.calls(), {"x": 3})

    def test_wrapping_counts_and_restores(self):
        mod = types.ModuleType("perfbench_fake")

        def leaf(x):
            return x + 1

        def top(x):
            return mod.leaf(x) * 2

        class Num:
            def mul(self, y):
                return y

        mod.leaf, mod.top, mod.Num = leaf, top, Num
        mul = Num.__dict__["mul"]
        sys.modules["perfbench_fake"] = mod
        try:
            tr = Tracer()
            tr.span("perfbench_fake", "top", "top")
            tr.span("perfbench_fake", "leaf", "leaf", lambda t, args, result: t.add("leaf.arg", args[0]))
            tr.count("perfbench_fake", "Num.mul", "muls")
            tr.span("perfbench_fake", "deleted_helper", "gone")
            tr.count("perfbench_missing_module", "f", "gone")
            self.assertEqual(mod.top(3), 8)
            Num().mul(1)
            Num().mul(2)
            self.assertEqual(tr.calls(), {"top": 1, "leaf": 1})
            self.assertEqual(tr.spans[1][3], 0)  # leaf's parent is top
            self.assertEqual(tr.counts, {"leaf.arg": 3, "muls": 2})
            self.assertEqual(tr.absent, ["perfbench_fake.deleted_helper", "perfbench_missing_module.f"])
            tr.uninstall()
            self.assertIs(mod.leaf, leaf)
            self.assertIs(Num.__dict__["mul"], mul)
        finally:
            del sys.modules["perfbench_fake"]


class FailureCounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not os.path.isdir(os.path.join("src", "knotcode")):
            raise unittest.SkipTest("run from the repository root")
        plan = Plan()
        f = plan.file("t2_9", {"torus": [2, 9]})
        plan.report(["code", f, "--q", "3", "--t", "-1"], {"kind": "torus_code", "file": f, "a": 2, "b": 9, "p": 3, "t": -1, "dehn": False})
        f = plan.file("trefoils", {"trefoil_sum": [[0, 1]]})
        plan.report(["code", f, "--q", "3", "--t", "-1", "--min-dist", "--weights"], {"kind": "trefoil_sum_code", "file": f, "m": 2})
        cls.plan = plan.to_json()
        work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
        os.makedirs(work, exist_ok=True)
        cls.workdir = tempfile.mkdtemp(dir=work)
        os.makedirs(os.path.join(cls.workdir, "inputs"))
        with open(os.path.join(cls.workdir, "plan.json"), "w") as fh:
            json.dump(cls.plan, fh)
        cls.result = run.run_worker(cls.workdir, False, dict(os.environ))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def count(self, exit_codes, outputs):
        p = dict(self.result, exit_codes=exit_codes, outputs=outputs)
        attempted, failed, _ = run.verify(self.plan, [p, p], self.workdir)
        self.assertEqual(attempted, 4)
        return failed

    def test_real_reports_pass(self):
        self.assertEqual(self.count(self.result["exit_codes"], self.result["outputs"]), 0)

    def test_corrupted_report_counts_as_failed(self):
        good = self.result["outputs"]
        report = json.loads(good[1])
        report["outputs"]["weights"][2] = str(int(report["outputs"]["weights"][2]) + 1)
        bad = [good[0], json.dumps(report) + "\n"]
        self.assertEqual(self.count(self.result["exit_codes"], bad), 2)

    def test_wrong_dimension_counts_as_failed(self):
        good = self.result["outputs"]
        bad = [good[0].replace('"k":"2"', '"k":"1"'), good[1]]
        self.assertNotEqual(bad[0], good[0])
        self.assertEqual(self.count(self.result["exit_codes"], bad), 2)

    def test_exit_code_and_crash_count_as_failed(self):
        codes = [4, "raised RuntimeError: boom"]
        self.assertEqual(self.count(codes, self.result["outputs"]), 4)


class Oracles(unittest.TestCase):
    def test_torus_alexander(self):
        self.assertEqual(orc.torus_alexander(2, 3), [1, -1, 1])
        self.assertEqual(orc.torus_alexander(3, 4), [1, -1, 0, 1, 0, -1, 1])

    def test_smith_invariants(self):
        self.assertEqual(orc.smith_invariants([[2, 4], [6, 8]]), ([2, 4], 2))
        self.assertEqual(orc.smith_invariants([[1, 2, 3], [2, 4, 6]]), ([1], 1))

    def test_binary_field(self):
        f16 = orc.Field(2, [1, 1, 0, 0, 1])
        alpha = f16.elem("alpha")
        power, order = alpha, 1
        while power != 1:
            power, order = f16.mul(power, alpha), order + 1
        self.assertEqual(order, 15)
        self.assertEqual(f16.mul(alpha, f16.inv(alpha)), 1)


if __name__ == "__main__":
    unittest.main()
