"""Seeded workload plans.

A plan is plain data: the input files to generate (diagram recipes for
knotcode.generators, or matrix entries) and the batch of CLI reports,
each with the spec its oracle check needs.  Rung sizes are fixed; the
seed picks the parameters that leave the work per pass comparable: the
handedness of a knot, the arcs a connected sum joins, the field of a
small code, the crossing signs of braids and small matrices.
"""

from __future__ import annotations

import random

F16 = ["--q", "16", "--modulus", "1,1,0,0,1", "--t", "alpha"]


class Plan:
    def __init__(self):
        self.files = {}
        self.reports = []

    def file(self, name: str, recipe: dict) -> str:
        path = f"inputs/{name}.json"
        self.files[path] = recipe
        return path

    def report(self, argv: list, check: dict):
        self.reports.append({"argv": argv, "check": check})

    def to_json(self) -> dict:
        return {"files": self.files, "reports": self.reports}


def build(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    plan = Plan()
    WORKLOADS[workload](plan, rng)
    return plan.to_json()


def _handed(rng, b: int) -> int:
    return rng.choice((1, -1)) * b


def _codes_ladder(plan: Plan, rng):
    # 3 divides 63 and 153, 5 divides 125: some codes get an extra dimension
    for b in (63, 91, 125, 153):
        b = _handed(rng, b)
        f = plan.file(f"t2_{abs(b)}", {"torus": [2, b]})
        spec = {"kind": "torus_code", "file": f, "a": 2, "b": b}
        plan.report(["code", f, "--q", "3", "--t", "-1"], dict(spec, p=3, t=-1, dehn=False))
        plan.report(["code", f, "--q", "5", "--t", "-1", "--kind", "dehn"], dict(spec, p=5, t=-1, dehn=True))
    for a, b in ((3, 20), (4, 13), (5, 9)):
        b = _handed(rng, b)
        f = plan.file(f"t{a}_{abs(b)}", {"torus": [a, b]})
        spec = {"kind": "torus_code", "file": f, "a": a, "b": b, "dehn": False}
        plan.report(["code", f, "--q", "3", "--t", "-1"], dict(spec, p=3, t=-1))
        plan.report(["code", f, *F16], dict(spec, p=2, modulus=[1, 1, 0, 0, 1], t="alpha"))
    # the Fox code makes the batch 16 reports, so the median blends the two
    # middle reports instead of resting on one
    p = rng.choice((5, 7))
    f = plan.file("pretzel", {"pretzel": [_handed(rng, p)] * 3})
    for kind in ("fox", "dehn"):
        plan.report(
            ["code", f, "--q", str(p), "--t", "-1", "--kind", kind],
            {"kind": "pretzel_code", "file": f, "p": p, "dehn": kind == "dehn"},
        )


def _invariants_ladder(plan: Plan, rng):
    for b in (21, 27, 33, 39):
        b = _handed(rng, b)
        f = plan.file(f"t2_{abs(b)}", {"torus": [2, b]})
        plan.report(["alex", f], {"kind": "torus_alex", "file": f, "a": 2, "b": b})
    # positive handedness only: the F_p[T] Smith form's cost swings several-fold
    # between a torus knot and its mirror, which would make passes incomparable
    torus = []
    for a, b in ((3, 13), (4, 7), (5, 6), (6, 5)):
        f = plan.file(f"t{a}_{b}", {"torus": [a, b]})
        torus.append((f, a, b))
        plan.report(["alex", f], {"kind": "torus_alex", "file": f, "a": a, "b": b})
    for b in (61, 93, 123, 153):  # gcd(27, b) = 1, 3, 3, 9
        b = _handed(rng, b)
        f = plan.file(f"t2_{abs(b)}", {"torus": [2, b]})
        plan.report(
            ["colorings", f, "--mod", "27", "--t", "-1"],
            {"kind": "torus_colorings_mod", "file": f, "b": b, "m": 27},
        )
    # T(5,8) over F_3[T]/(T^2+1) is a fixed rung: its Smith form hits the
    # coefficient growth that makes the F_p[T] path superlinear in practice
    f = plan.file("t5_8", {"torus": [5, 8]})
    torus.append((f, 5, 8))
    for f, a, b in torus:
        for p, modulus in ((3, [1, 0, 1]), (5, [2, 0, 0, 1])):
            if (a, b) == (5, 8) and p == 5:
                continue
            plan.report(
                ["colorings", f, "--poly-mod", f"{p}:{','.join(map(str, modulus))}", "--t", "0,1"],
                {"kind": "torus_colorings_poly", "file": f, "a": a, "b": b, "p": p, "f": modulus},
            )


def _trefoil_sum_recipe(rng, m: int) -> dict:
    """Joins: the arc of the running sum and the arc of the next trefoil."""
    return {"trefoil_sum": [[rng.randrange(3 * i), rng.randrange(3)] for i in range(1, m)]}


def _enumerate_small(plan: Plan, rng):
    for m in (6, 7, 8, 9):
        f = plan.file(f"sum{m}", _trefoil_sum_recipe(rng, m))
        plan.report(
            ["code", f, "--q", "3", "--t", "-1", "--min-dist", "--weights"],
            {"kind": "trefoil_sum_code", "file": f, "m": m},
        )
    for p in (5, 7, 11, 13):
        f = plan.file(f"pretzel{p}", {"pretzel": [_handed(rng, p)] * 3})
        plan.report(
            ["code", f, "--q", str(p), "--t", "-1", "--min-dist", "--weights"],
            {"kind": "pretzel_code", "file": f, "p": p, "dehn": False, "enumerate": True},
        )
    f1 = plan.file("sum5a", _trefoil_sum_recipe(rng, 5))
    f2 = plan.file("sum5b", _trefoil_sum_recipe(rng, 5))
    plan.report(["sum", f1, f2, "--q", "3", "--t", "-1", "--weights"], {"kind": "sum_code", "files": [f1, f2]})


def _braid_word(shapes, rng, strands: int, length: int) -> list[int]:
    """A braid word whose closure is a knot (one cycle).  The generator
    sequence comes from shapes, the same for every seed, and the seed picks
    the crossing signs: the knots vary while the work stays comparable."""
    while True:
        letters = [shapes.randrange(1, strands) for _ in range(length)]
        perm = list(range(strands))
        for i in letters:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        j, cycle = perm[0], 1
        while j != 0:
            j, cycle = perm[j], cycle + 1
        if cycle == strands:
            return [rng.choice((1, -1)) * i for i in letters]


def _cli_mixed(plan: Plan, rng):
    shapes = random.Random("cli_mixed/shapes")
    braids = []
    # a closure is a knot only if the word's permutation is one cycle, whose
    # parity fixes the word length's: 6 letters on 3 strands, 5 or 7 on 4
    for i in range(16):
        strands, length = (3, 6) if i % 2 == 0 else (4, 6 + (-1) ** (i // 2))
        f = plan.file(f"braid{i:02d}", {"braid": [strands, _braid_word(shapes, rng, strands, length)]})
        braids.append(f)
        q = rng.choice((3, 5, 7))
        a, b = rng.choice(((2, 3), (2, 5), (3, 5), (2, 7)))
        plan.report(["check", f], {"kind": "braid_check", "file": f})
        plan.report(["invariants", f], {"kind": "braid_invariants", "file": f})
        plan.report(
            ["code", f, "--q", str(q), "--t", "-1", "--min-dist"],
            {"kind": "braid_code", "file": f, "p": q},
        )
        plan.report(["matrix", f, "--kind", "dehn"], {"kind": "braid_dehn_matrix", "file": f})
        plan.report(
            ["cable", "--base", f, "--pairs", f"{a},{b}", "--q", "3", "--t", "-1"],
            {"kind": "braid_cable", "file": f, "a": a, "b": b},
        )
    for i in range(10):
        entries = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(4)]
        f = plan.file(f"matrix{i}", {"matrix": entries})
        plan.report(["snf", f, "--ring", "Z"], {"kind": "snf_z", "file": f})
    for f in braids[:10]:
        m = rng.choice((3, 5, 7))
        plan.report(["colorings", f, "--mod", str(m), "--t", "-1"], {"kind": "braid_colorings", "file": f, "m": m})


WORKLOADS = {
    "codes_ladder": _codes_ladder,
    "invariants_ladder": _invariants_ladder,
    "enumerate_small": _enumerate_small,
    "cli_mixed": _cli_mixed,
}
