"""Oracle checks of one CLI report against its plan spec.

check_report returns None for a correct report and a one-line reason
otherwise.  Expected values come from perfbench.oracles, never from
knotcode.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import oracles as orc

SCHEMA = "knotcode/1"


class Mismatch(Exception):
    pass


def expect(what: str, got, want):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def check_report(spec: dict, argv: list, rc, stdout: str, workdir: str) -> str | None:
    """None when the report is right, else the first mismatch found."""
    try:
        expect("exit code", rc, 0)
        lines = stdout.splitlines()
        expect("report lines", len(lines), 1)
        report = json.loads(lines[0])
        expect("schema", report.get("schema"), SCHEMA)
        expect("command", report.get("command"), argv[0])
        paths = [os.path.join(workdir, f) for f in spec.get("files") or [spec["file"]]]
        docs = []
        digests = []
        for path in paths:
            with open(path, "rb") as fh:
                data = fh.read()
            digests.append(hashlib.sha256(data).hexdigest())
            docs.append(json.loads(data))
        inputs = report["inputs"]
        if "files" in spec:
            expect("sha256", inputs["sha256"], digests)
        elif argv[0] == "cable":
            expect("base_sha256", inputs["base_sha256"], digests[0])
        else:
            expect("sha256", inputs["sha256"], digests[0])
        CHECKS[spec["kind"]](spec, report["outputs"], *docs)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


def _ints(values):
    return [int(v) for v in values]


# -- codes ------------------------------------------------------------------------


def _code_common(out, n, k, q):
    expect("n", int(out["n"]), n)
    expect("k", int(out["k"]), k)
    expect("q", int(out["q"]), q)
    expect("dual_feasible.ruled_out", out["dual_feasible"]["ruled_out"], n % q != 0 or 2 * k < n - 1)


def _fox_ldpc(out, field, crossings, t):
    rows = orc.fox_rows(field, crossings, t)
    row_w = [sum(1 for x in r if x) for r in rows]
    col_w = [sum(1 for r in rows if r[j]) for j in range(len(rows[0]))]
    expect("ldpc.row_weights", _ints(out["ldpc"]["row_weights"]), row_w)
    expect("ldpc.col_weights", _ints(out["ldpc"]["col_weights"]), col_w)


def _dehn_ldpc(out, row_w, col_w):
    expect("ldpc.row_weights", _ints(out["ldpc"]["row_weights"]), row_w)
    expect("ldpc.col_weights (sorted)", sorted(_ints(out["ldpc"]["col_weights"])), sorted(col_w))


def _torus_field(spec):
    field = orc.Field(spec["p"], spec.get("modulus"))
    return field, field.elem(spec["t"])


def check_torus_code(spec, out, doc):
    """Torus knots have cyclic Alexander modules, so the Fox code has
    dimension 1 + [Delta(t) = 0]; the Dehn code has one more."""
    a, b = spec["a"], spec["b"]
    field, t = _torus_field(spec)
    n = (a - 1) * abs(b)
    k = 1 + (field.eval_int_poly(orc.torus_alexander(a, b), t) == 0)
    if spec["dehn"]:
        _code_common(out, n + 2, k + 1, field.q)
        if a == 2:  # b bigons touch 2 crossings, the two side regions all b
            _dehn_ldpc(out, [4] * n, [2] * n + [n, n])
    else:
        _code_common(out, n, k, field.q)
        _fox_ldpc(out, field, doc["crossings"], t)


def _check_enumeration(out, field, basis, n):
    counts = orc.weight_distribution(field, basis, n)
    expect("weights", _ints(out["weights"]), counts)
    expect("d", int(out["d"]), orc.min_weight(counts))


def check_pretzel_code(spec, out, doc):
    """P(p,p,p) over F_p at t = -1 is [3p, 3, 2p - 2]_p."""
    crossings = doc["crossings"]
    p = spec["p"]
    field = orc.Field(p)
    t = field.elem(-1)
    if spec["dehn"]:
        _code_common(out, 3 * p + 2, 4, p)
        # bigons touch 2 crossings, top and bottom 3, the gaps between columns 2p
        _dehn_ldpc(out, [4] * (3 * p), [2] * (3 * p - 3) + [3, 3] + [2 * p] * 3)
        return
    _code_common(out, 3 * p, 3, p)
    _fox_ldpc(out, field, crossings, t)
    if not spec.get("enumerate"):
        return
    expect("d", int(out["d"]), 2 * p - 2)
    basis = orc.kernel_basis(field, orc.fox_rows(field, crossings, t), 3 * p)
    _check_enumeration(out, field, basis, 3 * p)


def check_trefoil_sum_code(spec, out, doc):
    """The m-fold trefoil sum over F_3 at t = -1 is [3m, m + 1, 2]_3."""
    crossings = doc["crossings"]
    m = spec["m"]
    field = orc.Field(3)
    t = field.elem(-1)
    _code_common(out, 3 * m, m + 1, 3)
    _fox_ldpc(out, field, crossings, t)
    expect("d", int(out["d"]), 2)
    basis = orc.kernel_basis(field, orc.fox_rows(field, crossings, t), 3 * m)
    _check_enumeration(out, field, basis, 3 * m)


def check_sum_code(spec, out, *docs):
    """Connected-sum code: pairs of codewords agreeing on the tied
    coordinates (the last arcs), counted by brute force over each summand."""
    field = orc.Field(3)
    t = field.elem(-1)
    by_value = []
    lengths = []
    for doc in docs:
        rows = orc.fox_rows(field, doc["crossings"], t)
        n = len(rows[0])
        lengths.append(n)
        table = [[0] * (n + 1) for _ in range(field.q)]
        for word in orc.codewords(field, orc.kernel_basis(field, rows, n)):
            table[word[-1]][sum(1 for x in word if x)] += 1
        by_value.append(table)
    n = sum(lengths)
    counts = [0] * (n + 1)
    for v in range(field.q):
        for i, x in enumerate(by_value[0][v]):
            for j, y in enumerate(by_value[1][v]):
                counts[i + j] += x * y
    expect("n", int(out["n"]), n)
    expect("q^k", 3 ** int(out["k"]), sum(counts))
    expect("q", int(out["q"]), 3)
    expect("weights", _ints(out["weights"]), counts)
    expect("d", int(out["d"]), orc.min_weight(counts))


# -- invariants -------------------------------------------------------------------


def _alexander(out):
    poly = out["alexander"]
    expect("alexander.min_deg", int(poly["min_deg"]), 0)
    return _ints(poly["coeffs"])


def _check_alexander(out, delta):
    expect("alexander", _alexander(out), delta)
    expect("determinant", int(out["determinant"]), abs(sum(c * (-1) ** i for i, c in enumerate(delta))))
    expect("value_at_1", int(out["value_at_1"]), sum(delta))


def check_torus_alex(spec, out, doc):
    delta = orc.torus_alexander(spec["a"], spec["b"])
    if spec["a"] == 2:  # sum of (-T)^i
        expect("closed form", delta, [(-1) ** i for i in range(abs(spec["b"]))])
    _check_alexander(out, delta)


def check_torus_colorings_mod(spec, out, doc):
    """T(2, b) over Z/m at t = -1 has m * gcd(m, b) colorings."""
    m, b = spec["m"], abs(spec["b"])
    count = m * math.gcd(m, b)
    expect("count", int(out["count"]), count)
    expect("nontrivially_colorable", out["nontrivially_colorable"], count > m)


def check_torus_colorings_poly(spec, out, doc):
    """Cyclic Alexander module: p^(deg f + deg gcd(f, Delta)) colorings at t = T."""
    p, f = spec["p"], spec["f"]
    extra = orc.fp_gcd_degree(f, orc.torus_alexander(spec["a"], spec["b"]), p)
    deg = len(orc.fp_trim(f, p)) - 1
    expect("count", int(out["count"]), p ** (deg + extra))
    expect("nontrivially_colorable", out["nontrivially_colorable"], extra > 0)


def check_braid_invariants(spec, out, doc):
    crossings = doc["crossings"]
    n = len(crossings)
    _check_alexander(out, orc.alexander_from_diagram(crossings))
    expect("crossings", int(out["crossings"]), n)
    expect("arcs", int(out["arcs"]), len(set(orc.arc_labels(crossings).values())))
    expect("regions", int(out["regions"]), n + 2)
    expect("minors_agree_up_to_units", out["minors_agree_up_to_units"], True)


def check_braid_check(spec, out, doc):
    expect("ok", out["ok"], True)
    expect("first_failure", out["first_failure"], None)
    expect("failed checks", [c["name"] for c in out["checks"] if not c["ok"]], [])


def check_braid_code(spec, out, doc):
    crossings = doc["crossings"]
    p = spec["p"]
    field = orc.Field(p)
    t = field.elem(-1)
    rows = orc.fox_rows(field, crossings, t)
    n = len(rows[0])
    basis = orc.kernel_basis(field, rows, n)
    _code_common(out, n, len(basis), p)
    _fox_ldpc(out, field, crossings, t)
    counts = orc.weight_distribution(field, basis, n)
    expect("d", int(out["d"]), orc.min_weight(counts))


def check_braid_dehn_matrix(spec, out, doc):
    """n x (n + 2), every row 1 - T - 1 + T = 0 at T = 1 and as a
    polynomial, and over F_3 at t = -1 one more kernel vector than Fox."""
    crossings = doc["crossings"]
    n = len(crossings)
    rows = out["entries"]
    expect("rows", len(rows), n)
    expect("columns", {len(r) for r in rows}, {n + 2})
    expect("region_order", len(out["region_order"]), n + 2)
    field = orc.Field(3)
    evaluated = []
    for r, row in enumerate(rows):
        total = {}
        values = []
        for e in row:
            lo, coeffs = int(e["min_deg"]), _ints(e["coeffs"])
            for i, c in enumerate(coeffs):
                total[lo + i] = total.get(lo + i, 0) + c
            values.append(sum(c * (-1) ** (lo + i) for i, c in enumerate(coeffs)) % 3)
        expect(f"row {r} sum", [c for c in total.values() if c], [])
        evaluated.append(values)
    fox_k = orc.fox_nullity(field, crossings, field.elem(-1))
    expect("Dehn kernel over F_3", orc.nullity(field, evaluated, n + 2), fox_k + 1)


def check_braid_cable(spec, out, doc):
    """The base dimension is the Fox code dimension at t^b; the (a, b)
    cable adds one exactly when the torus polynomial vanishes at t."""
    crossings = doc["crossings"]
    a, b = spec["a"], spec["b"]
    field = orc.Field(3)
    t = field.elem(-1)
    base = orc.fox_nullity(field, crossings, pow(t, b, 3))
    bump = field.eval_int_poly(orc.torus_alexander(a, b), t) == 0
    steps = out["steps"]
    expect("steps", len(steps), 2)
    expect("base dim", int(steps[0]["dim"]), base)
    expect("stage dim", int(steps[1]["dim"]), base + bump)
    expect("dim", int(out["dim"]), base + bump)


def check_snf_z(spec, out, doc):
    entries = doc["entries"]
    factors, rank = orc.smith_invariants(entries)
    size = min(len(entries), len(entries[0]))
    expect("rank", int(out["rank"]), rank)
    expect("invariant_factors", _ints(out["invariant_factors"]), [0] * (size - rank) + factors[::-1])


def check_braid_colorings(spec, out, doc):
    """Z/p for a prime p: p^(Fox nullity over F_p)."""
    crossings = doc["crossings"]
    m = spec["m"]
    field = orc.Field(m)
    count = m ** orc.fox_nullity(field, crossings, field.elem(-1))
    expect("count", int(out["count"]), count)
    expect("nontrivially_colorable", out["nontrivially_colorable"], count > m)


CHECKS = {
    "torus_code": check_torus_code,
    "pretzel_code": check_pretzel_code,
    "trefoil_sum_code": check_trefoil_sum_code,
    "sum_code": check_sum_code,
    "torus_alex": check_torus_alex,
    "torus_colorings_mod": check_torus_colorings_mod,
    "torus_colorings_poly": check_torus_colorings_poly,
    "braid_invariants": check_braid_invariants,
    "braid_check": check_braid_check,
    "braid_code": check_braid_code,
    "braid_dehn_matrix": check_braid_dehn_matrix,
    "braid_cable": check_braid_cable,
    "snf_z": check_snf_z,
    "braid_colorings": check_braid_colorings,
}
