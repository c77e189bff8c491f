"""Command-line front end.

Every command prints one JSON report per input (one line each, keys
sorted, numbers as decimal strings) so runs are byte-reproducible; a
directory argument to a diagram command means every .json file in it.
Exit codes: 0 success, 2 usage, 3 invalid diagram, 4 enumeration budget
exceeded.  Each input has one parser: Diagram.from_json (diagram files),
_ints (integers in option and file text), _int_text (argparse's integer
options), _fp_poly (F_p[T] elements of a matrix file), field_and_t
(--q/--modulus/--t) and resolve_budget (--budget, else KNOTCODE_BUDGET,
else 10^7; never negative).  Each of them reads an integer through
laurent.as_int, which refuses a bool, a float with a fraction, and text
other than an optional sign and ASCII digits, where int() would coerce or
truncate it or skip blanks and underscores.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import warnings

from .laurent import LaurentPoly, as_int
from .fields import FqField, IntMod, PolyMod, RingFpT, RingZ, is_prime
from .diagram import Diagram, DiagramError
from . import generators as gen
from . import coloring as col
from . import codes as cd
from . import cable as cab
from .exactlin import snf

SCHEMA = "knotcode/1"

EXIT_USAGE = 2
EXIT_BAD_DIAGRAM = 3
EXIT_BUDGET = 4


class UsageError(ValueError):
    pass


def _stringify(x):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "inf" if math.isinf(x) else str(x)
    if isinstance(x, LaurentPoly):
        return {"min_deg": str(x.min_deg), "coeffs": [str(c) for c in x.coeffs], "text": str(x)}
    if isinstance(x, dict):
        return {k: _stringify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_stringify(v) for v in x]
    return x


def emit(report: dict, out=None):
    (out or sys.stdout).write(json.dumps(_stringify(report), sort_keys=True, separators=(",", ":")) + "\n")


def report_for(command: str, inputs: dict, outputs: dict, warn=()):
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "warnings": list(warn),
    }


def load_diagram(path: str) -> tuple[Diagram, str]:
    """The diagram of a file and the sha256 of the bytes it was parsed from."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        d = Diagram.from_json(json.loads(data))
    except DiagramError as exc:
        raise DiagramError(f"{path}: {exc}") from None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DiagramError(f"{path}: cannot parse diagram: {exc}") from exc
    return d, hashlib.sha256(data).hexdigest()


def diagram_inputs(path: str):
    """(report inputs, diagram) of a diagram file, or of each .json file of a
    directory in name order, each loaded as it is reached."""
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
        if not paths:
            raise UsageError(f"{path}: no .json diagram files")
    for p in paths:
        d, digest = load_diagram(p)  # a missing file is a bad diagram (exit 3)
        yield {"file": p, "sha256": digest}, d


# -- option and file text, shared flags -----------------------------------------


def _ints(text, where: str, sep: str = ",") -> list[int]:
    """The integers of sep-separated option text, or of a list of values read
    from a file; a UsageError naming the flag or file (where) otherwise."""
    out = []
    for c in text.split(sep) if isinstance(text, str) else text:
        try:
            out.append(as_int(c))
        except (TypeError, ValueError):
            raise UsageError(f"{where}: {c!r} is not an integer") from None
    return out


def _fp_poly(x, ring: RingFpT, where: str) -> tuple[int, ...]:
    """An element of F_p[T] as a trimmed ascending tuple, from text c0,c1,...,
    a coefficient list, or a {"min_deg": k >= 0, "coeffs"} object."""
    if not isinstance(x, dict):
        return ring.trim(_ints(x, where))
    try:
        poly = LaurentPoly.from_json(x)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{where}: bad polynomial {x!r}: {exc}") from None
    if poly.min_deg < 0:
        raise UsageError(f"{where}: bad polynomial {x!r}: needs a plain polynomial (min_deg >= 0)")
    return ring.trim([0] * poly.min_deg + list(poly.coeffs))


def _int_text(text: str) -> int:
    """argparse's type for the integer options: as_int, so an optional sign
    and ASCII digits, with argparse's own message for anything else."""
    try:
        return as_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@functools.cache
def parse_field(qtext: str, modulus: str | None) -> FqField:
    """The field of --q and --modulus, built once per process for each
    pair of texts (a usage error is raised again each time)."""
    nums = _ints(qtext, "--q", sep="^")
    if len(nums) > 2:
        raise UsageError(f"--q: expected p or p^a, got {qtext!r}")
    p, a = nums if len(nums) == 2 else _prime_power(nums[0])
    if not is_prime(p):
        raise UsageError(f"field size {qtext} is not a prime power")
    if a == 1:
        if modulus is not None:
            raise UsageError("--modulus only applies to extension fields")
        return FqField(p)
    if modulus is None:
        raise UsageError(f"extension field of degree {a} needs --modulus c0,c1,...,1")
    coeffs = _ints(modulus, "--modulus")
    if len(coeffs) != a + 1 or coeffs[-1] % p == 0:
        raise UsageError(f"--modulus must have degree {a} over F_{p}")
    try:
        return FqField(p, coeffs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _prime_power(q: int):
    """(p, a) with p^a = q and p prime: the first a whose integer a-th root
    r of q has r^a = q and r prime; q is never factored."""
    for a in range(1, max(q, 0).bit_length()):  # none for q < 2
        r = _iroot(q, a)
        if r**a == q and is_prime(r):
            return r, a
    raise UsageError(f"{q} is not a prime power")


def _iroot(q: int, a: int) -> int:
    """floor(q^(1/a)) by Newton's method from above, on ints."""
    r = 1 << -(-q.bit_length() // a)
    while True:
        s = ((a - 1) * r + q // r ** (a - 1)) // a
        if s >= r:
            return r
        r = s


def field_and_t(args):
    """The field of --q/--modulus and its element --t as an encoded int: -1
    is sugar for p-1, 'alpha' for the residue of x, comma lists ascending
    coefficient vectors.  The library reads an int as n * 1, so t goes to
    it as its coefficients, field.decode(t)."""
    field = parse_field(args.q, args.modulus)
    text = args.t
    if text == "alpha":
        if field.a == 1:
            raise UsageError("'alpha' needs an extension field")
        return field, field.element([0, 1])
    coeffs = _ints(text, "--t")
    if len(coeffs) > 1:
        return field, field.element(coeffs)
    value = coeffs[0]
    if field.a > 1 and not -1 <= value < field.p:
        raise UsageError(
            f"--t {text} is not in the prime field F_{field.p}; "
            f"give other elements of F_{field.q} as coefficients c0,c1,..."
        )
    return field, field.element(value)


def resolve_budget(args) -> int:
    """The enumeration budget, the only reader of --budget and KNOTCODE_BUDGET:
    the flag, else the variable, else the library default; never negative."""
    for source, text in (("--budget", args.budget), ("KNOTCODE_BUDGET", os.environ.get("KNOTCODE_BUDGET"))):
        if text is not None:
            value = _ints([text], source)[0]
            if value < 0:
                raise UsageError(f"{source} must be >= 0, got {value}")
            return value
    return cd.DEFAULT_BUDGET


def build_codes(diagrams, field, t: int, kind="fox"):
    """The knot codes of the diagrams over field at the encoded t, and the
    distinct warnings raised building them (for the report, not stderr)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        codes = [cd.code_from_diagram(d, field, field.decode(t), kind=kind) for d in diagrams]
    return codes, list(dict.fromkeys(str(w.message) for w in caught))


# -- subcommands -------------------------------------------------------------------


def cmd_gen(args) -> int:
    inputs = None
    if args.family == "sum":
        # file problems exit 3; only bad parameters count as usage errors
        inputs = [load_diagram(f)[0] for f in args.files]
    try:
        if args.family == "builtin":
            d = gen.builtin(args.name)
        elif args.family == "torus":
            d = gen.torus_diagram(args.a, args.b)
        elif args.family == "pretzel":
            d = gen.pretzel_diagram(args.twists)
        else:
            d1, d2 = inputs
            arc1 = args.arc1 if args.arc1 is not None else max(d1.arcs.values(), default=0)
            arc2 = args.arc2 if args.arc2 is not None else max(d2.arcs.values(), default=0)
            d = gen.connected_sum(d1, arc1, d2, arc2)
    except DiagramError as exc:
        raise UsageError(str(exc)) from exc
    text = d.dumps()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_invariants(args, command="invariants") -> int:
    for src, d in diagram_inputs(args.diagram):
        delta = col.alexander_polynomial(d)
        outputs = {
            "alexander": delta,
            "determinant": abs(delta.eval_int(-1)),
            "value_at_1": delta.eval_int(1),
        }
        if command == "invariants":
            outputs.update(
                {
                    "crossings": d.n,
                    "arcs": d.arc_count,
                    "regions": d.region_count,
                }
            )
            if d.n >= 1:
                outputs["minors_agree_up_to_units"] = col.first_minors_agree(d)
        emit(report_for(command, src, outputs))
    return 0


def cmd_matrix(args) -> int:
    for src, d in diagram_inputs(args.diagram):
        mat = col.fox_matrix(d) if args.kind == "fox" else col.dehn_matrix(d)
        emit(report_for("matrix", {**src, "kind": args.kind}, mat.to_json()))
    return 0


def cmd_code(args) -> int:
    field, t = field_and_t(args)
    budget = resolve_budget(args)
    worst = 0
    for src, d in diagram_inputs(args.diagram):
        (code,), warn = build_codes([d], field, t, args.kind)
        profile = cd.ldpc_profile(code)
        outputs = {
            "n": code.n,
            "k": code.k,
            "q": field.q,
            "ldpc": {
                "row": profile.right_regular,
                "col": profile.left_regular,
                "row_weights": list(profile.row_weights),
                "col_weights": list(profile.col_weights),
            },
            "dual_feasible": cd.dual_knot_feasibility(code).to_json(),
        }
        status = 0
        if args.min_dist or args.weights:
            try:
                if args.kind == "fox":
                    we = cd.knot_weight_enumerator(d, code, field.decode(t), budget)
                else:
                    we = cd.weight_enumerator(code, budget)
            except cd.BudgetExceeded as exc:
                we = None
                status = EXIT_BUDGET
                if args.min_dist:
                    warn.append(f"minimum distance needs {exc.q}^{exc.k} codewords > budget {exc.budget}")
                if args.weights:
                    warn.append(str(exc))
            if args.min_dist:
                outputs["d"] = None if we is None else we.min_weight()
            if args.weights and we is not None:
                outputs["weights"] = we.to_json()
        inputs = {**src, "q": field.q, "t": list(field.decode(t)), "kind": args.kind}
        emit(report_for("code", inputs, outputs, warn))
        worst = max(worst, status)
    return worst


def cmd_snf(args) -> int:
    path = args.matrix
    if args.ring == "Z":
        entries, digest = _read_matrix(path)
        res = snf([_ints(row, path) for row in entries], RingZ())
        factors = [str(dd) for dd in res.invariant_factors]
    else:
        if args.p is None:
            raise UsageError("--ring FpT needs --p")
        ring = RingFpT(args.p)
        entries, digest = _read_matrix(path)
        rows = [[x if isinstance(x, (list, dict)) else [x] for x in row] for row in entries]
        res = snf([[_fp_poly(x, ring, path) for x in row] for row in rows], ring)
        factors = [[str(c) for c in dd] for dd in res.invariant_factors]
    inputs = {"file": path, "sha256": digest, "ring": args.ring}
    emit(report_for("snf", inputs, {"invariant_factors": factors, "rank": res.rank}))
    return 0


def _read_matrix(path: str) -> tuple[list[list], str]:
    """Rows of a matrix file, a list of equal-length rows, bare or under
    "entries"; and the sha256 of the bytes they were parsed from."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"{path}: cannot read matrix: {exc.strerror}") from exc
    obj = json.loads(data)
    entries = obj["entries"] if isinstance(obj, dict) else obj
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise UsageError(f"{path}: matrix must be a list of rows")
    if len({len(row) for row in entries}) > 1:
        raise UsageError(f"{path}: matrix rows have different lengths")
    return entries, hashlib.sha256(data).hexdigest()


def cmd_colorings(args) -> int:
    if args.mod is not None:
        t = _ints([args.t], "--t")[0]
    else:
        p_text, colon, f_text = args.poly_mod.partition(":")
        if not colon:
            raise UsageError(f"--poly-mod: expected p:c0,c1,..., got {args.poly_mod!r}")
        p, f, t = _ints([p_text], "--poly-mod")[0], _ints(f_text, "--poly-mod"), _ints(args.t, "--t")
    for src, d in diagram_inputs(args.diagram):  # a bad diagram is reported before a bad ring
        if args.mod is not None:
            ring = IntMod(args.mod)
            inputs = {**src, "modulus": args.mod, "t": t}
        else:
            ring = PolyMod(p, RingFpT(p).trim(f))  # the modulus is read as an F_p[T] element, like t
            inputs = {**src, "p": p, "modulus_poly": list(ring.f), "t": list(ring.cover.trim(t))}
        count = col.count_colorings(d, ring, t)
        emit(report_for("colorings", inputs, {"count": count, "nontrivially_colorable": count > ring.size}))
    return 0


def cmd_cable(args) -> int:
    field, t = field_and_t(args)
    nums = _ints(args.pairs, "--pairs")
    if len(nums) % 2 or not nums:
        raise UsageError("--pairs needs a1,b1[,a2,b2,...]")
    pairs = [(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)]

    t_step = [t]  # t_step[i] = t^(b_{i+1} ... b_m), the t of stage i
    for _, b in reversed(pairs):
        t_step.insert(0, field.pow(t_step[0], abs(b)))
    t_step = [field.decode(x) for x in t_step]

    inputs = {"pairs": [list(p) for p in pairs], "q": field.q, "t": list(t_step[-1])}
    if args.base:
        base_d, inputs["base_sha256"] = load_diagram(args.base)
        seq = cab.ideal_seq_from_diagram(base_d, field, t_step[0])
        inputs["base"] = args.base
    else:
        seq = cab.unknot_ideal_seq(field, t_step[0])
        inputs["base"] = "unknot"
    rows = [{"dim": seq.dimension, "stage": "base", "t": list(seq.t)}]
    for i, (a, b) in enumerate(pairs, start=1):
        delta = cab.torus_delta(field, a, b, t_step[i])
        seq = cab.cable_ideal_seq(seq, a, b, t_step[i])
        row = {
            "stage": i,
            "a": a,
            "b": b,
            "t": list(seq.t),
            "delta": list(field.decode(delta)),
            "dim": seq.dimension,
        }
        rows.append(row)
    outputs = {"steps": rows, "dim": seq.dimension}
    p0 = pairs[0]
    if not args.base and all(pr == p0 for pr in pairs) and p0[0] == 2 and p0[1] % 2 and is_prime(p0[1]):
        outputs["lengths"] = [cab.iterated_cable_length(p0[1], m) for m in range(1, len(pairs) + 1)]
    emit(report_for("cable", inputs, outputs))
    return 0


def cmd_sum(args) -> int:
    field, t = field_and_t(args)
    budget = resolve_budget(args)
    loaded = [load_diagram(f) for f in args.files]
    (c1, c2), warn = build_codes([d for d, _ in loaded], field, t)
    pos1 = args.pos1 if args.pos1 is not None else c1.n - 1
    pos2 = args.pos2 if args.pos2 is not None else c2.n - 1
    total = cd.sum_code(c1, pos1, c2, pos2)
    outputs = {"n": total.n, "k": total.k, "q": field.q}
    status = 0
    try:
        we = cd.sum_weight_enumerator(c1, pos1, c2, pos2, budget)
        outputs["d"] = we.min_weight()
        if args.weights:
            outputs["weights"] = we.to_json()
    except cd.BudgetExceeded as exc:
        outputs["d"] = None
        warn.append(str(exc))
        status = EXIT_BUDGET
    inputs = {
        "files": list(args.files),
        "sha256": [digest for _, digest in loaded],
        "q": field.q,
        "t": list(field.decode(t)),
        "positions": [pos1, pos2],
    }
    emit(report_for("sum", inputs, outputs, warn))
    return status


def cmd_check(args) -> int:
    worst = 0
    for src, d in diagram_inputs(args.diagram):
        failures = []
        checks = []

        def run(name, fn):
            try:
                ok = bool(fn())
            except Exception as exc:  # a failed invariant, not a crash
                ok = False
                name = f"{name}: {exc}"
            checks.append({"name": name, "ok": ok})
            if not ok:
                failures.append(name)

        run("validates", lambda: True)  # load_diagram raised otherwise
        if d.n >= 1:
            run("row_sums_zero", lambda: all(col.row_sum(row).is_zero for row in d.fox_rows))
            run("alexander_value_at_1_is_unit", lambda: abs(col.alexander_polynomial(d).eval_int(1)) == 1)
            run("arc_count", lambda: len(set(d.arcs.values())) == d.n)
            run("region_count", lambda: len(set(d.regions.values())) == d.n + 2)
            run("checkerboard_exists", lambda: len(set(d.checkerboard.values())) <= 2)
            run("region_index_steps", lambda: d.region_index)  # raises unless every edge steps it by one
            run("fox_minors_agree_up_to_units", lambda: col.first_minors_agree(d))
            for p in (3, 5):
                field = FqField(p)
                run(
                    f"dehn_kernel_exceeds_fox_by_one_F{p}",
                    lambda field=field: cd.code_from_diagram(d, field, -1, kind="dehn").k
                    == cd.code_from_diagram(d, field, -1).k + 1,
                )
        emit(
            report_for(
                "check",
                src,
                {"ok": not failures, "checks": checks, "first_failure": failures[0] if failures else None},
            )
        )
        if failures:
            worst = EXIT_BAD_DIAGRAM
    return worst


# -- parser ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, `error: <message>`, and exit 2; the
    subcommand parsers are built from this class too."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on first use and then shared for the process."""
    ap = _Parser(prog="knotcode", description="codes from knot diagram colorings")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a diagram file")
    gsub = g.add_subparsers(dest="family", required=True)
    gb = gsub.add_parser("builtin")
    gb.add_argument("name", choices=gen.builtin_names())
    gt = gsub.add_parser("torus")
    gt.add_argument("--a", type=_int_text, required=True)
    gt.add_argument("--b", type=_int_text, required=True)
    gp = gsub.add_parser("pretzel")
    gp.add_argument("twists", type=_int_text, nargs="+")
    gs = gsub.add_parser("sum")
    gs.add_argument("files", nargs=2)
    gs.add_argument("--arc1", type=_int_text)
    gs.add_argument("--arc2", type=_int_text)
    for sp in (gb, gt, gp, gs):
        sp.add_argument("-o", "--out")

    inv = sub.add_parser("invariants", help="Alexander polynomial, determinant, crossings, arcs, regions")
    inv.add_argument("diagram")

    alex = sub.add_parser("alex", help="Alexander polynomial and determinant only")
    alex.add_argument("diagram")

    mat = sub.add_parser("matrix", help="coloring matrix over Z[T,T^-1]")
    mat.add_argument("diagram")
    mat.add_argument("--kind", choices=("fox", "dehn"), default="fox")

    code = sub.add_parser("code", help="knot code parameters over F_q")
    code.add_argument("diagram")  # its other flags are added after "sum"

    sn = sub.add_parser("snf", help="Smith normal form of a matrix file")
    sn.add_argument("matrix")
    sn.add_argument("--ring", choices=("Z", "FpT"), default="Z")
    sn.add_argument("--p", type=_int_text)

    co = sub.add_parser("colorings", help="count Fox colorings over a quotient ring")
    co.add_argument("diagram")
    group = co.add_mutually_exclusive_group(required=True)
    group.add_argument("--mod", type=_int_text)
    group.add_argument("--poly-mod", help="p:c0,c1,...  modulus over F_p[T]")
    co.add_argument("--t", required=True)

    ca = sub.add_parser("cable", help="dimensions of iterated torus knots around a companion")
    base = ca.add_mutually_exclusive_group(required=True)
    base.add_argument("--base")
    base.add_argument("--base-unknot", action="store_true")
    ca.add_argument("--pairs", required=True)

    sm = sub.add_parser("sum", help="connected-sum code of two diagram files")
    sm.add_argument("files", nargs=2)
    for sp in (code, ca, sm):  # read by field_and_t
        sp.add_argument("--q", required=True)
        sp.add_argument("--modulus")
        sp.add_argument("--t", required=True)
    code.add_argument("--kind", choices=("fox", "dehn"), default="fox")
    code.add_argument("--min-dist", action="store_true")
    code.add_argument("--weights", action="store_true")
    sm.add_argument("--pos1", type=_int_text)
    sm.add_argument("--pos2", type=_int_text)
    sm.add_argument("--weights", action="store_true")
    for sp in (code, sm):
        sp.add_argument("--budget")  # read by resolve_budget

    ck = sub.add_parser("check", help="run the invariant suite on a diagram")
    ck.add_argument("diagram")

    return ap


_HANDLERS = {
    "gen": cmd_gen,
    "invariants": cmd_invariants,
    "alex": lambda args: cmd_invariants(args, command="alex"),
    "matrix": cmd_matrix,
    "code": cmd_code,
    "snf": cmd_snf,
    "colorings": cmd_colorings,
    "cable": cmd_cable,
    "sum": cmd_sum,
    "check": cmd_check,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DIAGRAM
    except cd.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError) as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
