"""Command-line front end.

Every command prints one JSON report per input (one line each, keys
sorted, numbers as decimal strings) so runs are byte-reproducible; a
directory argument to a diagram command means every .json file in it.
Exit codes: 0 success, 2 usage, 3 invalid diagram, 4 enumeration budget
exceeded.  A command's handler yields (inputs, outputs, warnings, status)
per report and prints nothing; main alone wraps each in the report
envelope, writes it as soon as it is yielded (so the reports before a bad
file are printed) and exits with the worst status.  Each input has one
parser: Diagram.from_json (diagram files), _ints (integers in option and
file text), _int_text (argparse's integer options), _fp_poly (F_p[T]
elements of a matrix file), field_and_t (--q/--modulus/--t, t as the
coefficient tuple the library reads and the reports print) and
resolve_budget (--budget, else KNOTCODE_BUDGET, else 10^7; never
negative).  Each of them reads an integer through laurent.as_int, which
refuses a bool, a float with a fraction, and text other than an optional
sign and ASCII digits, where int() would coerce or truncate it or skip
blanks and underscores.  Each report carries the sha256 of every input
file's bytes, from CPython's built-in SHA-256 module (_sha2 from 3.12,
_sha256 on 3.10-3.11), so no OpenSSL is loaded; hashlib is the fallback
where neither module exists.  Each command is parsed by its own parser,
filled from its COMMANDS entry; the full tree of all ten is built, from
the same table, only for top-level help or a missing or bad command
name.  At t = 1 every Fox coloring is constant, and the Fox code and sum
reports note, under "warnings", that the code is the repetition code; a
Dehn code at t = 1 need not be (the trefoil's over F_3 is [5,2]_3), so
its reports note nothing, and the library itself warns of nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

try:  # hashlib loads OpenSSL's libcrypto, a few ms at every start
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .laurent import ZERO, LaurentPoly, as_int
from .fields import FqField, IntMod, PolyMod, RingFpT, RingZ, is_prime
from .diagram import Diagram, DiagramError
from . import generators as gen
from . import coloring as col
from . import codes as cd
from . import cable as cab
from .exactlin import dense, snf

SCHEMA = "knotcode/1"

EXIT_USAGE = 2
EXIT_BAD_DIAGRAM = 3
EXIT_BUDGET = 4

# the note that Fox code and sum reports carry at t = 1
_T_ONE = "t = 1: every coloring is constant, the code is the repetition code"


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


def emit(command: str, inputs: dict, outputs: dict, warnings: list):
    """Write one report: its envelope as one line of sorted-key JSON."""
    report = {"schema": SCHEMA, "command": command, "inputs": inputs, "outputs": outputs, "warnings": warnings}
    sys.stdout.write(json.dumps(_stringify(report), sort_keys=True, separators=(",", ":")) + "\n")


def _read_json(path: str):
    """The JSON value of a file and the sha256 of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return json.loads(data), sha256(data).hexdigest()


def load_diagram(path: str) -> tuple[Diagram, str]:
    """The diagram of a file and the sha256 of the bytes it was parsed from."""
    try:
        obj, digest = _read_json(path)
        return Diagram.from_json(obj), digest
    except DiagramError as exc:
        raise DiagramError(f"{path}: {exc}") from None
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DiagramError(f"{path}: cannot parse diagram: {exc}") from exc


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
    """The field of --q/--modulus and its element --t as the ascending
    coefficient tuple (FqField.decode) that the library reads as a t and
    the reports print: -1 is sugar for p-1, 'alpha' for the residue of x,
    comma lists ascending coefficient vectors."""
    field = parse_field(args.q, args.modulus)
    if args.t == "alpha":
        if field.a == 1:
            raise UsageError("'alpha' needs an extension field")
        coeffs = [0, 1]
    else:
        coeffs = _ints(args.t, "--t")
    if len(coeffs) == 1 and field.a > 1 and not -1 <= coeffs[0] < field.p:
        raise UsageError(
            f"--t {args.t} is not in the prime field F_{field.p}; "
            f"give other elements of F_{field.q} as coefficients c0,c1,..."
        )
    return field, field.decode(field.element(coeffs))


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


# -- subcommands -------------------------------------------------------------------


def cmd_gen(args):
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
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"{args.out}: cannot write diagram: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    yield from ()  # a diagram, not a report


def cmd_invariants(args):
    for src, d in diagram_inputs(args.diagram):
        delta = col.alexander_polynomial(d)
        outputs = {
            "alexander": delta,
            "determinant": abs(delta.eval_int(-1)),
            "value_at_1": delta.eval_int(1),
        }
        if args.cmd == "invariants":
            outputs.update({"crossings": d.n, "arcs": d.arc_count, "regions": d.region_count})
            if d.n >= 1:
                outputs["minors_agree_up_to_units"] = col.first_minors_agree(d)
        yield src, outputs, [], 0


def cmd_matrix(args):
    for src, d in diagram_inputs(args.diagram):
        if args.kind == "fox":
            rows, n, order = d.fox_rows, d.arc_count, "arc_order"
        else:
            rows, n, order = d.dehn_rows, d.region_count, "region_order"
        outputs = {
            "entries": [[e.to_json() for e in row] for row in dense(rows, n, ZERO)],
            order: list(range(n)),
            "crossing_order": list(range(len(rows))),
        }
        yield {**src, "kind": args.kind}, outputs, [], 0


def cmd_code(args):
    field, t = field_and_t(args)
    budget = resolve_budget(args)
    for src, d in diagram_inputs(args.diagram):
        code = cd.code_from_diagram(d, field, t, args.kind)
        warn = [_T_ONE] if args.kind == "fox" and field.element(t) == 1 else []
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
        yield {**src, "q": field.q, "t": list(t), "kind": args.kind}, outputs, warn, status


def cmd_snf(args):
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
    yield inputs, {"invariant_factors": factors, "rank": res.rank}, [], 0


def _read_matrix(path: str) -> tuple[list[list], str]:
    """Rows of a matrix file, a list of equal-length rows, bare or under
    "entries"; and the sha256 of the bytes they were parsed from."""
    try:
        obj, digest = _read_json(path)
    except OSError as exc:
        raise UsageError(f"{path}: cannot read matrix: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: cannot parse matrix: {exc}") from exc
    entries = obj.get("entries") if isinstance(obj, dict) else obj
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise UsageError(f"{path}: matrix must be a list of rows")
    if len({len(row) for row in entries}) > 1:
        raise UsageError(f"{path}: matrix rows have different lengths")
    return entries, digest


def cmd_colorings(args):
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
        yield inputs, {"count": count, "nontrivially_colorable": count > ring.size}, [], 0


def cmd_cable(args):
    field, t = field_and_t(args)
    nums = _ints(args.pairs, "--pairs")
    if len(nums) % 2 or not nums:
        raise UsageError("--pairs needs a1,b1[,a2,b2,...]")
    pairs = [(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)]
    inputs = {"pairs": [list(p) for p in pairs], "q": field.q, "t": list(t)}
    if args.base:  # loaded before t is checked: a missing file is a bad diagram
        base, inputs["base_sha256"] = load_diagram(args.base)
        inputs["base"] = args.base
    else:
        base = gen.builtin("unknot")
        inputs["base"] = "unknot"
    stages = cab.cable_dimensions(base, field, t, pairs)
    t0, _, k0 = stages[0]
    rows = [{"dim": k0, "stage": "base", "t": list(t0)}]
    for i, ((a, b), (ti, delta, k)) in enumerate(zip(pairs, stages[1:]), start=1):
        rows.append({"stage": i, "a": a, "b": b, "t": list(ti), "delta": list(field.decode(delta)), "dim": k})
    outputs = {"steps": rows, "dim": stages[-1][2]}
    p0 = pairs[0]
    if not args.base and all(pr == p0 for pr in pairs) and p0[0] == 2 and p0[1] % 2 and is_prime(p0[1]):
        outputs["lengths"] = [cab.iterated_cable_length(p0[1], m) for m in range(1, len(pairs) + 1)]
    yield inputs, outputs, [], 0


def cmd_sum(args):
    field, t = field_and_t(args)
    budget = resolve_budget(args)
    loaded = [load_diagram(f) for f in args.files]
    c1, c2 = (cd.code_from_diagram(d, field, t) for d, _ in loaded)
    warn = [_T_ONE] if field.element(t) == 1 else []
    pos1 = args.pos1 if args.pos1 is not None else c1.n - 1
    pos2 = args.pos2 if args.pos2 is not None else c2.n - 1
    total = cd.sum_code(c1, pos1, c2, pos2)
    outputs = {"n": total.n, "k": total.k, "q": field.q}
    status = 0
    try:
        we = cd.weight_enumerator(total, budget)
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
        "t": list(t),
        "positions": [pos1, pos2],
    }
    yield inputs, outputs, warn, status


def cmd_check(args):
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
        outputs = {"ok": not failures, "checks": checks, "first_failure": failures[0] if failures else None}
        yield src, outputs, [], EXIT_BAD_DIAGRAM if failures else 0


# -- parser ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, `error: <message>`, and exit 2; the
    subcommand parsers are built from this class too."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _gen_args(ap):
    gsub = ap.add_subparsers(dest="family", required=True)
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


def _diagram_args(ap):
    ap.add_argument("diagram")


def _field_args(ap):  # read by field_and_t
    ap.add_argument("--q", required=True)
    ap.add_argument("--modulus")
    ap.add_argument("--t", required=True)


def _matrix_args(ap):
    ap.add_argument("diagram")
    ap.add_argument("--kind", choices=("fox", "dehn"), default="fox")


def _code_args(ap):
    ap.add_argument("diagram")
    _field_args(ap)
    ap.add_argument("--kind", choices=("fox", "dehn"), default="fox")
    ap.add_argument("--min-dist", action="store_true")
    ap.add_argument("--weights", action="store_true")
    ap.add_argument("--budget")  # read by resolve_budget


def _snf_args(ap):
    ap.add_argument("matrix")
    ap.add_argument("--ring", choices=("Z", "FpT"), default="Z")
    ap.add_argument("--p", type=_int_text)


def _colorings_args(ap):
    ap.add_argument("diagram")
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--mod", type=_int_text)
    group.add_argument("--poly-mod", help="p:c0,c1,...  modulus over F_p[T]")
    ap.add_argument("--t", required=True)


def _cable_args(ap):
    base = ap.add_mutually_exclusive_group(required=True)
    base.add_argument("--base")
    base.add_argument("--base-unknot", action="store_true")
    ap.add_argument("--pairs", required=True)
    _field_args(ap)


def _sum_args(ap):
    ap.add_argument("files", nargs=2)
    _field_args(ap)
    ap.add_argument("--pos1", type=_int_text)
    ap.add_argument("--pos2", type=_int_text)
    ap.add_argument("--weights", action="store_true")
    ap.add_argument("--budget")  # read by resolve_budget


# name: (help in the command list, adds the command's arguments, handler);
# a handler reads the parsed arguments, prints nothing and yields
# (inputs, outputs, warnings, exit status) for each report, which main writes
COMMANDS = {
    "gen": ("generate a diagram file", _gen_args, cmd_gen),
    "invariants": ("Alexander polynomial, determinant, crossings, arcs, regions", _diagram_args, cmd_invariants),
    "alex": ("Alexander polynomial and determinant only", _diagram_args, cmd_invariants),
    "matrix": ("coloring matrix over Z[T,T^-1]", _matrix_args, cmd_matrix),
    "code": ("knot code parameters over F_q", _code_args, cmd_code),
    "snf": ("Smith normal form of a matrix file", _snf_args, cmd_snf),
    "colorings": ("count Fox colorings over a quotient ring", _colorings_args, cmd_colorings),
    "cable": ("dimensions of iterated torus knots around a companion", _cable_args, cmd_cable),
    "sum": ("connected-sum code of two diagram files", _sum_args, cmd_sum),
    "check": ("run the invariant suite on a diagram", _diagram_args, cmd_check),
}


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, the same as its subparser in build_parser."""
    ap = _Parser(prog=f"knotcode {name}")
    COMMANDS[name][1](ap)
    return ap


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole tree, for top-level help and a bad or missing command name."""
    ap = _Parser(prog="knotcode", description="codes from knot diagram colorings")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (help_text, add_args, _) in COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args = command_parser(argv[0]).parse_args(argv[1:])
        args.cmd = argv[0]
    else:
        args = build_parser().parse_args(argv)
    worst = 0
    try:
        for inputs, outputs, warnings, status in COMMANDS[args.cmd][2](args):
            emit(args.cmd, inputs, outputs, warnings)
            worst = max(worst, status)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DIAGRAM
    except cd.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError) as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return worst


if __name__ == "__main__":
    sys.exit(main())
