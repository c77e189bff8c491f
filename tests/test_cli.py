import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from knotcode.cli import UsageError, _prime_power, main
from knotcode.generators import from_braid

RUN = [sys.executable, "-m", "knotcode.cli"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_file(tmp_path, capsys, *args, name="d.json"):
    path = tmp_path / name
    code, out, err = run_cli(["gen", *args, "-o", str(path)], capsys)
    assert code == 0, err
    return str(path)


def test_gen_roundtrips_and_validates(tmp_path, capsys):
    for args in (
        ["builtin", "trefoil"],
        ["builtin", "figure_eight"],
        ["torus", "--a", "2", "--b", "7"],
        ["pretzel", "3", "2", "3", "5"],
    ):
        path = gen_file(tmp_path, capsys, *args, name=f"{args[0]}_{args[-1]}.json")
        code, out, err = run_cli(["check", path], capsys)
        assert code == 0, out


def test_gen_sum(tmp_path, capsys):
    t = gen_file(tmp_path, capsys, "builtin", "trefoil", name="t.json")
    f = gen_file(tmp_path, capsys, "builtin", "figure_eight", name="f.json")
    path = tmp_path / "sum.json"
    code, out, err = run_cli(["gen", "sum", t, f, "--arc1", "2", "--arc2", "3", "-o", str(path)], capsys)
    assert code == 0
    obj = json.loads(path.read_text())
    assert len(obj["crossings"]) == 7


def test_gen_usage_errors(tmp_path, capsys):
    code, out, err = run_cli(["gen", "torus", "--a", "2", "--b", "4"], capsys)
    assert code == 2
    code, out, err = run_cli(["gen", "pretzel", "3", "3"], capsys)
    assert code == 2


def test_invariants_report(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    code, out, err = run_cli(["invariants", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["alexander"]["coeffs"] == ["1", "-1", "1"]
    assert rep["outputs"]["determinant"] == "3"
    assert rep["outputs"]["arcs"] == "3"
    assert rep["outputs"]["regions"] == "5"
    assert rep["outputs"]["minors_agree_up_to_units"] is True


def test_minor_check_past_seven_crossings(tmp_path, capsys):
    """The first-minor check has no size limit: invariants on T(2, 41) and
    check on a 12-crossing braid closure with both crossing signs."""
    path = gen_file(tmp_path, capsys, "torus", "--a", "2", "--b", "41")
    code, out, err = run_cli(["invariants", path], capsys)
    assert code == 0 and json.loads(out)["outputs"]["minors_agree_up_to_units"] is True
    braid = tmp_path / "braid.json"
    braid.write_text(from_braid(3, [1, -2, 1, -2, 1, -2, 1, -2, 1, -2, 1, 1]).dumps())
    code, out, err = run_cli(["check", str(braid)], capsys)
    checks = {c["name"]: c["ok"] for c in json.loads(out)["outputs"]["checks"]}
    assert code == 0 and checks["fox_minors_agree_up_to_units"] is True


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["code", "x.json"],
        ["code", "x.json", "--q", "3", "--t", "-1", "--kind", "braid"],
        ["gen", "torus", "--a", "two", "--b", "3"],
        ["invariants", "x.json", "--minor-limit", "3"],
    ],
)
def test_argparse_usage_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: "), out.err


def test_help_is_not_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["code", "--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith("usage: knotcode code [-h]") and "--min-dist" in out.out


def test_alex_alias(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "figure_eight")
    code, out, err = run_cli(["alex", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["determinant"] == "5"


def test_invalid_diagram_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"crossings":[{"under_in":0,"under_out":1,"over_in":0,"over_out":1,"sign":1}],"outer":{"edge":0,"side":"left"}}')
    code, out, err = run_cli(["invariants", str(bad)], capsys)
    assert (code, out) == (3, "")
    # one line naming the file and every violation the constructor found
    matching = "edge not a matching: 0 used twice as incoming; edge not a matching: 1 used twice as outgoing"
    assert err == f"error: {bad}: invalid diagram: {matching}\n"
    # a JSON top level that is not an object is a parse error, not a traceback
    for text in ("[1,2]", '"x"', "3", "null"):
        bad.write_text(text)
        code, out, err = run_cli(["invariants", str(bad)], capsys)
        assert (code, out) == (3, "")
        assert "cannot parse diagram" in err and err.count("\n") == 1


def test_diagram_file_with_non_integer_values_exits_3(tmp_path, capsys):
    """A sign of 1.5, an edge of 4.9 or a sign of true is refused, not read
    as the trefoil that int() would make of it; a sign of Infinity, which
    int() cannot convert, is one line too, not a traceback."""
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    good = json.loads(Path(path).read_text())
    cases = ({0: {"sign": 1.5}}, {1: {"under_in": 4.9}, 2: {"sign": True}}, {2: {"sign": True}}, {2: {"sign": math.inf}})
    for changes in cases:
        obj = json.loads(json.dumps(good))
        for ci, change in changes.items():
            obj["crossings"][ci].update(change)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run_cli(["alex", str(bad)], capsys)
        assert (code, out) == (3, "") and err.count("\n") == 1, changes
        assert err.startswith(f"error: {bad}: cannot parse diagram: ") and "is not an integer" in err


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """Every command pays for importing the package: dataclasses pulls in
    inspect, ast, dis and tokenize, which a one-shot command never needs.
    -S keeps site-packages from preloading them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import knotcode.cli; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_code_report_and_extension_field(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--min-dist", "--weights"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert (rep["outputs"]["n"], rep["outputs"]["k"], rep["outputs"]["d"]) == ("3", "2", "2")
    assert rep["outputs"]["weights"] == ["1", "0", "6", "2"]
    assert rep["outputs"]["ldpc"] == {
        "row": "3",
        "col": "3",
        "row_weights": ["3", "3", "3"],
        "col_weights": ["3", "3", "3"],
    }
    assert rep["outputs"]["dual_feasible"]["ruled_out"] is False

    code, out, err = run_cli(["code", path, "--q", "4", "--modulus", "1,1,1", "--t", "alpha"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["k"] == "2"

    code, out, err = run_cli(["code", path, "--q", "2^2", "--modulus", "1,1,1", "--t", "0,1"], capsys)
    assert json.loads(out)["outputs"]["k"] == "2"


def test_code_pretzel_parameters(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "pretzel", "3", "3", "3")
    code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--min-dist"], capsys)
    rep = json.loads(out)
    assert (rep["outputs"]["n"], rep["outputs"]["k"], rep["outputs"]["d"]) == ("9", "3", "4")


def test_code_budget_exit(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--min-dist", "--budget", "4"], capsys)
    assert code == 4
    rep = json.loads(out)
    assert rep["outputs"]["d"] is None
    assert rep["warnings"]

    code, out, err = run_cli(
        ["code", path, "--q", "3", "--t", "-1", "--min-dist", "--weights", "--budget", "4"], capsys
    )
    assert code == 4
    rep = json.loads(out)
    assert rep["outputs"]["d"] is None and "weights" not in rep["outputs"]
    assert rep["warnings"] == [
        "minimum distance needs 3^2 codewords > budget 4",
        "3^2 codewords exceed budget 4",
    ]


def _count_spans(monkeypatch):
    import knotcode.codes as cd

    calls = []
    span = cd._span

    def counted(*args):
        calls.append(args)
        return span(*args)

    monkeypatch.setattr(cd, "_span", counted)
    return calls


def _count_structure(monkeypatch, names=("traversal", "_arc_members", "_dart_faces")):
    """Record each computation of the named cached structure of Diagram: by
    default its edge cycle, arcs and face walk."""
    from functools import cached_property
    from knotcode.diagram import Diagram

    calls = []
    for name in names:

        def counted(self, func=Diagram.__dict__[name].func, name=name):
            calls.append(name)
            return func(self)

        prop = cached_property(counted)
        prop.__set_name__(Diagram, name)
        monkeypatch.setattr(Diagram, name, prop)
    return calls


def test_code_derives_diagram_structure_once(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys, "torus", "--a", "3", "--b", "4")
    calls = _count_structure(monkeypatch)
    # a Dehn code reads regions only, so its arcs are never derived
    for kind, derived in (
        ("fox", ["_arc_members", "_dart_faces", "traversal"]),
        ("dehn", ["_dart_faces", "traversal"]),
    ):
        calls.clear()
        code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--kind", kind], capsys)
        assert code == 0 and sorted(calls) == derived, (kind, calls)


def test_each_report_derives_each_coloring_matrix_once(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys, "torus", "--a", "2", "--b", "7")
    calls = _count_structure(monkeypatch, ("fox_rows", "dehn_rows"))
    for argv, derived in (
        (["check", path], ["dehn_rows", "fox_rows"]),
        (["invariants", path], ["fox_rows"]),
        (["code", path, "--q", "3", "--t", "-1"], ["fox_rows"]),
        (["cable", "--base", path, "--pairs", "2,3", "--q", "3", "--t", "-1"], ["fox_rows"]),
        (["matrix", path, "--kind", "dehn"], ["dehn_rows"]),
        (["colorings", path, "--mod", "7", "--t", "-1"], ["fox_rows"]),
    ):
        calls.clear()
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and sorted(calls) == derived, (argv, calls)
    # nothing is kept across reports: the same file checked again derives again
    calls.clear()
    for _ in range(2):
        assert run_cli(["check", path], capsys)[0] == 0
    assert sorted(calls) == ["dehn_rows"] * 2 + ["fox_rows"] * 2

    # Delta of a visible sum reads the rows of each summand, a diagram of its own
    total = gen_file(tmp_path, capsys, "builtin", "trefoil", name="sum.json")
    fig8 = gen_file(tmp_path, capsys, "builtin", "figure_eight", name="fig8.json")
    for _ in range(3):
        gen_file(tmp_path, capsys, "sum", total, fig8, "--arc1", "0", "--arc2", "0", name="sum.json")
    calls.clear()
    assert run_cli(["check", total], capsys)[0] == 0
    assert sorted(calls) == ["dehn_rows"] + ["fox_rows"] * 5


def test_code_enumerates_once(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    calls = _count_spans(monkeypatch)
    code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--min-dist", "--weights"], capsys)
    assert code == 0 and len(calls) == 1
    rep = json.loads(out)
    assert rep["outputs"]["d"] == "2" and rep["outputs"]["weights"] == ["1", "0", "6", "2"]


def test_sum_enumerates_each_summand_code_once(tmp_path, capsys, monkeypatch):
    t = gen_file(tmp_path, capsys, "builtin", "trefoil", name="t.json")
    calls = _count_spans(monkeypatch)
    code, out, err = run_cli(["sum", t, t, "--q", "3", "--t", "-1", "--weights"], capsys)
    assert code == 0 and len(calls) == 2  # C and D; each walk also counts C' and D'


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    monkeypatch.setenv("KNOTCODE_BUDGET", "4")
    code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--min-dist"], capsys)
    assert code == 4


def test_budget_must_be_a_nonnegative_integer(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    argv = ["code", path, "--q", "3", "--t", "-1", "--min-dist"]
    code, out, err = run_cli(argv + ["--budget", "-5"], capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1 and "--budget" in err
    for value in ("-5", "lots"):
        monkeypatch.setenv("KNOTCODE_BUDGET", value)
        for cmd in (argv, ["sum", path, path, "--q", "3", "--t", "-1"]):
            code, out, err = run_cli(cmd, capsys)
            assert (code, out) == (2, "") and err.count("\n") == 1 and "KNOTCODE_BUDGET" in err, cmd


@pytest.mark.parametrize(
    "argv, where",
    [
        (["colorings", "{d}", "--poly-mod", "3", "--t", "1"], "--poly-mod"),
        (["colorings", "{d}", "--poly-mod", "3:1,x", "--t", "1"], "--poly-mod"),
        (["colorings", "{d}", "--mod", "9", "--t", "x"], "--t"),
        (["cable", "--base-unknot", "--pairs", "2,x", "--q", "3", "--t", "-1"], "--pairs"),
        (["code", "{d}", "--q", "x", "--t", "-1"], "--q"),
        (["code", "{d}", "--q", "3", "--t", "y"], "--t"),
        (["code", "{d}", "--q", "4", "--modulus", "1,z,1", "--t", "alpha"], "--modulus"),
        (["snf", "{m}"], "{m}"),
        (["code", "{d}", "--q", "2^2^2", "--t", "-1"], "--q"),
        (["cable", "--base-unknot", "--pairs", "2,3,2", "--q", "3", "--t", "-1"], "--pairs"),
        (["snf", "{m}", "--ring", "FpT"], "--p"),
        (["snf", "{e}"], "{e}"),
        (["check", "{dir}"], "{dir}"),
    ],
)
def test_malformed_option_text_names_its_source(tmp_path, capsys, argv, where):
    names = {
        "d": gen_file(tmp_path, capsys, "builtin", "trefoil"),
        "m": str(tmp_path / "m.json"),
        "e": str(tmp_path / "e.json"),
        "dir": str(tmp_path / "notes"),
    }
    (tmp_path / "m.json").write_text(json.dumps({"entries": [[1, "x"], [0, 1]]}))
    (tmp_path / "e.json").write_text(json.dumps({"entries": 5}))
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "readme.txt").write_text("a directory without .json diagram files\n")
    code, out, err = run_cli([a.format(**names) for a in argv], capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert where.format(**names) in err


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["gen", "torus", "--a", "2", "--b"], "--b", "1_5"),
        (["gen", "torus", "--b", "15", "--a"], "--a", " 2"),
        (["gen", "pretzel", "3", "3"], "twists", "3_3"),
        (["gen", "sum", "{d}", "{d}", "--arc1"], "--arc1", "0 "),
        (["gen", "sum", "{d}", "{d}", "--arc2"], "--arc2", "\u0661"),
        (["snf", "{m}", "--ring", "FpT", "--p"], "--p", "5_"),
        (["colorings", "{d}", "--t", "-1", "--mod"], "--mod", "1_1"),
        (["sum", "{d}", "{d}", "--q", "3", "--t", "-1", "--pos1"], "--pos1", "0_0"),
        (["sum", "{d}", "{d}", "--q", "3", "--t", "-1", "--pos2"], "--pos2", "+ 1"),
    ],
)
def test_integer_options_take_a_sign_and_ascii_digits_only(tmp_path, capsys, argv, option, text):
    """int() would read 1_5 as 15 and skip blanks; argparse's own message
    form is kept."""
    names = {"d": gen_file(tmp_path, capsys, "builtin", "trefoil"), "m": str(tmp_path / "m.json")}
    with pytest.raises(SystemExit) as exc:
        main([a.format(**names) for a in argv] + [text])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err == f"error: argument {option}: invalid int value: {text!r}\n"


@pytest.mark.parametrize(
    "argv, where",
    [
        (["code", "{d}", "--q", "3", "--t", " 2_0 "], "--t"),
        (["code", "{d}", "--q", "3 ", "--t", "-1"], "--q"),
        (["code", "{d}", "--q", "9", "--modulus", "1,0,1_0", "--t", "-1"], "--modulus"),
        (["code", "{d}", "--q", "3", "--t", "-1", "--budget", "1_000"], "--budget"),
        (["colorings", "{d}", "--mod", "9", "--t", "1_0"], "--t"),
        (["cable", "--base-unknot", "--pairs", "2, 3", "--q", "3", "--t", "-1"], "--pairs"),
    ],
)
def test_integer_text_takes_a_sign_and_ascii_digits_only(tmp_path, capsys, argv, where):
    names = {"d": gen_file(tmp_path, capsys, "builtin", "trefoil")}
    code, out, err = run_cli([a.format(**names) for a in argv], capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1 and where in err and "is not an integer" in err, err


def test_signed_integer_options_still_parse(tmp_path, capsys):
    plain = gen_file(tmp_path, capsys, "torus", "--a", "2", "--b", "5", name="plain.json")
    signed = gen_file(tmp_path, capsys, "torus", "--a", "+2", "--b", "+5", name="signed.json")
    assert Path(plain).read_text() == Path(signed).read_text()
    gen_file(tmp_path, capsys, "pretzel", "-3", "+2", "5", name="p.json")


def test_code_and_check_build_no_kernel_basis(tmp_path, capsys, monkeypatch):
    """k is n minus the rank of one forward elimination: code without
    --min-dist/--weights and check never build a generator."""
    from knotcode import codes

    def no_basis(*args):
        raise RuntimeError("kernel basis built")

    monkeypatch.setattr(codes, "echelon_kernel", no_basis)
    path = gen_file(tmp_path, capsys, "pretzel", "3", "3", "3")
    for flags, k in (
        (["--q", "3", "--t", "-1"], "3"),
        (["--q", "16", "--modulus", "1,1,0,0,1", "--t", "alpha", "--kind", "dehn"], "2"),
    ):
        code, out, err = run_cli(["code", path, *flags], capsys)
        assert (code, err) == (0, "") and json.loads(out)["outputs"]["k"] == k, err
    code, out, err = run_cli(["check", path], capsys)
    assert (code, err) == (0, "") and json.loads(out)["outputs"]["ok"] is True
    with pytest.raises(RuntimeError, match="kernel basis built"):
        main(["code", path, "--q", "3", "--t", "-1", "--min-dist"])


def test_usage_error_on_bad_field(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    code, out, err = run_cli(["code", path, "--q", "6", "--t", "-1"], capsys)
    assert code == 2
    code, out, err = run_cli(["code", path, "--q", "4", "--t", "-1"], capsys)
    assert code == 2  # missing modulus
    # an integer t outside F_2 is not reduced mod 2 in F_4
    code, out, err = run_cli(["code", path, "--q", "4", "--modulus", "1,1,1", "--t", "5"], capsys)
    assert (code, out) == (2, "") and "c0,c1" in err
    # a leading coefficient 3 = 0 in F_3 would leave a degree-1 modulus, F_3
    code, out, err = run_cli(["code", path, "--q", "9", "--modulus", "1,1,3", "--t", "-1"], capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1 and "--modulus" in err
    for flags, where in (
        (["--q", "4^2", "--t", "-1"], "4^2"),  # the base of p^a must be prime
        (["--q", "3", "--modulus", "1,1", "--t", "-1"], "--modulus"),  # F_3 takes no modulus
        (["--q", "3", "--t", "alpha"], "alpha"),  # alpha is a root of an extension's modulus
    ):
        code, out, err = run_cli(["code", path, *flags], capsys)
        assert (code, out) == (2, "") and err.count("\n") == 1 and where in err, flags
    # 1287836182261 * 2575672364521 passes Miller-Rabin to every base 2..37
    code, out, err = run_cli(["code", path, "--q", "3317044064679887385961981", "--t", "-1"], capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1 and "cannot certify" in err


def test_each_input_file_is_read_once(tmp_path, capsys, monkeypatch):
    """Every command opens each input file once and reports the sha256 of
    the bytes it parsed."""
    import builtins
    import hashlib

    from knotcode import cli

    t = gen_file(tmp_path, capsys, "builtin", "trefoil", name="t.json")
    f8 = gen_file(tmp_path, capsys, "builtin", "figure_eight", name="f8.json")
    m = tmp_path / "m.json"
    m.write_text("[[2,-1],[-1,2]]")
    sha = {p: hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (t, f8, str(m))}
    opened = []

    def spy(path, *args):
        opened.append(path)
        return builtins.open(path, *args)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    for argv, files, key in (
        (["check", t], [t], "sha256"),
        (["sum", t, f8, "--q", "3", "--t", "-1"], [t, f8], "sha256"),
        (["cable", "--base", f8, "--pairs", "2,3", "--q", "5", "--t", "2"], [f8], "base_sha256"),
        (["snf", str(m)], [str(m)], "sha256"),
        (["gen", "sum", t, f8], [t, f8], None),
    ):
        opened.clear()
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and opened == files, (argv, err, opened)
        if key:
            digest = json.loads(out)["inputs"][key]
            assert digest == ([sha[f] for f in files] if len(files) > 1 else sha[files[0]]), argv


def test_field_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """parse_field is cached: the second report over F_64 reuses the field
    and its multiplication table; a bad --q is still an error each time."""
    from knotcode import cli
    from knotcode.fields import FqField

    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    built = []
    monkeypatch.setattr(cli, "FqField", lambda *args: built.append(args) or FqField(*args))
    cli.parse_field.cache_clear()
    argv = ["code", path, "--q", "64", "--modulus", "1,1,0,1,1,0,1", "--t", "alpha"]
    first, second = run_cli(argv, capsys), run_cli(argv, capsys)
    assert first[0] == 0 and first == second and built == [(2, [1, 1, 0, 1, 1, 0, 1])]
    for _ in range(2):
        assert run_cli(["code", path, "--q", "6", "--t", "-1"], capsys)[0] == 2
    cli.parse_field.cache_clear()  # drop the fields built through the spy


def test_field_size_is_never_factored(tmp_path, capsys):
    """--q is read by primality and integer roots, so a large prime, the
    square of a large prime and a product of two large primes each answer
    at once (trial division to sqrt(q) ran past 10 s on 10^18 + 3)."""
    p = 10**9 + 7
    start = time.perf_counter()
    assert _prime_power(10**18 + 3) == (10**18 + 3, 1)
    assert _prime_power(p * p) == (p, 2)
    assert time.perf_counter() - start < 1.0
    for q in range(-5, 2000):  # against factoring by trial division
        d = next((d for d in range(2, q + 1) if q % d == 0), None)
        a = round(math.log(q, d)) if d else 0
        expect = (d, a) if d and d**a == q else None
        try:
            assert _prime_power(q) == expect
        except UsageError:
            assert expect is None
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    for q, exit_code in ((10**18 + 3, 0), (p * (p + 2), 2)):
        start = time.perf_counter()
        code, out, err = run_cli(["code", path, "--q", str(q), "--t", "-1"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == exit_code, err
    assert out == "" and "not a prime power" in err


def test_matrix_command(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    code, out, err = run_cli(["matrix", path, "--kind", "fox"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["entries"][0][0] == {"min_deg": "0", "coeffs": ["1", "-1"]}
    code, out, err = run_cli(["matrix", path, "--kind", "dehn"], capsys)
    rep = json.loads(out)
    assert len(rep["outputs"]["entries"][0]) == 5
    assert rep["outputs"]["region_order"] == ["0", "1", "2", "3", "4"]
    unknot = gen_file(tmp_path, capsys, "builtin", "unknot", name="u.json")
    code, out, err = run_cli(["matrix", unknot], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["outputs"]["entries"] == [] and rep["outputs"]["arc_order"] == ["0"]


def test_snf_command(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"entries": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}))
    code, out, err = run_cli(["snf", str(mat)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["invariant_factors"] == ["0", "3", "1"]
    assert rep["outputs"]["rank"] == "2"

    pmat = tmp_path / "p.json"
    pmat.write_text(json.dumps({"entries": [[[0, 1], [0, 0, 1]], [[], [0, 1]]]}))
    code, out, err = run_cli(["snf", str(pmat), "--ring", "FpT", "--p", "5"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["rank"] == "2"

    # malformed matrices are usage errors with a one-line message
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"entries": [[1, 2], [3]]}))
    dict_entry = tmp_path / "dict.json"
    dict_entry.write_text(json.dumps({"entries": [[{"min_deg": "0", "coeffs": ["1"]}]]}))
    # int() would read 2.5 as 2 and true as 1
    fractional = tmp_path / "frac.json"
    fractional.write_text(json.dumps({"entries": [[2.5, 1], [1, 4]]}))
    boolean = tmp_path / "bool.json"
    boolean.write_text(json.dumps({"entries": [[True, [0, 1]]]}))
    for argv in (
        ["snf", str(ragged)],
        ["snf", str(ragged), "--ring", "FpT", "--p", "3"],
        ["snf", str(dict_entry)],
        ["snf", str(fractional)],
        ["snf", str(boolean), "--ring", "FpT", "--p", "3"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and err.count("\n") == 1, argv
    # a {"min_deg", "coeffs"} entry is refused, not truncated to 1 + T
    for entry in ({"min_deg": 0.5, "coeffs": [1.7, True]}, {"min_deg": 0, "coeffs": [1, True]}, {"min_deg": math.inf, "coeffs": [1]}):
        fractional.write_text(json.dumps({"entries": [[entry]]}))
        code, out, err = run_cli(["snf", str(fractional), "--ring", "FpT", "--p", "5"], capsys)
        assert (code, out) == (2, "") and err.count("\n") == 1 and str(fractional) in err, entry
        assert "is not an integer" in err
    # text coeffs are refused, not read digit by digit as 1 + 2T (3 + T once made monic)
    fractional.write_text(json.dumps({"entries": [[{"min_deg": 0, "coeffs": "12"}]]}))
    code, out, err = run_cli(["snf", str(fractional), "--ring", "FpT", "--p", "5"], capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1 and "coeffs must be a list" in err


def test_colorings_command(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    code, out, err = run_cli(["colorings", path, "--mod", "9", "--t", "-1"], capsys)
    assert json.loads(out)["outputs"]["count"] == "27"
    code, out, err = run_cli(["colorings", path, "--poly-mod", "2:1,1,1", "--t", "0,1"], capsys)
    assert json.loads(out)["outputs"]["count"] == "16"
    # the report echoes the F_p[T] elements reduced mod p, as the count uses them
    code, out, err = run_cli(["colorings", path, "--poly-mod", "3:4,0,1,0", "--t", "0,4,0"], capsys)
    rep = json.loads(out)
    assert (rep["inputs"]["modulus_poly"], rep["inputs"]["t"]) == (["1", "0", "1"], ["0", "1"])
    # F_p[T] needs a prime p
    unknot = gen_file(tmp_path, capsys, "builtin", "unknot", name="u.json")
    for args in (
        [path, "--poly-mod", "0:1,1", "--t", "1"],
        [path, "--poly-mod", "0:1,1", "--t", "0,1"],
        [unknot, "--poly-mod", "4:1,1", "--t", "1"],
        [path, "--poly-mod", "4:1,1,1", "--t", "0,1"],
    ):
        code, out, err = run_cli(["colorings", *args], capsys)
        assert (code, out) == (2, "") and "not a prime" in err


def test_cable_command(capsys):
    code, out, err = run_cli(
        ["cable", "--base-unknot", "--pairs", "2,3", "--q", "3", "--t", "-1"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["dim"] == "2"
    assert rep["outputs"]["lengths"] == ["3"]

    code, out, err = run_cli(
        ["cable", "--base-unknot", "--pairs", "2,3", "--q", "3", "--t", "0"], capsys
    )
    assert (code, out) == (2, "") and "invertible" in err


def test_cable_with_base_diagram(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    code, out, err = run_cli(
        ["cable", "--base", path, "--pairs", "2,3", "--q", "3", "--t", "-1"], capsys
    )
    rep = json.loads(out)
    assert rep["outputs"]["dim"] == "3"

    code, out, err = run_cli(
        ["cable", "--base", path, "--pairs", "2,3", "--q", "3", "--t", "0"], capsys
    )
    assert (code, out) == (2, "") and "invertible" in err


def test_sum_command(tmp_path, capsys):
    t = gen_file(tmp_path, capsys, "builtin", "trefoil", name="t.json")
    code, out, err = run_cli(["sum", t, t, "--q", "3", "--t", "-1", "--weights"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert (rep["outputs"]["n"], rep["outputs"]["k"], rep["outputs"]["d"]) == ("6", "3", "2")
    assert rep["outputs"]["weights"] == ["1", "0", "4", "0", "12", "8", "2"]


def _trefoil_sum(tmp_path, capsys, m: int) -> str:
    """The m-fold trefoil sum, built by `gen sum` at its default arcs."""
    t = gen_file(tmp_path, capsys, "builtin", "trefoil", name="t.json")
    path = str(tmp_path / f"sum{m}.json")
    gen_file(tmp_path, capsys, "sum", t, t, name=f"sum{m}.json")
    for _ in range(m - 2):
        gen_file(tmp_path, capsys, "sum", path, t, name=f"sum{m}.json")
    return path


def test_code_splits_only_past_one_walk_block(tmp_path, capsys, monkeypatch):
    """A code with q^k <= codes._BLOCK is walked and its diagram never split:
    there the split costs more than the walk.  Past the block a visibly
    composite diagram's Fox code is split and each summand walked once;
    a Dehn code is always walked."""
    import knotcode.codes as cd

    splits, real = [], cd.split_sum
    monkeypatch.setattr(cd, "split_sum", lambda d: splits.append(d.n) or real(d))
    walks = _count_spans(monkeypatch)
    for m, kind, split, walked in ((6, "fox", False, 1), (7, "fox", True, 7), (7, "dehn", False, 1)):
        path = _trefoil_sum(tmp_path, capsys, m)
        splits.clear()
        walks.clear()
        code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--kind", kind, "--min-dist", "--weights"], capsys)
        rep = json.loads(out)
        k = m + 1 + (kind == "dehn")
        assert (code, rep["outputs"]["k"]) == (0, str(k))
        assert (3**k > cd._BLOCK, splits, len(walks)) == (m == 7, [3 * m] if split else [], walked)
        assert sum(map(int, rep["outputs"]["weights"])) == 3**k


def test_code_budget_counts_each_summand(tmp_path, capsys):
    """The budget counts the words walked, per summand when the diagram is
    split, on either side of one walk block: the 6-fold and 7-fold trefoil
    sums [18, 7]_3 and [21, 8]_3 walk 3^2-word codes, so a budget of 9 gives
    their weights and a budget of 8 names a summand's 3^2.  A visibly prime
    diagram is walked whole, so its budget counts its own q^k."""
    for m in (6, 7):
        path = _trefoil_sum(tmp_path, capsys, m)
        argv = ["code", path, "--q", "3", "--t", "-1", "--min-dist", "--weights", "--budget"]
        code, out, err = run_cli(argv + ["8"], capsys)
        rep = json.loads(out)
        assert code == 4 and rep["outputs"]["d"] is None and "weights" not in rep["outputs"]
        assert rep["warnings"] == [
            "minimum distance needs 3^2 codewords > budget 8",
            "3^2 codewords exceed budget 8",
        ]
        code, out, err = run_cli(argv + ["9"], capsys)
        rep = json.loads(out)
        assert (code, rep["outputs"]["d"], rep["warnings"]) == (0, "2", [])
        assert sum(map(int, rep["outputs"]["weights"])) == 3 ** (m + 1)
    path = gen_file(tmp_path, capsys, "torus", "--a", "2", "--b", "9")
    code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--min-dist", "--budget", "8"], capsys)
    rep = json.loads(out)
    assert (code, rep["outputs"]["k"], rep["outputs"]["d"]) == (4, "2", None)
    assert rep["warnings"] == ["minimum distance needs 3^2 codewords > budget 8"]


def test_sum_over_an_extension_field_matches_the_sum_code(tmp_path, capsys):
    # the golden corpus has no extension-field sum
    from knotcode.codes import code_from_diagram, sum_code, weight_enumerator
    from knotcode.fields import FqField
    from knotcode.generators import builtin

    F4 = FqField(2, [1, 1, 1])
    names = ("trefoil", "figure_eight")
    files = [gen_file(tmp_path, capsys, "builtin", name, name=f"{name}.json") for name in names]
    c1, c2 = (code_from_diagram(builtin(name), F4, (0, 1)) for name in names)
    for pos1, pos2 in ((c1.n - 1, c2.n - 1), (0, 2)):
        argv = ["sum", *files, "--q", "4", "--modulus", "1,1,1", "--t", "alpha", "--weights"]
        code, out, err = run_cli(argv + ["--pos1", str(pos1), "--pos2", str(pos2)], capsys)
        assert (code, err) == (0, "")
        rep = json.loads(out)
        s = sum_code(c1, pos1, c2, pos2)
        assert rep["inputs"]["t"] == ["0", "1"] and rep["outputs"]["k"] == str(s.k)
        assert rep["outputs"]["weights"] == [str(a) for a in weight_enumerator(s).counts]


def test_sum_over_budget_reports_d_null(tmp_path, capsys):
    t = gen_file(tmp_path, capsys, "builtin", "trefoil", name="t.json")
    code, out, err = run_cli(["sum", t, t, "--q", "3", "--t", "-1", "--weights", "--budget", "2"], capsys)
    assert code == 4
    rep = json.loads(out)
    assert rep["outputs"]["d"] is None and "weights" not in rep["outputs"]
    assert rep["warnings"] == ["3^2 codewords exceed budget 2"]


def test_sum_records_the_t_one_warning_in_its_report(tmp_path, capsys):
    t = gen_file(tmp_path, capsys, "builtin", "trefoil", name="t.json")
    code, out, err = run_cli(["sum", t, t, "--q", "3", "--t", "1"], capsys)
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["warnings"] == ["t = 1: every coloring is constant, the code is the repetition code"]
    assert (rep["outputs"]["n"], rep["outputs"]["k"], rep["outputs"]["d"]) == ("6", "1", "6")


def test_batch_mode_streams_reports(tmp_path, capsys):
    gen_file(tmp_path, capsys, "builtin", "trefoil", name="a.json")
    gen_file(tmp_path, capsys, "builtin", "figure_eight", name="b.json")
    code, out, err = run_cli(["invariants", str(tmp_path)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    dets = [json.loads(line)["outputs"]["determinant"] for line in lines]
    assert dets == ["3", "5"]


def test_batch_check_over_directory(tmp_path, capsys):
    gen_file(tmp_path, capsys, "builtin", "trefoil", name="a.json")
    gen_file(tmp_path, capsys, "torus", "--a", "2", "--b", "5", name="b.json")
    gen_file(tmp_path, capsys, "pretzel", "3", "3", "3", name="c.json")
    code, out, err = run_cli(["check", str(tmp_path)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert all(json.loads(line)["outputs"]["ok"] for line in lines)


def test_check_reports_failed_and_raising_checks(tmp_path, capsys, monkeypatch):
    """A check that returns False and one that raises, the Alexander
    polynomial included, fail the report:
    exit 3, one report line with ok false, first_failure the first failing
    check, and a raised check named `name: message`."""
    from knotcode import codes, coloring

    path = gen_file(tmp_path, capsys, "builtin", "trefoil")

    def boom(*args, **kwargs):
        raise ValueError("no code today")

    monkeypatch.setattr(coloring, "first_minors_agree", lambda d: False)
    monkeypatch.setattr(codes, "code_from_diagram", boom)
    code, out, err = run_cli(["check", path], capsys)
    assert (code, err) == (3, "") and out.count("\n") == 1
    outputs = json.loads(out)["outputs"]
    failed = [c["name"] for c in outputs["checks"] if not c["ok"]]
    assert failed == [
        "fox_minors_agree_up_to_units",
        "dehn_kernel_exceeds_fox_by_one_F3: no code today",
        "dehn_kernel_exceeds_fox_by_one_F5: no code today",
    ]
    assert outputs["ok"] is False and outputs["first_failure"] == "fox_minors_agree_up_to_units"

    def no_alex(d):
        raise ValueError("no polynomial today")

    monkeypatch.setattr(coloring, "alexander_polynomial", no_alex)
    code, out, err = run_cli(["check", path], capsys)
    assert (code, err) == (3, "") and out.count("\n") == 1
    outputs = json.loads(out)["outputs"]
    failed = [c["name"] for c in outputs["checks"] if not c["ok"]]
    assert failed[0] == "alexander_value_at_1_is_unit: no polynomial today"
    assert outputs["ok"] is False and outputs["first_failure"] == failed[0]


def test_reports_are_deterministic(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "builtin", "trefoil")
    outs = []
    for _ in range(2):
        code, out, err = run_cli(["code", path, "--q", "3", "--t", "-1", "--min-dist", "--weights"], capsys)
        outs.append(out)
    assert outs[0] == outs[1]


def test_entry_point_subprocess(tmp_path):
    out1 = subprocess.run(RUN + ["gen", "builtin", "trefoil"], capture_output=True, text=True)
    assert out1.returncode == 0
    path = tmp_path / "t.json"
    path.write_text(out1.stdout)
    out2 = subprocess.run(RUN + ["check", str(path)], capture_output=True, text=True)
    assert out2.returncode == 0, out2.stdout + out2.stderr
    assert json.loads(out2.stdout)["outputs"]["ok"] is True
