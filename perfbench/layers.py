"""Which knotcode names the traced run wraps, and the per-layer metrics
read back from the spans and counts."""

from __future__ import annotations

from tracer import Tracer


def _snf_layer(args):
    return "exactlin.snf_z" if getattr(args[1], "name", "") == "Z" else "exactlin.snf_fpt"


def _cells(rows):
    return len(rows) * (len(rows[0]) if rows else 0)


def _observe_rref(tr, args, result):
    tr.add("exactlin.rref_cells", _cells(args[1]))


def _observe_snf(tr, args, result):
    tr.add("exactlin.snf_cells", _cells(args[0]))


def _observe_bareiss(tr, args, result):
    tr.high("exactlin.bareiss_max_order", len(args[0]))


def _observe_matrix(tr, args, result):
    rows = getattr(result, "entries", result)
    tr.add("coloring.matrix_cells", sum(len(row) for row in rows))
    tr.add("coloring.matrix_nnz", sum(1 for row in rows for e in row if e))


def _observe_codewords(tr, args, result):
    if result is not None:  # None: over budget, nothing enumerated
        tr.add("codes.codewords", args[0].q ** args[0].k)


SPANS = (
    ("knotcode.cli", "main", "cli", None),
    ("knotcode.cli", "load_diagram", "diagram.load", None),
    ("knotcode.cli", "emit", "cli.emit", None),
    ("knotcode.cli", "snf", _snf_layer, _observe_snf),
    ("knotcode.coloring", "fox_matrix", "coloring.matrix", _observe_matrix),
    ("knotcode.coloring", "dehn_matrix", "coloring.matrix", _observe_matrix),
    ("knotcode.coloring", "fox_rows_int", "coloring.matrix", _observe_matrix),
    ("knotcode.coloring", "alexander_polynomial", "coloring", None),
    ("knotcode.coloring", "count_colorings_mod", "coloring", None),
    ("knotcode.coloring", "count_colorings_poly_mod", "coloring", None),
    ("knotcode.coloring", "minor_family", "coloring", None),
    ("knotcode.coloring", "snf", _snf_layer, _observe_snf),
    ("knotcode.coloring", "laurent_det", "exactlin.bareiss", _observe_bareiss),
    ("knotcode.coloring", "minor_dets", "exactlin.minor_dets", None),
    ("knotcode.codes", "fox_rows_at", "coloring.matrix", _observe_matrix),
    ("knotcode.codes", "dehn_rows_at", "coloring.matrix", _observe_matrix),
    ("knotcode.codes", "kernel_basis", "exactlin.kernel", None),
    ("knotcode.codes", "min_distance", "codes.enumerate", _observe_codewords),
    ("knotcode.codes", "weight_enumerator", "codes.enumerate", _observe_codewords),
    ("knotcode.codes", "sum_min_distance", "codes.sum", None),
    ("knotcode.codes", "sum_weight_enumerator", "codes.sum", None),
    ("knotcode.codes", "ldpc_profile", "codes.profile", None),
    ("knotcode.codes", "dual_knot_feasibility", "codes.profile", None),
    # module globals: also caught when kernel_basis, rank and minor_dets call them
    ("knotcode.exactlin", "rref", "exactlin.rref", _observe_rref),
    ("knotcode.exactlin", "laurent_det", "exactlin.bareiss", _observe_bareiss),
    ("knotcode.cable", "fox_rows_at", "coloring.matrix", _observe_matrix),
    ("knotcode.cable", "rank", "exactlin.kernel", None),
    ("knotcode.cable", "ideal_seq_from_diagram", "cable", None),
    ("knotcode.cable", "cable_ideal_seq", "cable", None),
    ("knotcode.cable", "torus_delta", "cable", None),
    # called by the benchmark's own set-up
    ("knotcode.generators", "builtin", "generators", None),
    ("knotcode.generators", "torus_diagram", "generators", None),
    ("knotcode.generators", "pretzel_diagram", "generators", None),
    ("knotcode.generators", "from_braid", "generators", None),
    ("knotcode.generators", "connected_sum", "generators", None),
)

COUNTS = (
    ("knotcode.laurent", "LaurentPoly.__mul__", "laurent.mul_calls"),
    ("knotcode.laurent", "LaurentPoly.__add__", "laurent.addsub_calls"),
    ("knotcode.laurent", "LaurentPoly.__sub__", "laurent.addsub_calls"),
    ("knotcode.laurent", "LaurentPoly.exact_div", "laurent.exact_div_calls"),
    ("knotcode.fields", "FqField.mul", "fields.mul_calls"),
    ("knotcode.fields", "FqField.add", "fields.addsub_calls"),
    ("knotcode.fields", "FqField.sub", "fields.addsub_calls"),
    ("knotcode.fields", "FqField.neg", "fields.addsub_calls"),
    ("knotcode.fields", "FqField.inv", "fields.inv_calls"),
    ("knotcode.fields", "fp_divmod", "fields.fp_divmod_calls"),
)


def install(tracer: Tracer):
    for module, attr, layer, observe in SPANS:
        tracer.span(module, attr, layer, observe)
    for module, attr, counter in COUNTS:
        tracer.count(module, attr, counter)


def metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (times are self times unless
    the name says otherwise in the benchmark's documentation)."""
    own = tracer.self_times()
    total = tracer.total_times()
    calls = tracer.calls()
    counts = tracer.counts

    def s(layer):
        return own.get(layer, 0.0)

    def ms(layer):
        return 1e3 * own.get(layer, 0.0)

    codewords = counts.get("codes.codewords", 0)
    out = {
        "exactlin.rref_s": s("exactlin.rref"),
        "exactlin.rref_calls": calls.get("exactlin.rref", 0),
        "exactlin.rref_cells": counts.get("exactlin.rref_cells", 0),
        "exactlin.snf_z_s": s("exactlin.snf_z"),
        "exactlin.snf_fpt_s": s("exactlin.snf_fpt"),
        "exactlin.snf_cells": counts.get("exactlin.snf_cells", 0),
        "exactlin.bareiss_s": s("exactlin.bareiss"),
        "exactlin.bareiss_calls": calls.get("exactlin.bareiss", 0),
        "exactlin.bareiss_max_order": tracer.maxima.get("exactlin.bareiss_max_order", 0),
        "exactlin.minor_dets_ms": 1e3 * total.get("exactlin.minor_dets", 0.0),
        "coloring.matrix_ms": ms("coloring.matrix"),
        "coloring.matrix_cells": counts.get("coloring.matrix_cells", 0),
        "coloring.matrix_nnz": counts.get("coloring.matrix_nnz", 0),
        "coloring.self_ms": ms("coloring"),
        "codes.enumerate_s": s("codes.enumerate"),
        "codes.codewords": codewords,
        "codes.us_per_codeword": 1e6 * s("codes.enumerate") / codewords if codewords else 0.0,
        "codes.sum_ms": 1e3 * total.get("codes.sum", 0.0),
        "codes.profile_ms": ms("codes.profile"),
        "cable.seq_ms": ms("cable"),
        "diagram.load_ms": ms("diagram.load"),
        "generators.build_ms": ms("generators"),
        "cli.self_ms": ms("cli"),
        "cli.emit_ms": ms("cli.emit"),
        "cli.reports": calls.get("cli", 0),
    }
    for name in ("laurent.mul_calls", "laurent.addsub_calls", "laurent.exact_div_calls",
                 "fields.mul_calls", "fields.addsub_calls", "fields.inv_calls", "fields.fp_divmod_calls"):
        out[name] = counts.get(name, 0)
    return out


def shares(tracer: Tracer) -> dict:
    """Each layer's self time as a share of all cli.main time."""
    whole = tracer.total_times().get("cli", 0.0)
    own = tracer.self_times()
    return {layer: t / whole for layer, t in sorted(own.items()) if layer != "generators" and whole}


def unit(name: str) -> str:
    for suffix, u in (("_ms", "ms"), ("_s", "s"), ("us_per_codeword", "us"), ("_frac", "fraction")):
        if name.endswith(suffix):
            return u
    return "count"
