"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time (run with -s to watch them stream).

Every expected value here is either computed by an independent oracle in
this file / oracles.py or is a frozen published constant; tolerances are
exact equality throughout, plus the stated wall-clock ceilings.
"""

import math
import random
import time

from knotcode.laurent import ONE, T, ZERO
from knotcode.fields import FqField, IntMod
from knotcode.generators import builtin, connected_sum, pretzel_diagram, torus_diagram
from knotcode.coloring import (
    alexander_polynomial,
    count_colorings,
    is_colorable,
    knot_determinant,
)
from knotcode.codes import (
    code_from_diagram,
    dual_knot_feasibility,
    min_distance,
    sum_code,
    tied_weight_enumerator,
)
from knotcode.cable import cable_dimensions, iterated_cable_length
from knotcode.exactlin import dense

from moves import random_move
from oracles import count_colorings_brute, minor_family, sparse_rows, unit_ratio, walked_weights

F3 = FqField(3)
F4 = FqField(2, [1, 1, 1])
F5 = FqField(5)
F7 = FqField(7)


class _clock:
    def __init__(self, criterion, limit):
        self.criterion, self.limit = criterion, limit

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.criterion}] {status} in {elapsed:.2f}s (limit {self.limit}s)")
        assert elapsed < self.limit, f"criterion {self.criterion} exceeded {self.limit}s"


def test_criterion_1_golden_matrices():
    with _clock(1, 1.0):
        trefoil = builtin("trefoil")
        assert dense(trefoil.fox_rows, trefoil.arc_count, ZERO) == [
            [ONE - T, T, -ONE],
            [-ONE, ONE - T, T],
            [T, -ONE, ONE - T],
        ]
        assert dense(trefoil.dehn_rows, trefoil.region_count, ZERO) == [
            [ONE, -T, -ONE, T, ZERO],
            [ONE, -ONE, ZERO, T, -T],
            [ONE, ZERO, -T, T, -ONE],
        ]
        # the published figure-eight matrix carries the rows scaled by -1
        fig8 = builtin("figure_eight")
        fig8_rows = dense(fig8.fox_rows, fig8.arc_count, ZERO)
        assert [[-e.eval_int(-1) for e in row] for row in fig8_rows] == [
            [1, 1, -2, 0],
            [0, 1, 1, -2],
            [-2, 0, 1, 1],
            [1, -2, 0, 1],
        ]


def test_criterion_2_alexander_and_determinants():
    cases = [
        ("trefoil", builtin("trefoil"), ONE - T + T * T, 3),
        ("figure_eight", builtin("figure_eight"), None, 5),
        ("pretzel_3235", pretzel_diagram([3, 2, 3, 5]), None, 123),
        ("trefoil#figure_eight", connected_sum(builtin("trefoil"), 2, builtin("figure_eight"), 3), None, 15),
    ]
    for name, d, delta, det in cases:
        with _clock(f"2:{name}", 1.0):
            if delta is not None:
                assert alexander_polynomial(d) == delta
            assert knot_determinant(d) == det


def test_criterion_3_torus_formula():
    with _clock(3, 10.0):
        from knotcode.cable import torus_alexander

        for a in range(1, 5):
            for b in range(1, 10):
                if math.gcd(a, b) != 1:
                    continue
                d = torus_diagram(a, b)
                assert alexander_polynomial(d) == torus_alexander(a, b)
                value = abs(torus_alexander(a, b).eval_int(-1))
                if a % 2 and b % 2:
                    assert value == 1
                elif a % 2 == 0:
                    assert value == b
                else:
                    assert value == a


def test_criterion_4_code_parameters():
    with _clock(4, 30.0):
        c = code_from_diagram(builtin("trefoil"), F3, -1)
        assert (c.n, c.k, min_distance(c)) == (3, 2, 2)
        assert set(c.codewords()) == {
            (0, 0, 0), (0, 1, 2), (0, 2, 1),
            (1, 0, 2), (1, 2, 0), (1, 1, 1),
            (2, 0, 1), (2, 1, 0), (2, 2, 2),
        }
        assert code_from_diagram(torus_diagram(2, 9), F3, -1).k == 2
        # 3^2 divides the determinant 9, so the valuation bound 1+e = 3 is strict
        assert knot_determinant(torus_diagram(2, 9)) == 9
        for p, field in ((3, F3), (5, F5), (7, F7)):
            cp = code_from_diagram(pretzel_diagram([p, p, p]), field, -1)
            assert (cp.n, cp.k, min_distance(cp)) == (3 * p, 3, 2 * p - 2)
        granny = connected_sum(builtin("trefoil"), 2, builtin("trefoil"), 2)
        cg = code_from_diagram(granny, F3, -1)
        assert (cg.n, cg.k, min_distance(cg)) == (6, 3, 2)


def test_criterion_5_colorability_table():
    with _clock(5, 5.0):
        trefoil = builtin("trefoil")
        assert not is_colorable(trefoil, IntMod(4), -1)
        assert is_colorable(trefoil, F4, [0, 1])
        assert is_colorable(trefoil, F7, 3)
        for m, expected in ((3, 9), (4, 4), (9, 27)):
            assert count_colorings(trefoil, IntMod(m), -1) == expected
            assert count_colorings_brute(trefoil, m, -1) == expected


# the connected-sum matrix printed for trefoil # figure-eight (rows carry
# the usual -1 scaling); strand order x1, x2, s, y1, y2, y3, s'
PUBLISHED_SUM_MATRIX = [
    [1, 1, -2, 0, 0, 0, 0],
    [-2, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, -2, 0, 0],
    [0, 0, 0, 1, 1, -2, 0],
    [0, 0, -2, 0, 1, 1, 0],
    [0, 0, 0, -2, 0, 1, 1],
    [1, -2, 0, 0, 0, 0, 1],
]


def test_criterion_6_connected_sum_calculus():
    with _clock(6, 60.0):
        trefoil, fig8 = builtin("trefoil"), builtin("figure_eight")
        for field in (F3, F5):
            c1 = code_from_diagram(trefoil, field, -1)
            c2 = code_from_diagram(fig8, field, -1)
            s = sum_code(c1, 2, c2, 3)
            # parity is literally the block assembly with the tying row:
            # the second block's columns shift by the first code's length
            assert s.parity[: len(c1.parity)] == c1.parity
            assert s.parity[len(c1.parity) : -1] == tuple(tuple((3 + j, x) for j, x in r) for r in c2.parity)
            link = dict(s.parity[-1])
            assert link == {2: field.element(1), 6: field.neg(field.element(1))}
            # same code as the published 7x7 sum matrix
            published = tuple(
                tuple(field.element(x) for x in row) for row in PUBLISHED_SUM_MATRIX
            )
            from knotcode.codes import LinearCode

            pub = LinearCode(field, 7, sparse_rows(published))
            assert set(pub.codewords()) == set(s.codewords())
            assert s.k == c1.k + c2.k - 1

        rng = random.Random(20260808)
        pool = [
            builtin("trefoil"),
            builtin("figure_eight"),
            torus_diagram(2, 5),
            torus_diagram(2, 7),
            torus_diagram(3, 4),
            pretzel_diagram([3, 3, 3]),
            pretzel_diagram([3, 2, 3]),
            pretzel_diagram([-1, -1, -1]),
            connected_sum(builtin("trefoil"), 0, builtin("trefoil"), 0),
        ]
        fields = [F3, F5, F7]
        checked = 0
        while checked < 200:
            d1, d2 = rng.choice(pool), rng.choice(pool)
            field = rng.choice(fields)
            c1 = code_from_diagram(d1, field, -1)
            c2 = code_from_diagram(d2, field, -1)
            pos1, pos2 = rng.randrange(c1.n), rng.randrange(c2.n)
            s = sum_code(c1, pos1, c2, pos2)
            if field.q**s.k > 10**5:
                continue
            assert s.k == c1.k + c2.k - 1  # dimension identity
            formula_w = tied_weight_enumerator([c1, c2], [(0, pos1, 1, pos2)])
            assert formula_w.min_weight() == min_distance(s)  # minimum-distance theorem
            assert formula_w.counts == walked_weights(s).counts
            checked += 1


def test_criterion_7_invariant_suites():
    with _clock(7, 120.0):
        samples = [
            builtin("trefoil"),
            builtin("figure_eight"),
            torus_diagram(2, 5),
            torus_diagram(2, 7),
            torus_diagram(3, 4),
            torus_diagram(3, 5),
            pretzel_diagram([3, 3, 3]),
            pretzel_diagram([3, 2, 3, 5]),
        ]
        for d in samples:
            delta = alexander_polynomial(d)
            for row in dense(d.fox_rows, d.arc_count, ZERO):
                total = ZERO
                for e in row:
                    total = total + e
                assert total.is_zero
            for m in minor_family(d, "fox", 1):
                assert abs(m.eval_int(1)) == 1  # principal minors are units at 1
                assert unit_ratio(m, delta) is not None  # agree up to +-T^s
            for field in (F3, F5):
                cfox = code_from_diagram(d, field, -1)
                cdehn = code_from_diagram(d, field, -1, kind="dehn")
                assert cdehn.k == cfox.k + 1
                assert 1 <= cfox.k <= (cfox.n + 1) / 2
                dist = min_distance(cfox)
                if cfox.k >= 2:
                    assert dist >= 2
                assert cfox.k <= cfox.n - dist + 1  # Singleton

        # dimension invariance under 1000 random twist/poke sequences per built-in
        rng = random.Random(1)
        for name in ("trefoil", "figure_eight", "unknot"):
            base = builtin(name)
            k0 = code_from_diagram(base, F3, -1).k
            for _ in range(1000):
                d = base
                for _ in range(4):
                    d = random_move(d, rng)
                    assert code_from_diagram(d, F3, -1).k == k0

        # reduced alternating diagrams with prime determinant p: [n, 2, n-1]_p
        kh_cases = [
            (builtin("trefoil"), F3),
            (builtin("figure_eight"), F5),
            (torus_diagram(2, 5), F5),
            (torus_diagram(2, 7), F7),
        ]
        for d, field in kh_cases:
            p = knot_determinant(d)
            assert field.q == p and field.a == 1
            c = code_from_diagram(d, field, -1)
            assert (c.n, c.k, min_distance(c)) == (d.n, 2, d.n - 1)


def test_criterion_8_cable_calculus():
    with _clock(8, 1.0):
        for p, field in ((3, F3), (5, F5)):
            stages = cable_dimensions(builtin("unknot"), field, -1, [(2, p)] * 4)
            assert [k for _, _, k in stages] == [1, 2, 3, 4, 5]
            lengths = [iterated_cable_length(p, m) for m in range(1, 5)]
            expect = [3]
            while len(expect) < 4:
                expect.append(4 * expect[-1] + p)
            assert lengths == expect


def test_criterion_9_dual_feasibility():
    with _clock(9, 1.0):
        c8 = code_from_diagram(builtin("figure_eight"), F5, -1)
        assert dual_knot_feasibility(c8).ruled_out
        pieces = [builtin("trefoil"), builtin("figure_eight"), torus_diagram(2, 5)]
        for parts in ([0, 0, 0, 0], [0, 1, 2, 0], [2, 1, 0, 1]):
            d = pieces[parts[0]]
            for i in parts[1:]:
                d = connected_sum(d, 0, pieces[i], 0)
            c = code_from_diagram(d, F3, -1)
            assert dual_knot_feasibility(c, component_count=4).ruled_out
