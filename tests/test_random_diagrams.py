"""Property suite over hypothesis-generated braid closures: the counting
lemma, coloring-matrix structure, and code bounds on arbitrary valid
diagrams rather than the curated families."""

import math
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from knotcode.generators import (
    builtin,
    connected_sum,
    from_braid,
    is_pretzel_knot,
    pretzel_diagram,
    split_sum,
    torus_diagram,
)
from knotcode.fields import FqField, IntMod, PolyMod, RingLaurent
from knotcode.laurent import ZERO
from knotcode.coloring import alexander_polynomial, count_colorings, first_minors_agree
from knotcode.diagram import LEFT, RIGHT, Diagram, DiagramError
from knotcode.exactlin import dense, echelon, unit_residual
from knotcode.codes import (
    code_from_diagram,
    min_distance,
    sum_code,
    tied_weight_enumerator,
    weight_enumerator,
)

from conftest import small_diagrams
from moves import ADD_LEFT_TWIST, ADD_RIGHT_TWIST, canonical_key, random_move, reidemeister_r1, surgery_sum
from oracles import (
    arcs_by_union_find,
    bareiss_det,
    count_colorings_brute,
    count_colorings_poly_brute,
    dehn_rows_by_sums,
    first_minors_agree_brute,
    fox_rows_by_sums,
    poly_mulmod,
    rank_dense,
    regions_by_union_find,
    sparse_det,
    walked_weights,
)

F3 = FqField(3)
F5 = FqField(5)
F4 = FqField(2, [1, 1, 1])
# the fields and t of the sum tests: F_3 and F_5 at -1, F_4 at a root alpha of x^2 + x + 1
FIELDS_T = [(F3, -1), (F5, -1), (F4, (0, 1))]


def _cycle_of(word, k: int) -> list[int]:
    """The closure component of each braid position 0..k-1: a cycle label
    of the word's permutation."""
    perm = list(range(k))
    for letter in word:
        i = abs(letter)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    label = [-1] * k
    for start in range(k):
        j = start
        while label[j] < 0:
            label[j] = start
            j = perm[j]
    return label


@st.composite
def braid_diagrams(draw, max_strands=4, max_len=8):
    """Closures of braid words of at most max_len letters that are knots by
    construction: while the permutation has more than one cycle, a letter
    +-s_i whose positions i, i+1 lie in different cycles joins two of them."""
    k = draw(st.integers(2, max_strands))
    length = draw(st.integers(0, max_len - (k - 1)))
    word = [draw(st.integers(1, k - 1)) * draw(st.sampled_from((1, -1))) for _ in range(length)]
    while len(set(label := _cycle_of(word, k))) > 1:
        joins = [i for i in range(1, k) if label[i - 1] != label[i]]
        word.append(draw(st.sampled_from(joins)) * draw(st.sampled_from((1, -1))))
    return from_braid(k, word)


def _moved(d, moves: int, seed: int):
    rng = random.Random(seed)
    for _ in range(moves):
        d = random_move(d, rng)
    return d


# built families and braid closures, each after up to four random Reidemeister moves
summands = st.builds(
    _moved,
    st.one_of(st.sampled_from([builtin("unknot"), *small_diagrams()]), braid_diagrams()),
    st.integers(0, 4),
    st.integers(0, 2**32),
)


@settings(max_examples=150, deadline=None)
@given(summands, summands, st.data())
def test_connected_sum_is_the_surgery_splice(d1, d2, data):
    """The direct splice of generators.connected_sum equals the one that
    moves._Surgery makes of both diagrams, as a Diagram and as JSON text,
    at random arcs of each summand."""
    arc1 = data.draw(st.integers(0, d1.arc_count - 1), label="arc1")
    arc2 = data.draw(st.integers(0, d2.arc_count - 1), label="arc2")
    s, ref = connected_sum(d1, arc1, d2, arc2), surgery_sum(d1, arc1, d2, arc2)
    assert s == ref and s.dumps() == ref.dumps()
    assert s.n == d1.n + d2.n


@st.composite
def pretzels(draw):
    """Pretzel knots P(p_1, ..., p_m), m = 2..4, twists of both signs."""
    twists = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=2, max_size=4))
    assume(is_pretzel_knot(twists))
    return pretzel_diagram(twists)


@st.composite
def sums(draw):
    """Connected sums of 2-6 small summands at random arcs."""
    part = st.sampled_from(small_diagrams()[:5]) | braid_diagrams(max_strands=3, max_len=5)
    parts = draw(st.lists(part, min_size=2, max_size=6))
    d = parts[0]
    for part in parts[1:]:
        arc1 = draw(st.integers(0, d.arc_count - 1))
        arc2 = draw(st.integers(0, part.arc_count - 1))
        d = connected_sum(d, arc1, part, arc2)
    return d


@st.composite
def moved_sums(draw):
    """Connected sums after 1-4 random Reidemeister moves, which can poke
    one summand's strand across another's and hide their splice."""
    d = draw(sums())
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(draw(st.integers(1, 4))):
        d = random_move(d, rng, max_crossings=d.n + 2)
    return d


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        braid_diagrams(max_strands=5, max_len=12),
        summands,
        pretzels(),
        sums(),
        moved_sums(),
    )
)
def test_alexander_polynomial_vs_whole_minor(d):
    """Delta as the product of the visible summands' determinants against
    the modular determinant of the whole (1,1) Fox minor and against
    Bareiss elimination over Z[T], on braid closures, Reidemeister-moved
    diagrams, mixed-sign pretzels, connected sums, and connected sums after
    Reidemeister moves, where a visible summand can hold several prime
    summands."""
    minor = [tuple((c - 1, e) for c, e in row if c) for row in d.fox_rows[1:]]
    delta = alexander_polynomial(d)
    assert delta == sparse_det(minor).alexander_normalized()
    assert delta == bareiss_det(dense(minor, d.arc_count - 1, ZERO)).alexander_normalized()


@settings(max_examples=60, deadline=None)
@given(braid_diagrams())
def test_counting_lemma(d):
    assert len(set(d.arcs.values())) == d.n
    assert len(set(d.regions.values())) == d.n + 2


@settings(max_examples=150, deadline=None)
@given(st.one_of(braid_diagrams(max_strands=6, max_len=20), summands))
def test_arcs_vs_union_find(d):
    """The arcs cut from the edge cycle against a union-find over the
    over-passages, on braid closures and Reidemeister-moved diagrams; each
    arc's edges come back ascending, so connected_sum splices at the arc's
    smallest edge."""
    assert d.arcs == arcs_by_union_find(d)
    for arc in range(d.arc_count):
        edges = d.arc_edges(arc)
        assert edges == sorted(edges) == sorted(e for e, a in d.arcs.items() if a == arc)
    assert d.arc_edges(d.arc_count) == [] and d.arc_edges(-1) == []


@st.composite
def twisted(draw):
    """Braid closures, pretzels or the unknot with 1-3 Reidemeister I kinks
    at random arcs: a kink's crossing has its overstrand on one of its
    understrands and one region in two quadrants, so roles share a column."""
    d = draw(st.one_of(st.just(builtin("unknot")), braid_diagrams(), pretzels()))
    for _ in range(draw(st.integers(1, 3))):
        arc = draw(st.integers(0, d.arc_count - 1))
        d = reidemeister_r1(d, arc, draw(st.sampled_from((ADD_LEFT_TWIST, ADD_RIGHT_TWIST))))
    return d


torus_knots = st.builds(
    torus_diagram,
    st.integers(2, 4),
    st.integers(-13, 13).filter(lambda b: b and b % 2 and b % 3),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.sampled_from([builtin("unknot"), from_braid(2, [1]), from_braid(2, [-1])]),
        braid_diagrams(max_strands=6, max_len=20),
        pretzels(),
        torus_knots,
        sums(),
        summands,
        moved_sums(),
        twisted(),
    )
)
def test_regions_and_rows_vs_oracles(d):
    """The dart-indexed regions and the rows that add only roles sharing a
    column against a union-find over the quadrants at each crossing and
    sums of every role from ZERO, on 0- and 1-crossing diagrams, braid
    closures, pretzels, torus knots, connected sums, Reidemeister-moved
    diagrams and kinked ones."""
    regions = regions_by_union_find(d)
    assert d.regions == regions
    assert d.fox_rows == fox_rows_by_sums(d)
    assert d.dehn_rows == dehn_rows_by_sums(d)
    for e in range(2 * d.n):
        assert d.side_regions(e) == (regions[(e, LEFT)], regions[(e, RIGHT)])
    assert d.outer_region == (regions[d.outer] if d.n else 1)


@st.composite
def corrupted(draw):
    """(crossings, outer) of a braid closure with one slot id, one sign or
    the outer marker redrawn, in range or just outside it."""
    d = draw(braid_diagrams())
    crossings, outer = list(d.crossings), d.outer
    part = draw(st.sampled_from(("slot", "sign", "outer")))
    if part == "outer":
        edge = st.integers(-1, 2 * d.n)
        outer = draw(st.none() | st.tuples(edge, st.sampled_from((LEFT, RIGHT, "up"))))
    else:
        ci = draw(st.integers(0, d.n - 1))
        if part == "sign":
            change = {"sign": draw(st.sampled_from((-2, -1, 0, 1, 2)))}
        else:
            slot = draw(st.sampled_from(("under_in", "under_out", "over_in", "over_out")))
            change = {slot: draw(st.integers(-1, 2 * d.n))}
        crossings[ci] = crossings[ci]._replace(**change)
    return tuple(crossings), outer


@settings(max_examples=300, deadline=None)
@given(corrupted())
def test_constructor_admits_only_whole_diagrams(case):
    """A corrupted diagram is refused at construction, or every structure
    read from it is whole: n arcs, n + 2 regions, both coloring matrices
    and the region index."""
    try:
        d = Diagram(*case)
    except DiagramError:
        return
    assert len(set(d.arcs.values())) == d.n
    assert len(set(d.regions.values())) == d.n + 2
    d.fox_rows
    d.dehn_rows
    d.region_index  # raises unless every edge steps the index by one


@settings(max_examples=60, deadline=None)
@given(braid_diagrams())
def test_fox_matrix_structure(d):
    if d.n == 0:
        return
    delta = alexander_polynomial(d)
    assert abs(delta.eval_int(1)) == 1
    for row in dense(d.fox_rows, d.arc_count, ZERO):
        total = ZERO
        weight = 0
        for e in row:
            total = total + e
            weight += not e.is_zero
        assert total.is_zero
        assert weight <= 3


@settings(max_examples=40, deadline=None)
@given(braid_diagrams())
def test_checkerboard_and_index(d):
    colors = d.checkerboard
    idx = d.region_index
    for e in range(2 * d.n):
        l, r = d.side_regions(e)
        assert colors[l] != colors[r]
        assert idx[l] - idx[r] == 1


@settings(max_examples=40, deadline=None)
@given(braid_diagrams(max_len=6), st.integers(0, 3), st.integers(0, 2**32))
def test_first_minor_identity_vs_all_minors(d, moves, seed):
    """The left-kernel identity against all n^2 first minors, on braid
    closures with mixed signs, also after random Reidemeister moves."""
    rng = random.Random(seed)
    for _ in range(moves):
        d = random_move(d, rng, max_crossings=7)
    assume(d.n >= 1)
    assert first_minors_agree(d) == first_minors_agree_brute(d)


@settings(max_examples=40, deadline=None)
@given(braid_diagrams(), st.sampled_from([F3, F5]))
def test_code_bounds(d, field):
    c = code_from_diagram(d, field, -1)
    assert 1 <= c.k <= (c.n + 1) / 2
    assert c.contains([field.element(1)] * c.n)
    dist = min_distance(c)
    assert c.k <= c.n - dist + 1
    if c.k >= 2:
        assert dist >= 2


# F_2, F_3, F_5, F_7, F_9 = F_3[x]/(x^2 + 1) and F_16 = F_2[x]/(x^4 + x + 1)
CODE_FIELDS = [FqField(2), F3, F5, FqField(7), FqField(3, [1, 0, 1]), FqField(2, [1, 1, 0, 0, 1])]
knots = st.one_of(braid_diagrams(max_strands=6, max_len=16), summands, pretzels())


@pytest.mark.filterwarnings("ignore:t = 1")
@settings(max_examples=150, deadline=None)
@given(knots, st.sampled_from(CODE_FIELDS), st.sampled_from(["fox", "dehn"]), st.data())
def test_dimension_is_length_less_rank(d, field, kind, data):
    """k, read first on a fresh code, is n less the rank of its parity rows,
    sparse and by dense Gauss-Jordan, and the size of the kernel basis
    built after it."""
    t = data.draw(st.integers(1, field.q - 1), label="t")
    c = code_from_diagram(d, field, field.decode(t), kind)
    k = c.k
    dense_rank = rank_dense(field, dense(c.parity, c.n, 0)) if c.parity else 0
    assert k == c.n - len(echelon(field, c.parity)) == c.n - dense_rank == len(c.generator)


@settings(max_examples=40, deadline=None)
@given(knots)
def test_fox_dimension_at_most_residual_plus_one(d):
    """The unit pivots +-T^j of the Fox minor (row and column 0 left out)
    stay units in F_p at every t != 0, so the Fox code has k <= r + 1, r
    the free columns that unit-pivot elimination over Z[T, T^-1] leaves."""
    minor = [tuple((c - 1, e) for c, e in row if c) for row in d.fox_rows[1:]]
    r = unit_residual(RingLaurent(), minor, d.arc_count - 1)[0]
    for p in (3, 5, 7, 11, 13):
        field = FqField(p)
        for t in range(2, p):
            assert code_from_diagram(d, field, t).k <= r + 1, (p, t)


@settings(max_examples=25, deadline=None)
@given(braid_diagrams(max_strands=3, max_len=6), st.integers(2, 7))
def test_coloring_count_vs_enumeration(d, m):
    assume(d.n <= 6)
    t = m - 1
    assume(math.gcd(m, t) == 1)
    assert count_colorings(d, IntMod(m), t) == count_colorings_brute(d, m, t)


@settings(max_examples=40, deadline=None)
@given(braid_diagrams(max_strands=3, max_len=5), st.sampled_from([6, 10, 12]), st.data())
def test_coloring_count_vs_enumeration_two_prime_moduli(d, m, data):
    # composite m: unit-pivot elimination over Z/m leaves non-unit rows to
    # the Smith form
    assume(m ** d.arc_count <= 12**4)
    t = data.draw(st.sampled_from([t for t in range(1, m) if math.gcd(m, t) == 1]))
    assert count_colorings(d, IntMod(m), t) == count_colorings_brute(d, m, t)


# (p, f) with p^deg f <= 9, ascending coefficients; reducible ones included
POLY_MODULI = [
    (2, (1, 1)),
    (2, (1, 1, 1)),
    (2, (1, 0, 1)),  # (T+1)^2
    (2, (0, 1, 1)),  # T(T+1)
    (2, (1, 0, 0, 1)),  # (T+1)(T^2+T+1)
    (3, (1, 0, 1)),
    (3, (1, 2, 1)),  # (T+1)^2
    (3, (0, 2, 1)),  # T(T+2)
    (5, (2, 1)),
    (7, (3, 1)),
]


@settings(max_examples=40, deadline=None)
@given(braid_diagrams(max_strands=3, max_len=4), st.sampled_from(POLY_MODULI), st.data())
def test_poly_coloring_count_vs_enumeration(d, ring, data):
    p, f = ring
    deg = len(f) - 1
    t = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=deg + 1)))
    # t must be a unit of F_p[T]/(f): some residue u has t*u = 1
    one = poly_mulmod((1,), (1,), p, f)
    units = product(range(p), repeat=deg)
    assume(any(poly_mulmod(t, u, p, f) == one for u in units))
    assert count_colorings(d, PolyMod(p, f), t) == count_colorings_poly_brute(d, p, f, t)


# -- connected sums cut back into summands ------------------------------------------


def _key_up_to_outer(d):
    """moves.canonical_key, least over the choice of unbounded face: a
    summand keeps its diagram on the sphere, but a connected sum keeps only
    the first diagram's outer marker."""
    if d.n == 0:
        return canonical_key(d)
    faces = {}
    for tok, r in d.regions.items():
        faces.setdefault(r, tok)
    return min(canonical_key(Diagram(d.crossings, tok)) for tok in faces.values())


def _summand_keys(d):
    return sorted(_key_up_to_outer(p) for p in split_sum(d)[0] if p.n)


@settings(max_examples=100, deadline=None)
@given(summands, summands, st.data())
def test_split_gives_back_the_summands(d1, d2, data):
    """split_sum(connected_sum(d1, a1, d2, a2)) is the split of d1 with the
    split of d2, up to relabeling and the unbounded face, on built families
    and braid closures after random Reidemeister moves (which may add kink
    summands)."""
    arc1 = data.draw(st.integers(0, d1.arc_count - 1), label="arc1")
    arc2 = data.draw(st.integers(0, d2.arc_count - 1), label="arc2")
    assert _summand_keys(connected_sum(d1, arc1, d2, arc2)) == sorted(_summand_keys(d1) + _summand_keys(d2))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(small_diagrams()), braid_diagrams()),
    st.one_of(st.sampled_from(small_diagrams()), braid_diagrams()),
    st.sampled_from(FIELDS_T),
    st.data(),
)
def test_sum_formula_on_the_diagram_sum(d1, d2, field_t, data):
    """The paper's sum code, pinned on the knot it describes: the walk of
    the Fox code of connected_sum(d1, a1, d2, a2) counts the weights that
    tied_weight_enumerator gives for the summands' codes tied at a1 and a2."""
    field, t = field_t
    arc1 = data.draw(st.integers(0, d1.arc_count - 1), label="arc1")
    arc2 = data.draw(st.integers(0, d2.arc_count - 1), label="arc2")
    c1, c2 = code_from_diagram(d1, field, t), code_from_diagram(d2, field, t)
    whole = code_from_diagram(connected_sum(d1, arc1, d2, arc2), field, t)
    assert walked_weights(whole) == tied_weight_enumerator([c1, c2], [(0, arc1, 1, arc2)])


@st.composite
def long_sums(draw, moves: bool):
    """Connected sums of up to 12 summands at random arcs whose Fox code
    over a drawn field has at most 3^9 words, so the walk can check them (a
    drawn summand that would pass that is left out); with moves, the sum
    is then moved by one to four Reidemeister moves."""
    field, t = draw(st.sampled_from(FIELDS_T))
    part = st.sampled_from(small_diagrams()) | braid_diagrams(max_strands=3, max_len=5)
    d = draw(part)
    k = code_from_diagram(d, field, t).k
    for _ in range(draw(st.integers(1, 11))):
        nxt = draw(part)
        arc1 = draw(st.integers(0, d.arc_count - 1))
        arc2 = draw(st.integers(0, nxt.arc_count - 1))
        kn = code_from_diagram(nxt, field, t).k
        if field.q ** (k + kn - 1) <= 3**9:
            d, k = connected_sum(d, arc1, nxt, arc2), k + kn - 1
    if moves:
        rng = random.Random(draw(st.integers(0, 2**32)))
        for _ in range(draw(st.integers(1, 4))):
            d = random_move(d, rng, max_crossings=d.n + 2)
    return d, field, t


@settings(max_examples=60, deadline=None)
@given(st.one_of(long_sums(moves=False), long_sums(moves=True)))
def test_summand_weights_tie_to_the_walk(case):
    """The tie DP over split_sum's summands gives the walk's weight
    enumerator of the whole Fox code, whose k is the summands' k less one
    per tie."""
    d, field, t = case
    summands, ties, _ = split_sum(d)
    codes = [code_from_diagram(p, field, t) for p in summands]
    whole = code_from_diagram(d, field, t)
    assert len(ties) == len(summands) - 1
    assert whole.k == sum(c.k for c in codes) - len(ties)
    assert tied_weight_enumerator(codes, ties) == weight_enumerator(whole) == walked_weights(whole)


@st.composite
def nested_sums(draw):
    """A sum_code tree over a drawn field: two to five Fox codes of drawn
    diagrams, each a connected sum of two at drawn arcs or not, joined two
    at a time, in drawn pairs and at drawn positions, so that sums of sums
    come up.  A drawn code that would take the codes' direct sum, which
    holds the tied one, past 3^9 words is left out."""
    field, t = draw(st.sampled_from(FIELDS_T))
    part = st.sampled_from(small_diagrams()) | braid_diagrams(max_strands=3, max_len=5)
    codes, words = [], 1
    for _ in range(draw(st.integers(2, 5))):
        d = draw(part)
        if draw(st.booleans()):
            e = draw(part)
            d = connected_sum(d, draw(st.integers(0, d.arc_count - 1)), e, draw(st.integers(0, e.arc_count - 1)))
        c = code_from_diagram(d, field, t)
        if words * c.codeword_count() <= 3**9:
            codes.append(c)
            words *= c.codeword_count()
    assume(len(codes) > 1)
    while len(codes) > 1:
        i, j = draw(st.lists(st.integers(0, len(codes) - 1), min_size=2, max_size=2, unique=True))
        s = sum_code(codes[i], draw(st.integers(0, codes[i].n - 1)), codes[j], draw(st.integers(0, codes[j].n - 1)))
        codes = [c for x, c in enumerate(codes) if x not in (i, j)] + [s]
    return codes[0]


@settings(max_examples=40, deadline=None)
@given(nested_sums())
def test_nested_sum_codes_fold_to_the_walk(whole):
    """The fold of a sum_code tree's leaves, the summand codes of every
    composite code in it at any depth, gives the walk's weights: through
    weight_enumerator under the largest leaf's q^k as budget (below the
    sum's q^k unless a leaf has as many words as the sum), and through
    tied_weight_enumerator on the tree itself."""
    leaves, ties, place = whole._parts(whole)
    assert len(place) == whole.n and len(ties) == len(leaves) - 1
    budget = max(c.codeword_count() for c in leaves)
    assert weight_enumerator(whole, budget) == tied_weight_enumerator(leaves, ties, budget) == walked_weights(whole)
