import math
import pickle
import random
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from knotcode.fields import FqField
from knotcode.generators import builtin, connected_sum, pretzel_diagram, torus_diagram
from knotcode.coloring import alexander_polynomial
from knotcode.codes import (
    INF,
    BudgetExceeded,
    code_from_diagram,
    dual,
    dual_knot_feasibility,
    ldpc_profile,
    min_distance,
    sum_code,
    tied_weight_enumerator,
    weight_enumerator,
    LinearCode,
    _BLOCK,
    _joint_weights,
    _Packing,
    _span,
)
from knotcode.exactlin import dense

from conftest import small_diagrams
from moves import reidemeister_r1
from oracles import (
    kernel_basis_dense,
    message_weights,
    min_distance_brute,
    rank_dense,
    span_lex,
    sparse_rows,
    subcode_last_zero,
    walked_weights,
    weight_counts_brute,
)


def test_trefoil_code_lists_the_nine_codewords(F3, trefoil):
    c = code_from_diagram(trefoil, F3, -1)
    words = set(c.codewords())
    assert words == {
        (0, 0, 0), (0, 1, 2), (0, 2, 1),
        (1, 0, 2), (1, 2, 0), (1, 1, 1),
        (2, 0, 1), (2, 1, 0), (2, 2, 2),
    }
    assert (c.n, c.k, min_distance(c)) == (3, 2, 2)


def test_contains_rejects_words_of_the_wrong_length(F3, trefoil):
    c = code_from_diagram(trefoil, F3, -1)
    assert c.contains([1, 1, 1])
    for word in ([], [1, 1, 1, 2]):
        with pytest.raises(ValueError):
            c.contains(word)


def test_contains_takes_encoded_ints_only(F3, F4, trefoil):
    # an encoded int of F_4 is not reduced mod 2, and -1 or q is no element
    c = code_from_diagram(trefoil, F4, (0, 1))
    assert (1, 3, 2) in set(c.codewords()) and c.contains([1, 3, 2])
    assert not c.contains([1, 0, 1])
    for field, word in ((F3, [2, 2, -1]), (F3, [1, 1, 3]), (F4, [1, 2, 4])):
        with pytest.raises(ValueError, match="range"):
            code_from_diagram(trefoil, field, (0, 1) if field is F4 else -1).contains(word)


def test_t_zero_rejected_t_one_quiet(F3, trefoil):
    """t = 0 is not a unit; t = 1 gives the repetition code and warns of
    nothing (the CLI notes it in its reports)."""
    with pytest.raises(ValueError):
        code_from_diagram(trefoil, F3, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = code_from_diagram(trefoil, F3, 1)
        assert c.k == 1 and c.generator == ((1, 1, 1),)


def test_unknot_code_is_length_one(F3, unknot):
    c = code_from_diagram(unknot, F3, -1)
    assert (c.n, c.k) == (1, 1)
    assert min_distance(c) == 1


def test_min_distance_budget_unknown(F3, trefoil):
    c = code_from_diagram(trefoil, F3, -1)
    assert min_distance(c, budget=5) is None


def test_zero_code_distance_is_infinite(F3):
    zero = LinearCode(F3, 2, sparse_rows([[1, 0], [0, 1]]))
    assert zero.k == 0
    assert min_distance(zero) == INF


@pytest.mark.parametrize(
    "rows",
    [
        (((0, 0), (1, 1)),),  # a stored zero would count toward ldpc_profile weights
        (((5, 1),),),  # a column outside range(n) would leave k = n
        (((1, 1), (1, 2)),),  # a repeated column
        (((0, 3),),),  # not an encoded element of F_3
    ],
)
def test_linear_code_rejects_bad_parity_rows(F3, rows):
    with pytest.raises(ValueError):
        LinearCode(F3, 2, rows)


def test_weight_enumerator_trefoil(F3, trefoil):
    we = weight_enumerator(code_from_diagram(trefoil, F3, -1))
    assert we.counts == (1, 0, 6, 2)
    assert we.total() == 9
    rep = LinearCode(F3, 3, sparse_rows([[1, 2, 0], [0, 1, 2]]))
    assert weight_enumerator(rep).counts == (1, 0, 0, 2)


def test_weight_enumerator_budget(F3, trefoil):
    with pytest.raises(BudgetExceeded):
        weight_enumerator(code_from_diagram(trefoil, F3, -1), budget=5)


@pytest.mark.parametrize("kind", ["fox", "dehn"])
def test_budget_boundary_is_q_to_the_k(kind):
    c = code_from_diagram(pretzel_diagram((5, 5, 5)), FqField(5), -1, kind=kind)
    words = c.q**c.k
    assert weight_enumerator(c, budget=words).total() == words
    assert len(set(c.codewords(budget=words))) == words
    with pytest.raises(BudgetExceeded):
        weight_enumerator(c, budget=words - 1)
    with pytest.raises(BudgetExceeded):
        c.codewords(budget=words - 1)
    assert min_distance(c, budget=words - 1) is None


WALK_FIELDS = [
    FqField(2),
    FqField(3),
    FqField(2, [1, 1, 1]),
    FqField(5),
    FqField(2, [1, 1, 0, 1]),
    FqField(3, [1, 0, 1]),
    FqField(3, [1, 2, 0, 1]),  # unpack adds digit planes 2 and 1 in place, then plane 0
    FqField(13),
    FqField(13, [2, 1, 1]),  # no two digit planes of F_169 fit one slot
    FqField(31),
]
WALK_LIMIT = 3**8  # codewords per drawn code


def _assert_joint_weights_match_words(c, positions):
    """_joint_weights against the words themselves, sorted by which of the
    positions they are nonzero at."""
    expect = {}
    for w in c.codewords():
        counts = expect.setdefault(tuple(bool(w[j]) for j in positions), [0] * (c.n + 1))
        counts[sum(1 for x in w if x)] += 1
    assert _joint_weights(c, positions) == expect


def _assert_walk_matches_lex(c):
    lex = sorted(span_lex(c.field, c.generator, c.n))
    counts = [0] * (c.n + 1)
    for w in lex:
        counts[sum(1 for x in w if x)] += 1
    assert weight_enumerator(c).counts == tuple(counts)
    assert sorted(c.codewords()) == lex  # each codeword exactly once


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gray_walk_matches_lexicographic_oracle(data):
    """The packed Gray-code walk yields the lexicographic span's codewords
    and weight counts, over prime and extension fields, odd and even p;
    its nonzero flags, folded over every digit plane, give each word's
    pattern at up to three positions."""
    field = data.draw(st.sampled_from(WALK_FIELDS), label="field")
    n = data.draw(st.integers(1, 9), label="n")
    kmax = 0
    while field.q ** (kmax + 1) <= WALK_LIMIT:
        kmax += 1
    # echelon rows pin the rank at n - kmax or more, so q^k stays small
    sparsity = data.draw(st.sampled_from([0, field.q, 4 * field.q]), label="sparsity")
    cell = st.integers(-sparsity, field.q - 1).map(lambda x: max(x, 0))
    rows = []
    for i in range(max(n - kmax, 0)):
        row = [0] * n
        row[i] = data.draw(st.integers(1, field.q - 1))
        row[i + 1 :] = [data.draw(cell) for _ in range(i + 1, n)]
        rows.append(row)
    rows += [[data.draw(cell) for _ in range(n)] for _ in range(data.draw(st.integers(0, n + 1)))]
    rows += [[0] * n] * data.draw(st.integers(0, 2), label="zero rows")
    perm = data.draw(st.permutations(range(n)), label="columns")
    rows = data.draw(st.permutations([[row[j] for j in perm] for row in rows]), label="rows")
    c = LinearCode(field, n, sparse_rows(rows))
    assert c.k <= kmax
    _assert_walk_matches_lex(c)
    positions = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3), label="positions")
    _assert_joint_weights_match_words(c, positions)


@pytest.mark.parametrize(
    "field, n",
    [
        (FqField(2), 15),
        (FqField(3), 10),
        (FqField(2, [1, 1, 1]), 7),
        (FqField(3, [1, 0, 1]), 5),
        (FqField(4099), 1),
    ],
    ids=str,
)
def test_gray_walk_over_whole_space_past_one_block(field, n):
    # 2^15, 3^10, 4^7 and 9^5 words take several blocks of precomputed
    # steps, so the steps between blocks add rows of p-adic valuation >= 2;
    # p = 4099 is past the block size, so every step lies between blocks
    whole = LinearCode(field, n, ())
    q = field.q
    assert weight_enumerator(whole).counts == tuple(math.comb(n, w) * (q - 1) ** w for w in range(n + 1))
    words = set(whole.codewords())
    assert len(words) == q**n and all(len(w) == n and max(w) < q for w in words)


@pytest.mark.parametrize("field", WALK_FIELDS, ids=str)
def test_gray_walk_at_dimensions_zero_and_n(field):
    n = 1 if field.q > 9 else 3
    whole = LinearCode(field, n, ())
    assert whole.k == n
    _assert_walk_matches_lex(whole)
    zero = LinearCode(field, n, sparse_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)]))
    assert zero.k == 0
    _assert_walk_matches_lex(zero)
    assert list(zero.codewords()) == [(0,) * n]


@pytest.mark.parametrize("field", WALK_FIELDS, ids=str)
def test_span_from_a_start_word_walks_its_coset(field):
    """_span from a nonzero packed word yields start + each word of the
    lexicographic span, one per message; k is the least with q^k past one
    block of the walk, so steps between blocks run from the start word too."""
    rng = random.Random(field.q)
    k = 1
    while field.q**k <= _BLOCK:
        k += 1
    n = k + 1
    basis = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
    start = [rng.randrange(1, field.q) for _ in range(n)]
    pk = _Packing(field, n)
    walked = sorted(map(pk.unpack, _span(field, basis, n, pk.pack(start))))
    expect = sorted(tuple(map(field.add, start, w)) for w in span_lex(field, basis, n))
    assert walked == expect


def test_dual_of_trefoil_code(F3, trefoil):
    c = code_from_diagram(trefoil, F3, -1)
    cd = dual(c)
    assert cd.k == 1
    assert set(cd.codewords()) == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}
    cdd = dual(cd)
    assert set(cdd.codewords()) == set(c.codewords())
    assert cd.k == c.n - c.k


def test_subcode_last_zero(F3, trefoil):
    c = code_from_diagram(trefoil, F3, -1)
    cp = subcode_last_zero(c)
    assert set(cp.codewords()) == {(0, 0, 0), (1, 2, 0), (2, 1, 0)}
    assert cp.k == 1 and min_distance(cp) == 2
    rep = dual(c)  # repetition code
    assert subcode_last_zero(rep).k == 0


def test_knot_subcode_drops_dimension_by_one(F3, F5):
    for d in small_diagrams():
        for field in (F3, F5):
            c = code_from_diagram(d, field, -1)
            assert subcode_last_zero(c).k == c.k - 1


def test_sum_code_parameters(F3, trefoil):
    c = code_from_diagram(trefoil, F3, -1)
    s = sum_code(c, 2, c, 2)
    assert (s.n, s.k, min_distance(s)) == (6, 3, 2)


def test_sum_code_matches_diagram_sum(F3, F5, trefoil, figure_eight):
    for field in (F3, F5):
        c1 = code_from_diagram(trefoil, field, -1)
        c2 = code_from_diagram(figure_eight, field, -1)
        s = sum_code(c1, 2, c2, 3)
        diagram_sum = connected_sum(trefoil, 2, figure_eight, 3)
        cs = code_from_diagram(diagram_sum, field, -1)
        assert s.k == cs.k == c1.k + c2.k - 1


def test_sum_code_field_mismatch(F3, F5, trefoil):
    with pytest.raises(ValueError):
        sum_code(code_from_diagram(trefoil, F3, -1), 2, code_from_diagram(trefoil, F5, -1), 2)


def test_sum_min_distance_and_weights(F3, trefoil):
    c = code_from_diagram(trefoil, F3, -1)
    formula = tied_weight_enumerator([c, c], [(0, 2, 1, 2)])
    assert formula.min_weight() == 2
    brute = weight_enumerator(sum_code(c, 2, c, 2))
    assert formula.counts == brute.counts


def test_sum_of_trivial_codes_distance(F5, unknot):
    # both subcodes zero: distance is the full length n + m
    c = code_from_diagram(unknot, F5, -1)
    assert tied_weight_enumerator([c, c], [(0, 0, 1, 0)]).min_weight() == 2
    s = sum_code(c, 0, c, 0)
    assert min_distance(s) == 2 == c.n + c.n


def _split_walk_codes():
    F2, F3, F4, F9 = FqField(2), FqField(3), FqField(2, [1, 1, 1]), FqField(3, [1, 0, 1])
    trefoil, alpha = builtin("trefoil"), (0, 1)
    codes = [
        code_from_diagram(trefoil, F3, -1),
        code_from_diagram(connected_sum(trefoil, 0, trefoil, 0), F3, -1),
        code_from_diagram(trefoil, F3, -1, kind="dehn"),
        code_from_diagram(trefoil, F4, alpha),
        code_from_diagram(builtin("figure_eight"), F4, alpha),
        code_from_diagram(trefoil, F9, -1),
        code_from_diagram(trefoil, F9, -1, kind="dehn"),
        # coordinate 3 is zero in every word, so there C' = C
        LinearCode(F3, 4, sparse_rows([[1, 2, 0, 0], [0, 0, 0, 1]])),
        LinearCode(F4, 3, sparse_rows([[0, 0, 3]])),
    ]
    # (k - 1) * a above the digits of the walk's precomputed block (2^12,
    # 3^7 words), so C' ends after steps between blocks have run
    rng = random.Random(7)
    for field, n, k in ((F2, 15, 14), (F3, 10, 9), (F4, 9, 8), (F9, 6, 5)):
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n - k)]
        codes.append(LinearCode(field, n, sparse_rows(rows)))
    return codes


@pytest.mark.parametrize("c", _split_walk_codes(), ids=str)
def test_split_walk_counts_the_code_and_its_zero_subcode(c):
    whole = weight_enumerator(c).counts
    for pos in range(c.n):
        split = _joint_weights(c, [pos])
        sub, rest = split[(False,)], split.get((True,), [0] * (c.n + 1))
        assert tuple(sub) == weight_enumerator(subcode_last_zero(c, pos)).counts
        assert tuple(a + b for a, b in zip(sub, rest)) == whole
    s = sum_code(c, c.n - 1, c, 0)
    if s.codeword_count() <= 10**5:
        assert tied_weight_enumerator([c, c], [(0, c.n - 1, 1, 0)]) == walked_weights(s)


@pytest.mark.parametrize("c", _split_walk_codes(), ids=str)
def test_joint_walk_counts_by_where_the_tie_positions_are_nonzero(c):
    rng = random.Random(c.n)
    for positions in ([0, c.n - 1], sorted(rng.sample(range(c.n), min(3, c.n)))):
        _assert_joint_weights_match_words(c, positions)


def test_tied_weight_enumerator_needs_a_tree(F3, trefoil):
    c = code_from_diagram(trefoil, F3, -1)
    assert tied_weight_enumerator([c], []) == weight_enumerator(c)
    for ties in ([], [(0, 0, 1, 0), (1, 1, 0, 1)], [(0, 0, 1, 0), (0, 1, 0, 2)], [(0, 0, 0, 1), (1, 0, 2, 0)]):
        with pytest.raises(ValueError, match="tree"):
            tied_weight_enumerator([c, c, c], ties)
    with pytest.raises(ValueError, match="tree"):
        tied_weight_enumerator([], [])
    for tie in ((0, 0, 2, 0), (-1, 0, 0, 0)):
        with pytest.raises(ValueError, match="range"):
            tied_weight_enumerator([c, c], [tie])


def _trefoil_sum(m: int):
    d = builtin("trefoil")
    for _ in range(m - 1):
        d = connected_sum(d, 0, builtin("trefoil"), 0)
    return d


def test_a_composite_code_is_folded_from_its_parts(F3):
    """weight_enumerator and min_distance fold the summands' codes of a
    visibly composite Fox code past the budget: the [48,17]_3 code of the
    16-fold trefoil sum is exact at the default budget, where a walk needs
    3^17 > 10^7 words.  Its Dehn code is its own one leaf and stays unknown."""
    d = _trefoil_sum(16)
    c = code_from_diagram(d, F3, -1)
    assert (c.n, c.k) == (48, 17)
    assert min_distance(c) == 2 == min_distance(pickle.loads(pickle.dumps(c)))
    assert weight_enumerator(c).total() == 3**17
    assert min_distance(code_from_diagram(d, F3, -1, kind="dehn")) is None
    # the 6-fold sum's [18,7]_3 code: a budget of 9 folds its 9-word summands,
    # an unlimited one walks its 3^7 words, under one block, whole
    six = code_from_diagram(_trefoil_sum(6), F3, -1)
    assert six.k == 7 and six.codeword_count() < 4096
    assert weight_enumerator(six, budget=9) == weight_enumerator(six, budget=10**30) == walked_weights(six)
    with pytest.raises(BudgetExceeded):
        weight_enumerator(six, budget=8)
    s = sum_code(six, 0, six, 0)  # [36,13]_3: one walk of each six-fold code
    assert weight_enumerator(s, budget=3**7) == tied_weight_enumerator([six, six], [(0, 0, 1, 0)])


def test_a_sum_with_a_leaf_over_the_budget_is_walked_when_it_fits(F3):
    """A leaf over the budget does not leave a sum unknown when the sum's
    own q^k fits: the [13,11]_3 tie of F_3^12 to the zero code of length 1
    is walked (3^11 <= 200000 < 3^12), a_w = C(11, w) 2^w; under 3^11 the
    leaf's BudgetExceeded is raised."""
    s = sum_code(LinearCode(F3, 12, ()), 0, LinearCode(F3, 1, (((0, 1),),)), 0)
    w = weight_enumerator(s, budget=200000)
    assert (s.n, s.k, w.total(), w.min_weight()) == (13, 11, 3**11, 1)
    assert w.counts == tuple(math.comb(11, i) * 2**i for i in range(12)) + (0, 0)
    assert min_distance(s, budget=200000) == 1
    with pytest.raises(BudgetExceeded, match=r"^3\^12 codewords exceed budget 177146$"):
        weight_enumerator(s, budget=3**11 - 1)


def test_a_sum_of_composite_codes_folds_all_their_summands(F3):
    """A sum_code's tie tree is its two codes' trees joined by one tie, so
    the fold reaches the summands of composite codes at any depth: the
    [96,33]_3 sum of two 16-fold trefoil sums, and the [192,65]_3 sum of two
    of those, are exact at the default budget, where a walk needs 3^33 and
    3^65 words and each of their 32 and 64 trefoil leaves 3^2."""
    c = code_from_diagram(_trefoil_sum(16), F3, -1)
    s = sum_code(c, 0, c, 0)
    w = weight_enumerator(s)
    assert (s.n, s.k, min_distance(s), w.min_weight(), w.total()) == (96, 33, 2, 2, 3**33)
    ss = sum_code(s, s.n - 1, s, 47)
    codes, ties, place = ss._parts(ss)
    assert (len(codes), len(ties), len(place), len(set(codes))) == (64, 63, 192, 1)
    w = weight_enumerator(ss)
    assert (ss.n, ss.k, w.min_weight(), w.total()) == (192, 65, 2, 3**65)


def test_nested_sums_fold_to_the_walk_at_every_tie_position(F3):
    """Sums of two composite Fox codes, and sums of such a sum with a third
    code on either side, tied at every pair of positions and folded under a
    budget of 9, below their q^k and above every leaf's (a trefoil code has
    3^2 words, a figure-eight code over F_3 has 3), count what a walk of the
    sum code counts.  Both composite codes place two arcs, the two through
    their splice, at one summand arc, so some ties go through that place."""
    trefoil, eight = builtin("trefoil"), builtin("figure_eight")
    c1 = code_from_diagram(connected_sum(trefoil, 1, eight, 2), F3, -1)  # [7,2]_3
    c2 = code_from_diagram(connected_sum(trefoil, 2, trefoil, 1), F3, -1)  # [6,3]_3
    for c in (c1, c2):
        place = c._parts(c)[2]
        assert len(set(place)) < len(place) == c.n
    for a in range(c1.n):
        for b in range(c2.n):
            s = sum_code(c1, a, c2, b)
            assert s.codeword_count() > 9 and weight_enumerator(s, budget=9) == walked_weights(s)
    s = sum_code(c1, 2, c2, 3)  # [13,4]_3, tied at arcs through both splices
    for a in range(s.n):
        for b in range(c2.n):
            for nested in (sum_code(s, a, c2, b), sum_code(c2, b, s, a)):
                assert weight_enumerator(nested, budget=9) == walked_weights(nested)


def _count_eliminations(monkeypatch):
    """Call counts of every elimination (exactlin._reduce), of the forward
    passes k reads (echelon) and of the kernel bases (echelon_kernel)."""
    import knotcode.codes as cd
    import knotcode.exactlin as el

    calls = {"eliminations": 0, "echelon": 0, "echelon_kernel": 0}

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(el, "_reduce", "eliminations")
    counted(cd, "echelon", "echelon")
    counted(cd, "echelon_kernel", "echelon_kernel")
    return calls


def test_the_fold_eliminates_equal_summand_codes_once(F3, monkeypatch):
    """The nine summands of the 9-fold trefoil sum are the same [3,2]_3
    code, so its fold runs one elimination for all nine, and still counts
    the 3^10 words of the [27,10]_3 code a full walk counts.  Tie patterns
    are read off the walk, so past that forward pass the only elimination
    is the one echelon_kernel runs to bring the kernel basis to its
    canonical form."""
    c = code_from_diagram(_trefoil_sum(9), F3, -1)
    walked = walked_weights(c)
    codes, ties, _ = c._parts(c)
    calls = _count_eliminations(monkeypatch)
    assert tied_weight_enumerator(codes, ties) == walked and walked.total() == 3**10
    assert calls == {"eliminations": 2, "echelon": 1, "echelon_kernel": 1}
    assert len(codes) == 9 and len(set(codes)) == 1 and str(codes[0]) == "[3,2]_3 code"


def test_pretzel_555_code_over_f125(monkeypatch):
    """P(5,5,5) at t = -1 over F_125 = F_5[x]/(x^3 + x + 1) is a [15,3]
    code with d = 8, its 125^3 words counted by weight against a tally of
    every message; over F_5 the same oracle agrees with the hand tally of
    codewords().  Past one block, its weights split the diagram, find no
    splice and walk the code itself, not a rebuilt copy that eliminates
    again: one forward pass gives k, and echelon_kernel the generator."""
    d = pretzel_diagram([5, 5, 5])
    c = code_from_diagram(d, FqField(5, [1, 1, 0, 1]), -1)
    calls = _count_eliminations(monkeypatch)
    w = weight_enumerator(c)
    assert calls == {"eliminations": 2, "echelon": 1, "echelon_kernel": 1}
    assert (c.n, c.k, w.min_weight(), w.total()) == (15, 3, 8, 125**3)
    assert w == message_weights(c.field, c.generator, c.n)
    c5 = code_from_diagram(d, FqField(5), -1)
    assert weight_enumerator(c5) == message_weights(c5.field, c5.generator, c5.n) == walked_weights(c5)


def test_tied_weight_enumerator_checks_the_tie(F3, F5, trefoil):
    c3, c5 = code_from_diagram(trefoil, F3, -1), code_from_diagram(trefoil, F5, -1)
    for c1, pos1, c2, pos2 in ((c3, 2, c5, 2), (c3, 3, c3, 0), (c3, 0, c3, -1)):
        with pytest.raises(ValueError):
            tied_weight_enumerator([c1, c2], [(0, pos1, 1, pos2)])


def test_ldpc_profiles(F3, trefoil, unknot):
    c = code_from_diagram(trefoil, F3, -1)
    prof = ldpc_profile(c)
    assert prof.doubly_regular == (3, 3)
    cdehn = code_from_diagram(trefoil, F3, -1, kind="dehn")
    dprof = ldpc_profile(cdehn)
    assert dprof.right_regular == 4
    twisted = reidemeister_r1(trefoil, 0)
    tw = ldpc_profile(code_from_diagram(twisted, F3, -1))
    assert min(tw.row_weights) < 3


def test_dual_feasibility(F3, F5, trefoil, figure_eight):
    c = code_from_diagram(trefoil, F3, -1)
    assert not dual_knot_feasibility(c).ruled_out
    c8 = code_from_diagram(figure_eight, F5, -1)
    rep = dual_knot_feasibility(c8)
    assert rep.ruled_out
    assert any(ch.rule == "field_size_divides_length" and not ch.ok for ch in rep.checks)
    assert dual_knot_feasibility(c, component_count=4).ruled_out


def test_dimension_via_ideals(F3, F5, trefoil):
    assert code_from_diagram(trefoil, F3, -1).k == 2
    assert code_from_diagram(trefoil, F5, -1).k == 1
    for d in small_diagrams():
        assert code_from_diagram(d, F3, 1).k == 1
        c = code_from_diagram(d, F3, -1)
        assert c.k == c.n - rank_dense(F3, dense(c.parity, c.n, 0))


def test_torus_order_ab_element_gives_dimension_two():
    # ab | q - 1 gives an element of order ab, a root of the torus
    # Alexander polynomial, so the code picks up a second dimension
    cases = [(2, 3, 7, 3), (2, 3, 13, 4), (3, 4, 13, 2)]
    for a, b, q, t in cases:
        field = FqField(q)
        assert field.order(field.element(t)) == a * b
        assert code_from_diagram(torus_diagram(a, b), field, t).k == 2


def test_torus_even_a_dimension(F3, F5):
    # even meridian count, p dividing the longitude count: dimension 2
    for (a, b, field) in ((2, 3, FqField(3)), (2, 5, FqField(5)), (4, 3, FqField(3)), (2, 9, FqField(3))):
        assert code_from_diagram(torus_diagram(a, b), field, -1).k == 2


def test_repetition_subcode_and_bounds():
    fields = [FqField(2), FqField(3), FqField(5)]
    for d in small_diagrams():
        for field in fields:
            c = code_from_diagram(d, field, -1)
            ones = [field.element(1)] * c.n
            assert c.contains(ones)
            assert 1 <= c.k <= (c.n + 1) / 2
            dist = min_distance(c)
            if d.n >= 1 and c.k >= 2:
                assert dist >= 2
            assert c.k <= c.n - dist + 1  # Singleton


def test_dim_bounded_by_alexander_valuation(F3):
    # p-adic valuation e of the Alexander value bounds dim by e+1,
    # with equality at e=1; the 9-crossing torus column shows e=2, dim 2
    cases = [
        (builtin("trefoil"), 3, 2),
        (torus_diagram(2, 5), 5, 2),
        (torus_diagram(2, 9), 3, 2),
        (builtin("figure_eight"), 5, 2),
    ]
    for d, p, expected_dim in cases:
        field = FqField(p)
        t = p - 1
        delta = alexander_polynomial(d).eval_int(t)
        e = 0
        while delta % p == 0:
            delta //= p
            e += 1
        k = code_from_diagram(d, field, t).k
        assert k == expected_dim
        assert k <= e + 1
        if e == 1:
            assert k == e + 1
    d = torus_diagram(2, 9)
    val = alexander_polynomial(d).eval_int(2)
    assert val % 9 == 0 and val % 27 != 0  # e = 2 while dim = 2: bound strict


def test_min_distance_matches_ambient_brute_force(F2, F3, F4):
    diagrams = [builtin("trefoil"), torus_diagram(2, 5), builtin("figure_eight")]
    for d in diagrams:
        for field, t in ((F2, -1), (F3, -1), (F4, (0, 1))):
            if field.q ** max(d.arc_count, 1) > 300000:
                continue
            c = code_from_diagram(d, field, t)
            assert min_distance(c) == min_distance_brute(c)
            assert weight_enumerator(c).counts == weight_counts_brute(c)


def test_prime_determinant_alternating_colorings_use_distinct_colors():
    # reduced alternating diagram with prime determinant p: every
    # nontrivial coloring over F_p colors the strands pairwise distinctly
    cases = [
        (builtin("trefoil"), FqField(3)),
        (builtin("figure_eight"), FqField(5)),
        (torus_diagram(2, 5), FqField(5)),
        (torus_diagram(2, 7), FqField(7)),
    ]
    for d, field in cases:
        c = code_from_diagram(d, field, -1)
        for word in c.codewords():
            if len(set(word)) == 1:
                continue  # a constant coloring
            assert len(set(word)) == len(word), (d.n, word)


def test_restricted_dehn_code_matches_fox_dimension(F3, F5):
    # pinning the unbounded region to color 0 undoes the free summand
    for d in small_diagrams():
        for field in (F3, F5):
            k_fox = code_from_diagram(d, field, -1).k
            dehn = code_from_diagram(d, field, -1, kind="dehn")
            restricted = LinearCode(field, dehn.n, dehn.parity + (((d.outer_region, 1),),))
            assert restricted.k == k_fox


def test_pretzel_dimension_dichotomy():
    # all twists coprime to q: dimension is 2 or 1 according to whether the
    # characteristic divides the determinant; otherwise it counts the
    # twists sharing a factor with q.  Exercised over prime fields and F_9.
    F9 = FqField(3, [1, 0, 1])
    cases = [
        ([3, 3, 3], FqField(3)),
        ([3, 3, 3], F9),
        ([5, 5, 5], FqField(5)),
        ([5, 5, 5], F9),
        ([3, 2, 3], FqField(3)),
        ([3, 2, 3, 5], FqField(3)),
        ([3, 2, 3, 5], FqField(41)),
        ([5, 3, 1], FqField(7)),
        ([1, 1, 1], FqField(3)),
    ]
    for twists, field in cases:
        d = pretzel_diagram(twists)
        noncoprime = sum(1 for p in twists if math.gcd(abs(p), field.q) != 1)
        if noncoprime:
            expected = noncoprime
        else:
            det = abs(alexander_polynomial(d).eval_int(-1))
            expected = 2 if det % field.p == 0 else 1
        assert code_from_diagram(d, field, -1).k == expected, (twists, field.q)


def test_sum_dimension_identity_random_pairs(F3, F5):
    rng = random.Random(17)
    pieces = small_diagrams()
    for _ in range(25):
        d1, d2 = rng.choice(pieces), rng.choice(pieces)
        field = rng.choice([F3, F5])
        c1 = code_from_diagram(d1, field, -1)
        c2 = code_from_diagram(d2, field, -1)
        s = sum_code(c1, rng.randrange(c1.n), c2, rng.randrange(c2.n))
        assert s.k == c1.k + c2.k - 1


@pytest.mark.parametrize("b", [63, 125, 153, 401, -63, -125, -153, -401])
@pytest.mark.parametrize("p", [3, 5])
def test_two_strand_torus_code_dimensions(b, p):
    """T(2,b) at t = -1: Fox k is 1 + (p | b) and Dehn k one more."""
    field = FqField(p)
    d = torus_diagram(2, b)
    fox = code_from_diagram(d, field, -1, "fox")
    dehn = code_from_diagram(d, field, -1, "dehn")
    assert fox.k == 1 + (b % p == 0)
    assert dehn.k == fox.k + 1


@pytest.mark.parametrize("kind", ["fox", "dehn"])
@pytest.mark.parametrize(
    "field, t",
    [(FqField(3), -1), (FqField(5), 2), (FqField(2, [1, 1, 1]), (0, 1)), (FqField(2, [1, 1, 0, 0, 1]), (1, 0, 1))],
)
def test_generator_is_the_dense_oracle_basis(kind, field, t):
    """The generator rows are the dense Gauss-Jordan kernel basis, in order."""
    trefoil = builtin("trefoil")
    for d in (trefoil, connected_sum(trefoil, 0, trefoil, 0), torus_diagram(3, 5), pretzel_diagram([3, 3, 3])):
        c = code_from_diagram(d, field, t, kind)
        expected = kernel_basis_dense(field, dense(c.parity, c.n, 0), c.n)
        assert [list(r) for r in c.generator] == expected


def test_generator_leaves_the_forward_pass_unchanged(F3):
    """Building the generator back-reduces a copy of the cached forward pass
    (LinearCode._echelon), so the pass k reads is never edited."""
    for d in (torus_diagram(2, 9), pretzel_diagram([3, 3, 3]), _trefoil_sum(3)):
        c = code_from_diagram(d, F3, -1)
        before = {col: dict(row) for col, row in c._echelon.items()}
        assert c.generator and c._echelon == before


def test_one_code_shared_by_four_threads(F3):
    """Four threads that build one fresh code's generator at once each get
    the single-thread basis, with the interpreter switching threads as
    often as it can."""
    d = torus_diagram(2, 201)
    want = code_from_diagram(d, F3, -1).generator
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            c = code_from_diagram(d, F3, -1)
            with ThreadPoolExecutor(4) as pool:
                assert list(pool.map(lambda _: c.generator, range(4))) == [want] * 4
    finally:
        sys.setswitchinterval(interval)


def test_long_torus_code_stays_sparse(F3):
    """Building the T(2,1601) code, its dimension and its LDPC profile
    allocates no n x n grid: the peak stays under 8 MB, where one dense
    copy of the parity matrix alone takes about 20 MB."""
    d = torus_diagram(2, 1601)
    tracemalloc.start()
    try:
        c = code_from_diagram(d, F3, -1)
        k = c.k
        prof = ldpc_profile(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 1 and prof.doubly_regular == (3, 3)
    assert peak < 8 * 2**20
