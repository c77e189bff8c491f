from hypothesis import given, settings, strategies as st

from knotcode.exactlin import _bound_squared, echelon, echelon_kernel, kronecker_det, snf
from knotcode.fields import FqField, RingFpT, RingZ
from knotcode.laurent import ONE, T, ZERO, LaurentPoly
from oracles import (
    bareiss_det,
    cofactor_det,
    kernel_basis_dense,
    minor_dets,
    rank_dense,
    snf_by_minors,
    sparse_det,
    sparse_rows,
    unit_ratio,
)

TREFOIL_M = [
    [ONE - T, T, -ONE],
    [-ONE, ONE - T, T],
    [T, -ONE, ONE - T],
]


def test_trefoil_minors_and_det():
    minor11 = [row[1:] for row in TREFOIL_M[1:]]
    assert kronecker_det(minor11) == ONE - T + T * T
    minor12 = [[row[0], row[2]] for row in TREFOIL_M[1:]]
    assert kronecker_det(minor12) == -(ONE - T + T * T)
    assert kronecker_det(TREFOIL_M) == ZERO


def _entries(bound):
    """Laurent entries with up to 3 coefficients in [-bound, bound]."""
    return st.builds(
        LaurentPoly.make,
        st.lists(st.integers(min_value=-bound, max_value=bound), min_size=0, max_size=3),
        st.integers(min_value=-2, max_value=2),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kronecker_det_matches_cofactor_oracle(data):
    """One integer elimination at T = 2^s agrees with Bareiss and cofactor
    expansion, with zero rows, singular matrices and negative exponents."""
    n = data.draw(st.integers(min_value=1, max_value=8), label="order")
    entry = _entries(data.draw(st.sampled_from([4, 10**6]), label="coefficient bound"))
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    kind = data.draw(st.sampled_from(["random", "zero row", "singular"]), label="kind")
    if kind == "zero row":
        rows[data.draw(st.integers(0, n - 1))] = [ZERO] * n
    elif kind == "singular" and n >= 2:  # row i = T^s row j + c row k, with i not in (j, k)
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k, s, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(-2, 2)), data.draw(entry)
        rows[i] = [a.shift(s) + (c * b if k != i else ZERO) for a, b in zip(rows[j], rows[k])]
    det = kronecker_det(rows)
    assert det == bareiss_det(rows) == cofactor_det(rows)
    if kind != "random" and n >= 2:
        assert det == ZERO


def test_kronecker_det_past_64_bits():
    two40 = LaurentPoly.const(2**40)
    big = LaurentPoly.make((3**200, -(5**150)), -3)  # a bound of about 2^350: six primes for sparse_det
    # a coefficient at the bound B itself: digits of one bit fewer than
    # kronecker_det's would hold only up to 2^61, and the oracle's first
    # prime lies between B and 2B, where lifting mod it alone would flip
    # the sign
    at_bound = LaurentPoly.const(-(2**61 + 1))
    cases = [
        ([[two40, ZERO, ZERO], [ZERO, two40, ZERO], [ZERO, ZERO, ONE]], LaurentPoly.const(2**80)),
        ([[big, ONE], [-ONE, T]], big * T + ONE),
        ([], ONE),
        ([[at_bound]], at_bound),
    ]
    for rows, det in cases:
        assert kronecker_det(rows) == bareiss_det(rows) == cofactor_det(rows) == sparse_det(sparse_rows(rows)) == det


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_kronecker_det_matches_bareiss_and_sparse_det(data):
    """One integer elimination at T = 2^s agrees with Bareiss over Z[T] and
    with evaluation and CRT, on orders 0-8 with zero rows, dependent rows,
    a zero (1,1) entry (a row swap) and coefficients past 2^64; on a
    monomial matrix the determinant's one coefficient is -B, the most
    negative the digits must hold."""
    n = data.draw(st.integers(min_value=0, max_value=8), label="order")
    kind = data.draw(st.sampled_from(["monomial", "random", "zero row", "dependent", "zero corner"]), label="kind")
    if kind == "monomial" and n:  # one c T^e per row and column: det -B T^k
        rows = [[ZERO] * n for _ in range(n)]
        for i, j in enumerate(data.draw(st.permutations(range(n)))):
            c = data.draw(st.integers(-(10**6), 10**6).filter(bool))
            rows[i][j] = LaurentPoly((c,), data.draw(st.integers(-2, 2)))
        if bareiss_det(rows).coeffs[0] > 0:
            rows[0] = [-e for e in rows[0]]
        assert bareiss_det(rows).coeffs[0] ** 2 == _bound_squared(rows)
    else:
        entry = _entries(data.draw(st.sampled_from([4, 10**6, 2**70]), label="coefficient bound"))
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "zero row" and n:
        rows[data.draw(st.integers(0, n - 1))] = [ZERO] * n
    elif kind == "dependent" and n >= 2:  # row i = T^s row j + c row k, with i not in (j, k)
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k, s, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(-2, 2)), data.draw(entry)
        rows[i] = [a.shift(s) + (c * b if k != i else ZERO) for a, b in zip(rows[j], rows[k])]
    elif kind == "zero corner" and n:
        rows[0][0] = ZERO
    det = kronecker_det(rows)
    assert det == bareiss_det(rows) == sparse_det(sparse_rows(rows))
    if kind in ("zero row", "dependent") and n >= 2:
        assert det == ZERO


def test_minor_dets_count():
    fam = minor_dets(sparse_rows(TREFOIL_M), 3, 2)
    assert len(fam) == 9
    delta = ONE - T + T * T
    assert all(unit_ratio(m, delta) is not None for m in fam)
    assert minor_dets(sparse_rows(TREFOIL_M), 3, 4) == []


# -- Smith normal form ----------------------------------------------------------


def _snf_checked(rows, ring):
    """snf(rows, ring), after checking its factors against the determinantal
    divisors and its rank against the nonzero factors."""
    res = snf(rows, ring)
    assert res.invariant_factors == snf_by_minors(ring, rows)
    assert res.rank == sum(1 for d in res.invariant_factors if d != ring.zero)
    return res


def test_snf_trefoil_at_minus_one():
    res = _snf_checked([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], RingZ())
    assert res.invariant_factors == (0, 3, 1)
    assert res.rank == 2


def test_snf_identity_and_diagonal():
    res = _snf_checked([[1, 0], [0, 1]], RingZ())
    assert res.invariant_factors == (1, 1)
    assert res.rank == 2
    res = _snf_checked([[0, 0, 0], [0, 6, 0], [0, 0, 2]], RingZ())
    assert res.invariant_factors == (0, 6, 2)
    assert res.rank == 2


def test_snf_divisibility_chain_and_units():
    cases = [
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (156, 2, 2)),
        ([[1, 2], [3, 4]], (2, 1)),
        ([[6, 0], [0, 10]], (30, 2)),  # needs the divisibility fix: 6 does not divide 10
        ([[0, -5], [0, 0]], (0, 5)),  # needs the normalization: the pivot is -5
        ([[0, 0], [0, 0]], (0, 0)),
    ]
    for m, factors in cases:
        assert _snf_checked(m, RingZ()).invariant_factors == factors


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_snf_random_integer_matrices(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    _snf_checked([[data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)], RingZ())


def test_snf_over_fpt():
    # diag(T, T^2) style with mixing
    res = _snf_checked([[(0, 1), (0, 0, 1)], [(), (0, 1)]], RingFpT(5))
    assert res.invariant_factors == ((0, 1), (0, 1))
    # 2T is not monic, and T does not divide 1 + T
    res = _snf_checked([[(0, 2), ()], [(), (1, 1)]], RingFpT(5))
    assert res.invariant_factors == ((0, 1, 1), (1,))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_snf_random_fpt_matrices(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 3))
    m = [
        [tuple(data.draw(st.integers(0, p - 1)) for _ in range(data.draw(st.integers(0, 3)))) for _ in range(cols)]
        for _ in range(rows)
    ]
    _snf_checked([[_trim(x, p) for x in row] for row in m], RingFpT(p))


def _trim(x, p):
    x = list(x)
    while x and x[-1] % p == 0:
        x.pop()
    return tuple(c % p for c in x)


def test_snf_fpt_trefoil_variable_t():
    # Fox matrix of the trefoil with t left symbolic over F_5[T]
    p = 5
    one_minus = (1, 4)
    t = (0, 1)
    minus = (4,)
    m = [[one_minus, t, minus], [minus, one_minus, t], [t, minus, one_minus]]
    res = _snf_checked(m, RingFpT(p))
    assert res.invariant_factors == ((), (1, 4, 1), (1,))  # T^2 - T + 1 monic


# -- kernels over F_q ---------------------------------------------------------------


def kernel(field, rows, ncols):
    """The canonical kernel basis of sparse rows: echelon_kernel of their
    forward pass."""
    return echelon_kernel(field, echelon(field, rows), ncols)


def test_kernel_trefoil_fields():
    F3, F4, F5 = FqField(3), FqField(2, [1, 1, 1]), FqField(5)
    m3 = [[2, 2, 2]] * 3
    assert len(kernel(F3, sparse_rows(m3), 3)) == 2
    alpha = F4.encode((0, 1))
    one_minus_alpha = F4.sub(1, alpha)
    m4 = [
        [one_minus_alpha, alpha, 1],
        [1, one_minus_alpha, alpha],
        [alpha, 1, one_minus_alpha],
    ]
    assert len(kernel(F4, sparse_rows(m4), 3)) == 2
    m5 = [[2, 4, 4], [4, 2, 4], [4, 4, 2]]
    assert len(kernel(F5, sparse_rows(m5), 3)) == 1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kernel_random(data):
    field = data.draw(st.sampled_from([FqField(2), FqField(3), FqField(2, [1, 1, 1]), FqField(5)]))
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    m = [[data.draw(st.integers(0, field.q - 1)) for _ in range(cols)] for _ in range(rows)]
    basis = kernel(field, sparse_rows(m), cols)
    r = len(echelon(field, sparse_rows(m)))
    assert len(basis) == cols - r
    for vec in basis:
        for row in m:
            acc = 0
            for a, b in zip(row, vec):
                acc = field.add(acc, field.mul(a, b))
            assert acc == 0


ORACLE_FIELDS = [
    FqField(2),
    FqField(3),
    FqField(2, [1, 1, 1]),
    FqField(5),
    FqField(2, [1, 1, 0, 0, 1]),
]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_sparse_elimination_matches_dense_oracle(data):
    """Kernel (vectors and order) and rank equal dense Gauss-Jordan's."""
    field = data.draw(st.sampled_from(ORACLE_FIELDS), label="field")
    m = data.draw(st.integers(0, 10), label="rows")
    n = data.draw(st.integers(1, 12), label="cols")
    # entries below zero read as zero: sparsity 0 is a uniform fill
    sparsity = data.draw(st.sampled_from([0, field.q, 4 * field.q]), label="sparsity")
    cell = st.integers(-sparsity, field.q - 1).map(lambda x: max(x, 0))
    rows = [[data.draw(cell) for _ in range(n)] for _ in range(m)]
    for i in data.draw(st.sets(st.integers(0, m - 1)), label="zero rows") if m else ():
        rows[i] = [0] * n
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=n // 2), label="zero cols"):
        for row in rows:
            row[j] = 0
    full = data.draw(st.none() | st.integers(0, n - 1), label="all-nonzero col")
    if full is not None:
        for row in rows:
            row[full] = data.draw(st.integers(1, field.q - 1))
    assert kernel(field, sparse_rows(rows), n) == kernel_basis_dense(field, rows, n)
    assert len(echelon(field, sparse_rows(rows))) == rank_dense(field, rows)


def test_kernel_needs_ncols_for_empty():
    F3 = FqField(3)
    assert echelon(F3, []) == {}
    assert kernel(F3, [], 4) == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
