"""Tests for exact linear algebra: elimination, canonical forms, builders.

Determinants, characteristic polynomials, and minimal polynomials are
checked against the brute-force expansions in oracles.py on every small
case; the canonical-form routines are checked by re-verifying the change
of basis they return.  Products and apply are property-tested against the
schoolbook loops in oracles.py.
"""

import functools
import hashlib
import itertools
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmod import matrices
from heisenmod import (
    GF,
    DoesNotSplit,
    Echelon,
    FieldElem,
    Matrix,
    MixedFields,
    NonMonic,
    Poly,
    ShapeMismatch,
    Singular,
    VerificationFailed,
    assemble_grid,
    build_companion_rep,
    char_poly,
    commutator,
    companion,
    direct_sum,
    eigenvalues_with_multiplicity,
    frobenius_form,
    jordan_block,
    jordan_form,
    kron,
    make_extension,
    min_poly,
    poly_apply,
    poly_at,
    similarity_transform,
)
from heisenmod.matrices import _conjugates, _standard_basis
from oracles import (
    brute_char_poly,
    brute_det,
    brute_min_poly,
    oracle_apply,
    oracle_closure,
    oracle_echelon,
    oracle_ext_mul,
    oracle_jordan_blocks,
    oracle_kron,
    oracle_matmul,
    oracle_rref,
)


def ext(p, m):
    from heisenmod import find_irreducible

    return make_extension(p, find_irreducible(p, m))


def rand_matrix(field, rows, cols, rng):
    return Matrix(field, rows, cols, [rng.randrange(field.order) for _ in range(rows * cols)])


def rand_invertible(field, n, rng):
    while True:
        m = rand_matrix(field, n, n, rng)
        if not m.det().is_zero():
            return m


FIELDS = [GF(2), GF(3), GF(5), ext(2, 2)]


def non_cyclic(field, rng):
    """A ⊕ A, a conjugate of it, and a scalar block plus a companion, at
    n <= 6: the minimal polynomial is a proper divisor of the
    characteristic polynomial, so one Krylov chain never fills the space."""
    for k in range(1, 4):
        a = rand_matrix(field, k, k, rng)
        g = rand_invertible(field, 2 * k, rng)
        f = Poly(field, [rng.randrange(field.order) for _ in range(5 - k)] + [1])
        c = rng.randrange(field.order)
        yield direct_sum([a, a])
        yield g.inv() * direct_sum([a, a]) * g
        yield direct_sum([Matrix.scalar(field, k + 1, c), companion(f)])


# -- plain arithmetic ---------------------------------------------------------


def test_multiplication_matches_naive_triple_loop():
    rng = random.Random(1)
    for field in FIELDS:
        for _ in range(20):
            r, k, c = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)
            a = rand_matrix(field, r, k, rng)
            b = rand_matrix(field, k, c, rng)
            prod = a * b
            for i in range(r):
                for j in range(c):
                    acc = field.zero()
                    for t in range(k):
                        acc = acc + a.at(i, t) * b.at(t, j)
                    assert prod.at(i, j) == acc


def test_scalar_multiplication_and_negation():
    field = GF(7)
    rng = random.Random(2)
    a = rand_matrix(field, 3, 3, rng)
    three = field.element(3)
    assert three * a == a + a + a
    assert -a + a == Matrix.zeros(field, 3, 3)


def test_pow_repeated_product_and_negative_exponent():
    field = GF(5)
    rng = random.Random(3)
    a = rand_invertible(field, 3, rng)
    assert a**0 == Matrix.identity(field, 3)
    assert a**3 == a * a * a
    assert a ** (-2) == a.inv() * a.inv()


def test_apply_agrees_with_column_product():
    rng = random.Random(4)
    for field in FIELDS:
        a = rand_matrix(field, 3, 4, rng)
        v = [rng.randrange(field.order) for _ in range(4)]
        col = Matrix(field, 4, 1, v)
        assert a.apply(v) == (a * col).column(0)
    with pytest.raises(ShapeMismatch):
        a.apply([0, 0, 0])


# -- the packed product kernel ---------------------------------------------------

# prime fields, the last with slots wider than 8 bytes; table-backed
# extensions up to the 512-element limit; and extensions above it, which
# multiply scalars without tables
KERNEL_FIELDS = [
    (2, 1), (3, 1), (251, 1), (2**31 - 1, 1), (2, 2), (2, 3), (5, 2), (2, 9),
    (3, 6), (2, 10),
]


def field_of(spec):
    p, m = spec
    return GF(p) if m == 1 else ext(p, m)


def codes(field, count):
    return st.lists(
        st.integers(0, field.order - 1), min_size=count, max_size=count
    )


@st.composite
def matrix_pairs(draw):
    field = field_of(draw(st.sampled_from(KERNEL_FIELDS)))
    n, inner, k = (draw(st.integers(0, 6)) for _ in range(3))
    a = Matrix(field, n, inner, draw(codes(field, n * inner)))
    b = Matrix(field, inner, k, draw(codes(field, inner * k)))
    return a, b


@st.composite
def matrix_vectors(draw):
    field = field_of(draw(st.sampled_from(KERNEL_FIELDS)))
    n, inner = draw(st.integers(0, 6)), draw(st.integers(0, 9))
    a = Matrix(field, n, inner, draw(codes(field, n * inner)))
    return a, draw(codes(field, inner))


@settings(max_examples=150)
@given(matrix_pairs())
def test_product_matches_oracle(pair):
    a, b = pair
    assert a * b == oracle_matmul(a, b)


@settings(max_examples=150)
@given(matrix_vectors())
def test_apply_matches_oracle(pair):
    a, v = pair
    assert a.apply(v) == oracle_apply(a, v)
    assert a.apply(v) == oracle_apply(a, v)  # again, from the cached rows


@st.composite
def element_pairs(draw):
    field = field_of(draw(st.sampled_from(KERNEL_FIELDS)))
    a, b = draw(codes(field, 2))
    return field, a, b


@settings(max_examples=100)
@given(element_pairs())
def test_scalar_mul_matches_polynomial_oracle(case):
    field, a, b = case
    if field.modulus is None:
        assert field.mul(a, b) == a * b % field.p
    else:
        assert field.mul(a, b) == oracle_ext_mul(field, a, b)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize(
    "n,inner,k", [(0, 3, 4), (3, 4, 0), (3, 0, 4), (1, 1, 1), (2, 3, 5)]
)
def test_product_shapes_match_oracle(spec, n, inner, k):
    field = field_of(spec)
    rng = random.Random(n * 100 + inner * 10 + k)
    a = rand_matrix(field, n, inner, rng)
    b = rand_matrix(field, inner, k, rng)
    prod = a * b
    assert (prod.rows, prod.cols) == (n, k)
    assert prod == oracle_matmul(a, b)
    assert a.apply([1] * inner) == oracle_apply(a, [1] * inner)


def test_scalar_mul_matches_polynomial_oracle_on_every_pair():
    # GF(2^5) by a dense modulus: its folds add to the most slots
    dense = make_extension(2, Poly(GF(2), [1, 0, 1, 1, 1, 1]))
    for field in [ext(2, 3), ext(3, 2), ext(5, 2), dense]:
        for a in range(field.order):
            for b in range(field.order):
                assert field.mul(a, b) == oracle_ext_mul(field, a, b)


def slot_bound(field, inner):
    """The largest slot value of a sum of inner products, folds included."""
    p, m = field.p, field.degree
    return inner * m * (p - 1) ** 2 * p ** (m - 1)


def slot_bytes(field, inner):
    """The slot width of the codec for inner: entry 1 of a packed row starts
    2m - 1 slots up."""
    one = field.row_codec[inner].pack([0, 1])
    return (one.bit_length() - 1) // (8 * (2 * field.degree - 1))


def widest_inner(field, size):
    """The largest inner whose slots are at most size bytes wide, or 0."""
    return ((1 << 8 * size) - 1) // slot_bound(field, 1)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_slot_width_is_the_least_that_holds_the_bound(spec):
    # the widths switch where 2^s > bound stops holding; a bound of exactly
    # 2^8 - 1 or 2^16 - 1 fits, one of 2^8 or 2^16 does not
    field = field_of(spec)
    inners = {1, 2, 3, 9, 31, 32, 63, 64, 65, 127, 128, 129, 255, 256, 1024}
    for size in (1, 2):
        widest = widest_inner(field, size)
        inners |= {widest, widest + 1} - {0}
    for inner in sorted(inners):
        bound = slot_bound(field, inner)
        want = next((b for b in (1, 2, 4, 8) if bound < 1 << 8 * b),
                    (bound.bit_length() + 7) // 8)
        assert slot_bytes(field, inner) == want, inner


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("inner", [3, 31, 64, 65, 127, "1-byte", "2-byte"])
def test_product_at_largest_codes_has_no_slot_carry(spec, inner):
    # every digit p - 1 makes each slot of every dot product as large as
    # the slot width allows for; inner + 1 a power of two leaves the least
    # room in the slots, and so does the largest inner of a slot width
    field = field_of(spec)
    top = field.order - 1
    if isinstance(inner, str):
        size = int(inner[0])
        inner = widest_inner(field, size)
        if not inner:  # even one product needs wider slots
            assert slot_bytes(field, 1) > size
            return
        assert slot_bytes(field, inner) == size < slot_bytes(field, inner + 1)
        if inner < 256:
            check_elimination_at_largest_codes(field, inner - 1)
    a = Matrix(field, 3, inner, [top] * (3 * inner))
    b = Matrix(field, inner, 2, [top] * (inner * 2))
    assert a * b == oracle_matmul(a, b)
    assert a.apply([top] * inner) == oracle_apply(a, [top] * inner)
    # B as wide as A is tall takes the row path, and its second product the
    # table of multiples wherever q - 1 <= inner
    b = Matrix(field, inner, 3, [top] * (inner * 3))
    want = oracle_matmul(a, b)
    assert a * b == want and a * b == want
    assert (b._row_table is not None) == (top <= inner)


def slot_digit_codes(field, R, n, size):
    """The n codes of a packed sum read digit by digit: each slot of size
    bytes taken mod p on its own, then each element's 2m - 1 digits reduced
    modulo the defining polynomial from the top digit down."""
    p, m, s = field.p, field.degree, 8 * size
    out = []
    for j in range(n):
        digits = [(R >> s * ((2 * m - 1) * j + k) & (1 << s) - 1) % p
                  for k in range(2 * m - 1)]
        for k in range(2 * m - 2, m - 1, -1):  # X^k = X^(k-m) X^m
            top, digits[k] = digits[k], 0
            for i, c in enumerate(field.modulus[:m]):
                digits[k - m + i] = (digits[k - m + i] - top * c) % p
        out.append(sum(d * p**i for i, d in enumerate(digits[:m])))
    return out


@st.composite
def char2_sums(draw):
    """(field, inner, slot bytes, R, its codes): R sums exactly inner
    products elem[c] * pack(row) of rows of n <= 5 entries, as k copies of
    a few distinct products, over GF(2), GF(4), GF(8) and GF(2^9), at
    inner lengths up to the largest of one- and two-byte slots; codes are
    drawn at the largest code often."""
    field = field_of(draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 9)])))
    size = draw(st.sampled_from([s for s in (1, 2) if widest_inner(field, s)]))
    lo, hi = widest_inner(field, size - 1) + 1, widest_inner(field, size)
    inner = draw(st.one_of(st.just(hi), st.integers(lo, hi)))
    codec, n, top = field.row_codec[inner], draw(st.integers(1, 5)), field.order - 1
    code = st.one_of(st.just(top), st.integers(0, top))
    cuts = sorted(draw(st.lists(st.integers(0, inner), max_size=3)))
    R, want = 0, [0] * n
    for k in (b - a for a, b in zip([0, *cuts], [*cuts, inner])):
        c, row = draw(code), draw(st.lists(code, min_size=n, max_size=n))
        R += k * codec.elem[c] * codec.pack(row)
        for j, x in enumerate(row):  # k copies: k mod 2 of them
            want[j] = field.add(want[j], field.mul(c, x) if k % 2 else 0)
    return field, inner, size, R, want


@settings(max_examples=200)
@given(char2_sums())
def test_characteristic_2_codec_matches_digit_by_digit_reduction(case):
    # in characteristic 2 canon, unpack and read mask a bit per slot
    field, inner, size, R, want = case
    codec, n = field.row_codec[inner], len(want)
    assert slot_bytes(field, inner) == size
    assert slot_digit_codes(field, R, n, size) == want
    assert codec.unpack(R, n) == want
    assert [codec.read(R, j) for j in range(n)] == want
    assert codec.canon(R, n) == codec.pack(want)
    assert codec.unpack(codec.canon(R, n), n) == want


def check_elimination_at_largest_codes(field, k):
    """rref, det and kernel_basis of k x k and k x (k + 1) matrices of
    largest codes, on the codec for inner k + 1: each upper triangular row
    takes one row operation per pivot after it, each lower one per pivot
    before it, before its next canon.  The determinants have closed forms:
    1, and top^k (-1)^(k-1) (k - 1) for top (J - I), the hollow matrix."""
    if k == 0:
        return
    p, top = field.p, field.order - 1
    upper = [[top if j > i else int(i == j) for j in range(k)] for i in range(k)]
    lower = [row[::-1] for row in upper[::-1]]
    hollow = [[top if j != i else 0 for j in range(k)] for i in range(k)]
    for rows in (upper, lower, hollow):
        a = Matrix(field, k, k, [x for row in rows for x in row])
        wide = Matrix(field, k, k + 1, [x for row in rows for x in row + [top]])
        for m in (a, wide):
            red, pivots = m.rref()
            if k <= 64:
                want, want_pivots = oracle_rref(field, m.row_lists(), m.cols)
                assert (red.row_lists(), pivots) == (want, want_pivots)
            kernel = m.kernel_basis()
            assert len(kernel) == m.cols - len(pivots)
            assert all(not any(oracle_apply(m, v)) for v in kernel)
        if rows is hollow:
            assert a.det() == field.element(top) ** k * ((-1) ** (k - 1) * (k - 1) % p)
        else:
            assert a.det() == 1


@pytest.mark.parametrize(
    "spec", [(2, 1), (3, 1), (5, 1), (2, 2), (5, 2), (3, 6)], ids=str
)
@pytest.mark.parametrize("n,inner,k", [(16, 16, 16), (8, 16, 24), (24, 16, 8), (3, 4, 4)])
def test_sparse_right_factors_match_oracle(spec, n, inner, k):
    # densities of B across the sparse threshold (one nonzero in eight),
    # with k < n and k >= n; B's rows are packed only off the column path
    field = field_of(spec)
    rng = random.Random(f"{spec}-{n}-{inner}-{k}")
    a_data = [rng.randrange(field.order) for _ in range(n * inner)]
    size = inner * k
    for nonzeros in sorted({0, 1, size // 16, size // 8, size // 8 + 1, size // 4, size}):
        data = [0] * size
        for pos in rng.sample(range(size), nonzeros):
            data[pos] = rng.randrange(1, field.order)
        a, b = Matrix(field, n, inner, a_data), Matrix(field, inner, k, data)
        assert a * b == oracle_matmul(a, b)
        assert (b._packed_rows is None) == (k < n or 8 * nonzeros <= size)


def test_packed_cache_stays_out_of_equality_hash_and_pickle():
    field = ext(3, 2)
    rng = random.Random(6)
    a = rand_matrix(field, 4, 4, rng)
    b = rand_matrix(field, 4, 3, rng)
    fresh = Matrix(field, 4, 4, list(a.data))
    prod = a * b  # packs a's rows and b's columns
    a.apply([1, 2, 3, 4])
    assert a == fresh and hash(a) == hash(fresh)
    restored = pickle.loads(pickle.dumps(a))
    assert restored == a
    assert restored * b == prod
    assert a * pickle.loads(pickle.dumps(b)) == prod


# GF(2), GF(3), GF(4), GF(8) and GF(25): a right factor with at least q - 1
# rows keeps its rows' multiples from its second product on
TABLE_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (5, 2)]


@pytest.mark.parametrize("spec", TABLE_FIELDS, ids=str)
def test_reused_right_factor_matches_the_oracle(spec):
    # a 1-row, a square and a tall left factor, in every order, as the 1st,
    # 2nd and 3rd product by one right factor; every product takes the row
    # path, the first with packed rows and the others with the table
    field = field_of(spec)
    rng = random.Random(f"{spec}-reused")
    inner = max(field.order - 1, 5)
    b_data = [rng.randrange(field.order) for _ in range(inner * (inner + 3))]
    lefts = [rand_matrix(field, rows, inner, rng) for rows in (1, inner, inner + 3)]
    want = [oracle_matmul(a, Matrix(field, inner, inner + 3, b_data)) for a in lefts]
    for order in itertools.permutations(range(3)):
        b = Matrix(field, inner, inner + 3, b_data)
        for count, i in enumerate(order):
            assert lefts[i] * b == want[i]
            assert (b._row_table is None) == (count == 0)
            assert b._packed_cols is None


@pytest.mark.parametrize("spec", [(3, 1), (5, 1), (2, 3), (5, 2)], ids=str)
def test_row_table_needs_q_minus_one_rows(spec):
    # a right factor of q - 1 rows gets a table at its second product, one
    # of q - 2 rows none
    field = field_of(spec)
    rng = random.Random(f"{spec}-rows")
    for rows, table in ((field.order - 1, True), (field.order - 2, False)):
        a = rand_matrix(field, rows + 1, rows, rng)
        b = rand_matrix(field, rows, rows + 2, rng)
        want = oracle_matmul(a, b)
        assert a * b == want and b._row_table is None
        assert a * b == want and (b._row_table is not None) == table


def test_row_table_stays_within_its_size_bound(monkeypatch):
    # a table of more bits than the bound is never built, and products by
    # its matrix keep the packed rows
    field = ext(2, 2)
    rng = random.Random(10)
    a, data = rand_matrix(field, 4, 4, rng), [rng.randrange(4) for _ in range(24)]
    bits = field.order * 4 * 6 * field.row_codec[4].bits
    want = oracle_matmul(a, Matrix(field, 4, 6, data))
    for bound, built in ((bits, True), (bits - 1, False)):
        monkeypatch.setattr(matrices, "_ROW_TABLE_BITS", bound)
        b = Matrix(field, 4, 6, data)
        assert a * b == want and a * b == want and a * b == want
        assert (b._row_table is not None) == built


def test_row_table_stays_out_of_pickle():
    field = ext(2, 2)
    rng = random.Random(9)
    a, b = rand_matrix(field, 4, 4, rng), rand_matrix(field, 4, 5, rng)
    prod = a * b
    assert a * b == prod and b._row_table is not None
    restored = pickle.loads(pickle.dumps(b))
    assert restored == b
    assert restored._row_table is None and restored._packed_rows is None
    assert a * restored == prod and restored._row_table is None
    assert a * restored == prod and restored._row_table is not None


@pytest.mark.parametrize("spec", [(7, 1), (5, 2), (5, 1)], ids=str)
def test_product_and_apply_make_no_scalar_field_calls(spec, monkeypatch):
    # one arithmetic path: products and apply run on packed rows only, never
    # on the field's per-element closures; over GF(5) the second a * b reads
    # b's table of multiples
    field = field_of(spec)
    rng = random.Random(8)
    a = rand_matrix(field, 5, 4, rng)
    b = rand_matrix(field, 4, 6, rng)
    narrow = rand_matrix(field, 4, 2, rng)
    v = [rng.randrange(field.order) for _ in range(4)]
    want = (oracle_matmul(a, b), oracle_matmul(a, narrow), oracle_apply(a, v))
    calls = []
    for name in ("add", "sub", "mul"):
        plain = getattr(field, name)

        def counting(*args, plain=plain):
            calls.append(1)
            return plain(*args)

        monkeypatch.setattr(field, name, counting)
    assert (a * b, a * narrow, a.apply(v)) == want
    assert a * b == want[0]
    assert not calls


def test_pow_costs_one_product_per_step(monkeypatch):
    field = GF(5)
    rng = random.Random(7)
    a = rand_invertible(field, 3, rng)
    nil = Matrix(field, 3, 3, [0, 1, 0, 0, 0, 1, 0, 0, 0])
    want = {e: Matrix.identity(field, 3) for e in range(9)}
    for e in range(1, 9):
        want[e] = want[e - 1] * a
    products = []
    plain = Matrix.__mul__

    def counting(self, other):
        if isinstance(other, Matrix):
            products.append(1)
        return plain(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    for e, cost in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)]:
        products.clear()
        assert a**e == want[e]
        assert len(products) == cost, e
    products.clear()
    assert nil**1 == nil and not products
    assert a ** (-2) == a.inv() * a.inv()


# -- self-checks ------------------------------------------------------------------


# Each check must raise VerificationFailed, which python -O keeps; the
# corruptions below reach one check each.


def test_frobenius_form_self_check_raises(monkeypatch):
    a = Matrix(GF(3), 3, 3, [1, 0, 0, 1, 1, 0, 0, 0, 2])
    monkeypatch.setattr(Matrix, "__eq__", lambda self, other: False)
    with pytest.raises(VerificationFailed, match="canonical form"):
        frobenius_form(a)


def test_similarity_transform_self_check_raises(monkeypatch):
    import heisenmod.matrices as mt

    field = GF(3)
    a = Matrix(field, 2, 2, [1, 0, 0, 2])
    b = Matrix(field, 2, 2, [2, 0, 0, 1])
    fake = mt.CanonicalForm([Poly(field, [1])], Matrix.identity(field, 2))
    monkeypatch.setattr(mt, "frobenius_form", lambda m: fake)
    with pytest.raises(VerificationFailed, match="similarity"):
        similarity_transform(a, b)


def test_jordan_form_self_check_raises(monkeypatch):
    import heisenmod.matrices as mt

    field = GF(3)
    a = Matrix(field, 3, 3, [1, 0, 0, 1, 1, 0, 0, 0, 2])

    def shifted(f, lam, size):
        return jordan_block(f, f.add(f.code(lam), 1), size)

    monkeypatch.setattr(mt, "jordan_block", shifted)
    with pytest.raises(VerificationFailed, match="Jordan form"):
        jordan_form(a)


def test_conjugates_is_det_and_the_schoolbook_products():
    # t^-1 a t == b without an inverse: det t != 0 and a t == t b
    rng = random.Random(44)
    for field in (GF(2), ext(2, 2), GF(5)):
        for n in range(1, 5):
            for trial in range(12):
                t = rand_matrix(field, n, n, rng)
                if trial % 3 == 0:  # a singular t: its first column repeated
                    t = Matrix.from_columns(field, [t.column(0), *map(t.column, range(n - 1))])
                b = rand_matrix(field, n, n, rng)
                c = Matrix.scalar(field, n, rng.randrange(field.order))
                pairs = [(c, c), (t, t)]
                if not brute_det(t).is_zero():
                    pairs.append((t * b * t.inv(), b))
                if trial % 4 == 1:
                    a, _ = pairs[-1]
                    data = list(a.data)
                    i = rng.randrange(n * n)
                    data[i] = (data[i] + 1) % field.order  # a wrong a
                    pairs.append((Matrix(field, n, n, data), pairs[-1][1]))
                want = not brute_det(t).is_zero() and all(
                    oracle_matmul(a, t) == oracle_matmul(t, b) for a, b in pairs)
                assert _conjugates(t, pairs) == want


@pytest.mark.parametrize("form", ["frobenius_form", "jordan_form"])
@pytest.mark.parametrize("corrupt", ["singular", "swapped"])
def test_canonical_forms_refuse_a_broken_transform(monkeypatch, form, corrupt):
    import heisenmod.matrices as mt

    a = Matrix(GF(3), 3, 3, [1, 0, 0, 1, 1, 0, 0, 0, 2])
    real = Matrix.from_columns.__func__

    def broken(cls, field, cols):
        # the form's own 3-column call builds the transform it returns
        if sys._getframe(1).f_code.co_name == form and len(cols) == 3:
            cols = [cols[0], cols[0], cols[2]] if corrupt == "singular" else cols[::-1]
        return real(cls, field, cols)

    monkeypatch.setattr(Matrix, "from_columns", classmethod(broken))
    with pytest.raises(VerificationFailed, match="form verification failed"):
        getattr(mt, form)(a)


def test_transpose_and_trace():
    field = GF(3)
    rng = random.Random(5)
    a = rand_matrix(field, 3, 4, rng)
    assert a.transpose().transpose() == a
    b = rand_matrix(field, 4, 3, rng)
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert (a * b).trace() == (b * a).trace()


def test_from_columns_round_trip():
    field = GF(5)
    rng = random.Random(6)
    cols = [[rng.randrange(5) for _ in range(3)] for _ in range(4)]
    m = Matrix.from_columns(field, cols)
    assert (m.rows, m.cols) == (3, 4)
    for j, c in enumerate(cols):
        assert m.column(j) == c


def test_mixed_fields_raise():
    a = Matrix.identity(GF(2), 2)
    b = Matrix.identity(GF(3), 2)
    with pytest.raises(MixedFields):
        a * b
    with pytest.raises(MixedFields):
        a + b


def test_is_scalar():
    field = GF(5)
    assert Matrix.scalar(field, 3, 4).is_scalar() == field.element(4)
    assert Matrix.identity(field, 3).is_scalar() == field.one()
    assert jordan_block(field, 2, 3).is_scalar() is None
    assert Matrix(field, 2, 3, [0] * 6).is_scalar() is None


def test_is_scalar_agrees_with_comparing_to_a_scalar_matrix():
    def built(m):  # the scalar c if m equals the scalar matrix of its (0, 0) entry
        if m.rows != m.cols or m.rows == 0:
            return None
        c = m.data[0]
        return FieldElem(m.field, c) if m == Matrix.scalar(m.field, m.rows, c) else None

    field = GF(5)
    cases = [Matrix.zeros(field, 3, 3), Matrix.scalar(field, 3, 2),
             Matrix(field, 3, 3, [1, 0, 0, 0, 2, 0, 0, 0, 3]),  # diagonal, not scalar
             Matrix(field, 2, 2, [2, 0, 0, 0]), Matrix(field, 2, 2, [0, 0, 0, 2]),
             Matrix(field, 2, 2, [2, 2, 0, 2]), Matrix(field, 2, 2, [0, 1, 0, 0]),
             Matrix(field, 0, 0, []), Matrix.zeros(field, 2, 3), Matrix.zeros(field, 3, 2),
             Matrix(field, 1, 2, [3, 0])]
    cases += [Matrix(field, 1, 1, [c]) for c in range(5)]
    for m in cases:
        assert m.is_scalar() == built(m), m
    assert Matrix.zeros(field, 3, 3).is_scalar() == field.zero()


# -- elimination --------------------------------------------------------------


def test_rref_shape_and_idempotence():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(15):
            a = rand_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            r, pivots = a.rref()
            assert list(pivots) == sorted(pivots)
            for k, p in enumerate(pivots):
                # pivot columns are standard basis vectors
                assert r.column(p) == [1 if i == k else 0 for i in range(a.rows)]
            again, pivots2 = r.rref()
            assert again == r and pivots2 == pivots


def test_rank_nullity_and_kernel():
    rng = random.Random(8)
    for field in FIELDS:
        for _ in range(15):
            a = rand_matrix(field, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            kernel = a.kernel_basis()
            assert a.rank() + len(kernel) == a.cols
            for v in kernel:
                assert not any(a.apply(v))
            # kernel vectors are independent: each has a 1 where others are 0
            ech = Echelon(field, a.cols)
            for v in kernel:
                assert ech.insert(v) is not None


def test_solve_finds_a_solution_and_detects_inconsistency():
    rng = random.Random(9)
    for field in FIELDS:
        for _ in range(15):
            a = rand_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            x = [rng.randrange(field.order) for _ in range(a.cols)]
            b = a.apply(x)
            y = a.solve(b)
            assert y is not None and a.apply(y) == b
    a = Matrix.from_rows(GF(3), [[1, 0], [1, 0]])
    assert a.solve([1, 2]) is None
    with pytest.raises(ShapeMismatch):
        a.solve([1, 2, 3])


def test_inv_round_trip_and_singular():
    rng = random.Random(10)
    for field in FIELDS:
        for n in range(1, 5):
            a = rand_invertible(field, n, rng)
            assert a * a.inv() == Matrix.identity(field, n)
            assert a.inv() * a == Matrix.identity(field, n)
    with pytest.raises(Singular):
        Matrix.zeros(GF(2), 2, 2).inv()
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(GF(2), 2, 3).inv()


# -- elimination on packed rows against the closure loop -------------------------


@st.composite
def eliminations(draw):
    """A matrix over a kernel field: random, tall and rank-deficient (a
    product through an inner dimension below its width), or empty."""
    field = field_of(draw(st.sampled_from(KERNEL_FIELDS)))
    shape = draw(st.sampled_from(["random", "tall", "empty"]))
    if shape == "tall":
        cols = draw(st.integers(1, 6))
        rows = draw(st.integers(4 * cols, 40))
        inner = draw(st.integers(0, cols - 1))
        a = Matrix(field, rows, inner, draw(codes(field, rows * inner)))
        b = Matrix(field, inner, cols, draw(codes(field, inner * cols)))
        return a * b
    if shape == "empty":
        n = draw(st.integers(0, 5))
        wide = draw(st.booleans())
        return Matrix(field, 0, n, []) if wide else Matrix(field, n, 0, [])
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return Matrix(field, rows, cols, draw(codes(field, rows * cols)))


@settings(max_examples=200)
@given(eliminations())
def test_rref_and_kernel_match_oracle(m):
    want_rows, want_pivots = oracle_rref(m.field, m.row_lists(), m.cols)
    red, pivots = m.rref()
    assert pivots == want_pivots
    assert red.row_lists() == want_rows
    assert m.rank() == len(pivots)
    # the kernel basis is fixed by the pivots: 1 at its free column, 0 at
    # the other free columns, and M v = 0
    free = [c for c in range(m.cols) if c not in pivots]
    basis = m.kernel_basis()
    assert len(basis) == len(free)
    for v, f in zip(basis, free):
        assert [v[c] for c in free] == [int(c == f) for c in free]
        assert not any(oracle_apply(m, v))


@st.composite
def square_systems(draw):
    field = field_of(draw(st.sampled_from(KERNEL_FIELDS)))
    n = draw(st.integers(0, 5))
    m = Matrix(field, n, n, draw(codes(field, n * n)))
    if n and draw(st.booleans()):
        # a repeated row makes it singular
        data = list(m.data)
        data[:n] = data[-n:]
        m = Matrix(field, n, n, data)
    return m, draw(codes(field, n))


@settings(max_examples=150)
@given(square_systems())
def test_det_inv_and_solve_match_oracles(case):
    m, b = case
    n = m.rows
    assert m.det() == brute_det(m)
    _, pivots = oracle_rref(m.field, m.row_lists(), n)
    if len(pivots) == n:
        assert oracle_matmul(m, m.inv()) == Matrix.identity(m.field, n)
    else:
        with pytest.raises(Singular):
            m.inv()
    aug = [row + [x] for row, x in zip(m.row_lists(), b)]
    _, aug_pivots = oracle_rref(m.field, aug, n + 1)
    x = m.solve(b)
    if aug_pivots and aug_pivots[-1] == n:
        assert x is None
    else:
        assert oracle_apply(m, x) == list(b)


@pytest.mark.parametrize(
    "spec,rows,cols",
    [((2, 1), 64, 16), ((3, 1), 64, 16), ((3, 1), 18, 9), ((2, 2), 2, 2), ((3, 2), 3, 3)],
    ids=str,
)
def test_stacked_and_tiny_systems_match_oracle(spec, rows, cols):
    # stacks of rank-deficient blocks, the tall centralizer systems of the
    # minimum-dimension search, and tiny extension-field systems, at every
    # rank from 0 to full: rref, rank, kernel and solve against the textbook
    # loop, with a consistent right-hand side and, below full row rank, an
    # inconsistent one
    field = field_of(spec)
    rng = random.Random(f"stacked-{spec}-{rows}")
    neg = field.neg
    for inner in sorted({0, 1, cols // 2, cols - 1, cols}):
        right = rand_matrix(field, inner, cols, rng)
        heights = [rows // 4 + (i < rows % 4) for i in range(4)]
        m = Matrix(field, rows, cols, [
            x for h in heights for x in (rand_matrix(field, h, inner, rng) * right).data])
        want, pivots = oracle_rref(field, m.row_lists(), cols)
        assert m.rref() == (Matrix.from_rows(field, want), pivots)
        assert m.rank() == len(pivots)
        kernel = []
        for free in (c for c in range(cols) if c not in pivots):
            v = [0] * cols
            v[free] = 1
            for r, c in enumerate(pivots):
                v[c] = neg(want[r][free])
            kernel.append(v)
        assert m.kernel_basis() == kernel
        b = oracle_apply(m, [rng.randrange(field.order) for _ in range(cols)])
        x = m.solve(b)
        assert oracle_apply(m, x) == b
        assert all(not x[c] for c in range(cols) if c not in pivots)
        if len(pivots) < rows:
            while True:
                b = [rng.randrange(field.order) for _ in range(rows)]
                aug = [row + [y] for row, y in zip(m.row_lists(), b)]
                if oracle_rref(field, aug, cols + 1)[1][-1] == cols:
                    break
            assert m.solve(b) is None


def test_elimination_stops_once_the_echelon_is_full(monkeypatch):
    # rows after the first full-rank block are never reduced
    reduced, clear = [], Echelon._clear

    def counted(self, *args):
        reduced.append(args[0])
        return clear(self, *args)

    monkeypatch.setattr(Echelon, "_clear", counted)
    field, rng = GF(3), random.Random(4)
    m = Matrix(field, 40, 4, Matrix.identity(field, 4).data + rand_matrix(field, 36, 4, rng).data)
    assert m.kernel_basis() == [] and m.rank() == 4
    assert len(reduced) == 8


@pytest.mark.parametrize("spec", [(3, 1), (5, 1), (7, 1), (3, 2)], ids=str)
def test_det_of_scaled_permutation_matrices(spec):
    # det = sign(pi) * the product of the scalars, at sizes beyond
    # brute_det's reach; outside characteristic 2 a wrong parity shows
    field = field_of(spec)
    rng = random.Random(f"permutation-{spec}")
    for n in range(6, 13):
        for perm in ([1, 0, *range(2, n)], rng.sample(range(n), n), rng.sample(range(n), n)):
            scalars = [rng.randrange(1, field.order) for _ in range(n)]
            data = [0] * (n * n)
            for i, (j, c) in enumerate(zip(perm, scalars)):
                data[i * n + j] = c
            product = functools.reduce(field.mul, scalars, 1)
            odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            want = field.neg(product) if odd else product
            assert Matrix(field, n, n, data).det() == FieldElem(field, want)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("width", [31, 64, 65, 127])
def test_elimination_at_largest_codes_has_no_slot_carry(spec, width):
    field = field_of(spec)
    top = field.order - 1
    flat = Matrix(field, 3, width, [top] * (3 * width))
    red, pivots = flat.rref()
    assert pivots == (0,)
    assert red.row_lists() == [[1] * width, [0] * width, [0] * width]
    assert len(flat.kernel_basis()) == width - 1
    # unitriangular with every digit p - 1 above the diagonal: row i takes
    # one row operation by a largest code for each pivot after it
    tri = Matrix(field, width, width, [
        top if j > i else int(i == j) for i in range(width) for j in range(width)
    ])
    red, pivots = tri.rref()
    assert pivots == tuple(range(width))
    assert red == Matrix.identity(field, width)
    assert tri.det() == 1
    assert tri * tri.inv() == Matrix.identity(field, width)


def test_empty_shapes_eliminate():
    field = GF(5)
    wide = Matrix(field, 0, 3, [])
    assert wide.rref() == (wide, ())
    assert wide.kernel_basis() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert wide.solve([]) == [0, 0, 0]
    tall = Matrix(field, 3, 0, [])
    assert tall.rank() == 0 and tall.kernel_basis() == []
    assert tall.solve([0, 0, 0]) == [] and tall.solve([0, 1, 0]) is None
    empty = Matrix(field, 0, 0, [])
    assert empty.det() == 1 and empty.inv() == empty


@pytest.mark.parametrize("field", [GF(2), GF(3), ext(2, 2)], ids=str)
def test_standard_basis_matches_closure_oracle(field):
    rng = random.Random(field.order + 40)

    def vector(d):
        return [rng.randrange(field.order) for _ in range(d)]

    def sparse(d):
        # mostly zero, so that proper closures are common
        return Matrix(field, d, d, [x if rng.random() < 0.15 else 0 for x in vector(d * d)])

    for trial in range(40):
        d = rng.randint(1, 6)
        ops = [sparse(d) for _ in range(rng.randint(1, 3))]
        seeds = [vector(d) for _ in range(rng.randint(0, 3))]
        base, base_rows = None, []
        if trial % 2:
            # the closure of a few vectors: an invariant base
            base_rows = oracle_closure(field, ops, [vector(d) for _ in range(2)], d)
            base = Echelon(field, d)
            for v in base_rows:
                base.insert(v)
            before = ([list(v) for v in base.vectors], list(base.pivots))
        ech, basis, words = _standard_basis(ops, seeds, base)
        spanned = oracle_closure(field, ops, base_rows + seeds, d)
        assert ech.dim == len(spanned) == len(base_rows) + len(basis)
        assert oracle_rref(field, ech.vectors, d)[0][: ech.dim] == spanned
        # independent modulo the base
        assert len(oracle_rref(field, base_rows + basis, d)[1]) == ech.dim
        # the seeds used appear in their given order; every other vector
        # replays its word from an earlier one
        used = iter(seeds)
        for i, word in enumerate(words):
            if word is None:
                assert basis[i] in used
            else:
                j, b = word
                assert b < i and oracle_apply(ops[j], basis[b]) == basis[i]
        if base is not None:
            assert ([list(v) for v in base.vectors], list(base.pivots)) == before


def test_echelon_tracks_span():
    field = GF(3)
    ech = Echelon(field, 3)
    assert ech.insert([1, 2, 0]) == 0
    assert ech.insert([0, 1, 1]) == 1
    assert ech.insert([1, 0, 1]) is None  # the sum of the first two
    assert ech.dim == 2
    assert ech.contains([2, 1, 0])  # twice the first
    assert not ech.contains([0, 0, 1])
    assert not any(ech.reduce([1, 0, 1]))
    for row, piv in zip(ech.sorted_rows(), sorted(ech.pivots)):
        assert row[piv] == 1  # normalized pivots in pivot order


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_echelon_matches_per_entry_oracle(spec):
    # input by input: the same pivots, reductions and membership answers;
    # a third of the inputs are combinations of earlier ones, a third
    # sparse, and every input after the first width also probes
    field = field_of(spec)
    rng = random.Random(f"echelon-{spec}")
    add, mul, top = field.add, field.mul, field.order - 1
    for width in (1, 2, 5, 9):
        ech, want = Echelon(field, width), oracle_echelon(field, width)
        seen = [[top] * width]
        for i in range(3 * width):
            kind = rng.randrange(3)
            if kind == 0:
                v = [0] * width
                for u in rng.sample(seen, min(len(seen), 3)):
                    c = rng.randrange(field.order)
                    v = [add(x, mul(c, y)) for x, y in zip(v, u)]
            else:
                v = [rng.randrange(field.order) if kind == 2 or rng.random() < 0.3
                     else 0 for _ in range(width)]
            assert ech.reduce(v) == want.reduce(v)
            assert ech.contains(v) == want.contains(v)
            assert ech.insert(v) == want.insert(v)
            assert ech.sorted_rows() == want.sorted_rows()
            seen.append(v)
        assert ech.pivots == want.pivots and ech.vectors == want.sorted_rows()


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("k", [31, 64, 65, 127])
def test_echelon_at_largest_codes_has_no_slot_carry(spec, k):
    # unitriangular rows of largest codes, the last inserted first: each
    # takes one multiply-add per earlier row before its single canon, and
    # each is stored as its unit vector
    field = field_of(spec)
    top = field.order - 1
    upper = [[top if j > i else int(i == j) for j in range(k)] for i in range(k)]
    eye = Matrix.identity(field, k).row_lists()
    ech, wide = Echelon(field, k), Echelon(field, k + 1)
    for i in reversed(range(k)):
        assert ech.insert(upper[i]) == wide.insert(upper[i] + [top]) == i
    assert ech.sorted_rows() == eye
    assert [ech.codec.unpack(r, k) for r in ech.rows] == eye[::-1]
    assert not any(ech.reduce([top] * k))
    # one column more leaves the space unfilled, so the rows are reduced to
    # [I | c], and each inserted row u | top is sum u_j (e_j | c_j)
    reduced = wide.sorted_rows()
    assert [row[:k] for row in reduced] == eye
    add, mul = field.add, field.mul
    for row in upper:
        assert functools.reduce(add, map(mul, row, [r[k] for r in reduced]), 0) == top
    if k <= 64:
        want, _ = oracle_rref(field, [row + [top] for row in upper], k + 1)
        assert reduced == want


def test_echelon_refuses_a_vector_of_another_length():
    ech = Echelon(GF(3), 3)
    ech.insert([1, 0, 0])
    for v in ([0, 0, 0, 1], [1, 0]):
        for op in (ech.insert, ech.reduce, ech.contains):
            with pytest.raises(ShapeMismatch):
                op(v)
    assert ech.dim == 1 and ech.pivots == [0]


# -- determinant and characteristic polynomial --------------------------------


def test_det_matches_permutation_expansion_exhaustive_gf2():
    field = GF(2)
    for bits in itertools.product(range(2), repeat=9):
        m = Matrix(field, 3, 3, list(bits))
        assert m.det() == brute_det(m)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_det_matches_permutation_expansion_random(field):
    rng = random.Random(field.order)
    for n in range(1, 5):
        for _ in range(10):
            m = rand_matrix(field, n, n, rng)
            assert m.det() == brute_det(m)


def test_det_is_multiplicative():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(10):
            a = rand_matrix(field, 3, 3, rng)
            b = rand_matrix(field, 3, 3, rng)
            assert (a * b).det() == a.det() * b.det()


def test_char_poly_matches_permutation_expansion_exhaustive_gf2():
    field = GF(2)
    for bits in itertools.product(range(2), repeat=4):
        m = Matrix(field, 2, 2, list(bits))
        assert char_poly(m) == brute_char_poly(m)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_char_poly_matches_permutation_expansion_random(field):
    rng = random.Random(field.order + 1)
    for n in range(1, 5):
        for _ in range(6):
            m = rand_matrix(field, n, n, rng)
            f = char_poly(m)
            assert f == brute_char_poly(m)
            assert f.is_monic() and f.degree == n
            assert poly_at(f, m).is_zero()  # Cayley-Hamilton


# -- minimal polynomial --------------------------------------------------------


def test_min_poly_matches_kernel_oracle_exhaustive_gf2():
    field = GF(2)
    for bits in itertools.product(range(2), repeat=4):
        m = Matrix(field, 2, 2, list(bits))
        assert min_poly(m) == brute_min_poly(m)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_min_poly_matches_kernel_oracle_random(field):
    rng = random.Random(field.order + 2)
    randoms = [rand_matrix(field, n, n, rng) for n in range(1, 5) for _ in range(6)]
    for m in randoms + list(non_cyclic(field, rng)):
        f = min_poly(m)
        assert f == brute_min_poly(m)
        assert f.is_monic()
        assert poly_at(f, m).is_zero()
        assert not (char_poly(m) % f).coeffs  # divides the char poly


def repeated_blocks(field, rng):
    """Conjugated direct sums of repeated companion blocks, with a square
    block on top half the time: min_poly needs a seed per block and
    frobenius_form one extraction per block.  Yields (matrix, its invariant
    factors)."""
    for _ in range(4):
        f = Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(1, 4))] + [1])
        factors = [f] * rng.randrange(2, 4)
        if rng.randrange(2):
            factors.append(f * f)
        a = direct_sum([companion(d) for d in factors])
        t = rand_invertible(field, a.rows, rng)
        yield t.inv() * a * t, factors


@pytest.mark.parametrize("field", FIELDS + [GF(7), ext(7, 3)], ids=str)
def test_min_poly_and_frobenius_form_of_repeated_blocks(field):
    rng = random.Random(f"repeated {field}")
    for a, factors in repeated_blocks(field, rng):
        assert min_poly(a) == factors[-1] == brute_min_poly(a)
        assert frobenius_form(a).invariant_factors == factors


@pytest.mark.parametrize("field", FIELDS + [GF(7), ext(7, 3)], ids=str)
def test_char_poly_of_repeated_blocks_reads_the_krylov_pass(field, monkeypatch):
    # deg m < n, so char_poly multiplies the pass's relative orders; no
    # Frobenius form is built
    import heisenmod.matrices as mt

    def refuse(a):
        raise AssertionError("char_poly built a Frobenius form")

    monkeypatch.setattr(mt, "frobenius_form", refuse)
    rng = random.Random(f"char poly {field}")
    for a, factors in repeated_blocks(field, rng):
        got = char_poly(a)
        assert got == functools.reduce(Poly.__mul__, factors)
        assert a.rows > 6 or got == brute_char_poly(a)


def test_min_poly_solves_no_system(monkeypatch):
    # the annihilator of each Krylov chain is read off its own echelon
    rng = random.Random("no solve")
    cases = [(a, factors[-1]) for field in (GF(2), GF(5), ext(2, 2))
             for a, factors in repeated_blocks(field, rng)]

    def refuse(*args):
        raise AssertionError("min_poly built or solved a linear system")

    monkeypatch.setattr(Matrix, "solve", refuse)
    monkeypatch.setattr(Matrix, "from_columns", refuse)
    for a, want in cases:
        assert min_poly(a) == want


def rand_monic(field, degree, rng):
    return Poly(field, [rng.randrange(field.order) for _ in range(degree)] + [1])


def related_seeds(field, rng):
    """Matrices whose standard seeds meet nontrivial relations: a later
    seed's chain ends in the span of the earlier ones, or its relative
    order shares factors with theirs.  Conjugated J3(c) + J1(c) and
    C(f) + C(f g) + C(g); random elements of the image algebra of the
    companion module of (X - c)^2 (sums of generators and of products of
    two); and the 0 x 0 and 1 x 1 matrices."""
    for _ in range(3):
        c = rng.randrange(field.order)
        f, g = rand_monic(field, rng.randrange(1, 3), rng), rand_monic(field, 1, rng)
        for blocks in ([jordan_block(field, c, 3), jordan_block(field, c, 1)],
                       [companion(f), companion(f * g), companion(g)]):
            a = direct_sum(blocks)
            t = rand_invertible(field, a.rows, rng)
            yield t.inv() * a * t
    c, beta = (field.element(rng.randrange(field.order)) for _ in range(2))
    linear = Poly(field, [-c, 1])
    gens = build_companion_rep(field.one(), beta, linear * linear).gen_matrices()
    gens += [g * h for g in gens for h in gens]
    for _ in range(3):
        coeffs = [rng.randrange(field.order) for _ in gens]
        yield functools.reduce(Matrix.__add__, (g * x for g, x in zip(gens, coeffs)))
    yield Matrix(field, 0, 0, [])
    yield Matrix(field, 1, 1, [rng.randrange(field.order)])


# GF(3^6) is above the table limit
RELATION_FIELDS = [GF(2), GF(3), ext(2, 2), ext(7, 3), ext(3, 6)]


@pytest.mark.parametrize("field", RELATION_FIELDS, ids=str)
def test_min_poly_of_related_seeds_matches_the_oracle(field):
    rng = random.Random(f"related {field}")
    for a in related_seeds(field, rng):
        f = min_poly(a)
        assert f == brute_min_poly(a) and f.is_monic() and poly_at(f, a).is_zero()
        assert a.rows or f == Poly(field, [1])


@pytest.mark.parametrize("field", RELATION_FIELDS[:3], ids=str)
def test_min_poly_forms_each_krylov_vector_once(field, monkeypatch):
    # one relative pass: every a^i e_s is applied once, so min_poly calls
    # apply at most n + (number of seeds outside the earlier chains' span)
    # times; spinning each such seed from scratch takes up to n apiece
    rng = random.Random(f"apply count {field}")
    cases = list(related_seeds(field, rng))
    cases += [a for a, _ in repeated_blocks(field, rng)]
    calls = 0
    real = Matrix.apply

    def counted(self, v):
        nonlocal calls
        calls += 1
        return real(self, v)

    for a in cases:
        n, eye = a.rows, Matrix.identity(field, a.rows).row_lists()
        dims = [len(oracle_closure(field, [a], eye[: s + 1], n)) for s in range(n)]
        seeds = sum(1 for lo, hi in zip([0] + dims, dims) if hi > lo)
        monkeypatch.setattr(Matrix, "apply", counted)
        calls = 0
        got = min_poly(a)
        monkeypatch.setattr(Matrix, "apply", real)
        assert got == brute_min_poly(a)
        assert calls <= n + seeds, (n, seeds, calls)


def ppow(f, k):
    out = Poly(f.field, [1])
    for _ in range(k):
        out = out * f
    return out


def test_min_poly_of_scalar_is_linear():
    field = GF(7)
    m = Matrix.scalar(field, 4, 3)
    assert min_poly(m) == Poly(field, [-3, 1]).monic()
    assert char_poly(m) == ppow(Poly(field, [-3, 1]), 4)


# -- structured builders -------------------------------------------------------


def test_companion_display_convention():
    field = GF(5)
    alpha = field.element(2)
    f = Poly(field, [-alpha, field.zero(), field.one()])  # X^2 - alpha
    c = companion(f)
    assert c.row_lists() == [[0, 2], [1, 0]]
    with pytest.raises(NonMonic):
        companion(Poly(field, [1, 2]))
    with pytest.raises(NonMonic):
        companion(Poly(field, [3]))


def test_companion_has_its_polynomial_as_min_and_char_poly():
    rng = random.Random(12)
    for field in [GF(2), GF(3), ext(2, 2)]:
        for deg in range(1, 5):
            coeffs = [rng.randrange(field.order) for _ in range(deg)] + [1]
            f = Poly(field, coeffs)
            c = companion(f)
            assert min_poly(c) == f
            assert char_poly(c) == f


def test_jordan_block_display_convention():
    field = GF(5)
    j = jordan_block(field, 3, 3)
    assert j.row_lists() == [[3, 0, 0], [1, 3, 0], [0, 1, 3]]
    assert min_poly(j) == ppow(Poly(field, [-3, 1]), 3)


def test_direct_sum_blocks():
    field = GF(3)
    a = Matrix.from_rows(field, [[1, 2], [0, 1]])
    b = Matrix.from_rows(field, [[2]])
    s = direct_sum([a, b])
    assert s.row_lists() == [[1, 2, 0], [0, 1, 0], [0, 0, 2]]
    rng = random.Random(13)
    c, d = rand_matrix(field, 2, 2, rng), rand_matrix(field, 1, 1, rng)
    assert direct_sum([a, b]) * direct_sum([c, d]) == direct_sum([a * c, b * d])
    with pytest.raises(ShapeMismatch):
        direct_sum([])


def test_kron_mixed_product_rule():
    rng = random.Random(14)
    for field in [GF(2), GF(5)]:
        a, c = (rand_matrix(field, 2, 2, rng) for _ in range(2))
        b, d = (rand_matrix(field, 3, 3, rng) for _ in range(2))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)
    field = GF(3)
    a = Matrix.from_rows(field, [[0, 1], [2, 0]])
    assert kron(a, Matrix.identity(field, 2)).row_lists() == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [2, 0, 0, 0],
        [0, 2, 0, 0],
    ]


# prime, table-backed GF(4) and GF(25), and table-free GF(3^6)
KRON_FIELDS = [(2, 1), (5, 1), (2, 2), (5, 2), (3, 6)]


@st.composite
def kron_pairs(draw):
    field = field_of(draw(st.sampled_from(KRON_FIELDS)))
    ar, ac, br, bc = (draw(st.integers(0, 4)) for _ in range(4))
    # a draws from a palette of at most three codes, so entries repeat and 0
    # and 1 turn up often
    palette = draw(st.lists(st.integers(0, field.order - 1), min_size=1, max_size=3))
    a = Matrix(field, ar, ac, draw(st.lists(
        st.sampled_from([0, 1, *palette]), min_size=ar * ac, max_size=ar * ac)))
    b = Matrix(field, br, bc, draw(codes(field, br * bc)))
    return a, b


@settings(max_examples=150)
@given(kron_pairs())
def test_kron_matches_oracle(pair):
    a, b = pair
    assert kron(a, b) == oracle_kron(a, b)


@pytest.mark.parametrize("spec", KRON_FIELDS, ids=str)
def test_kron_of_empty_and_zero_factors(spec):
    field = field_of(spec)
    rng = random.Random(17)
    b = rand_matrix(field, 2, 3, rng)
    for a in [Matrix(field, 0, 0, []), Matrix(field, 0, 2, []),
              Matrix(field, 3, 0, []), Matrix.zeros(field, 2, 2)]:
        got = kron(a, b)
        assert got == oracle_kron(a, b)
        assert (got.rows, got.cols) == (a.rows * 2, a.cols * 3)
    a = Matrix(field, 2, 2, [1, 0, 0, field.order - 1])
    assert kron(a, Matrix(field, 0, 3, [])) == Matrix(field, 0, 6, [])


@st.composite
def shifts(draw):
    field = field_of(draw(st.sampled_from(KERNEL_FIELDS)))
    d = draw(st.integers(0, 6))
    m = Matrix(field, d, d, draw(codes(field, d * d)))
    return m, draw(st.integers(0, field.order - 1))


@settings(max_examples=100)
@given(shifts())
def test_shift_matches_scalar_subtraction(case):
    m, c = case
    assert m.shift(c) == m - Matrix.scalar(m.field, m.rows, c)
    assert m.shift(FieldElem(m.field, c)) == m.shift(c)


def test_shift_rejects_non_square():
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(GF(3), 2, 3).shift(1)


def test_assemble_grid_matches_block_layout():
    field = GF(3)
    rng = random.Random(15)
    blocks = [[rand_matrix(field, 2, 2, rng) for _ in range(2)] for _ in range(2)]
    m = assemble_grid(blocks)
    for bi in range(2):
        for bj in range(2):
            for i in range(2):
                for j in range(2):
                    assert m.at(2 * bi + i, 2 * bj + j) == blocks[bi][bj].at(i, j)
    with pytest.raises(ShapeMismatch):
        assemble_grid([[Matrix.identity(field, 2), Matrix.identity(field, 1)]])


@pytest.mark.parametrize("grid", [[], [[]], [[], []]])
def test_assemble_grid_of_nothing_is_a_shape_mismatch(grid):
    # as direct_sum([]) is; the first block used to be read unchecked
    with pytest.raises(ShapeMismatch, match="grid of nothing"):
        assemble_grid(grid)
    with pytest.raises(ShapeMismatch, match="direct sum of nothing"):
        direct_sum([])


def test_commutator_identities():
    field = GF(5)
    rng = random.Random(16)
    a, b = rand_matrix(field, 3, 3, rng), rand_matrix(field, 3, 3, rng)
    assert commutator(a, b) == a * b - b * a
    assert commutator(a, b) + commutator(b, a) == Matrix.zeros(field, 3, 3)
    assert commutator(a, b).trace() == field.zero()


def test_poly_at_matches_power_sum_and_poly_apply():
    rng = random.Random(17)
    for field in [GF(3), ext(2, 2)]:
        a = rand_matrix(field, 3, 3, rng)
        coeffs = [rng.randrange(field.order) for _ in range(5)]
        f = Poly(field, coeffs)
        expect = Matrix.zeros(field, 3, 3)
        for i, c in enumerate(coeffs):
            expect = expect + FieldElem(field, c) * a**i
        assert poly_at(f, a) == expect
        v = [rng.randrange(field.order) for _ in range(3)]
        assert poly_apply(f, a, v) == poly_at(f, a).apply(v)


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_poly_at_costs_degree_minus_one_products(spec, monkeypatch):
    # Horner's rule from c_k A + c_(k-1) I: no product by 0 or by I
    p, m = spec
    field = GF(p) if m == 1 else ext(p, m)
    rng = random.Random(p * 10 + m)
    products = []
    mul = Matrix.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    for k in range(6):
        for _ in range(4):
            a = rand_matrix(field, 4, 4, rng)
            coeffs = [rng.randrange(field.order) for _ in range(k)]
            coeffs.append(rng.randrange(1, field.order))
            expect = Matrix.zeros(field, 4, 4)
            for i, c in enumerate(coeffs):
                expect = expect + FieldElem(field, c) * a**i
            products.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Matrix, "__mul__", counted)
                got = poly_at(Poly(field, coeffs), a)
            assert got == expect
            assert len(products) == max(k - 1, 0)
    assert poly_at(Poly(field, []), a) == Matrix.zeros(field, 4, 4)


# -- canonical forms -----------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_frobenius_form_certificate(field):
    rng = random.Random(field.order + 3)
    randoms = [rand_matrix(field, n, n, rng) for n in range(1, 6) for _ in range(4)]
    for a in randoms + list(non_cyclic(field, rng)):
        cf = frobenius_form(a)
        factors = cf.invariant_factors
        assert all(d.is_monic() for d in factors)
        for d1, d2 in zip(factors, factors[1:]):
            assert not (d2 % d1).coeffs  # ascending divisibility chain
        prod = Poly(field, [1])
        for d in factors:
            prod = prod * d
        assert prod == char_poly(a)
        assert factors[-1] == min_poly(a)
        t = cf.transform
        assert t.inv() * a * t == cf.form


def canonical_corpus():
    """Seeded square matrices at n <= 8: random ones, conjugated sums of
    Jordan blocks and of companion blocks, and companion(f^2) +
    companion(f^3), on which frobenius_form's lcm split takes two steps."""
    rng = random.Random("canonical corpus")
    for field in (GF(2), GF(3), GF(5), GF(7), ext(2, 2), ext(3, 2), ext(2, 3)):
        for n in range(1, 9):
            yield rand_matrix(field, n, n, rng)
        for _ in range(3):
            jordan = [jordan_block(field, rng.randrange(min(field.order, 3)), rng.randrange(1, 4))
                      for _ in range(rng.randrange(1, 4))]
            blocks = [companion(rand_monic(field, rng.randrange(1, 3), rng))
                      for _ in range(rng.randrange(1, 4))]
            for a in (direct_sum(jordan), direct_sum(blocks)):
                t = rand_invertible(field, a.rows, rng)
                yield t.inv() * a * t
        f = rand_monic(field, rng.randrange(1, 3), rng)
        a = direct_sum([companion(f * f), companion(f * f * f)])
        yield a
        yield (t := rand_invertible(field, a.rows, rng)).inv() * a * t


# SHA-256 of the invariant factors, transforms, characteristic polynomials
# and Jordan forms of canonical_corpus(): how they are computed may change,
# the results may not (Jordan's transform is not pinned)
CANONICAL_DIGEST = "79a894b293ae622c2a266ea5ded104d471ec9bc12b894571e6d607d73d97e1df"


def test_canonical_forms_are_pinned():
    out = []
    for a in canonical_corpus():
        cf = frobenius_form(a)
        try:
            j = jordan_form(a)[0].data
        except DoesNotSplit:
            j = None
        out.append(([d.coeffs for d in cf.invariant_factors], cf.transform.data,
                     char_poly(a).coeffs, j))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == CANONICAL_DIGEST


def test_frobenius_form_is_a_similarity_invariant():
    rng = random.Random(18)
    for field in [GF(2), GF(3)]:
        for _ in range(8):
            a = rand_matrix(field, 4, 4, rng)
            g = rand_invertible(field, 4, rng)
            b = g.inv() * a * g
            assert frobenius_form(a).invariant_factors == frobenius_form(b).invariant_factors


def test_similarity_transform_decides_and_certifies():
    rng = random.Random(19)
    field = GF(3)
    for _ in range(10):
        a = rand_matrix(field, 4, 4, rng)
        g = rand_invertible(field, 4, rng)
        b = g.inv() * a * g
        t = similarity_transform(a, b)
        assert t is not None
        assert t.inv() * a * t == b
    # same char poly, different min poly: not similar
    a = jordan_block(field, 1, 2)
    b = Matrix.identity(field, 2)
    assert char_poly(a) == char_poly(b)
    assert similarity_transform(a, b) is None
    assert similarity_transform(a, Matrix.identity(field, 3)) is None


def test_eigenvalues_with_multiplicity():
    field = GF(5)
    a = direct_sum([jordan_block(field, 2, 2), jordan_block(field, 4, 1)])
    eig, rest = eigenvalues_with_multiplicity(a)
    assert eig == [(2, 2), (4, 1)]
    assert rest.degree == 0
    b = companion(Poly(GF(2), [1, 1, 1]))  # irreducible, no roots
    eig, rest = eigenvalues_with_multiplicity(b)
    assert eig == [] and rest.degree == 2


def test_jordan_form_recovers_conjugated_blocks():
    rng = random.Random(20)
    for field in [GF(2), GF(3), GF(5)]:
        for _ in range(6):
            spec = []
            total = 0
            while total < 4:
                size = rng.randrange(1, 5 - total)
                spec.append((rng.randrange(field.order), size))
                total += size
            j = direct_sum([jordan_block(field, lam, s) for lam, s in spec])
            g = rand_invertible(field, total, rng)
            a = g.inv() * j * g
            got, t = jordan_form(a)
            assert t.inv() * a * t == got
            # read the block multiset back off the recovered form
            blocks = []
            i = 0
            while i < total:
                lam = got.code_at(i, i)
                size = 1
                while i + size < total and got.code_at(i + size, i + size - 1) == 1:
                    size += 1
                blocks.append((lam, size))
                i += size
            assert sorted(blocks) == sorted(spec)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), ext(2, 2), ext(7, 3)], ids=str)
def test_jordan_form_matches_the_rank_oracle(field):
    # one or two eigenvalues with several blocks each, n <= 8
    rng = random.Random(f"jordan {field}")
    for _ in range(5):
        spec, total = [], 0
        for lam in rng.sample(range(field.order), rng.randrange(1, 3)):
            for _ in range(rng.randrange(2, 4)):
                size = rng.randrange(1, 4)
                if total + size <= 8:
                    spec.append((lam, size))
                    total += size
        j = direct_sum([jordan_block(field, lam, size) for lam, size in spec])
        t = rand_invertible(field, total, rng)
        a = t.inv() * j * t
        want = oracle_jordan_blocks(a)
        assert sorted(want) == sorted(spec)
        got, g = jordan_form(a)
        assert got == direct_sum([jordan_block(field, lam, size) for lam, size in want])
        assert oracle_matmul(a, g) == oracle_matmul(g, got)
        assert len(oracle_rref(field, g.row_lists(), total)[1]) == total


def test_jordan_form_orders_blocks_by_eigenvalue_then_size():
    field = GF(7)
    j = direct_sum(
        [jordan_block(field, 5, 1), jordan_block(field, 2, 2), jordan_block(field, 2, 1)]
    )
    got, _ = jordan_form(j)
    assert got == direct_sum(
        [jordan_block(field, 2, 2), jordan_block(field, 2, 1), jordan_block(field, 5, 1)]
    )


def test_jordan_form_requires_split_char_poly():
    with pytest.raises(DoesNotSplit):
        jordan_form(companion(Poly(GF(2), [1, 1, 1])))


def test_shape_errors():
    field = GF(3)
    rect = Matrix.zeros(field, 2, 3)
    for op in (rect.det, rect.trace, lambda: min_poly(rect), lambda: char_poly(rect),
               lambda: frobenius_form(rect), lambda: jordan_form(rect)):
        with pytest.raises(ShapeMismatch):
            op()
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(field, 2, 3) * Matrix.zeros(field, 2, 3)
