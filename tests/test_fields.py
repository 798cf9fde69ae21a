import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_sqf_part

from heisenmod import fields
from heisenmod import (
    DivisionByZero,
    Field,
    FieldElem,
    GF,
    MixedFields,
    NonMonic,
    Poly,
    ReduciblePoly,
    find_irreducible,
    is_prime,
    make_extension,
)
from heisenmod.fields import monic_irreducibles
from heisenmod.suites import _irreducible_polys
from oracles import (
    brute_pth_root,
    oracle_ext_mul,
    oracle_poly_divmod,
    oracle_poly_gcd,
    oracle_poly_mul,
    trial_division_irreducible,
)


def ext(p, m):
    return make_extension(p, find_irreducible(p, m))


SMALL_FIELDS = [GF(2), GF(3), GF(5), GF(7), ext(2, 2), ext(2, 3), ext(3, 2)]


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for k in range(2, 42):
        assert is_prime(k) == (k in primes), k
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 + 1)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_field_axioms_exhaustive(field):
    elems = list(field.elements())
    assert len(elems) == field.order
    zero, one = field.zero(), field.one()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if not a.is_zero():
            assert a * a ** (-1) == one
            assert one / a * a == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) - b == a
    # a sample of triples for associativity and distributivity
    rng = random.Random(field.order)
    for _ in range(60):
        a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_division_by_zero_raises():
    field = GF(5)
    with pytest.raises(DivisionByZero):
        field.one() / field.zero()
    with pytest.raises(DivisionByZero):
        field.inv(0)


@pytest.mark.parametrize("p, m", [(3, 6), (2, 10)])
def test_table_free_inverse_is_the_power(p, m):
    # above the table limit inv is a^(q-2), memoized per element
    field = make_extension(p, find_irreducible(p, m))
    q = field.order
    for a in random.Random(q).sample(range(1, q), 40) + [1, q - 1]:
        first = field.inv(a)
        assert first == field.pow(a, q - 2)
        assert field.mul(a, first) == 1
        assert field.inv(a) == first  # a second call reads the memo
    with pytest.raises(DivisionByZero):
        field.inv(0)


def test_characteristic_kills_everything():
    for field in SMALL_FIELDS:
        for a in field.elements():
            total = field.zero()
            for _ in range(field.p):
                total = total + a
            assert total.is_zero(), (field, a)


@pytest.mark.parametrize("field", [ext(2, 2), ext(2, 3), ext(3, 2), ext(3, 3), ext(5, 2)], ids=str)
def test_pth_root_matches_brute_force(field):
    for a in field.elements():
        root = a.pth_root()
        assert root**field.p == a
        assert root == brute_pth_root(a)


def test_frobenius_is_pth_power():
    for field in SMALL_FIELDS:
        for a in field.elements():
            assert FieldElem(field, field.frobenius(a.code)) == a**field.p


def test_tablefree_field_matches_table_semantics():
    # GF(2^10) has order 1024, past the lookup-table limit
    big = ext(2, 10)
    assert big.order == 1024
    rng = random.Random(9)
    one = big.one()
    for _ in range(200):
        a = FieldElem(big, rng.randrange(1, big.order))
        b = FieldElem(big, rng.randrange(big.order))
        assert a * a ** (-1) == one
        assert (a + b) - b == a
        assert a * b == b * a
        assert (a * b).pth_root() ** 2 == a * b


@pytest.mark.parametrize("p, m", [
    (2, 2), (3, 3), (2, 9),
    # X^4 + X^3 + X^2 + X + 1: X has order 5, so the log/exp tables must
    # search for a primitive element
    pytest.param(2, (1, 1, 1, 1, 1), id="2-nonprimitive"),
])
def test_extension_tables_match_the_digit_loops(p, m, monkeypatch):
    # every entry of the lookup tables against a table-free copy of the
    # field, whose add, sub, neg and mul read sums and products of packed
    # elements digit by digit
    modulus = find_irreducible(p, m).coeffs if isinstance(m, int) else m
    table = Field(p, modulus)
    monkeypatch.setattr(fields, "_TABLE_LIMIT", 0)
    loops = Field(p, modulus)
    codes = range(table.order)
    for op in ("add", "sub", "mul"):
        fast, slow = getattr(table, op), getattr(loops, op)
        assert [fast(a, b) for a in codes for b in codes] == [
            slow(a, b) for a in codes for b in codes
        ], op
    assert [table.neg(a) for a in codes] == [loops.neg(a) for a in codes]
    assert [table.inv(a) for a in codes[1:]] == [loops.inv(a) for a in codes[1:]]
    if not isinstance(m, int):
        assert table.pow(p, 5) == 1  # the class of X is not primitive


@pytest.mark.parametrize("p, modulus", [(2, (1, 1)), (3, (1, 1))], ids=str)
def test_degree_one_extensions_match_the_oracle(p, modulus):
    # GF(p)[X]/(X + 1) is GF(p) again; at q = 2 its only nonzero code 1 is
    # the primitive element the log/exp tables start from
    field = make_extension(p, Poly(GF(p), modulus))
    codes = range(field.order)
    assert [field.mul(a, b) for a in codes for b in codes] == [
        oracle_ext_mul(field, a, b) for a in codes for b in codes]
    assert [field.add(a, b) for a in codes for b in codes] == [
        (a + b) % p for a in codes for b in codes]
    assert [field.sub(a, b) for a in codes for b in codes] == [
        (a - b) % p for a in codes for b in codes]
    assert [field.neg(a) for a in codes] == [-a % p for a in codes]
    assert all(field.mul(a, field.inv(a)) == 1 for a in codes[1:])


@pytest.mark.parametrize("p, modulus", [
    (2, (0, 1)), (2, (1, 1)), (3, (0, 1)), (3, (1, 1)), (5, (3, 1)),
    (2, (1, 1, 1)), (3, (2, 2, 1)), (2, (1, 1, 0, 1)), (3, (1, 2, 0, 1)),
], ids=str)
def test_generator_is_a_code_and_a_root_of_the_modulus(p, modulus):
    # degree 1 included: there the class of X is the root -q_0, below p
    field = make_extension(p, Poly(GF(p), modulus))
    t = field.generator()
    assert 0 <= t.code < field.order
    assert Poly(field, field.modulus)(t) == field.zero()


def test_generator_satisfies_modulus():
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        field = ext(p, m)
        t = field.generator()
        q = Poly(field, [FieldElem(field, c) for c in field.modulus])
        assert q(t.code) == 0


def test_element_code_semantics():
    field = GF(7)
    assert field.element(9).code == 2  # prime fields reduce integers mod p
    big = ext(2, 2)
    assert big.element(3).code == 3  # extension integers are codes
    with pytest.raises(ValueError):
        big.element(4)
    with pytest.raises(ValueError):
        big.element(-1)


def test_coeffs_round_trip():
    field = ext(3, 2)
    for a in field.elements():
        assert field.code_from_coeffs(list(a.coeffs)) == a.code
        assert len(a.coeffs) == field.degree


def test_field_identity_is_structural():
    assert GF(5) is GF(5)
    assert ext(2, 2) == make_extension(2, find_irreducible(2, 2))
    assert GF(2) != GF(3)
    assert GF(2) != ext(2, 2)


def test_fields_and_elements_pickle():
    for field in [GF(3), ext(2, 3), ext(2, 10)]:
        clone = pickle.loads(pickle.dumps(field))
        assert clone == field
        a = FieldElem(field, field.order - 1)
        assert pickle.loads(pickle.dumps(a)) == a


# -- polynomials ------------------------------------------------------------


def test_poly_normalization_and_degree():
    field = GF(3)
    assert Poly(field, [1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly(field, []).degree == -1
    assert Poly(field, [0]).coeffs == ()
    assert Poly(field, [2, 0, 1]).degree == 2


def test_poly_divmod_property():
    rng = random.Random(21)
    for field in [GF(2), GF(3), GF(5), ext(2, 2)]:
        q = field.order
        for _ in range(40):
            f = Poly(field, [rng.randrange(q) for _ in range(rng.randrange(7))])
            g = Poly(field, [rng.randrange(q) for _ in range(rng.randrange(1, 5))])
            if g.degree < 0:
                continue
            quot, rem = divmod(f, g)
            assert quot * g + rem == f
            assert rem.degree < g.degree


# prime fields (GF(7)'s slots widen from one byte to two at 8 summed
# products), table-backed extensions and table-free GF(3^6)
POLY_FIELDS = [(2, 1), (3, 1), (7, 1), (251, 1), (2, 2), (2, 3), (7, 3), (3, 6)]


@st.composite
def poly_pairs(draw):
    """(a, b) over one field: lengths 0-20 drawn near the slot steps 7 and
    8 often, coefficients near 0 and q - 1 often, so zero and constant
    operands, non-monic divisors and the largest codes all turn up."""
    field = field_of(draw(st.sampled_from(POLY_FIELDS)))
    q = field.order
    coefficient = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1]))
    length = st.one_of(st.integers(0, 20), st.sampled_from([0, 1, 6, 7, 8, 9]))
    a, b = (Poly(field, draw(st.lists(coefficient, min_size=n, max_size=n)))
            for n in (draw(length), draw(length)))
    return a, b


@settings(max_examples=300)
@given(poly_pairs())
def test_packed_poly_arithmetic_matches_the_oracle(pair):
    a, b = pair
    assert a * b == oracle_poly_mul(a, b)
    assert b * a == a * b
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            divmod(a, b)
        return
    quo, rem = divmod(a, b)
    assert (quo, rem) == oracle_poly_divmod(a, b)
    assert quo * b + rem == a and rem.degree < b.degree
    x, y = a, b
    while not y.is_zero():
        x, y = y, oracle_poly_divmod(x, y)[1]
    assert a.gcd(b) == b.gcd(a) == x.monic()


@pytest.mark.parametrize("spec", POLY_FIELDS, ids=str)
def test_packed_poly_arithmetic_at_largest_codes(spec):
    # every coefficient q - 1 makes every slot sum as large as it gets
    field = field_of(spec)
    top = field.order - 1
    for n in (1, 2, 7, 8, 9, 16, 30):
        for k in (1, 2, 7, 8, 9, 16, 30):
            a, b = Poly(field, [top] * n), Poly(field, [top] * k)
            assert a * b == oracle_poly_mul(a, b)
            assert divmod(a, b) == oracle_poly_divmod(a, b)


def slot_step(field):
    """The least inner whose codec has wider slots than inner - 1's."""
    return next(k for k in itertools.count(2)
                if field.row_codec[k].bits > field.row_codec[k - 1].bits)


@pytest.mark.parametrize("spec", POLY_FIELDS, ids=str)
def test_poly_division_at_the_slot_steps(spec):
    # a divisor of degree n needs slots for n + 1 products: a quotient
    # coefficient is read from its dividend digit and at most n earlier
    # multiply-adds.  At the degrees where n + 1 or n + 2 products first
    # take wider slots, a divisor of largest codes and quotients of ones,
    # of largest codes and of random codes fill the slots read as far as
    # they go; over GF(7) at n = 7 a slot of one byte would overflow.
    field = field_of(spec)
    top, rng = field.order - 1, random.Random(f"{spec}-steps")
    step = slot_step(field)
    for n in sorted({step - 2, step - 1} - {-1}):
        b = Poly(field, [top] * (n + 1))
        rem = Poly(field, [top] * n)
        for quo in ([1] * 12, [top] * 12, [rng.randrange(field.order) for _ in range(12)]):
            quo = Poly(field, quo)
            a = quo * b + rem
            assert divmod(a, b) == oracle_poly_divmod(a, b) == (quo, rem)


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (7, 2)],
                         ids=str)
def test_poly_gcd_at_the_slot_steps(spec):
    # Euclid's steps divide by divisors of degree at most deg b, so gcd's
    # codec, like divmod's, must hold deg b + 1 products in a slot.  The
    # inputs of test_poly_division_at_the_slot_steps, gcd'd both ways; with
    # no remainder the gcd is b's, which a misread quotient digit would lose
    field = field_of(spec)
    top, rng = field.order - 1, random.Random(f"{spec}-gcd")
    step = slot_step(field)
    for n in sorted({step - 2, step - 1} - {-1}):
        b = Poly(field, [top] * (n + 1))
        for rem in ([], [top] * n, [rng.randrange(field.order) for _ in range(n)]):
            for quo in ([1] * 12, [top] * 12,
                        [rng.randrange(field.order) for _ in range(12)]):
                a = Poly(field, quo) * b + Poly(field, rem)
                assert a.gcd(b) == b.gcd(a) == oracle_poly_gcd(a, b), (n, quo)


def test_poly_gcd_properties():
    rng = random.Random(4)
    field = GF(3)
    for _ in range(50):
        f = Poly(field, [rng.randrange(3) for _ in range(rng.randrange(6))])
        g = Poly(field, [rng.randrange(3) for _ in range(rng.randrange(6))])
        d = f.gcd(g)
        if f.degree < 0 and g.degree < 0:
            assert d.degree < 0
            continue
        assert not (f % d).coeffs and not (g % d).coeffs
        assert d.is_monic()
        lcm = f.lcm(g)
        if f.coeffs and g.coeffs:
            assert not (lcm % f).coeffs and not (lcm % g).coeffs
            assert lcm.degree == f.degree + g.degree - d.degree


def test_poly_evaluation_homomorphism():
    field = ext(3, 2)
    rng = random.Random(11)
    for _ in range(30):
        f = Poly(field, [rng.randrange(9) for _ in range(4)])
        g = Poly(field, [rng.randrange(9) for _ in range(3)])
        a = rng.randrange(9)
        lhs = (f * g)(a)
        rhs = f(a) * g(a)
        assert lhs == rhs
        assert (f + g)(a) == f(a) + g(a)


def test_prime_field_poly_evaluates_at_extension_elements():
    # a GF(p) polynomial at an element of GF(p^m) is computed in GF(p^m),
    # where the codes below p are the prime field's
    rng = random.Random(12)
    for p, m in [(2, 2), (3, 2), (2, 9)]:
        big = ext(p, m)
        for _ in range(10):
            coeffs = [rng.randrange(p) for _ in range(5)]
            x = FieldElem(big, rng.randrange(big.order))
            want = big.zero()
            for c in reversed(coeffs):
                want = want * x + FieldElem(big, c)
            got = Poly(GF(p), coeffs)(x)
            assert got.field == big and got == want
    with pytest.raises(MixedFields):
        Poly(GF(3), [1, 1])(FieldElem(ext(2, 2), 1))
    with pytest.raises(MixedFields):
        Poly(ext(2, 2), [1, 1])(FieldElem(ext(2, 3), 1))


def test_inflate_substitutes_power():
    field = ext(2, 2)
    f = Poly(field, [1, 2, 1])
    g = f.inflate(2)
    assert g.coeffs == (1, 0, 2, 0, 1)
    for a in range(4):
        square = field.mul(a, a)
        assert g(a) == f(square)


def test_irreducibility_matches_trial_division_gf2():
    field = GF(2)
    import itertools
    for degree in range(1, 7):
        for low in itertools.product(range(2), repeat=degree):
            f = Poly(field, list(low) + [1])
            assert f.is_irreducible() == trial_division_irreducible(f), f


def test_irreducibility_matches_trial_division_gf3():
    field = GF(3)
    import itertools
    for degree in range(1, 5):
        for low in itertools.product(range(3), repeat=degree):
            f = Poly(field, list(low) + [1])
            assert f.is_irreducible() == trial_division_irreducible(f), f


def test_irreducibility_matches_trial_division_gf5_sample():
    field = GF(5)
    rng = random.Random(17)
    for _ in range(60):
        degree = rng.randrange(2, 7)
        f = Poly(field, [rng.randrange(5) for _ in range(degree)] + [1])
        assert f.is_irreducible() == trial_division_irreducible(f), f


def test_irreducible_count_gf2_degree4():
    # the number of monic irreducible quartics over GF(2) is 3
    import itertools
    field = GF(2)
    quartics = [
        Poly(field, list(low) + [1])
        for low in itertools.product(range(2), repeat=4)
    ]
    assert sum(f.is_irreducible() for f in quartics) == 3


def test_find_irreducible_is_deterministic_and_minimal():
    assert find_irreducible(3, 2).coeffs == (1, 0, 1)  # X^2 + 1
    for p, m in [(2, 2), (2, 5), (3, 3), (5, 2), (7, 2)]:
        f = find_irreducible(p, m)
        assert f.degree == m and f.is_monic() and f.is_irreducible()
        assert find_irreducible(p, m) == f


def test_one_enumeration_serves_find_irreducible_and_the_suites():
    """monic_irreducibles runs by the low coefficients read as a base-p
    number (coefficient i is digit i); find_irreducible takes its first
    element and the suites sort it lexicographically, as both did alone."""
    firsts = {
        (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
        (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1),
        (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
    }
    for (p, m), first in firsts.items():
        field = GF(p)
        by_number = [
            Poly(field, [(t // p**i) % p for i in range(m)] + [1])
            for t in range(p**m)
        ]
        lexicographic = [
            Poly(field, [*low, 1])
            for low in itertools.product(range(p), repeat=m)
        ]
        by_number = [f for f in by_number if trial_division_irreducible(f)]
        lexicographic = [f for f in lexicographic if trial_division_irreducible(f)]
        assert list(monic_irreducibles(p, m)) == by_number, (p, m)
        assert find_irreducible(p, m).coeffs == first == by_number[0].coeffs
        assert _irreducible_polys(p, m) == lexicographic, (p, m)
    with pytest.raises(ValueError):
        find_irreducible(2, 0)


# -- factorization ----------------------------------------------------------------


def field_of(spec):
    p, m = spec
    return GF(p) if m == 1 else ext(p, m)


@st.composite
def factored_polys(draw, specs):
    """A product of random monic parts of degree 1..4, each to a power 1..3,
    and whether to reduce it to its squarefree part first."""
    field = field_of(draw(st.sampled_from(specs)))
    g = Poly(field, [1])
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 4))
        low = draw(st.lists(st.integers(0, field.order - 1),
                            min_size=degree, max_size=degree))
        part = Poly(field, low + [1])
        for _ in range(draw(st.integers(1, 3))):
            g = g * part
    return g, draw(st.booleans())


def descending(g):
    return [int(c) for c in reversed(g.coeffs)]


@settings(max_examples=120)
@given(factored_polys([(2, 1), (3, 1), (5, 1), (251, 1)]))
def test_factors_match_sympy_over_prime_fields(case):
    g, squarefree = case
    p = g.field.p
    if squarefree:
        g = Poly(g.field, list(reversed(gf_sqf_part(descending(g), p, ZZ))))
    got = list(g.irreducible_factors())
    _, want = gf_factor(descending(g), p, ZZ)
    assert sorted(descending(f) for f in got) == sorted(f for f, _ in want)
    assert [f.degree for f in got] == sorted(f.degree for f in got)


@settings(max_examples=60)
@given(factored_polys([(2, 2), (2, 3), (3, 2)]))
def test_factors_over_extension_fields_are_the_radical(case):
    g, _ = case
    got = list(g.irreducible_factors())
    assert [f.degree for f in got] == sorted(f.degree for f in got)
    for f in got:
        assert f.is_monic() and f.is_irreducible(), f
    for a, b in itertools.combinations(got, 2):
        assert a.gcd(b).degree == 0, (a, b)
    radical = Poly(g.field, [1])
    for f in got:
        radical = radical * f
    assert (g % radical).is_zero()
    # g shares its radical: dividing out common factors leaves a constant
    rest = g
    while (c := rest.gcd(radical)).degree >= 1:
        rest = rest // c
    assert rest.degree == 0


def test_factors_come_once_each_by_increasing_degree():
    field = GF(2)
    x = Poly.x(field)
    quadratic = Poly(field, [1, 1, 1])
    octic = find_irreducible(2, 8)
    g = x * x * x * octic * quadratic * quadratic
    assert list(g.irreducible_factors()) == [x, quadratic, octic]
    assert list(octic.irreducible_factors()) == [octic]
    with pytest.raises(ValueError):
        list(Poly(field, [1]).irreducible_factors())


def factor_order_corpus():
    """Seeded polynomials whose factor sequences are pinned: random monics
    of degree 1-15, products with squared factors, and products of three
    distinct irreducibles of one degree (with and without a square), over
    prime fields (odd q and q = 2), table-backed extensions (odd q, and
    p = 2 with m > 1) and table-free GF(3^6)."""
    out = []
    for field in [GF(2), GF(3), GF(7), GF(251), ext(2, 2), ext(2, 3), ext(7, 3),
                  ext(3, 6)]:
        rng = random.Random(f"factor order {field}")

        def monic(degree):
            return Poly(field, [rng.randrange(field.order) for _ in range(degree)] + [1])

        out += [monic(degree) for degree in range(1, 16)]
        for degree in range(3, 16, 3):
            g = monic(rng.randrange(1, 4))
            out.append(g * g * monic(max(degree - 2 * g.degree, 1)))
        # GF(2) has fewer than three irreducibles of degree below 4
        for k in (4, 5) if field.order == 2 else (1, 2, 3):
            factors = []
            while len(factors) < 3:
                f = monic(k)
                if f.is_irreducible() and f not in factors:
                    factors.append(f)
            product = factors[0] * factors[1] * factors[2]
            out += [product, product * factors[rng.randrange(3)]]
    return out


# SHA-256 of the factor sequences of factor_order_corpus(): Holt-Rees tries
# the factors in the order irreducible_factors yields them, so how they are
# found may change, their order may not
FACTOR_ORDER_DIGEST = "6447c99e8af3136d27a091e9b8d5f4a6817a96f34794e97f78da48915c746660"


def test_factor_order_is_pinned():
    got = [[g.coeffs for g in f.irreducible_factors()] for f in factor_order_corpus()]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == FACTOR_ORDER_DIGEST


def test_make_extension_rejects_bad_moduli():
    field = GF(2)
    with pytest.raises(ReduciblePoly):
        make_extension(2, Poly(field, [1, 0, 1]))  # (X+1)^2
    with pytest.raises(NonMonic):
        make_extension(3, Poly(GF(3), [1, 1, 2]))
    with pytest.raises(MixedFields):
        make_extension(3, Poly(GF(2), [1, 1, 1]))


def test_mixed_field_operations_raise():
    with pytest.raises(MixedFields):
        GF(2).one() + GF(3).one()
    with pytest.raises(MixedFields):
        Poly(GF(2), [1, 1]) * Poly(GF(3), [1, 1])
