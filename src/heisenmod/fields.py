"""Exact arithmetic in finite fields GF(p^m) and in polynomials over them.

Element codes.  A field operates on integer codes 0 <= c < p^m: the base-p
digits of c are the coefficients, ascending degree, of the representative
polynomial in the generator t (the class of X modulo the defining
polynomial).  Over a prime field the code is simply the residue.  All inner
loops work on codes; FieldElem wraps a code with its field for operator
syntax and strict cross-field checking at the API boundary.

Packed rows.  Matrix sums, products, apply and elimination run on packed
rows (RowCodec, one per field and inner length L, cached on the field): a
row of codes is one Python integer, each element in 2m-1 byte-aligned
slots of s bits with its base-p digits in the low m.  A packed element (m
slots) times a packed row scales the row, each product polynomial in its
own 2m-1 slots (Kronecker substitution).  With 2^s > L*m*(p-1)^2*p^(m-1),
a sum of L such products fits, and so does folding it: unpacking folds the
slots of degree >= m of every element at once modulo the defining
polynomial, m-1 big-integer shift/multiply steps with no reduction mod p
between them (the p^(m-1) headroom).  A slot is the least of 1, 2, 4 and 8
bytes with 2^s above that bound (GF(4) at L = 32 and GF(2) at L = 128 take
one byte, GF(3^6) at L = 9 two).  Where size*(p-1) < 256, every slot of a
row is reduced mod p to one byte at once: byte k of each slot goes through
a bytes.translate table of b*256^k mod p, the results are summed as
integers and translated once more; an element's digits are then joined
into its code, in its own 2m-1 bytes, by m-1 shift/mask/multiply steps on
the whole row.  In characteristic 2 a slot's residue is its lowest bit, so
the folded row masked with one bit per slot is canonical, and, in one-byte
slots, holds the digits to join.  Other slots (large p) are reduced and
joined per slot.
Over GF(p) a packed element is the code itself.  A table-free GF(p^m), and
the building of the tables, computes with L = 1.

Polynomials are immutable coefficient tuples in ascending degree with no
trailing zeros.  The zero polynomial has an empty tuple and degree -1.
Their arithmetic runs on the same packed rows: a product is one product of
two packed rows (L the shorter length), a division one read and one
multiply-add of the packed divisor per quotient coefficient, and Euclid's
loop keeps its remainders packed.  Factoring takes every q-th power past
X^q as one packed product by the Frobenius matrix.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import struct
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    MixedFields,
    NonMonic,
    ReduciblePoly,
    TooLarge,
)

# extension fields at or below this order precompute full op tables
_TABLE_LIMIT = 512
# hard cap: table-free extension arithmetic is still exact above the table
# limit but an extension this large is outside desk scale
_ORDER_LIMIT = 1 << 20

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond desk-scale inputs."""
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


ElemLike = Union["FieldElem", int, Sequence[int]]


def _lazy_randrange(seed) -> Callable[[int], int]:
    """randrange of a random.Random(seed) that is seeded on the first draw."""
    rng = functools.cache(lambda: random.Random(seed))
    return lambda n: rng().randrange(n)


class _Memo(dict):
    """A dict that fills a missing key from a function of the key."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class RowCodec:
    """Packed rows of one field for sums of up to `inner` products (see the
    module docstring); its operations are closures built for the slot width.

    pack(codes) is a row as one integer with reduced digits; elem[c] is the
    packed element that scales such a row (c itself over GF(p)) and minus[c]
    that of -c.  A sum R of at most `inner` products elem[c] * pack(row) of n
    entries is read by unpack(R, n) as its n codes, by read(R, j) as the code
    of entry j alone, and by canon(R, n) as the packed row with reduced
    digits that it stands for.  join(sums, n) lays sums of rows of n entries
    side by side, the first lowest, to be unpacked at once.  Entry j takes
    the bits from j * bits up.
    """

    def __init__(self, p: int, modulus: Optional[tuple[int, ...]], inner: int):
        m = 1 if modulus is None else len(modulus) - 1
        bound = max(inner, 1) * m * (p - 1) ** 2 * p ** (m - 1)
        need = (bound.bit_length() + 7) // 8  # bytes with 2^s > bound
        size = next((b for b in (1, 2, 4, 8) if b >= need), need)
        s, w = 8 * size, 2 * m - 1
        ebytes, es = size * w, s * w
        self.bits = es
        smask, emask = (1 << s) - 1, (1 << es) - 1
        # slot values <-> integers, lowest slot first: one little-endian
        # struct per number of slots, shift and mask past 8 bytes
        fmt = {2: "H", 4: "I", 8: "Q"}.get(size)
        if fmt:
            structs = _Memo(lambda k: struct.Struct(f"<{k}{fmt}"))
            to_slots = lambda R, n: structs[n * w].unpack(R.to_bytes(n * ebytes, "little"))
            from_slots = lambda values: int.from_bytes(
                structs[len(values)].pack(*values), "little")
        else:
            to_slots = lambda R, n: [R >> k & smask for k in range(0, n * es, s)]
            from_slots = lambda values: int.from_bytes(
                b"".join([x.to_bytes(size, "little") for x in values]), "little")
        # X^m modulo the defining polynomial, packed; folding slot k adds its
        # value times X^(k-m) * X^m and removes it from slot k
        top = 0
        if modulus is not None:
            top = sum(-c % p << s * i for i, c in enumerate(modulus[:m]))
        folds = [(s * k, (top << s * (k - m)) - (1 << s * k))
                 for k in range(2 * m - 2, m - 1, -1)]
        # slot k of every entry at once: one repunit of slot masks per length
        masks = _Memo(lambda n: smask * (((1 << n * es) - 1) // emask))

        def folded(R, n):
            if folds:
                mask = masks[n]
                for shift, fold in folds:
                    R += (R >> shift & mask) * fold
            return R

        digit_shifts = range(s * (m - 1), -1, -s)  # highest first
        digit = 1 if p == 2 else smask  # a slot's residue mod 2 is its lowest bit

        def read(R, j):
            v = R >> es * j & emask
            for shift, fold in folds:
                v += (v >> shift & smask) * fold
            code = 0
            for shift in digit_shifts:
                code = code * p + (v >> shift & digit) % p
            return code

        canon = lambda R, n: from_slots(reduced(R, n))
        if size * (p - 1) < 256:
            # each slot reduced to one byte: its bytes b_k through a table
            # of b_k * 256^k % p each, summed (below 256) and reduced again
            tables = [bytes((x << 8 * k) % p for x in range(256)) for k in range(size)]

            def reduced(R, n):
                b = folded(R, n).to_bytes(n * ebytes, "little")
                if size > 1:
                    total = 0
                    for k, table in enumerate(tables):
                        total += int.from_bytes(b[k::size].translate(table), "little")
                    b = total.to_bytes(n * w, "little")
                return b.translate(tables[0])

            residues = lambda R, n: int.from_bytes(reduced(R, n), "little")
            if p == 2:  # every slot at once: a mask of the lowest bit of each
                ones = _Memo(lambda n: ((1 << n * es) - 1) // smask)
                canon = (lambda R, n: folded(R, n) & ones[n]) if folds else (
                    lambda R, n: R & ones[n])
                if size == 1:  # the masked row holds the residues' bytes
                    residues = canon
                else:
                    reduced = lambda R, n: canon(R, n).to_bytes(n * ebytes, "little")[::size]

            def from_slots(values):  # values below 256 only
                if size > 1:
                    values, wide = bytearray(len(values) * size), values
                    values[::size] = wide
                return int.from_bytes(values, "little")

            # the digits of each element are joined into its code, in its own
            # w bytes, by m - 1 shift/mask/multiply steps on the whole row
            lows = _Memo(lambda n: 255 * (((1 << 8 * n * w) - 1) // ((1 << 8 * w) - 1)))
            steps = [(8 * k, p**k) for k in range(1, m)]
            width = next(k for k in (1, 2, 4) if p**m <= 1 << 8 * k)
            codes_of = _Memo(lambda n: struct.Struct(
                "<" + f"{' BH I'[width]}{w - width}x" * n).unpack)

            def unpack(R, n):
                digits = residues(R, n)
                low = lows[n]
                codes = digits & low
                for shift, weight in steps:
                    codes += (digits >> shift & low) * weight
                return list(codes_of[n](codes.to_bytes(n * w, "little")))
        else:
            reduced = lambda R, n: [x % p for x in to_slots(folded(R, n), n)]

            def unpack(R, n):
                values = to_slots(folded(R, n), n)
                codes = [x % p for x in values[m - 1 :: w]]
                for i in range(m - 2, -1, -1):
                    codes = [c * p + x % p for c, x in zip(codes, values[i::w])]
                return codes

        def packed_element(c, sign=1):
            v = 0
            for shift in range(0, s * m, s):
                c, d = divmod(c, p)
                v |= sign * d % p << shift
            return v

        if m == 1:
            self.elem = range(p)  # a code is its own packed element
            self.minus = range(p, 0, -1)  # for c != 0
            self.read = lambda R, j: (R >> s * j & digit) % p
            self.pack = from_slots
            self.unpack = lambda R, n: list(reduced(R, n))
            self.scalars = lambda codes: codes
        else:
            elem = self.elem = _Memo(packed_element)
            self.minus = _Memo(lambda c: packed_element(c, -1))
            self.read, self.unpack = read, unpack
            blocks = _Memo(lambda c: elem[c].to_bytes(ebytes, "little"))
            self.pack = lambda codes: int.from_bytes(
                b"".join(map(blocks.__getitem__, codes)), "little")
            self.scalars = lambda codes: list(map(elem.__getitem__, codes))
        self.canon = canon
        self.join = lambda sums, n: sum(
            map(operator.lshift, sums, itertools.count(0, es * n)))


class Field:
    """A finite field.  Construct with GF(p) or make_extension(p, q).

    Arithmetic methods (add, mul, ...) act on integer element codes and are
    the fast path; element() wraps a code into a FieldElem.  row_codec[L] is
    the packed-row codec of the matrix kernel for inner length L (see the
    module docstring), built on first use.
    """

    def __init__(self, p: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.row_codec = _Memo(lambda inner: RowCodec(p, self.modulus, inner))
        if modulus is None:
            self.degree = 1
            self.order = p
            self.modulus = None
            self._init_prime()
        else:
            mod = tuple(c % p for c in modulus)
            while mod and mod[-1] == 0:
                mod = mod[:-1]
            if len(mod) < 2:
                raise ValueError("modulus must have degree >= 1")
            if mod[-1] != 1:
                raise NonMonic("modulus must be monic")
            self.degree = len(mod) - 1
            self.order = p**self.degree
            if self.order > _ORDER_LIMIT:
                raise TooLarge(f"field order {self.order} exceeds {_ORDER_LIMIT}")
            self.modulus = mod
            self._init_extension()

    # -- construction of the code-level operations ------------------------

    def _init_prime(self):
        p = self.p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.neg = lambda a: -a % p
        self.mul = lambda a, b: a * b % p

        def inv(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return pow(a, p - 2, p)

        self.inv = inv

    def _init_extension(self):
        p, m, q = self.p, self.degree, self.order
        one = self.row_codec[1]
        read, elem, minus = one.read, one.elem, one.minus
        # digits added, negated and multiplied on packed elements
        self.add = lambda a, b: read(elem[a] + elem[b], 0)
        self.sub = lambda a, b: read(elem[a] + minus[b], 0)
        self.neg = lambda a: read(minus[a], 0)
        self.mul = mul = lambda a, b: read(elem[a] * elem[b], 0)
        # a^(q-2), kept for the elements actually inverted (at most q codes)
        inverses = _Memo(lambda a: self.pow(a, q - 2))

        def inv(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return inverses[a]

        if q <= _TABLE_LIMIT:
            # add table one digit at a time: the codes below w * p are
            # low + w * alpha with low < w, and the sum's new top digit is
            # alpha + beta mod p
            rows, w = [[0]], 1
            for _ in range(m):
                rows = [
                    [x + w * ((alpha + beta) % p)
                     for beta in range(p) for x in rows[low]]
                    for alpha in range(p) for low in range(w)
                ]
                w *= p
            add_t = [x for row in rows for x in row]
            # mul table from log/exp over a primitive element: the modulus
            # need not be primitive, so it is the first code g whose powers
            # reach every nonzero code before 1 (g = 1 when q = 2)
            for g in range(1, q):
                exp = [1]
                while (x := mul(exp[-1], g)) != 1:
                    exp.append(x)
                if len(exp) == q - 1:
                    break
            log = [0] * q
            for i, x in enumerate(exp):
                log[x] = i
            logs, exp2 = log[1:], exp + exp
            mul_t = [0] * q
            for la in logs:  # row a: a * b = exp[log a + log b]
                mul_t += [0, *map(exp2[la : la + q - 1].__getitem__, logs)]
            neg_t = [row.index(0) for row in rows]
            inv_t = [0] + [exp2[q - 1 - la] for la in logs]
            self.add = lambda a, b: add_t[a * q + b]
            self.mul = lambda a, b: mul_t[a * q + b]
            self.sub = lambda a, b: add_t[a * q + neg_t[b]]
            self.neg = lambda a: neg_t[a]

            def inv_fast(a):
                if a == 0:
                    raise DivisionByZero("inverse of zero")
                return inv_t[a]

            self.inv = inv_fast
        else:
            self.inv = inv

    # -- code-level helpers ------------------------------------------------

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        result, base = 1, a
        mul = self.mul
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def pth_root(self, a: int) -> int:
        """The unique b with b^p = a (the Frobenius map is bijective)."""
        b = a
        for _ in range(self.degree - 1):
            b = self.pow(b, self.p)
        return b

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        """Base-p digits of a code: coefficients over the prime field."""
        out = []
        for _ in range(self.degree):
            code, d = divmod(code, self.p)
            out.append(d)
        return tuple(out)

    def code_from_coeffs(self, coeffs: Sequence[int]) -> int:
        p = self.p
        if len(coeffs) > self.degree:
            raise ValueError(f"{len(coeffs)} coefficients for degree {self.degree}")
        c = 0
        for x in reversed(coeffs):
            c = c * p + x % p
        return c

    # -- element API --------------------------------------------------------

    def element(self, value: ElemLike) -> "FieldElem":
        return FieldElem(self, self.code(value))

    def code(self, value: ElemLike) -> int:
        """Coerce to an element code.

        Ints are codes: over a prime field any int reduces mod p; over an
        extension an int must already lie in [0, order).  A sequence of ints
        is read as prime-field coefficients, ascending degree.
        """
        if isinstance(value, FieldElem):
            if value.field != self:
                raise MixedFields(f"element of {value.field} used in {self}")
            return value.code
        if isinstance(value, int):
            if self.modulus is None:
                return value % self.p
            if 0 <= value < self.order:
                return value
            raise ValueError(f"code {value} out of range for {self}")
        return self.code_from_coeffs(list(value))

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def generator(self) -> "FieldElem":
        """The class of X in an extension (the root -q_0 of a modulus X + q_0
        of degree 1); 1 in a prime field."""
        if self.modulus is None:
            return FieldElem(self, 1 % self.p)
        return FieldElem(self, self.p if self.degree > 1 else -self.modulus[0] % self.p)

    def elements(self) -> Iterator["FieldElem"]:
        for c in range(self.order):
            yield FieldElem(self, c)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.modulus is None:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"

    def __reduce__(self):
        return (_rebuild_field, (self.p, self.modulus))


def _rebuild_field(p, modulus):
    return Field(p, modulus)


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, modulus: Optional[tuple[int, ...]]) -> Field:
    return Field(p, modulus)


def GF(p: int) -> Field:
    """The prime field of order p."""
    return _cached_field(p, None)


class FieldElem:
    """An element of a Field; thin wrapper over an integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise MixedFields(f"{self.field} vs {other.field}")
            return other.code
        if isinstance(other, int):
            return self.field.code(other)
        return NotImplemented

    def _op(self, other, name: str, swap: bool = False):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        a, b = (c, self.code) if swap else (self.code, c)
        return FieldElem(self.field, getattr(self.field, name)(a, b))

    def __add__(self, other):
        return self._op(other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, "sub")

    def __rsub__(self, other):
        return self._op(other, "sub", swap=True)

    def __mul__(self, other):
        return self._op(other, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._op(other, "div")

    def __rtruediv__(self, other):
        return self._op(other, "div", swap=True)

    def __neg__(self):
        return FieldElem(self.field, self.field.neg(self.code))

    def __pow__(self, e: int):
        return FieldElem(self.field, self.field.pow(self.code, e))

    def pth_root(self) -> "FieldElem":
        return FieldElem(self.field, self.field.pth_root(self.code))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.code)

    def is_zero(self) -> bool:
        return self.code == 0

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field == other.field and self.code == other.code
        if isinstance(other, int):
            try:
                return self.code == self.field.code(other)
            except ValueError:
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.code))

    def __repr__(self):
        if self.field.modulus is None:
            return f"{self.code}"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}t" if i == 1 else f"{head}t^{i}")
        return " + ".join(terms) if terms else "0"


def _divide(field: Field, codec: RowCodec, R: int, length: int, divisor: int,
            n: int, lead: int) -> tuple[list[int], int]:
    """R, packed of length entries, divided by the packed divisor of degree
    n and leading code lead: (quotient codes, packed remainder of n entries,
    not canonical).  A quotient coefficient is one read and one multiply-add.
    A slot holds its digit of R and at most n multiply-adds, so codec must
    hold n + 1 products; the entries cleared are masked off."""
    bits, read, minus, ilc = codec.bits, codec.read, codec.minus, field.inv(lead)
    quo = [0] * max(length - n, 0)
    for k in range(length - n - 1, -1, -1):
        c = read(R, k + n)
        if c:
            c = quo[k] = c if ilc == 1 else field.mul(c, ilc)
            R += minus[c] * divisor << k * bits
    return quo, R & (1 << n * bits) - 1


def _frobenius(f: "Poly", r: "Poly"):
    """h -> h^q mod f for monic f of degree n, given r = X^q mod f: one
    packed product by the Frobenius matrix Q (von zur Gathen and Gerhard,
    Modern Computer Algebra, 14.8), as h^q = sum h_i X^(qi).  Column i of Q
    is r times column i - 1, by the matrix whose column j is X^j r mod f."""
    field, n = f.field, f.degree
    codec = field.row_codec[n + 2]
    times_r, top = [codec.pack(r.coeffs)], codec.pack(f.coeffs)
    for _ in range(n - 1):  # shifted up one entry, then divided by f
        _, rem = _divide(field, codec, times_r[-1] << codec.bits, n + 1, top, n, 1)
        times_r.append(codec.canon(rem, n))
    apply = lambda cols, codes: codec.unpack(
        sum(map(operator.mul, codec.scalars(codes), cols)), n)
    codes, q_cols = [1], [1]  # 1 packs as itself in every codec
    for _ in range(n - 1):
        codes = apply(times_r, codes)
        q_cols.append(codec.pack(codes))
    return lambda h: Poly._raw(field, apply(q_cols, h.coeffs))


class Poly:
    """Univariate polynomial over a Field; coefficients ascend by degree."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[ElemLike] = ()):
        cs = [field.code(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, field: Field, codes: list[int]) -> "Poly":
        while codes and codes[-1] == 0:
            codes.pop()
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(codes)
        return p

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls._raw(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def elem(self, i: int) -> FieldElem:
        c = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return FieldElem(self.field, c)

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise MixedFields(f"{self.field} vs {other.field}")

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        # digit by digit, -1 is p - 1
        return self._plus(other, self.field.p - 1)

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        self._check(other)
        codec = self.field.row_codec[2]
        return Poly._raw(self.field, codec.unpack(
            codec.pack(self.coeffs) + sign * codec.pack(other.coeffs),
            max(len(self.coeffs), len(other.coeffs))))

    def __neg__(self) -> "Poly":
        return self * (self.field.p - 1)

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int)):
            c = self.field.code(other)
            mul = self.field.mul
            return Poly._raw(self.field, [mul(x, c) for x in self.coeffs])
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._raw(self.field, [])
        # Kronecker substitution: entry k of the product of the packed rows
        # sums the at most min(len a, len b) products a_i b_(k-i)
        codec = self.field.row_codec[min(len(a), len(b))]
        return Poly._raw(self.field, codec.unpack(codec.pack(a) * codec.pack(b),
                                                  len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        field, a, b, n = self.field, self.coeffs, other.coeffs, other.degree
        codec = field.row_codec[n + 1]
        quo, rem = _divide(field, codec, codec.pack(a), len(a), codec.pack(b), n, b[-1])
        return Poly._raw(field, quo), Poly._raw(field, codec.unpack(rem, n))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __call__(self, x: ElemLike) -> FieldElem:
        """The value at x.  A polynomial over GF(p) also takes an element of
        any GF(p^m), in which the codes below p are the prime field's."""
        field = self.field
        if isinstance(x, FieldElem) and field.modulus is None and x.field.p == field.p:
            field = x.field
        c = field.code(x)
        add, mul = field.add, field.mul
        acc = 0
        for a in reversed(self.coeffs):
            acc = add(mul(acc, c), a)
        return FieldElem(field, acc)

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self * FieldElem(self.field, self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor; gcd(0, 0) = 0.  Euclid's loop on
        packed rows: each remainder is made canonical, so its degree is that
        of its highest set bit; only the last divisor is unpacked."""
        self._check(other)
        a, b = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        if len(b) < 2:  # a nonzero constant leaves 1, zero the monic other
            return Poly._raw(self.field, [1] if b else list(a)).monic()
        codec = self.field.row_codec[len(b) + 1]
        A, la, B, n, lead = codec.pack(a), len(a), codec.pack(b), len(b) - 1, b[-1]
        while n:
            R = codec.canon(_divide(self.field, codec, A, la, B, n, lead)[1], n)
            if not R:
                break
            k = (R.bit_length() - 1) // codec.bits  # canonical: its degree
            A, la, B, n, lead = B, n + 1, R, k, codec.read(R, k)
        return Poly._raw(self.field, codec.unpack(B, n + 1)).monic()

    def lcm(self, other: "Poly") -> "Poly":
        """Monic least common multiple; lcm with 0 is 0."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly._raw(self.field, [])
        g = self.gcd(other)
        return ((self // g) * other).monic()

    def inflate(self, k: int) -> "Poly":
        """Substitute X^k for X."""
        out = [0] * (len(self.coeffs) * k)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly._raw(self.field, out)

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        result, base = Poly._raw(self.field, [1]) % mod, self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base, e = (base * base) % mod, e >> 1
        return result

    def is_irreducible(self) -> bool:
        """True when the lowest-degree irreducible factor is f itself."""
        if not self.is_monic():
            raise NonMonic("irreducibility test requires a monic polynomial")
        if self.degree < 1:
            raise ValueError("irreducibility is undefined for constants")
        return next(self.irreducible_factors()) == self

    def _split_roots(self) -> tuple[list[tuple[int, int]], "Poly"]:
        """Divide out the linear factors: ([(root code, multiplicity)...] by
        ascending code, the rootless rest)."""
        field = self.field
        f = self
        roots = []
        for lam in range(field.order):
            lin = Poly._raw(field, [field.neg(lam), 1])
            mult = 0
            while f.degree >= 1 and f(lam).code == 0:
                f = f // lin
                mult += 1
            if mult:
                roots.append((lam, mult))
        return roots, f

    def irreducible_factors(self) -> Iterator["Poly"]:
        """The distinct monic irreducible factors, by increasing degree.

        Distinct-degree factorization: once every factor of degree below k
        has been divided out with its whole multiplicity, gcd(f, X^(q^k) - X)
        is the product of the distinct factors of degree k, so the input
        need not be squarefree.  Each such product is split by
        Cantor-Zassenhaus.  Past X^q, each q-th power modulo the input is
        one product by its Frobenius matrix.  Lazy: a factor is split off
        only when the caller asks for it.
        """
        if self.degree < 1:
            raise ValueError("only a nonconstant polynomial has factors")
        field = self.field
        x = Poly.x(field)
        f0 = f = self.monic()
        h, frob = x, None  # X^(q^k) mod f0, and h -> h^q mod f0 from k = 2
        draw = _lazy_randrange(0)  # splitting is randomized, its result is not
        k = 0
        while f.degree >= 1:
            k += 1
            if f.degree < 2 * k:
                # every factor left has degree >= k: f is one of them
                yield f
                return
            frob = _frobenius(f0, h) if k == 2 else frob
            h = x.pow_mod(field.order, f0) if k == 1 else frob(h)
            g = f.gcd(h - x)
            if g.degree < 1:
                continue
            c = g
            while c.degree >= 1:
                f = f // c
                c = f.gcd(c)
            yield from g._equal_degree_split(k, draw, frob)

    def _equal_degree_split(self, k: int, draw: Callable, frob) -> Iterator["Poly"]:
        """Cantor-Zassenhaus on a monic squarefree product of irreducibles
        of degree k: gcd with a^((q^k - 1)/2) - 1, the norm of random a to
        the power (q - 1)/2, for odd q, and for q = 2^m with the trace, the
        sum over i < k of (a + a^2 + ... + a^(2^(m-1)))^(q^i); frob is
        h -> h^q modulo a multiple of self.  Lazy like irreducible_factors:
        the first factor costs about log2 of their number splits."""
        n = self.degree
        if n == k:
            yield self
            return
        field = self.field
        q, two = field.order, field.p == 2
        while True:
            a = s = Poly._raw(field, [draw(q) for _ in range(n)])
            for _ in range(field.degree - 1 if two else 0):
                a = (a * a) % self
                s = s + a
            u = s
            for _ in range(k - 1):
                u = frob(u)
                s = s + u if two else (s * u) % self
            if not two:
                s = s.pow_mod((q - 1) // 2, self) - Poly._raw(field, [1])
            g = self.gcd(s)
            if 0 < g.degree < n:
                yield from g._equal_degree_split(k, draw, frob)
                yield from (self // g)._equal_degree_split(k, draw, frob)
                return

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            ce = FieldElem(self.field, c)
            if i == 0:
                parts.append(f"{ce!r}")
            else:
                xs = "X" if i == 1 else f"X^{i}"
                parts.append(xs if c == 1 else f"{ce!r}*{xs}")
        return " + ".join(parts)


def make_extension(p: int, q: Poly) -> Field:
    """GF(p)[X]/(q) for monic irreducible q over the prime field GF(p)."""
    if q.field != GF(p):
        raise MixedFields("modulus must be a polynomial over GF(p)")
    if not q.is_monic():
        raise NonMonic("modulus must be monic")
    if q.degree < 1 or not q.is_irreducible():
        raise ReduciblePoly(f"{q!r} is not irreducible over GF({p})")
    return _cached_field(p, q.coeffs)


def monic_irreducibles(p: int, m: int) -> Iterator[Poly]:
    """The monic irreducibles of degree m over GF(p), lazily, by ascending
    base-p number of the low coefficients (coefficient i is digit i)."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    field = GF(p)
    for high_first in itertools.product(range(p), repeat=m):
        f = Poly._raw(field, [*reversed(high_first), 1])
        if f.is_irreducible():
            yield f


def find_irreducible(p: int, m: int) -> Poly:
    """First monic irreducible of degree m over GF(p) in the order of
    monic_irreducibles."""
    return next(monic_irreducibles(p, m))
