"""Exact arithmetic in finite fields GF(p^m) and in polynomials over them.

Element codes.  A field operates on integer codes 0 <= c < p^m: the base-p
digits of c are the coefficients, ascending degree, of the representative
polynomial in the generator t (the class of X modulo the defining
polynomial).  Over a prime field the code is simply the residue.  All inner
loops work on codes; FieldElem wraps a code with its field for operator
syntax and strict cross-field checking at the API boundary.

Packed codes.  Matrix products run on packed codes, so that a dot product
of length L is one sum(map(operator.mul, ...)) over Python integers with one
reduction per result.  Over GF(p) the packed code is the code itself and the
reduction is mod p.  Over GF(p^m) a code with digits a_i packs to the
integer sum of a_i * 2^(s*i) (Kronecker substitution), with the slot width s
chosen from L so that 2^s > (L+1)*m*(p-1)^2: a sum of L products then holds
each of its 2m-1 coefficients in its own slot without a carry.  Unpacking
folds the slots of degree >= m into the lower ones modulo the defining
polynomial, reducing each folded slot mod p, and reads the m low slots mod
p.  Scalar multiplication over GF(p^m) is the same computation with L = 1.

Polynomials are immutable coefficient tuples in ascending degree with no
trailing zeros.  The zero polynomial has an empty tuple and degree -1.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator, Optional, Sequence, Union

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


class Field:
    """A finite field.  Construct with GF(p) or make_extension(p, q).

    Arithmetic methods (add, mul, ...) act on integer element codes and are
    the fast path; element() wraps a code into a FieldElem.  pack(codes, L)
    and unpack(values, L) are the codec of the dot-product kernel (see the
    module docstring): unpack maps each sum of L products of packed codes
    to the code of that sum.
    """

    def __init__(self, p: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
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

        def mul(a, b):
            return a * b % p

        def inv(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return pow(a, p - 2, p)

        self.mul = mul
        self.inv = inv
        self.pack = lambda codes, inner: codes
        self.unpack = lambda values, inner: [v % p for v in values]

    def _init_extension(self):
        p, m, q = self.p, self.degree, self.order
        mod = self.modulus

        # X^m modulo the defining polynomial, as (degree, coefficient) terms
        head = [(i, -c % p) for i, c in enumerate(mod[:m]) if c]
        codecs = {}

        def codec(inner):
            """(pack_one, reduce_one) for sums of `inner` products.

            The slot width s has 2^s > (inner + 1) * m * (p-1)^2, so each of
            the 2m - 1 coefficients of such a sum fits its slot, with room
            left for folding the slots of degree >= m into the lower ones.
            """
            if inner in codecs:
                return codecs[inner]
            s = ((inner + 1) * m * (p - 1) ** 2).bit_length()
            mask = (1 << s) - 1
            top = sum(h << s * i for i, h in head)  # X^m, packed
            folds = [
                (s * k, (1 << s * k) - 1, top << s * (k - m))
                for k in range(2 * m - 2, m - 1, -1)
            ]
            shifts = range(s * (m - 1), -1, -s)

            def pack_one(c):
                v = 0
                for shift in range(0, s * m, s):
                    c, d = divmod(c, p)
                    v |= d << shift
                return v

            if q <= _TABLE_LIMIT:
                pack_one = [pack_one(c) for c in range(q)].__getitem__

            def reduce_one(v):
                # replace the top slot's X^k by X^(k-m) * X^m, highest first,
                # then read the m low slots
                for shift, low, x_m in folds:
                    v = (v & low) + (v >> shift) % p * x_m
                code = 0
                for shift in shifts:
                    code = code * p + ((v >> shift) & mask) % p
                return code

            codecs[inner] = pack_one, reduce_one
            return pack_one, reduce_one

        self.pack = lambda codes, inner: list(map(codec(inner)[0], codes))
        self.unpack = lambda values, inner: list(map(codec(inner)[1], values))
        pack1, reduce1 = codec(1)

        def digits(c):
            out = []
            for _ in range(m):
                out.append(c % p)
                c //= p
            return out

        def undigits(v):
            c = 0
            for x in reversed(v):
                c = c * p + x
            return c

        self._digits = digits

        def add(a, b):
            va, vb = digits(a), digits(b)
            return undigits([(x + y) % p for x, y in zip(va, vb)])

        def sub(a, b):
            va, vb = digits(a), digits(b)
            return undigits([(x - y) % p for x, y in zip(va, vb)])

        def neg(a):
            return undigits([-x % p for x in digits(a)])

        def mul(a, b):
            return reduce1(pack1(a) * pack1(b))

        def inv(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            # a^(q-2) by square and multiply on codes
            result, base, e = 1, a, q - 2
            while e:
                if e & 1:
                    result = mul(result, base)
                base = mul(base, base)
                e >>= 1
            return result

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
            # mul table: reduce each product once, mirror it across the
            # diagonal
            packed = [pack1(a) for a in range(q)]
            mul_t = [0] * (q * q)
            for a, x in enumerate(packed):
                row = [reduce1(x * y) for y in packed[a:]]
                mul_t[a * q + a : (a + 1) * q] = row
                mul_t[a * q + a :: q] = row
            neg_t = [row.index(0) for row in rows]
            inv_t = [0] + [inv(a) for a in range(1, q)]
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
            self.add = add
            self.sub = sub
            self.neg = neg
            self.mul = mul
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
        if self.modulus is None:
            return (code,)
        return tuple(self._digits(code))

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
        """The class of X in an extension; 1 in a prime field."""
        if self.modulus is None:
            return FieldElem(self, 1 % self.p)
        return FieldElem(self, self.p)

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

    def __ne__(self, other):
        return not self.__eq__(other)

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

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub(c, self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.div(self.code, c))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.div(c, self.code))

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

    @classmethod
    def constant(cls, field: Field, c: ElemLike) -> "Poly":
        return cls._raw(field, [field.code(c)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lc(self) -> int:
        """Leading coefficient code; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def elem(self, i: int) -> FieldElem:
        c = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return FieldElem(self.field, c)

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise MixedFields(f"{self.field} vs {other.field}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly._raw(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        sub = self.field.sub
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i in range(n):
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            a[i] = sub(a[i], b)
        return Poly._raw(self.field, a)

    def __neg__(self) -> "Poly":
        neg = self.field.neg
        return Poly._raw(self.field, [neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int)):
            c = self.field.code(other)
            mul = self.field.mul
            return Poly._raw(self.field, [mul(x, c) for x in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly._raw(self.field, [])
        add, mul = self.field.add, self.field.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return Poly._raw(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        sub, mul, inv = f.sub, f.mul, f.inv
        rem = list(self.coeffs)
        dB = other.degree
        ilc = inv(other.coeffs[-1])
        quo = [0] * max(0, len(rem) - dB)
        for k in range(len(rem) - dB - 1, -1, -1):
            c = rem[k + dB]
            if c:
                q = mul(c, ilc)
                quo[k] = q
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = sub(rem[k + i], mul(q, b))
        return Poly._raw(f, quo), Poly._raw(f, rem[:dB])

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
        """Monic greatest common divisor; gcd(0, 0) = 0."""
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def lcm(self, other: "Poly") -> "Poly":
        """Monic least common multiple; lcm with 0 is 0."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly._raw(self.field, [])
        g = self.gcd(other)
        return ((self // g) * other).monic()

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k."""
        if self.is_zero():
            return self
        return Poly._raw(self.field, [0] * k + list(self.coeffs))

    def inflate(self, k: int) -> "Poly":
        """Substitute X^k for X."""
        out = [0] * (len(self.coeffs) * k)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly._raw(self.field, out)

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        result = Poly._raw(self.field, [1]) % mod
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
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
        Cantor-Zassenhaus.  Lazy: a factor is split off only when the caller
        asks for it.
        """
        if self.degree < 1:
            raise ValueError("only a nonconstant polynomial has factors")
        field = self.field
        q = field.order
        x = Poly.x(field)
        f = self.monic()
        h = x  # X^(q^k) mod f
        rng = random.Random(0)  # splitting is randomized, its result is not
        k = 0
        while f.degree >= 1:
            k += 1
            if f.degree < 2 * k:
                # every factor left has degree >= k: f is one of them
                yield f
                return
            h = h.pow_mod(q, f)
            g = f.gcd(h - x)
            if g.degree < 1:
                continue
            c = g
            while c.degree >= 1:
                f = f // c
                c = f.gcd(c)
            h = h % f
            yield from g._equal_degree_split(k, rng)

    def _equal_degree_split(self, k: int, rng: random.Random) -> Iterator["Poly"]:
        """Cantor-Zassenhaus on a monic squarefree product of irreducibles
        of degree k: gcd with a^((q^k - 1)/2) - 1 for odd q, and with the
        trace a + a^2 + ... + a^(2^(mk - 1)) of GF(2^(mk)) over GF(2) in
        characteristic 2, for random a.  Lazy like irreducible_factors: the
        first factor costs about log2 of their number splits."""
        n = self.degree
        if n == k:
            yield self
            return
        field = self.field
        q = field.order
        one = Poly._raw(field, [1])
        while True:
            a = Poly._raw(field, [rng.randrange(q) for _ in range(n)])
            if field.p == 2:
                t = s = a
                for _ in range(field.degree * k - 1):
                    t = (t * t) % self
                    s = s + t
            else:
                s = a.pow_mod((q**k - 1) // 2, self) - one
            g = self.gcd(s)
            if 0 < g.degree < n:
                yield from g._equal_degree_split(k, rng)
                yield from (self // g)._equal_degree_split(k, rng)
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
