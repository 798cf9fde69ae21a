"""Dense exact matrices over a finite field, plus canonical forms.

Conventions.  Matrices act on column vectors: column j of a matrix is the
image of the j-th basis vector, so composition reads right to left.  Vectors
are plain lists of element codes.  companion(f) carries ones on the first
subdiagonal and the negated coefficients of f in the last column, so that
C e_i = e_(i+1) for i < deg f.  Jordan blocks put the eigenvalue on the
diagonal and ones on the subdiagonal.  Matrix data is a flat row-major list
of element codes.

A Matrix is immutable after construction: build its entry list first and
construct the Matrix last, since products cache its packed rows and columns.

One packed-row kernel (heisenmod.fields.RowCodec) serves sums, products,
apply, elimination and Echelon; a whole row is one integer.  Row i of A*B
is one sum(map(operator.mul, packed entries of row i of A, packed rows of
B)); apply(v), and column j of a product with fewer columns than rows or
with at most one nonzero entry of B in eight, is the same sum over A's
packed columns, B's zeros skipped; each product is unpacked once.
Elimination keeps every row packed, its slots wide enough for one row
operation per pivot: finding a pivot reads one element per row, the pivot
row is reduced and scaled once, and each other row takes one big-integer
multiply-add.  The determinant is the product of the pivots of the same
elimination times the sign of its swaps.  Echelon is a semi-echelon basis:
each stored row is canonical, 1 at its pivot and 0 at the pivot of every
earlier row, and never changes after insertion, so reducing a vector is one
multiply-add per row and one canon.
"""

from __future__ import annotations

import functools
import operator
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DoesNotSplit,
    MixedFields,
    NonMonic,
    ShapeMismatch,
    Singular,
    verify,
)
from .fields import Field, FieldElem, Poly


class Matrix:
    __slots__ = ("field", "rows", "cols", "data", "_packed_rows", "_packed_cols")

    def __init__(self, field: Field, rows: int, cols: int, data: Sequence[int]):
        if len(data) != rows * cols:
            raise ShapeMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = list(data)
        self._packed_rows: Optional[list[int]] = None
        self._packed_cols: Optional[list[int]] = None

    def __reduce__(self):
        # the packed caches are rebuilt on first use
        return (Matrix, (self.field, self.rows, self.cols, self.data))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable]) -> "Matrix":
        grid = [[field.code(x) for x in row] for row in rows]
        r = len(grid)
        c = len(grid[0]) if grid else 0
        if any(len(row) != c for row in grid):
            raise ShapeMismatch("ragged rows")
        return cls(field, r, c, [x for row in grid for x in row])

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence[int]]) -> "Matrix":
        r = len(cols[0]) if cols else 0
        if any(len(col) != r for col in cols):
            raise ShapeMismatch("ragged columns")
        return cls(field, r, len(cols), [x for row in zip(*cols) for x in row])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.scalar(field, n, 1)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [0] * (rows * cols))

    @classmethod
    def scalar(cls, field: Field, n: int, c) -> "Matrix":
        data = [0] * (n * n)
        data[:: n + 1] = [field.code(c)] * n
        return cls(field, n, n, data)

    # -- access ---------------------------------------------------------------

    def at(self, i: int, j: int) -> FieldElem:
        return FieldElem(self.field, self.data[i * self.cols + j])

    def code_at(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> list[int]:
        return self.data[j :: self.cols]

    def row_lists(self) -> list[list[int]]:
        c = self.cols
        return [self.data[i * c : (i + 1) * c] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.data)

    def is_scalar(self) -> Optional[FieldElem]:
        """The scalar c if self == c*I, else None."""
        if self.rows != self.cols or self.rows == 0:
            return None
        c = self.data[0]
        if self.data != Matrix.scalar(self.field, self.rows, c).data:
            return None
        return FieldElem(self.field, c)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Matrix"):
        if self.field is not other.field and self.field != other.field:
            raise MixedFields(f"{self.field} vs {other.field}")

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        # digit by digit, -1 is p - 1
        return self._plus(other, self.field.p - 1, "subtraction")

    def _plus(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        """self + sign * other as one packed sum of the whole entry lists."""
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{what} shape mismatch")
        codec = self.field.row_codec[2]
        packed = codec.pack(self.data) + sign * codec.pack(other.data)
        return Matrix(self.field, self.rows, self.cols,
                      codec.unpack(packed, len(self.data)))

    def __neg__(self) -> "Matrix":
        return self._scaled(self.field.p - 1)

    def shift(self, c) -> "Matrix":
        """self - c*I, changing only the diagonal entries."""
        if self.rows != self.cols:
            raise ShapeMismatch("shift of a non-square matrix")
        field, n = self.field, self.rows
        c = field.code(c)
        if not c:
            return self
        sub, data = field.sub, list(self.data)
        data[:: n + 1] = [sub(x, c) for x in data[:: n + 1]]
        return Matrix(field, n, n, data)

    def _scaled(self, c: int) -> "Matrix":
        codec = self.field.row_codec[1]
        packed = codec.pack(self.data) * codec.elem[c]
        return Matrix(self.field, self.rows, self.cols,
                      codec.unpack(packed, len(self.data)))

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int)):
            return self._scaled(self.field.code(other))
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        n, k, b = self.rows, other.cols, other.data
        codec = self.field.row_codec[self.cols]
        if k < n or 8 * (len(b) - b.count(0)) <= len(b):
            # column j is A's packed columns weighted by column j of B; B's
            # zeros are skipped, so a sparse B costs one multiply per nonzero
            cols, entries = self._columns_packed(), codec.scalars(b)
            sums = []
            for j in range(k):
                col = entries[j::k]
                sums.append(sum(map(operator.mul, compress(col, col),
                                    compress(cols, col))))
            flat = codec.unpack(codec.join(sums, n), n * k)
            data = [0] * (n * k)
            for j in range(k):
                data[j::k] = flat[j * n : (j + 1) * n]
        else:
            rows, entries, c = other._rows_packed(), codec.scalars(self.data), self.cols
            sums = [sum(map(operator.mul, entries[i * c : (i + 1) * c], rows))
                    for i in range(n)]
            data = codec.unpack(codec.join(sums, k), n * k)
        return Matrix(self.field, n, k, data)

    def __rmul__(self, other):
        if isinstance(other, (FieldElem, int)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("power of a non-square matrix")
        if e < 0:
            return self.inv() ** (-e)
        if e == 0:
            return Matrix.identity(self.field, self.rows)
        # square and multiply from the lowest bit, with no product by the
        # identity and no squaring past the highest bit
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(self.data)))

    def apply(self, v: Sequence[int]) -> list[int]:
        """Matrix times column vector of codes."""
        if len(v) != self.cols:
            raise ShapeMismatch(f"vector length {len(v)} for {self.cols} columns")
        codec = self.field.row_codec[self.cols]
        packed = sum(map(operator.mul, codec.scalars(v), self._columns_packed()))
        return codec.unpack(packed, self.rows)

    def _rows_packed(self) -> list[int]:
        """The rows, each one integer, for the inner length rows, cached."""
        if self._packed_rows is None:
            pack = self.field.row_codec[self.rows].pack
            self._packed_rows = list(map(pack, self.row_lists()))
        return self._packed_rows

    def _columns_packed(self) -> list[int]:
        """The columns, each one integer, for the inner length cols, cached."""
        if self._packed_cols is None:
            pack, c = self.field.row_codec[self.cols].pack, self.cols
            self._packed_cols = [pack(self.data[j::c]) for j in range(c)]
        return self._packed_cols

    def transpose(self) -> "Matrix":
        c = self.cols
        out = [x for j in range(c) for x in self.data[j::c]]
        return Matrix(self.field, c, self.rows, out)

    def trace(self) -> FieldElem:
        if self.rows != self.cols:
            raise ShapeMismatch("trace of a non-square matrix")
        diagonal = self.data[:: self.cols + 1]
        return FieldElem(self.field, functools.reduce(self.field.add, diagonal, 0))

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        flat, pivots, _ = _rref_rows(self.field, self.row_lists(), self.cols)
        flat += [0] * ((self.rows - len(pivots)) * self.cols)
        return Matrix(self.field, self.rows, self.cols, flat), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> FieldElem:
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        _, pivots, unit = _rref_rows(self.field, self.row_lists(), self.cols, True)
        return FieldElem(self.field, unit if len(pivots) == self.rows else 0)

    def inv(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = [self.row(i) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        flat, pivots, _ = _rref_rows(self.field, aug, 2 * n)
        if pivots[:n] != tuple(range(n)):
            raise Singular("matrix is singular")
        # the right half of each row of [A | I]
        return Matrix(self.field, n, n, [
            x for i in range(n) for x in flat[2 * n * i + n : 2 * n * (i + 1)]])

    def solve(self, b: Sequence[int]) -> Optional[list[int]]:
        """One solution of self * x = b, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        if len(b) != self.rows:
            raise ShapeMismatch("right-hand side length mismatch")
        aug = [self.row(i) + [b[i]] for i in range(self.rows)]
        flat, pivots, _ = _rref_rows(self.field, aug, self.cols + 1)
        if pivots and pivots[-1] == self.cols:
            return None
        x, width = [0] * self.cols, self.cols + 1
        for r, c in enumerate(pivots):
            x[c] = flat[r * width + self.cols]
        return x

    def kernel_basis(self) -> list[list[int]]:
        """Basis of the right kernel, from the reduced echelon form.

        One vector per free column, ascending; entry 1 at the free column.
        """
        flat, pivots, _ = _rref_rows(self.field, self.row_lists(), self.cols)
        neg, n = self.field.neg, self.cols
        basis = []
        for free in sorted(set(range(n)).difference(pivots)):
            v = [0] * n
            v[free] = 1
            for r, c in enumerate(pivots):
                v[c] = neg(flat[r * n + free])
            basis.append(v)
        return basis

    def __repr__(self):
        f = self.field
        body = "; ".join(
            " ".join(repr(FieldElem(f, x)) for x in self.row(i))
            for i in range(self.rows)
        )
        return f"Matrix({f}, [{body}])"


def _rref_rows(
    field: Field, M: list[list[int]], cols: int, det: bool = False
) -> tuple[Optional[list[int]], tuple[int, ...], Optional[int]]:
    """Reduced row echelon form of a list of code rows, on packed rows:
    (its nonzero rows as one flat code list, the pivot columns, None).

    With det, only the rows below each pivot are cleared, which fixes the
    pivots, and the result is (None, pivot columns, code of the product of
    the pivots times the sign of the row swaps): the determinant when M is
    square and invertible.
    """
    nrows = len(M)
    codec = field.row_codec[min(nrows, cols) + 1]
    read, canon, elem, minus = codec.read, codec.canon, codec.elem, codec.minus
    P = list(map(codec.pack, M))
    pivots = []
    unit = 1
    r = 0
    clean = True  # every row still has its packed codes
    for c in range(cols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            piv = read(P[pr], c)
            if piv:
                break
        else:
            continue
        if pr != r:
            P[r], P[pr] = P[pr], P[r]
        if det:
            unit = field.mul(unit if pr == r else field.neg(unit), piv)
        top = P[r] if clean else canon(P[r], cols)
        if piv != 1:
            top = canon(top * elem[field.inv(piv)], cols)
        P[r] = top
        for i in range(r + 1 if det else 0, nrows):
            if i != r:
                x = read(P[i], c)
                if x:
                    P[i] += minus[x] * top
                    clean = False
        pivots.append(c)
        r += 1
    if det:
        return None, tuple(pivots), unit
    return codec.unpack(codec.join(P[:r], cols), r * cols), tuple(pivots), None


class Echelon:
    """Growing semi-echelon basis of a subspace of code vectors (Holt, Eick,
    O'Brien, 7.5): rows[i] is packed by codec, with pivot pivots[i].
    reduce(v) is the unique vector of the coset of v that is zero at every
    pivot.  The fully reduced rows, vectors or sorted_rows() in pivot order,
    are built only when read.
    """

    __slots__ = ("field", "width", "rows", "pivots")

    def __init__(self, field: Field, width: int):
        self.field, self.width = field, width
        self.rows, self.pivots = [], []

    @property
    def codec(self):
        return self.field.row_codec[self.width + 1]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduced(self, v: Sequence[int]) -> int:
        if len(v) != self.width:
            raise ShapeMismatch(f"vector length {len(v)} for width {self.width}")
        return self._clear(self.codec.pack(v), self.rows, self.pivots)

    def _clear(self, w: int, rows: list[int], pivots: list[int]) -> int:
        """w minus its entry at each pivot times that pivot's row, in order."""
        read, minus = self.codec.read, self.codec.minus
        for row, piv in zip(rows, pivots):
            x = read(w, piv)
            if x:
                w += minus[x] * row
        return self.codec.canon(w, self.width)

    def reduce(self, v: Sequence[int]) -> list[int]:
        return self.codec.unpack(self._reduced(v), self.width)

    def contains(self, v: Sequence[int]) -> bool:
        return not self._reduced(v)

    def insert(self, v: Sequence[int]) -> Optional[int]:
        """Add v to the span; returns its pivot, or None if dependent."""
        w = self._reduced(v)
        if not w:
            return None
        codec = self.codec
        # the lowest set bit lies in the first nonzero entry
        piv = ((w & -w).bit_length() - 1) // codec.bits
        x = codec.read(w, piv)
        if x != 1:
            w = codec.canon(w * codec.elem[self.field.inv(x)], self.width)
        self.rows.append(w)
        self.pivots.append(piv)
        return piv

    def copy(self) -> "Echelon":
        e = Echelon(self.field, self.width)
        e.rows, e.pivots = list(self.rows), list(self.pivots)
        return e

    def sorted_rows(self) -> list[list[int]]:
        """The reduced echelon rows, in pivot order."""
        n, k, codec = self.width, self.dim, self.codec
        if k == n:
            return Matrix.identity(self.field, n).row_lists()
        # the later rows, cleared first, clear each row at their pivots
        rows, pivots = [], []
        for row, piv in zip(self.rows[::-1], self.pivots[::-1]):
            rows.append(self._clear(row, rows, pivots))
            pivots.append(piv)
        rows = [row for _, row in sorted(zip(pivots, rows))]
        flat = codec.unpack(codec.join(rows, n), k * n)
        return [flat[i * n : (i + 1) * n] for i in range(k)]

    vectors = property(sorted_rows)


def _standard_basis(
    ops: Sequence[Matrix], seeds: Iterable[Sequence[int]],
    base: Optional[Echelon] = None,
) -> tuple[Echelon, list[list[int]], list[Optional[tuple[int, int]]]]:
    """Close the seeds under the operators, modulo an optional base span.

    The MeatAxe standard basis (Parker 1984; Holt, Eick, O'Brien, Handbook
    of Computational Group Theory, 7.5).  Returns (echelon of base + span,
    basis, words): basis[i] is a seed when words[i] is None, else ops[j]
    applied to basis[b] for words[i] = (j, b), b < i.  A seed is spun out
    before the next one is tried, newest basis vector first.  The base is
    copied, never changed.
    """
    ech = base.copy() if base is not None else Echelon(ops[0].field, ops[0].cols)
    basis: list[list[int]] = []
    words: list[Optional[tuple[int, int]]] = []
    for seed in seeds:
        if ech.dim == ech.width or ech.insert(seed) is None:
            continue
        stack = [len(basis)]
        basis.append(list(seed))
        words.append(None)
        while stack and ech.dim < ech.width:
            b = stack.pop()
            for j, g in enumerate(ops):
                w = g.apply(basis[b])
                if ech.insert(w) is not None:
                    stack.append(len(basis))
                    basis.append(w)
                    words.append((j, b))
                    if ech.dim == ech.width:
                        break
    return ech, basis, words


def _conjugates(t: Matrix, pairs: Iterable[tuple[Matrix, Matrix]]) -> bool:
    """True when t^-1 a t == b for every pair (a, b): det t != 0 and
    a t == t b, with no inverse formed."""
    return not t.det().is_zero() and all(a * t == t * b for a, b in pairs)


# -- structured builders --------------------------------------------------------


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


def companion(f: Poly) -> Matrix:
    """Companion matrix of monic f: subdiagonal ones, -f in the last column."""
    if not f.is_monic() or f.degree < 1:
        raise NonMonic("companion matrix needs a monic polynomial of degree >= 1")
    n = f.degree
    data = [0] * (n * n)
    data[n :: n + 1] = [1] * (n - 1)  # the subdiagonal
    data[n - 1 :: n] = [f.field.neg(c) for c in f.coeffs[:n]]
    return Matrix(f.field, n, n, data)


def jordan_block(field: Field, eigenvalue, size: int) -> Matrix:
    data = Matrix.scalar(field, size, eigenvalue).data
    data[size :: size + 1] = [1] * (size - 1)  # the subdiagonal
    return Matrix(field, size, size, data)


def direct_sum(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ShapeMismatch("direct sum of nothing")
    field = mats[0].field
    for m in mats:
        if m.field != field:
            raise MixedFields("direct sum across fields")
    n = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    data = [0] * (n * c)
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            base = (r0 + i) * c + c0
            data[base : base + m.cols] = m.row(i)
        r0 += m.rows
        c0 += m.cols
    return Matrix(field, n, c, data)

def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) is a[i][j] * b.

    b's rows are written straight into place from one scaled copy of b per
    distinct nonzero entry of a (b itself for 1); zero blocks are skipped.
    """
    a._check(b)
    br, bc, width = b.rows, b.cols, a.cols * b.cols
    out = [0] * (a.rows * br * width)
    scaled = {1: b.row_lists()}
    for i in range(a.rows):
        for j, x in enumerate(a.row(i)):
            if not x:
                continue
            rows = scaled.get(x)
            if rows is None:
                rows = scaled[x] = b._scaled(x).row_lists()
            base = i * br * width + j * bc
            for r, row in enumerate(rows):
                start = base + r * width
                out[start : start + bc] = row
    return Matrix(a.field, a.rows * br, width, out)


def assemble_grid(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """Assemble a block matrix from a rectangular grid of equal blocks."""
    field = grid[0][0].field
    br, bc = grid[0][0].rows, grid[0][0].cols
    for row in grid:
        for m in row:
            if m.field != field:
                raise MixedFields("grid across fields")
            if (m.rows, m.cols) != (br, bc):
                raise ShapeMismatch("grid blocks must share one shape")
    R, C = len(grid) * br, len(grid[0]) * bc
    out = [0] * (R * C)
    for bi, row in enumerate(grid):
        if len(row) != len(grid[0]):
            raise ShapeMismatch("ragged grid")
        for bj, m in enumerate(row):
            for i in range(br):
                base = (bi * br + i) * C + bj * bc
                out[base : base + bc] = m.row(i)
    return Matrix(field, R, C, out)


# -- polynomial evaluation at a matrix -------------------------------------------


def poly_at(f: Poly, a: Matrix) -> Matrix:
    """f(a) by Horner's rule from c_k a + c_(k-1) I: k - 1 matrix
    products at degree k >= 1."""
    if a.rows != a.cols:
        raise ShapeMismatch("polynomial of a non-square matrix")
    if a.field != f.field:
        raise MixedFields("polynomial and matrix over different fields")
    cs, neg = f.coeffs, a.field.neg
    if len(cs) < 2:
        return Matrix.scalar(a.field, a.rows, cs[0] if cs else 0)
    acc = a._scaled(cs[-1]).shift(neg(cs[-2]))
    for c in reversed(cs[:-2]):
        acc = (acc * a).shift(neg(c))
    return acc


def poly_apply(f: Poly, a: Matrix, v: Sequence[int]) -> list[int]:
    """f(a) applied to the vector v, without forming f(a)."""
    add, mul = a.field.add, a.field.mul
    acc = [0] * len(v)
    for c in reversed(f.coeffs):
        acc = a.apply(acc)
        if c:
            acc = [add(x, mul(c, y)) for x, y in zip(acc, v)]
    return acc


# -- minimal polynomial ------------------------------------------------------------


def _local_min_poly(a: Matrix, v: Sequence[int], base: Optional[Echelon] = None
                    ) -> tuple[Poly, Echelon]:
    """Least monic g with g(a) v inside the base subspace (default 0), and
    the echelon of the base plus the Krylov chain v, a v, ...

    g's lower coefficients solve a^k v = sum c_i a^i v + (base part)."""
    field = a.field
    ech, chain, _ = _standard_basis([a], [v], base)
    if not chain:
        return Poly._raw(field, [1]), ech
    cols = chain + (base.sorted_rows() if base is not None else [])
    coords = Matrix.from_columns(field, cols).solve(a.apply(chain[-1]))
    verify(coords is not None, "a^k v must lie in the Krylov chain and base")
    neg = field.neg
    return Poly._raw(field, [neg(c) for c in coords[: len(chain)]] + [1]), ech


def min_poly(a: Matrix) -> Poly:
    """Minimal polynomial: lcm of cyclic annihilators over standard seeds."""
    if a.rows != a.cols:
        raise ShapeMismatch("minimal polynomial of a non-square matrix")
    field = a.field
    n = a.rows
    if n == 0:
        return Poly._raw(field, [1])
    seeds = Matrix.identity(field, n).row_lists()
    # the first Krylov echelon is the covered span; a later seed outside it
    # is spun again modulo that span to fold its Krylov subspace in
    m, covered = _local_min_poly(a, seeds[0])
    for e in seeds[1:]:
        if covered.dim == n:
            break
        if not covered.contains(e):
            m = m.lcm(_local_min_poly(a, e)[0])
            covered = _standard_basis([a], [e], covered)[0]
    return m


# -- rational canonical form ----------------------------------------------------


class CanonicalForm(NamedTuple):
    """Frobenius data: invariant factors d1 | d2 | ... and a transform T
    with T^-1 A T equal to the direct sum of their companion blocks."""

    invariant_factors: list[Poly]
    transform: Matrix

    @property
    def form(self) -> Matrix:
        return direct_sum([companion(d) for d in self.invariant_factors])


def _coprime_to(g: Poly, h: Poly) -> Poly:
    """Largest divisor of g sharing no irreducible factor with h."""
    u = g
    c = u.gcd(h)
    while c.degree > 0:
        u = u // c
        c = u.gcd(h)
    return u


def _lcm_split(g: Poly, h: Poly) -> tuple[Poly, Poly]:
    """Coprime g1 | g, h1 | h with g1 * h1 = lcm(g, h), gcd only."""
    a = _coprime_to(g, h)
    b = _coprime_to(h, g)
    gc = g // a
    hc = h // b
    # on the shared primes, keep each prime's higher power wherever it is;
    # ties go to the g side
    m = gc.gcd(hc)
    hh = hc // m
    cg = _coprime_to(gc, hh)
    ch = hc // _coprime_to(hc, hh)
    g1 = (a * cg).monic()
    h1 = (b * ch).monic()
    verify(g1.gcd(h1).degree == 0, "lcm split must be coprime")
    verify((g1 * h1).monic() == g.lcm(h), "lcm split must multiply to the lcm")
    return g1, h1


def frobenius_form(a: Matrix) -> CanonicalForm:
    """Rational canonical form with an explicit change of basis.

    Repeatedly splits off the cyclic subspace of a vector whose annihilator
    modulo the part already extracted is the minimal polynomial of the
    quotient, adjusted to have annihilator exactly that polynomial.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("canonical form of a non-square matrix")
    field = a.field
    n = a.rows
    if n == 0:
        raise ShapeMismatch("canonical form of an empty matrix")
    W = Echelon(field, n)
    blocks: list[tuple[list[int], Poly, list[list[int]]]] = []
    while W.dim < n:
        best_v: Optional[list[int]] = None
        best_g: Optional[Poly] = None
        for e in Matrix.identity(field, n).row_lists():
            g = _local_min_poly(a, e, W)[0]
            if g.degree == 0:
                continue
            if best_g is None:
                best_v, best_g = e, g
            else:
                l = best_g.lcm(g)
                if l != best_g:
                    g1, h1 = _lcm_split(best_g, g)
                    u1 = poly_apply(best_g // g1, a, best_v)
                    u2 = poly_apply(g // h1, a, e)
                    add = field.add
                    best_v = [add(x, y) for x, y in zip(u1, u2)]
                    best_g = l
            if best_g.degree == n - W.dim:
                break
        verify(best_g is not None, "a vector outside W must exist")
        # make the annihilator exact: subtract the components inside W
        w = poly_apply(best_g, a, best_v)
        if any(w):
            B = Matrix.from_columns(field, [u for _, _, chain in blocks for u in chain])
            coords = B.solve(w)
            verify(coords is not None, "g(a)v must lie in the extracted span")
            pos = 0
            sub = field.sub
            u = best_v
            for gen, d, _ in blocks:
                h = Poly._raw(field, coords[pos : pos + d.degree])
                pos += d.degree
                if not h.is_zero():
                    quo, rem = divmod(h, best_g)
                    verify(rem.is_zero(), "conductor must divide block factors")
                    corr = poly_apply(quo, a, gen)
                    u = [sub(x, y) for x, y in zip(u, corr)]
            best_v = u
            w = poly_apply(best_g, a, best_v)
            verify(not any(w), "adjusted vector must be annihilated exactly")
        W, chain, _ = _standard_basis([a], [best_v], W)
        verify(len(chain) == best_g.degree, "cyclic basis must be independent")
        blocks.append((best_v, best_g, chain))
    # extraction yields decreasing divisibility; report ascending d1 | d2 | ...
    blocks.reverse()
    for d1, d2 in zip(blocks, blocks[1:]):
        verify((d2[1] % d1[1]).is_zero(), "invariant factor chain broken")
    T = Matrix.from_columns(field, [u for _, _, chain in blocks for u in chain])
    result = CanonicalForm([d for _, d, _ in blocks], T)
    verify(_conjugates(T, [(a, result.form)]), "canonical form verification failed")
    return result


def char_poly(a: Matrix) -> Poly:
    """Characteristic polynomial as the product of the invariant factors."""
    if a.rows != a.cols:
        raise ShapeMismatch("characteristic polynomial of a non-square matrix")
    if a.rows == 0:
        return Poly._raw(a.field, [1])
    out = Poly._raw(a.field, [1])
    for d in frobenius_form(a).invariant_factors:
        out = out * d
    return out


def similarity_transform(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """An invertible T with T^-1 a T = b, or None if not similar."""
    a._check(b)
    if a.rows != a.cols or b.rows != b.cols:
        raise ShapeMismatch("similarity needs square matrices")
    if a.rows != b.rows:
        return None
    ca = frobenius_form(a)
    cb = frobenius_form(b)
    if ca.invariant_factors != cb.invariant_factors:
        return None
    # T^-1 a T = F = S^-1 b S, so (T S^-1) conjugates a to b
    t = ca.transform * cb.transform.inv()
    verify(_conjugates(t, [(a, b)]), "similarity transform failed to verify")
    return t


# -- Jordan form ---------------------------------------------------------------


def eigenvalues_with_multiplicity(a: Matrix) -> tuple[list[tuple[int, int]], Poly]:
    """Roots of the characteristic polynomial found in the base field.

    Returns ([(eigenvalue code, algebraic multiplicity)...] by ascending
    code, remaining rootless factor).
    """
    return char_poly(a)._split_roots()


def jordan_form(a: Matrix) -> tuple[Matrix, Matrix]:
    """(J, T) with T^-1 A T = J when the characteristic polynomial splits.

    Blocks are grouped by ascending eigenvalue code and decreasing size
    inside each eigenvalue; ones sit on the subdiagonal.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("Jordan form of a non-square matrix")
    field = a.field
    n = a.rows
    eig, rest = eigenvalues_with_multiplicity(a)
    if rest.degree > 0:
        raise DoesNotSplit(
            f"characteristic polynomial has a rootless factor {rest!r}"
        )
    blocks: list[Matrix] = []
    columns: list[list[int]] = []
    for lam, mult in eig:
        N = a.shift(lam)
        # kernels of N, N^2, ... until the generalized eigenspace saturates
        kernels = [Echelon(field, n)]
        power = Matrix.identity(field, n)
        while kernels[-1].dim < mult:
            power = power * N
            ech = Echelon(field, n)
            for v in power.kernel_basis():
                ech.insert(v)
            verify(ech.dim > kernels[-1].dim, "kernel chain stalled")
            kernels.append(ech)
        s = len(kernels) - 1
        # choose chain tops level by level, longest chains first
        tops: list[tuple[list[int], int]] = []
        for k in range(s, 0, -1):
            seen = kernels[k - 1].copy()
            for v, h in tops:
                img = list(v)
                for _ in range(h - k):
                    img = N.apply(img)
                seen.insert(img)
            for v in kernels[k].sorted_rows():
                if seen.insert(v) is not None:
                    tops.append((v, k))
        for v, h in tops:
            blocks.append(jordan_block(field, lam, h))
            u = list(v)
            for _ in range(h):
                columns.append(u)
                u = N.apply(u)
    J = direct_sum(blocks)
    T = Matrix.from_columns(field, columns)
    verify(_conjugates(T, [(a, J)]), "Jordan form verification failed")
    return J, T
