"""Dense exact matrices over a finite field, plus canonical forms.

Conventions.  Matrices act on column vectors: column j of a matrix is the
image of the j-th basis vector, so composition reads right to left.  Vectors
are plain lists of element codes.  companion(f) carries ones on the first
subdiagonal and the negated coefficients of f in the last column, so that
C e_i = e_(i+1) for i < deg f.  Jordan blocks put the eigenvalue on the
diagonal and ones on the subdiagonal.  Matrix data is a flat row-major list
of element codes.

A Matrix is immutable after construction: build its entry list first and
construct the Matrix last: products cache its packed rows, columns and multiples.

One packed-row kernel (heisenmod.fields.RowCodec) serves sums, products,
apply, elimination and Echelon; a whole row is one integer.  Row i of A*B
is one sum(map(operator.mul, packed entries of row i of A, packed rows of
B)); from B's second product on, if q - 1 <= its rows and they fit in 8 MB,
it is one sum(map(operator.getitem, B's cached multiples elem[c] * row of
each row, codes of row i of A)), with no multiply (level-1 grease, Parker
1984).
apply(v), and column j of a product with fewer columns than rows or with at
most one nonzero entry of B in eight, is the same sum over A's packed
columns, B's zeros skipped; each product is unpacked once.  Over GF(2) a
code selects a row or column: each sum is sum(compress(packed, codes)),
with no multiply and no row table.
Echelon is a semi-echelon basis: each stored row is canonical, 1 at its
pivot (its first nonzero entry, at the lowest set bit) and 0 at the pivot of
every earlier row, and never changes after insertion, so reducing a vector
is one multiply-add per row and one canon; over GF(2) it is one XOR per row
whose pivot bit is set, and no canon.  rref, rank, det, inv, solve and
kernel_basis insert their rows in order into one Echelon until it is full;
the determinant is the product of the pivot entries before scaling times
the sign of row -> pivot.  One back-substitution, with no canon, gives the
reduced echelon rows.

Canonical forms share one cyclic decomposition.  min_poly makes one
relative Krylov pass over the standard seeds; char_poly reads the same pass
(m when deg m = n, else the product of the seeds' relative orders).
frobenius_form splits off cyclic blocks with explicit generators, and
jordan_form reads its Jordan chains off those generators.
"""

from __future__ import annotations

import functools
import operator
from itertools import accumulate, compress, repeat
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

_ROW_TABLE_BITS = 1 << 26  # 8 MB; a row table is q times its matrix's packed rows


class Matrix:
    __slots__ = ("field", "rows", "cols", "data", "_packed_rows", "_packed_cols",
                 "_row_table")

    def __init__(self, field: Field, rows: int, cols: int, data: Sequence[int]):
        if len(data) != rows * cols:
            raise ShapeMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = list(data)
        self._packed_rows: Optional[list[int]] = None
        self._packed_cols: Optional[list[int]] = None
        self._row_table: Optional[list[list[int]]] = None

    def __reduce__(self):
        # the packed caches and the row table are rebuilt on use
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
        # c at all n diagonal entries and a zero at every other entry
        n, data, c = self.rows, self.data, self.data[0]
        if data[:: n + 1].count(c) != n or data.count(0) != n * n - (n if c else 0):
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
        codec, two = self.field.row_codec[self.cols], self.field.order == 2
        if k < n or 8 * (len(b) - b.count(0)) <= len(b):
            # column j is A's packed columns weighted by column j of B; B's
            # zeros are skipped, so a sparse B costs one multiply per nonzero
            # (over GF(2) none: its ones select the columns)
            cols, entries = self._columns_packed(), codec.scalars(b)
            sums = []
            for j in range(k):
                col = entries[j::k]
                sums.append(sum(compress(cols, col)) if two else
                            sum(map(operator.mul, compress(col, col), compress(cols, col))))
            flat = codec.unpack(codec.join(sums, n), n * k)
            data = [0] * (n * k)
            for j in range(k):
                data[j::k] = flat[j * n : (j + 1) * n]
        else:
            c, table = self.cols, other._scaled_rows()
            if table is None:
                table, terms, op = other._rows_packed(), codec.scalars(self.data), operator.mul
            else:
                terms, op = self.data, operator.getitem
            rows = [terms[i * c : (i + 1) * c] for i in range(n)]
            sums = ([sum(compress(table, r)) for r in rows] if two else
                    [sum(map(op, table, r)) for r in rows])
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
        if self.field.order == 2:
            packed = sum(compress(self._columns_packed(), v))
        else:
            packed = sum(map(operator.mul, codec.scalars(v), self._columns_packed()))
        return codec.unpack(packed, self.rows)

    def _rows_packed(self) -> list[int]:
        """The rows, each one integer, for the inner length rows, cached."""
        if self._packed_rows is None:
            pack = self.field.row_codec[self.rows].pack
            self._packed_rows = list(map(pack, self.row_lists()))
        return self._packed_rows

    def _scaled_rows(self) -> Optional[list[list[int]]]:
        """table[j][c] = elem[c] * packed row j, cached, built once an earlier
        product packed the rows, 2 < q <= rows + 1 and it fits; else None.
        Over GF(p) the multiples c * row are running sums of the row."""
        q, rows = self.field.order, self._packed_rows
        if self._row_table is None and rows is not None and 2 < q <= self.rows + 1:
            codec = self.field.row_codec[self.rows]
            if q * self.rows * self.cols * codec.bits <= _ROW_TABLE_BITS:
                elem = codec.elem
                self._row_table = [
                    list(accumulate(repeat(row, q - 1), initial=0)) if self.field.degree == 1
                    else [elem[c] * row for c in range(q)] for row in rows]
        return self._row_table

    def _columns_packed(self) -> list[int]:
        """The columns, each one integer, for the inner length cols, cached."""
        if self._packed_cols is None:
            pack, c = self.field.row_codec[self.cols].pack, self.cols
            self._packed_cols = [pack(self.data[j::c]) for j in range(c)]
        return self._packed_cols

    def transpose(self) -> "Matrix":
        c, out = self.cols, []
        for j in range(c):
            out += self.data[j::c]
        return Matrix(self.field, c, self.rows, out)

    def trace(self) -> FieldElem:
        if self.rows != self.cols:
            raise ShapeMismatch("trace of a non-square matrix")
        diagonal = self.data[:: self.cols + 1]
        return FieldElem(self.field, functools.reduce(self.field.add, diagonal, 0))

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        flat, pivots = _eliminate(self.field, self.row_lists(), self.cols)[0]._reduced_rows()
        flat += [0] * ((self.rows - len(pivots)) * self.cols)
        return Matrix(self.field, self.rows, self.cols, flat), tuple(pivots)

    def rank(self) -> int:
        return _eliminate(self.field, self.row_lists(), self.cols)[0].dim

    def det(self) -> FieldElem:
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        ech, unit = _eliminate(self.field, self.row_lists(), self.cols, True)
        if unit:
            # the sign of row -> pivot: one swap per entry put in its place
            perm = ech.pivots
            for i in range(self.rows):
                while perm[i] != i:
                    j = perm[i]
                    perm[i], perm[j] = perm[j], j
                    unit = self.field.neg(unit)
        return FieldElem(self.field, unit)

    def inv(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = [self.row(i) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        ech = _eliminate(self.field, aug, 2 * n)[0]
        # [A | I] has rank n, so A is singular when a pivot falls in I
        if any(c >= n for c in ech.pivots):
            raise Singular("matrix is singular")
        flat = ech._reduced_rows()[0]
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
        ech = _eliminate(self.field, aug, self.cols + 1)[0]
        if self.cols in ech.pivots:
            return None
        flat, pivots = ech._reduced_rows()
        x, width = [0] * self.cols, self.cols + 1
        for r, c in enumerate(pivots):
            x[c] = flat[r * width + self.cols]
        return x

    def kernel_basis(self) -> list[list[int]]:
        """Basis of the right kernel, from the reduced echelon form.

        One vector per free column, ascending; entry 1 at the free column.
        """
        flat, pivots = _eliminate(self.field, self.row_lists(), self.cols)[0]._reduced_rows()
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


class Echelon:
    """Growing semi-echelon basis of a subspace of code vectors (Holt, Eick,
    O'Brien, 7.5) of at most rank (default width) rows: rows[i] is packed by
    codec, with pivot pivots[i].  reduce(v) is the unique vector of the coset
    of v that is zero at every pivot.  The fully reduced rows, vectors or
    sorted_rows() in pivot order, are built only when read.
    """

    __slots__ = ("field", "width", "rank", "codec", "rows", "pivots")

    def __init__(self, field: Field, width: int, rank: Optional[int] = None):
        self.field, self.width = field, width
        self.rank = width if rank is None else rank
        self.codec = field.row_codec[self.rank + 1]
        self.rows, self.pivots = [], []

    def __reduce__(self):
        # the codec is rebuilt from the field
        state = {"rows": self.rows, "pivots": self.pivots}
        return Echelon, (self.field, self.width, self.rank), (None, state)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduced(self, v: Sequence[int]) -> int:
        if len(v) != self.width:
            raise ShapeMismatch(f"vector length {len(v)} for width {self.width}")
        return self._clear(self.codec.pack(v), self.rows, self.pivots)

    def _clear(self, w: int, rows: list[int], pivots: list[int]) -> int:
        """The canonical packed w minus its entry at each pivot times that
        pivot's row, in order, made canonical again.  Over GF(2) the row is
        XORed in where w's pivot bit is set, so every slot stays 0 or 1."""
        codec, start = self.codec, w
        if self.field.order == 2:
            bits = codec.bits
            for row, piv in zip(rows, pivots):
                if w >> piv * bits & 1:
                    w ^= row
            return w
        read, minus = codec.read, codec.minus
        for row, piv in zip(rows, pivots):
            x = read(w, piv)
            if x:
                w += minus[x] * row
        return codec.canon(w, self.width) if w != start else w

    def reduce(self, v: Sequence[int]) -> list[int]:
        return self.codec.unpack(self._reduced(v), self.width)

    def contains(self, v: Sequence[int]) -> bool:
        return not self._reduced(v)

    def insert(self, v: Sequence[int]) -> Optional[int]:
        """Add v to the span; returns its pivot, or None if dependent."""
        w = self._reduced(v)  # _append returns a nonzero entry
        return self.pivots[-1] if w and self._append(w) else None

    def _append(self, w: int) -> int:
        """Store the nonzero packed w, reduced and canonical, scaled to 1 at
        its pivot; returns the entry it had there."""
        codec = self.codec
        # the lowest set bit lies in the first nonzero entry
        piv = ((w & -w).bit_length() - 1) // codec.bits
        x = codec.read(w, piv)
        if x != 1:
            w = codec.canon(w * codec.elem[self.field.inv(x)], self.width)
        self.rows.append(w)
        self.pivots.append(piv)
        return x

    def copy(self) -> "Echelon":
        e = Echelon(self.field, self.width, self.rank)
        e.rows, e.pivots = list(self.rows), list(self.pivots)
        return e

    def _reduced_rows(self) -> tuple[list[int], list[int]]:
        """The reduced echelon rows in pivot order, one flat code list, and
        their pivots.  Row i, 0 at the earlier rows' pivots, is cleared by
        the stored rows j > i in order, each changing only later pivots: at
        most rank multiply-adds on a canonical row, unpacked with no canon
        (over GF(2) _clear's XORs, which need none)."""
        n, k, codec = self.width, len(self.rows), self.codec
        if k == n:
            return Matrix.identity(self.field, n).data, list(range(n))
        read, minus, rows, pivots = codec.read, codec.minus, self.rows, self.pivots
        if self.field.order == 2:
            clear = self._clear
            cleared = [clear(w, rows[i + 1 :], pivots[i + 1 :]) for i, w in enumerate(rows)]
        else:
            cleared = list(rows)
            for j in range(1, k):
                row, piv = rows[j], pivots[j]
                for i in range(j):
                    x = read(cleared[i], piv)
                    if x:
                        cleared[i] += minus[x] * row
        cleared = sorted(zip(pivots, cleared))
        flat = codec.unpack(codec.join([w for _, w in cleared], n), k * n)
        return flat, [c for c, _ in cleared]

    def sorted_rows(self) -> list[list[int]]:
        """The reduced echelon rows, in pivot order."""
        flat, n = self._reduced_rows()[0], self.width
        return [flat[i * n : (i + 1) * n] for i in range(self.dim)]

    vectors = property(sorted_rows)


def _eliminate(field: Field, rows: Sequence[Sequence[int]], width: int,
               det: bool = False) -> tuple[Echelon, int]:
    """An Echelon of rank bound min(len(rows), width) of the code rows,
    inserted in order until it is full.  With det, also the product of the
    pivot entries before scaling, or 0 at a row that reduces to zero: the
    reduced rows with their columns in pivot order are upper triangular."""
    ech = Echelon(field, width, min(len(rows), width))
    pack, unit = ech.codec.pack, 1
    clear, append, stored, pivots = ech._clear, ech._append, ech.rows, ech.pivots
    for v in rows:
        if len(stored) == width:
            break
        w = clear(pack(v), stored, pivots)
        if det:
            if not w:
                return ech, 0
            unit = field.mul(unit, append(w))
        elif w:
            append(w)
    return ech, unit


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
    copied, never changed.  A scalar operator never enlarges the span, so
    it is not applied.
    """
    ech = base.copy() if base is not None else Echelon(ops[0].field, ops[0].cols)
    moving = [(j, g) for j, g in enumerate(ops) if g.is_scalar() is None]
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
            for j, g in moving:
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
    if not grid or not grid[0]:
        raise ShapeMismatch("grid of nothing")
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


def _local_min_poly(a: Matrix, v: Sequence[int], ech: Echelon, start: int = 0
                    ) -> tuple[list[int], int]:
    """Least monic h with h(a) v in the span of ech's rows (width 2n + 1,
    rank n), and the relation that shows it: a^i v is reduced with 1 at
    coordinate start + i of n + 1 extra entries, and appended while its
    vector part is nonzero.  Every row u | c has u = sum c_j b_j, b_j =
    a^(j-start) v from start on and the earlier rows' vectors below (0 for
    rows with zero extra entries): the first a^k v to clear gives (c, k)."""
    codec = ech.codec
    shift, k, u = a.rows * codec.bits, 0, list(v)
    while True:
        w = ech._clear(codec.pack(u) | 1 << shift + (start + k) * codec.bits,
                       ech.rows, ech.pivots)
        if not w & (1 << shift) - 1:
            return codec.unpack(w >> shift, start + k + 1), k
        ech._append(w)
        u, k = a.apply(u), k + 1


def min_poly(a: Matrix) -> Poly:
    """Minimal polynomial by one relative Krylov pass over the standard seeds
    (Neunhoeffer and Praeger, LMS J. Comput. Math. 11, 2008): a seed e_s
    outside the earlier chains' span has relative order h_s and relation
    h_s(a) e_s + sum_(t<s) r_st(a) e_t = 0.  Stops once deg m = n."""
    return _krylov_pass(a)[0]


def _krylov_pass(a: Matrix) -> tuple[Poly, list[Poly]]:
    """(m, [h_s]): min_poly's pass, with the relative order of each seed
    it spun."""
    if a.rows != a.cols:
        raise ShapeMismatch("minimal polynomial of a non-square matrix")
    field, n = a.field, a.rows
    m, ech, chains = Poly._raw(field, [1]), Echelon(field, 2 * n + 1, n), []
    for e in Matrix.identity(field, n).row_lists():
        if ech.dim == n or m.degree == n:
            break
        c, k = _local_min_poly(a, e, ech, start := ech.dim)
        if k:
            h = Poly._raw(field, c[start:])
            rel = [Poly._raw(field, c[j : j + g.degree]) for j, g, _ in chains]
            common = m.gcd(h)  # ord(e_s) = h ord(u_s), and ord(u_s) divides m
            order = _order(rel, chains) if common.degree else common
            m = m * (h // common) if order.degree == 0 else m.lcm(h * order)
            chains.append((start, h, rel))
    return m, [h for _, h, _ in chains]


def _order(coords: list[Poly], chains: list[tuple[int, Poly, list[Poly]]]) -> Poly:
    """Least monic g with g(a) u = 0, u = sum_t coords[t](a) e_t, where
    chains[t] = (_, h, r) has h(a) e_t + sum_(s<t) r[s](a) e_s = 0.  Top
    down: modulo the e_s below t, u has order h / gcd(h, coords[t])."""
    g = Poly._raw(coords[0].field, [1])
    for t in range(len(coords) - 1, -1, -1):
        if coords[t].is_zero():
            continue
        _, h, rel = chains[t]
        common = h.gcd(coords[t])  # r coords[t] = q h, so r u lies below t
        r, q = (h // common, coords[t] // common) if common.degree else (h, coords[t])
        coords = [r * x - q * y for x, y in zip(coords[:t], rel)]
        g = g * r
    return g


# -- rational canonical form ----------------------------------------------------


class CanonicalForm(NamedTuple):
    """Frobenius data: invariant factors d1 | d2 | ... and a transform T
    with T^-1 A T equal to the direct sum of their companion blocks."""

    invariant_factors: list[Poly]
    transform: Matrix

    @property
    def form(self) -> Matrix:
        return direct_sum([companion(d) for d in self.invariant_factors])


def _lcm_split(g: Poly, h: Poly) -> tuple[Poly, Poly]:
    """Coprime g1 | g, h1 | h with g1 * h1 = lcm(g, h), gcd only: each
    shared prime goes to the side with the higher power, ties to g.  h1
    starts with h's excess over g and takes each common part from g1 until
    none is left."""
    g1, h1 = g, h // g.gcd(h)
    while (c := g1.gcd(h1)).degree > 0:
        g1, h1 = g1 // c, h1 * c
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
            ech = Echelon(field, 2 * n + 1, n)
            ech.rows, ech.pivots = list(W.rows), list(W.pivots)
            g = Poly._raw(field, _local_min_poly(a, e, ech)[0])
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
    """Characteristic polynomial from min_poly's pass: m when deg m = n,
    else the product of the relative orders h_s.  Every seed was then spun,
    and in the Krylov basis a is block triangular with companion(h_s) on
    the diagonal."""
    if a.rows != a.cols:
        raise ShapeMismatch("characteristic polynomial of a non-square matrix")
    m, orders = _krylov_pass(a)
    return m if m.degree == a.rows else functools.reduce(operator.mul, orders)


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
    inside each eigenvalue; ones sit on the subdiagonal.  Each invariant
    factor d of frobenius_form, with generator v, gives one block per root
    lam of multiplicity e: w = (d / (X - lam)^e)(A) v has order (X - lam)^e,
    so w, (A - lam) w, ... is a Jordan chain.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("Jordan form of a non-square matrix")
    field, cf, pos, chains = a.field, frobenius_form(a), 0, []
    for d in cf.invariant_factors:
        v, pos = cf.transform.column(pos), pos + d.degree
        roots, rest = d._split_roots()
        if rest.degree > 0:
            raise DoesNotSplit(f"characteristic polynomial has a rootless factor {rest!r}")
        for lam, e in roots:
            cofactor, lin = d, Poly._raw(field, [field.neg(lam), 1])
            for _ in range(e):
                cofactor = cofactor // lin
            chain, shifted = [poly_apply(cofactor, a, v)], a.shift(lam)
            while len(chain) < e:
                chain.append(shifted.apply(chain[-1]))
            chains.append((lam, chain))
    chains.sort(key=lambda c: (c[0], -len(c[1])))
    J = direct_sum([jordan_block(field, lam, len(chain)) for lam, chain in chains])
    T = Matrix.from_columns(field, [u for _, chain in chains for u in chain])
    verify(_conjugates(T, [(a, J)]), "Jordan form verification failed")
    return J, T
