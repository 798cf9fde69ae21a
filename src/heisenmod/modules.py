"""Submodule structure of matrix representations.

A subspace is a frozen snapshot of a matrices.Echelon: the unique reduced
echelon basis of row vectors, so subspace equality is tuple equality, and a
copy of the packed semi-echelon rows, which test membership.  Spinning
closes a vector under all generator images.  Irreducibility is decided by
the Holt-Rees test: for a random algebra element A and an irreducible
factor f of its minimal polynomial with nullity(f(A)) = deg f, one spin in
ker f(A) and one transposed spin in ker f(A)^T settle the question.  The
test is randomized but never guesses: it exhibits a submodule, proves
irreducibility, or raises after the sample budget.  A composition series
node of dimension p on which z is a nonzero scalar bracket [x_k, y_k] is
simple by a trace argument; any other node first tries its parent's pair,
on every line of ker f(A) if need be.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DoesNotSplit,
    MinPolyShape,
    MixedFields,
    NotExtension,
    NotScalarCenter,
    ShapeMismatch,
    Singular,
    TooLarge,
    UndecidedIrreducibility,
    VerificationFailed,
    ZeroAlpha,
    verify,
)
from .fields import Field, FieldElem, GF, Poly, _lazy_randrange, is_prime
from .heisenberg import (
    HeisenbergAlgebra,
    InvariantTuple,
    Representation,
    build_standard,
    commutator,
    conjugate_rep,
    invariants,
    validate_rep,
)
from .matrices import (
    Echelon,
    Matrix,
    _standard_basis,
    companion,
    direct_sum,
    kron,
    min_poly,
    poly_at,
)

# similarity classes of A the minimum-dimension search may examine
_SEARCH_CLASS_LIMIT = 1 << 12


class SubspaceBasis:
    """A subspace of F^d: its reduced echelon rows and a frozen Echelon."""

    __slots__ = ("field", "ambient", "vectors", "_ech")

    def __init__(self, field: Field, ambient: int, vectors: Sequence[Sequence[int]]):
        self._ech = Echelon(field, ambient)
        for v in vectors:
            self._ech.insert(v)
        self.field, self.ambient = field, ambient
        self.vectors = tuple(map(tuple, self._ech.sorted_rows()))

    @classmethod
    def _from_echelon(cls, ech: Echelon) -> "SubspaceBasis":
        """A snapshot that later inserts into ech leave unchanged."""
        s = object.__new__(cls)
        s.field, s.ambient, s._ech = ech.field, ech.width, ech.copy()
        s.vectors = tuple(map(tuple, ech.sorted_rows()))
        return s

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def pivots(self) -> list[int]:
        return sorted(self._ech.pivots)

    def contains(self, v: Sequence[int]) -> bool:
        return self._ech.contains(v)

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        if other.field != self.field:
            raise MixedFields(f"{other.field} vs {self.field}")
        if other.ambient != self.ambient:
            raise ShapeMismatch(f"subspace of F^{other.ambient} in F^{self.ambient}")
        return all(map(self._ech.contains, other.vectors))

    def is_invariant(self, rep: Representation) -> bool:
        if rep.field != self.field:
            raise MixedFields(f"{rep.field} vs {self.field}")
        return all(self._ech.contains(g.apply(v)) for g in rep.gen_matrices()
                   if g.is_scalar() is None for v in self.vectors)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.vectors))

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim} of {self.ambient} over {self.field})"


def spin(rep: Representation, v: Sequence[int]) -> SubspaceBasis:
    """The smallest invariant subspace containing v."""
    d = rep.dim
    if len(v) != d:
        raise ShapeMismatch("seed length differs from the dimension")
    return SubspaceBasis._from_echelon(_standard_basis(rep.gen_matrices(), [v])[0])


class IrreducibilityResult(NamedTuple):
    irreducible: bool
    method: str
    detail: str
    submodule: Optional[SubspaceBasis]

    def __bool__(self):
        return self.irreducible


def is_irreducible(
    rep: Representation,
    max_samples: int = 64,
    seed: int = 0,
) -> IrreducibilityResult:
    """Decide irreducibility with a certificate, never by guessing.

    The Holt-Rees test (Holt & Rees, J. Austral. Math. Soc. A 57, 1994).
    For a random element A of the image algebra and each irreducible factor
    f of its minimal polynomial, N = ker f(A) is A-invariant.  A vector of N
    whose spin is proper exhibits a submodule.  When dim N = deg f, N is a
    simple F[A]-module, so every submodule U either contains N or meets it
    in 0.  In the second case f(A) is injective on U, so f divides the
    characteristic polynomial of A on V/U, and the simple F[A^T]-module
    ker f(A)^T (also of dimension deg f) lies in the annihilator of U.  So
    if one vector of N spins to V and one vector of ker f(A)^T spins to the
    whole dual under the transposed generators, V is irreducible; a proper
    transposed spin has a proper annihilator, which is a submodule.  When
    no factor of A has dim N = deg f, the next sample is drawn, and
    UndecidedIrreducibility is raised after max_samples.  The proof needs
    only A in the image algebra, f irreducible and f(A) singular.
    """
    return _holt_rees(rep, max_samples, seed)[0]


def _holt_rees(rep: Representation, max_samples: int, seed: int,
               first: Optional[tuple[Matrix, Poly]] = None
               ) -> tuple[IrreducibilityResult, Matrix, Poly]:
    """(verdict, A, f) of is_irreducible, A and f the pair that settled it.
    first = (A, f), A in the image algebra and f irreducible, is tried
    before any sample; f need not divide, or be, A's minimal polynomial.
    When first has nullity k > deg f and N = ker f(A) has at most d lines,
    (q^k - 1)/(q - 1) <= d, a vector on each line of N is spun: a proper
    spin is a submodule.  If all spin to V, no proper submodule U meets N,
    so f(A) is bijective on U and ker f(A)^T lies in U's annihilator: the
    transposed spin decides as when k = deg f.  Samples never do this."""
    d = rep.dim
    if d == 0:
        raise ShapeMismatch("irreducibility needs dimension >= 1")
    field = rep.field
    draw = _lazy_randrange(seed)
    # A is a random combination of a growing pool of algebra elements.  Each
    # sample adds the previous A times a random combination, that product
    # times another one, and A itself, so the longest word in the pool grows
    # geometrically.  Sums of short words are thin: adding one product of two
    # pool members per sample, V over GF(2) at n = 5 needed 8 to 16 samples
    # before some factor had nullity deg f; this growth needs 3 or 4.
    pool = [m for m in rep.gen_matrices() if not m.is_zero()]

    def combination() -> Matrix:
        return _combination(field, d, d, pool, [draw(field.order) for _ in pool])

    def elements() -> Iterator[tuple[str, Matrix, Optional[Poly], list[Poly]]]:
        """(label, A, min_poly(A) or None, factors to try), first included."""
        if first is not None:
            yield "inherited element", first[0], None, [first[1]]
        a = None
        for sample in range(1, max_samples + 1):
            if pool:
                word = combination() if a is None else a
                for _ in range(2):
                    word = word * combination()
                    pool.append(word)
            a = combination()
            pool.append(a)
            m = min_poly(a)
            yield f"sample {sample}", a, m, m.irreducible_factors()

    transposed = None
    for label, a, m, factors in elements():
        for f in factors:
            theta = Matrix.zeros(field, d, d) if f == m else poly_at(f, a)
            kernel = theta.kernel_basis()
            if not kernel:  # an inherited f(A) may be invertible
                continue
            k, q = len(kernel), field.order
            head, lines = f"{label}, deg f = {f.degree}, nullity {k}", (q**k - 1) // (q - 1)
            by_lines = m is None and k > f.degree and lines <= d
            for i, v in enumerate(_line_vectors(field, kernel) if by_lines else kernel[:1]):
                s = spin(rep, v)
                if s.dim < d:
                    what = f"kernel line {i + 1} of {lines}" if i else "a kernel vector"
                    return IrreducibilityResult(
                        False, "norton",
                        f"{head}: {what} generates a dim {s.dim} submodule",
                        s,
                    ), a, f
            if k != f.degree and not by_lines:
                continue
            spun = f"every one of the {lines} kernel lines" if by_lines else "a kernel vector"
            if transposed is None:
                transposed = rep._map(Matrix.transpose)
            s = spin(transposed, theta.transpose().kernel_basis()[0])
            if s.dim < d:
                # the annihilator of a proper transposed submodule is invariant
                ann = Matrix(field, s.dim, d, [x for r in s.vectors for x in r])
                sub = SubspaceBasis(field, d, ann.kernel_basis())
                verify(0 < sub.dim < d and sub.is_invariant(rep),
                       "annihilator of a transposed submodule is not a submodule")
                return IrreducibilityResult(
                    False, "norton",
                    f"{head}: {spun + ' spins to the full space; ' if by_lines else ''}"
                    f"a transposed kernel vector exposes a dim {sub.dim} submodule",
                    sub,
                ), a, f
            return IrreducibilityResult(
                True, "norton",
                f"{head}: {spun} and a transposed kernel vector "
                f"{'spin' if by_lines else 'both spin'} to the full space",
                None,
            ), a, f
    raise UndecidedIrreducibility(
        f"no sample in {max_samples} had a factor f with nullity deg f"
    )


def _line_vectors(field: Field, kernel: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """One vector on each line of span(kernel), kernel[0] first: the
    combinations whose first nonzero coefficient is 1, each one packed sum
    of the rows, packed once."""
    codec = field.row_codec[len(kernel)]
    rows, elem = list(map(codec.pack, kernel)), codec.elem
    for lead, top in enumerate(rows):
        tail = rows[lead + 1 :]
        for rest in itertools.product(range(field.order), repeat=len(tail)):
            total = top + sum(elem[c] * row for c, row in zip(rest, tail) if c)
            yield codec.unpack(total, len(kernel[0]))


def _combination(field: Field, rows: int, cols: int, mats: Sequence[Matrix],
                 coeffs: Sequence[int]) -> Matrix:
    """sum c_i mats[i] as one packed sum of whole entry lists, zero c_i
    skipped, unpacked once."""
    codec = field.row_codec[len(mats)]
    elem, pack = codec.elem, codec.pack
    total = sum(elem[c] * pack(m.data) for m, c in zip(mats, coeffs, strict=True) if c)
    return Matrix(field, rows, cols, codec.unpack(total, rows * cols))


# -- subquotients -----------------------------------------------------------------


def _subquotients(rep: Representation, basis: SubspaceBasis
                  ) -> tuple[Callable, Callable, Callable]:
    """(sub, quotient, lift) for an invariant subspace W: the two block maps
    of one matrix m that keeps W (the caller proves that), and lift(t_w,
    t_q) = B direct_sum([t_w, t_q]) for the adapted basis B = [W^T | e_F].

    B is never formed.  Its blocks are read off W's reduced echelon rows,
    with pivots P in row order and free positions F ascending (Holt, Eick,
    O'Brien, Handbook of Computational Group Theory, 7.5).  As W^T[P, :] =
    I, B gives v the coordinates v[P], then v[F] - W^T[F, :] v[P], so
    B^-1 m B has the sub block S = m[P, :] W^T, the quotient block Q =
    m[F, F] - W^T[F, :] m[P, F], and a lower-left block that is zero
    exactly when m keeps W.  lift's first dim W columns are W^T t_w, and
    the others hold t_q's rows at F.  Both blocks of c*I are c*I.
    """
    d, pivots = rep.dim, basis.pivots()
    free = sorted(set(range(d)).difference(pivots))
    wt = Matrix(rep.field, d, basis.dim, [x for row in zip(*basis.vectors) for x in row])
    w_free = _block(wt, free, range(basis.dim))

    def quotient(m: Matrix) -> Matrix:
        if (c := m.is_scalar()) is not None:
            return Matrix.scalar(rep.field, len(free), c)
        return _block(m, free, free) - w_free * _block(m, pivots, free)

    def sub(m: Matrix) -> Matrix:
        if (c := m.is_scalar()) is not None:
            return Matrix.scalar(rep.field, basis.dim, c)
        return _block(m, pivots, range(d)) * wt

    def lift(t_w: Matrix, t_q: Matrix) -> Matrix:
        right, zero = dict(zip(free, t_q.row_lists())), [0] * len(free)
        rows = enumerate((wt * t_w).row_lists())
        return Matrix(rep.field, d, d, [x for i, l in rows for x in l + right.get(i, zero)])

    return sub, quotient, lift


def _block(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    """The submatrix m[rows, cols], cols ascending, a row at a time."""
    c, k, out, lo = m.cols, len(cols), [], cols[0] if cols else 0
    pick = (operator.itemgetter(*cols) if k > 1 and cols[-1] - lo >= k
            else lambda row: row[lo : lo + k])
    for r in rows:
        out += pick(m.data[r * c : (r + 1) * c])
    return Matrix(m.field, len(rows), k, out)


def sub_representation(rep: Representation, basis: SubspaceBasis) -> Representation:
    """The action restricted to an invariant subspace, in its echelon basis."""
    if not basis.is_invariant(rep):
        raise ShapeMismatch("subspace is not invariant")
    return rep._map(_subquotients(rep, basis)[0])


def quotient_representation(rep: Representation, basis: SubspaceBasis) -> Representation:
    """The action on the quotient by an invariant subspace, in the
    coordinates at the subspace's non-pivot positions."""
    if not basis.is_invariant(rep):
        raise ShapeMismatch("subspace is not invariant")
    return rep._map(_subquotients(rep, basis)[1])


class CompositionFactor(NamedTuple):
    dim: int
    faithful: bool
    invariants: Optional[InvariantTuple]
    rep: Representation


class CompositionSeries(NamedTuple):
    chain: list[SubspaceBasis]
    factors: list[CompositionFactor]

    @property
    def chain_dims(self) -> list[int]:
        return [s.dim for s in self.chain]


def _factor_info(rep: Representation) -> CompositionFactor:
    faithful = rep.is_faithful()
    inv = None
    if faithful and rep.dim == rep.field.p**rep.n:
        try:
            inv = invariants(rep)
        except (NotScalarCenter, MinPolyShape):
            inv = None
    return CompositionFactor(rep.dim, faithful, inv, rep)


def composition_series(rep: Representation, max_samples: int = 64, seed: int = 0
                       ) -> CompositionSeries:
    """A full chain of invariant subspaces with irreducible quotients.

    One basis T carries the whole series: the chain terms are the spans of
    T's leading columns.  It is certified once: T is invertible and
    T^-1 rep T is zero below its diagonal blocks, which are the factors.
    """
    t, dims, factors = _series_basis(rep, max_samples, seed)
    verify(dims[0] == 0 and dims[-1] == rep.dim and len(dims) == len(factors) + 1
           and all(a < b for a, b in zip(dims, dims[1:])),
           "composition series is not a strictly rising chain")
    try:
        moved = conjugate_rep(rep, t)
    except Singular:
        raise VerificationFailed("composition series basis is singular") from None
    spans = [range(lo, hi) for lo, hi in zip(dims, dims[1:])]
    verify(all(_block(m, range(span.stop, rep.dim), span).is_zero()
               for m in moved.gen_matrices() for span in spans)
           and all(moved._map(lambda m: _block(m, span, span)) == f
                   for span, f in zip(spans, factors)),
           "composition series basis does not triangularize onto its factors")
    ech = Echelon(rep.field, rep.dim)
    chain = [SubspaceBasis._from_echelon(ech)]
    for j, col in enumerate(t.transpose().row_lists(), 1):
        ech.insert(col)
        if j in dims:
            chain.append(SubspaceBasis._from_echelon(ech))
    return CompositionSeries(chain, [_factor_info(f) for f in factors])


def _series_basis(rep: Representation, max_samples: int, seed: int,
                  first: Optional[Callable[[], tuple[Matrix, Poly]]] = None
                  ) -> tuple[Matrix, list[int], list[Representation]]:
    """(T, dims, factors): T^-1 rep T is block upper triangular with the
    irreducible factors on its diagonal, block i spanning dims[i]..dims[i+1]-1.
    A proper submodule W splits rep by the adapted basis B, and the series
    of W and of rep/W join as T = B direct_sum([T_W, T_V/W]), which
    _subquotients' lift assembles without B.  The Holt-Rees pair (A, f)
    that found W is tried first on W and rep/W as (block, f): the diagonal
    blocks of B^-1 A B are the same word in the generators' blocks, so they
    lie in the image algebras of W and rep/W (is_irreducible).  The child
    gets a callable that forms its block only when it runs Holt-Rees.  A
    block with nullity > deg f spins the lines of its kernel (_holt_rees)
    first.
    A node of dimension p with z = alpha != 0 and [x_k, y_k] = z for some k
    is a leaf without Holt-Rees: a submodule W has alpha dim W = tr z|W =
    tr [x_k|W, y_k|W] = 0, so p divides dim W, which is 0 or p."""
    alpha = rep.z.is_scalar() if rep.dim == rep.field.p else None
    if (alpha is not None and alpha.code != 0
            and any(commutator(x, y) == rep.z for x, y in zip(rep.x, rep.y))):
        return Matrix.identity(rep.field, rep.dim), [0, rep.dim], [rep]
    res, a, f = _holt_rees(rep, max_samples, seed, first and first())
    if res.irreducible:
        return Matrix.identity(rep.field, rep.dim), [0, rep.dim], [rep]
    sub_of, quot_of, lift = _subquotients(rep, res.submodule)
    sub, quot = rep._map(sub_of), rep._map(quot_of)
    t_sub, dims_sub, lower = _series_basis(sub, max_samples, seed, lambda: (sub_of(a), f))
    t_quot, dims_quot, upper = _series_basis(quot, max_samples, seed, lambda: (quot_of(a), f))
    dims = dims_sub + [sub.dim + k for k in dims_quot[1:]]
    return lift(t_sub, t_quot), dims, lower + upper


def is_uniserial(rep: Representation) -> bool:
    """True when the invariant subspaces form a chain.

    V is uniserial exactly when soc(V) is simple and V/soc(V) is uniserial:
    every nonzero submodule then contains the socle.  soc(V) holds dim
    Hom(T, V) / dim End(T) copies of each simple T, and every simple
    submodule is isomorphic to a composition factor, so the socle is simple
    exactly when a single factor T has dim Hom(T, V) = dim End(T); the
    image of a nonzero homomorphism T -> V is then the socle.
    """
    if rep.dim == 0:
        return True
    simples: list[tuple[Representation, int]] = []
    for factor in composition_series(rep).factors:
        if not any(hom_space(t, factor.rep) for t, _ in simples):
            simples.append((factor.rep, len(hom_space(factor.rep, factor.rep))))
    while rep.dim:
        homs = [(h, e) for t, e in simples if (h := hom_space(t, rep))]
        if len(homs) != 1 or len(homs[0][0]) != homs[0][1]:
            return False
        socle = homs[0][0][0].transpose().row_lists()
        rep = quotient_representation(rep, SubspaceBasis(rep.field, rep.dim, socle))
    return True


# -- homomorphisms and the image algebra ---------------------------------------


def hom_space(r1: Representation, r2: Representation) -> list[Matrix]:
    """Basis of the intertwiners t with t r1(g) = r2(g) t.

    Spinning r1 from standard basis vectors gives a basis b_1..b_d1 in which
    each b is a seed or g b' for a generator g and an earlier b' (Holt,
    Eick, O'Brien, Handbook of Computational Group Theory, ch. 7).  A
    homomorphism phi is fixed by the images u of the k seeds: phi(g b') =
    r2(g) phi(b') makes each phi(b) = N_b u linear in u.  Every other
    product g b = sum c_i b_i is a relation, sum c_i N_i u = r2(g) N_b u,
    so the system has k d2 unknowns; a cyclic r1 (every irreducible one)
    has k = 1.
    """
    if r1.field != r2.field:
        raise MixedFields("modules must share one field")
    if r1.algebra != r2.algebra:
        raise ShapeMismatch("modules must belong to one algebra")
    field = r1.field
    d1, d2 = r1.dim, r2.dim
    g1s, g2s = r1.gen_matrices(), r2.gen_matrices()
    _, basis, words = _standard_basis(g1s, Matrix.identity(field, d1).row_lists())
    width = words.count(None) * d2
    if not width:
        return []
    # N_b as a d2 x width matrix: its seed's identity block, or r2(g) N_b'
    images: list[Matrix] = []
    for b, word in enumerate(words):
        if word is None:
            s = words[:b].count(None)
            images.append(Matrix(field, d2, width, [
                int(c == s * d2 + i) for i in range(d2) for c in range(width)]))
        else:
            images.append(g2s[word[0]] * images[word[1]])
    bm = Matrix.from_columns(field, basis)
    bm_inv = bm.inv()
    defining = set(words)
    # the relations are solved one at a time: now[b] = N_b S, where the free
    # columns of S span the seed images that satisfy every relation so far
    free, now = width, images
    for j, (g1, g2) in enumerate(zip(g1s, g2s)):
        if (c := g1.is_scalar()) is not None and c == g2.is_scalar():
            continue  # every t has t (c I) = (c I) t
        coords = (bm_inv * g1 * bm).transpose()  # row b: g1 b in the basis
        for b in range(d1):
            if (j, b) in defining:
                continue
            lhs = _combination(field, d2, free, now, coords.row(b))
            kernel = (lhs - g2 * now[b]).kernel_basis()
            if not kernel:
                return []
            if len(kernel) < free:
                step = Matrix.from_columns(field, kernel)
                free, now = len(kernel), [n * step for n in now]
    out = []
    for t in range(free):
        hom = Matrix.from_columns(field, [n.column(t) for n in now]) * bm_inv
        verify(all(hom * g1 == g2 * hom for g1, g2 in zip(g1s, g2s)),
               "spun homomorphism does not intertwine")
        out.append(hom)
    return out


class EnvelopingAlgebra:
    """The unital matrix algebra generated by the images, as a subspace of
    d x d matrices closed under left multiplication by the generators."""

    __slots__ = ("field", "size", "basis", "_ech")

    def __init__(self, rep: Representation):
        field, d = rep.field, rep.dim
        self.field, self.size = field, d
        # kron(g, I) is left multiplication by g on row-major d^2 vectors
        eye = Matrix.identity(field, d)
        self._ech, basis, _ = _standard_basis(
            [kron(g, eye) for g in rep.gen_matrices()], [eye.data])
        self.basis = [Matrix(field, d, d, m) for m in basis]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: Matrix) -> bool:
        if (m.rows, m.cols) != (self.size, self.size) or m.field != self.field:
            return False
        return self._ech.contains(m.data)


# -- change of scalars ------------------------------------------------------------


def field_embedding(F: Field, K: Field):
    """A ring embedding F -> K as a code map, or NotExtension."""
    if F.p != K.p:
        raise NotExtension(f"{K} does not contain {F}: different characteristic")
    if F.modulus is None or F == K:
        return lambda c: c
    # image of the generator: a root of F's modulus inside K
    prime = GF(F.p)
    mod = Poly(prime, F.modulus)
    root = next((r for r in K.elements() if not mod(r)), None)
    if root is None:
        raise NotExtension(f"{K} contains no root of the modulus of {F}")
    return lambda code: Poly(prime, F.coeffs_of(code))(root).code


def extend_scalars(rep: Representation, K: Field) -> Representation:
    """The same matrices read over the larger field K."""
    embed = field_embedding(rep.field, K)
    return rep._map(lambda m: Matrix(K, m.rows, m.cols, [embed(c) for c in m.data]),
                    HeisenbergAlgebra(rep.n, K))


class Summand(NamedTuple):
    eigenvalue: FieldElem
    basis: SubspaceBasis
    rep: Representation


def split_by_central(
    rep: Representation, central: Optional[Matrix] = None
) -> list[Summand]:
    """Decompose along the generalized eigenspaces of a central operator.

    The default operator is the p-th power of the first y image, which
    commutes with every generator.  Raises DoesNotSplit when its minimal
    polynomial has a rootless factor over the coefficient field.
    """
    field = rep.field
    d = rep.dim
    if central is None:
        central = rep.y[0] ** field.p
    for g in rep.gen_matrices():
        if not commutator(central, g).is_zero():
            raise ShapeMismatch("splitting operator must be central")
    roots, rest = min_poly(central)._split_roots()
    if rest.degree > 0:
        raise DoesNotSplit(f"minimal polynomial factor {rest!r} has no roots")
    out = []
    total = 0
    for lam, e in roots:
        # ker (C - lam)^e is the generalized eigenspace: e is lam's min-poly multiplicity
        shifted = central.shift(lam)
        basis = SubspaceBasis(field, d, (shifted**e).kernel_basis())
        total += basis.dim
        out.append(
            Summand(FieldElem(field, lam), basis, sub_representation(rep, basis))
        )
    verify(total == d, "generalized eigenspaces must fill the space")
    return out


# -- exhaustive search -------------------------------------------------------------


class SearchResult(NamedTuple):
    """pairs_tested counts the pairs (A, B) the search accounts for, and
    classes the similarity classes of A it settled, each either directly
    or through its trace-zero translate A - cI."""

    found: bool
    rep: Optional[Representation]
    pairs_tested: int
    mode: str
    classes: int = 0


def _similarity_classes(field: Field, d: int, trace_zero: bool = False
                        ) -> Iterator[list[Poly]]:
    """One chain of monic invariant factors f1 | f2 | ... | fk per
    similarity class of d x d matrices, or with trace_zero only the chains
    of the classes of trace zero.

    The chains are those with degrees summing to d, q^2 + q of them at
    d = 2 and q^3 + q^2 + q at d = 3; the direct sum of the companions of a
    chain is the rational canonical form frobenius_form reports, and fk is
    its minimal polynomial.  The factors after f are the multiples f * g,
    g monic, taken by degree and then in coefficient-code order.  Traces add
    in the field, and a last factor of the wrong trace is never formed.
    """
    add, neg = field.add, field.neg
    second = lambda f: f.coeffs[-2] if f.degree > 0 else 0
    monics = [
        [Poly._raw(field, [*low, 1])
         for low in itertools.product(range(field.order), repeat=k)]
        for k in range(d + 1)
    ]

    def chains(prev: Poly, left: int, total: int) -> Iterator[list[Poly]]:
        if not left:
            yield []
            return
        for k in range(max(prev.degree, 1), left + 1):
            cofactors = monics[k - prev.degree]
            if trace_zero and k == left:  # the last factor cancels the total
                want = neg(add(total, second(prev)))
                cofactors = [g for g in cofactors if second(g) == want]
            # the first factor (prev = 1) is any monic, already in code order
            factors = sorted(
                (prev * g for g in cofactors),
                key=lambda f: f.coeffs) if prev.degree else cofactors
            for f in factors:
                for rest in chains(f, left - k, add(total, second(f))):
                    yield [f, *rest]

    yield from chains(monics[0][0], d, 0)


def _squarefree(f: Poly) -> bool:
    """gcd(f, f') = 1: no irreducible factor of f repeats.  f' = 0, as for
    X^p - c, leaves gcd(f, f') = f."""
    mul, p = f.field.mul, f.field.p
    # f' term by term: the integer i acts as the prime-field code i % p
    df = [mul(i % p, c) for i, c in enumerate(f.coeffs)][1:]
    return not f.gcd(Poly._raw(f.field, df)).degree


def _ad(a: Matrix) -> Matrix:
    """ad_A(X) = AX - XA as a d^2 x d^2 matrix on row-major vectors of X:
    row (i, j) holds A[i][k] at column (k, j) and -A[l][j] at (i, l)."""
    field, d = a.field, a.rows
    sub, cols, at = field.sub, d * d, a.data
    out = [0] * (cols * cols)
    for i in range(d):
        for j in range(d):
            base = (i * d + j) * cols
            out[base + j : base + cols : d] = at[i * d : i * d + d]
            for l in range(d):
                c = base + i * d + l
                out[c] = sub(out[c], at[l * d + j])
    return Matrix(field, cols, cols, out)


def _rank1_partner(a: Matrix) -> Optional[Matrix]:
    """A matrix B with Z = [A, B] nonzero and commuting with A and B, or
    None if there is none.

    Z ranges over U = im ad_A & ker ad_A, one Z per line of U, since with
    (B, Z) also (cB, cZ) is a witness.  U = ad(ker ad^2): in the reduced
    rows (ad^2 e_i | ad e_i | e_i), those of zero first block span the
    (0 | ad c | c) with c in ker ad^2, so the rows pivoted in the middle
    block are U's echelon basis, each beside a preimage.  [A, B] = Z and
    [Z, B] = 0 are then one stacked system.
    """
    field, d = a.field, a.rows
    n, ad = d * d, _ad(a)
    reduced, pivots = Matrix(field, 3 * n, n, (ad * ad).data + ad.data
                             + Matrix.identity(field, n).data).transpose().rref()
    u = [row[n:] for row, c in zip(reduced.row_lists(), pivots) if n <= c < 2 * n]
    for v in _line_vectors(field, u):
        z, b0 = v[:n], v[n:]
        verify(ad.apply(b0) == z, "U must lie in the image of ad_A")
        # [ad_A ; ad_Z] B = [Z ; 0]
        b = Matrix(field, 2 * n, n, ad.data + _ad(Matrix(field, d, d, z)).data
                   ).solve(z + [0] * n)
        if b is not None:
            return Matrix(field, d, d, b)
    return None


def search_min_faithful(n: int, p: int, d: int) -> SearchResult:
    """Look for a faithful h(n)-representation of dimension d over GF(p).

    d = n + 2 returns the strictly upper triangular witness directly, and
    d > n + 2 the same witness padded with a zero block.  Any smaller d
    runs an exhaustive search for rank 1 over all pairs (A, B) of
    d x d matrices.  A pair with C = [A, B] nonzero and commuting with A
    and B is a witness, and so is (T^-1 A T, T^-1 B T) for every invertible
    T.  So A ranges over one rational canonical form per similarity class:
    every pair is accounted for (pairs_tested is p^(2 d^2)) and classes
    counts the classes settled, p at d = 1 and p^2 + p at d = 2.

    A witness needs Z = [A, B] in U = im ad_A & ker ad_A, and U = 0 when
    the minimal polynomial fk of A is squarefree, that is when A is
    semisimple.  In any characteristic such an A is diagonal over the
    algebraic closure, with entries a_i, so ad_A is diagonal in the basis
    e_i e_j^T with eigenvalues a_i - a_j; each eigenvector lies in ker ad_A
    or in im ad_A, so by rank-nullity im ad_A & ker ad_A = 0.  (The
    converse holds too, by the Jordan-Chevalley decomposition ad_A = ad_S +
    ad_N: Humphreys, Introduction to Lie Algebras, 4.2.)

    Adding a scalar changes no bracket: ad_(A - cI) = ad_A, so A and A - cI
    have the same U, and (A, B) is a witness exactly when (A - cI, B) is.
    As tr(A - cI) = tr(A) - dc, when p does not divide d the one trace-zero
    translate is c = tr(A) / d, and each class is settled through it: only
    the chains of trace zero are enumerated.
    When p divides d every translate keeps the trace of A, so every class
    is examined.  Of the classes examined, only those whose fk repeats a
    factor reach _rank1_partner, one elimination and a solve per line of
    U: at d = 2 the one class X^2 for odd q, and X^2 and (X + 1)^2 for
    q = 2.

    The guard counts classes before any is enumerated: at most 2^12, which
    admits GF(61) at d = 2 (3,782 classes, about 6 ms on a 2-vCPU Xeon);
    GF(67) and up at d = 2 raise TooLarge at once.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    field = GF(p)
    if d >= n + 2:
        rep = build_standard(HeisenbergAlgebra(n, field))
        if d > n + 2:
            zero = Matrix.zeros(field, d - n - 2, d - n - 2)
            rep = rep._map(lambda m: direct_sum([m, zero]))
        verify(validate_rep(rep).ok and rep.is_faithful(),
               "standard witness fails validation")
        return SearchResult(True, rep, 0, "witness")
    if n != 1:
        raise TooLarge("exhaustive search supports rank 1 only")
    classes = sum(p**k for k in range(1, d + 1))
    if classes > _SEARCH_CLASS_LIMIT:
        raise TooLarge(
            f"{classes} similarity classes exceed the 2^12 search bound")
    witness = None
    # every class is settled, so the result accounts for all pairs even
    # when a witness turns up early
    translate = d % p != 0
    # a class of nonzero trace is settled through its trace-zero translate
    for chain in _similarity_classes(field, d, translate):
        if _squarefree(chain[-1]):
            continue  # semisimple: U = 0, no partner
        a = direct_sum([companion(f) for f in chain])
        b = _rank1_partner(a)
        if witness is None and b is not None:
            witness = Representation(
                HeisenbergAlgebra(1, field), [a], [b], commutator(a, b)
            )
            verify(validate_rep(witness).ok and witness.is_faithful(),
                   "search witness fails validation")
    return SearchResult(
        witness is not None, witness, p ** (2 * d * d), "exhaustive", classes
    )
