"""Submodule structure of matrix representations.

A subspace is a frozen snapshot of a matrices.Echelon: the unique reduced
echelon basis of row vectors, so subspace equality is tuple equality, and a
copy of the packed semi-echelon rows, which test membership.  Spinning
closes a vector under all generator images.  Irreducibility is decided by
the Holt-Rees test: for a random algebra element A and an irreducible
factor f of its minimal polynomial with nullity(f(A)) = deg f, one spin in
ker f(A) and one transposed spin in ker f(A)^T settle the question.  The
test is randomized but never guesses: it exhibits a submodule, proves
irreducibility, or raises after the sample budget.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple, Optional, Sequence

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
    WrongDimension,
    ZeroAlpha,
    verify,
)
from .fields import Field, FieldElem, GF, Poly, is_prime
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
        return all(self._ech.contains(g.apply(v))
                   for g in rep.gen_matrices() for v in self.vectors)

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
    before any sample; f need not divide, or be, A's minimal polynomial."""
    d = rep.dim
    if d == 0:
        raise ShapeMismatch("irreducibility needs dimension >= 1")
    field = rep.field
    rng = random.Random(seed)
    # A is a random combination of a growing pool of algebra elements.  Each
    # sample adds the previous A times a random combination, that product
    # times another one, and A itself, so the longest word in the pool grows
    # geometrically.  Sums of short words are thin: adding one product of two
    # pool members per sample, V over GF(2) at n = 5 needed 8 to 16 samples
    # before some factor had nullity deg f; this growth needs 3 or 4.
    pool = [m for m in rep.gen_matrices() if not m.is_zero()]

    def combination() -> Matrix:
        return _combination(field, d, d, pool,
                            [rng.randrange(field.order) for _ in pool])

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
        powers = [Matrix.identity(field, d), a]
        for f in factors:
            if f == m:
                # f(A) = 0: no powers of A needed
                theta = Matrix.zeros(field, d, d)
            else:
                while len(powers) <= f.degree:
                    powers.append(powers[-1] * a)
                theta = _combination(field, d, d, powers, f.coeffs)
            kernel = theta.kernel_basis()
            if not kernel:  # an inherited f(A) may be invertible
                continue
            head = f"{label}, deg f = {f.degree}, nullity {len(kernel)}"
            s = spin(rep, kernel[0])
            if s.dim < d:
                return IrreducibilityResult(
                    False, "norton",
                    f"{head}: a kernel vector generates a dim {s.dim} submodule",
                    s,
                ), a, f
            if len(kernel) != f.degree:
                continue
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
                    f"{head}: a transposed kernel vector exposes a dim "
                    f"{sub.dim} submodule",
                    sub,
                ), a, f
            return IrreducibilityResult(
                True, "norton",
                f"{head}: a kernel vector and a transposed kernel vector "
                "both spin to the full space",
                None,
            ), a, f
    raise UndecidedIrreducibility(
        f"no sample in {max_samples} had a factor f with nullity deg f"
    )


def _combination(field: Field, rows: int, cols: int, mats: Sequence[Matrix],
                 coeffs: Sequence[int]) -> Matrix:
    """sum c_i mats[i] as one matrix-vector product over the stacked mats."""
    if not mats:
        return Matrix.zeros(field, rows, cols)
    stacked = [x for entries in zip(*(m.data for m in mats)) for x in entries]
    return Matrix(field, rows, cols,
                  Matrix(field, rows * cols, len(mats), stacked).apply(coeffs))


# -- subquotients -----------------------------------------------------------------


def _subquotients(rep: Representation, basis: SubspaceBasis, extra: Sequence[Matrix] = ()
                  ) -> tuple[Matrix, Representation, Representation, list]:
    """(B, sub, quotient, blocks) for an invariant subspace W, by one
    conjugation; blocks has the two diagonal blocks of B^-1 m B per m in extra.

    B's columns are W's echelon rows in pivot order, then the unit vectors
    at W's non-pivot positions in ascending order (Holt, Eick, O'Brien,
    Handbook of Computational Group Theory, 7.5).  B^-1 rep B is block
    upper triangular: the top-left block is the action on W in its echelon
    basis, the bottom-right block the action on the quotient in the
    complement coordinates.  A nonzero lower-left block means W is not
    invariant.
    """
    d, k = rep.dim, basis.dim
    pivots = set(basis.pivots())
    units = [[int(i == f) for i in range(d)] for f in range(d) if f not in pivots]
    b = Matrix.from_columns(rep.field, [*basis.vectors, *units])
    bi = b.inv()
    moved = rep._map(lambda m: bi * m * b)
    if not all(_block_triangular(m, [0, k, d]) for m in moved.gen_matrices()):
        raise ShapeMismatch("subspace is not invariant")
    return (b, moved._map(lambda m: _block(m, 0, k)),
            moved._map(lambda m: _block(m, k, d)),
            [(_block(e, 0, k), _block(e, k, d)) for e in (bi * m * b for m in extra)])


def _block(m: Matrix, lo: int, hi: int) -> Matrix:
    """The diagonal block of rows and columns lo..hi-1."""
    c = m.cols
    return Matrix(m.field, hi - lo, hi - lo,
                  [x for r in range(lo, hi) for x in m.data[r * c + lo : r * c + hi]])


def _block_triangular(m: Matrix, dims: Sequence[int]) -> bool:
    """True when m is zero below its diagonal blocks dims[i]..dims[i+1]-1."""
    c = m.cols
    return not any(any(m.data[r * c : r * c + lo])
                   for lo, hi in zip(dims, dims[1:]) for r in range(lo, hi))


def sub_representation(
    rep: Representation, basis: SubspaceBasis
) -> Representation:
    """The action restricted to an invariant subspace, in its echelon basis."""
    return _subquotients(rep, basis)[1]


def quotient_representation(
    rep: Representation, basis: SubspaceBasis
) -> Representation:
    """The action on the quotient by an invariant subspace, in the
    coordinates at the subspace's non-pivot positions."""
    return _subquotients(rep, basis)[2]


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
        except (NotScalarCenter, WrongDimension, MinPolyShape):
            inv = None
    return CompositionFactor(rep.dim, faithful, inv, rep)


def composition_series(
    rep: Representation,
    max_samples: int = 64,
    seed: int = 0,
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
    verify(all(_block_triangular(m, dims) for m in moved.gen_matrices())
           and all(moved._map(lambda m: _block(m, lo, hi)) == f
                   for lo, hi, f in zip(dims, dims[1:], factors)),
           "composition series basis does not triangularize onto its factors")
    ech = Echelon(rep.field, rep.dim)
    chain = [SubspaceBasis._from_echelon(ech)]
    for j, col in enumerate(t.transpose().row_lists(), 1):
        ech.insert(col)
        if j in dims:
            chain.append(SubspaceBasis._from_echelon(ech))
    return CompositionSeries(chain, [_factor_info(f) for f in factors])


def _series_basis(rep: Representation, max_samples: int, seed: int,
                  first: Optional[tuple[Matrix, Poly]] = None
                  ) -> tuple[Matrix, list[int], list[Representation]]:
    """(T, dims, factors): T^-1 rep T is block upper triangular with the
    irreducible factors on its diagonal, block i spanning dims[i]..dims[i+1]-1.
    A proper submodule W splits rep by the adapted basis B, and the series
    of W and of rep/W join as T = B direct_sum([T_W, T_V/W]).  The Holt-Rees
    pair (A, f) that found W is tried first on W and rep/W as (block, f): the
    diagonal blocks of B^-1 A B are the same word in the generators' blocks,
    so they lie in the image algebras of W and rep/W (is_irreducible)."""
    res, a, f = _holt_rees(rep, max_samples, seed, first)
    if res.irreducible:
        return Matrix.identity(rep.field, rep.dim), [0, rep.dim], [rep]
    b, sub, quot, [(a_sub, a_quot)] = _subquotients(rep, res.submodule, [a])
    t_sub, dims_sub, lower = _series_basis(sub, max_samples, seed, (a_sub, f))
    t_quot, dims_quot, upper = _series_basis(quot, max_samples, seed, (a_quot, f))
    dims = dims_sub + [sub.dim + k for k in dims_quot[1:]]
    return b * direct_sum([t_sub, t_quot]), dims, lower + upper


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
    for _, g in rep.generators():
        if not commutator(central, g).is_zero():
            raise ShapeMismatch("splitting operator must be central")
    roots, rest = min_poly(central)._split_roots()
    if rest.degree > 0:
        raise DoesNotSplit(f"minimal polynomial factor {rest!r} has no roots")
    out = []
    total = 0
    for lam, _ in roots:
        shifted = central.shift(lam)
        basis = SubspaceBasis(field, d, (shifted**d).kernel_basis())
        total += basis.dim
        out.append(
            Summand(FieldElem(field, lam), basis, sub_representation(rep, basis))
        )
    verify(total == d, "generalized eigenspaces must fill the space")
    return out


# -- exhaustive search -------------------------------------------------------------


class SearchResult(NamedTuple):
    """pairs_tested counts the pairs (A, B) the search accounts for, and
    classes the similarity classes of A it settled."""

    found: bool
    rep: Optional[Representation]
    pairs_tested: int
    mode: str
    classes: int = 0


def _similarity_classes(field: Field, d: int) -> Iterator[list[Poly]]:
    """One chain of monic invariant factors f1 | f2 | ... | fk per
    similarity class of d x d matrices.

    The chains are those with degrees summing to d, q^2 + q of them at
    d = 2 and q^3 + q^2 + q at d = 3; the direct sum of the companions of a
    chain is the rational canonical form frobenius_form reports, and fk is
    its minimal polynomial.  The factors after f are the multiples f * g,
    g monic, taken by degree and then in coefficient-code order.
    """
    monics = [
        [Poly._raw(field, [*low, 1])
         for low in itertools.product(range(field.order), repeat=k)]
        for k in range(d + 1)
    ]

    def chains(prev: Poly, left: int) -> Iterator[list[Poly]]:
        if not left:
            yield []
            return
        for k in range(max(prev.degree, 1), left + 1):
            # the first factor (prev = 1) is any monic, already in code order
            factors = sorted(
                (prev * g for g in monics[k - prev.degree]),
                key=lambda f: f.coeffs) if prev.degree else monics[k]
            for f in factors:
                for rest in chains(f, left - k):
                    yield [f, *rest]

    yield from chains(monics[0][0], d)


def _squarefree(f: Poly) -> bool:
    """gcd(f, f') = 1: no irreducible factor of f repeats.  f' = 0, as for
    X^p - c, leaves gcd(f, f') = f."""
    mul, p = f.field.mul, f.field.p
    # f' term by term: the integer i acts as the prime-field code i % p
    df = [mul(i % p, c) for i, c in enumerate(f.coeffs)][1:]
    a, b = f, Poly._raw(f.field, df)
    while b.coeffs:
        a, b = b, a % b
    return not a.degree


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
    (B, Z) also (cB, cZ) is a witness.  The B with [A, B] = Z are B0 + C
    for one solution B0 and C in the centralizer ker ad_A, and [B0 + C, Z]
    = 0 is the linear system ad_Z(C) = [B0, Z] on the centralizer basis.
    """
    field, d = a.field, a.rows
    ad = _ad(a)
    # U = ad(ker ad^2): the images under ad that ad kills
    ker2 = (ad * ad).kernel_basis()
    images, pivots = Matrix(
        field, len(ker2), d * d, [x for v in ker2 for x in ad.apply(v)]
    ).rref()
    k = len(pivots)
    if not k:
        return None
    basis = Matrix(field, k, d * d, images.data[: k * d * d])
    centralizer = Matrix.from_columns(field, ad.kernel_basis())
    for lead in range(k):
        for tail in itertools.product(range(field.order), repeat=k - lead - 1):
            z = (Matrix(field, 1, k, [0] * lead + [1, *tail]) * basis).data
            b0 = ad.solve(z)
            verify(b0 is not None, "U must lie in the image of ad_A")
            zm, b0m = Matrix(field, d, d, z), Matrix(field, d, d, b0)
            t = (_ad(zm) * centralizer).solve(commutator(b0m, zm).data)
            if t is not None:
                return b0m + Matrix(field, d, d, centralizer.apply(t))
    return None


def search_min_faithful(n: int, p: int, d: int) -> SearchResult:
    """Look for a faithful h(n)-representation of dimension d over GF(p).

    d = n + 2 returns the strictly upper triangular witness directly.  Any
    other d runs an exhaustive search for rank 1 over all pairs (A, B) of
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
    ad_N: Humphreys, Introduction to Lie Algebras, 4.2.)  So only the
    classes whose fk repeats a factor reach _rank1_partner's few small
    linear systems: q of the q^2 + q classes at d = 2.

    The guard counts classes before any is enumerated: at most 2^12, which
    admits GF(61) at d = 2 (3,782 classes, about 0.1 s on a 2-vCPU Xeon);
    GF(67) and up at d = 2 raise TooLarge at once.  d >= 4 raises TooLarge
    as well, since the lines of im ad_A & ker ad_A cannot be bounded before
    enumerating them.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    field = GF(p)
    if d == n + 2:
        rep = build_standard(HeisenbergAlgebra(n, field))
        verify(validate_rep(rep).ok and rep.is_faithful(),
               "standard witness fails validation")
        return SearchResult(True, rep, 0, "witness")
    if n != 1:
        raise TooLarge("exhaustive search supports rank 1 only")
    if d >= 4:
        raise TooLarge(f"d = {d}: the lines of im ad_A & ker ad_A are unbounded")
    classes = sum(p**k for k in range(1, d + 1))
    if classes > _SEARCH_CLASS_LIMIT:
        raise TooLarge(
            f"{classes} similarity classes exceed the 2^12 search bound")
    witness = None
    # every class is settled, so the result accounts for all pairs even
    # when a witness turns up early
    for chain in _similarity_classes(field, d):
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
