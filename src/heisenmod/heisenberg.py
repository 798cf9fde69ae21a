"""The Heisenberg Lie algebra h(n) over a finite field and its modules.

h(n) has a symplectic basis x_1..x_n, y_1..y_n, z where the only nonzero
brackets are [x_i, y_i] = z.  A matrix representation stores one image per
basis element; the bracket relations and the behaviour of the central image
determine everything this module computes.

The central family of modules lives on truncated polynomials
F[X_1..X_n]/(X_1^p..X_n^p) with the monomial basis ordered by the mixed
radix index i_1 p^(n-1) + ... + i_n, so each of x_k, y_k, z is a Kronecker
product of n single-variable blocks:

  z    acts by  alpha
  x_k  acts by  beta_k + alpha * d/dX_k
  y_k  acts by  gamma_k + multiplication by X_k
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

from .errors import (
    DegreeMismatch,
    MinPolyShape,
    MixedFields,
    NonMonic,
    NotScalarCenter,
    RelationViolated,
    ShapeMismatch,
    VerificationFailed,
    WrongDeltaCount,
    WrongDimension,
    ZeroAlpha,
    verify,
)
from .fields import Field, FieldElem, GF, Poly, make_extension
from .matrices import (
    Matrix,
    _conjugates,
    assemble_grid,
    commutator,
    companion,
    direct_sum,
    jordan_block,
    kron,
)


class HeisenbergAlgebra:
    """h(n) over a fixed field; 2n+1 dimensional."""

    __slots__ = ("n", "field")

    def __init__(self, n: int, field: Field):
        if n < 1:
            raise ValueError("rank n must be >= 1")
        self.n = n
        self.field = field

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def basis_labels(self) -> list[str]:
        n = self.n
        return (
            [f"x{i + 1}" for i in range(n)]
            + [f"y{i + 1}" for i in range(n)]
            + ["z"]
        )

    def __eq__(self, other):
        return (
            isinstance(other, HeisenbergAlgebra)
            and self.n == other.n
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.n, self.field))

    def __repr__(self):
        return f"h({self.n}) over {self.field}"


class ModuleParams:
    """Parameters (alpha, beta_1..beta_n, gamma_1..gamma_n), alpha != 0."""

    __slots__ = ("alpha", "betas", "gammas")

    def __init__(
        self,
        alpha: FieldElem,
        betas: Sequence[FieldElem],
        gammas: Sequence[FieldElem],
    ):
        if alpha.code == 0:
            raise ZeroAlpha("alpha must be nonzero")
        betas = tuple(betas)
        gammas = tuple(gammas)
        if len(betas) != len(gammas) or not betas:
            raise ValueError("need equally many betas and gammas, at least one")
        field = alpha.field
        for e in betas + gammas:
            if e.field != field:
                raise MixedFields("parameters must share one field")
        self.alpha = alpha
        self.betas = betas
        self.gammas = gammas

    @property
    def n(self) -> int:
        return len(self.betas)

    @property
    def field(self) -> Field:
        return self.alpha.field

    def invariants(self) -> "InvariantTuple":
        """The isomorphism invariants: alpha and all p-th powers."""
        p = self.field.p
        return InvariantTuple(
            self.alpha,
            tuple(b**p for b in self.betas),
            tuple(g**p for g in self.gammas),
        )

    def __eq__(self, other):
        return (
            isinstance(other, ModuleParams)
            and self.alpha == other.alpha
            and self.betas == other.betas
            and self.gammas == other.gammas
        )

    def __hash__(self):
        return hash((self.alpha, self.betas, self.gammas))

    def __repr__(self):
        return (
            f"ModuleParams(alpha={self.alpha!r}, betas={list(self.betas)!r}, "
            f"gammas={list(self.gammas)!r})"
        )


class InvariantTuple(NamedTuple):
    """(alpha, delta_1..delta_n, epsilon_1..epsilon_n): the full invariant
    of a faithful irreducible module of dimension p^n."""

    alpha: FieldElem
    deltas: tuple[FieldElem, ...]
    epsilons: tuple[FieldElem, ...]

    def __repr__(self):
        return (
            f"InvariantTuple(alpha={self.alpha!r}, "
            f"deltas={list(self.deltas)!r}, epsilons={list(self.epsilons)!r})"
        )


class Representation:
    """Matrix images of the basis of h(n), acting on column vectors."""

    __slots__ = ("algebra", "x", "y", "z")

    def __init__(
        self,
        algebra: HeisenbergAlgebra,
        x: Sequence[Matrix],
        y: Sequence[Matrix],
        z: Matrix,
    ):
        n = algebra.n
        if len(x) != n or len(y) != n:
            raise ShapeMismatch(f"need {n} images for the x and y parts")
        d = z.rows
        for m in list(x) + list(y) + [z]:
            if m.rows != m.cols:
                raise ShapeMismatch("images must be square")
            if m.rows != d:
                raise ShapeMismatch("images must share one size")
            if m.field != algebra.field:
                raise MixedFields("images must live over the algebra's field")
        self.algebra = algebra
        self.x = tuple(x)
        self.y = tuple(y)
        self.z = z

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.z.rows

    @property
    def n(self) -> int:
        return self.algebra.n

    def gen_matrices(self) -> list[Matrix]:
        return list(self.x) + list(self.y) + [self.z]

    def _map(self, f, algebra: Optional[HeisenbergAlgebra] = None
             ) -> "Representation":
        """f of every image, over this algebra or the one given."""
        return Representation(algebra or self.algebra, [f(m) for m in self.x],
                              [f(m) for m in self.y], f(self.z))

    def is_faithful(self) -> bool:
        """Nonzero central image; equivalent to faithfulness once the
        bracket relations hold, since every nonzero ideal contains z."""
        return not self.z.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.algebra == other.algebra
            and self.x == other.x
            and self.y == other.y
            and self.z == other.z
        )

    def __repr__(self):
        return f"Representation({self.algebra!r}, dim={self.dim})"


class ValidationReport(NamedTuple):
    violations: list[str]
    faithful: bool
    z_scalar: Optional[FieldElem]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_rep(rep: Representation) -> ValidationReport:
    """Check every defining bracket relation and report violations."""
    n = rep.n
    zero = Matrix.zeros(rep.field, rep.dim, rep.dim)
    found = []
    for i in range(n):
        for j in range(n):
            c = commutator(rep.x[i], rep.y[j])
            want = rep.z if i == j else zero
            if c != want:
                rhs = "z" if i == j else "0"
                found.append(f"[x{i + 1}, y{j + 1}] != {rhs}")
    for i in range(n):
        for j in range(i + 1, n):
            if commutator(rep.x[i], rep.x[j]) != zero:
                found.append(f"[x{i + 1}, x{j + 1}] != 0")
            if commutator(rep.y[i], rep.y[j]) != zero:
                found.append(f"[y{i + 1}, y{j + 1}] != 0")
    for i in range(n):
        if commutator(rep.x[i], rep.z) != zero:
            found.append(f"[x{i + 1}, z] != 0")
        if commutator(rep.y[i], rep.z) != zero:
            found.append(f"[y{i + 1}, z] != 0")
    return ValidationReport(found, not rep.z.is_zero(), rep.z.is_scalar())


# -- constructors -------------------------------------------------------------


def build_M(p: int, alpha: FieldElem, beta: FieldElem) -> Matrix:
    """The p x p block: beta on the diagonal, i*alpha at (i, i+1), 1-indexed.

    This is beta + alpha * d/dX acting on F[X]/(X^p) in the monomial basis.
    """
    field = alpha.field
    if beta.field != field:
        raise MixedFields("alpha and beta must share one field")
    if p != field.p:
        raise ValueError(f"block size {p} must equal the characteristic {field.p}")
    data = [0] * (p * p)
    mul = field.mul
    for i in range(p):
        data[i * p + i] = beta.code
        if i + 1 < p:
            data[i * p + (i + 1)] = mul((i + 1) % p, alpha.code)
    return Matrix(field, p, p, data)


def build_V(algebra: HeisenbergAlgebra, params: ModuleParams) -> Representation:
    """The p^n dimensional module on truncated polynomials."""
    field = algebra.field
    if params.field != field:
        raise MixedFields("parameters must live over the algebra's field")
    n = algebra.n
    if params.n != n:
        raise ShapeMismatch(f"parameters have rank {params.n}, algebra rank {n}")
    p = field.p
    eye = Matrix.identity(field, p)

    def fold(k: int, block: Matrix) -> Matrix:
        factors = [block if j == k else eye for j in range(n)]
        out = factors[0]
        for f in factors[1:]:
            out = kron(out, f)
        return out

    xs = [fold(k, build_M(p, params.alpha, params.betas[k])) for k in range(n)]
    # gamma + multiplication by X on F[X]/(X^p): gamma diagonal, subdiagonal 1
    ys = [fold(k, jordan_block(field, params.gammas[k], p)) for k in range(n)]
    z = Matrix.scalar(field, p**n, params.alpha)
    return Representation(algebra, xs, ys, z)


def build_standard(algebra: HeisenbergAlgebra) -> Representation:
    """The faithful (n+2)-dimensional module on strictly upper triangular
    matrices: x_i -> e(1, i+1), y_i -> e(i+1, n+2), z -> e(1, n+2)."""
    n = algebra.n
    field = algebra.field
    d = n + 2

    def e(i: int, j: int) -> Matrix:
        data = [0] * (d * d)
        data[(i - 1) * d + (j - 1)] = 1
        return Matrix(field, d, d, data)

    xs = [e(1, i + 2) for i in range(n)]
    ys = [e(i + 2, d) for i in range(n)]
    return Representation(algebra, xs, ys, e(1, d))


def build_D(p: int, alpha: FieldElem, deltas: Sequence[FieldElem]) -> Matrix:
    """The p x p matrix with i*alpha at (i, i+1) and delta_k on the k-th
    lower diagonal; zero main diagonal."""
    field = alpha.field
    if p != field.p:
        raise ValueError(f"block size {p} must equal the characteristic {field.p}")
    deltas = tuple(deltas)
    if len(deltas) != p - 1:
        raise WrongDeltaCount(f"need {p - 1} deltas for characteristic {p}")
    for dlt in deltas:
        if dlt.field != field:
            raise MixedFields("deltas must share alpha's field")
    if alpha.code == 0:
        raise ZeroAlpha("alpha must be nonzero")
    data = [0] * (p * p)
    mul = field.mul
    for i in range(p):
        if i + 1 < p:
            data[i * p + (i + 1)] = mul((i + 1) % p, alpha.code)
        for j in range(i):
            data[i * p + j] = deltas[i - j - 1].code
    return Matrix(field, p, p, data)


def build_companion_rep(
    alpha: FieldElem, beta: FieldElem, f: Poly
) -> Representation:
    """x_1 -> m copies of the basic block, y_1 -> companion of f(X^p),
    z -> alpha; a faithful h(1)-module of dimension p*deg(f)."""
    field = alpha.field
    if beta.field != field or f.field != field:
        raise MixedFields("alpha, beta and f must share one field")
    if alpha.code == 0:
        raise ZeroAlpha("alpha must be nonzero")
    if not f.is_monic() or f.degree < 1:
        raise NonMonic("f must be monic of degree >= 1")
    p = field.p
    m = f.degree
    M = build_M(p, alpha, beta)
    x = direct_sum([M] * m)
    y = companion(f.inflate(p))
    z = Matrix.scalar(field, p * m, alpha)
    rep = Representation(HeisenbergAlgebra(1, field), [x], [y], z)
    verify(validate_rep(rep).ok, "companion construction broke the relations")
    return rep


def regular_matrix(K: Field, elem: FieldElem, basis_cols: "Matrix") -> Matrix:
    """Multiplication by elem on K, as a matrix over the prime field in the
    basis whose prime-field coordinates are the columns of basis_cols."""
    if elem.field != K:
        raise MixedFields("element must belong to the extension")
    F = GF(K.p)
    m = K.degree
    cols = []
    for j in range(m):
        bj = K.code_from_coeffs(basis_cols.column(j))
        img = K.coeffs_of(K.mul(elem.code, bj))
        cols.append(list(img))
    std = Matrix.from_columns(F, cols)
    return basis_cols.inv() * std


def build_restriction_rep(
    p: int,
    q: Poly,
    f_list: Sequence[Poly],
    g_list: Sequence[Poly],
    alpha: Optional[FieldElem] = None,
) -> Representation:
    """Restrict V over K = GF(p)[X]/(q) to the prime field.

    Parameters over K are f_i(alpha) and g_i(alpha) with alpha the class of
    X by default.  Every K-entry becomes the m x m matrix of multiplication
    by it in the basis 1, alpha, ..., alpha^(m-1); the result is a faithful
    irreducible module of dimension p^n * m over GF(p).
    """
    F = GF(p)
    if q.field != F:
        raise MixedFields("q must be a polynomial over GF(p)")
    if len(f_list) != len(g_list) or not f_list:
        raise ValueError("need equally many f and g polynomials, at least one")
    for h in list(f_list) + list(g_list):
        if h.field != F:
            raise MixedFields("f and g must be polynomials over GF(p)")
    K = make_extension(p, q)
    m = K.degree
    if alpha is None:
        alpha = K.generator()
    elif alpha.field != K:
        raise MixedFields("alpha must belong to the extension")
    # basis 1, alpha, ..., alpha^(m-1) must span K over GF(p)
    basis_cols = Matrix.from_columns(F, [(alpha**i).coeffs for i in range(m)])
    if basis_cols.rank() != m:
        raise DegreeMismatch("alpha does not have degree m over GF(p)")

    n = len(f_list)
    params = ModuleParams(
        alpha, [h(alpha) for h in f_list], [h(alpha) for h in g_list]
    )
    over_K = build_V(HeisenbergAlgebra(n, K), params)
    reg = functools.cache(
        lambda code: regular_matrix(K, FieldElem(K, code), basis_cols))

    def blow_up(mat: Matrix) -> Matrix:
        return assemble_grid([list(map(reg, row)) for row in mat.row_lists()])

    rep = over_K._map(blow_up, HeisenbergAlgebra(n, F))
    verify(validate_rep(rep).ok, "restriction broke the relations")
    return rep


def conjugate_rep(rep: Representation, t: Matrix) -> Representation:
    """The equivalent representation g -> t^-1 rep(g) t."""
    ti = t.inv()
    return rep._map(lambda m: ti * m * t)


def direct_sum_reps(reps: Sequence[Representation]) -> Representation:
    first = reps[0]
    for r in reps[1:]:
        if r.algebra != first.algebra:
            raise MixedFields("summands must share the algebra")
    n = first.n
    return Representation(
        first.algebra,
        [direct_sum([r.x[k] for r in reps]) for k in range(n)],
        [direct_sum([r.y[k] for r in reps]) for k in range(n)],
        direct_sum([r.z for r in reps]),
    )


# -- classification ------------------------------------------------------------


def _nilpotent_part(m: Matrix) -> tuple[FieldElem, Matrix]:
    """(c, m - c), c the p-th root of entry 0 of m^p e_0 (column 0 of m,
    then p - 1 applications).  In characteristic p, (m - c)^p = m^p - c^p:
    m^p is a scalar exactly when m - c is nilpotent, and that scalar is c^p."""
    v = m.column(0)
    for _ in range(m.field.p - 1):
        v = m.apply(v)
    c = FieldElem(m.field, v[0]).pth_root()
    return c, m.shift(c)


def _parts(rep: Representation) -> tuple[ModuleParams, tuple[Matrix, ...]]:
    """alpha and the c of x_1..x_n, y_1..y_n as parameters, and the
    nilpotent parts g - c (_nilpotent_part), for z = alpha != 0 in
    dimension p^n."""
    alpha = rep.z.is_scalar()
    if alpha is None or alpha.code == 0:
        raise NotScalarCenter("z must act as a nonzero scalar")
    p = rep.field.p
    if rep.dim != p**rep.n:
        raise WrongDimension(f"dimension {rep.dim} is not p^n = {p**rep.n}")
    cs, nils = zip(*map(_nilpotent_part, rep.x + rep.y))
    return ModuleParams(alpha, cs[: rep.n], cs[rep.n :]), nils


def _check_shapes(nils: Sequence[Matrix]) -> None:
    """MinPolyShape unless each g of x_1..x_n, y_1..y_n has minimal
    polynomial X^p - c^p = (X - c)^p: nil^p = 0 and nil^(p-1) != 0."""
    n, p = len(nils) // 2, nils[0].field.p
    for k, nil in enumerate(nils):
        what = f"x{k + 1}" if k < n else f"y{k - n + 1}"
        top = nil ** (p - 1)
        if not (top * nil).is_zero():
            raise MinPolyShape(f"minimal polynomial of {what} is not X^{p} - c")
        if top.is_zero():
            raise MinPolyShape(f"minimal polynomial of {what} divides X^{p} - c properly")


def invariants(rep: Representation) -> InvariantTuple:
    """(alpha, deltas, epsilons) for a relation-checked module of dimension
    p^n with scalar central action: each x_k and y_k is c + nil, and
    delta_k or epsilon_k is c^p once nil^p = 0 != nil^(p-1) (_check_shapes)."""
    params, nils = _parts(rep)
    _check_shapes(nils)
    return params.invariants()


def _common_eigenvector(nils: Sequence[Matrix]) -> list[int]:
    """The product of the N_k^(p-1), N_k = x_k - beta_k, applied to the
    basis vectors, the last first, until one gives v != 0; v scaled so that
    its last nonzero coordinate is 1.  On V in its model basis only the last
    basis vector gives v != 0."""
    field, d = nils[0].field, nils[0].rows
    for j in reversed(range(d)):
        v = [0] * d
        v[j] = 1
        for nil in nils:
            for _ in range(field.p - 1):
                v = nil.apply(v)
        if any(v):
            break
    verify(any(v), "the nilpotent parts of the x images have product 0, not rank 1")
    scale, mul = field.inv(next(x for x in reversed(v) if x)), field.mul
    return [mul(x, scale) for x in v]


def classify(rep: Representation) -> tuple[ModuleParams, Matrix]:
    """Parameters and an exact equivalence onto the truncated polynomial
    module: the returned t satisfies t^-1 rep(g) t = build_V(params)(g).

    beta_k and gamma_k are the c of x_k and y_k = c + nil (_nilpotent_part),
    the p-th roots of entry 0 of x_k^p e_0 and y_k^p e_0; no matrix power
    is formed.  The basis behind t is the common eigenvector v of all x
    images followed by its shifts under the y images, in mixed radix order;
    on V the product of the N_k^(p-1), N_k = x_k - beta_k, has rank 1, and
    v spans its image (_common_eigenvector).

    The final check alone is the proof that rep is V(params): z = alpha
    (_parts), v != 0 (_common_eigenvector), and (g - c) t is t's
    own columns moved and scaled for every x_k and y_k (_checked_transform).
    The x relations with alpha != 0 and v != 0 already make t invertible,
    so no determinant is computed.  Then x_k^p = beta_k^p is a scalar, so
    the parameters are the ones invariants reads off.  On any other input
    the check fails; the shape test of invariants on the nilpotent parts
    already in hand then raises MinPolyShape where a minimal polynomial has
    the wrong shape, and otherwise the VerificationFailed propagates.
    """
    params, nils = _parts(rep)
    try:
        t = _checked_transform(rep, params, nils)
    except VerificationFailed:
        _check_shapes(nils)  # the min-poly shape error, where it applies
        raise
    return params, t


def _checked_transform(rep: Representation, params: ModuleParams,
                       parts: Sequence[Matrix]) -> Matrix:
    """t from the common eigenvector and its y shifts, checked to intertwine
    rep with build_V(params) without building it; parts are the x_k - beta_k
    and y_k - gamma_k.  With c_i column i of t, step = p^(n-1-k) and dig
    digit k of i, column i of t (model(y_k) - gamma_k) is c_(i+step) (0 at
    dig = p - 1) and that of t (model(x_k) - beta_k) is dig*alpha c_(i-step)
    (0 at dig = 0).  z t == t alpha holds by _parts.

    The x relations prove t invertible, given alpha != 0 and c_0 = v != 0.
    Take sum a_i c_i = 0 and i* with a_(i*) != 0 of largest digit sum, and
    apply prod_k (x_k - beta_k)^(i*_k): c_j goes to a multiple of
    c_(j-i*) when j >= i* digitwise and to 0 otherwise, every other such j
    has a larger digit sum, so a_(i*) prod_k i*_k! alpha^(i*_k) v = 0 with
    each i*_k < p, and a_(i*) = 0.  t.det() runs only when a relation
    fails, to name the failure: a singular t always fails one."""
    field, p, n, d = rep.field, rep.field.p, rep.n, rep.dim
    nils, shifts = parts[:n], parts[n:]
    # column idx is prod_k shifts[k]^digit_k v (y_1 the most significant digit):
    # shifts[k] times column idx - p^(n-1-k), k the lowest nonzero digit of idx
    cols = [_common_eigenvector(nils)]
    for idx in range(1, d):
        k, step = n - 1, 1
        while idx // step % p == 0:
            k, step = k - 1, step * p
        cols.append(shifts[k].apply(cols[idx - step]))
    t = Matrix.from_columns(field, cols)
    # t times dig*alpha, one packed product per digit; entry i of t.data lies
    # in a column with digit k equal to i // step % p
    scaled = [None] + [(t * (params.alpha * dig)).data for dig in range(1, p)]
    for k in range(n):
        step, block, size = p ** (n - 1 - k), p ** (n - k), d * d
        raised, lowered = t.data[step:] + [0] * step, [0] * size
        for lo in range(step):
            raised[block - step + lo :: block] = [0] * (size // block)
            for at in range(step + lo, block, step):
                lowered[at::block] = scaled[at // step][at - step :: block]
        # (g - c) t == t (model(g) - c) is conjugacy: once every x relation
        # holds, t is invertible by the lemma above
        if (shifts[k] * t).data != raised or (nils[k] * t).data != lowered:
            verify(not t.det().is_zero(), "classification basis must be invertible")
            raise VerificationFailed("classification transform failed to verify")
    return t


# -- matrix triples ---------------------------------------------------------------


def _check_triple(a: Matrix, b: Matrix, c: Matrix) -> FieldElem:
    field = a.field
    if b.field != field or c.field != field:
        raise MixedFields("triple must share one field")
    p = field.p
    for m in (a, b, c):
        if m.rows != m.cols or m.rows != p:
            raise WrongDimension(f"triple must consist of {p} x {p} matrices")
    if commutator(a, b) != c:
        raise RelationViolated("[A, B] != C")
    alpha = c.is_scalar()
    if alpha is None or alpha.code == 0:
        # the relations force this; reject inputs that fail it
        if c.is_zero():
            raise RelationViolated("C must be nonzero")
        if commutator(a, c).is_zero() and commutator(b, c).is_zero():
            raise NotScalarCenter("C commutes with A and B but is not scalar")
        raise RelationViolated("[A, C] != 0 or [B, C] != 0")
    return alpha


def canonical_pair(a: Matrix, b: Matrix, c: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Normal forms (A', B') and a transform X for a triple with [A,B] = C,
    C a nonzero scalar: A' has beta on the diagonal and i*alpha above it,
    B' has gamma on the diagonal and ones below it.

    The triple is the h(1)-module x -> A, y -> B, z -> C (Cor 2.5 is the
    n = 1 case of the classification): (A', B') are the images of its
    V(alpha, beta, gamma) and X is classify's checked transform, so
    X^-1 A X = A' and X^-1 B X = B'.
    """
    _check_triple(a, b, c)
    rep = Representation(HeisenbergAlgebra(1, a.field), [a], [b], c)
    params, x = classify(rep)
    model = build_V(rep.algebra, params)
    return model.x[0], model.y[0], x


def triple_similarity(
    t1: tuple[Matrix, Matrix, Matrix], t2: tuple[Matrix, Matrix, Matrix]
) -> Optional[Matrix]:
    """A simultaneous similarity X (X^-1 A1 X = A2 and so on), or None.

    Triples are similar exactly when the three determinants agree.
    """
    a1, b1, c1 = t1
    a2, b2, c2 = t2
    _check_triple(a1, b1, c1)
    _check_triple(a2, b2, c2)
    if a1.field != a2.field:
        raise MixedFields("triples must share one field")
    if (a1.det(), b1.det(), c1.det()) != (a2.det(), b2.det(), c2.det()):
        return None
    h1 = HeisenbergAlgebra(1, a1.field)
    x1, x2 = (classify(Representation(h1, [a], [b], c))[1] for a, b, c in (t1, t2))
    x = x1 * x2.inv()
    verify(_conjugates(x, [(a1, a2), (b1, b2), (c1, c2)]),
           "simultaneous similarity failed to verify")
    return x
