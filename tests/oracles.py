"""Brute-force reference implementations used to cross-check fast routines.

Everything here trades speed for obviousness: exhaustive enumeration and
textbook expansions only, no shared machinery with the library code under
test beyond basic field arithmetic.
"""

import functools
import itertools

from heisenmod import (
    GF,
    FieldElem,
    HeisenbergAlgebra,
    InvariantTuple,
    Matrix,
    MinPolyShape,
    ModuleParams,
    NotScalarCenter,
    Poly,
    Representation,
    SubspaceBasis,
    WrongDimension,
    build_V,
    companion,
    direct_sum,
)
from heisenmod.errors import ShapeMismatch, verify
from heisenmod.heisenberg import _common_eigenvector


def trial_division_irreducible(f: Poly) -> bool:
    """Irreducibility by testing every monic divisor of degree <= deg/2."""
    if f.degree < 1:
        return False
    field = f.field
    for degree in range(1, f.degree // 2 + 1):
        for low in itertools.product(range(field.order), repeat=degree):
            g = Poly(field, list(low) + [1])
            if not (f % g).coeffs:
                return False
    return True


def oracle_poly_mul(a: Poly, b: Poly) -> Poly:
    """Product by the schoolbook loop over the field's add and mul."""
    assert a.field == b.field
    add, mul = a.field.add, a.field.mul
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = add(out[i + j], mul(x, y))
    return Poly(a.field, out)


def oracle_poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division, one field operation per coefficient product."""
    assert a.field == b.field and b.coeffs
    field = a.field
    sub, mul = field.sub, field.mul
    ilc = field.inv(b.coeffs[-1])
    n = len(b.coeffs) - 1
    rem = list(a.coeffs)
    quo = [0] * max(len(rem) - n, 0)
    for k in range(len(rem) - n - 1, -1, -1):
        q = quo[k] = mul(rem[k + n], ilc)
        for i, c in enumerate(b.coeffs):
            rem[k + i] = sub(rem[k + i], mul(q, c))
    return Poly(field, quo), Poly(field, rem[:n])


def oracle_poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's loop over oracle_poly_divmod; gcd(0, 0) = 0."""
    while b.coeffs:
        a, b = b, oracle_poly_divmod(a, b)[1]
    if not a.coeffs:
        return a
    ilc = a.field.inv(a.coeffs[-1])
    return Poly(a.field, [a.field.mul(c, ilc) for c in a.coeffs])


def brute_pth_root(e: FieldElem) -> FieldElem:
    """The unique b with b^p = e, found by scanning the whole field."""
    p = e.field.p
    for code in range(e.field.order):
        b = FieldElem(e.field, code)
        if b**p == e:
            return b
    raise AssertionError("p-th power map must be onto")


def oracle_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Product by the schoolbook loop over the field's add and mul."""
    assert a.field == b.field and a.cols == b.rows
    n, m, k = a.rows, a.cols, b.cols
    add, mul = a.field.add, a.field.mul
    A, B = a.data, b.data
    out = [0] * (n * k)
    for i in range(n):
        arow = A[i * m : (i + 1) * m]
        orow = i * k
        for t, x in enumerate(arow):
            if x:
                brow = B[t * k : (t + 1) * k]
                for j in range(k):
                    y = brow[j]
                    if y:
                        out[orow + j] = add(out[orow + j], mul(x, y))
    return Matrix(a.field, n, k, out)


def oracle_apply(a: Matrix, v) -> list[int]:
    """Matrix times column vector by the same loop."""
    assert len(v) == a.cols
    add, mul = a.field.add, a.field.mul
    out = [0] * a.rows
    for i in range(a.rows):
        acc = 0
        for j, x in enumerate(v):
            y = a.data[i * a.cols + j]
            if x and y:
                acc = add(acc, mul(y, x))
        out[i] = acc
    return out


def oracle_kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product entry by entry: out[r][c] = a[r // br][c // bc] *
    b[r % br][c % bc], one field.mul per entry."""
    assert a.field == b.field
    mul = a.field.mul
    br, bc = b.rows, b.cols
    rows, cols = a.rows * br, a.cols * bc
    out = [0] * (rows * cols)
    for r in range(rows):
        for c in range(cols):
            out[r * cols + c] = mul(
                a.data[(r // br) * a.cols + c // bc], b.data[(r % br) * bc + c % bc]
            )
    return Matrix(a.field, rows, cols, out)


def oracle_ext_mul(field, a: int, b: int) -> int:
    """a * b in GF(p^m) as polynomials over GF(p) modulo the modulus,
    without the extension field's own multiplication."""
    prime = GF(field.p)
    pa = Poly(prime, field.coeffs_of(a))
    pb = Poly(prime, field.coeffs_of(b))
    rem = (pa * pb) % Poly(prime, field.modulus)
    return field.code_from_coeffs(list(rem.coeffs))


def oracle_restriction(alpha: FieldElem, mat: Matrix) -> Matrix:
    """mat over K = GF(p^m) read over GF(p): entry e becomes the m x m block
    whose column j holds the coordinates of e * alpha^j in the basis 1,
    alpha, ..., alpha^(m-1), found by trying every vector of GF(p)^m."""
    K, p, m = alpha.field, alpha.field.p, alpha.field.degree
    powers = [1]
    for _ in range(m - 1):
        powers.append(K.mul(powers[-1], alpha.code))
    coords = {}
    for c in itertools.product(range(p), repeat=m):
        value = 0
        for digit, power in zip(c, powers):
            value = K.add(value, K.mul(digit, power))
        coords[value] = c
    assert len(coords) == K.order  # the powers form a basis
    width = mat.cols * m
    out = [0] * (mat.rows * m * width)
    for i in range(mat.rows):
        for j in range(mat.cols):
            for col, power in enumerate(powers):
                image = coords[K.mul(mat.code_at(i, j), power)]
                for row in range(m):
                    out[(i * m + row) * width + j * m + col] = image[row]
    return Matrix(GF(p), mat.rows * m, width, out)


def oracle_combination(field, rows: int, cols: int, mats, coeffs) -> Matrix:
    """sum c_i mats[i], entry by entry over the field's add and mul."""
    add, mul = field.add, field.mul
    out = [0] * (rows * cols)
    for m, c in zip(mats, coeffs):
        out = [add(x, mul(c, y)) for x, y in zip(out, m.data)]
    return Matrix(field, rows, cols, out)


def oracle_rref(field, rows, cols: int):
    """Reduced row echelon form by the textbook loop over the field's sub,
    mul and inv, one entry at a time: (rows, pivot columns)."""
    sub, mul, inv = field.sub, field.mul, field.inv
    M = [list(row) for row in rows]
    nrows = len(M)
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, nrows):
            if M[i][c]:
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        piv = M[r][c]
        if piv != 1:
            ip = inv(piv)
            M[r] = [mul(ip, x) for x in M[r]]
        Mr = M[r]
        for i in range(nrows):
            if i != r and M[i][c]:
                factor = M[i][c]
                Mi = M[i]
                for k in range(cols):
                    if Mr[k]:
                        Mi[k] = sub(Mi[k], mul(factor, Mr[k]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M, tuple(pivots)


class oracle_echelon:
    """Growing fully reduced echelon basis by the per-entry loop over the
    field's sub, mul and inv: every row is normalized and kept reduced
    against each later one, so a membership test is a plain reduction."""

    def __init__(self, field, width: int):
        self.field, self.width = field, width
        self.vectors: list[list[int]] = []
        self.pivots: list[int] = []

    def reduce(self, v) -> list[int]:
        sub, mul = self.field.sub, self.field.mul
        w = list(v)
        for row, p in zip(self.vectors, self.pivots):
            c = w[p]
            if c:
                for k in range(self.width):
                    if row[k]:
                        w[k] = sub(w[k], mul(c, row[k]))
        return w

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def insert(self, v):
        """Add v to the span; returns its pivot, or None if dependent."""
        w = self.reduce(v)
        piv = next((k for k, x in enumerate(w) if x), None)
        if piv is None:
            return None
        sub, mul = self.field.sub, self.field.mul
        ipv = self.field.inv(w[piv])
        w = [mul(ipv, x) for x in w]
        for row in self.vectors:
            c = row[piv]
            if c:
                for k in range(self.width):
                    if w[k]:
                        row[k] = sub(row[k], mul(c, w[k]))
        self.vectors.append(w)
        self.pivots.append(piv)
        return piv

    def sorted_rows(self) -> list[list[int]]:
        order = sorted(range(len(self.vectors)), key=self.pivots.__getitem__)
        return [list(self.vectors[i]) for i in order]


def oracle_closure(field, ops, vectors, width: int) -> list[list[int]]:
    """Reduced echelon rows of the smallest subspace that contains the
    vectors and is mapped into itself by every op: apply each op to every
    row and re-reduce until the dimension stops growing."""
    rows, pivots = oracle_rref(field, vectors, width)
    rows = rows[: len(pivots)]
    while True:
        images = [oracle_apply(g, v) for g in ops for v in rows]
        grown, pivots = oracle_rref(field, rows + images, width)
        if len(pivots) == len(rows):
            return rows
        rows = grown[: len(pivots)]


def brute_det(a: Matrix) -> FieldElem:
    """Determinant by permutation expansion."""
    field = a.field
    n = a.rows
    total = field.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = field.one() if sign > 0 else -field.one()
        for i in range(n):
            term = term * a.at(i, perm[i])
        total = total + term
    return total


def brute_char_poly(a: Matrix) -> Poly:
    """det(X*I - A) by permutation expansion over polynomials."""
    field = a.field
    n = a.rows
    x = Poly.x(field)
    grid = [
        [
            (x if i == j else Poly(field)) - Poly(field, [a.at(i, j)])
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = Poly(field)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly(field, [1])
        for i in range(n):
            term = term * grid[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def brute_min_poly(a: Matrix) -> Poly:
    """Least-degree monic annihilator, from the first linear dependency
    among the flattened powers I, A, A^2, ..."""
    field = a.field
    powers = [Matrix.identity(field, a.rows)]
    while True:
        stacked = Matrix.from_columns(field, [m.data for m in powers])
        kernel = stacked.kernel_basis()
        if kernel:
            coeffs = kernel[0]
            lead = FieldElem(field, coeffs[-1])
            assert not lead.is_zero(), "shorter dependency missed"
            inv = lead.field.inv(lead.code)
            return Poly(field, [field.mul(c, inv) for c in coeffs])
        powers.append(powers[-1] * a)


def oracle_jordan_blocks(a: Matrix) -> list[tuple[int, int]]:
    """The Jordan blocks (eigenvalue code, size) of a with eigenvalues in
    its field, by ascending eigenvalue and decreasing size, read off the
    ranks r_k of (A - lam)^k: r_(k-1) - r_k blocks of lam have size >= k.
    Powers by the schoolbook product, ranks by the textbook rref."""
    field, n = a.field, a.rows
    blocks = []
    for lam in range(field.order):
        shifted = Matrix(field, n, n, [field.sub(x, lam) if i % (n + 1) == 0 else x
                                       for i, x in enumerate(a.data)])
        power, ranks = Matrix.identity(field, n), [n]
        while len(ranks) < 2 or ranks[-1] != ranks[-2]:
            power = oracle_matmul(power, shifted)
            ranks.append(len(oracle_rref(field, power.row_lists(), n)[1]))
        at_least = [r - s for r, s in zip(ranks, ranks[1:])]
        for k in range(len(at_least) - 1, 0, -1):
            blocks += [(lam, k)] * (at_least[k - 1] - at_least[k])
    return blocks


@functools.lru_cache(maxsize=None)
def all_subspaces(field, dim: int) -> tuple[SubspaceBasis, ...]:
    """Every subspace of field^dim, as canonical SubspaceBasis values, built
    once per (field, dim).

    Each subspace has exactly one reduced echelon basis: for a set of pivot
    columns, row i has 1 at its pivot, 0 before it and at the other pivots,
    and any value in its remaining slots.  Enumerating every pivot set with
    every filling lists each subspace once (374 for GF(2)^5, 2825 for
    GF(2)^6); the library's canonical form must return the rows unchanged.
    """
    out = []
    for k in range(dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free = [
                (i, j)
                for i, p in enumerate(pivots)
                for j in range(p + 1, dim)
                if j not in pivots
            ]
            for values in itertools.product(range(field.order), repeat=len(free)):
                rows = [[int(j == p) for j in range(dim)] for p in pivots]
                for (i, j), c in zip(free, values):
                    rows[i][j] = c
                s = SubspaceBasis(field, dim, rows)
                verify(s.vectors == tuple(map(tuple, rows)), "rref is canonical")
                out.append(s)
    return tuple(sorted(out, key=lambda s: (s.dim, s.vectors)))


def invariant_subspaces(rep) -> list[SubspaceBasis]:
    """All invariant subspaces, by filtering the full subspace list."""
    spaces = all_subspaces(rep.field, rep.dim)
    mats = rep.gen_matrices()
    out = []
    for s in spaces:
        if all(
            s.contains(g.apply(list(v))) for v in s.vectors for g in mats
        ):
            out.append(s)
    return out


def oracle_sub_quotient(rep, basis):
    """(sub, quotient) of rep on a subspace W, one column at a time.

    Sub coordinates of g w are read at W's pivots and checked by rebuilding
    g w from them; a failed rebuild means W is not invariant (ShapeMismatch).
    Quotient coordinates of g e_f, f a non-pivot position, are the last
    coordinates of the solution of [W rows, unit vectors at the non-pivot
    positions | g e_f], read off the reduced echelon form, by oracle_rref,
    of that basis beside all the g e_f at once.
    """
    field, d = rep.field, rep.dim
    rows = [list(v) for v in basis.vectors]
    pivots = basis.pivots()
    units = [[int(i == f) for i in range(d)] for f in range(d) if f not in pivots]
    k = len(rows)
    span = Matrix(field, d, k, [w[i] for i in range(d) for w in rows])

    def square(cols):
        n = len(cols)
        return Matrix(field, n, n, [c[i] for i in range(n) for c in cols])

    def sub_cols(g):
        cols = []
        for w in rows:
            img = oracle_apply(g, w)
            coords = [img[p] for p in pivots]
            if oracle_apply(span, coords) != img:
                raise ShapeMismatch("subspace is not invariant")
            cols.append(coords)
        return square(cols)

    def quotient_cols(g):
        images = [oracle_apply(g, u) for u in units]
        aug = [[c[i] for c in rows + units + images] for i in range(d)]
        solved, found = oracle_rref(field, aug, 2 * d - k)
        assert found == tuple(range(d)), "the adapted basis must be invertible"
        return square([[solved[i][d + j] for i in range(k, d)] for j in range(d - k)])

    def restrict(act):
        return Representation(rep.algebra, [act(m) for m in rep.x],
                              [act(m) for m in rep.y], act(rep.z))

    return restrict(sub_cols), restrict(quotient_cols)


def oracle_irreducible(rep) -> bool:
    return all(
        s.dim in (0, rep.dim) for s in invariant_subspaces(rep)
    )


def oracle_composition_length(rep) -> int:
    """The length of a maximal chain of invariant subspaces: the longest
    path from 0 to the whole space through all of them ordered by strict
    inclusion (by Jordan-Hoelder every maximal chain has this length)."""
    spaces = invariant_subspaces(rep)  # by dimension: 0 first, the whole space last
    longest = {}
    for s in spaces:
        longest[s] = max((n + 1 for t, n in longest.items()
                          if t.dim < s.dim and s.contains_subspace(t)), default=0)
    return longest[spaces[-1]]


def oracle_uniserial(rep) -> bool:
    spaces = sorted(invariant_subspaces(rep), key=lambda s: s.dim)
    for a, b in zip(spaces, spaces[1:]):
        if not b.contains_subspace(a):
            return False
    return True


def oracle_hom_dim(r1, r2) -> int:
    """Dimension of the space of intertwiners, by enumerating all matrices."""
    field = r1.field
    d1, d2 = r1.dim, r2.dim
    pairs = list(zip(r1.gen_matrices(), r2.gen_matrices()))
    count = 0
    for entries in itertools.product(range(field.order), repeat=d1 * d2):
        x = Matrix(field, d2, d1, list(entries))
        if all(x * g1 == g2 * x for g1, g2 in pairs):
            count += 1
    dim = 0
    while field.order**dim < count:
        dim += 1
    assert field.order**dim == count, "solution set must be a subspace"
    return dim


def oracle_hom_space(r1, r2) -> list[Matrix]:
    """Basis of the intertwiners t with t r1(g) = r2(g) t, from the
    kernel of the (2n+1) d2 d1 x d1 d2 linear system in the entries of t."""
    field = r1.field
    d1, d2 = r1.dim, r2.dim
    unknowns = d2 * d1
    rows = []
    sub = field.sub
    for a, b in zip(r1.gen_matrices(), r2.gen_matrices()):
        for i in range(d2):
            for j in range(d1):
                row = [0] * unknowns
                for k in range(d1):
                    row[i * d1 + k] = a.code_at(k, j)
                for k in range(d2):
                    row[k * d1 + j] = sub(row[k * d1 + j], b.code_at(i, k))
                rows.append(row)
    m = Matrix(field, len(rows), unknowns, [x for r in rows for x in r])
    return [Matrix(field, d2, d1, v) for v in m.kernel_basis()]


def oracle_search(p: int, d: int):
    """Faithful rank-1 pair (A, B) of d x d matrices over GF(p), scanning
    every pair in numpy blocks: (found, witness rep or None, pairs scanned).
    """
    import numpy as np

    field = GF(p)
    count = p ** (d * d)
    mats = np.array(
        list(itertools.product(range(p), repeat=d * d)), dtype=np.int16
    ).reshape(count, d, d)
    chunk = max(1, (1 << 22) // (count * d * d))
    pairs = 0
    for start in range(0, count, chunk):
        A = mats[start : start + chunk]
        C = (
            np.einsum("aij,bjk->abik", A, mats)
            - np.einsum("bij,ajk->abik", mats, A)
        ) % p
        AC = np.einsum("aij,abjk->abik", A, C) % p
        CA = np.einsum("abij,ajk->abik", C, A) % p
        BC = np.einsum("bij,abjk->abik", mats, C) % p
        CB = np.einsum("abij,bjk->abik", C, mats) % p
        ok = (
            C.any(axis=(2, 3))
            & (AC == CA).all(axis=(2, 3))
            & (BC == CB).all(axis=(2, 3))
        )
        pairs += A.shape[0] * count
        if ok.any():
            ai, bi = (int(v) for v in np.argwhere(ok)[0])
            a = Matrix(field, d, d, [int(v) for v in mats[start + ai].flat])
            b = Matrix(field, d, d, [int(v) for v in mats[bi].flat])
            rep = Representation(
                HeisenbergAlgebra(1, field), [a], [b], a * b - b * a
            )
            return True, rep, pairs
    return False, None, pairs


def oracle_rank1_partner(a: Matrix):
    """The first B, over all d x d matrices in code order, with Z = AB - BA
    nonzero and commuting with A and B, or None."""
    field, d = a.field, a.rows
    for entries in itertools.product(range(field.order), repeat=d * d):
        b = Matrix(field, d, d, list(entries))
        z = a * b - b * a
        if not z.is_zero() and a * z == z * a and b * z == z * b:
            return b
    return None


def oracle_ad(a: Matrix) -> Matrix:
    """ad_A(X) = AX - XA on row-major vectors of X by the Kronecker
    formula kron(A, I) - kron(I, A^T)."""
    eye = Matrix.identity(a.field, a.rows)
    return oracle_kron(a, eye) - oracle_kron(eye, a.transpose())


def oracle_u_dim(a: Matrix) -> int:
    """dim of U = im ad_A & ker ad_A, as ad_A(ker ad_A^2): the images under
    ad_A that ad_A kills."""
    field, d = a.field, a.rows
    ad = oracle_ad(a)
    ker2 = (ad * ad).kernel_basis()
    return Matrix(
        field, len(ker2), d * d, [x for v in ker2 for x in ad.apply(v)]
    ).rank()


def oracle_common_eigenvector(nils) -> list[int]:
    """The first vector of the right kernel of all nilpotent parts
    x_k - beta_k stacked vertically, by one elimination of the stacked
    n*d x d matrix."""
    field, d = nils[0].field, nils[0].rows
    rows = [row for nil in nils for row in nil.row_lists()]
    kernel = Matrix(field, len(rows), d, [e for row in rows for e in row]).kernel_basis()
    assert kernel, "commuting nilpotent images must share an eigenvector"
    return kernel[0]


def oracle_invariants(rep) -> InvariantTuple:
    """invariants from full matrix powers: z a nonzero scalar alpha in
    dimension p^n, then for x_1..x_n, y_1..y_n in turn m^p the scalar
    delta and (m - delta^(1/p))^(p-1) != 0, with the library's exceptions
    and messages."""
    field = rep.field
    p, n = field.p, rep.n
    alpha = rep.z.is_scalar()
    if alpha is None or alpha.code == 0:
        raise NotScalarCenter("z must act as a nonzero scalar")
    if rep.dim != p**n:
        raise WrongDimension(f"dimension {rep.dim} is not p^n = {p**n}")
    found = []
    named = [(f"x{k + 1}", m) for k, m in enumerate(rep.x)]
    named += [(f"y{k + 1}", m) for k, m in enumerate(rep.y)]
    for what, m in named:
        delta = (m**p).is_scalar()
        if delta is None:
            raise MinPolyShape(f"minimal polynomial of {what} is not X^{p} - c")
        root = Matrix.scalar(field, m.rows, brute_pth_root(delta))
        if ((m - root) ** (p - 1)).is_zero():
            raise MinPolyShape(f"minimal polynomial of {what} divides X^{p} - c properly")
        found.append(delta)
    return InvariantTuple(alpha, tuple(found[:n]), tuple(found[n:]))


def oracle_classify(rep):
    """classify with its parameters from oracle_invariants: each x_k^p and
    y_k^p as a full matrix power, checked to be the scalar delta_k,
    epsilon_k, with (m - delta^(1/p))^(p-1) != 0; then the same basis and
    the same final check as heisenberg.classify."""
    field = rep.field
    p, n = field.p, rep.n
    inv = oracle_invariants(rep)
    betas = [d.pth_root() for d in inv.deltas]
    gammas = [e.pth_root() for e in inv.epsilons]
    v = _common_eigenvector(
        [x - Matrix.scalar(field, x.rows, b) for x, b in zip(rep.x, betas)])
    shifts = [rep.y[k].shift(gammas[k]) for k in range(n)]
    cols = []
    for idx in range(p**n):
        digits = [idx // p ** (n - 1 - k) % p for k in range(n)]
        w = list(v)
        for k in range(n):
            for _ in range(digits[k]):
                w = shifts[k].apply(w)
        cols.append(w)
    t = Matrix.from_columns(field, cols)
    params = ModuleParams(inv.alpha, betas, gammas)
    model = build_V(rep.algebra, params)
    verify(not t.det().is_zero(), "classification basis must be invertible")
    for m, want in zip(rep.gen_matrices(), model.gen_matrices()):
        verify(m * t == t * want, "classification transform failed to verify")
    return params, t


def oracle_similarity_classes(field, d: int) -> list[Matrix]:
    """The rational canonical forms by testing f % prev for every monic f
    of degree <= d: the chains of monic invariant factors f1 | f2 | ...
    with degrees summing to d, each factor in coefficient-code order."""
    monics = [
        Poly(field, [*low, 1])
        for k in range(1, d + 1)
        for low in itertools.product(range(field.order), repeat=k)
    ]

    def chains(prev, left):
        if not left:
            yield []
            return
        for f in monics:
            if f.degree <= left and (f % prev).is_zero():
                for rest in chains(f, left - f.degree):
                    yield [f, *rest]

    return [
        direct_sum([companion(f) for f in chain])
        for chain in chains(Poly(field, [1]), d)
    ]
