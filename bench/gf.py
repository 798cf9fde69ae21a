"""Independent arithmetic for checking heisenmod's outputs.

Nothing here imports heisenmod.  A finite field GF(p^m) is given by p and a
monic modulus (ascending coefficients), and its element codes follow the
encoding heisenmod documents: the base-p digits of a code, lowest first,
are the coefficients of a polynomial in the generator t.

Every matrix over GF(p^m) is checked through its "blow-up" over GF(p):
each entry a becomes the m x m matrix of multiplication by a in the basis
1, t, ..., t^(m-1), built here from the modulus alone.  Blowing up is an
injective ring homomorphism, so products, equality, invertibility and
K-ranks (GF(p)-rank / m) of the blown matrices are those of the originals,
and all of it runs as numpy int64 arithmetic mod p.
"""

from __future__ import annotations

import numpy as np


class Field:
    """GF(p) or GF(p)[t]/(modulus) with its regular representation."""

    def __init__(self, p: int, modulus=None):
        self.p = p
        mod = [0, 1] if modulus is None else [int(c) % p for c in modulus]
        if mod[-1] != 1 or len(mod) < 2:
            raise ValueError("modulus must be monic of degree >= 1")
        if not is_irreducible(mod, p):
            raise ValueError(f"{mod} is not irreducible over GF({p})")
        self.m = m = len(mod) - 1
        self.modulus = None if modulus is None else tuple(mod)
        self.q = p**m
        # multiplication by t: t * t^j = t^(j+1), and t^m = -(mod[0..m-1])
        shift = np.zeros((m, m), dtype=np.int64)
        for j in range(m - 1):
            shift[j + 1, j] = 1
        shift[:, m - 1] = [(-c) % p for c in mod[:m]]
        powers = [np.eye(m, dtype=np.int64)]
        for _ in range(m - 1):
            powers.append(shift @ powers[-1] % p)
        digits = self.digits(np.arange(self.q))  # (q, m)
        self.reg = np.einsum("ci,ijk->cjk", digits, np.stack(powers)) % p

    def digits(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        out = np.empty(codes.shape + (self.m,), dtype=np.int64)
        rest = codes.copy()
        for i in range(self.m):
            out[..., i] = rest % self.p
            rest //= self.p
        return out

    def code(self, digits) -> int:
        c = 0
        for x in reversed(list(digits)):
            c = c * self.p + int(x) % self.p
        return c

    def mul(self, a: int, b: int) -> int:
        return self.code(self.reg[a] @ self.digits(b) % self.p)

    def add(self, a: int, b: int) -> int:
        return self.code((self.digits(a) + self.digits(b)) % self.p)

    def scale(self, k: int, a: int) -> int:
        """The integer multiple k * a."""
        return self.code(k * self.digits(a) % self.p)

    def neg(self, a: int) -> int:
        return self.scale(-1, a)

    def power(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    # -- matrices ----------------------------------------------------------

    def blow(self, codes, rows: int, cols: int) -> np.ndarray:
        """The (rows*m) x (cols*m) matrix over GF(p) of a rows x cols grid of
        codes given row-major."""
        grid = np.asarray(codes, dtype=np.int64).reshape(rows, cols)
        m = self.m
        return self.reg[grid].transpose(0, 2, 1, 3).reshape(rows * m, cols * m)

    def columns(self, vectors) -> np.ndarray:
        """Blow-up of the matrix whose columns are the given code vectors;
        its GF(p)-column span is their span over GF(p^m)."""
        vs = [list(v) for v in vectors]
        if not vs:
            return np.zeros((0, 0), dtype=np.int64)
        d = len(vs[0])
        flat = [vs[j][i] for i in range(d) for j in range(len(vs))]
        return self.blow(flat, d, len(vs))


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) by Gaussian elimination on int64 arrays."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        r += 1
    return r


class Checker:
    """Linear algebra over one field, on blown-up matrices."""

    def __init__(self, field: Field):
        self.f = field
        self.p = field.p

    def mat(self, rows: int, cols: int, codes) -> np.ndarray:
        return self.f.blow(codes, rows, cols)

    def mul(self, *mats: np.ndarray) -> np.ndarray:
        out = mats[0]
        for b in mats[1:]:
            out = out @ b % self.p
        return out

    def rank(self, a: np.ndarray) -> int:
        """Rank over GF(p^m)."""
        if a.size == 0:
            return 0
        return rank_mod(a, self.p) // self.f.m

    def invertible(self, a: np.ndarray) -> bool:
        return a.shape[0] == a.shape[1] and self.rank(a) * self.f.m == a.shape[0]

    def span_dim(self, vectors) -> int:
        return self.rank(self.f.columns(vectors)) if vectors else 0

    def invariant(self, vectors, gens) -> bool:
        """The span of the vectors is mapped into itself by every generator
        (blown-up matrices acting on columns)."""
        w = self.f.columns(vectors)
        base = rank_mod(w, self.p)
        for g in gens:
            both = np.hstack([w, g @ w % self.p])
            if rank_mod(both, self.p) != base:
                return False
        return True

    def contains(self, big, small) -> bool:
        """span(small) lies inside span(big)."""
        if not small:
            return True
        wb = self.f.columns(big)
        ws = self.f.columns(small)
        return rank_mod(np.hstack([wb, ws]), self.p) == rank_mod(wb, self.p)

    def hom_dim(self, gens1, gens2) -> int:
        """dim of {T : T g1 = g2 T for all generator pairs}, over a prime
        field, by the kernel of the stacked Kronecker system."""
        if self.f.m != 1:
            raise ValueError("hom_dim is implemented over prime fields")
        d2, d1 = gens2[0].shape[0], gens1[0].shape[0]
        blocks = []
        for a, b in zip(gens1, gens2):
            # row-major vec(T A - B T) = (I (x) A^T - B (x) I) vec(T)
            blocks.append(
                np.kron(np.eye(d2, dtype=np.int64), a.T)
                - np.kron(b, np.eye(d1, dtype=np.int64))
            )
        system = np.vstack(blocks) % self.p
        return d1 * d2 - rank_mod(system, self.p)


# -- the paper's modules, built from their formulas ------------------------------


def v_module(f: Field, alpha: int, betas, gammas):
    """Generators (x_1..x_n, y_1..y_n, z) of V(alpha, beta, gamma) as code
    grids on truncated polynomials F[X_1..X_n]/(X_i^p), monomial index
    i_1 p^(n-1) + ... + i_n:  x_k = beta_k + alpha d/dX_k,
    y_k = gamma_k + X_k, z = alpha.  Matrices act on columns."""
    p = f.p
    n = len(betas)
    d = p**n
    xs, ys = [], []
    for k in range(n):
        step = p ** (n - 1 - k)
        x = [0] * (d * d)
        y = [0] * (d * d)
        for j in range(d):
            e = (j // step) % p
            x[j * d + j] = betas[k]
            y[j * d + j] = gammas[k]
            if e >= 1:
                x[(j - step) * d + j] = f.scale(e, alpha)
            if e < p - 1:
                y[(j + step) * d + j] = 1
        xs.append(x)
        ys.append(y)
    z = [alpha if i == j else 0 for i in range(d) for j in range(d)]
    return xs + ys + [z], d


def companion_module(f: Field, alpha: int, beta: int, fcoeffs):
    """Generators (x, y, z) of the companion module of monic f: x is
    deg(f) copies of the p x p block beta + alpha d/dX, y the companion
    matrix of f(X^p) (ones below the diagonal, -coefficients in the last
    column), z = alpha."""
    p = f.p
    m = len(fcoeffs) - 1
    d = p * m
    x = [0] * (d * d)
    for b in range(m):
        for i in range(p):
            r = b * p + i
            x[r * d + r] = beta
            if i + 1 < p:
                x[r * d + r + 1] = f.scale(i + 1, alpha)
    inflated = [0] * (d + 1)
    for i, c in enumerate(fcoeffs):
        inflated[i * p] = c
    y = [0] * (d * d)
    for i in range(1, d):
        y[i * d + i - 1] = 1
    for i in range(d):
        y[i * d + d - 1] = f.neg(inflated[i])
    z = [alpha if i == j else 0 for i in range(d) for j in range(d)]
    return [x, y, z], d


def standard_module(n: int):
    """Generators of the (n+2)-dimensional module: x_i = e(1, i+1),
    y_i = e(i+1, n+2), z = e(1, n+2), 1-indexed."""
    d = n + 2

    def e(i, j):
        out = [0] * (d * d)
        out[(i - 1) * d + (j - 1)] = 1
        return out

    return [e(1, i + 2) for i in range(n)] + [e(i + 2, d) for i in range(n)] + [
        e(1, d)
    ], d


def relations_hold(ck: Checker, xs, ys, z) -> bool:
    """[x_i, y_j] = delta_ij z, and x's, y's, z commute otherwise."""
    def br(a, b):
        return (a @ b - b @ a) % ck.p

    zero = np.zeros_like(z)
    n = len(xs)
    for i in range(n):
        for j in range(n):
            if not np.array_equal(br(xs[i], ys[j]), z if i == j else zero):
                return False
        if br(xs[i], z).any() or br(ys[i], z).any():
            return False
        for j in range(i + 1, n):
            if br(xs[i], xs[j]).any() or br(ys[i], ys[j]).any():
                return False
    return True


def monic_polys(p: int, degree: int):
    """Monic polynomials of a degree over GF(p), ascending coefficients, in
    the order of their low coefficients read as a base-p number."""
    for code in range(p**degree):
        yield [(code // p**i) % p for i in range(degree)] + [1]


def divides(g, f, p: int) -> bool:
    """Monic g divides f over GF(p), by long division."""
    rem = list(f)
    dg = len(g) - 1
    for k in range(len(rem) - 1 - dg, -1, -1):
        c = rem[k + dg] % p
        if c:
            for i, b in enumerate(g):
                rem[k + i] = (rem[k + i] - c * b) % p
    return not any(x % p for x in rem[:dg])


def is_irreducible(f, p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg f / 2."""
    m = len(f) - 1
    return m >= 1 and not any(
        divides(g, f, p)
        for deg in range(1, m // 2 + 1)
        for g in monic_polys(p, deg)
    )


def irreducible_polys(p: int, degree: int) -> list[list[int]]:
    """All monic irreducibles of a degree over GF(p), ascending coefficients."""
    return [f for f in monic_polys(p, degree) if is_irreducible(f, p)]
