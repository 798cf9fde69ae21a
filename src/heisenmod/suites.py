"""Named verification suites sweeping the library's structure results.

Each suite re-derives one classification or structure statement across a
parameter range and reports exact pass/fail per case.  Reports carry the
anchor string of the statement being checked, and every failure records
the primitive inputs that reproduce it.  Randomized inputs always derive
from the suite seed, so reruns are bit-identical.

Cases are independent and dispatch to a pool of min(jobs, cases, CPUs)
processes when that is above 1, the only time the pool machinery is
imported; aggregation sorts by case key, so scheduling order is invisible.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from typing import NamedTuple, Sequence

from .errors import TooLarge, VerificationFailed
from .fields import (
    FieldElem,
    GF,
    Poly,
    find_irreducible,
    is_prime,
    make_extension,
    monic_irreducibles,
)
from .heisenberg import (
    HeisenbergAlgebra,
    ModuleParams,
    build_companion_rep,
    build_D,
    build_M,
    build_restriction_rep,
    build_standard,
    build_V,
    canonical_pair,
    classify,
    conjugate_rep,
    invariants,
    regular_matrix,
    triple_similarity,
    validate_rep,
)
from .matrices import (
    Matrix,
    assemble_grid,
    companion,
    frobenius_form,
    jordan_block,
    jordan_form,
    min_poly,
)
from .modules import (
    EnvelopingAlgebra,
    composition_series,
    extend_scalars,
    field_embedding,
    hom_space,
    is_irreducible,
    is_uniserial,
    search_min_faithful,
    split_by_central,
)


class CaseOutcome(NamedTuple):
    case: str
    inputs: dict
    ok: bool
    message: str


class Report(NamedTuple):
    suite: str
    anchor: str
    cases_run: int
    cases_passed: int
    failures: list[CaseOutcome]
    wall_time: float
    outcomes: Sequence[CaseOutcome] = ()

    def __repr__(self):  # outcomes can run to hundreds of cases
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:-1], self))
        return f"Report({shown})"

    @property
    def ok(self) -> bool:
        return self.cases_passed == self.cases_run

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "anchor": self.anchor,
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "failures": [
                {"case": f.case, "inputs": f.inputs, "message": f.message}
                for f in self.failures
            ],
            "wall_time": self.wall_time,
        }

    def render(self) -> str:
        lines = [
            f"suite {self.suite}",
            f"anchor: {self.anchor}",
            f"{self.cases_passed}/{self.cases_run} cases passed"
            f" in {self.wall_time:.2f}s",
        ]
        for o in self.outcomes:
            if o.ok and o.message:
                lines.append(f"  {o.case}: {o.message}")
        for f in self.failures:
            lines.append(f"  FAIL {f.case}: {f.message}  inputs={f.inputs}")
        return "\n".join(lines)


# -- shared helpers ------------------------------------------------------------


def _random_params(field, n: int, rng: random.Random) -> ModuleParams:
    q = field.order
    return ModuleParams(
        FieldElem(field, rng.randrange(1, q)),
        [FieldElem(field, rng.randrange(q)) for _ in range(n)],
        [FieldElem(field, rng.randrange(q)) for _ in range(n)],
    )


def _random_invertible(field, d: int, rng: random.Random) -> Matrix:
    while True:
        m = Matrix(field, d, d, [rng.randrange(field.order) for _ in range(d * d)])
        if not m.det().is_zero():
            return m


def _irreducible_polys(p: int, degree: int) -> list[Poly]:
    """All monic irreducible polynomials of the given degree over GF(p),
    in ascending coefficient-code order."""
    return sorted(monic_irreducibles(p, degree), key=lambda f: f.coeffs)


def _decode_params(p: int, n: int, alpha: int, betas, gammas) -> ModuleParams:
    field = GF(p)
    return ModuleParams(
        FieldElem(field, alpha),
        [FieldElem(field, b) for b in betas],
        [FieldElem(field, g) for g in gammas],
    )


def _lines(q: int, d: int) -> int:
    return (q**d - 1) // (q - 1)


# one prop21 case takes about 0.03 s at d = 25, 0.6 s at d = 81 and 1.6 s
# at d = 125 (2-vCPU Xeon), so a combination of 10 cases stays under 6 s
_PROP21_MAX_DIM = 81


# -- case functions ------------------------------------------------------------
# Each returns (ok, message); raising counts as a failure with the error text,
# except VerificationFailed and TooLarge, which propagate (see _run_case).


def _case_prop21(p, n, alpha, betas, gammas):
    field = GF(p)
    params = _decode_params(p, n, alpha, betas, gammas)
    rep = build_V(HeisenbergAlgebra(n, field), params)
    problems = []
    report = validate_rep(rep)
    if not report.ok:
        problems.append(f"relations violated: {report.violations}")
    if not rep.is_faithful():
        problems.append("not faithful")
    if rep.dim != p**n:
        problems.append(f"dimension {rep.dim} != {p**n}")
    if rep.z != Matrix.scalar(field, rep.dim, params.alpha):
        problems.append("central image is not alpha * identity")
    if not is_irreducible(rep):
        problems.append("not irreducible")
    return not problems, "; ".join(problems)


def _case_thm22(p, n, alpha, betas, gammas, conj_seed):
    field = GF(p)
    params = _decode_params(p, n, alpha, betas, gammas)
    rep = build_V(HeisenbergAlgebra(n, field), params)
    if conj_seed is not None:
        rng = random.Random(conj_seed)
        rep = conjugate_rep(rep, _random_invertible(field, rep.dim, rng))
    got, _ = classify(rep)  # the transform is verified inside classify
    if got != params:
        return False, f"classified to {got!r}"
    return True, ""


def _case_cor23(p, m, seed):
    rng = random.Random(seed)
    field = GF(p)
    polys = _irreducible_polys(p, m)
    f = polys[rng.randrange(len(polys))]
    alpha = FieldElem(field, rng.randrange(1, p))
    beta = FieldElem(field, rng.randrange(p))
    rep = build_companion_rep(alpha, beta, f)
    problems = []
    if rep.dim % p:
        problems.append(f"p does not divide dim {rep.dim}")
    if rep.dim != p * m:
        problems.append(f"dim {rep.dim} != p^n * m = {p * m}")
    if not is_irreducible(rep):
        problems.append("not irreducible")
    big_field = make_extension(p, find_irreducible(p, m))
    parts = split_by_central(extend_scalars(rep, big_field))
    if len(parts) != m:
        problems.append(f"{len(parts)} factors after extension, expected {m}")
    if any(s.rep.dim != p for s in parts):
        problems.append(f"factor dims {[s.rep.dim for s in parts]} != {p}")
    for s in parts:
        classify(s.rep)  # raises if a factor is not of the canonical kind
    return not problems, "; ".join(problems)


def _case_cor24(p, n, seed, same):
    rng = random.Random(seed)
    field = GF(p)
    algebra = HeisenbergAlgebra(n, field)
    first = _random_params(field, n, rng)
    if same:
        second = first
    else:
        while True:
            second = _random_params(field, n, rng)
            if second != first:
                break
    d = p**n
    r1 = conjugate_rep(build_V(algebra, first), _random_invertible(field, d, rng))
    r2 = conjugate_rep(build_V(algebra, second), _random_invertible(field, d, rng))
    problems = []
    if (invariants(r1) == invariants(r2)) != same:
        problems.append("invariant tuple equality disagrees with construction")
    homs = hom_space(r1, r2)
    if same:
        if len(homs) != 1:
            problems.append(f"hom space dimension {len(homs)} != 1")
        elif homs[0].det().is_zero():
            problems.append("hom space basis element is singular")
    elif homs:
        problems.append(f"hom space dimension {len(homs)} != 0")
    return not problems, "; ".join(problems)


def _case_cor25(p, seed, same):
    rng = random.Random(seed)
    field = GF(p)

    def fresh():
        return (
            FieldElem(field, rng.randrange(1, p)),
            FieldElem(field, rng.randrange(p)),
            FieldElem(field, rng.randrange(p)),
        )

    def conjugated(alpha, beta, gamma):
        a = build_M(p, alpha, beta)
        b = jordan_block(field, gamma, p)
        c = Matrix.scalar(field, p, alpha)
        x = _random_invertible(field, p, rng)
        xi = x.inv()
        return (xi * a * x, xi * b * x, xi * c * x)

    one = fresh()
    if same:
        two = one
    else:
        while True:
            two = fresh()
            if two != one:
                break
    t1 = conjugated(*one)
    t2 = conjugated(*two)
    problems = []
    a_form, b_form, _ = canonical_pair(*t1)  # the transform is verified inside
    if a_form != build_M(p, one[0], one[1]):
        problems.append("A normal form mismatch")
    if b_form != jordan_block(field, one[2], p):
        problems.append("B normal form mismatch")
    dets_agree = tuple(m.det() for m in t1) == tuple(m.det() for m in t2)
    x = triple_similarity(t1, t2)  # verified inside when found
    if (x is not None) != dets_agree:
        problems.append("similarity decision disagrees with determinant triple")
    if dets_agree != same:
        problems.append("determinant triples disagree with construction")
    return not problems, "; ".join(problems)


def _case_cor26(p, seed):
    rng = random.Random(seed)
    field = GF(p)
    alpha = FieldElem(field, rng.randrange(1, p))
    deltas = [FieldElem(field, rng.randrange(p)) for _ in range(p - 1)]
    dmat = build_D(p, alpha, deltas)
    det = dmat.det()
    problems = []
    cf = frobenius_form(dmat)  # transform verified inside
    want = Poly(field, [(-det).code] + [0] * (p - 1) + [1])
    if len(cf.invariant_factors) != 1 or cf.invariant_factors[0] != want:
        problems.append(
            f"invariant factors {cf.invariant_factors!r} != [X^{p} - det]"
        )
    jform, _ = jordan_form(dmat)  # transform verified inside
    if jform != jordan_block(field, det.pth_root(), p):
        problems.append("Jordan form is not a single full block")
    return not problems, "; ".join(problems)


def _case_ex27(p, alpha):
    field = GF(p)
    a = FieldElem(field, alpha)
    deltas = [field.one()] + [field.zero()] * (p - 2)
    dmat = build_D(p, a, deltas)
    if p == 2:
        want = companion(Poly(field, [(-a).code, 0, 1]))
        if dmat != want:
            return False, f"D != companion(X^2 - {alpha})"
        return True, ""
    problems = []
    if not (dmat**p).is_zero():
        problems.append("D^p != 0")
    if dmat.is_zero():
        problems.append("D = 0")
    if not dmat.det().is_zero():
        problems.append("det D != 0")
    return not problems, "; ".join(problems)


def _case_sec3_search(p, d):
    result = search_min_faithful(1, p, d)
    expected = d >= 3 or p == 2
    if result.found != expected:
        return False, f"found={result.found}, expected {expected}"
    if result.found:
        rep = result.rep
        report = validate_rep(rep)
        if not (report.ok and rep.is_faithful() and rep.dim == d):
            return False, "witness fails validation"
        if result.mode == "exhaustive":
            return True, f"d={d}: witness found after {result.pairs_tested} pairs"
        return True, f"d={d}: witness found"
    return True, f"d={d}: none found over {result.pairs_tested} pairs"


def _case_sec3_witness(p, n):
    field = GF(p)
    rep = build_standard(HeisenbergAlgebra(n, field))
    report = validate_rep(rep)
    problems = []
    if not report.ok:
        problems.append(f"relations violated: {report.violations}")
    if not rep.is_faithful():
        problems.append("not faithful")
    if rep.dim != n + 2:
        problems.append(f"dimension {rep.dim} != {n + 2}")
    return not problems, "; ".join(problems) or f"d={n + 2}: witness found"


def _case_sec4(p, m, seed):
    rng = random.Random(seed)
    field = GF(p)
    q = find_irreducible(p, m)
    f = Poly(field, [rng.randrange(p) for _ in range(m)])
    g = Poly(field, [rng.randrange(p) for _ in range(m)])
    rep = build_restriction_rep(p, q, [f], [g])
    problems = []
    if not rep.is_faithful():
        problems.append("not faithful")
    if rep.dim != p * m:
        problems.append(f"dimension {rep.dim} != {p * m}")
    if not is_irreducible(rep):
        problems.append("not irreducible")

    # rebuild the expected block display directly from regular matrices
    big = make_extension(p, q)
    alpha = big.generator()
    power_cols, acc = [], 1
    for _ in range(m):
        power_cols.append(list(big.coeffs_of(acc)))
        acc = big.mul(acc, alpha.code)
    basis_cols = Matrix.from_columns(field, power_cols)

    def reg(e: FieldElem) -> Matrix:
        return regular_matrix(big, e, basis_cols)

    beta, gamma = f(alpha), g(alpha)
    zero = Matrix.zeros(field, m, m)
    eye = Matrix.identity(field, m)
    reg_alpha, reg_beta, reg_gamma = reg(alpha), reg(beta), reg(gamma)
    x_grid = [[zero] * p for _ in range(p)]
    y_grid = [[zero] * p for _ in range(p)]
    z_grid = [[zero] * p for _ in range(p)]
    for i in range(p):
        x_grid[i][i] = reg_beta
        y_grid[i][i] = reg_gamma
        z_grid[i][i] = reg_alpha
        if i + 1 < p:
            x_grid[i][i + 1] = reg_alpha * (i + 1)
            y_grid[i + 1][i] = eye
    if rep.x[0] != assemble_grid(x_grid):
        problems.append("x image differs from the block display")
    if rep.y[0] != assemble_grid(y_grid):
        problems.append("y image differs from the block display")
    z_display = assemble_grid(z_grid)
    if rep.z != z_display:
        problems.append("z image differs from the block display")

    env = EnvelopingAlgebra(rep)
    if env.dim != m * p**2:
        problems.append(f"enveloping algebra dim {env.dim} != {m * p**2}")
    if not env.contains(z_display):
        problems.append("scalar-multiplication matrix outside the image algebra")
    return not problems, "; ".join(problems)


def _case_thm51_minpolys(p, seed):
    rng = random.Random(seed)
    field = GF(p)
    alpha = FieldElem(field, rng.randrange(1, p))
    beta = FieldElem(field, rng.randrange(p))
    degree = rng.randrange(1, 4)
    f = Poly(field, [rng.randrange(p) for _ in range(degree)] + [1])
    rep = build_companion_rep(alpha, beta, f)
    problems = []
    report = validate_rep(rep)
    if not report.ok:
        problems.append(f"relations violated: {report.violations}")
    want_x = Poly(field, [(-(beta**p)).code] + [0] * (p - 1) + [1])
    if min_poly(rep.x[0]) != want_x:
        problems.append("x minimal polynomial is not (X - beta)^p")
    if min_poly(rep.y[0]) != f.inflate(p):
        problems.append("y minimal polynomial is not f(X^p)")
    if rep.z != Matrix.scalar(field, rep.dim, alpha):
        problems.append("central image is not alpha * identity")
    return not problems, "; ".join(problems)


def _case_thm51_irreducible(p, fcodes, alpha, beta):
    field = GF(p)
    f = Poly(field, fcodes)
    rep = build_companion_rep(
        FieldElem(field, alpha), FieldElem(field, beta), f
    )
    if not is_irreducible(rep):
        return False, "not irreducible"
    return True, ""


def _case_thm51_uniserial(p, m, seed):
    rng = random.Random(seed)
    field = GF(p)
    alpha = FieldElem(field, rng.randrange(1, p))
    beta = FieldElem(field, rng.randrange(p))
    gamma = FieldElem(field, rng.randrange(p))
    linear = Poly(field, [(-(gamma**p)).code, 1])
    f = Poly(field, [1])
    for _ in range(m):
        f = f * linear
    rep = build_companion_rep(alpha, beta, f)
    problems = []
    if not is_uniserial(rep):
        problems.append("not uniserial")
    series = composition_series(rep)
    if len(series.factors) != m:
        problems.append(f"{len(series.factors)} factors, expected {m}")
    want = ModuleParams(alpha, [beta], [gamma])
    for k, factor in enumerate(series.factors):
        if factor.dim != p:
            problems.append(f"factor {k} has dim {factor.dim}")
            continue
        got, _ = classify(factor.rep)
        if got != want:
            problems.append(f"factor {k} classified to {got!r}")
    return not problems, "; ".join(problems)


def _case_note52(p, fcodes, alpha, beta):
    field = GF(p)
    f = Poly(field, fcodes)
    m = f.degree
    rep = build_companion_rep(FieldElem(field, alpha), FieldElem(field, beta), f)
    big = make_extension(p, find_irreducible(p, m))
    parts = split_by_central(extend_scalars(rep, big))
    problems = []
    if len(parts) != m:
        problems.append(f"{len(parts)} summands, expected {m}")
    embed = field_embedding(field, big)
    alpha_big = FieldElem(big, embed(alpha))
    beta_big = FieldElem(big, embed(beta))
    seen = set()
    for s in parts:
        if s.rep.dim != p:
            problems.append(f"summand dim {s.rep.dim} != {p}")
            continue
        got, _ = classify(s.rep)
        if got.alpha != alpha_big or got.betas[0] != beta_big:
            problems.append(f"summand params {got!r} do not extend the input")
        gamma = got.gammas[0]
        if gamma**p != s.eigenvalue:
            problems.append("gamma^p is not the central eigenvalue")
        if f(s.eigenvalue):
            problems.append("central eigenvalue is not a root of f")
        seen.add(invariants(s.rep))
    if len(parts) == m and len(seen) != m:
        problems.append("summands are not pairwise distinct")
    return not problems, "; ".join(problems)


_CASE_FUNCS = {
    "prop21": _case_prop21,
    "thm22": _case_thm22,
    "cor23": _case_cor23,
    "cor24": _case_cor24,
    "cor25": _case_cor25,
    "cor26": _case_cor26,
    "ex27": _case_ex27,
    "sec3_search": _case_sec3_search,
    "sec3_witness": _case_sec3_witness,
    "sec4": _case_sec4,
    "thm51_minpolys": _case_thm51_minpolys,
    "thm51_irreducible": _case_thm51_irreducible,
    "thm51_uniserial": _case_thm51_uniserial,
    "note52": _case_note52,
}


def _run_case(args) -> CaseOutcome:
    func_name, key, kwargs = args
    try:
        ok, message = _CASE_FUNCS[func_name](**kwargs)
    except (VerificationFailed, TooLarge):
        raise  # a library bug or a refused request, not a false property
    except Exception as exc:  # report, never crash the sweep
        ok, message = False, f"{type(exc).__name__}: {exc}"
    return CaseOutcome(case=key, inputs=dict(kwargs), ok=ok, message=message)


# -- case builders ------------------------------------------------------------


def _param_sweep(p, n, seed, budget):
    """All (alpha, betas, gammas) code tuples when few, a seeded sample
    otherwise."""
    total = (p - 1) * p ** (2 * n)
    if total <= budget:
        for alpha in range(1, p):
            for betas in itertools.product(range(p), repeat=n):
                for gammas in itertools.product(range(p), repeat=n):
                    yield alpha, list(betas), list(gammas)
        return
    rng = random.Random(seed * 1000003 + p * 101 + n)
    for _ in range(10):
        yield (
            rng.randrange(1, p),
            [rng.randrange(p) for _ in range(n)],
            [rng.randrange(p) for _ in range(n)],
        )


def _build_prop21(plist, nlist, mlist, seed):
    cases = []
    for p in plist:
        for n in nlist:
            if p**n > _PROP21_MAX_DIM:
                continue  # above desk scale
            for alpha, betas, gammas in _param_sweep(p, n, seed, budget=64):
                key = f"p={p},n={n},alpha={alpha},betas={betas},gammas={gammas}"
                cases.append(("prop21", key, {
                    "p": p, "n": n, "alpha": alpha,
                    "betas": betas, "gammas": gammas,
                }))
    if not cases:
        raise ValueError("requested ranges are above desk scale")
    return cases


def _build_thm22(plist, nlist, mlist, seed):
    cases = []
    rng = random.Random(seed)
    for p in plist:
        for n in nlist:
            total = (p - 1) * p ** (2 * n)
            if total > 250000:
                raise ValueError(
                    f"p={p}, n={n} gives {total} parameter tuples,"
                    " above desk scale"
                )
            for alpha in range(1, p):
                for betas in itertools.product(range(p), repeat=n):
                    for gammas in itertools.product(range(p), repeat=n):
                        key = (
                            f"p={p},n={n},alpha={alpha},"
                            f"betas={list(betas)},gammas={list(gammas)}"
                        )
                        cases.append(("thm22", key, {
                            "p": p, "n": n, "alpha": alpha,
                            "betas": list(betas), "gammas": list(gammas),
                            "conj_seed": None,
                        }))
            for i in range(50):
                alpha = rng.randrange(1, p)
                betas = [rng.randrange(p) for _ in range(n)]
                gammas = [rng.randrange(p) for _ in range(n)]
                key = f"p={p},n={n},conjugate={i:02d}"
                cases.append(("thm22", key, {
                    "p": p, "n": n, "alpha": alpha,
                    "betas": betas, "gammas": gammas,
                    "conj_seed": rng.randrange(2**32),
                }))
    return cases


def _build_cor23(plist, nlist, mlist, seed):
    rng = random.Random(seed)
    cases = []
    for p in plist:
        for m in mlist:
            if _lines(p, p * m) > 5000:
                continue  # enumeration gone; kept as gate check 09 pins 15 cases
            for i in range(5):
                key = f"p={p},m={m},case={i}"
                cases.append(("cor23", key, {
                    "p": p, "m": m, "seed": rng.randrange(2**32),
                }))
    if not cases:
        raise ValueError("requested ranges are above desk scale")
    return cases


def _build_cor24(plist, nlist, mlist, seed):
    combos = [(p, n) for p in plist for n in nlist if p**n <= 8]
    if not combos:
        raise ValueError("requested ranges are above desk scale")
    rng = random.Random(seed)
    per_combo = max(1, round(100 / len(combos)))
    cases = []
    for p, n in combos:
        for i in range(per_combo):
            key = f"p={p},n={n},pair={i:02d}"
            cases.append(("cor24", key, {
                "p": p, "n": n, "seed": rng.randrange(2**32),
                "same": i % 2 == 0,
            }))
    return cases


def _build_cor25(plist, nlist, mlist, seed):
    rng = random.Random(seed)
    cases = []
    per_p = max(1, round(100 / len(plist)))
    for p in plist:
        for i in range(per_p):
            key = f"p={p},triple={i:02d}"
            cases.append(("cor25", key, {
                "p": p, "seed": rng.randrange(2**32), "same": i % 2 == 0,
            }))
    return cases


def _build_cor26(plist, nlist, mlist, seed):
    rng = random.Random(seed)
    cases = []
    for p in plist:
        for i in range(100):
            key = f"p={p},deltas={i:03d}"
            cases.append(("cor26", key, {"p": p, "seed": rng.randrange(2**32)}))
    return cases


def _build_ex27(plist, nlist, mlist, seed):
    cases = []
    for p in plist:
        for alpha in range(1, p):
            key = f"p={p},alpha={alpha}"
            cases.append(("ex27", key, {"p": p, "alpha": alpha}))
    return cases


def _build_sec3(plist, nlist, mlist, seed):
    cases = []
    for p in plist:
        for n in nlist:
            if n == 1:
                cases.append(("sec3_search", f"p={p},d=2", {"p": p, "d": 2}))
                cases.append(("sec3_search", f"p={p},d=3", {"p": p, "d": 3}))
            else:
                key = f"p={p},n={n},d={n + 2}"
                cases.append(("sec3_witness", key, {"p": p, "n": n}))
    return cases


def _build_sec4(plist, nlist, mlist, seed):
    rng = random.Random(seed)
    combos = [
        (p, m) for p in plist for m in mlist if _lines(p, p * m) <= 5000
    ]
    if not combos:
        raise ValueError("requested ranges are above desk scale")
    cases = []
    for p, m in combos:
        for i in range(5):
            key = f"p={p},m={m},case={i}"
            cases.append(("sec4", key, {
                "p": p, "m": m, "seed": rng.randrange(2**32),
            }))
    return cases


def _build_thm51(plist, nlist, mlist, seed):
    rng = random.Random(seed)
    cases = []
    per_p = max(1, round(20 / len(plist)))
    for p in plist:
        for i in range(per_p):
            key = f"p={p},minpolys={i:02d}"
            cases.append(("thm51_minpolys", key, {
                "p": p, "seed": rng.randrange(2**32),
            }))
    for p in plist:
        degrees = [2, 3] if p == 2 else [2]
        for degree in degrees:
            for f in _irreducible_polys(p, degree):
                alpha = rng.randrange(1, p)
                beta = rng.randrange(p)
                key = f"p={p},f={list(f.coeffs)}"
                cases.append(("thm51_irreducible", key, {
                    "p": p, "fcodes": list(f.coeffs),
                    "alpha": alpha, "beta": beta,
                }))
    for p in plist:
        for m in mlist:
            if _lines(p, p * m) > 5000:
                continue  # enumeration gone; kept as gate check 08 pins 9 cases
            for i in range(3):
                key = f"p={p},m={m},uniserial={i}"
                cases.append(("thm51_uniserial", key, {
                    "p": p, "m": m, "seed": rng.randrange(2**32),
                }))
    return cases


def _build_note52(plist, nlist, mlist, seed):
    rng = random.Random(seed)
    cases = []
    for p in plist:
        degrees = [2, 3] if p == 2 else [2]
        for degree in degrees:
            for f in _irreducible_polys(p, degree):
                key = f"p={p},f={list(f.coeffs)}"
                cases.append(("note52", key, {
                    "p": p, "fcodes": list(f.coeffs),
                    "alpha": rng.randrange(1, p), "beta": rng.randrange(p),
                }))
    return cases


_ANCHORS = {
    "prop21": "Prop 2.1(3): V_{alpha,beta,gamma} is a faithful irreducible"
              " module of dimension p^n with scalar central action",
    "thm22": "Thm 2.2: every faithful p^n-dimensional module is equivalent"
             " to a V_{alpha,beta,gamma}, recovered by classify",
    "cor23": "Cor 2.3: a faithful irreducible module has dimension p^n * m",
    "cor24": "Cor 2.4(3): faithful p^n-dimensional modules are isomorphic"
             " iff their invariant tuples agree",
    "cor25": "Cor 2.5: triples with [A,B] = C = alpha*I are simultaneously"
             " similar iff their determinant triples agree",
    "cor26": "Cor 2.6: D is similar to the companion matrix of X^p - det(D)",
    "ex27": "Ex 2.7: delta = (1,0,...,0) gives companion(X^2 - alpha) for"
            " p = 2 and a nilpotent D for p > 2",
    "sec3-min-dim": "Sec 3: the minimum faithful dimension is n + 2, except"
                    " 2 for n = 1 in characteristic 2",
    "sec4-restriction": "Sec 4: restriction of scalars along GF(p^m)/GF(p)"
                        " preserves irreducibility under condition (C)",
    "thm51": "Thm 5.1: companion modules realize the stated minimal"
             " polynomials; irreducible f gives an irreducible module;"
             " f = (X - gamma^p)^m gives a uniserial module with m factors",
    "note52": "Note 5.2: over a splitting field the companion module is a"
              " direct sum of pairwise distinct V_{alpha,beta,gamma_i}",
}

_BUILDERS = {
    "prop21": _build_prop21,
    "thm22": _build_thm22,
    "cor23": _build_cor23,
    "cor24": _build_cor24,
    "cor25": _build_cor25,
    "cor26": _build_cor26,
    "ex27": _build_ex27,
    "sec3-min-dim": _build_sec3,
    "sec4-restriction": _build_sec4,
    "thm51": _build_thm51,
    "note52": _build_note52,
}

_DEFAULTS = {
    "prop21": {"p": [2, 3, 5], "n": [1, 2], "m": [1]},
    "thm22": {"p": [2, 3], "n": [1, 2], "m": [1]},
    "cor23": {"p": [2, 3], "n": [1], "m": [2, 3]},
    "cor24": {"p": [2, 3, 5], "n": [1, 2], "m": [1]},
    "cor25": {"p": [3, 5], "n": [1], "m": [1]},
    "cor26": {"p": [2, 3, 5], "n": [1], "m": [1]},
    "ex27": {"p": [2, 3, 5], "n": [1], "m": [1]},
    "sec3-min-dim": {"p": [2, 3, 5], "n": [1], "m": [1]},
    "sec4-restriction": {"p": [2, 3], "n": [1], "m": [2, 3]},
    "thm51": {"p": [2, 3], "n": [1], "m": [2, 3]},
    "note52": {"p": [2, 3], "n": [1], "m": [1]},
}


def suite_names() -> list[str]:
    return sorted(_BUILDERS)


def run_suite(name, p=None, n=None, m=None, seed=0, jobs=1) -> Report:
    """Run a named suite and aggregate its cases into a Report.

    Ranges default per suite; explicit lists are validated (primes for p,
    positive ranks and degrees).  Cases are deterministic given the seed
    and independent, so they run on min(jobs, cases, CPUs) processes.
    A case that raises VerificationFailed or TooLarge checked nothing, so
    the error propagates instead of being reported as a failed case.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    defaults = _DEFAULTS[name]
    plist = list(p) if p else list(defaults["p"])
    nlist = list(n) if n else list(defaults["n"])
    mlist = list(m) if m else list(defaults["m"])
    for prime in plist:
        if not is_prime(prime):
            raise ValueError(f"p = {prime} is not prime")
    if any(v < 1 for v in nlist) or any(v < 1 for v in mlist):
        raise ValueError("n and m ranges must be positive")
    if jobs < 1:
        raise ValueError(f"jobs = {jobs} must be at least 1")
    cases = _BUILDERS[name](plist, nlist, mlist, seed)
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    start = time.perf_counter()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(cases) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_case, cases, chunksize=chunk))
    else:
        outcomes = [_run_case(c) for c in cases]
    outcomes.sort(key=lambda o: o.case)
    failures = [o for o in outcomes if not o.ok]
    return Report(
        suite=name,
        anchor=_ANCHORS[name],
        cases_run=len(outcomes),
        cases_passed=len(outcomes) - len(failures),
        failures=failures,
        wall_time=time.perf_counter() - start,
        outcomes=outcomes,
    )
