"""Named verification suites sweeping the library's structure results.

Each suite re-derives one classification or structure statement across a
parameter range and reports exact pass/fail per case.  Reports carry the
anchor string of the statement being checked, and every failure records
the primitive inputs that reproduce it.  Randomized inputs always derive
from the suite seed, so reruns are bit-identical.

A suite is one `_SUITES` entry (anchor, default ranges, case builder)
plus its case function, which every built case carries itself.  Cases are
independent and dispatch to a pool of min(jobs, cases, CPUs) processes
when that is above 1 (case functions pickle by reference), the only time
the pool machinery is imported; aggregation sorts by case key, so
scheduling order is invisible.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from typing import Callable, NamedTuple, Sequence

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
    companion,
    frobenius_form,
    jordan_block,
    jordan_form,
    kron,
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


def _random_codes(q: int, n: int, rng: random.Random) -> dict:
    """alpha, betas, gammas codes drawn from rng in that order, alpha != 0."""
    return {
        "alpha": rng.randrange(1, q),
        "betas": [rng.randrange(q) for _ in range(n)],
        "gammas": [rng.randrange(q) for _ in range(n)],
    }


def _params(field, alpha: int, betas, gammas) -> ModuleParams:
    return ModuleParams(
        FieldElem(field, alpha),
        [FieldElem(field, b) for b in betas],
        [FieldElem(field, g) for g in gammas],
    )


def _random_invertible(field, d: int, rng: random.Random) -> Matrix:
    while True:
        m = Matrix(field, d, d, [rng.randrange(field.order) for _ in range(d * d)])
        if not m.det().is_zero():
            return m


def _pair(draw, same: bool):
    """Two draws, the second equal to the first when `same` and otherwise
    redrawn until it differs."""
    first = second = draw()
    while not same and second == first:
        second = draw()
    return first, second


def _faithful_problems(rep, dim: int) -> list[str]:
    """What keeps rep from being a faithful module of dimension dim."""
    problems = []
    report = validate_rep(rep)
    if not report.ok:
        problems.append(f"relations violated: {report.violations}")
    if not rep.is_faithful():
        problems.append("not faithful")
    if rep.dim != dim:
        problems.append(f"dimension {rep.dim} != {dim}")
    return problems


def _irreducible_polys(p: int, degree: int) -> list[Poly]:
    """All monic irreducible polynomials of the given degree over GF(p),
    in ascending coefficient-code order."""
    return sorted(monic_irreducibles(p, degree), key=lambda f: f.coeffs)


# one prop21 case takes about 0.03 s at d = 25, 0.6 s at d = 81 and 1.6 s
# at d = 125 (2-vCPU Xeon), so a combination of 10 cases stays under 6 s
_PROP21_MAX_DIM = 81


# -- case functions ------------------------------------------------------------
# Each returns (ok, message); raising counts as a failure with the error text,
# except VerificationFailed and TooLarge, which propagate (see _run_case).


def _case_prop21(p, n, alpha, betas, gammas):
    field = GF(p)
    params = _params(field, alpha, betas, gammas)
    rep = build_V(HeisenbergAlgebra(n, field), params)
    problems = _faithful_problems(rep, p**n)
    if rep.z != Matrix.scalar(field, rep.dim, params.alpha):
        problems.append("central image is not alpha * identity")
    if not is_irreducible(rep):
        problems.append("not irreducible")
    return not problems, "; ".join(problems)


def _case_thm22(p, n, alpha, betas, gammas, conj_seed):
    field = GF(p)
    params = _params(field, alpha, betas, gammas)
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
    first, second = _pair(lambda: _params(field, **_random_codes(p, n, rng)), same)
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

    one, two = _pair(fresh, same)
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
    rep = build_standard(HeisenbergAlgebra(n, GF(p)))
    problems = _faithful_problems(rep, n + 2)
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

    # the block display as Kronecker sums of ra, rb, rg, the regular matrices
    # of alpha, beta, gamma; the power basis of t = X has the standard basis
    # as its coordinates
    eye_p, eye_m = Matrix.identity(field, p), Matrix.identity(field, m)
    t = make_extension(p, q).generator()
    ra, rb, rg = (regular_matrix(t.field, e, eye_m) for e in (t, f(t), g(t)))
    displays = (kron(build_M(p, field.one(), field.zero()), ra) + kron(eye_p, rb),
                kron(eye_p, rg) + kron(jordan_block(field, 0, p), eye_m),
                kron(eye_p, ra))
    for name, got, want in zip("xyz", rep.gen_matrices(), displays):
        if got != want:
            problems.append(f"{name} image differs from the block display")

    env = EnvelopingAlgebra(rep)
    if env.dim != m * p**2:
        problems.append(f"enveloping algebra dim {env.dim} != {m * p**2}")
    if not env.contains(displays[2]):
        problems.append("scalar-multiplication matrix outside the image algebra")
    return not problems, "; ".join(problems)


def _case_thm51_minpolys(p, seed):
    rng = random.Random(seed)
    field = GF(p)
    alpha = FieldElem(field, rng.randrange(1, p))
    beta = FieldElem(field, rng.randrange(p))
    degree = rng.randrange(1, 4)
    f = Poly(field, [rng.randrange(p) for _ in range(degree)] + [1])
    rep = build_companion_rep(alpha, beta, f)  # relations verified inside
    problems = []
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


def _run_case(args) -> CaseOutcome:
    func, key, kwargs = args
    try:
        ok, message = func(**kwargs)
    except (VerificationFailed, TooLarge):
        raise  # a library bug or a refused request, not a false property
    except Exception as exc:  # report, never crash the sweep
        ok, message = False, f"{type(exc).__name__}: {exc}"
    return CaseOutcome(case=key, inputs=dict(kwargs), ok=ok, message=message)


# -- case builders ------------------------------------------------------------
# Each takes (plist, nlist, mlist, seed) and returns (case function, key,
# inputs) triples; an empty list means every combination was over a limit.


def _seeded(func, combos, k, key, rng, same=False) -> list:
    """k cases of func per combination (a dict of inputs), each seeded from
    rng in order; case i has key.format(i=i, **combo) and, with `same`,
    the flag same = i % 2 == 0."""
    cases = []
    for combo in combos:
        for i in range(k):
            inputs = {**combo, "seed": rng.randrange(2**32)}
            if same:
                inputs["same"] = i % 2 == 0
            cases.append((func, key.format(i=i, **combo), inputs))
    return cases


def _line_capped(plist, mlist) -> list[dict]:
    """The (p, m) combinations where GF(p)^(pm) has at most 5,000 lines,
    the bound of the old exhaustive spin.  No computation needs it any
    more; cor23, sec4-restriction and thm51 keep it only because gate
    checks 07-09 pin the case counts it leaves (it drops (3, 3))."""
    return [{"p": p, "m": m} for p in plist for m in mlist
            if (p ** (p * m) - 1) // (p - 1) <= 5000]


def _all_codes(p: int, n: int):
    """Every alpha, betas, gammas code dict over GF(p) with alpha != 0."""
    for alpha in range(1, p):
        for betas in itertools.product(range(p), repeat=n):
            for gammas in itertools.product(range(p), repeat=n):
                yield {"alpha": alpha, "betas": list(betas), "gammas": list(gammas)}


_CODES_KEY = "p={p},n={n},alpha={alpha},betas={betas},gammas={gammas}"


def _per_irreducible(func, plist, rng) -> list:
    """One case of func per monic irreducible f of degree 2 (and 3 when
    p = 2), with alpha then beta drawn from rng."""
    cases = []
    for p in plist:
        for degree in [2, 3] if p == 2 else [2]:
            for f in _irreducible_polys(p, degree):
                cases.append((func, f"p={p},f={list(f.coeffs)}", {
                    "p": p, "fcodes": list(f.coeffs),
                    "alpha": rng.randrange(1, p), "beta": rng.randrange(p),
                }))
    return cases


def _build_prop21(plist, nlist, mlist, seed):
    cases = []
    for p in plist:
        for n in nlist:
            if p**n > _PROP21_MAX_DIM:
                continue  # case cost, see _PROP21_MAX_DIM
            if (p - 1) * p ** (2 * n) <= 64:
                codes = _all_codes(p, n)
            else:  # a seeded sample of 10
                rng = random.Random(seed * 1000003 + p * 101 + n)
                codes = [_random_codes(p, n, rng) for _ in range(10)]
            for code in codes:
                inputs = {"p": p, "n": n, **code}
                cases.append((_case_prop21, _CODES_KEY.format(**inputs), inputs))
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
            for code in _all_codes(p, n):
                inputs = {"p": p, "n": n, **code, "conj_seed": None}
                cases.append((_case_thm22, _CODES_KEY.format(**inputs), inputs))
            for i in range(50):
                inputs = {"p": p, "n": n, **_random_codes(p, n, rng)}
                inputs["conj_seed"] = rng.randrange(2**32)
                cases.append((_case_thm22, f"p={p},n={n},conjugate={i:02d}", inputs))
    return cases


def _build_cor24(plist, nlist, mlist, seed):
    # p^n <= 8 stays because gate check 03 pins the 100 cases it leaves
    combos = [{"p": p, "n": n} for p in plist for n in nlist if p**n <= 8]
    per_combo = max(1, round(100 / (len(combos) or 1)))
    return _seeded(_case_cor24, combos, per_combo, "p={p},n={n},pair={i:02d}",
                   random.Random(seed), same=True)


def _build_cor25(plist, nlist, mlist, seed):
    return _seeded(_case_cor25, [{"p": p} for p in plist],
                   max(1, round(100 / len(plist))), "p={p},triple={i:02d}",
                   random.Random(seed), same=True)


def _build_sec3(plist, nlist, mlist, seed):
    cases = []
    for p in plist:
        for n in nlist:
            if n == 1:
                for d in (2, 3):
                    cases.append((_case_sec3_search, f"p={p},d={d}", {"p": p, "d": d}))
            else:
                key = f"p={p},n={n},d={n + 2}"
                cases.append((_case_sec3_witness, key, {"p": p, "n": n}))
    return cases


def _build_sec4(plist, nlist, mlist, seed):
    if min(mlist) < 2:  # degree 1 puts t = X at the root 0 of the modulus X
        raise ValueError("sec4-restriction needs m >= 2")
    return _seeded(_case_sec4, _line_capped(plist, mlist), 5,
                   "p={p},m={m},case={i}", random.Random(seed))


def _build_thm51(plist, nlist, mlist, seed):
    rng = random.Random(seed)
    minpolys = _seeded(_case_thm51_minpolys, [{"p": p} for p in plist],
                       max(1, round(20 / len(plist))), "p={p},minpolys={i:02d}",
                       rng)
    irreducible = _per_irreducible(_case_thm51_irreducible, plist, rng)
    return minpolys + irreducible + _seeded(
        _case_thm51_uniserial, _line_capped(plist, mlist), 3,
        "p={p},m={m},uniserial={i}", rng,
    )


class _Suite(NamedTuple):
    anchor: str  # the statement the suite re-derives
    p: list  # default ranges
    n: list
    m: list
    build: Callable  # (plist, nlist, mlist, seed) -> case triples


_SUITES = {
    "prop21": _Suite(
        "Prop 2.1(3): V_{alpha,beta,gamma} is a faithful irreducible"
        " module of dimension p^n with scalar central action",
        [2, 3, 5], [1, 2], [1], _build_prop21,
    ),
    "thm22": _Suite(
        "Thm 2.2: every faithful p^n-dimensional module is equivalent"
        " to a V_{alpha,beta,gamma}, recovered by classify",
        [2, 3], [1, 2], [1], _build_thm22,
    ),
    "cor23": _Suite(
        "Cor 2.3: a faithful irreducible module has dimension p^n * m",
        [2, 3], [1], [2, 3],
        lambda plist, nlist, mlist, seed: _seeded(
            _case_cor23, _line_capped(plist, mlist), 5,
            "p={p},m={m},case={i}", random.Random(seed),
        ),
    ),
    "cor24": _Suite(
        "Cor 2.4(3): faithful p^n-dimensional modules are isomorphic"
        " iff their invariant tuples agree",
        [2, 3, 5], [1, 2], [1], _build_cor24,
    ),
    "cor25": _Suite(
        "Cor 2.5: triples with [A,B] = C = alpha*I are simultaneously"
        " similar iff their determinant triples agree",
        [3, 5], [1], [1], _build_cor25,
    ),
    "cor26": _Suite(
        "Cor 2.6: D is similar to the companion matrix of X^p - det(D)",
        [2, 3, 5], [1], [1],
        lambda plist, nlist, mlist, seed: _seeded(
            _case_cor26, [{"p": p} for p in plist], 100, "p={p},deltas={i:03d}",
            random.Random(seed),
        ),
    ),
    "ex27": _Suite(
        "Ex 2.7: delta = (1,0,...,0) gives companion(X^2 - alpha) for"
        " p = 2 and a nilpotent D for p > 2",
        [2, 3, 5], [1], [1],
        lambda plist, nlist, mlist, seed: [
            (_case_ex27, f"p={p},alpha={a}", {"p": p, "alpha": a})
            for p in plist for a in range(1, p)
        ],
    ),
    "sec3-min-dim": _Suite(
        "Sec 3: the minimum faithful dimension is n + 2, except"
        " 2 for n = 1 in characteristic 2",
        [2, 3, 5], [1], [1], _build_sec3,
    ),
    "sec4-restriction": _Suite(
        "Sec 4: restriction of scalars along GF(p^m)/GF(p)"
        " preserves irreducibility under condition (C)",
        [2, 3], [1], [2, 3],
        _build_sec4,
    ),
    "thm51": _Suite(
        "Thm 5.1: companion modules realize the stated minimal"
        " polynomials; irreducible f gives an irreducible module;"
        " f = (X - gamma^p)^m gives a uniserial module with m factors",
        [2, 3], [1], [2, 3], _build_thm51,
    ),
    "note52": _Suite(
        "Note 5.2: over a splitting field the companion module is a"
        " direct sum of pairwise distinct V_{alpha,beta,gamma_i}",
        [2, 3], [1], [1],
        lambda plist, nlist, mlist, seed: _per_irreducible(
            _case_note52, plist, random.Random(seed)
        ),
    ),
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suite(name, p=None, n=None, m=None, seed=0, jobs=1) -> Report:
    """Run a named suite and aggregate its cases into a Report.

    Ranges default per suite; explicit lists are validated (primes for p,
    positive ranks and degrees).  Cases are deterministic given the seed
    and independent, so they run on min(jobs, cases, CPUs) processes.
    A case that raises VerificationFailed or TooLarge checked nothing, so
    the error propagates instead of being reported as a failed case.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    suite = _SUITES[name]
    plist = list(p or suite.p)
    nlist = list(n or suite.n)
    mlist = list(m or suite.m)
    for prime in plist:
        if not is_prime(prime):
            raise ValueError(f"p = {prime} is not prime")
    if any(v < 1 for v in nlist) or any(v < 1 for v in mlist):
        raise ValueError("n and m ranges must be positive")
    if jobs < 1:
        raise ValueError(f"jobs = {jobs} must be at least 1")
    cases = suite.build(plist, nlist, mlist, seed)
    if not cases:
        raise ValueError("requested ranges are above desk scale")
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
        anchor=suite.anchor,
        cases_run=len(outcomes),
        cases_passed=len(outcomes) - len(failures),
        failures=failures,
        wall_time=time.perf_counter() - start,
        outcomes=outcomes,
    )
