"""Tests for the Heisenberg algebra representations and their classification.

The fixed-display tests pin the matrix conventions (superdiagonal i*alpha in
the x blocks, subdiagonal ones in the y blocks, x_1 as the most significant
Kronecker factor) so that serialized output stays stable.  Classification is
tested by round trip: build a module from known parameters, scramble it by a
random change of basis, and demand the original parameters back along with a
change of basis that is re-verified generator by generator.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from heisenmod import heisenberg, matrices
from heisenmod import (
    GF,
    AlgebraError,
    DegreeMismatch,
    FieldElem,
    HeisenbergAlgebra,
    InvariantTuple,
    Matrix,
    MinPolyShape,
    MixedFields,
    ModuleParams,
    NonMonic,
    NotScalarCenter,
    Poly,
    RelationViolated,
    Representation,
    ShapeMismatch,
    VerificationFailed,
    WrongDeltaCount,
    WrongDimension,
    ZeroAlpha,
    build_companion_rep,
    build_D,
    build_M,
    build_restriction_rep,
    build_standard,
    build_V,
    canonical_pair,
    classify,
    conjugate_rep,
    direct_sum,
    direct_sum_reps,
    find_irreducible,
    invariants,
    jordan_block,
    kron,
    make_extension,
    min_poly,
    regular_matrix,
    triple_similarity,
    validate_rep,
)
from oracles import (
    oracle_classify,
    oracle_common_eigenvector,
    oracle_invariants,
    oracle_restriction,
    oracle_rref,
)


def ext(p, m):
    return make_extension(p, find_irreducible(p, m))


def rand_invertible(field, n, rng):
    while True:
        m = Matrix(field, n, n, [rng.randrange(field.order) for _ in range(n * n)])
        if not m.det().is_zero():
            return m


def params_of(field, alpha, betas, gammas):
    e = field.element
    return ModuleParams(e(alpha), [e(b) for b in betas], [e(g) for g in gammas])


def all_params(field, n):
    codes = range(field.order)
    for a in range(1, field.order):
        for bg in itertools.product(codes, repeat=2 * n):
            yield params_of(field, a, bg[:n], bg[n:])


# -- the algebra itself ---------------------------------------------------------


def test_algebra_dimension_and_labels():
    alg = HeisenbergAlgebra(2, GF(3))
    assert alg.dim == 5
    assert alg.basis_labels() == ["x1", "x2", "y1", "y2", "z"]
    assert alg == HeisenbergAlgebra(2, GF(3))
    assert alg != HeisenbergAlgebra(1, GF(3))
    with pytest.raises(ValueError):
        HeisenbergAlgebra(0, GF(3))


def test_module_params_validation():
    field = GF(3)
    e = field.element
    with pytest.raises(ZeroAlpha):
        ModuleParams(e(0), [e(1)], [e(1)])
    with pytest.raises(ValueError):
        ModuleParams(e(1), [e(1), e(2)], [e(1)])
    with pytest.raises(ValueError):
        ModuleParams(e(1), [], [])
    with pytest.raises(MixedFields):
        ModuleParams(e(1), [GF(5).element(1)], [e(1)])


def test_module_params_invariants_are_pth_powers():
    field = GF(5)
    params = params_of(field, 2, [3], [4])
    inv = params.invariants()
    assert inv.alpha == field.element(2)
    assert inv.deltas == (field.element(3) ** 5,)
    assert inv.epsilons == (field.element(4) ** 5,)


# -- display conventions ----------------------------------------------------------


def test_build_M_display():
    field = GF(3)
    m = build_M(3, field.one(), field.zero())
    assert m.row_lists() == [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    m2 = build_M(3, field.element(2), field.element(1))
    assert m2.row_lists() == [[1, 2, 0], [0, 1, 1], [0, 0, 1]]
    with pytest.raises(ValueError):
        build_M(5, field.one(), field.zero())
    with pytest.raises(MixedFields):
        build_M(3, field.one(), GF(5).zero())


def test_build_V_rank_one_blocks():
    field = GF(3)
    alg = HeisenbergAlgebra(1, field)
    params = params_of(field, 1, [0], [0])
    rep = build_V(alg, params)
    assert rep.dim == 3
    assert rep.x[0].row_lists() == [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    assert rep.y[0].row_lists() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert rep.z == Matrix.identity(field, 3)
    assert validate_rep(rep).ok


def test_build_V_kronecker_order():
    # x_1 is the most significant tensor factor: its block pattern is
    # coarse, x_2's repeats within each diagonal block
    field = GF(2)
    alg = HeisenbergAlgebra(2, field)
    rep = build_V(alg, params_of(field, 1, [0, 0], [0, 0]))
    assert rep.dim == 4
    assert rep.x[0].row_lists() == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    assert rep.x[1].row_lists() == [
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]
    m = build_M(2, field.one(), field.zero())
    eye = Matrix.identity(field, 2)
    assert rep.x[0] == kron(m, eye)
    assert rep.x[1] == kron(eye, m)
    assert validate_rep(rep).ok


def test_build_V_rejects_mismatched_parameters():
    field = GF(3)
    alg = HeisenbergAlgebra(2, field)
    with pytest.raises(ShapeMismatch):
        build_V(alg, params_of(field, 1, [0], [0]))
    with pytest.raises(MixedFields):
        build_V(alg, params_of(GF(5), 1, [0, 0], [0, 0]))


def test_build_D_display():
    field = GF(3)
    e = field.element
    d = build_D(3, e(1), [e(1), e(0)])
    assert d.row_lists() == [[0, 1, 0], [1, 0, 2], [0, 1, 0]]
    d2 = build_D(3, e(2), [e(1), e(2)])
    assert d2.row_lists() == [[0, 2, 0], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(WrongDeltaCount):
        build_D(3, e(1), [e(1)])
    with pytest.raises(ZeroAlpha):
        build_D(3, e(0), [e(1), e(0)])
    with pytest.raises(ValueError):
        build_D(5, e(1), [e(1), e(0)])


def test_build_standard_structure():
    for p, n in [(2, 1), (3, 2), (5, 3)]:
        field = GF(p)
        rep = build_standard(HeisenbergAlgebra(n, field))
        assert rep.dim == n + 2
        assert validate_rep(rep).ok
        assert rep.is_faithful()
        for m in rep.gen_matrices():
            # strictly upper triangular
            for i in range(rep.dim):
                for j in range(i + 1):
                    assert m.code_at(i, j) == 0
        assert rep.z.code_at(0, rep.dim - 1) == 1


# -- validation ------------------------------------------------------------------


def test_validate_rep_reports_specific_violations():
    field = GF(3)
    rep = build_V(HeisenbergAlgebra(2, field), params_of(field, 1, [0, 1], [2, 0]))
    report = validate_rep(rep)
    assert report.ok and report.faithful
    assert report.z_scalar == field.one()

    broken = Representation(rep.algebra, [rep.x[1], rep.x[0]], rep.y, rep.z)
    report = validate_rep(broken)
    assert not report.ok
    assert "[x1, y1] != z" in report.violations
    assert "[x2, y1] != 0" in report.violations


def test_zero_rep_is_valid_but_not_faithful():
    field = GF(5)
    z = Matrix.zeros(field, 2, 2)
    rep = Representation(HeisenbergAlgebra(1, field), [z], [z], z)
    report = validate_rep(rep)
    assert report.ok
    assert not report.faithful
    assert not rep.is_faithful()
    assert report.z_scalar == field.zero()


def test_representation_shape_checks():
    field = GF(2)
    alg = HeisenbergAlgebra(1, field)
    eye = Matrix.identity(field, 2)
    with pytest.raises(ShapeMismatch):
        Representation(alg, [eye, eye], [eye], eye)
    with pytest.raises(ShapeMismatch):
        Representation(alg, [Matrix.identity(field, 3)], [eye], eye)
    with pytest.raises(MixedFields):
        Representation(alg, [Matrix.identity(GF(3), 2)], [eye], eye)


# -- invariants and classification --------------------------------------------


def test_invariants_match_parameter_pth_powers():
    for field in [GF(2), GF(3), ext(2, 2)]:
        alg = HeisenbergAlgebra(1, field)
        for params in all_params(field, 1):
            rep = build_V(alg, params)
            assert invariants(rep) == params.invariants()


def test_invariants_are_conjugation_invariant():
    rng = random.Random(21)
    field = GF(3)
    alg = HeisenbergAlgebra(2, field)
    for _ in range(10):
        params = params_of(
            field,
            rng.randrange(1, 3),
            [rng.randrange(3) for _ in range(2)],
            [rng.randrange(3) for _ in range(2)],
        )
        rep = build_V(alg, params)
        t = rand_invertible(field, rep.dim, rng)
        assert invariants(conjugate_rep(rep, t)) == params.invariants()


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=str)
def test_classify_round_trips_exhaustively_rank_one(field):
    alg = HeisenbergAlgebra(1, field)
    for params in all_params(field, 1):
        got, t = classify(build_V(alg, params))
        assert got == params
        assert t == Matrix.identity(field, field.p)  # already in model form


def test_classify_undoes_random_conjugation():
    rng = random.Random(22)
    for field, n in [(GF(2), 2), (GF(3), 1), (GF(3), 2), (ext(2, 2), 1)]:
        alg = HeisenbergAlgebra(n, field)
        for _ in range(6):
            params = params_of(
                field,
                rng.randrange(1, field.order),
                [rng.randrange(field.order) for _ in range(n)],
                [rng.randrange(field.order) for _ in range(n)],
            )
            rep = build_V(alg, params)
            g = rand_invertible(field, rep.dim, rng)
            scrambled = conjugate_rep(rep, g)
            got, t = classify(scrambled)
            assert got == params
            # classify verifies t internally; check independently anyway
            model = build_V(alg, params)
            ti = t.inv()
            for m, want in zip(scrambled.gen_matrices(), model.gen_matrices()):
                assert ti * m * t == want


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (3, 6)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_matches_stacked_kernel_oracle(spec, n, monkeypatch):
    # the eigenvector from the nilpotent parts is the one an elimination of
    # the stacked x_k - beta_k returns, so params and t agree to the byte
    p, m = spec
    field = GF(p) if m == 1 else ext(p, m)
    alg = HeisenbergAlgebra(n, field)
    rng = random.Random(f"{spec}-{n}")
    cases = []
    for _ in range(3):
        params = params_of(
            field,
            rng.randrange(1, field.order),
            [rng.randrange(field.order) for _ in range(n)],
            [rng.randrange(field.order) for _ in range(n)],
        )
        rep = build_V(alg, params)
        scrambled = conjugate_rep(rep, rand_invertible(field, rep.dim, rng))
        cases.append((params, scrambled, classify(scrambled)))
    monkeypatch.setattr(heisenberg, "_common_eigenvector", oracle_common_eigenvector)
    for params, scrambled, (got, t) in cases:
        want, want_t = classify(scrambled)
        assert got == want == params
        assert t.data == want_t.data


ORACLE_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (5, 2), (3, 6)]


def field_of(spec):
    p, m = spec
    return GF(p) if m == 1 else ext(p, m)


@pytest.mark.parametrize("spec", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_matches_invariants_first_oracle(spec, n):
    # parameters read from x_k^p e_0 are the ones invariants reads from
    # the full powers, so params and t agree to the byte; GF(3^6) is
    # table-free
    field = field_of(spec)
    alg = HeisenbergAlgebra(n, field)
    rng = random.Random(f"oracle-{spec}-{n}")
    params = params_of(
        field,
        rng.randrange(1, field.order),
        [rng.randrange(field.order) for _ in range(n)],
        [rng.randrange(field.order) for _ in range(n)],
    )
    rep = build_V(alg, params)
    for case in (rep, conjugate_rep(rep, rand_invertible(field, rep.dim, rng))):
        got, t = classify(case)
        want, want_t = oracle_classify(case)
        assert got == want == params
        assert t.data == want_t.data


def non_v_inputs():
    """Inputs classify must refuse: (label, representation)."""
    f3, f2 = GF(3), GF(2)
    h1 = HeisenbergAlgebra(1, f3)
    eye = Matrix.identity(f3, 3)
    diag = Matrix.from_rows(f3, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    n_block = Matrix.from_rows(f2, [[0, 0], [1, 0]])
    nil = direct_sum([n_block, n_block])
    v3 = build_V(h1, params_of(f3, 1, [2], [1]))
    out = [
        ("semisimple x", Representation(h1, [diag], [eye], eye)),
        ("scalar x", Representation(h1, [eye], [diag], eye)),
        ("semisimple y", Representation(h1, [v3.x[0]], [diag], v3.z)),
        ("product 0", Representation(
            HeisenbergAlgebra(2, f2), [nil, nil], [nil, nil],
            Matrix.identity(f2, 4))),
        ("non-scalar z", build_standard(h1)),
        ("wrong dimension", direct_sum_reps([v3, v3])),
    ]
    rng = random.Random(31)
    for spec, n in [((2, 1), 2), ((3, 1), 1), ((3, 1), 2), ((5, 1), 1),
                    ((2, 2), 2), ((3, 6), 1)]:
        field = field_of(spec)
        alg = HeisenbergAlgebra(n, field)
        params = params_of(
            field,
            rng.randrange(1, field.order),
            [rng.randrange(field.order) for _ in range(n)],
            [rng.randrange(field.order) for _ in range(n)],
        )
        rep = conjugate_rep(build_V(alg, params), rand_invertible(field, field.p**n, rng))
        gens = rep.gen_matrices()
        for _ in range(4):
            which, pos = rng.randrange(2 * n), rng.randrange(rep.dim**2)
            data = list(gens[which].data)
            data[pos] = field.add(data[pos], rng.randrange(1, field.order))
            moved = list(gens)
            moved[which] = Matrix(field, rep.dim, rep.dim, data)
            out.append((f"perturbed {field} {which}", Representation(
                alg, moved[:n], moved[n : 2 * n], moved[-1])))
        # x and y of one module in two different bases
        other = conjugate_rep(rep, rand_invertible(field, rep.dim, rng))
        out.append((f"mixed bases {field}", Representation(alg, rep.x, other.y, rep.z)))
    return out


def test_classify_refuses_non_v_like_the_oracle():
    # the same exception as the invariants-first classify: the min-poly
    # shape error where invariants raises it, else the same failed check
    seen, messages = set(), set()
    for label, rep in non_v_inputs():
        with pytest.raises((AlgebraError, VerificationFailed)) as want:
            oracle_classify(rep)
        with pytest.raises((AlgebraError, VerificationFailed)) as got:
            classify(rep)
        assert got.type is want.type, label
        assert str(got.value) == str(want.value), label
        seen.add(want.type)
        if want.type is VerificationFailed:
            messages.add(str(want.value))
    assert seen == {MinPolyShape, VerificationFailed, NotScalarCenter, WrongDimension}
    # classify computes det t only after a relation fails, to pick the message
    assert {"classification basis must be invertible",
            "classification transform failed to verify"} <= messages


def outcome(run, rep):
    """(params, t.data) of a classification, or its exception's type and text."""
    try:
        params, t = run(rep)
    except (AlgebraError, VerificationFailed) as err:
        return type(err), str(err)
    return params, t.data


def test_classify_agrees_with_the_oracle_on_arbitrary_images():
    # every (x, y) over GF(2) with z = I, and seeded x, y over GF(3) with
    # z = alpha I: most fail, some on a singular basis, some on a relation
    # with t invertible; classify skips det t unless a relation fails, yet
    # gives the oracle's parameters and t or its exception and message
    f2, f3 = GF(2), GF(3)
    squares = [Matrix(f2, 2, 2, list(e)) for e in itertools.product(range(2), repeat=4)]
    inputs = [Representation(HeisenbergAlgebra(1, f2), [x], [y], Matrix.identity(f2, 2))
              for x in squares for y in squares]
    rng = random.Random("arbitrary-gf3")
    h1 = HeisenbergAlgebra(1, f3)
    for _ in range(3000):
        x, y = (Matrix(f3, 3, 3, [rng.randrange(3) for _ in range(9)]) for _ in "xy")
        inputs.append(Representation(h1, [x], [y], Matrix.scalar(f3, 3, f3.element(rng.randrange(1, 3)))))
    kinds = set()
    for rep in inputs:
        want = outcome(oracle_classify, rep)
        assert outcome(classify, rep) == want, rep.gen_matrices()
        if isinstance(want[0], ModuleParams):
            kinds.add("classified")
        elif want[0] is VerificationFailed:
            kinds.add(want[1])
    assert kinds == {"classified", "classification basis must be invertible",
                     "classification transform failed to verify"}


def random_scrambled_v(field, n, rng):
    """(params, V(params) moved by a random invertible matrix)."""
    params = params_of(
        field,
        rng.randrange(1, field.order),
        [rng.randrange(field.order) for _ in range(n)],
        [rng.randrange(field.order) for _ in range(n)],
    )
    alg = HeisenbergAlgebra(n, field)
    return params, conjugate_rep(build_V(alg, params), rand_invertible(field, field.p**n, rng))


def test_invariants_agree_with_the_full_power_oracle():
    # invariants reads each g as c + nil and tests nil^p = 0 != nil^(p-1);
    # oracle_invariants forms g^p and (g - delta^(1/p))^(p-1): the same
    # tuple, or the same exception and message
    rng = random.Random("full-power")
    inputs = [rep for _, rep in non_v_inputs()]
    for spec in ORACLE_FIELDS + [(7, 1)]:
        for n in (1, 2):
            inputs.append(random_scrambled_v(field_of(spec), n, rng)[1])
    kinds = set()
    for rep in inputs:
        try:
            want = oracle_invariants(rep)
        except AlgebraError as err:
            with pytest.raises(type(err)) as got:
                invariants(rep)
            assert str(got.value) == str(err)
            kinds.add(str(err) if type(err) is MinPolyShape else type(err))
        else:
            assert invariants(rep) == want
            kinds.add(InvariantTuple)
    assert {InvariantTuple, NotScalarCenter, WrongDimension,
            "minimal polynomial of x1 is not X^3 - c",
            "minimal polynomial of x1 divides X^3 - c properly"} <= kinds


def test_invariants_forms_no_pth_power(monkeypatch):
    # the only powers are nil^(p-1) of the nilpotent parts g - c; no g^p
    field = GF(5)
    _, rep = random_scrambled_v(field, 2, random.Random("no-power"))
    want, plain_pow, exponents = oracle_invariants(rep), Matrix.__pow__, []

    def pow_(self, e):
        exponents.append(e)
        return plain_pow(self, e)

    monkeypatch.setattr(Matrix, "__pow__", pow_)
    assert invariants(rep) == want
    assert exponents == [field.p - 1] * 4


@pytest.mark.parametrize("spec", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_computes_no_determinant_on_success(spec, n, monkeypatch):
    # the x relations prove t invertible, so no elimination runs when
    # classification succeeds; the oracle's rref confirms full rank
    field = field_of(spec)
    params, rep = random_scrambled_v(field, n, random.Random(f"no-det-{spec}-{n}"))
    want, want_t = oracle_classify(rep)

    def no_elimination(*args, **kwargs):
        raise AssertionError("elimination on classify's success path")

    monkeypatch.setattr(Matrix, "det", no_elimination)
    monkeypatch.setattr(matrices, "_eliminate", no_elimination)
    got, t = classify(rep)
    assert got == want == params
    assert t.data == want_t.data
    assert len(oracle_rref(field, t.row_lists(), t.cols)[1]) == rep.dim


@pytest.mark.parametrize("spec,n", [((2, 1), 2), ((3, 1), 1)], ids=str)
def test_classify_refuses_every_single_entry_change(spec, n):
    # the check compares (g - c) t with t's columns moved and scaled and
    # leaves z to _parts; every single-entry change of every
    # generator, z included, breaks a relation or the scalar centre, so no
    # such input is a V and classify must raise, never return a transform
    field = field_of(spec)
    _, rep = random_scrambled_v(field, n, random.Random(f"single-{spec}-{n}"))
    gens, d = rep.gen_matrices(), rep.dim
    refused = (VerificationFailed, MinPolyShape, NotScalarCenter, WrongDimension)
    for which, pos, delta in itertools.product(
            range(2 * n + 1), range(d * d), range(1, field.order)):
        data = list(gens[which].data)
        data[pos] = field.add(data[pos], delta)
        moved = list(gens)
        moved[which] = Matrix(field, d, d, data)
        changed = Representation(rep.algebra, moved[:n], moved[n : 2 * n], moved[-1])
        report = validate_rep(changed)
        assert report.violations or report.z_scalar is None
        with pytest.raises(refused):
            classify(changed)


AGREEMENT_CASES = ([((p, 1), n) for p in (2, 3, 5, 7) for n in (1, 2)]
                   + [((p, 2), n) for p in (2, 3) for n in (1, 2)] + [((3, 6), 1)])


@pytest.mark.parametrize("spec,n", AGREEMENT_CASES, ids=str)
def test_classify_agrees_with_the_model_building_oracle(spec, n):
    # oracle_classify still builds build_V(params) and checks m t == t model
    # for every generator; the digit scale dig*alpha != alpha of the x check
    # needs p >= 3
    field = field_of(spec)
    alg = HeisenbergAlgebra(n, field)
    rng = random.Random(f"agree-{spec}-{n}")
    for _ in range(3):
        params, scrambled = random_scrambled_v(field, n, rng)
        got, t = classify(scrambled)
        want, want_t = oracle_classify(scrambled)
        assert got == want == params
        assert t.data == want_t.data
        ti = t.inv()
        for m, g in zip(scrambled.gen_matrices(), build_V(alg, params).gen_matrices()):
            assert ti * m * t == g


def test_classify_builds_no_model_and_multiplies_no_z(monkeypatch):
    # z is settled by _parts and the model by t's own columns
    field = GF(3)
    params, rep = random_scrambled_v(field, 2, random.Random("no-model"))
    plain_mul = Matrix.__mul__

    def mul(self, other):
        assert self is not rep.z and other is not rep.z
        return plain_mul(self, other)

    def no_model(*args):
        raise AssertionError("build_V called")

    monkeypatch.setattr(Matrix, "__mul__", mul)
    monkeypatch.setattr(heisenberg, "build_V", no_model)
    assert classify(rep)[0] == params


def test_classify_refuses_a_vanishing_nilpotent_product():
    # x_1 = x_2 = N with N^2 = 0 passes invariants, but N * N = 0 has no
    # rank 1 as on V; the check must raise, not assert
    field = GF(2)
    n_block = Matrix.from_rows(field, [[0, 0], [1, 0]])
    nil = direct_sum([n_block, n_block])
    eye = Matrix.identity(field, 4)
    rep = Representation(HeisenbergAlgebra(2, field), [nil, nil], [nil, nil], eye)
    with pytest.raises(VerificationFailed, match="product 0"):
        classify(rep)


def test_classify_rejects_non_scalar_center():
    rep = build_standard(HeisenbergAlgebra(1, GF(3)))
    with pytest.raises(NotScalarCenter):
        classify(rep)


def test_classify_rejects_wrong_dimension():
    field = GF(3)
    alg = HeisenbergAlgebra(1, field)
    rep = build_V(alg, params_of(field, 1, [0], [0]))
    doubled = direct_sum_reps([rep, rep])
    with pytest.raises(WrongDimension):
        classify(doubled)


def test_classify_rejects_bad_min_poly_shape():
    field = GF(3)
    alg = HeisenbergAlgebra(1, field)
    eye = Matrix.identity(field, 3)
    diag = Matrix.from_rows(field, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(MinPolyShape):
        # semisimple x: minimal polynomial X^3 - X, wrong shape
        invariants(Representation(alg, [diag], [eye], eye))
    with pytest.raises(MinPolyShape):
        # scalar x: minimal polynomial is linear, degree too small
        invariants(Representation(alg, [eye], [diag], eye))


# -- conjugation and direct sums -------------------------------------------------


def test_conjugate_rep_preserves_relations():
    rng = random.Random(23)
    field = GF(5)
    rep = build_V(HeisenbergAlgebra(1, field), params_of(field, 2, [1], [3]))
    t = rand_invertible(field, 5, rng)
    moved = conjugate_rep(rep, t)
    assert validate_rep(moved).ok
    assert moved.z == rep.z  # scalar center is fixed by conjugation
    back = conjugate_rep(moved, t.inv())
    assert back == rep


def test_direct_sum_reps_blocks():
    field = GF(2)
    alg = HeisenbergAlgebra(1, field)
    r1 = build_V(alg, params_of(field, 1, [0], [1]))
    r2 = build_V(alg, params_of(field, 1, [1], [0]))
    s = direct_sum_reps([r1, r2])
    assert s.dim == 4
    assert validate_rep(s).ok
    assert s.x[0].row_lists()[0][:2] == r1.x[0].row_lists()[0]
    assert s.z == Matrix.identity(field, 4)


# -- companion modules ------------------------------------------------------------


def test_build_companion_rep_min_polys():
    field = GF(3)
    e = field.element
    f = Poly(field, [1, 0, 1])  # X^2 + 1, irreducible over GF(3)
    rep = build_companion_rep(e(1), e(2), f)
    assert rep.dim == 6
    assert validate_rep(rep).ok and rep.is_faithful()
    # x is a direct sum of basic blocks: min poly X^3 - 2^3
    assert min_poly(rep.x[0]) == Poly(field, [-(e(2) ** 3), 0, 0, 1])
    # y is the companion of f(X^3)
    assert min_poly(rep.y[0]) == f.inflate(3)
    assert rep.z == Matrix.scalar(field, 6, 1)


def test_build_companion_rep_rejects_bad_input():
    field = GF(3)
    e = field.element
    with pytest.raises(NonMonic):
        build_companion_rep(e(1), e(0), Poly(field, [1, 2]))
    with pytest.raises(NonMonic):
        build_companion_rep(e(1), e(0), Poly(field, [2]))
    with pytest.raises(ZeroAlpha):
        build_companion_rep(e(0), e(1), Poly(field, [0, 1]))
    with pytest.raises(MixedFields):
        build_companion_rep(e(1), GF(2).one(), Poly(field, [0, 1]))


def test_builders_check_their_result_with_verify(monkeypatch):
    # the result checks must survive python -O, so they cannot be asserts
    monkeypatch.setattr(
        heisenberg, "validate_rep", lambda rep: SimpleNamespace(ok=False)
    )
    field = GF(2)
    with pytest.raises(VerificationFailed, match="companion"):
        build_companion_rep(field.one(), field.zero(), Poly(field, [1, 1, 1]))
    with pytest.raises(VerificationFailed, match="restriction"):
        build_restriction_rep(
            2, Poly(field, [1, 1, 1]), [Poly.x(field)], [Poly(field, [1])]
        )


# -- restriction to the prime field ----------------------------------------------


def test_build_restriction_rep_display():
    # p = 2, K = GF(4) with t^2 = t + 1, f = X, g = 1: every block is the
    # multiplication matrix of a K-entry in the basis (1, t)
    field = GF(2)
    q = Poly(field, [1, 1, 1])
    rep = build_restriction_rep(2, q, [Poly.x(field)], [Poly(field, [1])])
    assert rep.dim == 4
    assert rep.x[0].row_lists() == [
        [0, 1, 0, 1],
        [1, 1, 1, 1],
        [0, 0, 0, 1],
        [0, 0, 1, 1],
    ]
    assert rep.y[0].row_lists() == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
    assert rep.z.row_lists() == [
        [0, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 1],
    ]
    assert validate_rep(rep).ok and rep.is_faithful()


def test_build_restriction_rep_input_checks():
    field = GF(2)
    q = Poly(field, [1, 1, 1])
    x = Poly.x(field)
    with pytest.raises(ValueError):
        build_restriction_rep(2, q, [x], [])
    with pytest.raises(MixedFields):
        build_restriction_rep(2, q, [Poly.x(GF(3))], [x])
    K = make_extension(2, q)
    with pytest.raises(DegreeMismatch):
        # alpha = 1 generates only the prime field
        build_restriction_rep(2, q, [x], [x], alpha=K.one())


@pytest.mark.parametrize("p, m, alpha", [
    (2, 2, [1, 1]),     # t + 1 over GF(4)
    (2, 3, [0, 0, 1]),  # t^2 over GF(8)
    (2, 3, [1, 0, 1]),  # t^2 + 1 over GF(8)
    (3, 2, [2, 1]),     # t + 2 over GF(9)
], ids=str)
def test_build_restriction_rep_with_another_alpha_matches_the_oracle(p, m, alpha):
    # every block in the basis 1, alpha, ..., alpha^(m-1) of this alpha,
    # not of the class t of X
    F, q = GF(p), find_irreducible(p, m)
    K = make_extension(p, q)
    alpha = K.element(alpha)
    rng = random.Random(p * m)
    fs = [Poly(F, [rng.randrange(p) for _ in range(m)]) for _ in range(2)]
    gs = [Poly(F, [rng.randrange(p) for _ in range(m)]) for _ in range(2)]
    rep = build_restriction_rep(p, q, fs, gs, alpha=alpha)
    over_K = build_V(HeisenbergAlgebra(2, K), ModuleParams(
        alpha, [f(alpha) for f in fs], [g(alpha) for g in gs]))
    assert rep.dim == p**2 * m
    for got, entries in zip(rep.gen_matrices(), over_K.gen_matrices()):
        assert got == oracle_restriction(alpha, entries)


def test_regular_matrix_is_a_ring_homomorphism():
    K = ext(3, 2)
    F = GF(3)
    basis = Matrix.from_columns(
        F, [list(K.coeffs_of(1)), list(K.coeffs_of(K.generator().code))]
    )
    rng = random.Random(24)
    for _ in range(20):
        a = FieldElem(K, rng.randrange(9))
        b = FieldElem(K, rng.randrange(9))
        ra, rb = regular_matrix(K, a, basis), regular_matrix(K, b, basis)
        assert ra * rb == regular_matrix(K, a * b, basis)
        assert ra + rb == regular_matrix(K, a + b, basis)
    assert regular_matrix(K, K.one(), basis) == Matrix.identity(F, 2)
    with pytest.raises(MixedFields):
        regular_matrix(K, F.one(), basis)


# -- matrix triples ---------------------------------------------------------------


def make_triple(field, alpha, beta, gamma, t=None):
    p = field.p
    a = build_M(p, alpha, beta)
    b = jordan_block(field, gamma, p)
    c = Matrix.scalar(field, p, alpha)
    if t is not None:
        ti = t.inv()
        a, b, c = ti * a * t, ti * b * t, ti * c * t
    return a, b, c


def test_canonical_pair_reaches_the_normal_forms():
    rng = random.Random(25)
    for field in [GF(2), GF(3), GF(5)]:
        e = field.element
        for _ in range(8):
            alpha = e(rng.randrange(1, field.p))
            beta, gamma = e(rng.randrange(field.p)), e(rng.randrange(field.p))
            t = rand_invertible(field, field.p, rng)
            a, b, c = make_triple(field, alpha, beta, gamma, t)
            a_form, b_form, x = canonical_pair(a, b, c)
            assert a_form == build_M(field.p, alpha, beta)
            assert b_form == jordan_block(field, gamma, field.p)
            xi = x.inv()
            assert xi * a * x == a_form and xi * b * x == b_form


def test_canonical_pair_rejects_broken_triples():
    field = GF(3)
    e = field.element
    p = 3
    a, b, c = make_triple(field, e(1), e(0), e(0))
    with pytest.raises(RelationViolated):
        canonical_pair(a, b, Matrix.scalar(field, p, 2))
    with pytest.raises(RelationViolated):
        canonical_pair(a, a, Matrix.zeros(field, p, p))
    with pytest.raises(WrongDimension):
        eye = Matrix.identity(field, 2)
        canonical_pair(eye, eye, eye)


def test_triple_similarity_decides_by_determinants():
    rng = random.Random(26)
    field = GF(5)
    e = field.element
    t1 = make_triple(field, e(2), e(1), e(3), rand_invertible(field, 5, rng))
    t2 = make_triple(field, e(2), e(1), e(3), rand_invertible(field, 5, rng))
    x = triple_similarity(t1, t2)
    assert x is not None
    xi = x.inv()
    for m1, m2 in zip(t1, t2):
        assert xi * m1 * x == m2
    # determinants encode (alpha, beta^p, gamma^p); change gamma -> not similar
    t3 = make_triple(field, e(2), e(1), e(4), rand_invertible(field, 5, rng))
    assert triple_similarity(t1, t3) is None
    assert t1[1].det() != t3[1].det()  # the b determinants tell them apart
    assert (t1[0].det(), t1[2].det()) == (t3[0].det(), t3[2].det())


def test_triple_similarity_classifies_each_triple_once(monkeypatch):
    # one relation check and one classify per triple, and no model built;
    # x is the one the canonical_pair transforms give
    rng = random.Random(27)
    field = GF(3)
    e = field.element
    t1, t2 = (make_triple(field, e(2), e(1), e(0), rand_invertible(field, 3, rng))
              for _ in "12")
    want = canonical_pair(*t1)[2] * canonical_pair(*t2)[2].inv()
    checks, plain_check = [], heisenberg._check_triple

    def check(*args):
        checks.append(args)
        return plain_check(*args)

    def no_model(*args):
        raise AssertionError("build_V called")

    monkeypatch.setattr(heisenberg, "_check_triple", check)
    monkeypatch.setattr(heisenberg, "build_V", no_model)
    assert triple_similarity(t1, t2).data == want.data
    assert checks == [t1, t2]
