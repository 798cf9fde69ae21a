"""Tests for submodule machinery: spin, irreducibility, series, splitting.

Every decision procedure here is compared against the brute-force subspace
enumeration in oracles.py on modules small enough to enumerate (all
subspaces of GF(2)^4 and GF(3)^3 fit comfortably).  Larger cases only check
internal certificates.
"""

import hashlib
import itertools
import pickle
import random
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_sqf_p

from heisenmod import matrices, modules
from heisenmod import (
    GF,
    DoesNotSplit,
    EnvelopingAlgebra,
    FieldElem,
    HeisenbergAlgebra,
    Matrix,
    MixedFields,
    ModuleParams,
    NotExtension,
    Poly,
    Representation,
    ShapeMismatch,
    SubspaceBasis,
    TooLarge,
    UndecidedIrreducibility,
    VerificationFailed,
    build_companion_rep,
    build_restriction_rep,
    build_standard,
    build_V,
    companion,
    composition_series,
    conjugate_rep,
    direct_sum,
    direct_sum_reps,
    extend_scalars,
    field_embedding,
    find_irreducible,
    frobenius_form,
    hom_space,
    invariants,
    is_irreducible,
    is_uniserial,
    make_extension,
    min_poly,
    poly_at,
    quotient_representation,
    search_min_faithful,
    spin,
    split_by_central,
    sub_representation,
    validate_rep,
)
from oracles import (
    all_subspaces,
    invariant_subspaces,
    oracle_ad,
    oracle_combination,
    oracle_composition_length,
    oracle_hom_dim,
    oracle_hom_space,
    oracle_irreducible,
    oracle_rank1_partner,
    oracle_rref,
    oracle_search,
    oracle_similarity_classes,
    oracle_sub_quotient,
    oracle_u_dim,
    oracle_uniserial,
    trial_division_irreducible,
)


def ext(p, m):
    return make_extension(p, find_irreducible(p, m))


def params_of(field, alpha, betas, gammas):
    e = field.element
    return ModuleParams(e(alpha), [e(b) for b in betas], [e(g) for g in gammas])


def rand_invertible(field, n, rng):
    while True:
        m = Matrix(field, n, n, [rng.randrange(field.order) for _ in range(n * n)])
        if not m.det().is_zero():
            return m


def v_rep(field, alpha, betas, gammas):
    return build_V(
        HeisenbergAlgebra(len(betas), field), params_of(field, alpha, betas, gammas)
    )


def zero_rep(field, n, d):
    z = Matrix.zeros(field, d, d)
    return Representation(HeisenbergAlgebra(n, field), [z] * n, [z] * n, z)


# -- subspaces -------------------------------------------------------------------


def test_subspace_basis_normalizes_spanning_sets():
    field = GF(3)
    a = SubspaceBasis(field, 3, [[1, 2, 0], [0, 1, 1]])
    b = SubspaceBasis(field, 3, [[2, 1, 0], [1, 0, 1], [2, 1, 0]])
    assert a == b  # same span, different spanning sets
    assert hash(a) == hash(b)
    assert a.dim == 2
    assert a.contains([1, 0, 1])
    assert not a.contains([0, 0, 1])
    assert a.contains_subspace(SubspaceBasis(field, 3, [[1, 2, 0]]))
    assert not SubspaceBasis(field, 3, [[1, 2, 0]]).contains_subspace(a)
    empty = SubspaceBasis(field, 3, [])
    assert empty.dim == 0 and a.contains_subspace(empty)


def test_subspaces_refuse_wrong_lengths_and_fields():
    field = GF(3)
    line = SubspaceBasis(field, 3, [[1, 0, 0]])
    with pytest.raises(ShapeMismatch):
        line.contains([1, 0])
    with pytest.raises(ShapeMismatch):
        SubspaceBasis(field, 3, [[1, 0]])
    with pytest.raises(ShapeMismatch):
        line.contains_subspace(SubspaceBasis(field, 2, [[1, 0]]))
    with pytest.raises(MixedFields):
        line.contains_subspace(SubspaceBasis(GF(5), 3, [[1, 0, 0]]))
    with pytest.raises(MixedFields):
        line.is_invariant(build_standard(HeisenbergAlgebra(1, GF(5))))
    with pytest.raises(ShapeMismatch):
        line.is_invariant(build_standard(HeisenbergAlgebra(2, field)))


def test_subspace_invariance():
    field = GF(2)
    rep = build_standard(HeisenbergAlgebra(1, field))
    assert SubspaceBasis(field, 3, [[1, 0, 0]]).is_invariant(rep)
    assert SubspaceBasis(field, 3, [[1, 0, 0], [0, 1, 0]]).is_invariant(rep)
    assert not SubspaceBasis(field, 3, [[0, 0, 1]]).is_invariant(rep)


def test_spin_is_the_smallest_invariant_subspace_containing_the_seed():
    field = GF(2)
    reps = [
        build_standard(HeisenbergAlgebra(1, field)),
        v_rep(field, 1, [0], [1]),
        direct_sum_reps([v_rep(field, 1, [0], [0]), v_rep(field, 1, [1], [1])]),
    ]
    import itertools

    for rep in reps:
        inv_spaces = invariant_subspaces(rep)
        for bits in itertools.product(range(2), repeat=rep.dim):
            v = list(bits)
            s = spin(rep, v)
            assert s.contains(v)
            assert s.is_invariant(rep)
            for w in inv_spaces:
                if w.contains(v):
                    assert w.contains_subspace(s)


def test_spin_of_zero_is_zero():
    field = GF(3)
    rep = v_rep(field, 1, [0], [0])
    assert spin(rep, [0, 0, 0]).dim == 0
    with pytest.raises(ShapeMismatch):
        spin(rep, [0, 0])


# -- irreducibility ---------------------------------------------------------------


def gf2_test_reps():
    field = GF(2)
    v00 = v_rep(field, 1, [0], [0])
    v11 = v_rep(field, 1, [1], [1])
    return [
        v00,
        v11,
        v_rep(field, 1, [0, 1], [1, 0]),
        build_standard(HeisenbergAlgebra(1, field)),
        build_standard(HeisenbergAlgebra(2, field)),
        direct_sum_reps([v00, v11]),
        direct_sum_reps([v00, v00]),
        build_restriction_rep(2, Poly(field, [1, 1, 1]), [Poly.x(field)], [Poly(field, [1])]),
        build_companion_rep(field.one(), field.zero(), Poly(field, [1, 1, 1])),
        zero_rep(field, 1, 2),
    ]


def test_is_irreducible_matches_subspace_enumeration_gf2():
    for rep in gf2_test_reps():
        got = is_irreducible(rep)
        assert got.irreducible == oracle_irreducible(rep), rep
        if not got.irreducible:
            s = got.submodule
            assert s is not None and 0 < s.dim < rep.dim
            assert s.is_invariant(rep)


def test_is_irreducible_matches_subspace_enumeration_gf3():
    field = GF(3)
    reps = [
        v_rep(field, 1, [0], [0]),
        v_rep(field, 2, [1], [2]),
        build_standard(HeisenbergAlgebra(1, field)),
        zero_rep(field, 1, 3),
    ]
    for rep in reps:
        assert is_irreducible(rep).irreducible == oracle_irreducible(rep), rep


def test_is_irreducible_after_conjugation():
    rng = random.Random(30)
    field = GF(3)
    rep = v_rep(field, 1, [2], [1])
    for _ in range(5):
        moved = conjugate_rep(rep, rand_invertible(field, 3, rng))
        assert is_irreducible(moved).irreducible


def test_norton_path_on_large_modules():
    field = GF(2)
    big = v_rep(field, 1, [0, 1, 0, 1, 1], [1, 0, 0, 1, 0])  # dim 32
    res = is_irreducible(big)
    assert res.method == "norton"
    assert res.irreducible
    half = v_rep(field, 1, [0, 1, 0, 1], [1, 0, 0, 1])
    doubled = direct_sum_reps([half, half])  # dim 32, visibly reducible
    res = is_irreducible(doubled)
    assert res.method == "norton"
    assert not res.irreducible
    assert res.submodule is not None and res.submodule.is_invariant(doubled)
    with pytest.raises(UndecidedIrreducibility):
        is_irreducible(big, max_samples=0)


def conjugated_sum(p, rng):
    """V(1, b, g) + V(1, b', g') over GF(p) with (b, g) != (b', g'), so not
    isomorphic, moved by a random invertible matrix; all drawn from rng.
    Returns the module and its two summands."""
    field = GF(p)
    while True:
        b, g, b2, g2 = (rng.randrange(p) for _ in range(4))
        if (b, g) != (b2, g2):
            break
    summands = [v_rep(field, 1, [b], [g]), v_rep(field, 1, [b2], [g2])]
    moved = conjugate_rep(direct_sum_reps(summands), rand_invertible(field, 2 * p, rng))
    return moved, summands


# streams on which the earlier kernel-basis test called the sum irreducible
# under at least one of the seeds 0..4; (7, 27) with seed 0 is the first
# reported case
WRONG_BEFORE = [(7, 1), (7, 27), (7, 28), (7, 31), (7, 32), (7, 34),
                (11, 11), (11, 22), (11, 24), (11, 35), (11, 36), (11, 37)]


@pytest.mark.parametrize("p,stream", WRONG_BEFORE)
def test_conjugated_sums_are_reducible_under_every_seed(p, stream):
    rep, _ = conjugated_sum(p, random.Random(stream))
    for seed in range(5):
        res = is_irreducible(rep, seed=seed)
        assert not res.irreducible, (seed, res.detail)
        assert res.submodule is not None and 0 < res.submodule.dim < rep.dim
        assert res.submodule.is_invariant(rep)


def test_conjugated_sums_match_subspace_enumeration():
    field = GF(2)
    rng = random.Random(40)
    params = [(b, g) for b in range(2) for g in range(2)]
    for (b, g), (b2, g2) in itertools.product(params, repeat=2):
        total = direct_sum_reps([v_rep(field, 1, [b], [g]), v_rep(field, 1, [b2], [g2])])
        rep = conjugate_rep(total, rand_invertible(field, 4, rng))
        assert not oracle_irreducible(rep)
        for seed in range(5):
            res = is_irreducible(rep, seed=seed)
            assert not res.irreducible
            assert 0 < res.submodule.dim < 4 and res.submodule.is_invariant(rep)


@pytest.mark.parametrize("p,m", [(7, 3), (3, 6), (5, 4)])
def test_absolutely_irreducible_modules_over_large_fields_are_decided(p, m):
    field = ext(p, m)
    rep = v_rep(field, 1, [2], [3])
    for seed in range(5):
        res = is_irreducible(rep, seed=seed)
        assert res.irreducible and res.submodule is None
        assert res.detail.startswith("sample ") and "deg f = " in res.detail


def test_irreducibility_result_is_truthy():
    field = GF(2)
    assert is_irreducible(v_rep(field, 1, [0], [0]))
    assert not is_irreducible(build_standard(HeisenbergAlgebra(1, field)))


# -- subquotients -----------------------------------------------------------------


def test_sub_and_quotient_representations():
    field = GF(2)
    rep = build_standard(HeisenbergAlgebra(1, field))
    w = SubspaceBasis(field, 3, [[1, 0, 0], [0, 1, 0]])
    sub = sub_representation(rep, w)
    quot = quotient_representation(rep, w)
    assert sub.dim == 2 and quot.dim == 1
    assert validate_rep(sub).ok and validate_rep(quot).ok
    assert not sub.is_faithful() or sub.z.is_zero() is False
    with pytest.raises(ShapeMismatch):
        sub_representation(rep, SubspaceBasis(field, 3, [[0, 0, 1]]))


def test_subquotients_match_the_oracle():
    # every subspace of small modules over GF(2), GF(3) and GF(4), each
    # moved by a random invertible matrix; the subspace counts of GF(2)^d
    # are the Galois numbers (OEIS A006116)
    assert [len(all_subspaces(GF(2), d)) for d in range(7)] == [
        1, 2, 5, 16, 67, 374, 2825
    ]
    rng = random.Random(43)
    gf4 = ext(2, 2)
    cases = [
        build_standard(HeisenbergAlgebra(2, GF(2))),
        companion_power(2, 2, 1),
        direct_sum_reps([v_rep(GF(2), 1, [0], [0]), v_rep(GF(2), 1, [1], [1])]),
        build_standard(HeisenbergAlgebra(3, GF(2))),
        direct_sum_reps([build_standard(HeisenbergAlgebra(1, GF(2))),
                         v_rep(GF(2), 1, [1], [0])]),
        build_standard(HeisenbergAlgebra(1, GF(3))),
        v_rep(GF(3), 2, [1], [2]),
        build_standard(HeisenbergAlgebra(1, gf4)),
        v_rep(gf4, 3, [2], [1]),
    ]
    for rep in cases:
        rep = conjugate_rep(rep, rand_invertible(rep.field, rep.dim, rng))
        invariant = set(invariant_subspaces(rep))
        assert len(invariant) >= 2
        for w in all_subspaces(rep.field, rep.dim):
            if w in invariant:
                sub, quot = oracle_sub_quotient(rep, w)
                assert sub_representation(rep, w) == sub
                assert quotient_representation(rep, w) == quot
                continue
            for fn in (oracle_sub_quotient, sub_representation, quotient_representation):
                with pytest.raises(ShapeMismatch, match="not invariant"):
                    fn(rep, w)


@st.composite
def generated_splits(draw):
    """(module, seeds, loose vectors): a conjugated sum of one to three
    companion modules of (X - c)^k and modules V over GF(5), GF(9) or
    GF(7^2), of dimension up to 25; seeds moved from vectors that live on
    some of the summands, so that their spins are proper submodules or all
    of V; loose vectors that are random."""
    p, m = draw(st.sampled_from([(5, 1), (3, 2), (7, 2)]))
    field = GF(p) if m == 1 else ext(p, m)
    rng = random.Random(draw(st.integers(0, 2**32)))
    element = lambda: rng.randrange(field.order)  # noqa: E731
    pieces, room = [], 25
    for _ in range(draw(st.integers(1, 3))):
        if room < p:
            break
        k = draw(st.integers(0, room // p))
        pieces.append(companion_power(p, k, element(), beta=element(), field=field) if k
                      else v_rep(field, rng.randrange(1, field.order), [element()], [element()]))
        room -= pieces[-1].dim
    t = rand_invertible(field, 25 - room, rng)
    t_inv = t.inv()

    def seed():
        on = draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
        return t_inv.apply([element() if keep else 0
                            for keep, piece in zip(on, pieces) for _ in range(piece.dim)])

    loose = [[element() for _ in range(t.rows)] for _ in range(draw(st.integers(1, 3)))]
    rep = conjugate_rep(direct_sum_reps(pieces), t)
    return rep, [seed() for _ in range(draw(st.integers(1, 2)))], loose


@settings(max_examples=60)
@given(generated_splits())
def test_subquotients_match_the_oracle_on_generated_modules(case):
    rep, seeds, loose = case
    field, d = rep.field, rep.dim
    spun = SubspaceBasis(field, d, [v for s in seeds for v in spin(rep, s).vectors])
    for w in (spun, SubspaceBasis(field, d, []),
              SubspaceBasis(field, d, Matrix.identity(field, d).row_lists())):
        sub, quot = oracle_sub_quotient(rep, w)
        assert sub_representation(rep, w) == sub
        assert quotient_representation(rep, w) == quot
    w = SubspaceBasis(field, d, loose)
    if not w.is_invariant(rep):
        for fn in (oracle_sub_quotient, sub_representation, quotient_representation):
            with pytest.raises(ShapeMismatch, match="not invariant"):
                fn(rep, w)


NOT_INVARIANT = """
from heisenmod import GF, HeisenbergAlgebra, SubspaceBasis, build_standard
from heisenmod import quotient_representation, sub_representation
rep = build_standard(HeisenbergAlgebra(1, GF(2)))
for fn in (sub_representation, quotient_representation):
    try:
        fn(rep, SubspaceBasis(GF(2), 3, [[0, 0, 1]]))
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


def test_invariance_check_survives_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", NOT_INVARIANT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ShapeMismatch subspace is not invariant"] * 2


def test_quotient_plus_sub_recover_composition_factors():
    field = GF(3)
    r1 = v_rep(field, 1, [0], [0])
    r2 = v_rep(field, 2, [1], [1])
    rep = direct_sum_reps([r1, r2])
    res = is_irreducible(rep)
    assert not res.irreducible
    w = res.submodule
    sub = sub_representation(rep, w)
    quot = quotient_representation(rep, w)
    got = {invariants(sub), invariants(quot)}
    assert got == {invariants(r1), invariants(r2)}


# -- composition series -----------------------------------------------------------


def test_composition_series_of_direct_sum():
    field = GF(3)
    r1 = v_rep(field, 1, [0], [1])
    r2 = v_rep(field, 2, [2], [0])
    series = composition_series(direct_sum_reps([r1, r2]))
    assert series.chain_dims == [0, 3, 6]
    assert {f.dim for f in series.factors} == {3}
    assert all(f.faithful for f in series.factors)
    got = {f.invariants for f in series.factors}
    assert got == {invariants(r1), invariants(r2)}


def test_composition_series_of_standard_rep():
    field = GF(5)
    rep = build_standard(HeisenbergAlgebra(1, field))
    series = composition_series(rep)
    assert series.chain_dims == [0, 1, 2, 3]
    assert [f.dim for f in series.factors] == [1, 1, 1]
    # interior terms are proper invariant subspaces
    for s in series.chain[1:-1]:
        assert s.is_invariant(rep)
    # one-dimensional factors kill z, so none are faithful
    assert not any(f.faithful for f in series.factors)


def test_subspace_snapshots_do_not_grow_with_their_echelon():
    # the series inserts into one echelon after taking each chain term, so
    # each term must answer membership for its own span alone
    field = GF(3)
    rep = direct_sum_reps([build_standard(HeisenbergAlgebra(1, field)),
                           v_rep(field, 1, [0], [1])])
    d = rep.dim
    series = composition_series(rep)
    assert len(series.chain) > 3
    rng = random.Random(11)
    probes = Matrix.identity(field, d).row_lists()
    probes += [[rng.randrange(3) for _ in range(d)] for _ in range(20)]
    for s in series.chain:
        for v in probes:
            inside = len(oracle_rref(field, [*s.vectors, v], d)[1]) == s.dim
            assert s.contains(v) == inside
        again = SubspaceBasis(field, d, s.vectors)
        assert s == again and hash(s) == hash(again) and s.pivots() == again.pivots()
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s and all(clone.contains(v) == s.contains(v) for v in probes)
    for v in probes:
        s = spin(rep, v)
        again = SubspaceBasis(field, d, s.vectors)
        assert s == again and hash(s) == hash(again)


def test_composition_series_factors_stable_under_seed_order():
    field = GF(2)
    rep = direct_sum_reps(
        [v_rep(field, 1, [0], [0]), v_rep(field, 1, [1], [0]), v_rep(field, 1, [0], [1])]
    )
    key = lambda f: (f.dim, f.faithful, repr(f.invariants))
    first = sorted(key(f) for f in composition_series(rep).factors)
    assert len(first) == 3
    for seed in range(1, 5):
        series = composition_series(rep, seed=seed)
        assert series.chain_dims == [0, 2, 4, 6]
        assert sorted(key(f) for f in series.factors) == first


def test_composition_series_checks_the_lifted_chain(monkeypatch):
    field = GF(3)
    rep = direct_sum_reps([v_rep(field, 1, [0], [1]), v_rep(field, 2, [2], [0])])
    real = modules._series_basis
    t, dims, _ = real(rep, 64, 0)
    assert dims == [0, 3, 6]
    cols = t.transpose().row_lists()

    def rising(t, dims):  # no longer strictly rising
        return t, [0, 6, 6]

    def swapped(t, dims):  # columns 0 and 3 trade blocks: the flag breaks
        return Matrix.from_columns(field, [cols[3], *cols[1:3], cols[0], *cols[4:]]), dims

    def singular(t, dims):
        return Matrix.from_columns(field, [*cols[:3], cols[0], *cols[4:]]), dims

    def sheared(t, dims):  # same diagonal blocks, nonzero block below them
        add = field.add
        low = [[add(x, y) for x, y in zip(c, e)] for c, e in zip(cols[:3], cols[3:])]
        return Matrix.from_columns(field, [*low, *cols[3:]]), dims

    for corrupt in (rising, swapped, singular, sheared):
        def broken(sub, *args, corrupt=corrupt):
            t, dims, factors = real(sub, *args)
            # the recursion calls the patched name: corrupt the top level only
            return (*corrupt(t, dims), factors) if sub is rep else (t, dims, factors)

        monkeypatch.setattr(modules, "_series_basis", broken)
        with pytest.raises(VerificationFailed, match="composition series"):
            composition_series(rep)


@pytest.mark.parametrize("level", [0, 1])
def test_composition_series_catches_a_wrong_sub_block(monkeypatch, level):
    # the levels of the series check nothing themselves: one sub block
    # corrupted at the top level or one below must break the certificate
    field = GF(3)
    rep = direct_sum_reps([build_standard(HeisenbergAlgebra(1, field)),
                           v_rep(field, 1, [0], [1])])
    assert composition_series(rep).chain_dims == [0, 1, 2, 3, 6]
    real, splits, blocks = modules._subquotients, [], []

    def corrupted(r, basis):
        sub, quotient, lift = real(r, basis)
        splits.append(r)

        def wrong(m):  # the first sub block read at this level is off by one
            s = sub(m)
            blocks.append(m)
            if len(blocks) > 1:
                return s
            return Matrix(field, s.rows, s.cols, [field.add(s.data[0], 1), *s.data[1:]])

        return (wrong if len(splits) == level + 1 else sub), quotient, lift

    monkeypatch.setattr(modules, "_subquotients", corrupted)
    with pytest.raises(VerificationFailed, match="does not triangularize onto its factors"):
        composition_series(rep)
    assert len(splits) > level and blocks


def companion_power(p, m, c, alpha=1, beta=0, field=None):
    """The companion module of (X - c)^m over GF(p) (or over the given
    field of characteristic p), of dimension p * m."""
    field = field or GF(p)
    linear = Poly(field, [field.neg(c), 1])
    f = Poly(field, [1])
    for _ in range(m):
        f = f * linear
    return build_companion_rep(field.element(alpha), field.element(beta), f)


@pytest.mark.parametrize("p,m", [(2, 8), (3, 4)])
def test_composition_series_of_companion_module_of_x_power(p, m):
    # c = 0: every factor is V(alpha, beta, 0)
    for beta in range(p):
        rep = companion_power(p, m, 0, beta=beta)
        series = composition_series(rep)
        assert series.chain_dims == [p * k for k in range(m + 1)]
        want = invariants(v_rep(GF(p), 1, [beta], [0]))
        assert all(f.dim == p and f.invariants == want for f in series.factors)


def test_composition_series_of_conjugated_sum_over_gf7():
    rep, summands = conjugated_sum(7, random.Random(27))
    want = sorted(repr(invariants(r)) for r in summands)
    for seed in range(5):
        series = composition_series(rep, seed=seed)
        assert series.chain_dims == [0, 7, 14]
        assert all(f.faithful for f in series.factors)
        assert sorted(repr(f.invariants) for f in series.factors) == want


def test_dimension_p_leaves_match_the_oracle(monkeypatch):
    # a node of dimension p with z = alpha != 0 and [x_k, y_k] = z for some
    # k is a leaf before any Holt-Rees run; every other module runs Holt-Rees
    # at its root and still gets a series as long as the oracle's
    holt_rees, settled = modules._holt_rees, []
    monkeypatch.setattr(modules, "_holt_rees",
                        lambda *args: settled.append(args[0]) or holt_rees(*args))
    rng = random.Random(89)
    F2, F3, gf4 = GF(2), GF(3), ext(2, 2)
    accepted = [conjugate_rep(v_rep(field, alpha, [b], [g]), rand_invertible(field, field.p, rng))
                for field, alpha, b, g in ((F2, 1, 0, 1), (F2, 1, 1, 1), (F3, 2, 1, 0),
                                           (F3, 1, 2, 2), (gf4, 2, 3, 1), (gf4, 3, 0, 2))]
    # only the second bracket [x_2, y_2] is z
    v = v_rep(F3, 1, [1], [2])
    nil = Matrix.zeros(F3, 3, 3)
    accepted.append(Representation(HeisenbergAlgebra(2, F3), [nil, *v.x], [nil, *v.y], v.z))
    refused = [
        build_standard(HeisenbergAlgebra(1, F3)),  # d = 3, z not scalar
        Representation(HeisenbergAlgebra(1, F3), [nil], [nil], Matrix.identity(F3, 3)),  # [x, y] != z
        zero_rep(F3, 1, 3),  # alpha = 0
        top_over(F3, 1, 2, rng),  # no Heisenberg relations
    ]
    # d = 2p with z = 1 and [x, y] = z, but two factors
    refused += [conjugated_sum(2, random.Random(seed))[0] for seed in range(2)]
    for rep, leaf in [(r, True) for r in accepted] + [(r, False) for r in refused]:
        settled.clear()
        series = composition_series(rep)
        assert (not settled) == leaf and (leaf or settled[0] is rep), rep
        assert len(series.factors) == oracle_composition_length(rep), rep
        assert all(oracle_irreducible(f.rep) for f in series.factors), rep
        assert all(s.is_invariant(rep) for s in series.chain)


# -- the inherited Holt-Rees element ---------------------------------------------


def product_companion(field, roots, beta=0):
    """The companion module of the product of X - c over distinct roots c."""
    f = Poly(field, [1])
    for c in roots:
        f = f * Poly(field, [field.neg(c), 1])
    return build_companion_rep(field.one(), field.element(beta), f)


def series_corpus():
    """Modules of dimension <= 6 over GF(2), GF(3) and GF(4): companion
    modules of (X - c)^m and of products of distinct irreducibles, and
    conjugated sums V + V' (isomorphic or not)."""
    rng = random.Random(53)
    gf4 = ext(2, 2)
    reps = [companion_power(2, m, c, beta=c) for m in (1, 2, 3) for c in (0, 1)]
    reps.append(companion_power(3, 2, 2, beta=1))
    reps += [companion_power(2, m, c, beta=c % 2, field=gf4) for m in (1, 2) for c in (1, 2)]
    reps += [
        product_companion(GF(2), [0, 1]),
        build_companion_rep(GF(2).one(), GF(2).one(),
                            Poly(GF(2), [0, 1]) * Poly(GF(2), [1, 1, 1])),
        product_companion(GF(3), [0, 1], beta=2),
        product_companion(gf4, [2, 3]),
    ]
    for field, pairs in ((GF(2), [((0, 1), (1, 1)), ((1, 0), (1, 0))]),
                         (GF(3), [((1, 2), (2, 2))]),
                         (gf4, [((0, 1), (3, 1)), ((2, 2), (2, 2))])):
        for (b, g), (b2, g2) in pairs:
            total = direct_sum_reps([v_rep(field, 1, [b], [g]), v_rep(field, 1, [b2], [g2])])
            reps.append(conjugate_rep(total, rand_invertible(field, total.dim, rng)))
    return reps


def test_inherited_elements_match_subspace_enumeration(monkeypatch):
    # every factor is irreducible and the series is as long as a maximal
    # chain of invariant subspaces; the inherited pair settles some verdicts
    holt_rees, details = modules._holt_rees, []

    def recorded(*args):
        out = holt_rees(*args)
        details.append(out[0].detail)
        return out

    monkeypatch.setattr(modules, "_holt_rees", recorded)
    rng = random.Random(61)
    for rep in series_corpus():
        assert rep.dim <= 6
        field, length = rep.field, oracle_composition_length(rep)
        for seed in range(2):
            series = composition_series(rep, seed=seed)
            assert len(series.factors) == length, (rep, seed)
            assert all(oracle_irreducible(f.rep) for f in series.factors), (rep, seed)
            assert all(s.is_invariant(rep) for s in series.chain)
        # A random in the image algebra and f a random monic irreducible of
        # degree 1 or 2, unrelated to A: the verdict still holds
        basis = EnvelopingAlgebra(rep).basis
        irreducibles = [
            f for k in (1, 2) for low in itertools.product(range(field.order), repeat=k)
            if trial_division_irreducible(f := Poly(field, [*low, 1]))
        ]
        for seed in range(3):
            a = modules._combination(field, rep.dim, rep.dim, basis,
                                     [rng.randrange(field.order) for _ in basis])
            res, _, _ = holt_rees(rep, 64, seed, (a, rng.choice(irreducibles)))
            assert res.irreducible == (length == 1)
            assert res.irreducible == is_irreducible(rep, seed=seed).irreducible
            if not res.irreducible:
                assert 0 < res.submodule.dim < rep.dim and res.submodule.is_invariant(rep)
    assert any(d.startswith("inherited element") for d in details)


# (q, pool sizes): 36 L < 256 up to L = 7 over GF(7), 24 L < 256 up to
# L = 10 over GF(9), so the last two sizes of each straddle a slot step
COMBINATION_POOLS = [(2, [0, 1, 5]), (7, [0, 1, 7, 8]), (4, [0, 3]), (9, [10, 11]),
                     (49, [2, 5])]


@pytest.mark.parametrize("q, sizes", COMBINATION_POOLS)
def test_combination_matches_the_entrywise_sum(q, sizes):
    p, m = {2: (2, 1), 7: (7, 1), 4: (2, 2), 9: (3, 2), 49: (7, 2)}[q]
    field = GF(p) if m == 1 else ext(p, m)
    if q in (7, 9):
        codec = field.row_codec
        assert codec[sizes[-2]].bits < codec[sizes[-1]].bits
    rng = random.Random(q)
    for size in sizes:
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        # q - 1 has every digit p - 1, so the all-(q - 1) pool and
        # coefficients fill the slots to their bound
        pool = [Matrix(field, rows, cols, [rng.randrange(q) for _ in range(rows * cols)])
                for _ in range(size)]
        full = [Matrix(field, rows, cols, [q - 1] * (rows * cols))] * size
        draws = [(pool, [0] * size), (full, [q - 1] * size),
                 (pool, [rng.randrange(q) for _ in range(size)]),
                 (pool, [rng.choice([0, rng.randrange(q)]) for _ in range(size)])]
        for mats, coeffs in draws:
            got = modules._combination(field, rows, cols, mats, coeffs)
            assert got == oracle_combination(field, rows, cols, mats, coeffs)
    assert modules._combination(field, 2, 3, [], []) == Matrix.zeros(field, 2, 3)


def pinned_corpus():
    """Seeded modules whose is_irreducible verdicts and details are pinned:
    conjugated V, conjugated V + V' and companion modules."""
    rng = random.Random(67)
    gf4 = ext(2, 2)
    reps = [v_rep(GF(2), 1, [0, 1], [1, 0]), v_rep(GF(3), 2, [1], [2]),
            v_rep(GF(5), 1, [3], [1]), v_rep(gf4, 3, [2], [1])]
    reps = [conjugate_rep(r, rand_invertible(r.field, r.dim, rng)) for r in reps]
    reps += [conjugated_sum(p, rng)[0] for p in (2, 3, 5)]
    reps += [companion_power(2, 3, 1), companion_power(3, 2, 2, beta=1),
             build_companion_rep(GF(3).one(), GF(3).zero(), Poly(GF(3), [1, 0, 1])),
             product_companion(GF(2), [0, 1])]
    return reps


# (irreducible, detail) of pinned_corpus() under the seeds 0, 1, 2: the
# seeded samples and their details are part of is_irreducible's results
FULL = "a kernel vector and a transposed kernel vector both spin to the full space"
PINNED_VERDICTS = [
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (True, "sample 3, deg f = 1, nullity 1", FULL),
    (True, "sample 1, deg f = 2, nullity 2", FULL),
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (True, "sample 1, deg f = 5, nullity 5", FULL),
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (True, "sample 1, deg f = 1, nullity 1", FULL),
    (False, "sample 1, deg f = 1, nullity 2", "a kernel vector generates a dim 2 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 2 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 2 submodule"),
    (False, "sample 2, deg f = 1, nullity 1", "a kernel vector generates a dim 3 submodule"),
    (False, "sample 1, deg f = 2, nullity 4", "a kernel vector generates a dim 3 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 3 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 5 submodule"),
    (False, "sample 2, deg f = 1, nullity 1", "a kernel vector generates a dim 5 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 5 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 2 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 2 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 2 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 3 submodule"),
    (False, "sample 2, deg f = 2, nullity 2", "a kernel vector generates a dim 3 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 3 submodule"),
    (True, "sample 1, deg f = 6, nullity 6", FULL),
    (True, "sample 2, deg f = 6, nullity 6", FULL),
    (True, "sample 1, deg f = 2, nullity 2", FULL),
    (False, "sample 1, deg f = 1, nullity 2", "a kernel vector generates a dim 2 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 2 submodule"),
    (False, "sample 1, deg f = 1, nullity 1", "a kernel vector generates a dim 2 submodule"),
]


def test_is_irreducible_verdicts_and_details_are_pinned():
    got = [(res.irreducible, res.detail) for rep in pinned_corpus()
           for res in (is_irreducible(rep, seed=seed) for seed in range(3))]
    assert got == [(irr, f"{head}: {tail}") for irr, head, tail in PINNED_VERDICTS]


def _images(rep):
    return [(m.rows, m.cols, m.data) for m in rep.gen_matrices()]


# SHA-256 of the chains, factors and subquotients below: how the blocks are
# computed may change, the blocks themselves may not
SERIES_DIGEST = "8eeda7cf3078299862720159e97718672d4230d22b338badaa8620e133505d20"


def test_composition_series_and_subquotients_are_pinned():
    reps = pinned_corpus() + [companion_power(2, 10, 1, beta=b) for b in (0, 1)]
    reps.append(conjugated_sum(11, random.Random(71))[0])
    out = []
    for rep in reps:
        series = composition_series(rep)
        out.append((series.chain_dims, [s.vectors for s in series.chain],
                    [(f.dim, f.faithful, repr(f.invariants), _images(f.rep))
                     for f in series.factors]))
        out.append([(_images(sub_representation(rep, s)),
                     _images(quotient_representation(rep, s))) for s in series.chain])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == SERIES_DIGEST


def an_algebra_pair(rep, nullity_is_degree):
    """(A, f): A in the image algebra, f an irreducible factor of its
    minimal polynomial, with nullity f(A) = deg f exactly when asked."""
    return next((a, f) for a in EnvelopingAlgebra(rep).basis
                for f in min_poly(a).irreducible_factors()
                if (len(poly_at(f, a).kernel_basis()) == f.degree) == nullity_is_degree)


def test_inherited_pair_reaches_each_branch():
    holt_rees = modules._holt_rees
    field = GF(3)
    rng = random.Random(59)
    v = conjugate_rep(v_rep(field, 1, [1], [2]), rand_invertible(field, 3, rng))
    X = Poly(field, [0, 1])

    # nullity deg f, both spins full: the pair decides irreducibility
    a, f = an_algebra_pair(v, True)
    res, a2, f2 = holt_rees(v, 64, 0, (a, f))
    assert res.irreducible and res.detail.startswith("inherited element")
    assert (a2, f2) == (a, f)

    # a kernel vector spins to a proper subspace: the pair exposes it
    standard = build_standard(HeisenbergAlgebra(1, field))
    res, a2, f2 = holt_rees(standard, 64, 0, (standard.z, X))
    assert not res.irreducible and res.detail.startswith("inherited element")
    assert "a kernel vector generates" in res.detail and (a2, f2) == (standard.z, X)
    assert 0 < res.submodule.dim < 3 and res.submodule.is_invariant(standard)

    # nullity > deg f with a full kernel spin, and f(A) invertible: both
    # fall back to the samples of is_irreducible under the same seed
    sum_rep, _ = conjugated_sum(3, rng)
    for rep, pair in [(v, an_algebra_pair(v, False)), (v, (Matrix.identity(field, 3), X)),
                      (sum_rep, (Matrix.identity(field, 6), X))]:
        for seed in range(3):
            res, a2, _ = holt_rees(rep, 64, seed, pair)
            assert res == is_irreducible(rep, seed=seed)
            assert res.detail.startswith("sample ") and a2 is not pair[0]


def top_over(field, low, top, rng):
    """A module with a submodule of dimension low below a top factor that no
    factor below is isomorphic to, moved by a random invertible matrix.  The
    three images are block upper triangular: random low x low blocks and
    off-diagonal blocks, and on top the cyclic shift, E_11 and a random
    matrix, which generate all top x top matrices.  They need not satisfy
    the Heisenberg relations: the Holt-Rees test uses only their algebra."""
    d, q = low + top, field.order
    shift = [int(j == (i + 1) % top) for i in range(top) for j in range(top)]
    e11 = [int(i == j == 0) for i in range(top) for j in range(top)]
    images = []
    for block in (shift, e11, [rng.randrange(q) for _ in range(top * top)]):
        rows = [[rng.randrange(q) for _ in range(d)] for _ in range(low)]
        rows += [[0] * low + block[i * top : (i + 1) * top] for i in range(top)]
        images.append(Matrix(field, d, d, [x for row in rows for x in row]))
    rep = Representation(HeisenbergAlgebra(1, field), images[:1], images[1:2], images[2])
    return conjugate_rep(rep, rand_invertible(field, d, rng))


def repeated_factor_pairs(rep, rng, count):
    """(A, f) for A = B, B^2, ..., B^(q+1), B random in the image algebra,
    count times, and each irreducible factor f of A's minimal polynomial with
    deg f < nullity f(A) = k and at most dim V lines in ker f(A):
    (q^k - 1) / (q - 1) <= dim V.  The powers make f(A) = 0 on a
    2-dimensional factor often: B^(q+1) is scalar there when B's
    characteristic polynomial on it is irreducible."""
    field, d, q = rep.field, rep.dim, rep.field.order
    basis = EnvelopingAlgebra(rep).basis
    for _ in range(count):
        b = modules._combination(field, d, d, basis, [rng.randrange(q) for _ in basis])
        for a in itertools.accumulate(range(q), lambda power, _: power * b, initial=b):
            for f in min_poly(a).irreducible_factors():
                k = len(poly_at(f, a).kernel_basis())
                if k > f.degree and (q**k - 1) // (q - 1) <= d:
                    yield a, f


LINE_PROPER = re.compile(r"kernel line \d+ of \d+ generates a dim \d+ submodule$")
LINES_FULL = re.compile(r"every one of the \d+ kernel lines and a transposed kernel vector "
                        r"spin to the full space$")
LINES_ANNIHILATOR = re.compile(r"every one of the \d+ kernel lines spins to the full space; "
                               r"a transposed kernel vector exposes a dim \d+ submodule$")


def test_inherited_kernel_lines_match_the_oracle():
    # the inherited pair with nullity > deg f and at most d lines settles the
    # node: a line other than the first is proper on the companion powers
    # with beta = 1, every line and the transposed spin are full on the
    # restriction modules, whose linear f has nullity 2, and a proper
    # transposed spin exposes the annihilator on the generated modules
    rng = random.Random(83)
    F2, gf4 = GF(2), ext(2, 2)
    restricted = [build_restriction_rep(2, Poly(F2, [1, 1, 1]), [Poly(F2, f)], [Poly(F2, g)])
                  for f, g in (([0, 1], [1]), ([1, 1], [0, 1]))]
    corpus = [(LINE_PROPER, [companion_power(2, 2, 1, beta=1),
                             companion_power(3, 2, 2, beta=1)]),
              (LINES_FULL, restricted),
              (LINES_ANNIHILATOR, [top_over(field, low, top, rng)
                                   for field, low, top in ((F2, 1, 2), (F2, 2, 2), (GF(3), 1, 3),
                                                           (GF(3), 2, 2), (gf4, 3, 2))
                                   for _ in range(2)])]
    seen = {}
    for want, reps in corpus:
        for rep in reps:
            spaces = invariant_subspaces(rep)
            irreducible = oracle_irreducible(rep)
            for a, f in repeated_factor_pairs(rep, rng, 4):
                res, a2, f2 = modules._holt_rees(rep, 64, 0, (a, f))
                assert res.detail.startswith("inherited element") and (a2, f2) == (a, f)
                assert res.irreducible == irreducible, res.detail
                if not irreducible:
                    assert res.submodule in spaces and 0 < res.submodule.dim < rep.dim
                if want.match(res.detail.split(": ", 1)[1]):
                    seen.setdefault(want, set()).add(rep.field.order)
    # each outcome is reached by the modules named for it, over every field
    # they are drawn over
    assert seen == {LINE_PROPER: {2, 3}, LINES_FULL: {2}, LINES_ANNIHILATOR: {2, 3, 4}}


def a_pair_over_the_line_bound(rep):
    """(A, f) from the image algebra's basis with deg f < nullity f(A) = k,
    more than dim V lines in ker f(A), and a first kernel vector that spins
    to V."""
    q, d = rep.field.order, rep.dim
    for a in EnvelopingAlgebra(rep).basis:
        for f in min_poly(a).irreducible_factors():
            kernel = poly_at(f, a).kernel_basis()
            k = len(kernel)
            if k > f.degree and (q**k - 1) // (q - 1) > d and spin(rep, kernel[0]).dim == d:
                return a, f


def test_inherited_kernel_lines_keep_the_gain(monkeypatch):
    # every node of the beta = 1 companion power is settled by the pair it
    # inherits, so min_poly runs once, at the root; its ten 2-dimensional
    # factors are leaves by the trace argument, so Holt-Rees runs only at the
    # nine nodes above them
    calls, settled, holt_rees = [], [], modules._holt_rees
    monkeypatch.setattr(modules, "min_poly", lambda a: calls.append(a) or min_poly(a))
    monkeypatch.setattr(modules, "_holt_rees",
                        lambda *args: settled.append(args[0]) or holt_rees(*args))
    blocks, subquotients = [], modules._subquotients

    def counted(rep, basis):
        sub_of, quot_of, lift = subquotients(rep, basis)
        return (lambda m: blocks.append(m) or sub_of(m),
                lambda m: blocks.append(m) or quot_of(m), lift)

    monkeypatch.setattr(modules, "_subquotients", counted)
    series = composition_series(companion_power(2, 10, 1, beta=1))
    assert series.chain_dims == list(range(0, 21, 2)) and len(calls) == 1
    assert len(settled) == 9
    # each inner node maps x, y and z to both children, and the inherited
    # A only to the eight children that run Holt-Rees, not to the leaves
    assert len(blocks) == 9 * 2 * 3 + 8
    # both 11-dimensional factors of a GF(11) sum are leaves: one Holt-Rees
    # run and one min_poly, at the root
    calls.clear()
    settled.clear()
    series = composition_series(conjugated_sum(11, random.Random(71))[0])
    assert series.chain_dims == [0, 11, 22] and len(calls) == 1 and len(settled) == 1

    # over the line bound the pair spins its first kernel vector only, then
    # falls back to the samples of is_irreducible under the same seed
    field = GF(3)
    v = conjugate_rep(v_rep(field, 1, [1], [2]), rand_invertible(field, 3, random.Random(59)))
    spins = []
    monkeypatch.setattr(modules, "spin", lambda *args: spins.append(args) or spin(*args))
    for rep in (v, companion_power(2, 2, 1, beta=1, field=ext(2, 2))):
        pair = a_pair_over_the_line_bound(rep)
        for seed in range(3):
            spins.clear()
            want = is_irreducible(rep, seed=seed)
            alone = len(spins)
            spins.clear()
            res, _, _ = modules._holt_rees(rep, 64, seed, pair)
            assert res == want and res.detail.startswith("sample ")
            assert len(spins) == alone + 1


# -- uniseriality ------------------------------------------------------------------


def test_is_uniserial_matches_subspace_enumeration():
    field = GF(2)
    for rep in gf2_test_reps():
        if field.order**rep.dim > 1 << 24:
            continue
        assert is_uniserial(rep) == oracle_uniserial(rep), rep


def test_uniserial_examples():
    field = GF(3)
    # an irreducible module is trivially uniserial
    assert is_uniserial(v_rep(field, 1, [0], [0]))
    # the strictly-upper-triangular module has a unique flag of submodules
    assert is_uniserial(build_standard(HeisenbergAlgebra(1, field)))
    # two isomorphic summands give incomparable submodules
    r = v_rep(field, 1, [1], [1])
    assert not is_uniserial(direct_sum_reps([r, r]))
    # V over GF(5) at n = 2 is irreducible (d = 25, 5^25 vectors)
    assert is_uniserial(v_rep(GF(5), 1, [0, 0], [0, 0]))
    assert is_uniserial(zero_rep(field, 1, 1))
    assert not is_uniserial(zero_rep(field, 1, 2))


def test_is_uniserial_decides_modules_past_the_old_line_bound():
    # (X - 1)^2 over GF(5), X^4 over GF(3) and (X - 1)^10 over GF(2): the
    # line scan refused them (2,441,406 lines of GF(5)^10 for the first)
    for p, m, c in [(5, 2, 1), (3, 4, 0), (2, 10, 1)]:
        rep = companion_power(p, m, c)
        start = time.perf_counter()
        assert is_uniserial(rep)
        assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("p,m,q", [(2, 1, 2), (3, 1, 3), (2, 2, 4), (5, 1, 5)])
def test_companion_modules_of_linear_powers_are_uniserial(p, m, q):
    # Thm 5.1: f = (X - c)^k gives a uniserial module
    field = GF(p) if m == 1 else ext(p, m)
    assert field.order == q
    for k in range(1, 5):
        for c in range(q):
            rep = companion_power(p, k, c, beta=c, field=field)
            assert is_uniserial(rep), (q, k, c)
            if q == 2 and k <= 2:
                assert oracle_uniserial(rep)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_sums_of_two_modules_are_not_uniserial(p, m):
    field = GF(p) if m == 1 else ext(p, m)
    rng = random.Random(41)
    r, other = v_rep(field, 1, [0], [1]), v_rep(field, 1, [1], [1])
    for rep in [direct_sum_reps([r, r]), direct_sum_reps([r, other])]:
        moved = conjugate_rep(rep, rand_invertible(field, rep.dim, rng))
        assert not is_uniserial(moved)
    # (X - c)(X - c') with c != c' has two non-isomorphic simple submodules
    f = Poly(field, [0, 1]) * Poly(field, [field.neg(1), 1])
    assert not is_uniserial(build_companion_rep(field.one(), field.zero(), f))


# -- homomorphisms ----------------------------------------------------------------


def test_hom_space_matches_brute_force_enumeration():
    field = GF(2)
    rng = random.Random(31)
    v00 = v_rep(field, 1, [0], [0])
    v10 = v_rep(field, 1, [1], [0])
    moved = conjugate_rep(v00, rand_invertible(field, 2, rng))
    pairs = [
        (v00, v00),
        (v00, moved),
        (v00, v10),
        (v00, direct_sum_reps([v00, v00])),
        (direct_sum_reps([v00, v10]), v10),
    ]
    for r1, r2 in pairs:
        basis = hom_space(r1, r2)
        assert len(basis) == oracle_hom_dim(r1, r2), (r1, r2)
        for t in basis:
            for a, b in zip(r1.gen_matrices(), r2.gen_matrices()):
                assert t * a == b * t


def test_hom_space_dimension_one_for_isomorphic_irreducibles():
    field = GF(3)
    rng = random.Random(32)
    rep = v_rep(field, 2, [0], [1])
    moved = conjugate_rep(rep, rand_invertible(field, 3, rng))
    basis = hom_space(rep, moved)
    assert len(basis) == 1
    assert not basis[0].det().is_zero()  # the intertwiner is an isomorphism
    other = v_rep(field, 2, [1], [1])
    assert hom_space(rep, other) == []


def random_params(field, n, rng):
    q = field.order
    return params_of(field, rng.randrange(1, q),
                     [rng.randrange(q) for _ in range(n)],
                     [rng.randrange(q) for _ in range(n)])


def hom_test_pairs(field, rng):
    """Generated (r1, r2) pairs: conjugated V at n = 1, 2 with equal and
    different parameters, non-cyclic sources, d1 != d2, companion modules."""
    p = field.p
    pairs = []
    for n in (1, 2) if p ** 2 <= 9 else (1,):
        algebra = HeisenbergAlgebra(n, field)
        a = random_params(field, n, rng)
        for b in (a, random_params(field, n, rng)):
            pairs.append(tuple(
                conjugate_rep(build_V(algebra, params),
                              rand_invertible(field, p**n, rng))
                for params in (a, b)
            ))
    algebra = HeisenbergAlgebra(1, field)
    v = build_V(algebra, random_params(field, 1, rng))
    w = build_V(algebra, random_params(field, 1, rng))
    vv = conjugate_rep(direct_sum_reps([v, v]), rand_invertible(field, 2 * p, rng))
    vvv = direct_sum_reps([v, v, v])
    comp = companion_power(p, 2, rng.randrange(field.order), field=field)
    pairs += [
        (vv, vv), (vvv, vvv), (vvv, v), (v, vvv),
        (direct_sum_reps([v, w]), w), (w, direct_sum_reps([v, w])),
        (zero_rep(field, 1, 2), zero_rep(field, 1, 3)),
        (zero_rep(field, 1, 2), v), (v, zero_rep(field, 1, 2)),
        (build_standard(algebra), v), (v, build_standard(algebra)),
        (comp, comp), (comp, v), (v, comp),
    ]
    return pairs


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_hom_space_matches_the_linear_system_oracle(p, m):
    field = GF(p) if m == 1 else ext(p, m)
    for r1, r2 in hom_test_pairs(field, random.Random(43 + field.order)):
        basis = hom_space(r1, r2)
        want = oracle_hom_space(r1, r2)
        width = r1.dim * r2.dim
        span = SubspaceBasis(field, width, [t.data for t in basis])
        assert span.dim == len(basis) == len(want), (r1, r2)
        assert span == SubspaceBasis(field, width, [t.data for t in want])
        for t in basis:
            assert (t.rows, t.cols) == (r2.dim, r1.dim)
            for a, b in zip(r1.gen_matrices(), r2.gen_matrices()):
                assert t * a == b * t
        if field.order ** width <= 1 << 12:
            assert len(basis) == oracle_hom_dim(r1, r2)


def test_hom_space_of_zero_dimensional_modules_is_zero():
    field = GF(3)
    empty, v = zero_rep(field, 1, 0), v_rep(field, 1, [0], [0])
    assert hom_space(empty, v) == [] and hom_space(v, empty) == []


def test_hom_space_check_raises_verification_failed(monkeypatch):
    # every returned homomorphism is checked with verify, which survives -O:
    # corrupt the images read off for the result, after the solve
    rep = v_rep(GF(3), 1, [1], [2])
    real = Matrix.column
    monkeypatch.setattr(Matrix, "column", lambda m, j: [1] + real(m, j)[1:])
    with pytest.raises(VerificationFailed, match="intertwine"):
        hom_space(rep, rep)


# -- the image algebra -------------------------------------------------------------


def test_enveloping_algebra_of_irreducible_is_full_matrix_algebra():
    field = GF(3)
    rep = v_rep(field, 1, [1], [2])
    env = EnvelopingAlgebra(rep)
    assert env.dim == 9
    rng = random.Random(33)
    m = Matrix(field, 3, 3, [rng.randrange(3) for _ in range(9)])
    assert env.contains(m)
    assert not env.contains(Matrix.identity(field, 2))
    assert not env.contains(Matrix.identity(GF(2), 3))


def test_enveloping_algebra_of_reducible_is_proper():
    field = GF(2)
    rep = build_standard(HeisenbergAlgebra(1, field))
    env = EnvelopingAlgebra(rep)
    assert env.dim < 9
    for g in rep.gen_matrices():
        assert env.contains(g)
    assert env.contains(rep.x[0] * rep.y[0])
    assert not env.contains(rep.x[0].transpose())


def test_enveloping_algebra_of_restriction_rep():
    field = GF(2)
    rep = build_restriction_rep(
        2, Poly(field, [1, 1, 1]), [Poly.x(field)], [Poly(field, [1])]
    )
    assert EnvelopingAlgebra(rep).dim == 2 * 2 * 2  # m * p^2


# -- change of scalars ------------------------------------------------------------


def test_field_embedding_is_a_ring_homomorphism():
    F = GF(2)
    K = ext(2, 2)
    embed = field_embedding(F, K)
    for a in range(2):
        for b in range(2):
            assert embed(F.add(a, b)) == K.add(embed(a), embed(b))
            assert embed(F.mul(a, b)) == K.mul(embed(a), embed(b))
    assert embed(1) == 1

    F4 = ext(2, 2)
    K16 = make_extension(2, find_irreducible(2, 4))
    embed2 = field_embedding(F4, K16)
    for a in range(4):
        for b in range(4):
            assert embed2(F4.add(a, b)) == K16.add(embed2(a), embed2(b))
            assert embed2(F4.mul(a, b)) == K16.mul(embed2(a), embed2(b))

    with pytest.raises(NotExtension):
        field_embedding(F4, make_extension(2, find_irreducible(2, 3)))
    with pytest.raises(NotExtension):
        field_embedding(GF(3), K)


def test_extend_scalars_preserves_structure():
    field = GF(2)
    K = ext(2, 2)
    rep = v_rep(field, 1, [1], [0])
    big = extend_scalars(rep, K)
    assert big.field == K and big.dim == rep.dim
    assert validate_rep(big).ok and big.is_faithful()
    embed = field_embedding(field, K)
    inv, big_inv = invariants(rep), invariants(big)
    assert big_inv.alpha.code == embed(inv.alpha.code)
    assert [d.code for d in big_inv.deltas] == [embed(d.code) for d in inv.deltas]


# -- splitting along a central operator ---------------------------------------------


def test_split_by_central_needs_roots():
    field = GF(2)
    f = Poly(field, [1, 1, 1])
    rep = build_companion_rep(field.one(), field.zero(), f)
    # y^2 has minimal polynomial f, irreducible over GF(2)
    with pytest.raises(DoesNotSplit):
        split_by_central(rep)


def test_split_by_central_over_the_splitting_field():
    field = GF(2)
    f = Poly(field, [1, 1, 1])
    rep = build_companion_rep(field.one(), field.zero(), f)
    K = ext(2, 2)
    big = extend_scalars(rep, K)
    parts = split_by_central(big)
    assert len(parts) == 2
    assert sorted(s.rep.dim for s in parts) == [2, 2]
    evs = [s.eigenvalue for s in parts]
    assert evs[0] != evs[1]
    fK = Poly(K, [field_embedding(field, K)(c) for c in f.coeffs])
    for s in parts:
        assert fK(s.eigenvalue).is_zero()  # eigenvalues are the roots of f
        assert validate_rep(s.rep).ok and s.rep.is_faithful()
        assert s.basis.is_invariant(big)
        inv = invariants(s.rep)
        assert inv.epsilons[0] == s.eigenvalue  # gamma^p reads the eigenvalue
    assert invariants(parts[0].rep) != invariants(parts[1].rep)


def test_split_by_central_takes_kernels_at_the_min_poly_multiplicity(monkeypatch):
    # C = y^3 has minimal polynomial (X - 1)^2 (X - 2) on a 9-dimensional
    # module: ker (C - 1)^2 is one product and ker (C - 2) none, where
    # ker (C - lam)^9 took four each; the bases are the same
    field = GF(3)
    f = Poly(field, [2, 1]) * Poly(field, [2, 1]) * Poly(field, [1, 1])
    rep = build_companion_rep(field.one(), field.zero(), f)
    central = rep.y[0] ** 3
    plain_mul, products = Matrix.__mul__, []

    def mul(self, other):
        if isinstance(other, Matrix):
            products.append(other)
        return plain_mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", mul)
    parts = split_by_central(rep, central)
    assert len(products) == 13
    monkeypatch.setattr(Matrix, "__mul__", plain_mul)
    assert [(s.eigenvalue.code, s.rep.dim) for s in parts] == [(1, 6), (2, 3)]
    for s in parts:
        kernel = (central.shift(s.eigenvalue) ** rep.dim).kernel_basis()
        assert s.basis == SubspaceBasis(field, rep.dim, kernel)


def test_split_by_central_rejects_non_central_operators():
    field = GF(3)
    rep = v_rep(field, 1, [0], [0])
    with pytest.raises(ShapeMismatch):
        split_by_central(rep, rep.x[0])


def test_split_by_central_along_scalar_is_trivial():
    field = GF(3)
    rep = v_rep(field, 1, [1], [2])
    parts = split_by_central(rep, Matrix.scalar(field, 3, 2))
    assert len(parts) == 1
    assert parts[0].eigenvalue == field.element(2)
    assert parts[0].rep.dim == 3


# -- minimum faithful dimension search ----------------------------------------------


def test_search_finds_the_odd_characteristic_gap():
    res = search_min_faithful(1, 3, 2)
    assert not res.found and res.rep is None
    assert res.mode == "exhaustive"
    assert res.pairs_tested == 3**8  # every pair of 2x2 matrices over GF(3)


def test_search_finds_the_characteristic_two_exception():
    res = search_min_faithful(1, 2, 2)
    assert res.found and res.mode == "exhaustive"
    rep = res.rep
    assert validate_rep(rep).ok and rep.is_faithful()
    assert rep.dim == 2


def test_search_returns_the_witness_at_n_plus_2():
    for n, p in [(1, 3), (2, 2), (3, 5)]:
        res = search_min_faithful(n, p, n + 2)
        assert res.found and res.mode == "witness"
        assert res.pairs_tested == 0
        assert res.rep.dim == n + 2
        assert validate_rep(res.rep).ok and res.rep.is_faithful()


def test_search_input_guards():
    with pytest.raises(ValueError):
        search_min_faithful(1, 4, 2)
    with pytest.raises(ValueError):
        search_min_faithful(0, 3, 2)
    with pytest.raises(TooLarge):
        search_min_faithful(2, 3, 2)  # exhaustive mode is rank 1 only
    with pytest.raises(TooLarge):
        search_min_faithful(1, 67, 2)  # 67^2 + 67 classes exceed 2^12


@pytest.mark.parametrize("n, p, d", [(1, 2, 4), (1, 3, 6), (2, 3, 5), (3, 2, 7)])
def test_search_pads_the_witness_past_n_plus_2(n, p, d):
    res = search_min_faithful(n, p, d)
    assert (res.found, res.pairs_tested, res.mode) == (True, 0, "witness")
    assert res.rep.dim == d and validate_rep(res.rep).ok and res.rep.is_faithful()
    standard = build_standard(HeisenbergAlgebra(n, GF(p)))
    zero = Matrix.zeros(GF(p), d - n - 2, d - n - 2)
    assert res.rep == standard._map(lambda m: direct_sum([m, zero]))


@pytest.mark.parametrize(
    "p, d",
    [
        # d >= 3 is the witness, so the bound is on p: GF(61) runs at
        # d = 2 (3,782 classes)
        pytest.param(4099, 1, id="4099"),  # 4099 > 2^12 classes
        pytest.param(67, 2, id="67"),  # 67^2 + 67 > 2^12 classes
        pytest.param(89, 2, id="89"),
    ],
)
def test_search_refuses_past_its_bound_before_enumerating(p, d, monkeypatch):
    def enumerated(field, d):
        raise AssertionError("the guard must refuse before enumerating")

    monkeypatch.setattr(modules, "_similarity_classes", enumerated)
    with pytest.raises(TooLarge):
        search_min_faithful(1, p, d)


def test_search_bound_admits_gf7_at_dimension_two(monkeypatch):
    # the search is linear algebra on Matrix and never imports numpy;
    # GF(11) and GF(13), past the old 2^26 bound on pairs, run as well
    monkeypatch.setitem(sys.modules, "numpy", None)
    for p in (7, 11, 13):
        res = search_min_faithful(1, p, 2)
        assert not res.found and res.rep is None
        assert res.pairs_tested == p**8  # 7^8 = 5.76M pairs
        assert res.classes == _class_count(p, 2)  # 56 classes over GF(7)


def _class_count(q, d):
    # similarity classes of d x d matrices over GF(q)
    return {1: q, 2: q**2 + q, 3: q**3 + q**2 + q}[d]


def _forms(field, d):
    # the rational canonical forms of the invariant-factor chains
    return [direct_sum([companion(f) for f in chain])
            for chain in modules._similarity_classes(field, d)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_search_agrees_with_the_full_scan(p, d):
    found, oracle_rep, scanned = oracle_search(p, d)
    res = search_min_faithful(1, p, d)
    assert res.found == found
    assert res.classes == _class_count(p, d)
    if found:
        for rep in (res.rep, oracle_rep):
            assert rep.dim == d
            assert validate_rep(rep).ok and rep.is_faithful()
    else:
        assert res.rep is None
        assert res.pairs_tested == scanned == p ** (2 * d * d)


@pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (3, 2), (5, 2), (4, 2)])
def test_rank1_partner_agrees_with_brute_force(q, d):
    # every similarity class: a partner exists exactly when the scan over
    # all B finds one, and the partner returned is a witness; GF(4) at
    # d = 2 has 20 classes, 4 of them with a partner
    for a in _forms(ext(2, 2) if q == 4 else GF(q), d):
        b = modules._rank1_partner(a)
        assert (b is None) == (oracle_rank1_partner(a) is None), a
        if b is not None:
            z = a * b - b * a
            assert not z.is_zero()
            assert (a * z - z * a).is_zero() and (b * z - z * b).is_zero()


# SHA-256 of (p, d, class index, B) for every class below: how a partner
# is found may change, the partner itself may not
PARTNER_DIGEST = "c19fcd9b91d363ae73c9ae0309d75500bdf3cdb8acd4f73a3743098a5d2e82f7"


def test_rank1_partners_are_pinned():
    out = []
    for p, d in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        for i, a in enumerate(_forms(GF(p), d)):
            b = modules._rank1_partner(a)
            out.append((p, d, i, None if b is None else b.data))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == PARTNER_DIGEST


@pytest.mark.parametrize("p", [3, 5])
def test_rank1_partner_eliminates_twice_for_one_line(p, monkeypatch):
    # companion(X^2) over odd p: U is one line, so one elimination gives U
    # with its preimages and one stacked solve settles the line
    calls = []
    eliminate = matrices._eliminate

    def counted(*args, **kwargs):
        calls.append(args[2])
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    assert modules._rank1_partner(companion(Poly(GF(p), [0, 0, 1]))) is None
    # the widths: (ad^2 | ad | I), then [ad_A ; ad_Z] beside [Z ; 0]
    assert calls == [3 * 4, 4 + 1]


def test_rank1_partner_checks_each_preimage(monkeypatch):
    # the preimage beside each vector of U is mapped back onto it by verify,
    # which python -O keeps
    lines = modules._line_vectors

    def corrupted(field, rows):
        for v in lines(field, rows):
            v[-1] = field.add(v[-1], 1)
            yield v

    monkeypatch.setattr(modules, "_line_vectors", corrupted)
    for p in (2, 3):
        with pytest.raises(VerificationFailed, match="U must lie in the image of ad_A"):
            modules._rank1_partner(companion(Poly(GF(p), [0, 0, 1])))


@pytest.mark.parametrize("p, d", [(2, 2), (2, 3), (3, 2)])
def test_similarity_classes_are_the_frobenius_forms(p, d):
    field = GF(p)
    forms = _forms(field, d)
    assert len(set(forms)) == len(forms)
    assert set(forms) == {
        frobenius_form(Matrix(field, d, d, list(entries))).form
        for entries in itertools.product(range(p), repeat=d * d)
    }


@pytest.mark.parametrize(
    "spec, d",
    [((2, 1), 1), ((2, 1), 3), ((3, 1), 3), ((5, 1), 2), ((5, 1), 3),
     ((7, 1), 2), ((2, 2), 3), ((3, 2), 2)],
)
def test_similarity_classes_match_divisibility_oracle(spec, d):
    # multiplying up gives the same forms in the same order as testing
    # f % prev for every monic f
    p, m = spec
    field = GF(p) if m == 1 else ext(p, m)
    forms = _forms(field, d)
    assert forms == oracle_similarity_classes(field, d)


@pytest.mark.parametrize(
    "spec, d",
    [((2, 1), 1), ((3, 1), 2), ((5, 1), 2), ((5, 1), 3), ((2, 2), 2),
     ((2, 2), 3), ((3, 2), 2), ((2, 3), 2)],
)
def test_trace_zero_chains_are_the_classes_of_trace_zero(spec, d):
    # over GF(p^m) a code is not its residue: the traces are field sums,
    # here Matrix.trace of each form, and the order is kept
    p, m = spec
    field = GF(p) if m == 1 else ext(p, m)
    chains = list(modules._similarity_classes(field, d))
    want = [c for c in chains
            if direct_sum([companion(f) for f in c]).trace().is_zero()]
    assert list(modules._similarity_classes(field, d, trace_zero=True)) == want
    if d % p:  # one trace-zero class in each orbit of translates A - cI
        assert len(want) * field.order == len(chains)


@pytest.mark.parametrize(
    "q, d", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3)]
)
def test_similarity_class_counts(q, d):
    forms = _forms(GF(q), d)
    assert len(forms) == _class_count(q, d)


def _monics(field, degree):
    for low in itertools.product(range(field.order), repeat=degree):
        yield Poly(field, [*low, 1])


def _inseparable(field):
    # X^p - c: f' = 0, and f = (X - c^(1/p))^p repeats its one factor
    p = field.p
    return [Poly(field, [field.neg(c)] + [0] * (p - 1) + [1])
            for c in range(field.order)]


@pytest.mark.parametrize("p, top", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_squarefree_matches_sympy(p, top):
    field = GF(p)
    for k in range(top + 1):
        for f in [*_monics(field, k), *_inseparable(field)]:
            want = gf_sqf_p(list(reversed(f.coeffs)), p, ZZ)
            assert modules._squarefree(f) == want, f
    assert not any(map(modules._squarefree, _inseparable(field)))


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2)])
def test_squarefree_matches_factor_multiplicities(p, m):
    # squarefree exactly when f is the product of its distinct factors
    field = ext(p, m)
    for k in range(1, 4):
        for f in _monics(field, k):
            product = Poly(field, [1])
            for g in f.irreducible_factors():
                product = product * g
            assert modules._squarefree(f) == (product == f), f
    assert not any(map(modules._squarefree, _inseparable(field)))


def test_semisimple_classes_have_no_rank1_room():
    # the lemma the search prunes by: dim(im ad_A & ker ad_A) = 0 exactly
    # when the minimal polynomial fk is squarefree (935 classes)
    count = 0
    for field in [GF(2), GF(3), ext(2, 2), GF(5), GF(7), ext(3, 2)]:
        for d in (1, 2, 3):
            if field.order**d > 400:
                continue
            for chain in modules._similarity_classes(field, d):
                a = direct_sum([companion(f) for f in chain])
                assert (oracle_u_dim(a) == 0) == modules._squarefree(chain[-1]), chain
                count += 1
    assert count == 935


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_search_settles_only_trace_zero_non_semisimple_classes(p, monkeypatch):
    # at d = 2 the classes (X - c)^2 are one translation orbit, settled by
    # X^2 alone for odd p; at p = 2, p | d and both X^2 and (X + 1)^2 run
    calls = []
    partner = modules._rank1_partner

    def counted(a):
        calls.append(a)
        return partner(a)

    monkeypatch.setattr(modules, "_rank1_partner", counted)
    res = search_min_faithful(1, p, 2)
    field = GF(p)
    squares = [companion(Poly(field, [c * c % p, -2 * c % p, 1])) for c in range(p)]
    assert calls == (squares if p == 2 else squares[:1])
    assert res.classes == _class_count(p, 2)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_search_examines_exactly_the_trace_zero_classes(p, d, monkeypatch):
    # the classes past the trace filter are those whose form has trace 0
    # (Matrix.trace), or every class when p | d
    seen = []
    squarefree = modules._squarefree

    def recorded(f):
        seen.append(f)
        return squarefree(f)

    monkeypatch.setattr(modules, "_squarefree", recorded)
    search_min_faithful(1, p, d)
    chains = list(modules._similarity_classes(GF(p), d))
    want = [c[-1] for c in chains
            if d % p == 0
            or direct_sum([companion(f) for f in c]).trace().is_zero()]
    assert seen == want
    assert len(want) == (len(chains) if d % p == 0 else len(chains) // p)


# every chain over GF(p) at d = 1, 2 for p <= 7, and at d = 3 for p <= 3
_COVERING = [(p, d) for p in (2, 3, 5, 7) for d in (1, 2)] + [(2, 3), (3, 3)]


def _trace_zero_translate(a):
    # the class of A - cI with c = tr(A) / d, defined when p does not divide d
    c = a.trace() / a.rows
    return frobenius_form(a - Matrix.scalar(a.field, a.rows, c)).form


@pytest.mark.parametrize("p, d", _COVERING)
def test_translation_orbits_share_ad_and_hold_one_trace_zero_class(p, d):
    # the covering argument of the search: ad_(A - cI) = ad_A, and for
    # p not dividing d each orbit {A - cI} has exactly one trace-zero class
    field = GF(p)
    forms = oracle_similarity_classes(field, d)
    orbits = set()
    for a in forms:
        ad = oracle_ad(a)
        orbit = set()
        for c in range(p):
            shifted = a - Matrix.scalar(field, d, c)
            assert oracle_ad(shifted) == ad
            orbit.add(frobenius_form(shifted).form)
        assert a in orbit
        traces = [b.trace() for b in orbit]
        if d % p:
            assert len(orbit) == p
            assert sum(t.is_zero() for t in traces) == 1
            assert _trace_zero_translate(a) in orbit
        else:
            assert len(set(traces)) == 1  # p | d: translation keeps the trace
        orbits.add(frozenset(orbit))
    assert set().union(*orbits) == set(forms)
    if d % p:
        zero = [a for a in forms if a.trace().is_zero()]
        assert len(orbits) == len(zero) == len(forms) // p


@pytest.mark.parametrize("p", [3, 5])
def test_rank1_partner_exists_exactly_for_the_trace_zero_translate(p):
    field = GF(p)
    found = {}
    for a in oracle_similarity_classes(field, 2):
        zero = _trace_zero_translate(a)
        if zero not in found:
            found[zero] = oracle_rank1_partner(zero) is not None
        assert (oracle_rank1_partner(a) is not None) == found[zero]
    assert len(found) == _class_count(p, 2) // p


def test_rank1_partner_carries_over_to_every_translate():
    # at (2, 2) partners exist; a partner of A is one of every A - cI
    field = GF(2)
    for a in oracle_similarity_classes(field, 2):
        b = oracle_rank1_partner(a)
        for c in range(2):
            shifted = a - Matrix.scalar(field, 2, c)
            assert (oracle_rank1_partner(shifted) is None) == (b is None)
            if b is not None:
                z = shifted * b - b * shifted
                assert not z.is_zero()
                assert shifted * z == z * shifted and b * z == z * b


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_non_semisimple_class_count_at_dimension_three(q):
    field = GF(q) if q != 4 else ext(2, 2)
    chains = list(modules._similarity_classes(field, 3))
    repeated = [c for c in chains if not modules._squarefree(c[-1])]
    assert len(chains) == _class_count(q, 3)
    assert len(repeated) == q**2 + q


# SearchResult fields (found, pairs_tested, mode, classes) as computed when
# every class, semisimple or not, went through _rank1_partner
SEARCH_PINS = {
    (2, 1): (False, 4, "exhaustive", 2),
    (2, 2): (True, 256, "exhaustive", 6),
    (3, 1): (False, 9, "exhaustive", 3),
    (3, 2): (False, 6561, "exhaustive", 12),
    (5, 1): (False, 25, "exhaustive", 5),
    (5, 2): (False, 390625, "exhaustive", 30),
    (7, 1): (False, 49, "exhaustive", 7),
    (7, 2): (False, 5764801, "exhaustive", 56),
}


@pytest.mark.parametrize("p, d", sorted(SEARCH_PINS))
def test_search_results_are_pinned(p, d):
    res = search_min_faithful(1, p, d)
    assert (res.found, res.pairs_tested, res.mode, res.classes) == SEARCH_PINS[p, d]
    if (p, d) == (2, 2):
        # A the companion of X^2, B = E_12, Z = I
        assert [m.data for m in res.rep.x] == [[0, 0, 1, 0]]
        assert [m.data for m in res.rep.y] == [[0, 1, 0, 0]]
        assert res.rep.z.data == [1, 0, 0, 1]
    else:
        assert res.rep is None


@pytest.mark.parametrize("spec", [(2, 1), (5, 1), (2, 2), (3, 2)])
def test_ad_matches_kronecker_formula(spec):
    p, m = spec
    field = GF(p) if m == 1 else ext(p, m)
    rng = random.Random(18 * p + m)
    for d in range(1, 5):
        for _ in range(3):
            a = Matrix(field, d, d, [rng.randrange(field.order) for _ in range(d * d)])
            ad = modules._ad(a)
            assert ad == oracle_ad(a)
            x = Matrix(field, d, d, [rng.randrange(field.order) for _ in range(d * d)])
            assert ad.apply(x.data) == (a * x - x * a).data


@pytest.mark.parametrize("d", [2, 3])  # the scan's witness, the standard one
def test_search_witness_check_raises_verification_failed(d, monkeypatch):
    # the checks must survive python -O, so they cannot be asserts
    monkeypatch.setattr(
        modules, "validate_rep", lambda rep: SimpleNamespace(ok=False)
    )
    with pytest.raises(VerificationFailed):
        search_min_faithful(1, 2, d)
