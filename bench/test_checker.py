"""The benchmark's checker accepts heisenmod's true outputs and rejects
corrupted ones.

    python3 -m pytest -q bench/test_checker.py
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import heisenmod as hm  # noqa: E402

import gf  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def fields():
    return wl.Fields(hm)


def test_field_arithmetic_agrees_with_heisenmod(fields):
    rng = random.Random(0)
    for p, m in ((2, 2), (3, 2), (2, 5), (3, 6), (7, 3)):
        hf, f = fields.get(p, m)
        for _ in range(50):
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            assert f.mul(a, b) == hf.mul(a, b)
            assert f.add(a, b) == hf.add(a, b)


def test_rank_agrees_with_heisenmod(fields):
    rng = random.Random(1)
    for p, m in ((5, 1), (2, 2), (3, 2)):
        hf, f = fields.get(p, m)
        ck = gf.Checker(f)
        for _ in range(20):
            r, c = rng.randrange(1, 7), rng.randrange(1, 7)
            low = rng.randrange(1, min(r, c) + 1)
            # a product of r x low and low x c has rank at most low
            a = hm.Matrix(hf, r, low, [rng.randrange(f.q) for _ in range(r * low)])
            b = hm.Matrix(hf, low, c, [rng.randrange(f.q) for _ in range(low * c)])
            prod = a * b
            assert ck.rank(ck.mat(r, c, prod.data)) == prod.rank()
            assert np.array_equal(
                ck.mul(ck.mat(r, low, a.data), ck.mat(low, c, b.data)),
                ck.mat(r, c, prod.data))


def conj_v(fields, p, m, n, seed):
    rng = random.Random(seed)
    hf, f = fields.get(p, m)
    params = wl.random_params(rng, f.q, n)
    v = wl.make_v(hm, hf, n, params)
    return wl.conjugated(hm, hf, v, wl.random_invertible(rng, f, v.dim)), f, params


def test_rejects_corrupted_transform(fields):
    rep, f, params = conj_v(fields, 2, 2, 2, 3)
    check = wl.classify_check(f, rep, params)
    got, t = hm.classify(rep)
    check((got, t))
    bad = list(t.data)
    bad[1] = (bad[1] + 1) % f.q
    with pytest.raises(wl.CheckFailed, match="transform"):
        check((got, hm.Matrix(t.field, t.rows, t.cols, bad)))
    scaled = t * t.field.element(2)  # a nonzero multiple conjugates too
    check((got, scaled))
    other = hm.ModuleParams(got.alpha, got.betas, [g + 1 for g in got.gammas])
    with pytest.raises(wl.CheckFailed, match="parameters"):
        check((other, t))


def test_rejects_non_invariant_subspace(fields):
    rep, f, _ = wl.sum_stream(hm, fields, 7, 0)
    check = wl.irr_check(f, rep, False)
    res = hm.is_irreducible(rep)
    check([res])
    e0 = [1] + [0] * (rep.dim - 1)
    line = hm.SubspaceBasis(rep.field, rep.dim, [e0])
    fake = hm.IrreducibilityResult(False, "fake", "", line)
    with pytest.raises(wl.CheckFailed, match="not invariant"):
        check([fake])
    wrong = hm.IrreducibilityResult(True, "fake", "", None)
    with pytest.raises(wl.CheckFailed, match="wrong verdict"):
        check([wrong])


def test_rejects_wrong_hom_dimension(fields):
    hf, f = fields.get(3)
    rng = random.Random(4)
    a = wl.random_params(rng, 3, 1)
    b = (a[0], a[1], [(a[2][0] + 1) % 3])
    r1 = wl.conjugated(hm, hf, wl.make_v(hm, hf, 1, a), wl.random_invertible(rng, f, 3))
    r2 = wl.conjugated(hm, hf, wl.make_v(hm, hf, 1, a), wl.random_invertible(rng, f, 3))
    r3 = wl.conjugated(hm, hf, wl.make_v(hm, hf, 1, b), wl.random_invertible(rng, f, 3))
    same = wl.hom_check(f, r1, r2, True)
    basis = hm.hom_space(r1, r2)
    same(basis)
    with pytest.raises(wl.CheckFailed, match="dimension"):
        same([])
    with pytest.raises(wl.CheckFailed, match="dimension"):
        same(basis + basis)
    different = wl.hom_check(f, r1, r3, False)
    different(hm.hom_space(r1, r3))
    with pytest.raises(wl.CheckFailed, match="dimension"):
        different(basis)
    # a claim that the modules are isomorphic is refuted by the kernel
    with pytest.raises(wl.CheckFailed, match="Cor 2.4"):
        wl.hom_check(f, r1, r3, True)([])


def test_rejects_non_witness():
    found = hm.search_min_faithful(1, 2, 2)
    assert found.found
    wl.search_check([(2, 2, found)])
    field = found.rep.field
    x = found.rep.x[0]
    # x commutes with itself: [x, x] = 0 cannot be a faithful z
    commuting = hm.Representation(found.rep.algebra, [x], [x], x * 0)
    fake = hm.SearchResult(True, commuting, found.pairs_tested, found.mode)
    with pytest.raises(wl.CheckFailed, match="not faithful"):
        wl.search_check([(2, 2, fake)])
    # [x, y] = z but z is not central
    a = hm.Matrix(field, 2, 2, [1, 0, 0, 0])
    b = hm.Matrix(field, 2, 2, [0, 1, 0, 0])
    c = a * b - b * a
    noncentral = hm.Representation(found.rep.algebra, [a], [b], c)
    with pytest.raises(wl.CheckFailed, match="not central"):
        wl.search_check([(2, 2, hm.SearchResult(True, noncentral, 256, "exhaustive"))])
    # for odd p, finding a 2-dimensional module contradicts the minimum n + 2
    none = hm.search_min_faithful(1, 3, 2)
    wl.search_check([(3, 2, none)])
    with pytest.raises(wl.CheckFailed):
        wl.search_check([(3, 2, hm.SearchResult(True, found.rep, 6561, "exhaustive"))])


def test_series_check_rejects_short_chain(fields):
    rep, f, invs = wl.sum_stream(hm, fields, 11, 0)
    check = wl.series_check(f, rep, [11, 11], invs)
    series = hm.composition_series(rep)
    check(series)
    short = hm.CompositionSeries([series.chain[0], series.chain[-1]], series.factors[:1])
    with pytest.raises(wl.CheckFailed):
        check(short)
