"""The result records: field order, construction, and the behaviour callers
rely on.

Every record is a typing.NamedTuple, so it unpacks in field order and
compares equal to the plain tuple of its values.  The field names, their
order and their defaults are part of the contract, as are the properties,
IrreducibilityResult's truthiness, InvariantTuple's hash and repr, and a
Report's repr without its outcomes.  Suite records cross a process
boundary under --jobs, so they must pickle.
"""

import pickle

import pytest

from heisenmod import (
    GF,
    CanonicalForm,
    CaseOutcome,
    CompositionFactor,
    CompositionSeries,
    HeisenbergAlgebra,
    InvariantTuple,
    IrreducibilityResult,
    Matrix,
    ModuleParams,
    Poly,
    Report,
    SearchResult,
    Summand,
    ValidationReport,
    build_V,
    companion,
    composition_series,
    conjugate_rep,
    direct_sum_reps,
    invariants,
    is_irreducible,
)

FIELDS = {
    InvariantTuple: ("alpha", "deltas", "epsilons"),
    ValidationReport: ("violations", "faithful", "z_scalar"),
    CanonicalForm: ("invariant_factors", "transform"),
    IrreducibilityResult: ("irreducible", "method", "detail", "submodule"),
    CompositionFactor: ("dim", "faithful", "invariants", "rep"),
    CompositionSeries: ("chain", "factors"),
    Summand: ("eigenvalue", "basis", "rep"),
    SearchResult: ("found", "rep", "pairs_tested", "mode", "classes"),
    CaseOutcome: ("case", "inputs", "ok", "message"),
    Report: (
        "suite", "anchor", "cases_run", "cases_passed", "failures",
        "wall_time", "outcomes",
    ),
}


def v_rep(field, alpha, betas, gammas):
    e = field.element
    return build_V(
        HeisenbergAlgebra(len(betas), field),
        ModuleParams(e(alpha), [e(b) for b in betas], [e(g) for g in gammas]),
    )


def demo_report(**extra):
    bad = CaseOutcome(case="p=3,check", inputs={"p": 3}, ok=False, message="broke")
    return Report(
        suite="demo", anchor="demo anchor", cases_run=2, cases_passed=1,
        failures=[bad], wall_time=0.5, **extra,
    )


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda r: r.__name__)
def test_fields_keep_their_order_and_take_keywords(record):
    names = FIELDS[record]
    assert record._fields == names
    values = [object() for _ in names]
    built = record(**dict(zip(names, values)))
    assert tuple(built) == tuple(values)
    assert all(getattr(built, k) is v for k, v in zip(names, values))
    assert built == tuple(values)  # equal to the plain tuple of its values


def test_only_search_classes_and_report_outcomes_have_defaults():
    defaults = {r.__name__: r._field_defaults for r in FIELDS}
    assert defaults.pop("SearchResult") == {"classes": 0}
    assert defaults.pop("Report") == {"outcomes": ()}
    assert all(d == {} for d in defaults.values()), defaults
    assert SearchResult(False, None, 7, "linear").classes == 0


def test_properties_survive():
    field = GF(3)
    assert ValidationReport([], True, None).ok
    assert not ValidationReport(["[x1, y1] != z"], True, None).ok
    f = Poly(field, [2, 0, 1])  # X^2 - 1
    assert CanonicalForm([f], Matrix.identity(field, 2)).form == companion(f)
    rep = v_rep(field, 1, [0], [2])
    assert composition_series(direct_sum_reps([rep, rep])).chain_dims == [0, 3, 6]
    assert not demo_report().ok
    assert demo_report()._replace(cases_passed=2).ok


def test_irreducibility_result_is_true_exactly_when_irreducible():
    field = GF(3)
    rep = v_rep(field, 1, [0], [2])
    assert bool(is_irreducible(rep)) is True
    assert bool(is_irreducible(direct_sum_reps([rep, rep]))) is False
    # truthiness follows the flag, not the tuple's (nonzero) length
    assert not IrreducibilityResult(False, "m", "d", None)
    assert IrreducibilityResult(True, "m", "d", None)


def test_invariant_tuple_hash_equality_and_repr():
    field = GF(3)
    rep = v_rep(field, 1, [0], [2])
    inv = invariants(rep)
    assert repr(inv) == "InvariantTuple(alpha=1, deltas=[0], epsilons=[2])"
    # the hash a frozen record of these three fields has always had
    assert hash(inv) == hash((inv.alpha, inv.deltas, inv.epsilons))
    moved = conjugate_rep(rep, Matrix(field, 3, 3, [1, 1, 0, 0, 1, 2, 0, 0, 1]))
    assert invariants(moved) == inv
    assert {inv: "V"}[invariants(moved)] == "V"
    other = invariants(v_rep(field, 2, [0], [2]))
    assert other != inv and hash(other) != hash(inv)
    with pytest.raises(AttributeError):
        inv.alpha = other.alpha


def test_report_outcomes_default_is_empty_and_immutable_and_not_in_repr():
    a, b = demo_report(), demo_report()
    assert a.outcomes == () and b.outcomes == ()
    # an immutable empty default: no Report can change what another sees
    with pytest.raises(AttributeError):
        a.outcomes.append(a.failures[0])
    listed = demo_report(outcomes=list(a.failures))
    assert listed.outcomes == a.failures
    text = (
        "Report(suite='demo', anchor='demo anchor', cases_run=2, "
        "cases_passed=1, failures=[CaseOutcome(case='p=3,check', "
        "inputs={'p': 3}, ok=False, message='broke')], wall_time=0.5)"
    )
    assert repr(a) == repr(listed) == text


def test_suite_records_survive_a_pickle_round_trip():
    report = demo_report(outcomes=[
        CaseOutcome("p=2,check", {"p": 2}, True, "held"),
        CaseOutcome("p=3,check", {"p": 3}, False, "broke"),
    ])
    for record in (report, report.outcomes[0], demo_report()):
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record)
        assert clone == record
    assert pickle.loads(pickle.dumps(report)).render() == report.render()
