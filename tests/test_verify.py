"""Registry and verification driver behavior."""

from dataclasses import replace

import pytest

from qhecke.registry import get_case, registry, registry_ids
from qhecke.verify import all_passed, run_case, verify

SAMPLE = ["hecke-hf8", "appell-hf4", "dz-j-z6q-q3", "mrel-evenodd",
          "cong-hf8-A", "dissect-j1j2-3", "spec-f4-at-i"]


def test_registry_well_formed():
    cases = registry()
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids)), "duplicate ids"
    assert len(cases) >= 40
    modes = {c.mode for c in cases}
    assert modes <= {"univariate", "formal_z", "numeric_z", "jet", "congruence"}
    flagged = [c.id for c in cases if c.allow_fail]
    assert flagged == ["mrel-f151-theta14"]
    assert all(c.default_order >= 30 for c in cases)


def test_get_case_unknown():
    with pytest.raises(KeyError):
        get_case("no-such-id")
    with pytest.raises(KeyError):
        verify(["no-such-id"])


def test_verify_rejects_order_and_jobs_below_one():
    for kwargs in ({"order": 0}, {"order": -3}, {"jobs": 0}, {"jobs": -1}):
        with pytest.raises(ValueError, match="must be at least 1"):
            verify(["hecke-hf4"], **kwargs)


def test_tuple_case_with_missing_component_is_an_error():
    # zip would drop the third component and pass vacuously
    case = get_case("dissect-j1j2-3")
    short = replace(case, build_rhs=lambda n: case.build_rhs(n)[:2])
    report = run_case(short, 30)
    assert report.status == "error" and report.certified_order == 0
    assert "3 components" in report.first_mismatch["lhs"]
    assert "rhs 2" in report.first_mismatch["lhs"]


def test_numeric_z_case_without_witnesses_is_an_error():
    report = run_case(replace(get_case("numz-f4-appell"), witnesses=()), 30)
    assert report.status == "error" and report.certified_order == 0
    assert "no witnesses" in report.first_mismatch["lhs"]


def test_sample_cases_pass_and_certify_requested_order():
    for cid in SAMPLE:
        case = get_case(cid)
        report = run_case(case, 40)
        assert report.status == "pass", (cid, report.first_mismatch)
        assert report.certified_order == 40


def test_determinism_two_runs_identical():
    r1 = verify(SAMPLE, order=36)
    r2 = verify(SAMPLE, order=36)
    assert [(r.id, r.status, r.certified_order, r.first_mismatch) for r in r1] == \
        [(r.id, r.status, r.certified_order, r.first_mismatch) for r in r2]
    # reports come back in registry order regardless of request order
    assert [r.id for r in r1] == [c for c in registry_ids() if c in set(SAMPLE)]


def test_order_monotonicity():
    # a case passing at order N passes at every smaller order
    for cid in ("hecke-sigma", "humbert-hf4"):
        big = run_case(get_case(cid), 80)
        small = run_case(get_case(cid), 37)
        assert big.status == small.status == "pass"


def test_parallel_matches_sequential():
    seq = verify(SAMPLE, order=36, jobs=1)
    par = verify(SAMPLE, order=36, jobs=2)
    assert [(r.id, r.status, r.certified_order) for r in seq] == \
        [(r.id, r.status, r.certified_order) for r in par]


def test_expected_fail_case_is_isolated():
    reports = verify(["mrel-f151-theta14", "mrel-f121-g121-w1"])
    by_id = {r.id: r for r in reports}
    assert by_id["mrel-f121-g121-w1"].status == "pass"
    bad = by_id["mrel-f151-theta14"]
    assert bad.status == "fail" and bad.allow_fail
    assert bad.first_mismatch["exp"] == 0
    assert all_passed(reports), "allow-fail case must not poison the run"


def test_report_json_schema():
    report = run_case(get_case("appell-sigma"), 40)
    js = report.to_json()
    assert set(js) == {"id", "status", "certified_order", "first_mismatch", "ms"}
    assert js["status"] == "pass" and js["first_mismatch"] is None
