"""Registry and verification driver behavior."""

import importlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qhecke.registry import get_case, registry, registry_ids
from qhecke.rings import ZPoly
from qhecke.series import QSeries
from qhecke.theta import Deferred
from qhecke.verify import all_passed, run_case, verify

SRC = str(Path(__file__).resolve().parent.parent / "src")
IDENTITIES = Path(__file__).resolve().parent.parent / "IDENTITIES.md"

SAMPLE = ["hecke-hf8", "appell-hf4", "dz-j-z6q-q3", "mrel-evenodd",
          "cong-hf8-A", "dissect-j1j2-3", "spec-f4-at-i"]


def test_registry_well_formed():
    cases = registry()
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids)), "duplicate ids"
    assert len(cases) >= 40
    modes = {c.mode for c in cases}
    assert modes <= {"univariate", "formal_z", "jet", "congruence"}
    flagged = [c.id for c in cases if c.allow_fail]
    assert flagged == ["mrel-f151-theta14"]
    assert all(c.default_order >= 30 for c in cases)


def _documented_ids():
    """Patterns for the ids in the first column of every "| id | statement |"
    table of IDENTITIES.md: `a-w1/w2` is a-w1 and a-w2, `a` / `b` is
    both, and {m} stands for a number."""
    pats, in_table = [], False
    for line in IDENTITIES.read_text(encoding="utf-8").splitlines():
        if line.startswith("| id | statement |"):
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and not line.startswith("|--"):
            for name in re.findall(r"`([^`]+)`", line.split(" | ")[0]):
                stem = name.removesuffix("-w1/w2")
                for cid in ([stem + "-w1", stem + "-w2"] if stem != name else [name]):
                    pats.append(re.escape(cid).replace(re.escape("{m}"), r"\d+"))
    return pats


def test_identities_md_and_the_registry_list_the_same_ids():
    pats, ids = _documented_ids(), registry_ids()
    assert len(pats) >= 80
    assert [p for p in pats if not any(re.fullmatch(p, i) for i in ids)] == []
    assert [i for i in ids if not any(re.fullmatch(p, i) for p in pats)] == []


def test_get_case_unknown():
    with pytest.raises(KeyError):
        get_case("no-such-id")
    with pytest.raises(KeyError):
        verify(["no-such-id"])


def test_verify_rejects_order_and_jobs_below_one():
    for kwargs in ({"order": 0}, {"order": -3}, {"jobs": 0}, {"jobs": -1},
                   {"scale": 0}, {"scale": -1}):
        with pytest.raises(ValueError, match="must be at least 1"):
            verify(["hecke-hf4"], **kwargs)


def test_verify_rejects_order_with_scale():
    with pytest.raises(ValueError, match="conflict"):
        verify(["hecke-hf4"], order=40, scale=2)


def test_import_loads_no_process_pool():
    # a sequential run needs no multiprocessing, so importing the package
    # and building the registry must not load it
    code = ("import sys, qhecke; from qhecke.registry import registry; registry(); "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_verify_rejects_an_empty_selection():
    # all_passed([]) is True, so an empty run would be a pass of nothing
    with pytest.raises(ValueError, match="no cases selected"):
        verify([])


def test_tuple_case_with_missing_component_is_an_error():
    # zip would drop the third component and pass vacuously
    case = get_case("dissect-j1j2-3")
    short = replace(case, rhs=case.rhs.map(lambda parts: parts[:2]))
    report = run_case(short, 30)
    assert report.status == "error" and report.certified_order == 0
    assert "3 components" in report.first_mismatch["lhs"]
    assert "rhs 2" in report.first_mismatch["lhs"]


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


def test_pool_starts_no_more_workers_than_cases(monkeypatch):
    # the package exports a function named verify, so fetch the module itself
    verify_mod = importlib.import_module("qhecke.verify")
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [run_case(get_case(case_id), order) for case_id, order in items]

    monkeypatch.setattr(verify_mod, "_pool", RecordingPool)
    two = ["hecke-sigma", "humbert-hf4"]
    reports = verify(two, order=10, jobs=4)
    assert [r.id for r in reports] == [c for c in registry_ids() if c in set(two)]
    verify(SAMPLE, order=10, jobs=2)
    assert sizes == [2, 2]
    verify(SAMPLE[:3], order=10, jobs=3)
    assert sizes == [2, 2, 3]


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


def test_every_builder_certifies_the_order_it_is_asked_for():
    # run_case asks each side for exactly n, so a side that falls short
    # would turn its case into an error; check every tuple component.
    # Every side must also start no lower than its low, the bound every
    # step that builds it relies on
    short, below_low = [], []
    for case in registry():
        for name, side in (("lhs", case.lhs), ("rhs", case.rhs)):
            assert isinstance(side, Deferred), (case.id, name)
            for n in (1, 2, 5, 40):
                value = side.build(n)
                for v in value if isinstance(value, tuple) else (value,):
                    if v.order < n:
                        short.append((case.id, name, n, v.order))
                    val = v.valuation()
                    if val is not None and val < side.low:
                        below_low.append((case.id, name, n, val, side.low))
    assert not short and not below_low, (short, below_low)


def test_registry_binds_its_builders_when_it_runs(monkeypatch):
    # perfbench/tracer.py rebinds module attributes before it builds the
    # registry, so a leaf must take its builder when registry() runs: one
    # bound at import would keep the unwrapped function
    from qhecke import mock
    from qhecke.registry import cases_by_id

    calls, original = [], mock.hecke_rogers

    def counting(spec, n):
        calls.append(spec)
        return original(spec, n)

    monkeypatch.setattr(mock, "hecke_rogers", counting)
    cases_by_id.cache_clear()
    try:
        assert run_case(get_case("hecke-hf4"), 10).status == "pass"
    finally:
        cases_by_id.cache_clear()
    assert calls == [mock.HR_HF4]


def _bump_rhs(case, e, c=1, component=None):
    """The case with c*q^e added to its right-hand side, or to one
    component of a tuple side; in a formal_z case the term is c*z^3*q^e."""
    term = ZPoly.monomial(c, 3) if case.mode == "formal_z" else c

    def bump(s):
        return s + QSeries.monomial(term, e)

    def bumped(rhs):
        if component is None:
            return bump(rhs)
        return tuple(bump(s) if i == component else s for i, s in enumerate(rhs))

    return replace(case, rhs=case.rhs.map(bumped))


@pytest.mark.parametrize("cid, order", [("mrel-xinverse-w1", 30),
                                        ("mrel-zshift-w2", 30),
                                        ("mrel-xshift-up-w1", 30),
                                        ("mrel-xshift-down-w2", 30),
                                        ("mrel-reflect-w1", 30),
                                        ("mrel-change-z-w2", 30),
                                        ("mrel-quartic-w1", 30),
                                        ("dz-theta-quotient-q12-double", 40),
                                        ("numz-f4-appell", 30),
                                        ("numz-f8-appell", 30),
                                        ("mrel-evenodd", 30),
                                        ("dissect-j1j2-3", 30),
                                        ("cong-hf24-phi-minus", 40),
                                        ("bivar-f8z-appell", 30),
                                        ("spec-f4-at-i", 30),
                                        ("spec-f8-at-m1", 30),
                                        ("spec-f8-at-1", 30),
                                        ("dz-m-appell-q6", 40),
                                        ("dz-m-z-change", 40)])
def test_negative_controls(cid, order):
    # a term at the lowest exponent, at q^20 or at q^N is caught there, in
    # the slot it was added to (a zero tuple component starts at q^0); one
    # at q^(N+1) lies beyond the certificate and must not be.  A congruence
    # case passes a term that is a multiple of its modulus.
    case = get_case(cid)
    rhs = case.rhs.build(order)
    if isinstance(rhs, tuple):
        slots = [(i, f"component {i}", side) for i, side in enumerate(rhs)]
    else:
        slots = [(None, None, rhs)]
    for component, slot, side in slots:
        low = side.valuation()
        for e in (0 if low is None else low, 20, order):
            report = run_case(_bump_rhs(case, e, 1, component), order)
            assert report.status == "fail" and report.first_mismatch["exp"] == e
            assert report.to_json()["first_mismatch"].get("slot") == slot
            if case.modulus:
                report = run_case(_bump_rhs(case, e, case.modulus, component), order)
                assert report.status == "pass" and report.certified_order == order
        report = run_case(_bump_rhs(case, order + 1, 1, component), order)
        assert report.status == "pass" and report.certified_order == order


def test_congruence_mismatch_is_reported_in_residues():
    # a mismatch is reported as two elements of Z/mZ, in [0, m), so the
    # report does not depend on which side was built as residues
    from qhecke import classnum, mock
    from qhecke.verify import _compare

    lhs = QSeries(0, [0, 5, -3], 2)
    assert _compare(lhs, QSeries(0, [0, 1, 0], 2), 2, modulus=4) == {
        "exp": 2, "lhs": "1", "rhs": "0", "slot": None}
    assert _compare(lhs, QSeries(0, [0, 1, 0], 2), 2) == {
        "exp": 1, "lhs": "5", "rhs": "1", "slot": None}

    case = get_case("cong-hf24-phi-minus")
    exact = replace(case, rhs=Deferred(0, lambda n: -mock.eulerian("phi_minus", n)))
    order = 40
    for e in (1, 17, order):
        reports = [run_case(_bump_rhs(c, e, 1), order).to_json() for c in (case, exact)]
        for r in reports:
            r.pop("ms")
        assert reports[0] == reports[1]
        mm = reports[0]["first_mismatch"]
        assert mm["exp"] == e
        want = classnum.genfun_F(24, -1, order).coeff(e) % 4
        assert mm["lhs"] == str(want) and mm["rhs"] == str((want + 1) % 4)


def test_congruence_refuses_non_integral_sides():
    # two equal sides of 1/2 q agree exactly, but 1/2 has no residue mod
    # 4: a congruence between them is an error, never a pass
    from fractions import Fraction

    half_q = Deferred(1, lambda n: QSeries.monomial(Fraction(1, 2), 1, n))
    one_q = Deferred(1, lambda n: QSeries.monomial(1, 1, n))
    case = replace(get_case("cong-hf8-A"), lhs=half_q, rhs=half_q)
    assert case.modulus == 4
    report = run_case(case, 10)
    assert report.status == "error" and report.certified_order == 0
    assert report.to_json()["first_mismatch"] == {
        "exp": None, "lhs": "non-integral coefficient 1/2 at q^1",
        "rhs": "non-integral coefficient 1/2 at q^1"}
    report = run_case(replace(case, lhs=one_q), 10)
    assert report.status == "error"
    assert report.first_mismatch["lhs"] == "integral"
    # a rational coefficient above the order is not compared
    late = Deferred(1, lambda n: (one_q.build(n + 2)
                                  + QSeries.monomial(Fraction(1, 2), n + 1, n + 2)))
    assert run_case(replace(case, lhs=late, rhs=one_q), 10).status == "pass"
    # without a modulus the same sides are an exact comparison, and pass
    assert run_case(replace(case, modulus=0), 10).status == "pass"
