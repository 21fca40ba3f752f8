"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line with its
runtime when it completes.  All checks are exact (coefficients compared
as exact rationals); the stated orders and runtime budgets are asserted,
not sampled.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import os
import time
from fractions import Fraction

from qhecke.classnum import hurwitz12, hurwitz12_table
from qhecke.oeis import oeis_compare
from qhecke.registry import cases_by_id
from qhecke.verify import all_passed, run_case, verify

DATA = os.path.join(os.path.dirname(__file__), "data")


def _announce(num, label, t0, extra=""):
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:>2}: PASS  {label}  ({dt:.2f}s{extra})")


def _run_all(ids, order=None):
    reports = verify(ids, order=order)
    problems = [r for r in reports if r.status != "pass" and not r.allow_fail]
    assert not problems, [(r.id, r.first_mismatch) for r in problems]
    if order is not None:
        assert all(r.certified_order == order for r in reports)
    return reports


def test_criterion_01_class_number_pins():
    t0 = time.perf_counter()
    assert hurwitz12(0) == -1
    assert Fraction(hurwitz12(3), 12) == Fraction(1, 3)
    assert Fraction(hurwitz12(4), 12) == Fraction(1, 2)
    assert Fraction(hurwitz12(7), 12) == 1
    assert Fraction(hurwitz12(23), 12) == 3
    table = hurwitz12_table(10_000)
    assert all(table[n] == 0 for n in range(1, 10_001) if n % 4 in (1, 2))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(1, "Hurwitz pins and residue vanishing to 10^4", t0)


def test_criterion_02_humbert():
    t0 = time.perf_counter()
    _run_all(["humbert-hf4"], order=200)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(2, "Humbert double sum = sum F(4n-1) q^n at order 200", t0)


def test_criterion_03_bivariate_f8():
    t0 = time.perf_counter()
    _run_all(["bivar-f8z-hecke"], order=100)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(3, "bivariate F8 Hecke-Rogers identity at q-order 100", t0)


def test_criterion_04_bivariate_f4():
    t0 = time.perf_counter()
    _run_all(["bivar-f4z-hecke"], order=100)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(4, "bivariate F4 Hecke-Rogers identity at q-order 100", t0)


def test_criterion_05_specializations():
    t0 = time.perf_counter()
    _run_all(["spec-f8-at-1", "spec-f8-at-m1", "spec-f4-at-1", "spec-f4-at-i"],
             order=100)
    _announce(5, "F8(1,q), F8(-1,-q), F4(1,q), F4(i,-q) specializations", t0)


def test_criterion_06_appell_corollaries():
    t0 = time.perf_counter()
    _run_all(["appell-hf4", "appell-hf8", "appell-A", "appell-hf12",
              "appell-sigma", "appell-hf24"], order=200)
    _announce(6, "univariate Appell-Lerch corollaries (eta terms included)", t0)


def test_criterion_07_hecke_rogers_univariate():
    t0 = time.perf_counter()
    _run_all(["hecke-hf4", "hecke-hf8", "hecke-hf12", "hecke-hf24",
              "hecke-A", "hecke-V1", "hecke-sigma", "hecke-phi-minus"],
             order=200)
    _announce(7, "univariate Hecke-Rogers identities at order 200", t0)


def test_criterion_08_derivative_lemmas():
    t0 = time.perf_counter()
    ids = ["dz-j-zq-q2", "dz-j-mzq-q2", "dz-j-mz2-q1", "dz-j-z6q-q3",
           "dz-j-mz6q-q3", "dz-j-z4q-q4", "dz-j-mz4q-q4", "dz-j-z3q-q6",
           "dz-j-mz3q-q6", "dz-j-mz12q5-q12", "dz-j-mz12q-q12",
           "dz-j-z12q5-q12", "dz-j-z12q-q12",
           "dz-m-times-theta-q6-a", "dz-m-times-theta-q6-b", "dz-theta-quotient-q6-sixfold",
           "dz-theta-quotient-q12-double"]
    _run_all(ids, order=80)
    _announce(8, "thirteen theta-derivative lemmas plus the four composite "
                 "lemmas via jets at order 80", t0)


def test_criterion_09_eta_identities():
    t0 = time.perf_counter()
    _run_all(["eta-u3-j1cubed", "eta-hf12-7-split", "eta-hf12-7-pair",
              "eta-hf12-7-quotient", "eta-hf24-7",
              "dz-theta-quotient-q6-sixfold", "dz-theta-quotient-q12-double"], order=150)
    _announce(9, "computer-algebra-certified eta identities at order 150", t0)


def test_criterion_10_appell_machinery():
    t0 = time.perf_counter()
    ids = [f"mrel-{name}-w{i}" for i in (1, 2)
           for name in ("zshift", "xinverse", "xshift-up", "xshift-down",
                        "reflect", "change-z", "quartic")]
    ids += ["mrel-f121-g121-w1", "mrel-f121-g121-w2"]
    _run_all(ids, order=30)
    reports = verify(["mrel-f121-g121-w1", "mrel-f121-g121-w2"], order=40)
    assert all(r.status == "pass" for r in reports)
    # the Theta_{1,4}-dependent case runs in allow-fail mode; archive it
    archived = run_case(cases_by_id()["mrel-f151-theta14"], 40)
    assert archived.allow_fail
    print("  archived allow-fail report:",
          json.dumps(archived.to_json(), sort_keys=True))
    _announce(10, "Appell-Lerch relation instances at two witnesses each", t0)


def test_criterion_11_congruences():
    t0 = time.perf_counter()
    _run_all(["cong-hf8-A", "cong-hf12-sigma", "cong-hf24-phi-minus",
              "cong-A-hurwitz"], order=300)
    _announce(11, "mod-4 congruences at order 300", t0)


def test_criterion_12_combinatorics():
    t0 = time.perf_counter()
    _run_all(["unimodal-eq-hf4", "consecutive-eq-hf8"], order=300)
    _run_all(["consecutive-eq-unimodal"], order=150)
    checked, mismatches = oeis_compare(
        "A238872", os.path.join(DATA, "b238872.txt"), 10**9)
    assert mismatches == [] and checked == 200
    checked, mismatches = oeis_compare(
        "A321440", os.path.join(DATA, "b321440.txt"), 10**9)
    assert mismatches == [] and checked == 200
    _announce(12, "P(n)=F(4n-1), Q(n)=H(8n-1) to 300; Q(n)=P(2n) to 150; "
                  "b-file agreement", t0)


def test_criterion_13_full_suite_runtime():
    t0 = time.perf_counter()
    reports = verify()
    single = time.perf_counter() - t0
    assert all_passed(reports)
    assert len(reports) >= 40
    assert [r.id for r in reports] == list(cases_by_id())  # complete, once each
    assert single < 600.0
    t1 = time.perf_counter()
    parallel = verify(jobs=4)
    par = time.perf_counter() - t1
    assert all_passed(parallel)
    assert par < 180.0
    _announce(13, "verify(all) at default orders", t0,
              extra=f"; single {single:.1f}s, 4-way {par:.1f}s")
