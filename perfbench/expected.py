"""Expected verdicts for the 95 registry cases, written from IDENTITIES.md.

Every case passes at its requested order except ``mrel-f151-theta14``
(allow-fail), which fails at q^0 with 1 vs -1.  Each entry gives the
default order and how many series the case compares per run: the number
of witnesses for numeric-z cases, the number of components for the
tuple-valued 3-dissections, and 1 otherwise.  The list is in registry
order, which is also the order ``qhecke verify`` reports in.
"""

_GROUPS = [
    # (default order, series compared, ids)
    (200, 1, ["hecke-hf4", "hecke-hf8", "hecke-hf12", "hecke-hf24", "hecke-A",
              "hecke-V1", "hecke-sigma", "hecke-phi-minus", "hecke-psi-rhs",
              "appell-hf4", "appell-hf8", "appell-A", "appell-hf12", "appell-sigma",
              "appell-hf24"]),
    (100, 1, ["bivar-f8z-hecke", "bivar-f4z-hecke", "bivar-f4z-appell",
              "bivar-f8z-appell", "spec-f8-at-1", "spec-f8-at-m1", "spec-f4-at-1",
              "spec-f4-at-i"]),
    (300, 1, ["cong-hf8-A", "cong-hf12-sigma", "cong-hf24-phi-minus", "cong-A-hurwitz"]),
    (150, 1, ["eta-u3-j1cubed", "eta-hf12-7-split", "eta-hf12-7-pair",
              "eta-hf12-7-quotient", "eta-hf24-7"]),
    (150, 3, ["dissect-j1j2-3", "dissect-j2j4-3", "dissect-hf4-3", "dissect-hf8-3"]),
    (150, 1, ["dissect-appell-hf4-3", "dissect-appell-hf8-3"]),
    (80, 1, ["dz-j-zq-q2", "dz-j-mzq-q2", "dz-j-mz2-q1", "dz-j-z6q-q3", "dz-j-mz6q-q3",
             "dz-j-z4q-q4", "dz-j-mz4q-q4", "dz-j-z3q-q6", "dz-j-mz3q-q6",
             "dz-j-mz12q5-q12", "dz-j-mz12q-q12", "dz-j-z12q5-q12", "dz-j-z12q-q12",
             "dz-theta-quotient-q6-pair", "dz-m-appell-q6", "dz-m-times-theta-q6-a",
             "dz-m-times-theta-q6-b"]),
    (150, 1, ["dz-theta-quotient-q6-sixfold", "dz-theta-quotient-q12-double",
              "dz-eta-logderiv-combo"]),
    (80, 1, ["dz-f121-hecke", "dz-f121-decomp", "dz-m-z-change"]),
    (30, 1, [f"mrel-{rel}-w{w}" for rel in ("zshift", "xinverse", "xshift-up",
                                            "xshift-down", "reflect", "change-z",
                                            "quartic") for w in (1, 2)]),
    (40, 1, ["mrel-f121-g121-w1", "mrel-f121-g121-w2", "mrel-f151-theta14"]),
    (40, 3, ["mrel-evenodd"]),
    (60, 5, ["numz-f4-appell", "numz-f8-appell"]),
    (200, 1, ["humbert-hf4"]),
    (60, 1, ["humbert-telescope"]),
    (300, 1, ["unimodal-eq-hf4", "consecutive-eq-hf8"]),
    (150, 1, ["consecutive-eq-unimodal"]),
    (200, 1, ["unimodal-methods", "consecutive-methods"]),
    (150, 1, ["eq-hf12-rs-form"]),
    (60, 1, [f"theta-row-constant-{m}" for m in (0, 1, 2, 3, 7, 10)]),
]

# id -> (default order, series compared per run), in registry order
CASES = {cid: (order, width) for order, width, ids in _GROUPS for cid in ids}

# the registry's own numeric-z witnesses (IDENTITIES.md)
WITNESSES = {
    "mrel-evenodd": ("2", "3", "1/2"),
    "numz-f4-appell": ("2", "3", "-2", "1/2", "-1/3"),
    "numz-f8-appell": ("2", "3", "-2", "1/2", "-1/3"),
}

ALLOW_FAIL = {"mrel-f151-theta14": {"exp": 0, "lhs": "1", "rhs": "-1"}}


def expected_report(cid, order):
    """The verdict fields of a correct report for case ``cid`` at ``order``."""
    mismatch = ALLOW_FAIL.get(cid)
    return {"id": cid, "status": "fail" if mismatch else "pass",
            "certified_order": order, "first_mismatch": mismatch}


def verdict(report):
    """The verdict fields of an actual report (what expected_report predicts)."""
    mm = report.get("first_mismatch")
    if mm is not None:
        mm = {k: mm.get(k) for k in ("exp", "lhs", "rhs")}
    return {"id": report.get("id"), "status": report.get("status"),
            "certified_order": report.get("certified_order"), "first_mismatch": mm}
