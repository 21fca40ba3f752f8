"""Verification driver: runs registry cases and collects reports.

A case passes when both builders agree coefficientwise through the
requested order (for congruence cases, agree modulo the case modulus).
Reports are deterministic and ordered by registry position regardless
of how many worker processes run the builders.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .registry import IdentityCase, registry
from .series import INF


@dataclass
class VerificationReport:
    id: str
    status: str                 # "pass" | "fail" | "error"
    certified_order: int
    first_mismatch: Optional[dict]
    ms: int
    allow_fail: bool = False
    note: str = ""

    def to_json(self):
        mm = None
        if self.first_mismatch is not None:
            mm = {k: self.first_mismatch.get(k) for k in ("exp", "lhs", "rhs")}
            if self.first_mismatch.get("slot") is not None:
                mm["slot"] = self.first_mismatch["slot"]
        return {
            "id": self.id,
            "status": self.status,
            "certified_order": self.certified_order,
            "first_mismatch": mm,
            "ms": self.ms,
        }


def _compare(lhs, rhs, order, modulus=0, slot=None):
    """Compare two series through the given order; returns mismatch or None."""
    lhs = lhs.truncate(order)
    rhs = rhs.truncate(order)
    if min(lhs.order, rhs.order) < order:
        return {"exp": None, "lhs": f"certified only to {lhs.order}",
                "rhs": f"certified only to {rhs.order}", "slot": slot}
    if modulus:
        lo = min(lhs.effective_min(), rhs.effective_min())
        if lo is INF:
            return None
        for e in range(lo, order + 1):
            if (lhs.coeff(e) - rhs.coeff(e)) % modulus != 0:
                return {"exp": e, "lhs": str(lhs.coeff(e)), "rhs": str(rhs.coeff(e)),
                        "slot": slot}
        return None
    _, bad = lhs.first_mismatch(rhs)
    if bad is not None:
        e, a, b = bad
        return {"exp": e, "lhs": str(a), "rhs": str(b), "slot": slot}
    return None


def run_case(case: IdentityCase, order=None):
    """Run one identity case and produce its report."""
    n = case.default_order if order is None else order
    t0 = time.perf_counter()
    try:
        mismatch = None
        if case.mode == "numeric_z":
            if not case.witnesses:
                raise ValueError("numeric_z case has no witnesses: nothing to certify")
            for z0 in case.witnesses:
                lhs = case.build_lhs(n + case.pad, z0)
                rhs = case.build_rhs(n + case.pad, z0)
                mismatch = _compare(lhs, rhs, n, slot=f"z={z0}")
                if mismatch:
                    break
        else:
            lhs = case.build_lhs(n + case.pad)
            rhs = case.build_rhs(n + case.pad)
            if isinstance(lhs, tuple) or isinstance(rhs, tuple):
                widths = [len(x) if isinstance(x, tuple) else None for x in (lhs, rhs)]
                if widths[0] != widths[1]:
                    raise ValueError(f"lhs has {widths[0]} components, rhs {widths[1]}")
                for i, (a, b) in enumerate(zip(lhs, rhs)):
                    mismatch = _compare(a, b, n, case.modulus, slot=f"component {i}")
                    if mismatch:
                        break
            else:
                mismatch = _compare(lhs, rhs, n, case.modulus)
        ms = int((time.perf_counter() - t0) * 1000)
        if mismatch and mismatch.get("exp") is None:
            return VerificationReport(case.id, "error", 0, mismatch, ms,
                                      case.allow_fail, case.note)
        status = "pass" if mismatch is None else "fail"
        return VerificationReport(case.id, status, n, mismatch, ms,
                                  case.allow_fail, case.note)
    except Exception as exc:  # builder raised: report, don't crash the run
        ms = int((time.perf_counter() - t0) * 1000)
        return VerificationReport(case.id, "error", 0,
                                  {"exp": None, "lhs": f"{type(exc).__name__}: {exc}",
                                   "rhs": None, "slot": None},
                                  ms, case.allow_fail, case.note)


def _run_by_id(args):
    case_id, order = args
    from .registry import get_case
    return run_case(get_case(case_id), order)


def verify(ids=None, order=None, jobs=1):
    """Run the selected cases (all by default); reports in registry order.

    Raises ValueError for an order or job count below 1: a certificate
    through q^0 or below checks nothing.
    """
    if order is not None and order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cases = registry()
    if ids is not None:
        known = {c.id for c in cases}
        unknown = [i for i in ids if i not in known]
        if unknown:
            raise KeyError(f"unknown identity id(s): {', '.join(unknown)}")
        wanted = set(ids)
        cases = [c for c in cases if c.id in wanted]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_by_id, [(c.id, order) for c in cases]))
    else:
        reports = [run_case(c, order) for c in cases]
    return reports


def all_passed(reports):
    return all(r.status == "pass" or r.allow_fail for r in reports)


_M_RELATIONS = {
    "z_shift": "mrel-zshift", "x_inverse": "mrel-xinverse",
    "x_shift_up": "mrel-xshift-up", "x_shift_down": "mrel-xshift-down",
    "reflect": "mrel-reflect", "change_z": "mrel-change-z",
    "quartic": "mrel-quartic", "f121_g121": "mrel-f121-g121",
}


def appell_relation_check(relation, witness=1, order=None):
    """Run one Appell-Lerch machinery relation at a registered witness.

    relation names the relation by content: z_shift, x_inverse,
    x_shift_up, x_shift_down, reflect (the five m-translation rules),
    change_z, quartic, f121_g121, or f151_theta14; witness selects the
    argument set (1 or 2, ignored for f151_theta14).
    """
    from .registry import get_case
    if relation == "f151_theta14":
        return run_case(get_case("mrel-f151-theta14"), order)
    if relation not in _M_RELATIONS:
        raise KeyError(f"unknown relation {relation!r}; choose from "
                       f"{sorted(_M_RELATIONS) + ['f151_theta14']}")
    return run_case(get_case(f"{_M_RELATIONS[relation]}-w{witness}"), order)
