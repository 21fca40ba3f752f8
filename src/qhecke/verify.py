"""Verification driver: runs registry cases and collects reports.

A case passes when its two sides, each built once to exactly the
requested order, agree coefficientwise through it (for congruence cases,
modulo the case modulus); a side certified below the order, or a
congruence side with a non-integral coefficient, is an error.
Reports are deterministic and ordered by registry position regardless
of how many processes run the builders.  With jobs above 1 the process
forks (POSIX only) and is itself one of the workers; each process builds
its own caches.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional

from .registry import IdentityCase, cases_by_id
from .rings import ZPoly


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
    if modulus:  # a non-integral coefficient has no residue to compare
        bad = [next((f"non-integral coefficient {c} at q^{e}" for e, c in f.nonzero_terms()
                     if c.denominator != 1), "integral") for f in (lhs, rhs)]
        if bad != ["integral", "integral"]:
            return {"exp": None, "lhs": bad[0], "rhs": bad[1], "slot": slot}
    # every exponent where the sides can disagree is a term of the difference
    for e, c in (lhs - rhs).nonzero_terms():
        if not modulus or c % modulus:
            a, b = lhs.coeff(e), rhs.coeff(e)
            if modulus:
                # as elements of Z/mZ, whichever way each side was built
                a, b = a % modulus, b % modulus
            return {"exp": e, "lhs": str(a), "rhs": str(b), "slot": slot}
    return None


def side_digest(series, order, modulus=0):
    """sha256 of the JSON list of a side's nonzero terms [e, c] through
    q^order, c reduced mod a congruence modulus and written as a rational
    string, or as {z-exponent: rational string} if it holds a power of z."""
    import hashlib  # here, as it loads OpenSSL: a run of cases never needs it
    terms = []
    for e, c in series.truncate(order).nonzero_terms():
        c = c % modulus if modulus else c
        if type(c) is ZPoly and c.lo == 0 and len(c.coeffs) == 1:
            c = c.coeffs[0]
        if c:
            terms.append([e, {str(k): str(v) for k, v in c.c.items()}
                          if type(c) is ZPoly else str(c)])
    return hashlib.sha256(json.dumps(terms, separators=(",", ":")).encode()).hexdigest()


def run_case(case: IdentityCase, order=None):
    """Run one identity case and produce its report."""
    n = case.default_order if order is None else order
    t0 = time.perf_counter()
    try:
        mismatch = None
        lhs = case.lhs.build(n)
        rhs = case.rhs.build(n)
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


def _forked(cases, orders, workers):
    """Reports of the cases, run by this process and workers - 1 forked
    children.  Each process takes case indices, one 4-byte record at a
    time, from a pipe filled before the first fork, and calls run_case; a
    child pickles its reports into its own pipe and leaves by os._exit."""
    import pickle  # here, so that a sequential run loads neither
    import select
    queue = b"".join(i.to_bytes(4, "little") for i in range(len(cases)))
    if len(queue) > select.PIPE_BUF:  # so that the write below, before any fork, cannot block
        raise RuntimeError(f"{len(cases)} cases overflow the {select.PIPE_BUF}-byte case queue")
    rq, wq = os.pipe()
    os.write(wq, queue)
    os.close(wq)

    def drain():
        done = {}
        while rec := os.read(rq, 4):
            if len(rec) != 4:
                raise RuntimeError(f"read {len(rec)} bytes of a 4-byte case record")
            i = int.from_bytes(rec, "little")
            done[i] = run_case(cases[i], orders[i])
        return done

    results, pids = [], []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            results.append(os.fdopen(r, "rb"))
            with os.fdopen(w, "wb") as out:
                if (pid := os.fork()) == 0:  # child: skip teardown and the parent's buffers
                    try:
                        pickle.dump(drain(), out)
                        out.flush()
                        os._exit(0)
                    finally:  # reached only if the child raised
                        os._exit(1)
            pids.append(pid)
        done = drain()
        for fh in results:
            if blob := fh.read():  # empty if the child died
                done.update(pickle.loads(blob))
    finally:
        os.close(rq)
        for fh in results:
            fh.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes) or len(done) != len(cases):
        raise RuntimeError(f"worker exit codes {codes}; {len(cases) - len(done)} "
                           f"of {len(cases)} cases have no report")
    return [done[i] for i in range(len(cases))]


def verify(ids=None, order=None, jobs=1, scale=None):
    """Run the selected cases (all by default); reports in registry order.

    Each case runs at order, or at scale times its own default order, or
    at its default order when neither is given.  Raises ValueError for an
    order, scale or job count below 1, for both order and scale, or for
    no cases: a certificate through q^0 or below, or of nothing, checks
    nothing.
    """
    if order is not None and order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if scale is not None:
        if order is not None:
            raise ValueError("order and scale conflict: give at most one")
        if scale < 1:
            raise ValueError(f"scale must be at least 1, got {scale}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError("jobs above 1 needs os.fork, which this platform lacks")
    by_id = cases_by_id()
    cases = list(by_id.values())
    if ids is not None:
        unknown = [i for i in ids if i not in by_id]
        if unknown:
            raise KeyError(f"unknown identity id(s): {', '.join(unknown)}")
        wanted = set(ids)
        cases = [c for c in cases if c.id in wanted]
    if not cases:
        raise ValueError("no cases selected: nothing to certify")
    orders = [order if scale is None else scale * c.default_order for c in cases]
    if jobs > 1:
        return _forked(cases, orders, min(jobs, len(cases)))
    return [run_case(c, n) for c, n in zip(cases, orders)]


def all_passed(reports):
    return all(r.status == "pass" or r.allow_fail for r in reports)
