"""Golden certificate digests and the prefix property of every builder.

``tests/data/certificates.json`` holds, for every slot of every case (a
tuple component is a slot), the ``verify.side_digest`` of its lhs and
rhs at the default order and at order 120.  A verdict cannot see a
change that alters both sides of a case alike; a digest can.  The file
is check data: only a change to a case's statement or default order
may replace an entry, and then ``python tests/test_certificates.py``
rewrites the file from the current tree.
"""

import json
from pathlib import Path

from qhecke.registry import registry
from qhecke.verify import _compare, side_digest

DATA = Path(__file__).resolve().parent / "data" / "certificates.json"
ORDERS = {"default": None, "order 120": 120}


def _slots(case, n):
    """(slot name, lhs, rhs) of the case built at order n."""
    lhs, rhs = case.lhs.build(n), case.rhs.build(n)
    if isinstance(lhs, tuple):
        return [(f"{case.id}[{i}]", a, b) for i, (a, b) in enumerate(zip(lhs, rhs))]
    return [(case.id, lhs, rhs)]


def certificates():
    """{order label: {slot: [lhs digest, rhs digest]}} for the registry."""
    out = {}
    for label, order in ORDERS.items():
        out[label] = {}
        for case in registry():
            n = case.default_order if order is None else order
            for slot, lhs, rhs in _slots(case, n):
                out[label][slot] = [side_digest(s, n, case.modulus) for s in (lhs, rhs)]
    return out


def test_certificates_match_the_golden_digests():
    want = json.loads(DATA.read_text(encoding="utf-8"))
    got = certificates()
    assert got.keys() == want.keys()
    for label in want:
        changed = sorted(s for s in want[label].keys() | got[label].keys()
                         if want[label].get(s) != got[label].get(s))
        assert not changed, (label, changed)


def test_only_the_zero_statements_compare_zero_with_zero():
    # a slot whose two sides are both zero certifies nothing unless its
    # statement is "= 0"; equality, not a subset, keeps the list current
    zero = {slot for case in registry()
            for slot, lhs, rhs in _slots(case, case.default_order)
            if not lhs.coeffs and not rhs.coeffs}
    assert zero == {"spec-f4-at-i[1]", "dissect-j1j2-3[2]", "dissect-j2j4-3[1]",
                    "dz-j-zq-q2", "dz-j-mzq-q2", "dz-j-mz2-q1"}


def test_every_side_is_a_prefix_of_its_deeper_build():
    # a builder whose cutoff drops a term near q^n fails this even when
    # both sides share that builder
    bad = []
    for case in registry():
        for n in (5, 40):
            for name, side in (("lhs", case.lhs), ("rhs", case.rhs)):
                short, deep = side.build(n), side.build(2 * n + 7)
                pairs = zip(short, deep) if isinstance(short, tuple) else [(short, deep)]
                for i, (a, b) in enumerate(pairs):
                    if _compare(a, b.truncate(n), n) is not None:
                        bad.append((case.id, name, n, i))
    assert not bad


if __name__ == "__main__":
    DATA.write_text(json.dumps(certificates(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
