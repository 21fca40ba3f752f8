"""Golden digests of ``qhecke series --format json``.

``tests/data/series.json`` holds, for each family and order below, the
sha256 of the command's standard output.  The formal-z F4/F8 series and
the four Eulerian mock theta series enter the registry only through
identities; a change that alters both sides of one alike leaves its
verdict and certificate standing, but not these digests.  The file is
check data: only a change to a family's definition may replace an
entry, and then ``python tests/test_series_golden.py`` rewrites the file
from the current tree.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qhecke.cli import main

DATA = Path(__file__).resolve().parent / "data" / "series.json"
FAMILIES = {"F4z": 200, "F8z": 200, "mock:A": 1200, "mock:V1": 1200,
            "mock:sigma": 1200, "mock:phi-": 1200}


def digests():
    """{"family@order": sha256 of the series command's output}."""
    out = {}
    for family, order in FAMILIES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["series", "--family", family, "--order", str(order),
                         "--format", "json"])
        assert code == 0, family
        out[f"{family}@{order}"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_series_match_the_golden_digests():
    want = json.loads(DATA.read_text(encoding="utf-8"))
    assert digests() == want


if __name__ == "__main__":
    DATA.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
