"""One measured process of the benchmark.

    python3 child.py setup
        import qhecke and build registry(); print the kernel backend
    python3 child.py cli [--trace DIR] -- <qhecke CLI arguments>
        run the qhecke command line (optionally traced)
    python3 child.py cases SPEC.json [--trace DIR]
        run the cases in SPEC through qhecke.verify.run_case and print
        {"reports": [...], "case_s": [...]}; SPEC is a list of
        {"id", "order", "witnesses"} where witnesses (a list of "p/q"
        strings) replaces a numeric-z case's own when not null

qhecke must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).
"""

import importlib
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction


def _trace(argv):
    if "--trace" in argv:
        import tracer
        return tracer.install(argv[argv.index("--trace") + 1])
    return None


def main(argv):
    cmd = argv[0]
    if cmd == "setup":
        import qhecke
        from qhecke.registry import registry
        registry()
        print(qhecke.kernels.BACKEND)
        return 0
    if cmd == "cli":
        rest = argv[argv.index("--") + 1:]
        _trace(argv[:argv.index("--")])
        from qhecke.cli import main as cli_main
        return cli_main(rest)
    if cmd == "cases":
        with open(argv[1], encoding="utf-8") as fh:
            spec = json.load(fh)
        _trace(argv)
        verify = importlib.import_module("qhecke.verify")
        from qhecke.registry import registry
        cases = {c.id: c for c in registry()}
        reports, case_s = [], []
        for item in spec:
            case = cases[item["id"]]
            if item.get("witnesses") is not None:
                case = replace(case, witnesses=tuple(Fraction(w) for w in item["witnesses"]))
            t0 = time.perf_counter()
            rep = verify.run_case(case, item["order"])
            case_s.append(time.perf_counter() - t0)
            reports.append(rep.to_json())
        print(json.dumps({"reports": reports, "case_s": case_s}))
        return 0
    print(f"unknown command {cmd!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
