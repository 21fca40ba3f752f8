#!/usr/bin/env python3
"""The qhecke benchmark: certificate wall time on four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of a workload is a
fresh interpreter, because every ``qhecke verify`` a user runs starts cold
and pays for the eta, Hurwitz-table, Eulerian and F4/F8 cache builds.
Workloads (the seed only draws inputs; the program sees the inputs):

  registry-cold    ``qhecke verify --format json --jobs 1``: all 95 cases at
                   default orders, the user's headline command; every layer.
  registry-jobs2   the same with ``--jobs 2``: a process pool whose workers
                   each rebuild the caches.
  univariate-deep  the 42 integer/rational univariate and congruence cases at
                   4x their default order through qhecke.verify.run_case;
                   int kernels dominate, ZPoly does no work.  The brute-force
                   oracles unimodal-methods/consecutive-methods are left out
                   (they would dominate through combinat.list_P).
  bivariate-z      the 11 bivar-*, spec-*, numz-* and mrel-evenodd cases at
                   default order; ZPoly and eval_z dominate.  The seed draws
                   the numeric-z witnesses (p/q, |p|,|q| <= 5, not 0 or +-1);
                   seed 0 keeps the registry's own.

With ``--trace 0`` it repeats the workload for ``--seconds`` and reports
the end-to-end metrics: medians over repetitions of times scaled to a
reference host speed (see SpeedProbe).  With ``--trace 1`` it
alternates untraced and traced repetitions (tracer.py wraps the public
functions of each qhecke module), then runs a scaling sweep, and reports
the per-layer metrics.  Every report is checked against the hand-written
verdicts in expected.py and against the run's first repetition; any
deviation counts in ``failed``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

from expected import CASES, WITNESSES, expected_report, verdict

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
PROBE = str(HERE / "probe.py")
WORK = ROOT / ".perfbench_work"

MIN_REPS = 4          # untraced repetitions per run, whatever --seconds says
SETUP_REPS = 3        # set-up measurements before each repetition
CHILD_TIMEOUT = 150   # seconds before a hung repetition is killed
RUN_CAP = 150         # no new repetition starts after this many seconds
REF_PROBE_S = 0.002   # probe CPU time that counts as reference host speed
MAX_PROBES = 4        # CPUs probed for host speed

UNIVARIATE_DEEP = ("hecke-", "appell-", "cong-", "eta-", "dissect-", "humbert-",
                   "unimodal-eq", "consecutive-eq", "eq-", "theta-row")
BIVARIATE_Z = ("bivar-", "spec-", "numz-", "mrel-evenodd")

# one case per registry mode, run at 1x and 2x its default order
SWEEP = {"univariate": "hecke-hf24", "formal_z": "bivar-f8z-hecke",
         "numeric_z": "mrel-evenodd", "jet": "dz-theta-quotient-q6-sixfold",
         "congruence": "cong-hf24-phi-minus"}
MODES = tuple(SWEEP)

KERNELS = ("conv_trunc", "inv_unit", "mul_linear", "div_linear")
RING_TYPES = ("int", "Fraction", "GaussianRational", "ZPoly")
SERIES_METHODS = ("__mul__", "__add__", "invert", "mul_one_minus", "div_one_minus",
                  "eval_z", "sift", "dissect")
TIMED = {"series": ("etaq", "eta_quotient", "pochhammer"),
         "mock": ("eulerian", "F4_series", "F8_series", "hecke_rogers", "appell_rhs",
                  "humbert_series", "c_sum"),
         "theta": ("appell_m", "jtheta", "theta_sum_scaled", "f_abc", "g_abc",
                   "theta_1_4"),
         "jets": ("jet_theta", "jet_appell", "jet_of_termsum")}
COMBINAT = ("list_P", "list_Q", "P_series", "Q_series")
CACHE_NAMES = ("eta", "eta_inv", "hurwitz_table", "eulerian", "fz")


# -- workloads ----------------------------------------------------------------

def _select(prefixes):
    return [cid for cid in CASES if cid.startswith(prefixes)]


def _draw_witnesses(rng, count):
    pool = sorted({Fraction(p, q) for p in range(-5, 6) if p for q in range(1, 6)}
                  - {Fraction(1), Fraction(-1)})
    return [str(w) for w in rng.sample(pool, count)]


def workload(name, seed):
    """(child argv after ``child.py``, cases spec or None, expected reports, jobs).

    Each expected report carries the number of series it certifies under
    ``_width``.
    """
    def expect(cid, order, width):
        return dict(expected_report(cid, order), _width=width)

    if name in ("registry-cold", "registry-jobs2"):
        jobs = 1 if name == "registry-cold" else 2
        exp = [expect(cid, order, width) for cid, (order, width) in CASES.items()]
        return ["cli", "--", "verify", "--format", "json", "--jobs", str(jobs)], None, exp, jobs
    if name == "univariate-deep":
        spec = [{"id": cid, "order": 4 * CASES[cid][0], "witnesses": None}
                for cid in _select(UNIVARIATE_DEEP)]
    elif name == "bivariate-z":
        rng = random.Random(seed)
        spec = []
        for cid in _select(BIVARIATE_Z):
            ws = None
            if cid in WITNESSES and seed != 0:
                ws = _draw_witnesses(rng, len(WITNESSES[cid]))
            spec.append({"id": cid, "order": CASES[cid][0], "witnesses": ws})
    else:
        raise SystemExit(f"unknown workload {name!r}")
    exp = [expect(s["id"], s["order"], CASES[s["id"]][1]) for s in spec]
    return ["cases", None], spec, exp, 1


# -- running children -----------------------------------------------------------

class Rep:
    """One finished child process: wall seconds, peak RSS (MiB), stdout,
    and its start and end as Unix times."""

    def __init__(self, wall, rss_mb, code, out, err, span):
        self.wall, self.rss_mb, self.code, self.out, self.err = wall, rss_mb, code, out, err
        self.span = span


class SpeedProbe:
    """Host speed over a run, from probe.py processes pinned to the run's CPUs.

    The host this benchmark was tuned on changes speed by up to 1.5x for
    tens of seconds at a time, for CPU time as much as for wall time.
    ``scale(rep)`` turns a repetition's wall time into seconds at the
    reference speed REF_PROBE_S, using the probes' median CPU time during it.
    """

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))[:MAX_PROBES]
        self.samples = []
        self.lock = threading.Lock()
        self.procs = [subprocess.Popen([sys.executable, PROBE, str(c)], cwd=ROOT,
                                       stdout=subprocess.PIPE, text=True) for c in cpus]
        self.readers = [threading.Thread(target=self._read, args=(p,)) for p in self.procs]
        for t in self.readers:
            t.start()

    def _read(self, proc):
        for line in proc.stdout:
            ts, dt = line.split()
            with self.lock:
                self.samples.append((float(ts), float(dt)))

    def scale(self, rep):
        t0, t1 = rep.span
        with self.lock:
            samples = list(self.samples)
        pad = 0.0
        while True:  # widen short spans until they hold a few samples
            inside = [dt for ts, dt in samples if t0 - pad <= ts <= t1 + pad]
            if len(inside) >= 3 or pad > 5:
                break
            pad += 0.1
        if not inside:
            raise SystemExit("host-speed probes produced no samples")
        return rep.wall * REF_PROBE_S / statistics.median(inside)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()
        for t in self.readers:
            t.join()
        for p in self.procs:
            p.stdout.close()


def run_child(args, env):
    """Run ``child.py args``; wall time is process start to exit.

    Peak RSS comes from wait4, which covers the child and every descendant
    it waited for (the pool workers of ``--jobs 2``).
    """
    with tempfile.TemporaryFile(dir=WORK) as errf:
        start = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=errf)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            end = time.time()
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        errf.seek(0)
        err = errf.read().decode(errors="replace")
    return Rep(wall, usage.ru_maxrss / 1024, code, out.decode(errors="replace"), err,
               (start, end))


def parse_reports(rep, kind):
    """Reports list (and per-case seconds for ``cases``), or None if unreadable."""
    try:
        data = json.loads(rep.out)
    except ValueError:
        return None, None
    if kind == "cases":
        data, case_s = data["reports"], data["case_s"]
    else:
        case_s = None
    if not (isinstance(data, list) and all(isinstance(r, dict) for r in data)):
        return None, None
    return data, case_s


class Checker:
    """Counts case verdicts that differ from expected or, minus ``ms``, from
    the first repetition of the same input."""

    def __init__(self):
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, rep, reports, label, expected, group):
        self.attempted += len(expected)
        if reports is None or rep.code != 0:
            self.failed += len(expected)
            self.notes.append(f"{label}: exit {rep.code}: {rep.err.strip()[-400:]}")
            return
        by_id = {r.get("id"): r for r in reports}
        if [r.get("id") for r in reports] != [e["id"] for e in expected]:
            self.failed += 1
            self.notes.append(f"{label}: report ids or order differ from the registry")
        for exp in expected:
            want = {k: v for k, v in exp.items() if not k.startswith("_")}
            got = by_id.get(exp["id"])
            if got is None or verdict(got) != want:
                self.failed += 1
                self.notes.append(f"{label}: {exp['id']}: expected {want}, got {got}")
        stripped = [{k: v for k, v in r.items() if k != "ms"} for r in reports]
        first = self.first.setdefault(group, stripped)
        if stripped != first:
            self.failed += sum(1 for a, b in zip(stripped, first) if a != b) or 1
            self.notes.append(f"{label}: reports differ from the first repetition")


# -- statistics and metadata ------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def metadata(args, backend):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "backend": backend, "seed": args.seed, "workload": args.workload}


def git_sha():
    """HEAD commit read from .git in the checkout, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def certified_series(expected):
    """Certified coefficients of one repetition: sum of (order+1) x series compared."""
    return sum((e["certified_order"] + 1) * e["_width"]
               for e in expected if e["status"] == "pass")


# -- the two kinds of run -------------------------------------------------------

def measure_setup(env, setup):
    """Append SETUP_REPS set-up repetitions to ``setup``; returns the kernel backend."""
    for _ in range(SETUP_REPS):
        rep = run_child(["setup"], env)
        if rep.code != 0:
            raise SystemExit(f"qhecke failed to import:\n{rep.err}")
        setup.append(rep)
    return rep.out.strip()


def child_args(argv, spec_path, trace_dir=None):
    out = [spec_path if a is None else a for a in argv]
    if trace_dir is not None:
        at = out.index("--") if "--" in out else len(out)
        out[at:at] = ["--trace", trace_dir]
    return out


def end_to_end(args, env, argv, spec_path, expected, checker, kind):
    with SpeedProbe() as probe:
        return _end_to_end(args, env, argv, spec_path, expected, checker, kind, probe)


def _end_to_end(args, env, argv, spec_path, expected, checker, kind, probe):
    setup, reps = [], []
    start = time.perf_counter()
    while True:
        # set-up samples spread over the run, so they see the same host as the reps
        backend = measure_setup(env, setup)
        rep = run_child(child_args(argv, spec_path), env)
        checker.check(rep, parse_reports(rep, kind)[0], f"rep {len(reps) + 1}",
                      expected, "workload")
        reps.append(rep)
        if rep.code != 0:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in reps)
        if elapsed + typical > RUN_CAP:
            break
        # start another repetition if it would end nearer --seconds than now
        if len(reps) >= MIN_REPS and elapsed + typical / 2 > args.seconds:
            break
    walls = [r.wall for r in reps]
    wall = statistics.median(probe.scale(r) for r in reps)
    setup_s = statistics.median(probe.scale(r) for r in setup)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "coeffs_per_s": (certified_series(expected) / (wall - setup_s), "1/s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MiB"),
    }
    detail = {"wall_s_all": walls, "wall_s_quartiles": quartiles(walls),
              "wall_s_samples": len(walls),
              "setup_s_quartiles": quartiles([r.wall for r in setup]),
              "setup_s_samples": len(setup),
              "peak_rss_mb_max": max(r.rss_mb for r in reps),
              "failed_frac": checker.failed / max(checker.attempted, 1)}
    return metrics, detail, backend


def merge_traces(trace_dir):
    """Sum the per-process tracer dumps (pool workers write their own)."""
    total = {"fn": {}, "kern": {}, "ring_s": {}, "cache": {}, "mode_build_s": {},
             "items": {}, "max_limit": 0, "max_coeff_bits": 0}
    files = sorted(Path(trace_dir).glob("*.json"))
    if not files:
        raise SystemExit("traced run wrote no tracer output")
    for path in files:
        part = json.loads(path.read_text())
        for key in ("fn", "kern", "cache"):
            for name, rec in part[key].items():
                dst = total[key].setdefault(name, {})
                for field, v in rec.items():
                    dst[field] = max(dst.get(field, 0), v) if field == "max_len" \
                        else dst.get(field, 0) + v
        for key in ("ring_s", "mode_build_s", "items"):
            for name, v in part[key].items():
                total[key][name] = total[key].get(name, 0) + v
        for key in ("max_limit", "max_coeff_bits"):
            total[key] = max(total[key], part[key])
    return total


def layer_metrics(t):
    """Per-layer metrics from merged tracer output; see BENCHMARK.json."""
    m = {}

    def fn(name, *fields):
        rec = t["fn"].get(name, {})
        for f in fields:
            m[f"{name}.{f}"] = (rec.get(f, 0), "s" if f.endswith("_s") else "count")

    for k in KERNELS:
        fn(f"kernels.{k}", "calls", "self_s")
        m[f"kernels.{k}.max_len"] = (t["kern"][k]["max_len"], "count")
        m[f"kernels.{k}.elem_ops"] = (t["kern"][k]["elem_ops"], "count")
    conv = t["kern"]["conv_trunc"]
    m["kernels.conv_trunc.nnz_frac"] = (conv["nnz"] / conv["elem_ops"]
                                        if conv["elem_ops"] else 0.0, "frac")
    for r in RING_TYPES:
        m[f"rings.{r}.kernel_s"] = (t["ring_s"].get(r, 0.0), "s")
    fn("rings.ZPoly.eval", "calls", "self_s")
    m["rings.max_coeff_bits"] = (t["max_coeff_bits"], "bits")
    for meth in SERIES_METHODS:
        fn(f"series.QSeries.{meth}", "calls", "self_s")
    fn("classnum.hurwitz12_table", "calls", "self_s")
    m["classnum.hurwitz12_table.max_limit"] = (t["max_limit"], "count")
    fn("classnum.genfun_F", "self_s")
    fn("classnum.genfun_H", "self_s")
    for mod, names in TIMED.items():
        for name in names:
            fn(f"{mod}.{name}", "calls", "self_s")
    for name in COMBINAT:
        fn(f"combinat.{name}", "calls", "self_s")
        m[f"combinat.{name}.items"] = (t["items"].get(f"combinat.{name}", 0), "count")
    for c in CACHE_NAMES:
        rec = t["cache"][c]
        m[f"cache.{c}.hits"] = (rec["hits"], "count")
        m[f"cache.{c}.misses"] = (rec["misses"], "count")
        m[f"cache.{c}.build_s"] = (rec["build_s"], "s")
    fn("verify._compare", "calls", "self_s")
    for mode in MODES:
        m[f"registry.{mode}.build_s"] = (t["mode_build_s"].get(mode, 0.0), "s")
    return m


def sweep(env, checker):
    """Scaling exponent per mode: log2 of the 2x-order time over the 1x time."""
    out = {}
    for mode, cid in SWEEP.items():
        times = []
        for factor in (1, 2):
            order = factor * CASES[cid][0]
            spec_path = write_spec([{"id": cid, "order": order, "witnesses": None}])
            rep = run_child(["cases", spec_path], env)
            reports, case_s = parse_reports(rep, "cases")
            checker.check(rep, reports, f"sweep {cid} x{factor}",
                          [dict(expected_report(cid, order), _width=1)], (cid, order))
            times.append(case_s[0] if case_s else float("nan"))
        out[f"registry.scale_exp.{mode}"] = (math.log2(times[1] / times[0]), "exp")
    return out


def traced(args, env, argv, spec_path, expected, checker, kind, jobs):
    plain, traced_walls, layers, pool = [], [], [], []
    start = time.perf_counter()
    while True:
        rep = run_child(child_args(argv, spec_path), env)
        reports = parse_reports(rep, kind)[0]
        checker.check(rep, reports, f"untraced rep {len(plain) + 1}", expected, "workload")
        plain.append(rep.wall)
        ms = [r.get("ms", 0) / 1000 for r in reports or []]
        pool.append((sum(ms) / (jobs * rep.wall), max(ms, default=0.0)))
        trace_dir = tempfile.mkdtemp(dir=WORK)
        rep = run_child(child_args(argv, spec_path, trace_dir), env)
        reports = parse_reports(rep, kind)[0]
        if reports is None:
            raise SystemExit(f"traced run failed:\n{rep.err}")
        checker.check(rep, reports, f"traced rep {len(layers) + 1}", expected, "workload")
        traced_walls.append(rep.wall)
        layers.append(layer_metrics(merge_traces(trace_dir)))
        shutil.rmtree(trace_dir)
        elapsed = time.perf_counter() - start
        per_pair = elapsed / len(layers)
        if elapsed + per_pair > min(args.seconds, RUN_CAP - 30):
            break
    metrics = {name: (statistics.median(l[name][0] for l in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["verify.pool.busy_frac"] = (statistics.median(p[0] for p in pool), "frac")
    metrics["verify.pool.critical_case_s"] = (statistics.median(p[1] for p in pool), "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(plain) - 1, "frac")
    metrics.update(sweep(env, checker))
    detail = {"pairs": len(layers), "untraced_wall_s": plain, "traced_wall_s": traced_walls}
    return metrics, detail


def write_spec(spec):
    fd, path = tempfile.mkstemp(suffix=".json", dir=WORK)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    bench = json.loads(path.read_text())
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("registry-cold", "registry-jobs2", "univariate-deep",
                             "bivariate-z"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qhecke" / "__init__.py").is_file():
        print(f"no qhecke sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QHECKE_PURE", None)
    # "build": byte-compile the sources so no repetition pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    argv, spec, expected, jobs = workload(args.workload, args.seed)
    kind = argv[0]
    spec_path = write_spec(spec) if spec is not None else None
    checker = Checker()
    try:
        if args.trace:
            metrics, detail = traced(args, env, argv, spec_path, expected, checker,
                                     kind, jobs)
            backend = measure_setup(env, [])
        else:
            metrics, detail, backend = end_to_end(args, env, argv, spec_path, expected,
                                                  checker, kind)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(declared ^ set(metrics))}")
    for note in checker.notes[:20]:
        print("check:", note, file=sys.stderr)
    info = dict(metadata(args, backend), **detail)
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.notes,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
