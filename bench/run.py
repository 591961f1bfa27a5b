"""The glq benchmark: end-to-end timings of `glq` CLI jobs, and a traced
run that breaks them down per layer.

    python3 bench/run.py --workload decompose --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --compare PARENT_DIR CHANGE_DIR [--workload w,...]
    python3 bench/run.py --write-golden

Run it from the root of a checkout; each job runs that checkout's
``src`` in a fresh interpreter, one job at a time (a closed loop with
one client), and only argv, stdout and the exit code cross the
boundary.  A run repeats the workload's job list, each pass in a seeded
order, until ``--seconds`` have passed (always at least one whole
pass), and checks every report against the golden answers in
``golden.json``.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json: ``wall_s`` and ``cpu_s`` add up each job's median over
its runs, so a partial last pass does not bias them, and ``setup_s`` is
the median of at least 11 ``glq --help`` start-ups interleaved with the
jobs; all three are scaled to a reference host speed (see REF_PROBE_S).
The line before the result is the run record: interpreter, nproc, CPU
model, load average, commit, seed, the unscaled times, every job's wall
times, and the median job time with the job count.  With ``--trace 1``
the run makes one untraced and one traced pass (see tracer.py) and
reports the per-layer metrics, summed over the traced pass's jobs and
not scaled; the aggregated span log is written to ``.bench_out/`` in
the checkout.

``--compare`` measures two checkouts with this benchmark code, in
alternating pairs, and applies the gain and no-regression rules to
every end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYERS, MARKER  # noqa: E402
from workloads import WORKLOADS, jobs  # noqa: E402

GOLDEN = BENCH_DIR / "golden.json"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
ENTRY = "import sys; from glq.cli import main; sys.exit(main())"
JOB_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 11
# Alternating parent/change pairs per workload in --compare; the gain
# rule (at least 9 of 10 pair wins) is written for ten.
PAIRS = 10

# The speed of a shared VM drifts by tens of percent over minutes (one
# 2-vCPU host took 8 to 20 s for the same decompose job list), more than
# any number of samples within one run can average out.  A probe that
# starts a fresh interpreter and imports a fixed set of standard-library
# modules, the same kind of work as a glq start-up, runs after every job
# and tracks that drift.  End-to-end times are scaled by
# REF_PROBE_S / (median probe time): they are seconds on a host where the
# probe takes REF_PROBE_S.  The probe runs no glq code, so a change to
# glq moves the scaled times as much as the raw ones, which the run
# record keeps.
REF_PROBE_S = 0.16
PROBE = ("import argparse, csv, dataclasses, decimal, difflib, email.message, "
         "fractions, http.client, inspect, json, logging, pydoc, statistics, "
         "typing, unittest, xml.dom.minidom")

# Always-true checks that may be dropped from the reports; their absence
# is not a failure.
DROPPABLE_CHECKS = {"dimensions-sum", "span-stable", "defining-relations"}
ANSWER_FIELDS = ("ok", "measured", "summands", "types", "positive",
                 "module_side", "parabolic_side")
SUITE_ANSWER_FIELDS = ("summands", "normal_form")

clock = time.perf_counter


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------------------
# Running one child process
# ---------------------------------------------------------------------------


class Child:
    """One finished child process: wall and CPU time, peak RSS, output."""

    def __init__(self, argv, env, cwd, timeout=JOB_TIMEOUT_S):
        t0 = clock()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=cwd)
        out = {}
        readers = [threading.Thread(target=lambda k=k, f=f: out.update({k: f.read()}))
                   for k, f in (("stdout", proc.stdout),
                                ("stderr", proc.stderr))]
        for r in readers:
            r.start()
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        self.wall = clock() - t0
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out["stdout"]
        self.stderr = out["stderr"].decode("utf-8", "replace")


def child_env(root):
    env = dict(os.environ)
    env.pop("GLQ_MAX_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_job(root, env, argv, traced=False):
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py")] + list(argv)
    else:
        cmd = [sys.executable, "-c", ENTRY] + list(argv)
    child = Child(cmd, env, root)
    child.trace = None
    if traced:
        _, sep, tail = child.stderr.rpartition(MARKER)
        if sep:
            child.trace = json.loads(tail)
    return child


def setup_sample(root, env):
    """Wall time of a fresh interpreter that imports glq.cli, builds the
    argument parser and prints the help."""
    child = Child([sys.executable, "-c", ENTRY, "--help"], env, root)
    if child.code != 0:
        raise SetupError("glq --help failed:\n" + child.stderr)
    return child.wall


def speed_probe(root, env):
    """Wall time of a fresh interpreter running PROBE."""
    child = Child([sys.executable, "-c", PROBE], env, root)
    if child.code != 0:
        raise SetupError("speed probe failed:\n" + child.stderr)
    return child.wall


def preflight(root, env):
    if not (root / "src" / "glq" / "cli.py").is_file():
        raise SetupError("no glq sources under %s" % (root / "src"))
    child = Child([sys.executable, "-c", "import glq; print(glq.__file__)"],
                  env, root)
    where = child.stdout.decode().strip()
    if child.code != 0 or not where.startswith(str(root / "src")):
        raise SetupError("glq does not import from %s: %s%s"
                         % (root / "src", where, child.stderr))


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def job_key(argv):
    return " ".join(argv)


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def answers(report):
    """The answers a report gives, without its always-true checks.
    Normal forms, which run to tens of kilobytes, are kept as digests."""
    out = {}
    for suite in report.get("suites", []):
        got = {f: suite[f] for f in SUITE_ANSWER_FIELDS if f in suite}
        if "normal_form" in got:
            got["normal_form"] = digest(got["normal_form"])
        for check in suite.get("checks", []):
            if check["name"] not in DROPPABLE_CHECKS:
                got[check["name"]] = {f: check[f] for f in ANSWER_FIELDS
                                      if f in check}
        out[suite["name"]] = got
    return out


def answers_match(golden, got):
    """Every golden answer is present and equal; reports may add more."""
    for suite, fields in golden.items():
        have = got.get(suite)
        if have is None:
            return False
        for name, value in fields.items():
            if have.get(name) != value:
                return False
    return True


def job_failure(child, golden):
    """Why a job failed, or None.  The golden entry may be missing."""
    if child.code < 0:
        return "killed by signal %d" % -child.code
    try:
        report = json.loads(child.stdout)
    except ValueError:
        return "exit %d without a JSON report" % child.code
    if child.code != 0:
        return "exit %d" % child.code
    if report.get("ok") is not True:
        return '"ok" is not true'
    if golden is not None and not answers_match(golden["answers"],
                                                answers(report)):
        return "answers differ from golden.json"
    return None


def normal_form_holds(root, argv, report):
    """Checks a normalform report without golden answers, in this
    process: the reported normal form equals the rightmost-strategy
    normal form of the input, and every word in it is normal."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from glq.graded import GradingContext
    from glq.parser import parse_superspace
    from glq.superspace import is_normal, normal_form

    ctx = GradingContext(int(argv[argv.index("--m") + 1]),
                         int(argv[argv.index("--n") + 1]))
    got = parse_superspace(ctx, report["suites"][0]["normal_form"])
    right, _ = normal_form(ctx, parse_superspace(ctx, argv[-1]),
                           strategy="rightmost")
    return got == right and all(is_normal(ctx, w) for w in got.terms)


def self_check(root, env, golden):
    """The gate passes a good job, fails the same job run with the hidden
    --inject-failure flag and fails a crashing input, and keeps going."""
    good = ("verify", "--m", "1", "--n", "1")
    cases = ((good, False), (good + ("--inject-failure",), True),
             (("verify", "--m", "0", "--n", "0"), True))
    return all((job_failure(run_job(root, env, argv),
                            golden.get(job_key(argv))) is not None) is bad
               for argv, bad in cases)


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, root, workload, seed):
        self.root = root
        self.env = child_env(root)
        self.workload = workload
        self.seed = seed
        self.jobs = jobs(workload, seed)
        self.golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.ran = Counter()
        self.failed = Counter()
        self.failures = []
        self.reports = {}

    def order(self, rng):
        order = list(self.jobs)
        rng.shuffle(order)
        return order

    def job(self, argv, traced=False):
        child = run_job(self.root, self.env, argv, traced)
        key = job_key(argv)
        self.ran[key] += 1
        why = job_failure(child, self.golden.get(key))
        if why is None and key in self.reports and self.reports[key] != child.stdout:
            why = "report differs from an earlier run of the same job"
        if why is not None:
            self.fail(key, why, child.stderr[-2000:])
        self.reports.setdefault(key, child.stdout)
        return child

    def fail(self, key, why, stderr="", every_run=False):
        """Count a failed run of a job, or all of its runs."""
        self.failed[key] = (self.ran[key] if every_run
                            else min(self.ran[key], self.failed[key] + 1))
        self.failures.append((key, why, stderr))

    def check_without_golden(self):
        """Outside the timed region: normalform jobs that have no golden
        answers (seeds other than 0) are checked by normal_form_holds."""
        for argv in self.jobs:
            key = job_key(argv)
            if (argv[0] != "normalform" or key in self.golden
                    or key in self.failed):
                continue
            try:
                holds = normal_form_holds(self.root, argv,
                                          json.loads(self.reports[key]))
            except Exception as exc:
                self.fail(key, "normal form check raised %r" % exc,
                          every_run=True)
                continue
            if not holds:
                self.fail(key, "normal form check", every_run=True)

    def timed(self, seconds):
        """The end-to-end metrics."""
        rng = random.Random(self.seed)
        walls = {job_key(a): [] for a in self.jobs}
        cpus = {job_key(a): [] for a in self.jobs}
        rss = []
        setup = []
        probe = []
        deadline = clock() + seconds
        passes = 0
        while passes == 0 or clock() < deadline:
            for argv in self.order(rng):
                if passes and clock() >= deadline:
                    break
                child = self.job(argv)
                walls[job_key(argv)].append(child.wall)
                cpus[job_key(argv)].append(child.cpu)
                rss.append(child.rss_mb)
                setup.append(setup_sample(self.root, self.env))
                probe.append(speed_probe(self.root, self.env))
            passes += 1
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(setup_sample(self.root, self.env))
            probe.append(speed_probe(self.root, self.env))
        job_medians = [statistics.median(w) for w in walls.values()]
        raw = {"wall_s": sum(job_medians),
               "cpu_s": sum(statistics.median(c) for c in cpus.values()),
               "setup_s": statistics.median(setup)}
        scale = REF_PROBE_S / statistics.median(probe)
        return {
            "wall_s": (raw["wall_s"] * scale, "s"),
            "cpu_s": (raw["cpu_s"] * scale, "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "setup_s": (raw["setup_s"] * scale, "s"),
        }, {
            "raw": raw,
            "probe_s": statistics.median(probe),
            "scale": scale,
            # The median job is one ~1 s job measured once or twice per
            # run, too noisy to bound on a shared host; it is recorded,
            # not gated.
            "job_p50_s": statistics.median(job_medians),
            "jobs": len(job_medians),
            "passes": passes,
            "setup_samples": len(setup),
            "job_wall_s": {k: [round(x, 4) for x in v]
                           for k, v in walls.items()},
        }

    def traced(self):
        """The per-layer metrics: one untraced and one traced pass."""
        order = self.order(random.Random(self.seed))
        plain = {job_key(a): self.job(a) for a in order}
        traced = {job_key(a): self.job(a, traced=True) for a in order}
        spans = {}
        for key, child in traced.items():
            if child.trace is None:
                self.fail(key, "traced job wrote no trace", child.stderr[-2000:])
                continue
            spans[key] = dict(child.trace, wall_s=child.wall)
        identical = sum(
            1 for key, child in traced.items()
            if digest(child.stdout) == (self.golden[key]["report_sha256"]
                                        if key in self.golden
                                        else digest(plain[key].stdout)))
        metrics = layer_metrics(list(spans.values()))
        metrics["cli.report_identical_ratio"] = (identical / len(traced), "ratio")
        metrics["trace_overhead_ratio"] = (
            sum(c.wall for c in traced.values())
            / sum(c.wall for c in plain.values()), "ratio")
        out_dir = self.root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        log = out_dir / ("trace-%s-seed%d.json" % (self.workload, self.seed))
        log.write_text(json.dumps(spans, indent=1, sort_keys=True))
        untraced = sorted({u for s in spans.values() for u in s["untraced"]})
        return metrics, {"span_log": str(log.relative_to(self.root)),
                         "untraced": untraced}


def layer_metrics(spans):
    """Per-layer metrics summed over the traced jobs."""
    def total(field, key):
        return sum(s[field].get(key, 0) for s in spans)

    def calls(key):
        return sum(s["funcs"].get(key, (0, 0, 0))[0] for s in spans)

    def inclusive(key):
        return sum(s["funcs"].get(key, (0, 0, 0))[1] for s in spans)

    def self_s(layer):
        return sum(v[2] for s in spans for k, v in s["funcs"].items()
                   if k.split(".")[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    counts = {k: total("counts", k) for k in spans[0]["counts"]} if spans else {}
    new = counts.get("ratfunc_new", 0)
    adds = calls("graded.Echelon.add")
    words = calls("reps.Representation.evaluate_word")
    fmt = inclusive("parser.format_normal_form")
    m = {
        "coeff.ratfunc_new": (new, "count"),
        "coeff.monomial_den_ratio": (ratio(counts.get("monomial_den", 0), new), "ratio"),
        "coeff.prereduced_ratio": (ratio(counts.get("prereduced", 0), new), "ratio"),
        "coeff.self_s": (self_s("coeff"), "s"),
        "graded.echelon_add": (adds, "count"),
        "graded.echelon_grew_ratio": (ratio(counts.get("echelon_grew", 0), adds), "ratio"),
        "graded.nullspace": (calls("graded.nullspace"), "count"),
        "graded.solve": (calls("graded.solve"), "count"),
        "graded.compose": (calls("graded.GradedMap.compose"), "count"),
        "graded.busy_s": (total("layer_busy_s", "graded"), "s"),
        "graded.self_s": (self_s("graded"), "s"),
        "reps.evaluate_word": (words, "count"),
        "reps.evaluate_word_hit_ratio": (
            ratio(counts.get("evaluate_word_repeat", 0), words), "ratio"),
        "reps.decompose_s": (inclusive("reps.decompose"), "s"),
        "reps.submodule_rep_s": (inclusive("reps.submodule_rep"), "s"),
        "reps.self_s": (self_s("reps"), "s"),
        "coords.evaluate_word": (calls("coords.evaluate_word"), "count"),
        "coords.evaluate": (calls("coords.evaluate"), "count"),
        "coords.busy_s": (total("layer_busy_s", "coords"), "s"),
        "coords.self_s": (self_s("coords"), "s"),
        "rmatrix.check_rtt_s": (inclusive("rmatrix.check_rtt"), "s"),
        "rmatrix.check_intertwiner_s": (inclusive("rmatrix.check_intertwiner"), "s"),
        "rmatrix.check_braid_s": (inclusive("rmatrix.check_braid"), "s"),
        "superspace.normal_form": (calls("superspace.normal_form"), "count"),
        "superspace.rewrite_steps": (counts.get("rewrite_steps", 0), "count"),
        "superspace.busy_s": (total("layer_busy_s", "superspace"), "s"),
        "superspace.self_s": (self_s("superspace"), "s"),
        "uq.coproduct": (calls("uq.coproduct"), "count"),
        "uq.antipode": (calls("uq.antipode"), "count"),
        "uq.busy_s": (total("layer_busy_s", "uq"), "s"),
        "induction.build_induced_s": (inclusive("induction.build_induced"), "s"),
        "induction.frobenius_dims_s": (inclusive("induction.frobenius_dims"), "s"),
        "parser.parse_s": (total("layer_busy_s", "parser") - fmt, "s"),
        "parser.format_s": (fmt, "s"),
        "cli.self_s": (sum(s["wall_s"] - s["covered_s"] for s in spans), "s"),
    }
    for layer in LAYERS + ("cli",):
        m[layer + ".errors"] = (total("errors", layer), "count")
    return m


# ---------------------------------------------------------------------------
# Run record, golden answers, comparison
# ---------------------------------------------------------------------------


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(root, args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_golden(root):
    """Record the answers and report bytes of every job at seed 0."""
    env = child_env(root)
    preflight(root, env)
    golden = {}
    for workload in WORKLOADS:
        for argv in jobs(workload, 0):
            child = run_job(root, env, argv)
            why = job_failure(child, None)
            if why is not None:
                raise SetupError("%s: %s\n%s" % (job_key(argv), why, child.stderr))
            golden[job_key(argv)] = {
                "answers": answers(json.loads(child.stdout)),
                "report_sha256": digest(child.stdout),
            }
            print("%6.2f s  %s" % (child.wall, job_key(argv)[:70]), flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent, change, better, bound):
    """Verdict for one metric from paired runs (same index, same seed)."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if sign * (cm - pm) > 0 and wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1:
        return "gain", wins
    spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
    if spread > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "no worse", wins
        return "unresolved", wins
    if -sign * (cm - pm) > bound * abs(pm):
        return "worse", wins
    return "no worse", wins


def compare(spec, sides, workloads, seconds, seed0):
    verdicts = []
    for workload in workloads:
        results = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--root", str(sides[side]), "--workload", workload,
                       "--seed", str(seed0 + i), "--seconds", str(seconds),
                       "--trace", "0"]
                out = subprocess.run(cmd, capture_output=True, text=True,
                                     cwd=sides[side])
                if out.returncode != 0:
                    raise SetupError("%s run failed:\n%s" % (side, out.stderr))
                results[side].append(json.loads(out.stdout.strip().splitlines()[-1]))
                print("pair %d %s %s: %s" % (i, workload, side, json.dumps(
                    {k: round(v["value"], 4) for k, v in
                     results[side][-1]["metrics"].items()})), flush=True)
        failed = {s: sum(r["failed"] for r in rs) for s, rs in results.items()}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {s: [r["metrics"][name]["value"] for r in rs]
                      for s, rs in results.items()}
            verdict, wins = judge(values["parent"], values["change"],
                                  metric["better"], metric["bound"])
            if verdict == "gain" and failed["change"] > failed["parent"]:
                verdict = "gain void: more failures"
            row = {"workload": workload, "metric": name,
                   "parent": quartiles(values["parent"]),
                   "change": quartiles(values["change"]),
                   "change_wins": wins, "pairs": PAIRS, "verdict": verdict}
            verdicts.append(row)
            print("%-10s %-12s parent %s  change %s  wins %d/%d  %s" % (
                workload, name,
                "/".join("%.4g" % x for x in row["parent"]),
                "/".join("%.4g" % x for x in row["change"]),
                wins, PAIRS, verdict), flush=True)
    print(json.dumps({"compare": verdicts}))


# ---------------------------------------------------------------------------


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None,
                    help="one of %s (a comma list with --compare)"
                         % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, default=BENCH_DIR.parent,
                    help="checkout to measure (default: this one)")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    type=Path)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    try:
        if args.write_golden:
            write_golden(root)
            return 0
        if args.compare:
            names = (args.workload or ",".join(WORKLOADS)).split(",")
            sides = {"parent": args.compare[0].resolve(),
                     "change": args.compare[1].resolve()}
            compare(spec, sides, names, args.seconds, args.seed)
            return 0
        if args.workload not in WORKLOADS:
            ap.error("--workload must be one of %s" % ", ".join(WORKLOADS))
        record = run_record(root, args)
        run = Run(root, args.workload, args.seed)
        preflight(root, run.env)
        if args.trace:
            metrics, extra = run.traced()
        else:
            metrics, extra = run.timed(args.seconds)
        listed = {m["name"]: m["unit"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]}
        if listed != {k: u for k, (_, u) in metrics.items()}:
            raise SetupError("metrics differ from those in BENCHMARK.json")
        run.check_without_golden()
        gate_ok = self_check(root, run.env, run.golden)
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    for key, why, err in run.failures:
        print("FAILED %s: %s\n%s" % (key[:120], why, err), file=sys.stderr)
    record.update(extra, gate_self_check=gate_ok)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": gate_ok and not run.failures,
        "attempted": sum(run.ran.values()),
        "failed": sum(run.failed.values()),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
