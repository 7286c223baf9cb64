"""Outside-in benchmark of the msetramsey workbench.

    python3 perfbench/run.py --workload arrow-search --seed 1 --seconds 30 --trace 0

Run from the repository root. One client drives ``msetramsey.cli.main``
in-process as a closed loop: one thread, no subprocesses, each job
starting after the previous one returns, in a seeded fixed order. The
package is imported from ``src/`` of the checkout this file sits in.

A run sets up (imports the package and writes the seeded inputs)
several times and keeps the median time, then repeats passes over the
job list until ``--seconds`` have passed, every job running at least
twice. Every time is scaled to a reference machine speed (see
``calibrate``). After the timed region the correctness gate judges each
job's first report. A job run fails if it raises, exits non-zero, or writes a
report that differs from the job's first report, or if that first
report failed the gate.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` untraced and traced passes alternate and the
last line carries the per-layer metrics instead. Lines before it, each
starting with ``#``, give the details: fail and inconclusive shares,
how many jobs ``job_tail_ms`` averages, and the layer table.
"""

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

import layertrace
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PACKAGE = layertrace.PACKAGE
MODULES = ("cli", "forests", "ramsey")
SETUP_REPEATS = 9
MIN_RUNS_PER_JOB = 2
CALIBRATION_REF_S = 0.006     # calibrate() on an idle 2.1 GHz Xeon vCPU
CALIBRATION_EVERY_S = 0.25
# job_tail_ms is the mean latency of the jobs beyond this percentile.
# p90 was the highest percentile with at least ten job runs beyond it on
# every workload when the benchmark was written; it stays fixed, since
# chosen afresh per run it would jump to p99 once a change made a
# workload about 1.4x faster. A mean over the jobs beyond it, rather
# than the percentile itself, keeps one job's noise out of the figure.
TAIL_PERCENTILE = 90
LAYERS = ("chains", "monoid", "mset", "comonad", "forests", "ramsey",
          "expansion", "transport", "bigramsey", "io", "cli")


def import_package():
    """Import the package afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                             for m in MODULES})
    where = os.path.dirname(os.path.abspath(pkg.cli.__file__))
    if where != os.path.join(SRC, PACKAGE):
        raise ImportError(f"{PACKAGE} was imported from {where}, "
                          f"not from {SRC}")
    return pkg


def calibrate():
    """Time a fixed pure-Python kernel; return CALIBRATION_REF_S / time.

    The machine this benchmark was tuned on switches for seconds to
    minutes between two speeds about 1.6x apart, and the switch slows
    every piece of Python code alike: a job's time divided by the time
    of this kernel, run next to it, stays put. Multiplying a time by the
    returned factor expresses it at the reference speed. The kernel does
    the dict, tuple and set work the package does, but uses none of the
    package, so no change to the package can move it.
    """
    start = perf_counter()
    table = {p: sum(x * i for i, x in enumerate(p)) % 11
             for p in itertools.permutations(range(7))}
    groups = {}
    for p, v in table.items():
        groups.setdefault(v, []).append(p[::-1])
    if sum(len(set(g)) for g in groups.values()) != 5040:
        raise RuntimeError("calibration kernel miscounted")
    return CALIBRATION_REF_S / (perf_counter() - start)


def setup(workload, seed):
    """Import the package and write the inputs; return (seconds, pkg, jobs)."""
    start = perf_counter()
    pkg = import_package()
    directory = os.path.join(WORK, workload)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    jobs = workloads.build(workload, seed, directory, pkg)
    return perf_counter() - start, pkg, jobs


def run_job(job, pkg):
    """Run one job; return (seconds, report text, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            if job.argv is not None:
                code = pkg.cli.main(list(job.argv))
            else:
                out.write(json.dumps(job.api(pkg), sort_keys=True))
                code = 0
        except SystemExit as exc:
            error = f"SystemExit({exc.code}): {err.getvalue().strip()}"
        except Exception:
            error = traceback.format_exc()
        seconds = perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()}"
    return seconds, out.getvalue(), error


class Runs:
    """Every job's latency samples, scaled and raw, and the runs that
    raised or differed from the job's first report. ``first`` may be
    shared between instances, so that untraced and traced passes meet
    one standard."""

    def __init__(self, jobs, pkg, first=None):
        self.jobs, self.pkg = jobs, pkg
        self.samples = [[] for _ in jobs]       # at the reference speed
        self.raw = [[] for _ in jobs]
        self.pending = []       # (job index, seconds) since the last scale
        self.scale = None
        self.first = first if first is not None else [None] * len(jobs)
        self.bad = [0] * len(jobs)
        self.problems = self.statuses = self.verdicts = None  # by judge()

    def run(self, deadline=None, tracer=None):
        """One pass over the jobs or, given a deadline, passes until the
        first job boundary past it, every job having run MIN_RUNS_PER_JOB
        times; return (wall seconds, seconds inside jobs), both without
        the calibration runs."""
        start = perf_counter()
        in_jobs = 0.0
        calibrating = self.calibrate()
        calibrated_at = perf_counter()
        count = 0
        least = len(self.jobs) * (1 if deadline is None else MIN_RUNS_PER_JOB)
        while count < least or \
                (deadline is not None and perf_counter() < deadline):
            if perf_counter() - calibrated_at >= CALIBRATION_EVERY_S:
                calibrating += self.calibrate()
                calibrated_at = perf_counter()
            index = count % len(self.jobs)
            if tracer is not None:
                tracer.job = index
            seconds, text, error = run_job(self.jobs[index], self.pkg)
            count += 1
            in_jobs += seconds
            self.pending.append((index, seconds))
            self.raw[index].append(seconds)
            if self.first[index] is None:
                self.first[index] = (text, error)
            if error is not None or text != self.first[index][0]:
                self.bad[index] += 1
                if error is not None and sum(self.bad) <= 3:
                    print(f"# FAIL {self.jobs[index].name}: {error}",
                          file=sys.stderr)
        calibrating += self.calibrate()
        return perf_counter() - start - calibrating, in_jobs

    def calibrate(self):
        """Scale the runs since the last calibration by the mean of the
        factors measured before and after them; return seconds taken."""
        start = perf_counter()
        scale = calibrate()
        for index, seconds in self.pending:
            self.samples[index].append(seconds * (self.scale + scale) / 2)
        self.pending.clear()
        self.scale = scale
        return perf_counter() - start

    def judge(self, quiet=False):
        """The correctness gate, run after the timed region."""
        self.problems, self.statuses, self.verdicts = [], [], []
        for job, (text, error) in zip(self.jobs, self.first):
            problem = status = verdict = None
            if error is not None:
                problem = error
            else:
                try:
                    report = json.loads(text)
                    status = job.status(report)
                    verdict = job.check(report, self.pkg)
                except Exception as exc:
                    problem = f"{type(exc).__name__}: {exc}"
            if problem is not None and not quiet:
                print(f"# FAIL {job.name}: {problem}", file=sys.stderr)
            self.problems.append(problem)
            self.statuses.append(status)
            self.verdicts.append(verdict)

    @property
    def attempted(self):
        return sum(len(s) for s in self.samples)

    @property
    def failed(self):
        return sum(len(s) if p is not None else b for s, p, b in
                   zip(self.samples, self.problems, self.bad))

    def decision_runs(self):
        """(runs of decision jobs, those whose verdict is inconclusive)."""
        runs = [(len(s), status == "inconclusive") for job, s, status in
                zip(self.jobs, self.samples, self.statuses)
                if job.status_path]
        return sum(n for n, _ in runs), sum(n for n, inc in runs if inc)

    def typical(self):
        """Each job's median latency at the reference speed."""
        return [statistics.median(s) for s in self.samples]


def tail(values):
    """(mean of the values beyond TAIL_PERCENTILE by nearest rank, how
    many they are)."""
    ordered = sorted(values)
    beyond = ordered[math.ceil(TAIL_PERCENTILE * len(ordered) / 100):]
    return statistics.mean(beyond), len(beyond)


def share(part, whole):
    return 100.0 * part / whole if whole else 0.0


def end_to_end(runs, seconds, setup_times):
    # each job once, at its median latency: the percentiles then describe
    # slow jobs rather than moments when the machine was slow
    typical = runs.typical()
    attempted = runs.attempted
    tail_s, beyond = tail(typical)
    decisions, inconclusive = runs.decision_runs()
    raw = [x for s in runs.raw for x in s]
    print(f"# timed: {attempted} job runs, {attempted / len(typical):.1f} "
          f"per job, in {seconds:.3f} s; unscaled: {attempted / seconds:.3f}"
          f" jobs/s, median {1000 * statistics.median(raw):.3f} ms")
    print(f"# job_tail_ms is the mean of the {beyond} of {len(typical)} "
          f"jobs beyond p{TAIL_PERCENTILE}; each job ran at least "
          f"{min(len(s) for s in runs.samples)} times")
    print(f"# fail_share {runs.failed / attempted:.4f} "
          f"({runs.failed}/{attempted}); inconclusive_share "
          f"{inconclusive / max(decisions, 1):.4f} "
          f"({inconclusive}/{decisions} decision job runs)")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (len(typical) / sum(typical), "1/s"),
        "job_p50_ms": (1000 * statistics.median(typical), "ms"),
        "job_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(plain, seconds, workload):
    """Alternate untraced and traced passes after ``plain``'s first pass;
    return (per-layer metrics, the traced Runs)."""
    traced = Runs(plain.jobs, plain.pkg, plain.first)
    tracers = []
    total = in_jobs = 0.0
    deadline = perf_counter() + seconds
    while not tracers or perf_counter() < deadline:
        plain.run()
        if tracers:
            tracers[-1].spans.clear()       # only the last pass is written
        tracer = layertrace.Tracer()
        with tracer:
            pass_s, pass_in_jobs = traced.run(tracer=tracer)
        total += pass_s
        in_jobs += pass_in_jobs
        tracers.append(tracer)
    counts = tracers[0].work_counts()
    if any(t.work_counts() != counts for t in tracers):
        raise RuntimeError("work counts differ between traced passes")
    self_s = {m: sum(t.self_s[m] for t in tracers) for m in layertrace.METRICS}
    present = tracers[0].present
    metrics = {f"{m}.self_share": (share(self_s[m], total), "%")
               for m in layertrace.METRICS if m in present}
    for key, value in counts.items():
        metrics[key] = (value, "count")
    if "ramsey._all_actions.tables_tried" in counts:
        tried = counts["ramsey._all_actions.tables_tried"]
        metrics["ramsey._all_actions.valid_ratio"] = (
            counts["ramsey._all_actions.tables_valid"] / tried
            if tried else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = (share(sum(
            s for m, s in self_s.items() if m.split(".")[0] == layer),
            total), "%")
    harness = total - in_jobs
    metrics["trace.harness_share"] = (share(harness, total), "%")
    metrics["trace.residual_share"] = (
        share(total - sum(self_s.values()) - harness, total), "%")
    plain_s = sum(plain.typical())
    metrics["trace.overhead_share"] = (
        share(sum(traced.typical()) - plain_s, plain_s), "%")
    metrics["trace.pass_s"] = (total / len(tracers), "s")
    metrics["trace.spans"] = (len(tracers[-1].spans), "count")

    missing = tracers[0].missing
    print(f"# traced {len(tracers)} passes of {total / len(tracers):.3f} s; "
          f"missing: {', '.join(missing) if missing else 'none'}")
    print(f"# {'function':44} {'self s/pass':>12} {'share %':>8}")
    for metric in sorted(self_s, key=self_s.get, reverse=True):
        if metric in present:
            print(f"# {metric:44} {self_s[metric] / len(tracers):12.6f} "
                  f"{share(self_s[metric], total):8.3f}")
    write_trace(workload, tracers[-1], self_s, len(tracers), total)
    return metrics, traced


def write_trace(workload, tracer, self_s, passes, total):
    path = os.path.join(WORK, workload, "trace.json")
    with open(path, "w") as fh:
        json.dump({"passes": passes, "traced_seconds": total,
                   "self_seconds": self_s, "missing": tracer.missing,
                   "work_counts": tracer.work_counts(),
                   "spans_of_last_pass": tracer.spans}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        scale = calibrate()
        try:
            seconds, pkg, jobs = setup(args.workload, args.seed)
        except ImportError as exc:
            print(f"cannot import {PACKAGE} from {SRC}: {exc}",
                  file=sys.stderr)
            return 1
        setup_times.append(seconds * scale)
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}; "
          f"scaled setup_s runs {[round(s, 4) for s in setup_times]}")

    runs = Runs(jobs, pkg)
    if args.trace:
        runs.run()                  # first reports, untraced
        metrics, traced = per_layer(runs, args.seconds, args.workload)
        all_runs = (runs, traced)
    else:
        seconds, _ = runs.run(deadline=perf_counter() + args.seconds)
        all_runs = (runs,)
    for i, r in enumerate(all_runs):
        r.judge(quiet=i > 0)
    if not args.trace:
        metrics = end_to_end(runs, seconds, setup_times)
    failed = sum(r.failed for r in all_runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in all_runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
