"""Self-test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

For every workload it checks that two seeds give the same verdicts,
that two traced passes on one seed give the same work counts, and that
the metric names the benchmark prints are the ones BENCHMARK.json lists.
It takes a few minutes: about five passes of each workload.
"""

import json
import os
import sys

import layertrace
import run
import workloads

SEEDS = (1, 2)


def first_pass(workload, seed):
    _, pkg, jobs = run.setup(workload, seed)
    runs = run.Runs(jobs, pkg)
    runs.run()
    runs.judge()
    return runs


def verdicts(runs):
    if any(p is not None for p in runs.problems):
        raise AssertionError("a job failed the correctness gate")
    return {job.name: v for job, v in zip(runs.jobs, runs.verdicts)}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in sorted(workloads.WORKLOADS):
        a = first_pass(workload, SEEDS[0])
        b = first_pass(workload, SEEDS[1])
        if verdicts(a) != verdicts(b):
            raise AssertionError(f"{workload}: verdicts depend on the seed")
        names = set(run.end_to_end(b, 1.0, [0.0]))
        if names != end_to_end:
            raise AssertionError(f"{workload}: end-to-end metrics {names}")

        metrics, traced = run.per_layer(a, 0, workload)
        if set(metrics) != per_layer:
            raise AssertionError(
                f"{workload}: per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ per_layer)}")
        tracer = layertrace.Tracer()
        with tracer:
            traced.run(tracer=tracer)
        again = tracer.work_counts()
        if any(metrics[k][0] != v for k, v in again.items()):
            raise AssertionError(f"{workload}: work counts differ between "
                                 "two traced passes")
        print(f"# {workload}: verdicts agree across seeds {SEEDS}; "
              f"{len(again)} work counts repeat; metric names match")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
