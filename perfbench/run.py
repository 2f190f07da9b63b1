#!/usr/bin/env python3
"""The repository benchmark: absolute µs/round per policy on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the measuring binary (the cargo package in this directory) and the
repository's `shard_worker`, runs one workload, checks the program's outputs
and prints the metrics. With `--trace 0` those are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workload parameters, reference response times, seeds and the recorded
trajectory live in `design.json` next to this file.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The measuring run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# The first build in a fresh checkout compiles the workspace.
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    (the fabric's workers included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    for extra in (
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "scd-experiments", "--bin", "shard_worker"],
    ):
        code, _ = run_group(common + extra, BUILD_TIMEOUT_S, cwd=ROOT, env=env,
                            stdout=sys.stderr)
        if code != 0:
            raise RuntimeError(f"build failed: {' '.join(common + extra)}")


def check_runs(runs, references, fabric):
    """Output checks, outside every timed region. Returns the indices of
    failed runs and one reason line per failure."""
    failed, reasons = set(), []

    def fail(i, why):
        failed.add(i)
        run = runs[i]
        reasons.append(f"{run['policy']} rep {run['rep']}: {why}")

    first = {}
    for i, run in enumerate(runs):
        if run["error"]:
            fail(i, "error: " + run["error"])
            continue
        if run["dispatched"] == 0:
            fail(i, "no job was dispatched")
        if run["dispatched"] != run["completed"] + run["in_flight"]:
            fail(i, "jobs_dispatched != jobs_completed + jobs_in_flight")
        band = references[run["policy"]]
        if not band["low"] <= run["mean_response"] <= band["high"]:
            fail(i, f"mean response {run['mean_response']:.4f} outside the reference "
                    f"band [{band['low']}, {band['high']}]")
        if fabric and (run["lost_shards"] or run["failed_attempts"]):
            fail(i, "the fabric lost a shard or retried a worker")
        # Every run of a policy sees identical inputs, so must report
        # identically.
        facts = (run["mean_response"], run["dispatched"], run["completed"])
        if first.setdefault(run["policy"], facts) != facts:
            fail(i, "differs from an earlier run on the same inputs")
    # The paper's Fig 3 ordering, per cell: SCD beats JSQ and WR on mean
    # response time.
    cells = {}
    for i, run in enumerate(runs):
        cells.setdefault(run["rep"], {})[run["policy"]] = i
    for cell in cells.values():
        if len(cell) != 3 or any(runs[i]["error"] for i in cell.values()):
            continue
        rt = {p: runs[i]["mean_response"] for p, i in cell.items()}
        if not (rt["SCD"] < rt["JSQ"] and rt["SCD"] < rt["WR"]):
            fail(cell["SCD"], f"SCD does not beat JSQ and WR on mean response: {rt}")
    return failed, reasons


def end_to_end_metrics(raw, failed, attempted):
    # Every cell of a run repeats identical work on identical inputs (the
    # checks hold the reports equal), so the fastest repetition is the
    # estimate of its cost and the rest is interference from other load on
    # the host. On a shared 2-CPU host the minimum's run-to-run spread was
    # about half the median's.
    per_policy = {}
    for run in raw["runs"]:
        if not run["error"]:
            per_policy.setdefault(run["policy"], []).append(
                run["seconds"] * 1e6 / run["rounds"])
    values = {f"{p.lower()}.us_per_round": min(xs) for p, xs in per_policy.items()}
    if raw["cell_s"]:
        values["total_s"] = min(raw["cell_s"])
    if raw["setup_s"]:
        values["setup_s"] = min(raw["setup_s"])
    values["peak_rss_mib"] = max(raw["own_rss_mib"], raw["workers_rss_mib"])
    values["ok_run_frac"] = 1.0 - failed / attempted
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        definition = json.load(f)
    workload = design["workloads"].get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}")
        return 2

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    binary = os.path.join(target_dir, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--worker", os.path.join(target_dir, "release", "shard_worker")]
    pin = None
    if workload["params"]["mode"] == "in-process":
        # One thread: keep it on one CPU, so the scheduler does not migrate
        # it (and its cache state) between CPUs mid-run. The fabric's
        # workers need every CPU and are left unpinned.
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          preexec_fn=pin)
    if code != 0:
        log(f"perfbench exited with {code}")
        return 1
    raw = json.loads(out.strip().splitlines()[-1])
    if raw["params"] != workload["params"]:
        log("the binary's workload parameters differ from design.json:",
            raw["params"], workload["params"])
        return 1

    fabric = workload["params"]["mode"] == "fabric"
    failed_runs, reasons = check_runs(raw["runs"], workload["reference_mean_response"], fabric)
    attempted = len(raw["runs"])
    failed = len(failed_runs)
    if raw.get("setup_error"):
        reasons.append("set-up failed: " + raw["setup_error"])
        attempted += 1
        failed += 1
    if args.trace:
        for check in raw["checks"]:
            attempted += 1
            if not check["ok"]:
                failed += 1
                reasons.append(f"{check['name']}: {check['detail']}")
        values = raw["metrics"]
        wanted = definition["per_layer"]
    else:
        values = end_to_end_metrics(raw, failed, attempted)
        wanted = definition["end_to_end"]
    for reason in reasons:
        log("check failed:", reason)

    metrics = {}
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for m in wanted:
        if m["name"] not in values:
            log(f"metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<40} {values[m['name']]:>16.6f} {m['unit']}")
    print(f"  {'failed_run_frac':<40} {failed / attempted:>16.6f} ratio"
          f"  ({failed} of {attempted})")
    if args.trace:
        print(f"  spans written to {raw['spans_file']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            TypeError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
