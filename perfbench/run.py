#!/usr/bin/env python3
"""End-to-end benchmark of the S2TA cluster simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the worker (`perfbench/src/main.rs`, a package of its own) in
release mode, then starts it once per run until `--seconds` are used up.
Each worker process generates the seeded request stream, builds the
cluster, calls `Cluster::serve` once, checks the simulated outputs and
reports host time, CPU time, peak memory and the times of two fixed
host-speed probes. This script scales host times by the probes, takes
medians over the runs and prints, as its last stdout line, one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of untraced runs.
With `--trace 1` traced and untraced runs alternate; the metrics are the
per-layer breakdown of the traced runs plus the tracing overhead.
`attempted` counts offered requests over all runs; `failed` counts the
offered requests of runs that failed a check or crashed. If no run
passes its checks, it exits 1 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("day_pooled", "day_p2c", "fresh_inputs", "chaos")
# Longest a single worker process may take before it counts as failed.
WORKER_TIMEOUT_S = 150
# The probes' median times in seconds on the reference host (2-vCPU
# Intel Xeon at 2.1 GHz). Host times are scaled by each run's probe times
# against them, so a run on a host slowed by other tenants is not read as
# a slower simulator (see README.md).
CHASE_REF_S = 0.022
DRAWS_REF_S = 0.003


def units(section):
    """{name: unit} of one metric section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def build():
    """Builds the worker; returns its path, or None if the build failed."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    path = os.path.join(target, "release", "s2ta-perfbench")
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_json(cmd, pinned):
    """Runs one worker process; returns its last stdout line as a dict, or None."""
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            preexec_fn=pin_to_one_cpu if pinned else None,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out: {cmd}", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: worker failed ({done.returncode}): {cmd}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"perfbench: unreadable worker output: {lines[-1]!r}", file=sys.stderr)
        return None


def commit():
    """The checked-out commit, or None outside a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def passed(rep):
    return rep is not None and not rep["errors"]


def speed(r):
    """Cache-bound host speed of one run relative to the reference host."""
    return CHASE_REF_S / r["chase_s"]


def setup_speed(r):
    """Compute-bound host speed of one run relative to the reference host."""
    return DRAWS_REF_S / r["draws_s"]


def end_to_end(reps, attempted):
    """End-to-end metrics of the runs that passed; None if none did."""
    ok = [r for r in reps if passed(r)]
    if not ok:
        return None
    med = lambda f: statistics.median(f(r) for r in ok)
    return {
        "sim_ips": med(lambda r: r["sim_ips"] / speed(r)),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "setup_s": med(lambda r: r["setup_s"] * setup_speed(r)),
        "served_frac": sum(r["served"] for r in ok) / attempted,
    }


def per_layer(traced, untraced):
    """Per-layer metrics from the traced run with the median throughput."""
    traced = [r for r in traced if passed(r)]
    untraced = [r for r in untraced if passed(r)]
    if not traced or not untraced:
        return None
    r = sorted(traced, key=lambda x: x["sim_ips"])[(len(traced) - 1) // 2]
    advance, execute = r["advance_s"], r["batch_execute_s"]
    attributed = r["setup_total_s"] + advance + r["assemble_s"] + r["check_s"]
    untraced_ips = statistics.median(x["sim_ips"] for x in untraced)
    traced_ips = statistics.median(x["sim_ips"] for x in traced)
    return {
        "workload.generate_s": r["generate_s"],
        "workload.stream_mb": r["stream_mb"],
        "cluster.build_s": r["build_s"],
        "cluster.advance_cpu_s": advance,
        "cluster.engine_self_cpu_s": advance - execute,
        "cluster.idle_worker_s": r["workers"] * r["serve_s"] - r["serve_cpu_s"],
        "cluster.max_shard_share": r["max_shard_share"],
        "cluster.failovers": r["failovers"],
        "fleet.batch_execute_cpu_s": execute,
        "fleet.batches": r["batches"],
        "fleet.mean_batch_size": r["mean_batch_size"],
        "fleet.us_per_batch": execute * 1e6 / max(r["batches"], 1),
        "cache.weight_hits": r["weight_hits"],
        "cache.weight_misses": r["weight_misses"],
        "cache.weight_evictions": r["weight_evictions"],
        "cache.act_hits": r["act_hits"],
        "cache.act_misses": r["act_misses"],
        "cache.act_evictions": r["act_evictions"],
        "cache.act_hit_ratio": r["act_hit_ratio"],
        "sim.cycles": r["cycles"],
        "sim.macs_active": r["macs_active"],
        "sim.macs_gated": r["macs_gated"],
        "sim.macs_idle": r["macs_idle"],
        "sim.dap_comparisons": r["dap_comparisons"],
        "sim.sram_bytes": r["sram_bytes"],
        "sim.p50_cycles": r["p50_cycles"],
        "sim.p99_cycles": r["p99_cycles"],
        "sim.makespan_cycles": r["makespan_cycles"],
        "sim.host_ns_per_mac": execute * 1e9 / max(r["macs_issued"], 1),
        "energy.uj_per_inf": r["uj_per_inf"],
        "report.assemble_s": r["assemble_s"],
        "report.bytes_per_request": r["peak_rss_mb"] * 1048576 / r["offered"],
        "fault.crashes": r["crashes"],
        "fault.retries": r["retries"],
        "fault.shed": r["shed"],
        "fault.failed": r["fault_failed"],
        "fault.availability": r["availability"],
        "host.workers": r["workers"],
        "host.nproc": r["nproc"],
        "host.cpu_s": r["cpu_s"],
        "host.cpu_util": r["cpu_s"] / (r["wall_s"] * r["workers"]),
        "host.speed": speed(r),
        "host.setup_speed": setup_speed(r),
        "host.attributed_cpu_share": attributed / max(r["cpu_s"], 1e-9),
        "host.parallel_sim_ips": untraced_ips,
        "trace.overhead_frac": 1.0 - traced_ips / untraced_ips,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0, help="override the workload size")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1

    # Runs continue while the next one is expected to fit in --seconds.
    # Traced mode alternates untraced and traced runs, at least one each.
    # Untraced runs are pinned to one CPU (see README.md).
    pinned = args.trace == 0
    deadline = time.monotonic() + args.seconds
    reps, traced, untraced, durations = [], [], [], []
    while True:
        trace_this = args.trace == 1 and len(reps) % 2 == 1
        t0 = time.monotonic()
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
        cmd += ["--requests", str(args.requests)] if args.requests else []
        cmd += ["--trace"] if trace_this else []
        rep = run_json(cmd, pinned)
        durations.append(time.monotonic() - t0)
        reps.append(rep)
        (traced if trace_this else untraced).append(rep)
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and time.monotonic() + statistics.median(durations) > deadline:
            break

    digests = {r["digest"] for r in reps if r is not None}
    correct = all(passed(r) for r in reps) and len(digests) == 1
    first = next((r for r in reps if r is not None), {})
    offered = first.get("offered", args.requests or 1)
    attempted = offered * len(reps)
    failed = sum(offered for r in reps if not passed(r))
    for r in reps:
        if r is not None and r["errors"]:
            print(f"perfbench: check failed: {r['errors']}", file=sys.stderr)

    if args.trace:
        values, unit = per_layer(traced, untraced), units("per_layer")
    else:
        values, unit = end_to_end(reps, attempted), units("end_to_end")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": offered,
        "runs": len(reps),
        "workers": first.get("workers"),
        "pinned_to_one_cpu": pinned,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "digest": sorted(digests),
        "raw_sim_ips": [r["sim_ips"] for r in reps if r is not None],
        "host_speed": [speed(r) for r in reps if r is not None],
        "host_setup_speed": [setup_speed(r) for r in reps if r is not None],
    }
    print(json.dumps({"context": context}))
    if values is None:
        print("perfbench: no run passed its checks; no result", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
