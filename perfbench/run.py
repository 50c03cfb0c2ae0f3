"""qbs-sim benchmark: one workload's CLI commands, end to end or per layer.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and measures the program in its ``src``.
With ``--trace 0`` it reports the end-to-end metrics from PROCESSES fresh
processes run one after another, each timing its set-up and its first (cold)
operation and then warm operations for a share of ``--seconds``; spreading
the cold samples over the whole run lets them see the same machine
conditions as the warm ones.  After each of them SETUP_ONLY more fresh
processes time only their set-up.  With ``--trace 1`` it reports the
per-layer metrics from a separate traced process.  Every operation is gated
for correctness.  A summary goes to stdout, the full record (environment,
samples, failures) to ``perfbench/out/``, and the last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Exits 2
without a result if the program cannot be run, or if a traced function is
missing from it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: end-to-end metrics in the result line with --trace 0: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s.tail", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
#: end-to-end metrics only printed and recorded: on this machine their
#: run-to-run spread exceeds the largest bound a gated metric may have
#: (see README.md), or they can read 0
REPORTED = (
    ("op_s.cold", "s"),
    ("op_s.p50", "s"),
    ("points_per_s", "1/s"),
    ("shots_per_s", "1/s"),
    ("fail_frac", "frac"),
)
#: fresh processes per run, one after another
PROCESSES = 6
#: set-up-only processes after each of them, for more set-up samples
SETUP_ONLY = 3
#: a run gives up, without a result, after this long
RUN_LIMIT_S = 170.0
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QBS_SIM_THREADS", None)  # the program's own default decides
    return env


def spawn(args, deadline: float, mode: str, seconds: float, *flags: str) -> tuple[float, dict]:
    """Run one worker process; returns (spawn time, its report)."""
    cmd = [mode, args.workload, str(args.seed), str(seconds), *flags]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time after {RUN_LIMIT_S:g} s")
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, WORKER, *cmd], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(cmd)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(cmd)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return t_spawn, json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and which
    percentile that is (the maximum if there are too few samples)."""
    ranked = sorted(times)
    k = len(ranked) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ranked) - 1
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def end_to_end(args, deadline, op) -> tuple[dict, dict]:
    runs, setup_runs = [], []
    for _ in range(PROCESSES):
        runs.append(spawn(args, deadline, "measure", args.seconds / PROCESSES))
        setup_runs += [spawn(args, deadline, "setup", 0) for _ in range(SETUP_ONLY)]
    setups = [r["ready"] - t for t, r in runs + setup_runs]
    reports = [r for _, r in runs]
    times = [t for r in reports for t in r["op_s"]]
    tail_s, tail_pct = tail(times)
    # the same seed must give byte-identical output in every process
    mismatched = sum(1 for r in reports if r["digest"] != reports[0]["digest"])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(len(r["failures"]) for r in reports) + mismatched
    colds = [r["cold_s"] for r in reports]
    busy = sum(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.tail": tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reports) / 1024.0,
        "op_s.cold": statistics.median(colds),
        "op_s.p50": statistics.median(times),
        "points_per_s": op.points * len(times) / busy,
        "shots_per_s": op.shots * len(times) / busy if op.shots else None,
        "fail_frac": failed / attempted,
    }
    extra = {
        "samples": len(times),
        "tail_percentile": tail_pct,
        "processes": PROCESSES,
        "numpy": reports[0]["numpy"],
        "setup_samples": setups,
        "cold_samples": colds,
        "op_s": times,
        "failures": [f for r in reports for f in r["failures"]]
        + ["payload differs between processes"] * mismatched,
    }
    return metrics, {"attempted": attempted, "failed": failed, **extra}


def per_layer(args, deadline) -> tuple[dict, dict]:
    _, rep = spawn(args, deadline, "traced", args.seconds)
    failed = len(rep["failures"])
    metrics = {**rep["metrics"], "fail_frac": failed / rep["attempted"]}
    extra = {"attempted": rep["attempted"], "failed": failed, "numpy": rep["numpy"],
             "samples": len(rep["traced_op_s"]), "spans": rep["spans"],
             "spans_file": rep["spans_file"], "missing": rep["missing"],
             "op_s": rep["op_s"], "traced_op_s": rep["traced_op_s"],
             "failures": rep["failures"]}
    return metrics, extra


def print_summary(args, op, env, metrics, extra, specs):
    print(f"qbs-sim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"environment: {json.dumps({**env, 'numpy': extra['numpy']})}")
    print(f"command: qbs-sim {' '.join(op.argv)}")
    for name, unit, *_ in specs + REPORTED:
        if name.rsplit(".", 1)[0] in extra.get("missing", ()):
            print(f"  {name:46s} {'missing':>14s}")
        elif metrics.get(name) is not None:
            print(f"  {name:46s} {metrics[name]:14.6g} {unit}")
    if args.trace == 0:
        print(f"  op_s.tail is p{extra['tail_percentile']:.1f} of "
              f"{extra['samples']} warm operations; setup_s is the median of "
              f"{len(extra['setup_samples'])} fresh processes, peak_rss_mb and "
              f"op_s.cold of {extra['processes']}")
    if extra.get("missing"):
        print(f"  not traced, missing from the program: {', '.join(extra['missing'])}")
    print(f"  {extra['failed']} of {extra['attempted']} operations failed")
    for failure in extra["failures"][:5]:
        print(f"  failure: {failure}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny problem sizes, for the smoke test")
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qbs_sim", "cli.py")):
        print(f"error: no qbs_sim sources under {ROOT}/src", file=sys.stderr)
        return 2
    op = WORKLOADS[args.workload](args.seed, args.tiny)
    env = environment()
    try:
        if args.trace == 0:
            metrics, extra = end_to_end(args, deadline, op)
            specs = END_TO_END
        else:
            metrics, extra = per_layer(args, deadline)
            specs = PER_LAYER
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
                   "argv": op.argv, "environment": env, "metrics": metrics,
                   **extra}, fh, indent=1)
    print_summary(args, op, env, metrics, extra, specs)
    if extra.get("missing"):
        print("error: the traced functions above are missing from the program; "
              "update TARGETS in perfbench/tracer.py", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": extra["failed"] == 0,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
