"""One benchmark process: imports the qbs-sim CLI from the checkout's ``src``,
runs one workload's CLI commands in-process through ``qbs_sim.cli.main``
with stdout captured, gates every result, and prints a JSON report as its
last stdout line.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS [--tiny]

MODE ``setup`` only reports when this fresh process finished its set-up.
MODE ``measure`` also times the first (cold) operation, then warm operations
for SECONDS and at least one of them.  MODE ``traced`` runs one untimed
operation, then untraced and traced operations alternating for SECONDS,
summarises the spans and writes them to ``perfbench/out/WORKLOAD-spans.npz``.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Set-up as every CLI call pays it: import the CLI and build its parser.
from qbs_sim import cli  # noqa: E402

cli.build_parser()
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a traced loop measures at least this many operations of each kind
MIN_TRACED = 3
#: no loop runs longer than this, however slow the operations are
HARD_LIMIT_S = 120.0


def run_cli(argv, tracer=None):
    """One CLI command; returns (exit code, seconds, stdout bytes, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        root = tracer.open(0) if tracer is not None else None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, not a lost run
                code = "exception: " + traceback.format_exc(limit=-1).strip()
        if root is not None:
            tracer.close(root)
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return code, elapsed, out.detach().getvalue(), err.detach().getvalue()


class Runner:
    def __init__(self, op):
        self.op = op
        self.attempted = 0
        self.failures = []
        self.digest = None

    def attempt(self, tracer=None) -> float:
        code, elapsed, payload, stderr = run_cli(self.op.argv, tracer)
        self.attempted += 1
        digest = hashlib.sha256(payload).hexdigest()
        if self.digest is None:
            self.digest = digest
        if code != 0:
            failure = f"exit code {code}: {stderr.decode('utf-8', 'replace')[-500:]}"
        elif digest != self.digest:
            failure = "payload differs from the first operation's"
        else:
            failure = self.op.check(payload.decode("utf-8", "replace"))
        if failure:
            self.failures.append(failure)
        return elapsed

    def report(self, **extra) -> dict:
        return {"attempted": self.attempted, "failures": self.failures,
                "digest": self.digest, "numpy": np.__version__, **extra}


def loop(seconds, min_ops, body):
    """Call body() until ``seconds`` have passed and min_ops() is true."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and min_ops()):
            return
        body()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure", "traced"))
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "qbs_sim"):
        sys.exit(f"qbs_sim imported from {cli.__file__}, not from {SRC}")
    if args.mode == "setup":
        sys.stdout.write(json.dumps({"ready": READY}) + "\n")
        return
    runner = Runner(WORKLOADS[args.workload](args.seed, args.tiny))

    if args.mode == "measure":
        cold = runner.attempt()
        times = []
        loop(args.seconds, lambda: len(times) >= 1,
             lambda: times.append(runner.attempt()))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report = runner.report(ready=READY, cold_s=cold, op_s=times,
                               peak_rss_kb=rss_kb)
    else:
        runner.attempt()
        tracer = Tracer()
        plain, traced = [], []

        def pair():
            plain.append(runner.attempt())
            tracer.current_op = len(traced)
            traced.append(runner.attempt(tracer))

        loop(args.seconds, lambda: len(traced) >= MIN_TRACED, pair)
        overhead = float(np.median(traced) / np.median(plain) - 1.0)
        metrics = layer_metrics(tracer.per_op(len(traced)), overhead)
        spans = os.path.join(HERE, "out", f"{args.workload}-spans.npz")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.save(spans)
        report = runner.report(op_s=plain, traced_op_s=traced, metrics=metrics,
                               spans=len(tracer.start),
                               spans_file=os.path.relpath(spans, ROOT),
                               missing=sorted(tracer.missing))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
