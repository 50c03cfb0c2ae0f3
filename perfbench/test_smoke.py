"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, bell_s, closed_form_ia  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "bell-scan", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_gate_skips_diagnostics_and_catches_wrong_values():
    op = WORKLOADS["exact-sweep"](3, True)
    theta, alpha, n_theta, n_alpha = op.argv[2], op.argv[4], 5, 3
    t0, t1 = (float(x) for x in theta.split(":")[:2])
    rows = [(t0 + (t1 - t0) * i / (n_theta - 1), 90.0 * j / (n_alpha - 1))
            for i in range(n_theta) for j in range(n_alpha)]
    assert alpha == "0:90:3"
    csv = "theta_rad,alpha_deg,probability\n" + "".join(
        f"{t!r},{a!r},{closed_form_ia(t, a)!r}\n" for t, a in rows)
    assert op.check(csv) is None
    assert op.check("seed: 1\n" + csv + "points: 15  min: 0  max: 1\n") is None
    assert op.check(csv.replace(",0.5\n", ",0.5000001\n", 1)) is not None
    assert op.check(csv.rsplit("\n", 2)[0] + "\n") is not None


@pytest.mark.parametrize("text", [
    "seed: 1\nV_HV = 0.98 +/- 0.01\nS = 2.7793 +/- 0.0050  (155.0 sigma above 2)\n",
    '{"V_HV": 0.98, "S": 2.7793, "S_err": 0.005}',
    "V_HV,V_DA,S,S_err\n0.98,0.97,2.7793,0.005\n",
])
def test_bell_gate_reads_text_json_and_csv(text):
    assert bell_s(text) == 2.7793
    assert WORKLOADS["bell-scan"](1, True).check(text) is None
    assert WORKLOADS["bell-scan"](1, True).check(text.replace("2.7793", "1.9")) is not None


def test_tracer_names_targets_the_program_lacks(monkeypatch):
    import tracer
    sys.path.insert(0, os.path.join(ROOT, "src"))
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("states.gone", "states", "no_such_function", None),
        # StateError only inherits __init__
        ("states.error_init", "states", "StateError.__init__", None),
    ))
    monkeypatch.setattr(tracer, "SPAN_NAMES",
                        tracer.SPAN_NAMES + ("states.gone", "states.error_init"))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == {"states.gone", "states.error_init"}
