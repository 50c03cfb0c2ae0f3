import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from qbs_sim import analysis, cli
from qbs_sim import elements as el
from qbs_sim import experiment as qdc
from qbs_sim import montecarlo as mc
from qbs_sim.states import TwoPhotonState, fidelity


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(capsys, *argv):
    """Bad input exits 1 with one ``error:`` line and no payload."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


WINDOW_FIELDS = ("shots", "valid", "discarded_zero", "discarded_multi")


def window_counts(err):
    """The summed window counts a sampled command prints to stderr."""
    line = next(l for l in err.splitlines() if l.startswith("shots: "))
    words = line.split()
    assert [w.rstrip(":") for w in words[::2]] == list(WINDOW_FIELDS)
    return {w.rstrip(":"): int(n) for w, n in zip(words[::2], words[1::2])}


def summed(tables):
    return {name: sum(getattr(t, name) for t in tables) for name in WINDOW_FIELDS}


class TestParseGrid:
    def test_inclusive_endpoints(self):
        g = cli.parse_grid("0:6.283185307179586:25")
        assert len(g) == 25
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(2 * math.pi)

    def test_single_point(self):
        assert list(cli.parse_grid("1.5:1.5:1")) == [1.5]

    def test_single_step_mismatch_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_grid("0:1:1")

    def test_malformed_rejected(self):
        # the last two span more than a float holds, so every step is inf or nan
        for bad in ("0:1", "a:b:c", "0:1:0", "1:2:-3", "-1e308:1e308:3", "1.7e308:-1.7e308:2"):
            with pytest.raises(cli.UsageError):
                cli.parse_grid(bad)

    def test_widest_finite_span_accepted(self):
        assert cli.parse_grid("-8e307:8e307:3") == [-8e307, 0.0, 8e307]

    @pytest.mark.parametrize("axis", ["--theta", "--alpha"])
    @pytest.mark.parametrize("sampled", [[], ["--shots", "1000", "--seed", "1"]])
    def test_overflowing_grid_exits_1(self, capsys, axis, sampled):
        err = assert_usage_error(capsys, "sweep", f"{axis}=-1e308:1e308:3", *sampled)
        assert "spans more than a float" in err

    @pytest.mark.parametrize("spec", [
        "0:6.283185307179586:25", "0:90:13", "0:90:17", "0:6.283185307179586:17",
        "0:6.283185307179586:16", "0:90:10", "-1:9.7:31", "-30:135:23", "2.5:2.5:4",
        "0:1:2",
    ] + [f"{t!r}:{t + 2 * math.pi!r}:41"
         for t in (random.Random(seed).uniform(0.0, 2 * math.pi) for seed in range(1, 9))])
    def test_bit_identical_to_numpy_linspace(self, spec):
        start, stop, steps = spec.split(":")
        expected = np.linspace(float(start), float(stop), int(steps)).tolist()
        assert cli.parse_grid(spec) == expected


class TestGridCap:
    """Grids above ``MAX_GRID_POINTS`` exit 1 before any grid is built."""

    @pytest.fixture(autouse=True)
    def nothing_large_built(self, monkeypatch):
        # an axis is built only within the cap, and no surface at all
        def axis(start, stop, steps, _linspace=cli.linspace):
            assert steps <= cli.MAX_GRID_POINTS, "an axis above the cap was built"
            return _linspace(start, stop, steps)

        def fail(*args, **kwargs):
            pytest.fail("a surface was built")

        monkeypatch.setattr(cli, "linspace", axis)
        monkeypatch.setattr(qdc, "surface", fail)
        monkeypatch.setattr(mc, "run_grid", fail)

    def test_cap_admits_the_largest_documented_grid(self):
        assert 1001 * 451 <= cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("axis", ["--theta", "--alpha"])
    def test_first_rejected_axis(self, capsys, axis):
        err = assert_usage_error(capsys, "sweep", axis, f"0:1:{cli.MAX_GRID_POINTS + 1}")
        assert f"more than {cli.MAX_GRID_POINTS}" in err
        assert_usage_error(capsys, "sweep", axis, f"0:1:{2**63}")

    @pytest.mark.parametrize("sampled", [[], ["--shots", "1000000000", "--seed", "1"]])
    def test_first_rejected_product(self, capsys, sampled):
        # 101 x 9901 = MAX_GRID_POINTS + 1; only the two axes are built
        assert 101 * 9901 == cli.MAX_GRID_POINTS + 1
        err = assert_usage_error(capsys, "sweep", "--theta", "0:1:101",
                                 "--alpha", "0:90:9901", *sampled)
        assert f"101 x 9901 points, more than {cli.MAX_GRID_POINTS}" in err

    def test_first_rejected_verify_grid(self, capsys, monkeypatch):
        # 1414 x 707 points fit, 1415 x 707 do not
        monkeypatch.setattr(cli, "linspace", lambda *args: pytest.fail("a grid was built"))
        assert 1414 * 707 <= cli.MAX_GRID_POINTS < 1415 * 707
        err = assert_usage_error(capsys, "verify", "--grid", "1415")
        assert f"more than {cli.MAX_GRID_POINTS}" in err
        assert_usage_error(capsys, "verify", "--grid", str(2**63))


class TestSweep:
    def test_default_analytic_grid(self, capsys, tmp_path):
        out_file = tmp_path / "surface.csv"
        code, _, err = run_cli(capsys, "sweep", "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "theta_rad,alpha_deg,probability"
        assert len(lines) == 1 + 25 * 13
        # alpha = 0 rows are the flat particle scan
        for line in lines[1:]:
            theta, alpha, p = line.split(",")
            if float(alpha) == 0.0:
                assert float(p) == pytest.approx(0.5, abs=1e-12)
        assert "points: 325" in err

    def test_single_point_wave_peak(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--theta", "0:0:1", "--alpha", "90:90:1"
        )
        assert code == 0
        row = out.splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--theta", "0:0:1", "--alpha", "0:90:3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out[: out.rindex("]") + 1])
        assert len(payload) == 3
        assert payload[0]["alpha_deg"] == 0.0

    def test_json_stdout_is_only_the_payload(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--theta", "0:1:2", "--alpha", "0:90:3", "--format", "json",
            "--shots", "600", "--seed", "5",
        )
        assert code == 0
        assert len(json.loads(out)) == 6
        assert "seed: 5" in err and "points: 6" in err

    def test_sampled_csv_stdout_is_only_the_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--theta", "0:1:3", "--alpha", "0:90:2",
            "--shots", "6000", "--seed", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 6
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines)

    @pytest.mark.parametrize("flag,value", [
        ("--efficiency", "1.5"), ("--efficiency", "-0.1"), ("--dark", "2"),
    ])
    def test_probability_outside_unit_interval_exits_1(self, capsys, flag, value):
        assert_usage_error(capsys, "sweep", "--theta", "0:0:1", "--alpha", "0:0:1",
                           "--shots", "100", flag, value)

    def test_nan_grid_endpoint_exits_1(self, capsys):
        assert_usage_error(capsys, "sweep", "--theta", "nan:1:2")

    def test_infinite_dark_probability_exits_1(self, capsys):
        assert_usage_error(capsys, "sweep", "--theta", "0:0:1", "--alpha", "0:0:1",
                           "--shots", "100", "--dark", "inf")

    def test_fewer_shots_than_grid_points_exits_1(self, capsys):
        assert_usage_error(capsys, "sweep", "--theta", "0:1:5", "--alpha", "0:90:3",
                           "--shots", "14")

    @pytest.mark.parametrize("seed", [["--seed", "1"], []])
    def test_shots_beyond_int64_per_point_exit_1(self, capsys, monkeypatch, seed):
        # rejected before a fresh seed is drawn
        import secrets

        monkeypatch.setattr(secrets, "randbits", lambda k: pytest.fail("seed drawn"))
        err = assert_usage_error(capsys, "sweep", "--theta", "0:1:2", "--alpha", "0:90:2",
                                 "--shots", "100000000000000000000000", *seed)
        assert "windows per point" in err
        assert_usage_error(capsys, "sweep", "--theta", "0:0:1", "--alpha", "0:0:1",
                           "--shots", str(2**63), *seed)

    def test_int64_shots_per_point_accepted(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--theta", "0:0:1", "--alpha", "0:0:1",
                                 "--shots", str(2**63 - 1), "--seed", "1")
        assert code == 0
        assert window_counts(err)["shots"] == 2**63 - 1

    def test_unwritable_dump_state_exits_1(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "sweep", "--theta", "0:0:1", "--alpha", "0:0:1",
            "--dump-state", str(tmp_path / "missing" / "state.json"),
        )
        assert code == 1
        assert out == ""  # fails before the payload is written
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [("--efficiency", "2"), ("--dark", "nan")])
    def test_analytic_sweep_checks_detection_flags(self, capsys, flag, value):
        assert_usage_error(capsys, "sweep", "--theta", "0:0:1", "--alpha", "0:0:1",
                           flag, value)

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "3"), ("--efficiency", "0.5"), ("--dark", "0.01"),
    ])
    def test_analytic_sweep_rejects_valid_detection_flags(self, capsys, flag, value):
        err = assert_usage_error(capsys, "sweep", "--theta", "0:1:2", "--alpha", "0:90:2",
                                 flag, value)
        assert f"{flag} needs --shots" in err

    def test_negative_seed_exits_1(self, capsys):
        assert_usage_error(capsys, "sweep", "--shots", "1000", "--seed", "-5",
                           "--theta", "0:1:2", "--alpha", "0:90:2")

    def test_sampled_sweep_reports_window_counts(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--theta", "0:1:3", "--alpha", "0:90:2",
            "--shots", "6000", "--seed", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta_rad,alpha_deg,estimate,stderr" and len(lines) == 7
        tables = mc.run_grid(qdc.ExperimentSettings(), mc.DetectionModel(seed=5),
                             cli.parse_grid("0:1:3"), cli.parse_grid("0:90:2"), 1000)
        counts = window_counts(err)
        assert counts == summed(tables)
        assert counts["shots"] == 6000
        assert counts["valid"] + counts["discarded_zero"] + counts["discarded_multi"] == 6000

    def test_dump_state_of_mixture_exits_1_before_any_output(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        assert_usage_error(capsys, "sweep", "--input", qdc.INPUT_MIXTURE,
                           "--dump-state", str(state_file))
        assert not state_file.exists()

    def test_fresh_seed_is_reported_and_reproduces(self, capsys):
        # ideal detectors, so no point lacks conditioned counts whatever the seed
        argv = ["sweep", "--shots", "3000", "--efficiency", "1", "--dark", "0",
                "--theta", "0:6.28:5", "--alpha", "0:90:3"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        seed = int(next(l for l in err.splitlines() if l.startswith("seed: ")).split()[1])
        assert 0 <= seed < 2**63
        assert run_cli(capsys, *argv, "--seed", str(seed))[:2] == (0, out)

    def test_invalid_grid_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--theta", "nonsense")
        assert code == 1
        assert "error:" in err

    def test_sampled_sweep_reproducible(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "sweep", "--theta", "0:6.283185307179586:5", "--alpha", "45:45:1",
            "--shots", "50000", "--seed", "7",
        ]
        code1, _, _ = run_cli(capsys, *argv, "--output", str(f1))
        code2, _, _ = run_cli(capsys, *argv, "--output", str(f2))
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()
        lines = f1.read_text().splitlines()
        assert lines[0] == "theta_rad,alpha_deg,estimate,stderr"
        assert len(lines) == 6

    def test_sampled_values_track_analytic(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--theta", "0:6.283185307179586:5", "--alpha", "90:90:1",
            "--shots", "250000", "--seed", "3", "--efficiency", "1.0",
            "--dark", "0.0", "--output", str(out_file),
        )
        assert code == 0
        for line in out_file.read_text().splitlines()[1:]:
            theta, alpha, est, err = (float(x) for x in line.split(","))
            exact = qdc.closed_form_ia(theta, alpha)
            assert abs(est - exact) < max(4 * err, 1e-9)

    def test_mixture_da_sweep_is_alpha_independent(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--theta", "1.0:1.0:1", "--alpha", "0:90:5",
            "--input", qdc.INPUT_MIXTURE, "--basis", "da",
            "--output", str(out_file),
        )
        assert code == 0
        values = [
            float(line.split(",")[2])
            for line in out_file.read_text().splitlines()[1:]
        ]
        expected = 0.25 + 0.5 * math.cos(0.5) ** 2
        for v in values:
            assert v == pytest.approx(expected, abs=1e-12)

    def test_dump_state(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--theta", "0.7:0.7:1", "--alpha", "30:30:1",
            "--dump-state", str(state_file),
        )
        assert code == 0
        dumped = TwoPhotonState(reference.parse_dump(state_file.read_text()))
        [(_, expected)] = qdc.build_qdc_state(qdc.ExperimentSettings(), 0.7, 30.0)
        assert fidelity(dumped, expected) > 1 - 1e-12


class TestBell:
    def test_small_run_prints_summary(self, capsys):
        code, out, err = run_cli(
            capsys,
            "bell", "--shots", "60000", "--seed", "11",
            "--efficiency", "1.0", "--dark", "0.0",
        )
        assert code == 0
        assert "V_HV" in out and "V_DA" in out and "S =" in out
        s_line = next(l for l in out.splitlines() if l.startswith("S ="))
        s_value = float(s_line.split()[2])
        assert s_value > 2.6
        assert "seed: 11" in err and "seed" not in out

    def test_output_file_gets_the_summary(self, capsys, tmp_path):
        out_file = tmp_path / "bell.txt"
        code, out, _ = run_cli(
            capsys,
            "bell", "--shots", "1000000", "--seed", "11", "--output", str(out_file),
        )
        assert code == 0
        assert out == ""
        assert any(l.startswith("S = ") for l in out_file.read_text().splitlines())

    def test_invalid_efficiency_exits_1(self, capsys):
        assert_usage_error(capsys, "bell", "--shots", "60000", "--efficiency", "2")

    def test_fewer_shots_than_scan_points_exits_1(self, capsys):
        assert_usage_error(capsys, "bell", "--shots", "33")

    @pytest.mark.parametrize("seed", [["--seed", "1"], []])
    def test_shots_beyond_int64_per_point_exit_1(self, capsys, monkeypatch, seed):
        import secrets

        monkeypatch.setattr(secrets, "randbits", lambda k: pytest.fail("seed drawn"))
        for shots in ("100000000000000000000000", str(2 * cli.BELL_SCAN_POINTS * 2**63)):
            err = assert_usage_error(capsys, "bell", "--shots", shots, *seed)
            assert "windows per point" in err

    def test_format_flag_removed(self, capsys):
        assert_usage_error(capsys, "bell", "--format", "csv")

    def test_negative_seed_exits_1(self, capsys):
        assert_usage_error(capsys, "bell", "--shots", "1000", "--seed", "-3")

    def test_fit_failure_exits_2(self, capsys):
        # no detector ever clicks, so the scan has no conditioned counts
        code, out, err = run_cli(capsys, "bell", "--efficiency", "0", "--seed", "1",
                                 "--shots", "1000")
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == "failure: no conditioned counts at theta=0.0, alpha=90.0"

    @staticmethod
    def scan_tables(seed, shots):
        """The count tables of both ``bell`` scans: the HV scan on stream 0,
        the DA scan on stream 1."""
        thetas = np.linspace(0.0, 2.0 * math.pi, cli.BELL_SCAN_POINTS)
        model = mc.DetectionModel(seed=seed)
        per_point = shots // (2 * cli.BELL_SCAN_POINTS)
        return [
            table
            for stream, (basis, alpha) in enumerate(((qdc.BASIS_HV, 90.0),
                                                     (qdc.BASIS_DA, 45.0)))
            for table in mc.run_grid(qdc.ExperimentSettings(basis=basis), model, thetas,
                                     [alpha], per_point, stream=stream)
        ]

    def test_reports_window_counts(self, capsys):
        code, out, err = run_cli(capsys, "bell", "--shots", "1000000", "--seed", "11")
        assert code == 0
        assert [l.split()[0] for l in out.splitlines()] == ["V_HV", "V_DA", "S"]
        counts = window_counts(err)
        per_point = 1000000 // (2 * cli.BELL_SCAN_POINTS)
        assert counts["shots"] == per_point * 2 * cli.BELL_SCAN_POINTS
        assert counts["valid"] + counts["discarded_zero"] + counts["discarded_multi"] \
            == counts["shots"]
        assert counts == summed(self.scan_tables(11, 1000000))

    @pytest.mark.parametrize("shots,seed,failure", [
        (34, 1, "no conditioned counts at theta=0.0, alpha=90.0"),
        (100000, 3, "visibility 1.0196 exceeds 1 beyond 3 sigma"),
    ])
    def test_fit_failure_still_reports_window_counts(self, capsys, shots, seed, failure):
        # both scans are drawn and their windows reported before either fit
        code, out, err = run_cli(capsys, "bell", "--shots", str(shots), "--seed", str(seed))
        assert code == 2 and out == ""
        assert err.splitlines()[0] == f"seed: {seed}"
        assert err.splitlines()[-1] == f"failure: {failure}"
        assert window_counts(err) == summed(self.scan_tables(seed, shots))


class TestSampledGrid:
    """The batched sampled commands against their output rebuilt from
    ``mc.run_grid`` calls: one for a sweep, one per phase scan for ``bell``
    (stream 0 for HV, 1 for DA)."""

    def test_sweep_matches_one_run_grid_call(self, capsys):
        thetas, alphas = cli.parse_grid("0:6.28:4"), cli.parse_grid("10:80:3")
        code, out, _ = run_cli(
            capsys, "sweep", "--theta", "0:6.28:4", "--alpha", "10:80:3",
            "--shots", "12000", "--seed", "13", "--input", qdc.INPUT_MIXTURE,
            "--basis", "da", "--efficiency", "0.5", "--dark", "0.01",
        )
        assert code == 0
        model = mc.DetectionModel(efficiency=0.5, dark_probability=0.01, seed=13)
        tables = mc.run_grid(qdc.ExperimentSettings(basis=qdc.BASIS_DA,
                                                    input=qdc.INPUT_MIXTURE),
                             model, thetas, alphas, 1000, stream=0)
        assert out == analysis.surface_from_counts(thetas, alphas, tables).to_csv()

    def test_bell_matches_two_run_grid_calls(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--shots", "100000", "--seed", "17",
                               "--dark", "1.3e-3")
        assert code == 0
        model = mc.DetectionModel(dark_probability=1.3e-3, seed=17)
        per_point = 100000 // (2 * cli.BELL_SCAN_POINTS)
        thetas = np.linspace(0.0, 2.0 * math.pi, cli.BELL_SCAN_POINTS)

        def scan(basis, alpha, stream):
            values, errs = [], []
            for table in mc.run_grid(qdc.ExperimentSettings(basis=basis), model, thetas,
                                     [alpha], per_point, stream=stream):
                est = analysis.estimate(table)
                values.append(est.value)
                errs.append(max(est.stderr, 1e-6))
            return analysis.fit_visibility(thetas, values, errs)

        v_hv, v_da = scan(qdc.BASIS_HV, 90.0, 0), scan(qdc.BASIS_DA, 45.0, 1)
        s, sigma = analysis.bell_parameter(v_hv, v_da)
        nsig = analysis.classical_bound_violation(s, sigma)
        assert out == (f"V_HV = {v_hv.value:.4f} +/- {v_hv.uncertainty:.4f}\n"
                       f"V_DA = {v_da.value:.4f} +/- {v_da.uncertainty:.4f}\n"
                       f"S = {s:.4f} +/- {sigma:.4f}  ({nsig:.1f} sigma above 2)\n")

    @pytest.mark.parametrize("argv,scans,rows", [
        pytest.param(["sweep", "--theta", "0:1:4", "--alpha", "0:90:3", "--shots", "12000",
                      "--seed", "2", "--efficiency", "1"], 1, 4, id="argv0-1"),
        pytest.param(["bell", "--shots", "34000", "--seed", "2", "--efficiency", "1"], 2,
                     2 * cli.BELL_SCAN_POINTS, id="argv1-2"),
    ])
    def test_grid_evaluated_once_per_scan(self, capsys, monkeypatch, argv, scans, rows):
        # one window grid per scan, and its group forms once per theta row
        calls = {"window_probability_grid": [], "_group_forms": []}
        for module, name in ((mc, "window_probability_grid"), (qdc, "_group_forms")):
            def counted(*args, _f=getattr(module, name), _calls=calls[name]):
                _calls.append(args)
                return _f(*args)

            monkeypatch.setattr(module, name, counted)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls["window_probability_grid"]) == scans
        assert len(calls["_group_forms"]) == rows


class TestCausality:
    def test_default_geometry_spacelike(self, capsys):
        code, out, _ = run_cli(capsys, "causality")
        assert code == 0
        rep = json.loads(out[out.index("{"):])
        assert rep["spacelike"] is True

    def test_nearby_detectors_not_spacelike(self, capsys):
        code, out, _ = run_cli(capsys, "causality", "--delta-x", "1")
        assert code == 0
        rep = json.loads(out[out.index("{"):])
        assert rep["spacelike"] is False

    def test_simultaneous_events_spacelike(self, capsys):
        code, out, _ = run_cli(capsys, "causality", "--delta-t", "0")
        assert code == 0
        rep = json.loads(out[out.index("{"):])
        assert rep["spacelike"] is True

    @pytest.mark.parametrize("flag,value,spacelike", [
        ("--delta-t", "1e300", False), ("--delta-t", "-1.7e308", False),
        ("--delta-x", "1e200", True), ("--delta-x", "-1.7e308", True),
    ])
    def test_huge_finite_separation(self, capsys, flag, value, spacelike):
        code, out, err = run_cli(capsys, "causality", f"{flag}={value}")
        assert code == 0 and err == ""
        assert json.loads(out)["spacelike"] is spacelike

    def test_overflowing_fiber_delay_exits_1(self, capsys):
        err = assert_usage_error(capsys, "causality", "--fiber-length", "1e308",
                                 "--refractive-index", "1e10")
        assert "fiber delay" in err

    def test_fiber_delay_printed(self, capsys):
        code, out, err = run_cli(capsys, "causality", "--fiber-length", "50")
        assert code == 0
        assert "fiber delay: 244.8 ns" in err
        assert json.loads(out)["spacelike"] is True

    @pytest.mark.parametrize("flag,value", [
        ("--delta-x", "nan"), ("--delta-t", "inf"), ("--fiber-length", "nan"),
        ("--refractive-index", "-inf"),
    ])
    def test_non_finite_input_exits_1(self, capsys, flag, value):
        assert_usage_error(capsys, "causality", "--fiber-length", "50",
                           f"{flag}={value}")

    def test_format_flag_removed(self, capsys):
        assert_usage_error(capsys, "causality", "--format", "csv")

    def test_refractive_index_below_1_exits_1(self, capsys):
        err = assert_usage_error(capsys, "causality", "--refractive-index", "-1",
                                 "--fiber-length", "5")
        assert "refractive index" in err

    def test_negative_fiber_length_exits_1(self, capsys):
        err = assert_usage_error(capsys, "causality", "--fiber-length", "-5")
        assert "fiber length" in err

    def test_refractive_index_without_fiber_length_exits_1(self, capsys):
        err = assert_usage_error(capsys, "causality", "--refractive-index", "1.5")
        assert "--fiber-length" in err

    def test_refractive_index_changes_the_delay(self, capsys):
        code, _, err = run_cli(capsys, "causality", "--fiber-length", "50",
                               "--refractive-index", "1")
        assert code == 0
        assert "fiber delay: 166.8 ns (50.0 m, n = 1.0)" in err


class TestVerify:
    @pytest.mark.parametrize("grid", ["1", "0", "-7"])
    def test_grid_below_2_exits_1(self, capsys, grid):
        assert_usage_error(capsys, "verify", f"--grid={grid}")

    def test_self_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--grid", "7")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    def test_builds_only_the_phase_plate_per_theta(self, capsys, monkeypatch):
        # with the compiled apparatus cached, four more thetas build four
        # more elements, all of them phase plates on the phase arm
        qdc._compiled(qdc.ExperimentSettings())
        built = {}  # grid -> (elements, phase plates)
        for grid in (5, 9):
            names = []
            monkeypatch.setattr(el, "check_unitary", lambda e: names.append(e.name) or 0.0)
            code, _, _ = run_cli(capsys, "verify", "--grid", str(grid))
            assert code == 0
            built[grid] = (len(names),
                           sum(n.startswith(f"phase({qdc.PHASE_ARM},") for n in names))
        assert built[9][0] - built[5][0] == 4
        assert built[9][1] - built[5][1] == 4

    @pytest.mark.parametrize("splitter", ["pdbs", "beam_splitter_50_50"])
    def test_wrong_splitter_convention_detected(self, capsys, monkeypatch, splitter):
        # the same splitter with -i instead of i on reflection: its transmitted
        # amplitudes are real, so conjugating every amplitude flips just that
        good = getattr(el, splitter)

        def flipped(*args, **kwargs):
            e = good(*args, **kwargs)
            return el.OpticalElement(e.name, {
                m: {o: a.conjugate() for o, a in col.items()}
                for m, col in e.columns.items()})

        monkeypatch.setattr(el, splitter, flipped)
        qdc._compiled.cache_clear()  # no compiled apparatus outlives the fault
        try:
            code, out, _ = run_cli(capsys, "verify", "--grid", "5")
        finally:
            qdc._compiled.cache_clear()
        assert code == 2
        assert "FAIL  closed-form correlation oracle" in out

    @pytest.mark.parametrize("angle", [44.0, 40.0, 0.0, -45.0])
    def test_wrong_eraser_angle_detected(self, capsys, monkeypatch, angle):
        # both erasers at ``angle`` instead of 45 degrees.  The eraser and
        # rotator checkpoints fail.  The closed-form oracle row cannot see it:
        # each XOR group sums both outputs of one eraser, and an eraser only
        # splits its arm's photon between those two outputs
        good = el.pbs_rotated

        def wrong(path_in, path_t, path_r, angle_deg):
            return good(path_in, path_t, path_r, angle if angle_deg == 45.0 else angle_deg)

        monkeypatch.setattr(el, "pbs_rotated", wrong)
        qdc._compiled.cache_clear()  # no compiled apparatus outlives the fault
        try:
            code, out, _ = run_cli(capsys, "verify")
        finally:
            qdc._compiled.cache_clear()
        rows = {line.split(":")[0]: line for line in out.splitlines()}
        assert code == 2
        assert sorted(name for name in rows if name.startswith("FAIL")) == [
            "FAIL  eraser checkpoint fidelity", "FAIL  rotator checkpoint fidelity"]
        oracle = rows["PASS  closed-form correlation oracle"]
        assert float(oracle.split("deviation ")[1].split()[0]) < 1e-15


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--bogus"], ["sweep", "--shots", "abc"], ["bell", "--basis", "xx"],
        [], ["bogus"],
        ["bell", "--basis", "da"],  # each bell scan fixes its own basis
    ])
    def test_bad_arguments_exit_1(self, capsys, argv):
        assert_usage_error(capsys, *argv)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--theta" in capsys.readouterr().out


class TestNegativeValues:
    """A value that starts with ``-`` and a digit, ``.``, ``inf`` or ``nan``
    is read as a value in both spellings, ``--flag -1`` and ``--flag=-1``."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--theta", "-1:1:3", "--alpha", "0:90:2"],
        ["sweep", "--theta", "0:1:2", "--alpha", "-30:-1e1:3"],
        ["sweep", "--theta", "-.5:.5:3", "--alpha", "-4.5e1:0:2", "--format", "json"],
        ["sweep", "--theta", "-1:1:2", "--alpha", "-90:0:2", "--shots", "40000",
         "--seed", "1"],
        ["causality", "--delta-t", "-1e3"],
        ["causality", "--delta-t", "-.5", "--delta-x", "-20"],
    ])
    def test_both_spellings_give_the_same_bytes(self, capsys, argv):
        joined = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
        spaced = run_cli(capsys, *argv)
        assert spaced[0] == 0 and spaced[1]
        assert run_cli(capsys, argv[0], *joined) == spaced

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--theta", "-inf:1:3"], "non-finite endpoint"),
        (["sweep", "--theta", "0:1:2", "--alpha", "-NaN:0:2"], "non-finite endpoint"),
        (["causality", "--delta-x", "-inf"], "--delta-x must be finite, got -inf"),
        (["causality", "--delta-t", "-Infinity"], "--delta-t must be finite, got -inf"),
        (["causality", "--fiber-length", "-INF"], "--fiber-length must be finite"),
        (["sweep", "--shots", "100", "--efficiency", "-nan"], "below the 325 grid points"),
        (["sweep", "--shots", "400", "--theta", "0:1:2", "--alpha", "0:90:2",
          "--efficiency", "-nan"], "efficiency nan outside"),
        (["bell", "--dark", "-inF", "--seed", "2"], "dark probability -inf outside"),
    ])
    def test_non_finite_values_give_the_same_error(self, capsys, argv, message):
        joined = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
        err = assert_usage_error(capsys, *argv)
        assert message in err
        assert run_cli(capsys, argv[0], *joined) == (1, "", err)

    def test_flag_without_its_value_exits_1(self, capsys):
        err = assert_usage_error(capsys, "sweep", "--theta", "--alpha", "0:90:2")
        assert "--theta: expected one argument" in err


#: values any flag of the argument fuzz test may get: signed zeros, extreme
#: and non-finite floats, 2**63, negative and malformed values
FUZZ_ANY = ["0", "-0", "-0.0", "1", "-1", "-.5", "1e308", "-1e308", "1e400", "nan",
            "-nan", "inf", "-inf", str(2**63), str(-2**63), "", "x"]
#: the values of each flag, mostly valid; a grid stays small or is rejected
#: before it is built
FUZZ_GRIDS = ["0:1:2", "-1:1:3", "0:90:2", "-30:-60:3", "-.5:.5:2", "-0.0:0.0:1",
              "1e308:1e308:1", "-1e308:-1e308:1", "-1e308:1e308:3", "nan:1:2", "0:inf:2",
              "0:1:0", "0:1:1", f"0:1:{2**63}", "0:1", "-1:1:3.5"]
FUZZ_SHOTS = ["34", "3400", "34000", str(2**62), str(2**63), "0", "-1", "1e3"]
FUZZ_SEEDS = ["0", "1", "7", "-0", str(2**63), "-1", "1.5"]
FUZZ_FRACTIONS = ["0", "-0.0", "1e-3", "0.25", "0.5", "1", "1.5", "-1e-308"]
FUZZ_FLAGS = {
    "sweep": {"--theta": FUZZ_GRIDS, "--alpha": FUZZ_GRIDS, "--shots": FUZZ_SHOTS,
              "--seed": FUZZ_SEEDS, "--efficiency": FUZZ_FRACTIONS,
              "--dark": FUZZ_FRACTIONS, "--format": ["csv", "json", "json", "xml"],
              "--basis": ["hv", "da"], "--input": ["entangled", "mixture"]},
    "bell": {"--shots": FUZZ_SHOTS, "--seed": FUZZ_SEEDS, "--efficiency": FUZZ_FRACTIONS,
             "--dark": FUZZ_FRACTIONS, "--input": ["entangled", "mixture"],
             "--basis": ["hv"]},
    "causality": {flag: ["20", "-20", "-1e3", "0", "1e300", "-1.7e308", "-.5"] for flag in
                  ("--delta-x", "--delta-t", "--fiber-length", "--refractive-index")},
    "verify": {"--grid": ["2", "3", "7", "1415", "1e3"]},
}


def fuzz_argv(rng):
    """A command with up to four of its flags, each given a value in either
    spelling: mostly one of the flag's own values, else any from
    ``FUZZ_ANY``.  Now and then a stray word."""
    command = rng.choice(sorted(FUZZ_FLAGS))
    argv = [command]
    flags = sorted(FUZZ_FLAGS[command])
    sampled = command == "bell" or command == "sweep" and rng.random() < 0.5
    if not sampled:  # mostly without the flags that an analytic sweep rejects
        flags = [f for f in flags if f not in ("--shots", "--seed", "--efficiency", "--dark")
                 or rng.random() < 0.1]
    for flag in rng.sample(flags, rng.randint(0, min(4, len(flags)))):
        value = rng.choice(FUZZ_FLAGS[command][flag] if rng.random() < 0.8 else FUZZ_ANY)
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)), rng.choice(["--bogus", "-1", "x"]))
    if sampled and rng.random() < 0.7 and not any(w.startswith("--shots") for w in argv):
        argv += ["--shots", "340000"]  # a draw costs the same at any shot count
    return argv


class TestArgumentFuzz:
    """Seeded random argument lists hold the CLI contract: exit 0, 1 or 2
    and no traceback; a validation error is one ``error:`` line with nothing
    on stdout; a runtime failure leaves stdout empty; a payload carries no
    non-finite number."""

    def test_cli_contract(self, capsys):
        rng = random.Random(2024)
        exits, json_payloads = {0: 0, 1: 0, 2: 0}, 0
        for _ in range(500):
            argv = fuzz_argv(rng)
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in exits, argv
            exits[code] += 1
            if code == 1:
                assert out == "", argv
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            elif code == 2:
                assert out == "", argv
            else:
                assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out), (argv, out)
                json_payloads += out.startswith("[")
        assert min(exits.values()) > 0 and json_payloads > 0, (exits, json_payloads)


class TestParserReuse:
    """``main`` reuses one parser per process, so no call may leave state in
    it for the next."""

    @pytest.mark.parametrize("argv,other", [
        (["bell", "--seed", "5"], ["bell", "--shots", "3400", "--seed", "6", "--dark", "0.01"]),
        (["sweep", "--seed", "3"],
         ["sweep", "--shots", "1000", "--seed", "3", "--theta", "0:1:2", "--alpha", "0:90:2"]),
        (["sweep", "--theta", "0:1:3", "--alpha", "0:90:2"],
         ["sweep", "--theta", "0:2:5", "--format", "json", "--basis", "da"]),
    ])
    def test_repeated_calls_give_the_same_bytes(self, capsys, argv, other):
        first = run_cli(capsys, *argv)
        run_cli(capsys, *other)
        assert run_cli(capsys, *argv) == first
        assert cli.build_parser() is cli.build_parser()
        if argv[0] == "bell":  # the default --shots applies again
            assert first[0] == 0
            per_point = 200_000 // (2 * cli.BELL_SCAN_POINTS)
            assert window_counts(first[2])["shots"] == per_point * 2 * cli.BELL_SCAN_POINTS
        elif "--seed" in argv:  # the analytic sweep still rejects model flags
            assert first[0] == 1 and first[2].startswith("error: --seed needs --shots")


SRC = str(Path(__file__).resolve().parents[1] / "src")
#: runs one CLI command in a fresh interpreter and prints its exit code,
#: whether importing the package loaded numpy, and whether the command did
NUMPY_PROBE = """
import contextlib, io, sys
import qbs_sim
from qbs_sim import cli
loaded_at_import = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, loaded_at_import, "numpy" in sys.modules)
"""

#: fits a noiseless 17-point unit-visibility scan in a fresh interpreter in
#: which any import of numpy fails, and prints whether V = 1 to 1e-12
NUMPY_BLOCKED_FIT = """
import math, sys
sys.modules["numpy"] = None
from qbs_sim.analysis import fit_visibility
thetas = [2 * math.pi * i / 16 for i in range(17)]
vis = fit_visibility(thetas, [0.5 + 0.5 * math.cos(t) for t in thetas])
print(abs(vis.value - 1.0) <= 1e-12)
"""


class TestNumpyFreeExactPath:
    @pytest.mark.parametrize("argv,numpy_loaded", [
        (["causality", "--fiber-length", "50"], False),
        (["verify"], False),
        (["sweep"], False),
        (["sweep", "--format", "json", "--basis", "da", "--input", "mixture"], False),
        (["sweep", "--theta", "0.5:0.5:1", "--alpha", "0:90:4", "--dump-state", "STATE"],
         False),
        # the sampler draws its counts in plain Python too
        (["sweep", "--shots", "1000", "--seed", "1", "--theta", "0:1:2",
          "--alpha", "0:90:2"], False),
    ])
    def test_numpy_loaded_only_to_sample(self, tmp_path, argv, numpy_loaded):
        argv = [str(tmp_path / "state.json") if a == "STATE" else a for a in argv]
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                                capture_output=True, text=True, timeout=120,
                                env=dict(os.environ, PYTHONPATH=path))
        assert result.stdout.split() == ["0", "False", str(numpy_loaded)], result.stderr

    def test_fit_runs_with_numpy_blocked(self):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED_FIT],
                                capture_output=True, text=True, timeout=120,
                                env=dict(os.environ, PYTHONPATH=path))
        assert result.stdout.split() == ["True"], result.stderr


#: modules that no exact command needs
HEAVY_MODULES = ("dataclasses", "inspect", "json", "numpy", "qbs_sim.montecarlo",
                 "qbs_sim.analysis")
#: imports the CLI, builds its parser and runs one command in a fresh
#: interpreter; prints the exit code and which of the modules named in the
#: first argument the package loaded by the time the parser was built and
#: after the command ran (``-`` for none).  Modules the interpreter loaded
#: before the package are not counted.
STARTUP_PROBE = """
import contextlib, io, sys
heavy = sys.argv[1].split(",")
preloaded = set(sys.modules)
def loaded():
    return ",".join(m for m in heavy if m in sys.modules and m not in preloaded) or "-"
from qbs_sim import cli
cli.build_parser()
after_parser = loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(code, after_parser, loaded())
"""


def probe_startup(argv):
    """(exit code, heavy modules after the parser, after the command)."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, ",".join(HEAVY_MODULES), *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    fields = result.stdout.split()
    assert len(fields) == 3, result.stderr
    return int(fields[0]), fields[1], fields[2]


class TestStartupImports:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--theta", "0:6.283185307179586:41", "--alpha", "0:90:17"],
        ["sweep", "--theta", "0:6.283185307179586:41", "--alpha", "0:90:17",
         "--format", "json"],
        ["verify"],
    ])
    def test_exact_commands_load_no_heavy_module(self, argv):
        assert probe_startup(argv) == (0, "-", "-")

    def test_causality_loads_neither_the_sampler_nor_numpy(self):
        code, at_start, after = probe_startup(["causality", "--fiber-length", "50"])
        assert (code, at_start) == (0, "-")
        assert not {"qbs_sim.montecarlo", "numpy"} & set(after.split(","))

    def test_sampled_sweep_loads_the_sampler(self):
        code, at_start, after = probe_startup(
            ["sweep", "--shots", "1000", "--seed", "1", "--theta", "0:1:2",
             "--alpha", "0:90:2"])
        assert (code, at_start) == (0, "-")
        assert {"qbs_sim.montecarlo", "qbs_sim.analysis"} <= set(after.split(","))

    @pytest.mark.parametrize("argv", [
        ["sweep", "--theta", "0:6.283185307179586:41", "--alpha", "0:90:17"],
        ["sweep", "--theta", "0.5:0.5:1", "--alpha", "0:90:4", "--dump-state", "STATE"],
        ["sweep", "--shots", "1000", "--seed", "1", "--theta", "0:1:2", "--alpha", "0:90:2"],
        ["sweep", "--shots", "1000", "--seed", "1", "--theta", "0:1:2", "--alpha", "0:90:2",
         "--format", "json"],
        ["bell", "--shots", "1000000", "--seed", "1"],
        ["causality", "--fiber-length", "50"],
        ["verify"],
    ])
    def test_no_command_loads_numpy(self, tmp_path, argv):
        argv = [str(tmp_path / "state.json") if a == "STATE" else a for a in argv]
        code, at_start, after = probe_startup(argv)
        assert code == 0
        assert "numpy" not in at_start.split(",") + after.split(",")
