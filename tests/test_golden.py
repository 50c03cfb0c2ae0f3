"""CLI commands give the committed output (``tests/golden``, written by
``regenerate_goldens.py``): exit code and text exactly, sampled stdout
exactly, and analytic floats to 1e-12 with the theta and alpha columns
exact."""
import platform

import pytest

import regenerate_goldens as golden


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_matches_golden(name):
    expected = golden.load(name)
    assert expected["argv"] == golden.CASES[name], (
        f"{name}.json was written for other arguments; run {golden.REGENERATE}")
    got = golden.capture(expected["argv"])
    written = (f" (written under Python {expected['python']}, running Python "
               f"{platform.python_version()})" if "python" in expected else "")
    hint = (f"qbs-sim {' '.join(expected['argv'])} no longer gives the output of "
            f"tests/golden/{name}.json{written}. If the change of output is "
            f"deliberate, run {golden.REGENERATE} {name} and name the file in "
            f"CHANGES.md.")
    assert got["exit_code"] == expected["exit_code"], hint
    analytic = name in golden.ANALYTIC
    for key in ("stdout", "stderr", "dump"):
        where = golden.mismatch(expected[key], got[key], analytic)
        assert where is None, f"{key}: {where}. {hint}"


class TestMismatch:
    """The comparison rules of the analytic goldens."""

    def test_floats_agree_to_the_tolerance(self):
        assert golden.mismatch("x: 0.5\n", "x: 0.5000000000001\n", True) is None
        assert golden.mismatch("x: 0.5\n", "x: 0.500000000002\n", True) is not None

    def test_sampled_text_is_exact(self):
        assert golden.mismatch("x: 0.5\n", "x: 0.5000000000001\n", False) is not None

    @pytest.mark.parametrize("expected,got", [
        ("1.0,2.0,0.5\n", "1.0000000000001,2.0,0.5\n"),   # theta column
        ("1.0,2.0,0.5\n", "1.0,2.0000000000001,0.5\n"),   # alpha column
        ('  "theta": 1.0,\n', '  "theta": 1.0000000000001,\n'),
        ('  "alpha_deg": 2.0,\n', '  "alpha_deg": 2.0000000000001,\n'),
        ("points: 15\n", "points: 16\n"),                  # integers
        ("PASS  a: 1.0\n", "FAIL  a: 1.0\n"),              # text
        ("a\n", "a\nb\n"),                                 # line count
    ])
    def test_exact_parts(self, expected, got):
        assert golden.mismatch(expected, got, True) is not None

    def test_missing_dump_file(self):
        assert golden.mismatch("{}\n", None, True) is not None
