"""Seeded sampled commands give the committed bytes: stdout, stderr and exit
code exactly (``tests/golden``, written by ``regenerate_goldens.py``)."""
import numpy as np
import pytest

import regenerate_goldens as golden


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_matches_golden(name):
    expected = golden.load(name)
    assert expected["argv"] == golden.CASES[name], (
        f"{name}.json was written for other arguments; run {golden.REGENERATE}")
    got = golden.capture(expected["argv"])
    hint = (f"qbs-sim {' '.join(expected['argv'])} no longer gives the bytes of "
            f"tests/golden/{name}.json (drawn with numpy {expected['numpy']}, "
            f"running numpy {np.__version__}). If the change of seeded output is "
            f"deliberate, run {golden.REGENERATE} and name the file in CHANGES.md.")
    assert got["exit_code"] == expected["exit_code"], hint
    assert got["stdout"] == expected["stdout"], hint
    assert got["stderr"] == expected["stderr"], hint
