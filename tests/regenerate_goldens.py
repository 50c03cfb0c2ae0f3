"""Golden outputs of seeded sampled commands: stdout, stderr and exit code of
each command in ``CASES``, stored in ``tests/golden/<name>.json`` with the
numpy version that drew them.  ``test_golden.py`` compares them exactly.

Regenerating a golden file is a deliberate act: do it only for a change that
alters seeded bytes on purpose, and name each regenerated file and the reason
in CHANGES.md.

    PYTHONPATH=src python tests/regenerate_goldens.py
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REGENERATE = "PYTHONPATH=src python tests/regenerate_goldens.py"

_SWEEP = ["sweep", "--shots", "20000", "--input", "mixture", "--basis", "da",
          "--theta", "0:6.283185307179586:5", "--alpha", "0:90:4", "--seed"]
#: golden file name -> CLI arguments
CASES = {
    "sweep-mixture-da-seed1": _SWEEP + ["1"],
    "sweep-mixture-da-seed2": _SWEEP + ["2"],
    # seven 32-bit words: more run entropy than numpy's 4-word seed pool
    "sweep-mixture-da-seed2pow200m1": _SWEEP + [str(2**200 - 1)],
    "bell-seed1": ["bell", "--shots", "100000", "--seed", "1"],
    # the visibility fit fails at this seed (exit 2)
    "bell-seed21": ["bell", "--shots", "100000", "--seed", "21"],
}


def capture(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI command."""
    from qbs_sim import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load(name: str) -> dict:
    """A golden file, with stdout and stderr joined back into strings."""
    record = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    return {**record, "stdout": "".join(record["stdout"]),
            "stderr": "".join(record["stderr"])}


def main():
    import numpy as np

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        result = capture(argv)
        record = {"numpy": np.__version__, "regenerate": REGENERATE, "argv": argv,
                  "exit_code": result["exit_code"],
                  # one string per line, so a changed byte shows as a changed line
                  "stdout": result["stdout"].splitlines(keepends=True),
                  "stderr": result["stderr"].splitlines(keepends=True)}
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {name}.json (exit {result['exit_code']})")


if __name__ == "__main__":
    main()
