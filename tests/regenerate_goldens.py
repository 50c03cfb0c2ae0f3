"""Golden outputs of CLI commands: stdout, stderr and exit code of each
command in ``CASES`` (and the file a ``--dump-state`` command writes), stored
in ``tests/golden/<name>.json`` with the Python version that wrote them.
``test_golden.py`` compares them: text, integers and exit codes exactly, the
stdout of sampled commands exactly, and for the analytic commands in
``ANALYTIC`` every float to ``FLOAT_TOL`` except the theta and alpha columns,
which must match exactly.

Regenerating a golden file is a deliberate act: do it only for a change that
alters the output on purpose, and name each regenerated file and the reason
in CHANGES.md.  Name the cases to regenerate; with no names, every file is
rewritten.

    PYTHONPATH=src python tests/regenerate_goldens.py [NAME ...]
"""
from __future__ import annotations

import io
import json
import platform
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REGENERATE = "PYTHONPATH=src python tests/regenerate_goldens.py"
#: an argument replaced by a temporary file path, whose content is recorded
DUMP = "{dump}"
#: tolerance of analytic floats: libm may differ in the last bit across images
FLOAT_TOL = 1e-12

_GRID = ["--theta", "0:6.283185307179586:5", "--alpha", "0:90:4"]
_SWEEP = ["sweep", "--shots", "20000", "--input", "mixture", "--basis", "da"] + _GRID
#: golden file name -> CLI arguments
CASES = {
    "sweep-mixture-da-seed1": _SWEEP + ["--seed", "1"],
    "sweep-mixture-da-seed2": _SWEEP + ["--seed", "2"],
    # a 200-bit seed: every bit of it keys the generator
    "sweep-mixture-da-seed2pow200m1": _SWEEP + ["--seed", str(2**200 - 1)],
    "sweep-mixture-da-seed1-json": _SWEEP + ["--seed", "1", "--format", "json"],
    "bell-seed1": ["bell", "--shots", "100000", "--seed", "1"],
    "bell-seed21": ["bell", "--shots", "100000", "--seed", "21"],
    # the visibility fit fails at this seed (exit 2)
    "bell-fit-fails-seed3": ["bell", "--shots", "100000", "--seed", "3"],
    "bell-mixture-seed1": ["bell", "--input", "mixture", "--shots", "100000",
                           "--seed", "1"],
    # the bell-scan benchmark command with a tenth of its shots
    "bell-dark-seed1": ["bell", "--shots", "100000", "--dark", "1.3e-3", "--seed", "1"],
    # the exact-sweep benchmark command on a reduced grid, theta window offset
    "exact-sweep-offset": ["sweep", "--theta", "0.8442354444173306:7.127420751596917:9",
                           "--alpha", "0:90:5"],
    "exact-sweep-mixture-da-json": ["sweep", "--basis", "da", "--input", "mixture",
                                    "--format", "json"] + _GRID,
    "exact-sweep-dump-state": ["sweep", "--theta", "0.5:6.283185307179586:5",
                               "--alpha", "30:90:4", "--dump-state", DUMP],
    "verify": ["verify"],
    "causality": ["causality"],
}
#: analytic commands, whose floats are compared to ``FLOAT_TOL``
ANALYTIC = {"exact-sweep-offset", "exact-sweep-mixture-da-json",
            "exact-sweep-dump-state", "verify", "causality"}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_GRID_KEY = re.compile(r'"(?:theta|alpha_deg)": ')


def capture(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI command, and the
    content of the file written to a ``DUMP`` argument (else None)."""
    from qbs_sim import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.json"
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([str(path) if a == DUMP else a for a in argv])
        dump = path.read_text() if DUMP in argv and path.exists() else None
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "dump": dump}


def load(name: str) -> dict:
    """A golden file, with its texts joined back into strings."""
    record = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    return {**record, **{key: "".join(record[key]) for key in ("stdout", "stderr")},
            "dump": None if record.get("dump") is None else "".join(record["dump"])}


def mismatch(expected: str | None, got: str | None, analytic: bool) -> str | None:
    """Where ``got`` departs from ``expected``, or None.  Unless ``analytic``
    the texts must be equal.  Otherwise the text between numbers, integers,
    and the theta and alpha columns (the first two numbers of a CSV row, a
    ``theta`` or ``alpha_deg`` JSON value) must be equal, and other floats
    agree to ``FLOAT_TOL``."""
    if expected == got:
        return None
    if not analytic or expected is None or got is None:
        return "the text differs"
    exp_lines, got_lines = expected.splitlines(), got.splitlines()
    if len(exp_lines) != len(got_lines):
        return f"{len(got_lines)} lines, expected {len(exp_lines)}"
    for i, (e, g) in enumerate(zip(exp_lines, got_lines), 1):
        if _NUMBER.split(e) != _NUMBER.split(g):
            return f"line {i}: {g!r}, expected {e!r}"
        exact = 2 if e.count(",") >= 2 else 1 if _GRID_KEY.search(e) else 0
        for j, (x, y) in enumerate(zip(_NUMBER.findall(e), _NUMBER.findall(g))):
            is_float = any(c in x for c in ".eE")
            if x != y and (j < exact or not is_float or abs(float(x) - float(y)) > FLOAT_TOL):
                return f"line {i}: {g!r}, expected {e!r}"
    return None


def main(names: list[str]):
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"no golden case {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or CASES:
        argv = CASES[name]
        result = capture(argv)
        record = {"python": platform.python_version(), "regenerate": REGENERATE, "argv": argv,
                  "exit_code": result["exit_code"],
                  # one string per line, so a changed byte shows as a changed line
                  **{key: result[key].splitlines(keepends=True)
                     for key in ("stdout", "stderr")}}
        if result["dump"] is not None:
            record["dump"] = result["dump"].splitlines(keepends=True)
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {name}.json (exit {result['exit_code']})")


if __name__ == "__main__":
    main(sys.argv[1:])
