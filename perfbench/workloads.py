"""The benchmark's workloads: one qbs-sim CLI command each, made from a seed,
with the correctness gate that every operation's stdout must pass.

The gates parse stdout tolerantly: diagnostic lines next to the payload
(``seed:``, ``points:``) are skipped, and the Bell parameter is found in
text, ``key: value`` or CSV form, so moving diagnostics to stderr or giving
``bell`` a structured output does not register as a failure.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi
#: max |p - I(theta, alpha)| allowed on the analytic surface
ORACLE_TOL = 1e-12
#: grid coordinates in the payload must match the requested grid this closely
GRID_TOL = 1e-9
#: the Bell scan's fixed number of phase points (two 17-point scans)
BELL_POINTS = 34


@dataclass(frozen=True)
class Operation:
    """One CLI command of a workload and what it computes."""

    argv: list[str]
    points: int  # (theta, alpha) grid points finished per operation
    shots: int   # coincidence windows simulated per operation (0 if exact)
    check: Callable[[str], str | None]  # stdout -> failure message or None


def closed_form_ia(theta: float, alpha_deg: float) -> float:
    """I(theta, alpha) = cos^2(theta/2) sin^2(alpha) + 1/2 cos^2(alpha)."""
    a = math.radians(alpha_deg)
    return math.cos(theta / 2.0) ** 2 * math.sin(a) ** 2 + 0.5 * math.cos(a) ** 2


def _linspace(start: float, stop: float, n: int) -> list[float]:
    if n == 1:
        return [start]
    return [start + (stop - start) * i / (n - 1) for i in range(n)]


def _rows(text: str) -> list[tuple[float, ...]]:
    """Numeric CSV rows with at least three cells; other lines are skipped."""
    rows = []
    for line in text.splitlines():
        cells = line.split(",")
        if len(cells) < 3:
            continue
        try:
            rows.append(tuple(float(c) for c in cells))
        except ValueError:
            continue
    return rows


def _grid_error(rows, thetas, alphas) -> str | None:
    if len(rows) != len(thetas) * len(alphas):
        return f"{len(rows)} rows, expected {len(thetas) * len(alphas)}"
    for i, row in enumerate(rows):
        theta, alpha = thetas[i // len(alphas)], alphas[i % len(alphas)]
        if abs(row[0] - theta) > GRID_TOL or abs(row[1] - alpha) > GRID_TOL:
            return f"row {i} is at ({row[0]}, {row[1]}), expected ({theta}, {alpha})"
    return None


_BELL_S = re.compile(
    r"""(?<![\w'"])["']?S["']?\s*[=:]\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"""
)


def bell_s(text: str) -> float | None:
    """The Bell parameter S from ``S = x``, ``"S": x`` or a CSV column S."""
    match = _BELL_S.search(text)
    if match:
        return float(match.group(1))
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    for head, row in zip(lines, lines[1:]):
        cells = [c.strip().strip("\"'") for c in head.split(",")]
        if "S" in cells:
            try:
                return float(row.split(",")[cells.index("S")])
            except (IndexError, ValueError):
                return None
    return None


def _cli_seed(seed: int) -> int:
    return random.Random(seed).randrange(2**31)


def exact_sweep(seed: int, tiny: bool) -> Operation:
    n_theta, n_alpha = (5, 3) if tiny else (41, 17)
    # the seed shifts the phase window; the grid size stays fixed
    t0 = random.Random(seed).uniform(0.0, TWO_PI)
    thetas = _linspace(t0, t0 + TWO_PI, n_theta)
    alphas = _linspace(0.0, 90.0, n_alpha)

    def check(text: str) -> str | None:
        rows = _rows(text)
        err = _grid_error(rows, thetas, alphas)
        if err:
            return err
        dev = max(abs(r[2] - closed_form_ia(r[0], r[1])) for r in rows)
        if not dev <= ORACLE_TOL:
            return f"max |p - I(theta, alpha)| = {dev:.3g} > {ORACLE_TOL:g}"
        return None

    argv = ["sweep", "--theta", f"{t0!r}:{t0 + TWO_PI!r}:{n_theta}",
            "--alpha", f"0:90:{n_alpha}"]
    return Operation(argv, n_theta * n_alpha, 0, check)


def bell_scan(seed: int, tiny: bool) -> Operation:
    shots = 200_000 if tiny else 1_000_000

    def check(text: str) -> str | None:
        s = bell_s(text)
        if s is None:
            return "no Bell parameter S in the output"
        # 1e-4 of slack, because the printed S is rounded
        if not 2.0 < s <= 2.0 * math.sqrt(2.0) + 1e-4:
            return f"S = {s} outside (2, 2 sqrt 2]"
        return None

    argv = ["bell", "--shots", str(shots), "--dark", "1.3e-3",
            "--seed", str(_cli_seed(seed))]
    return Operation(argv, BELL_POINTS, shots // BELL_POINTS * BELL_POINTS, check)


def sampled_sweep(seed: int, tiny: bool) -> Operation:
    n_theta, n_alpha = (5, 3) if tiny else (16, 10)
    points = n_theta * n_alpha
    shots = 2000 * points
    thetas = _linspace(0.0, TWO_PI, n_theta)
    alphas = _linspace(0.0, 90.0, n_alpha)

    def check(text: str) -> str | None:
        rows = _rows(text)
        err = _grid_error(rows, thetas, alphas)
        if err:
            return err
        for i, r in enumerate(rows):
            if len(r) < 4 or not (0.0 <= r[2] <= 1.0 and r[3] >= 0.0):
                return f"row {i}: estimate/stderr {r[2:]} out of range"
        return None

    argv = ["sweep", "--shots", str(shots), "--seed", str(_cli_seed(seed)),
            "--input", "mixture", "--basis", "da",
            "--theta", f"0:{TWO_PI!r}:{n_theta}", "--alpha", f"0:90:{n_alpha}"]
    return Operation(argv, points, shots, check)


#: workload name -> Operation factory(seed, tiny)
WORKLOADS = {
    "exact-sweep": exact_sweep,
    "bell-scan": bell_scan,
    "sampled-sweep": sampled_sweep,
}
