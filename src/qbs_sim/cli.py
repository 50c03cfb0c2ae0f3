"""Command-line entry point.

Subcommands:
  sweep      analytic or sampled correlation surface on a (theta, alpha) grid
  bell       Bell parameter from two-basis phase-scan visibilities
  causality  space-like-separation check between the two detection events
  verify     internal consistency checkpoints (checkpoint-state fidelities,
             composite splitter equivalence, closed-form oracle grid)

Grid syntax is start:stop:steps with inclusive endpoints; theta is in
radians, alpha in degrees.  Exit codes: 0 success, 1 validation error,
2 runtime or self-check failure.  Stdout carries only the payload; the seed
and other diagnostics go to stderr.  The sampler (and numpy with it) is
imported only by the sampled commands, and the analysis module only by the
commands that use it.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from functools import lru_cache

from . import elements as el, experiment as qdc
from .states import fidelity, dump_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
#: phase-scan points per basis in ``bell``
BELL_SCAN_POINTS = 17
#: most points in a grid (sweep axis, sweep, verify's oracle), checked before building
MAX_GRID_POINTS = 1_000_000


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a ``UsageError``, so they exit 1 with one
    ``error:`` line like every other validation error.  A ``-`` followed by a
    digit, ``.``, ``inf`` or ``nan`` (any case) starts a value, so ``--theta
    -1:1:3`` and ``--delta-x -inf`` are read as ``=`` spells them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def linspace(start: float, stop: float, steps: int) -> list[float]:
    """``steps`` evenly spaced points from ``start`` to ``stop`` inclusive,
    computed as ``numpy.linspace`` does (``i * step + start``, the last point
    set to ``stop``), so the grids are bit-identical to it."""
    if steps == 1:
        return [start]
    step = (stop - start) / (steps - 1)
    points = [i * step + start for i in range(steps)]
    points[-1] = stop
    return points


def parse_grid(spec: str) -> list[float]:
    try:
        start, stop, steps = spec.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}, expected start:stop:steps") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"grid spec {spec!r} has a non-finite endpoint")
    if steps < 1:
        raise UsageError(f"grid needs at least 1 step, got {steps}")
    if steps > MAX_GRID_POINTS:
        raise UsageError(f"grid has {steps} steps, more than {MAX_GRID_POINTS}")
    if steps == 1 and start != stop:
        raise UsageError("single-step grid requires start == stop")
    if not math.isfinite(stop - start):
        raise UsageError(f"grid spec {spec!r} spans more than a float holds")
    return linspace(start, stop, steps)


def _settings(args, theta=0.0, alpha=0.0) -> qdc.ExperimentSettings:
    basis = qdc.BASIS_DA if args.basis.lower() == "da" else qdc.BASIS_HV
    return qdc.ExperimentSettings(
        theta=theta, alpha_deg=alpha, basis=basis, input=args.input
    )


def _model(args) -> mc.DetectionModel:
    """The detection model of a sampled run: flags left unset keep the
    model's defaults, and a missing seed is drawn fresh."""
    from . import montecarlo as mc

    seed = args.seed
    if seed is None:
        import secrets

        seed = secrets.randbits(63)
    given = {"efficiency": args.efficiency, "dark_probability": args.dark}
    try:
        return mc.DetectionModel(
            seed=seed, **{k: v for k, v in given.items() if v is not None}
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _shots_per_point(shots: int, points: int, what: str) -> int:
    """``shots`` split evenly over ``points``: at least one window each, and
    at most the 2**63 - 1 that the sampler's multinomial draw takes."""
    per_point = shots // points
    if per_point < 1:
        raise UsageError(f"--shots {shots} is below the {points} {what}")
    if per_point >= 1 << 63:
        raise UsageError(f"--shots {shots} gives {per_point} windows per point, "
                         "more than the 2**63 - 1 that one draw takes")
    return per_point


def _report_windows(tables):
    """One stderr line with the window counts summed over ``tables``."""
    h_a, h_b, v_a, v_b, zero, multi = map(sum, zip(*tables))
    valid = h_a + h_b + v_a + v_b
    print(f"shots: {valid + zero + multi}  valid: {valid}  "
          f"discarded_zero: {zero}  discarded_multi: {multi}", file=sys.stderr)


def _write_file(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write(args, text: str):
    if args.output:
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)


def cmd_sweep(args) -> int:
    thetas = parse_grid(args.theta)
    alphas = parse_grid(args.alpha)
    if len(thetas) * len(alphas) > MAX_GRID_POINTS:
        raise UsageError(f"grid has {len(thetas)} x {len(alphas)} points, "
                         f"more than {MAX_GRID_POINTS}")
    if args.dump_state and args.input != qdc.INPUT_ENTANGLED:
        raise UsageError("--dump-state requires the entangled input")
    if args.shots is None:
        unused = [f"--{name}" for name in ("seed", "efficiency", "dark")
                  if getattr(args, name) is not None]
        if unused:
            raise UsageError(f"{', '.join(unused)} needs --shots; "
                             "the analytic sweep has no detection model")
        surf = qdc.surface(_settings(args), thetas, alphas)
    else:
        from . import analysis, montecarlo as mc

        per_point = _shots_per_point(args.shots, len(thetas) * len(alphas), "grid points")
        model = _model(args)
        print(f"seed: {model.seed}", file=sys.stderr)
        tables = mc.run_grid(_settings(args), model, thetas, alphas, per_point)
        _report_windows(tables)
        surf = analysis.surface_from_counts(thetas, alphas, tables)
    payload = surf.to_json() if args.format == "json" else surf.to_csv()
    if args.dump_state:  # first, so a bad path fails before the payload is out
        [(_, state)] = qdc.build_qdc_state(_settings(args, thetas[0], alphas[0]))
        _write_file(args.dump_state, dump_state(state))
    _write(args, payload)
    print(f"points: {len(surf.values)}  min: {min(surf.values):.6f}  "
          f"max: {max(surf.values):.6f}", file=sys.stderr)
    return EXIT_OK


def _scan_visibility(args, model, basis, alpha, basis_index, per_point):
    """Fit one phase scan, drawn in one ``run_grid`` call in which every
    point has its own RNG stream; returns the fit and the count tables."""
    from . import analysis, montecarlo as mc

    thetas = linspace(0.0, 2.0 * math.pi, BELL_SCAN_POINTS)
    tables = mc.run_grid(qdc.ExperimentSettings(basis=basis, input=args.input), model,
                         thetas, [alpha], per_point,
                         first_stream=basis_index * BELL_SCAN_POINTS)
    surf = analysis.surface_from_counts(thetas, [alpha], tables)
    errs = [max(e, 1e-6) for e in surf.stderrs]
    return analysis.fit_visibility(thetas, surf.values, errs), tables


def cmd_bell(args) -> int:
    from . import analysis

    per_point = _shots_per_point(args.shots, 2 * BELL_SCAN_POINTS, "scan points")
    model = _model(args)
    print(f"seed: {model.seed}", file=sys.stderr)
    v_hv, hv_tables = _scan_visibility(args, model, qdc.BASIS_HV, 90.0, 0, per_point)
    v_da, da_tables = _scan_visibility(args, model, qdc.BASIS_DA, 45.0, 1, per_point)
    _report_windows(hv_tables + da_tables)
    s, sigma = analysis.bell_parameter(v_hv, v_da)
    nsig = analysis.classical_bound_violation(s, sigma)
    _write(args,
           f"V_HV = {v_hv.value:.4f} +/- {v_hv.uncertainty:.4f}\n"
           f"V_DA = {v_da.value:.4f} +/- {v_da.uncertainty:.4f}\n"
           f"S = {s:.4f} +/- {sigma:.4f}  ({nsig:.1f} sigma above 2)\n")
    return EXIT_OK


def cmd_causality(args) -> int:
    from . import analysis

    for flag in ("delta_x", "delta_t", "fiber_length", "refractive_index"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    if args.fiber_length is None:
        if args.refractive_index is not None:
            raise UsageError("--refractive-index needs --fiber-length")
    else:
        index = (analysis.DEFAULT_FIBER_INDEX if args.refractive_index is None
                 else args.refractive_index)
        try:
            delay = analysis.propagation_delay(args.fiber_length, index)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        print(f"fiber delay: {delay:.1f} ns ({args.fiber_length} m, n = {index})",
              file=sys.stderr)
    e_test = analysis.SpacetimeEvent(0.0, 0.0)
    e_corr = analysis.SpacetimeEvent(args.delta_x, args.delta_t)
    _write(args, analysis.causality_report(e_test, e_corr) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    failures = 0

    def report(name: str, deviation: float, tol: float):
        nonlocal failures
        ok = deviation < tol
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: max deviation {deviation:.3e} "
              f"(tolerance {tol:.0e})")

    if args.grid < 2:
        raise UsageError(f"--grid must be at least 2, got {args.grid}")
    n_alpha = max(args.grid // 2, 2)  # of the closed-form oracle grid
    if args.grid * n_alpha > MAX_GRID_POINTS:
        raise UsageError(f"--grid {args.grid} gives more than {MAX_GRID_POINTS} points")
    thetas = linspace(0.0, 2.0 * math.pi, args.grid)
    # checkpoint fidelities along the apparatus; only the phase plate
    # depends on theta, so every other element is built once
    before, (splitter, *erasers) = qdc._test_side_halves(qdc.BASIS_HV)
    rotators = [(alpha, el.polarization_rotator("c", alpha))
                for alpha in (0.0, 30.0, 45.0, 90.0)]
    entered = el.apply_all(before, qdc.bell_state())
    dev_pdbs = dev_erasers = dev_rot = 0.0
    for theta in thetas:
        pre = el.apply_all([el.phase_shifter(qdc.PHASE_ARM, theta), splitter], entered)
        dev_pdbs = max(dev_pdbs, 1.0 - fidelity(pre, qdc.reference_after_pdbs(theta)))
        full = el.apply_all(erasers, pre)
        dev_erasers = max(dev_erasers,
                          1.0 - fidelity(full, qdc.reference_after_erasers(theta)))
        for alpha, rotator in rotators:
            rotated = el.apply(rotator, full)
            dev_rot = max(dev_rot, 1.0 - fidelity(
                rotated, qdc.reference_after_rotator(theta, alpha)))
    report("splitter checkpoint fidelity", dev_pdbs, 1e-10)
    report("eraser checkpoint fidelity", dev_erasers, 1e-10)
    report("rotator checkpoint fidelity", dev_rot, 1e-10)

    # composite splitter vs ideal, up to per-port phases
    composite = el.pdbs_composite()
    dev_comp = 0.0
    for mode, ref in el.pdbs("a", "b", "a", "b").columns.items():
        col = el.propagate(composite, {mode: 1.0})
        num = sum(col.get(m, 0j).conjugate() * a for m, a in ref.items())
        dev_comp = max(dev_comp, 1.0 - abs(num) ** 2)
    report("composite splitter equivalence", dev_comp, 1e-10)

    # closed-form oracle over a coarse grid
    surf = qdc.surface(qdc.ExperimentSettings(), thetas,
                       linspace(0.0, 90.0, n_alpha))
    oracle = [qdc.closed_form_ia(t, a) for t in surf.thetas for a in surf.alphas]
    dev_oracle = max(abs(v - ref) for v, ref in zip(surf.values, oracle))
    report("closed-form correlation oracle", dev_oracle, 1e-10)

    return EXIT_OK if failures == 0 else EXIT_FAILURE


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    p = _Parser(
        prog="qbs-sim",
        description="Two-photon quantum-beam-splitter interferometer simulator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--output", default=None, help="output file (default stdout)")

    def add_model(sp):
        sp.add_argument("--shots", type=int, default=None)
        # unset detection flags keep the DetectionModel defaults
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--efficiency", type=float, default=None)
        sp.add_argument("--dark", type=float, default=None)
        sp.add_argument("--input", choices=(qdc.INPUT_ENTANGLED, qdc.INPUT_MIXTURE),
                        default=qdc.INPUT_ENTANGLED)

    sp = sub.add_parser("sweep", help="correlation surface on a (theta, alpha) grid")
    add_output(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    add_model(sp)
    sp.add_argument("--basis", choices=("hv", "da"), default="hv")
    sp.add_argument("--theta", default="0:6.283185307179586:25",
                    help="theta grid start:stop:steps (radians)")
    sp.add_argument("--alpha", default="0:90:13",
                    help="alpha grid start:stop:steps (degrees)")
    sp.add_argument("--dump-state", default=None,
                    help="also dump the evolved state at the first grid point")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bell", help="Bell parameter from phase-scan visibilities")
    add_output(sp)
    add_model(sp)
    sp.set_defaults(func=cmd_bell, shots=200_000)

    sp = sub.add_parser("causality", help="space-like separation check")
    add_output(sp)
    sp.add_argument("--delta-x", type=float, default=20.0,
                    help="spatial separation of the detection events (m)")
    sp.add_argument("--delta-t", type=float, default=20.0,
                    help="time between the detection events (ns)")
    sp.add_argument("--fiber-length", type=float, default=None,
                    help="also print the fiber propagation delay for this length")
    sp.add_argument("--refractive-index", type=float, default=None,
                    help="fiber refractive index, at least 1 (default 1.468)")
    sp.set_defaults(func=cmd_causality)

    sp = sub.add_parser("verify", help="run internal consistency checkpoints")
    sp.add_argument("--grid", type=int, default=13, help="oracle grid density")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:  # a FitError is a ValueError
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
