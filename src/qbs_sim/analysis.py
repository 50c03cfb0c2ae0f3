"""Correlation estimates from count tables, fringe-visibility fits, the Bell
parameter from two-basis visibilities, sampled surfaces, and the
space-like-separation check.

Everything here is plain Python: the module imports no numpy, so a command
that fits a phase scan never pages in numpy's linear-algebra libraries.
"""
from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .surfaces import CorrelationSurface

if TYPE_CHECKING:
    from .montecarlo import CountTable

SPEED_OF_LIGHT = 299_792_458.0          # m/s
DEFAULT_FIBER_INDEX = 1.468             # standard single-mode fiber near 1560 nm


class FitError(ValueError):
    """Raised when a visibility fit is under-determined or singular."""


_SINGULAR = "singular design matrix (degenerate theta samples)"


class Visibility(NamedTuple):
    value: float
    uncertainty: float


class SpacetimeEvent(NamedTuple):
    position_m: float
    time_ns: float


class Estimate(NamedTuple):
    value: float
    stderr: float
    defined: bool = True


def estimate(table: CountTable) -> Estimate:
    """Intensity-correlation estimate ``h_a / (h_a + h_b)``, the share of the
    D_H-gated windows whose test click fell in group A, with a binomial
    standard error."""
    n = table.h_a + table.h_b
    if n == 0:
        return Estimate(float("nan"), float("nan"), defined=False)
    p = table.h_a / n
    return Estimate(p, math.sqrt(p * (1.0 - p) / n))


def fit_visibility(
    thetas: Sequence[float],
    values: Sequence[float],
    stderrs: Sequence[float] | None = None,
) -> Visibility:
    """Least-squares sinusoid fit p(theta) = a + b cos(theta) + c sin(theta);
    visibility = sqrt(b^2 + c^2) / a, clamped to [0, 1].

    Requires at least 8 strictly increasing samples spanning a full fringe
    period.  With per-sample standard errors the fit is inverse-variance
    weighted and the uncertainty is propagated from the parameter covariance;
    on noiseless data the uncertainty comes from the residual scatter and is
    essentially zero.

    The weighted design is factored as Q R by modified Gram-Schmidt.  On the
    scans whose zero standard errors ``bell`` floors at 1e-6, the normal
    matrix has a condition number near 1e9 and a solve of the normal
    equations can be off by 5e-7 or more; the factorization stays within a
    few ulps of the exact solution.  A design whose R has a 1-norm condition
    number above 1e6 (about 1e12 for the normal matrix R^T R) is rejected
    as singular.
    """
    th = [float(t) for t in thetas]
    n = len(th)
    for name, column in (("values", values), ("stderrs", stderrs)):
        if column is not None and len(column) != n:
            raise FitError(f"{len(column)} {name} for {n} thetas")
    if n < 8:
        raise FitError(f"need at least 8 samples, got {n}")
    if any(t1 - t0 <= 0 for t0, t1 in zip(th, th[1:])):
        raise FitError("thetas must be strictly increasing")
    if th[-1] - th[0] < 2.0 * math.pi - 1e-9:
        raise FitError("scan must span at least 2*pi")
    if stderrs is None:
        w = [1.0] * n
    elif any(e <= 0 for e in stderrs):
        raise FitError("standard errors must be positive")
    else:
        w = [1.0 / float(e) for e in stderrs]

    # the columns w, w cos, w sin and w y; each of the first three is
    # normalised into q in turn and projected out of the columns after it,
    # so r[i][3] is (Q^T w y)_i and the last column ends as the residual
    cols = [w, [math.cos(t) * x for t, x in zip(th, w)],
            [math.sin(t) * x for t, x in zip(th, w)],
            [float(y) * x for y, x in zip(values, w)]]
    r = [[0.0] * 4 for _ in range(3)]
    for i in range(3):
        norm = math.hypot(*cols[i])
        if not norm > 0:
            raise FitError(_SINGULAR)
        q = [x / norm for x in cols[i]]
        r[i][i] = norm
        for j in range(i + 1, 4):
            r[i][j] = d = sum(map(mul, q, cols[j]))
            cols[j] = [x - d * qk for x, qk in zip(cols[j], q)]
    (r00, r01, r02, z0), (_, r11, r12, z1), (_, _, r22, z2) = r
    # the inverse of the upper-triangular R
    i00, i11, i22 = 1.0 / r00, 1.0 / r11, 1.0 / r22
    i01, i12 = -r01 * i00 * i11, -r12 * i11 * i22
    i02 = -(r01 * i12 + r02 * i22) * i00
    norm = max(r00, abs(r01) + r11, abs(r02) + abs(r12) + r22)
    inv_norm = max(i00, abs(i01) + i11, abs(i02) + abs(i12) + i22)
    if not norm * inv_norm <= 1e6:
        raise FitError(_SINGULAR)
    a, b, c = i00 * z0 + i01 * z1 + i02 * z2, i11 * z1 + i12 * z2, i22 * z2

    if a <= 0:
        raise FitError("non-positive mean level in visibility fit")
    amp = math.hypot(b, c)
    v = amp / a
    # gradient of sqrt(b^2+c^2)/a, with the amp -> 0 limit handled separately
    if amp > 1e-300:
        g0, g1, g2 = -amp / a**2, b / (amp * a), c / (amp * a)
    else:
        g0, g1, g2 = 0.0, 1.0 / a, 1.0 / a
    # g^T cov g with cov = R^-1 R^-T, scaled by the residual variance when
    # the fit is unweighted
    sigma = math.hypot(i00 * g0, i01 * g0 + i11 * g1, i02 * g0 + i12 * g1 + i22 * g2)
    if stderrs is None:
        sigma *= math.hypot(*cols[3]) / math.sqrt(max(n - 3, 1))
    v_clamped = min(max(v, 0.0), 1.0)
    if v > 1.0 + 3.0 * sigma + 1e-9:
        raise FitError(f"visibility {v:.4f} exceeds 1 beyond 3 sigma")
    return Visibility(v_clamped, sigma)


def bell_parameter(v_hv: Visibility, v_da: Visibility) -> tuple[float, float]:
    """S = sqrt(2) (V_HV + V_DA); unit visibilities give 2 sqrt(2).
    Uncertainty combined in quadrature."""
    s = math.sqrt(2.0) * (v_hv.value + v_da.value)
    sigma = math.sqrt(2.0) * math.hypot(v_hv.uncertainty, v_da.uncertainty)
    return s, sigma


def classical_bound_violation(s: float, uncertainty: float) -> float:
    """Standard deviations above the local-realism bound S = 2."""
    if uncertainty <= 0:
        raise ValueError("uncertainty must be positive")
    return (s - 2.0) / uncertainty


def surface_from_counts(thetas: Sequence[float], alphas_deg: Sequence[float],
                        tables: Sequence[CountTable]) -> CorrelationSurface:
    """Per-point estimates and standard errors from sampled count tables,
    one per (theta, alpha) grid point, row-major in theta then alpha."""
    values, stderrs = [], []
    for i, table in enumerate(tables):
        est = estimate(table)
        if not est.defined:
            raise ValueError(f"no conditioned counts at theta={thetas[i // len(alphas_deg)]}"
                             f", alpha={alphas_deg[i % len(alphas_deg)]}")
        values.append(est.value)
        stderrs.append(est.stderr)
    return CorrelationSurface(thetas, alphas_deg, values, stderrs)


def propagation_delay(
    fiber_meters: float, refractive_index: float = DEFAULT_FIBER_INDEX
) -> float:
    """Group delay L * n / c in nanoseconds."""
    if fiber_meters < 0:
        raise ValueError(f"fiber length must be non-negative, got {fiber_meters}")
    if refractive_index < 1:
        raise ValueError(f"refractive index must be at least 1, got {refractive_index}")
    delay = fiber_meters * refractive_index / SPEED_OF_LIGHT * 1e9
    if not math.isfinite(delay):
        raise ValueError(f"fiber delay of {fiber_meters} m at n = {refractive_index} "
                         "overflows a float")
    return delay


def is_spacelike(e1: SpacetimeEvent, e2: SpacetimeEvent) -> bool:
    """True iff |c dt| < |dx|, i.e. no light signal can connect the events."""
    dt_s = (e2.time_ns - e1.time_ns) * 1e-9
    return abs(SPEED_OF_LIGHT * dt_s) < abs(e2.position_m - e1.position_m)


def causality_report(e_test: SpacetimeEvent, e_corr: SpacetimeEvent) -> str:
    """JSON report of the separation check between the two detection events."""
    import json

    dt_s = abs(e_corr.time_ns - e_test.time_ns) * 1e-9
    obj = {
        "event_test": {"position_m": e_test.position_m, "time_ns": e_test.time_ns},
        "event_corroborative": {
            "position_m": e_corr.position_m,
            "time_ns": e_corr.time_ns,
        },
        "c_delta_t_m": SPEED_OF_LIGHT * dt_s,
        "delta_x_m": abs(e_corr.position_m - e_test.position_m),
        "spacelike": is_spacelike(e_test, e_corr),
    }
    return json.dumps(obj, indent=2, sort_keys=True)
