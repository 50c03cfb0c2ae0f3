"""Correlation estimates from count tables, fringe-visibility fits, the Bell
parameter from two-basis visibilities, sampled surfaces, and the
space-like-separation check.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .surfaces import CorrelationSurface

if TYPE_CHECKING:
    from .montecarlo import CountTable

SPEED_OF_LIGHT = 299_792_458.0          # m/s
DEFAULT_FIBER_INDEX = 1.468             # standard single-mode fiber near 1560 nm


class FitError(ValueError):
    """Raised when a visibility fit is under-determined or singular."""


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
    """
    import numpy as np

    th = np.asarray(thetas, dtype=float)
    y = np.asarray(values, dtype=float)
    if th.size < 8:
        raise FitError(f"need at least 8 samples, got {th.size}")
    if np.any(np.diff(th) <= 0):
        raise FitError("thetas must be strictly increasing")
    if th[-1] - th[0] < 2.0 * math.pi - 1e-9:
        raise FitError("scan must span at least 2*pi")

    x = np.column_stack([np.ones_like(th), np.cos(th), np.sin(th)])
    if stderrs is not None:
        err = np.asarray(stderrs, dtype=float)
        if np.any(err <= 0):
            raise FitError("standard errors must be positive")
        w = 1.0 / err
        xw, yw = x * w[:, None], y * w
    else:
        xw, yw = x, y

    gram = xw.T @ xw
    if np.linalg.cond(gram) > 1e12:
        raise FitError("singular design matrix (degenerate theta samples)")
    cov = np.linalg.inv(gram)
    params = cov @ (xw.T @ yw)
    if stderrs is None:
        resid = yw - xw @ params
        dof = max(th.size - 3, 1)
        cov = cov * float(resid @ resid) / dof

    a, b, c = params
    if a <= 0:
        raise FitError("non-positive mean level in visibility fit")
    amp = math.hypot(b, c)
    v = amp / a
    # gradient of sqrt(b^2+c^2)/a, with the amp -> 0 limit handled separately
    if amp > 1e-300:
        g = np.array([-amp / a**2, b / (amp * a), c / (amp * a)])
    else:
        g = np.array([0.0, 1.0 / a, 1.0 / a])
    sigma = float(np.sqrt(max(g @ cov @ g, 0.0)))
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
