"""Finite-count coincidence sampling on top of the analytic probabilities.

Each shot is one photon pair / coincidence window: the ideal joint outcome
(corroborative detector, terminal path) is drawn from the evolved state, each
signal click then survives with the detector efficiency, and every detector
can fire spuriously with the dark probability.  Windows are kept only when
exactly one corroborative and exactly one test detector clicked; everything
else is counted as a discard, mirroring hardware XOR gating.

Those three draws are independent, so the probabilities of the 6 count cells
have a closed form (``window_probability_grid``), and a whole count table is
one multinomial draw from it, made as a chain of five exact binomials
(``_table``).  ``run_grid`` evaluates those probabilities for a whole (theta,
alpha) grid at once and draws its points in row-major order from one
generator, ``random.Random((seed << 32) | stream)``.

The binomials (``_binomial``) use only that generator's ``random()``: the
geometric method below n*p = 10 and Hoermann's BTRS above it.  So the module
imports no numpy, and a seed's tables depend on Python's Mersenne
Twister and ``math`` functions only, not on a numpy version.
"""
from __future__ import annotations

from itertools import accumulate
from math import floor, lgamma, log, log1p, pi, sqrt
from operator import index
from random import Random
from typing import NamedTuple

from . import experiment as qdc
from .states import POLARIZATIONS

class _Model(NamedTuple):
    efficiency: float = 0.25        # per-detector click survival probability
    dark_probability: float = 4.8e-4  # spurious click probability per window
    seed: int = 0


class DetectionModel(_Model):
    """Immutable detection model; every construction, ``_replace`` and
    ``_make`` included, validates the probabilities and the seed."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_probability <= 1.0:
            raise ValueError(f"dark probability {self.dark_probability} outside [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative")
        return self

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds its copy through this
        return cls(*iterable)


class CountTable(NamedTuple):
    """Window counts of one point, in ``window_probability_grid`` cell order:
    the four XOR-gated cells, named by the corroborative detector (``D_H``,
    ``D_V``) and the test group (A, B) that clicked, then the
    ``discarded_zero`` windows with no two-fold coincidence and the
    ``discarded_multi`` ones that violated the XOR condition."""

    h_a: int
    h_b: int
    v_a: int
    v_b: int
    discarded_zero: int
    discarded_multi: int

    @property
    def valid(self) -> int:
        return self.h_a + self.h_b + self.v_a + self.v_b

    @property
    def shots(self) -> int:
        return sum(self)


def joint_outcome_probabilities(settings: qdc.ExperimentSettings, theta: float,
                                alpha_deg: float) -> list[float]:
    """Length-8 list over (corroborative pol x terminal path) outcomes at the
    point (theta, alpha): the weighted sum over the evolved source components
    of the sparse reference ``experiment.build_qdc_state``."""
    probs = [0.0] * 8
    for weight, component in qdc.build_qdc_state(settings, theta, alpha_deg):
        for (cm, tm), a in component.amplitudes.items():
            probs[4 * POLARIZATIONS.index(cm.pol) + qdc.TERMINAL_PATHS.index(tm.path)] += (
                weight * abs(a) ** 2)
    return probs


def window_probability_grid(settings: qdc.ExperimentSettings, model: DetectionModel,
                            thetas, alphas_deg) -> list[list[list[float]]]:
    """Exact probabilities of the 6 window cells on the whole (theta, alpha)
    grid, nested ``[theta][alpha][cell]``, cells in ``CountTable`` field
    order.

    Given the joint outcome the two sides click independently.  A side's
    signal detector fires with probability ``on = 1-(1-eta)(1-d)`` and each
    of its other detectors with the dark probability ``d``.  Each cell is
    linear in the two XOR groups' forms of ``experiment``, evaluated once per
    theta, and the click weights are folded into the rotator weights once per
    alpha, so a point costs four 3-term dot products.
    """
    eta, d = model.efficiency, model.dark_probability
    on = 1.0 - (1.0 - eta) * (1.0 - d)
    # P(only the signal detector fires), P(only one given other one fires)
    corr_sig, corr_other = on * (1.0 - d), (1.0 - on) * d
    test_sig, test_other = on * (1.0 - d) ** 3, (1.0 - on) * d * (1.0 - d) ** 2
    # the single test click lies in a group with the signal on one of the
    # group's 2 paths, or with a dark count on one of its 2 detectors
    own, other = test_sig + test_other, 2.0 * test_other
    # a side with no click at all; its probability is the same for every outcome
    z_c = (1.0 - on) * (1.0 - d)
    z_t = (1.0 - on) * (1.0 - d) ** 3
    zero = z_c + z_t - z_c * z_t
    # per alpha: the (U, W, X) weights of the single corroborative click being
    # D_H and being D_V, then the rotator's norm, the weight of U + W in P(H) + P(V)
    rotators = [[corr_sig * x + corr_other * y for x, y in zip(h, v)]
                + [corr_other * x + corr_sig * y for x, y in zip(h, v)] + [h[0] + v[0]]
                for h, v in map(qdc._rotator_weights, alphas_deg)]
    compiled = qdc._compiled(settings)
    grid = []
    for theta in thetas:
        (au, aw, ax), (bu, bw, bx) = qdc._group_forms(compiled, theta)
        # each group's forms, weighted by the test side's single-click
        # probabilities with the signal on its own paths or on the other's
        qau, qaw, qax = own * au + other * bu, own * aw + other * bw, own * ax + other * bx
        qbu, qbw, qbx = own * bu + other * au, own * bw + other * aw, own * bx + other * ax
        norm = au + aw + bu + bw
        row = []
        for hu, hw, hx, vu, vw, vx, rotator_norm in rotators:
            total = rotator_norm * norm  # of the joint outcome probabilities
            if abs(total - 1.0) > 1e-9:
                raise RuntimeError(f"joint outcome probabilities sum to {total}")
            scale = 1.0 / total
            h_a = (hu * qau + hw * qaw + hx * qax) * scale
            h_b = (hu * qbu + hw * qbw + hx * qbx) * scale
            v_a = (vu * qau + vw * qaw + vx * qax) * scale
            v_b = (vu * qbu + vw * qbw + vx * qbx) * scale
            multi = max(1.0 - (h_a + h_b + v_a + v_b) - zero, 0.0)  # clamp rounding below 0
            row.append([h_a, h_b, v_a, v_b, zero, multi])
        grid.append(row)
    return grid


def run(settings: qdc.ExperimentSettings, model: DetectionModel, theta: float,
        alpha_deg: float, n_shots: int, stream: int = 0) -> CountTable:
    """Draw a CountTable over ``n_shots`` windows at the point (theta, alpha)
    from RNG stream ``stream`` (see ``run_grid``)."""
    return run_grid(settings, model, [theta], [alpha_deg], n_shots, stream)[0]


#: ``_stirling_tail(k)`` for k < 10, where the series is not yet accurate
_STIRLING_TAIL = tuple(lgamma(k + 1.0) - (k + 0.5) * log(k + 1.0) + k + 1.0
                       - 0.5 * log(2.0 * pi) for k in range(10))


def _stirling_tail(k: int) -> float:
    """``log(k!) - ((k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2)``, by
    table below 10 and by Stirling's series (error below 4e-13) above."""
    if k < 10:
        return _STIRLING_TAIL[k]
    x = 1.0 / (k + 1)
    x2 = x * x
    return (1.0 / 12 - x2 * (1.0 / 360 - x2 * (1.0 / 1260 - x2 / 1680))) * x


def _binomial(random, n: int, p: float) -> int:
    """An exact Binomial(n, p) variate for an int ``n >= 0`` and ``0 <= p <=
    1``, from the uniform ``random()``.  p > 1/2 draws the failures.  Below
    n*p = 10 the successes are counted by geometric waiting times; above it
    Hoermann's BTRS (1993) draws them by transformed rejection."""
    if p > 0.5:
        return n - _binomial(random, n, 1.0 - p)
    if n * p < 10.0:
        if p <= 0.0:
            return 0
        log_q = log1p(-p)
        k, left = 0, n  # successes so far, trials left
        while True:
            t = log(1.0 - random()) / log_q  # failures before the next success, floored
            if t >= left:
                return k
            left -= int(t) + 1
            k += 1
    spq = sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    r = p / (1.0 - p)
    nr = (n + 1) * r
    # the hat's centre n*p + 1/2 = c + frac, and the mode m = floor((n + 1) p);
    # beyond 2**32 windows a float product would round off their units, so
    # they are computed exactly
    c, frac, m = 0, n * p + 0.5, floor((n + 1) * p)
    if n >> 32:
        num, den = p.as_integer_ratio()
        c, frac = divmod(2 * n * num + den, 2 * den)
        frac /= 2 * den
        m = (n + 1) * num // den
    while True:
        u = random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = c + floor((2.0 * a / us + b) * u + frac)
        if k < 0 or k > n:
            continue
        v = 1.0 - random()  # in (0, 1], so that its log is finite
        if us >= 0.07 and v <= v_r:
            return k
        # accept k with probability f(k)/f(m) under the hat, f the pmf
        v *= alpha / (a / (us * us) + b)
        j = k - m
        if -15 <= j <= 15:  # f(k)/f(m) as a product of successive ratios
            f = 1.0
            for i in range(m + 1, k + 1):
                f *= nr / i - r
            for i in range(k + 1, m + 1):
                v *= nr / i - r
            if v <= f:
                return k
        # log f(k)/f(m), each log-factorial difference in Stirling form with
        # log1p of the exact ratio: a plain lgamma difference loses all
        # precision near n = 2**62
        elif log(v) <= (j * (log(r) - log((m + 1) / (n - m + 1)))
                        - (k + 0.5) * log1p(j / (m + 1))
                        - (n - k + 0.5) * log1p(-j / (n - m + 1))
                        + _stirling_tail(m) + _stirling_tail(n - m)
                        - _stirling_tail(k) - _stirling_tail(n - k)):
            return k


def _table(random, n: int, cells) -> CountTable:
    """The CountTable of ``n`` windows with cell probabilities ``cells``: a
    chain of five binomials, each cell drawn from the windows left at its
    share of the cells not yet drawn; the last cell takes what is left."""
    tails = list(accumulate(reversed(cells)))
    counts = []
    for p, tail in zip(cells[:5], tails[:0:-1]):
        k = _binomial(random, n, p / tail) if p > 0.0 else 0
        counts.append(k)
        n -= k
    counts.append(n)
    return CountTable._make(counts)


def run_grid(settings: qdc.ExperimentSettings, model: DetectionModel, thetas,
             alphas_deg, shots_per_point: int, stream: int = 0) -> list[CountTable]:
    """One CountTable per (theta, alpha) grid point, row-major, each drawn
    from the grid's window probabilities by ``_table``.

    The points are drawn in turn from one generator,
    ``random.Random((seed << 32) | stream)`` for a ``stream`` in [0, 2**32),
    so repeated calls give the same tables and each (seed, stream) pair has
    its own sequence.
    """
    if shots_per_point <= 0:
        raise ValueError("shots per point must be positive")
    if not 0 <= stream < 1 << 32:
        raise ValueError(f"stream {stream} lies outside [0, 2**32)")
    random = Random(index(model.seed) << 32 | stream).random
    return [_table(random, shots_per_point, cells)
            for row in window_probability_grid(settings, model, thetas, alphas_deg)
            for cells in row]
