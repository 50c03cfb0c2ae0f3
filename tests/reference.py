"""Independent test references: a click-by-click window simulation and a
per-outcome weighted sum of the window cells, against which the sampler's
closed-form window cells are tested, a sinusoid fit in exact rational
arithmetic, a parser for ``dump_state`` files, and a probe of the norm
``elements.apply`` builds."""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from qbs_sim import elements as el
from qbs_sim import experiment as qdc
from qbs_sim import montecarlo as mc
from qbs_sim.states import Mode, ModePair, TwoPhotonState

#: detector names, corroborative first
DETECTORS = ("D_H", "D_V", "D_a", "D_a'", "D_b", "D_b'")
#: terminal path -> detector
PATH_DETECTORS = {p: d for d, p in qdc.DETECTOR_PATHS.items()}
#: terminal-path order matching the joint outcome encoding
_PATH_TO_DET = tuple(
    DETECTORS.index(PATH_DETECTORS[p]) for p in qdc.TERMINAL_PATHS
)


def sample_shot(settings: qdc.ExperimentSettings, model: mc.DetectionModel, theta: float,
                alpha_deg: float, rng: np.random.Generator) -> frozenset[str]:
    """Single coincidence window at the point (theta, alpha); returns the set
    of detectors that clicked."""
    probs = mc.joint_outcome_probabilities(settings, theta, alpha_deg)
    outcome = int(rng.choice(8, p=probs))
    clicked = set()
    if rng.random() < model.efficiency:
        clicked.add(DETECTORS[outcome // 4])
    if rng.random() < model.efficiency:
        clicked.add(DETECTORS[_PATH_TO_DET[outcome % 4]])
    for det in DETECTORS:
        if rng.random() < model.dark_probability:
            clicked.add(det)
    return frozenset(clicked)


def window_cells(settings: qdc.ExperimentSettings, model: mc.DetectionModel, theta: float,
                 alpha_deg: float) -> list[float]:
    """The 6 window cells at the point (theta, alpha), in
    ``window_probability_grid`` order, as a sum over the 8 joint outcomes of
    the sparse reference state: each outcome is weighted by the probability
    that its clicks leave one corroborative and one test click in the cell's
    category."""
    eta, d = model.efficiency, model.dark_probability
    on = 1.0 - (1.0 - eta) * (1.0 - d)
    # P(only the signal detector fires), P(only one given other one fires)
    corr_sig, corr_other = on * (1.0 - d), (1.0 - on) * d
    test_sig, test_other = on * (1.0 - d) ** 3, (1.0 - on) * d * (1.0 - d) ** 2
    # corroborative signal (row) -> the single click is D_H / D_V (column)
    corr = ((corr_sig, corr_other), (corr_other, corr_sig))
    joint = mc.joint_outcome_probabilities(settings, theta, alpha_deg)
    valid = []
    for k in range(2):
        for group in qdc.GROUPS:
            paths = qdc.GROUP_PATHS[group]
            # the single test click lies in the group with the signal on p
            # or with a dark count
            valid.append(sum(
                joint[4 * c + i] * corr[c][k]
                * (test_sig * (p in paths) + (len(paths) - (p in paths)) * test_other)
                for c in range(2) for i, p in enumerate(qdc.TERMINAL_PATHS)))
    z_c = (1.0 - on) * (1.0 - d)
    z_t = (1.0 - on) * (1.0 - d) ** 3
    zero = z_c + z_t - z_c * z_t
    return valid + [zero, max(1.0 - sum(valid) - zero, 0.0)]


def exact_fit(thetas, values, stderrs=None) -> tuple[float, float]:
    """The unclamped visibility and its uncertainty as
    ``analysis.fit_visibility`` defines them, from the weighted normal
    equations solved in exact rational arithmetic on the given floats and the
    floats of their cosines and sines; only the final gradient and square
    roots round.  (``numpy.linalg.lstsq`` is no reference here: on scans
    with standard errors floored at 1e-6 its visibility is off the exact
    solution by up to 5e-9.)"""
    rows = [(Fraction(1), Fraction(math.cos(t)), Fraction(math.sin(t))) for t in thetas]
    ys = [Fraction(y) for y in values]
    weights = ([Fraction(1)] * len(rows) if stderrs is None
               else [1 / Fraction(e) ** 2 for e in stderrs])
    gram = [[sum(w * x[i] * x[j] for w, x in zip(weights, rows)) for j in range(3)]
            for i in range(3)]
    rhs = [sum(w * x[i] * y for w, x, y in zip(weights, rows, ys)) for i in range(3)]
    # cofactors by cyclic indices, which carry their signs for a 3x3 matrix
    cof = [[gram[(i + 1) % 3][(j + 1) % 3] * gram[(i + 2) % 3][(j + 2) % 3]
            - gram[(i + 1) % 3][(j + 2) % 3] * gram[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]
    det = sum(g * c for g, c in zip(gram[0], cof[0]))
    cov = [[c / det for c in row] for row in cof]  # symmetric, so no transpose
    params = [sum(c * r for c, r in zip(row, rhs)) for row in cov]
    if stderrs is None:
        rss = sum((y - sum(p * xi for p, xi in zip(params, x))) ** 2
                  for x, y in zip(rows, ys))
        cov = [[c * rss / max(len(rows) - 3, 1) for c in row] for row in cov]
    a, b, c = map(float, params)
    amp = math.hypot(b, c)
    grad = [Fraction(-amp / a**2), Fraction(b / (amp * a)), Fraction(c / (amp * a))]
    var = sum(gi * gj * cov[i][j] for i, gi in enumerate(grad) for j, gj in enumerate(grad))
    return amp / a, math.sqrt(var)


def parse_dump(text: str) -> dict[ModePair, complex]:
    """The amplitudes of a ``dump_state`` file, keyed by (corroborative,
    test) mode pair."""
    amplitudes = {}
    for key, (re, im) in json.loads(text).items():
        c, t = key.split("|")
        cp, cpol = c.rsplit(".", 1)
        tp, tpol = t.rsplit(".", 1)
        amplitudes[(Mode(cp, cpol), Mode(tp, tpol))] = complex(re, im)
    return amplitudes


def raw_norms(monkeypatch) -> list[float]:
    """Records sum |a|^2 of every amplitude map ``elements.apply`` builds,
    before ``TwoPhotonState`` divides it by its norm, so that a norm check on
    the recorded values can fail."""
    norms = []

    def recording(amplitudes):
        norms.append(sum(abs(a) ** 2 for a in amplitudes.values()))
        return TwoPhotonState(amplitudes)

    monkeypatch.setattr(el, "TwoPhotonState", recording)
    return norms
