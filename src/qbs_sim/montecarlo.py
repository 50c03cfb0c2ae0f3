"""Finite-count coincidence sampling on top of the analytic probabilities.

Each shot is one photon pair / coincidence window: the ideal joint outcome
(corroborative detector, terminal path) is drawn from the evolved state, each
signal click then survives with the detector efficiency, and every detector
can fire spuriously with the dark probability.  Windows are kept only when
exactly one corroborative and exactly one test detector clicked; everything
else is counted as a discard, mirroring hardware XOR gating.

Those three draws are independent, so the probabilities of the 6 count cells
have a closed form (``window_probability_grid``), and a whole count table is
a single multinomial draw from it.  ``run_grid`` evaluates those
probabilities for a whole (theta, alpha) grid at once and draws each point
from its own RNG stream.
"""
from __future__ import annotations

from operator import mul
from typing import NamedTuple

from . import experiment as qdc

CATEGORIES = tuple(
    (corr, grp) for corr in qdc.CORROBORATIVE_DETECTORS for grp in qdc.GROUPS
)


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
    """Window counts of one point: ``counts`` per category sum to ``valid``;
    ``discarded_zero`` windows had no two-fold coincidence and
    ``discarded_multi`` ones violated the XOR condition."""

    counts: dict
    valid: int
    discarded_zero: int
    discarded_multi: int
    shots: int


def _joint_outcome_grid(settings: qdc.ExperimentSettings, thetas,
                       alphas_deg) -> list[list[list[float]]]:
    """Joint outcome probabilities on the whole (theta, alpha) grid, nested
    ``[theta][alpha][outcome]``, from one batched evaluation."""
    grid = []
    for row in qdc.joint_probabilities(settings, thetas, alphas_deg):
        out = []
        for h, v in row:
            probs = h + v
            total = sum(probs)
            if abs(total - 1.0) > 1e-9:
                raise RuntimeError(f"joint outcome probabilities sum to {total}")
            out.append([p / total for p in probs])
        grid.append(out)
    return grid


def joint_outcome_probabilities(settings: qdc.ExperimentSettings) -> list[float]:
    """Length-8 list over (corroborative pol x terminal path) outcomes."""
    return _joint_outcome_grid(settings, [settings.theta], [settings.alpha_deg])[0][0]


def window_probability_grid(settings: qdc.ExperimentSettings, model: DetectionModel,
                            thetas, alphas_deg) -> list[list[list[float]]]:
    """Exact probabilities of the 6 window cells on the whole (theta, alpha)
    grid, nested ``[theta][alpha][cell]``: the 4 ``CATEGORIES`` in order, then
    ``discarded_zero``, then ``discarded_multi``.  The grid replaces
    ``settings.theta`` and ``settings.alpha_deg``.

    Given the joint outcome the two sides click independently.  A side's
    signal detector fires with probability ``on = 1-(1-eta)(1-d)`` and each
    of its other detectors with the dark probability ``d``.
    """
    eta, d = model.efficiency, model.dark_probability
    on = 1.0 - (1.0 - eta) * (1.0 - d)
    # P(only the signal detector fires), P(only one given other one fires)
    corr_sig, corr_other = on * (1.0 - d), (1.0 - on) * d
    test_sig, test_other = on * (1.0 - d) ** 3, (1.0 - on) * d * (1.0 - d) ** 2
    # corroborative signal (row) -> the single click is D_H / D_V (column)
    corr = ((corr_sig, corr_other), (corr_other, corr_sig))
    # per category (corroborative click k, test group): the weight of each
    # joint outcome (corroborative signal c, terminal path p), where the single
    # test click lies in the group with the signal on p or with a dark count
    categories = [
        [corr[c][k] * (test_sig * (p in paths) + (len(paths) - (p in paths)) * test_other)
         for c in range(2) for p in qdc.TERMINAL_PATHS]
        for k in range(2) for paths in (qdc.GROUP_PATHS[g] for g in qdc.GROUPS)
    ]
    # a side with no click at all; its probability is the same for every outcome
    z_c = (1.0 - on) * (1.0 - d)
    z_t = (1.0 - on) * (1.0 - d) ** 3
    zero = z_c + z_t - z_c * z_t
    grid = []
    for row in _joint_outcome_grid(settings, thetas, alphas_deg):
        cells = []
        for joint in row:
            valid = [sum(map(mul, joint, weights)) for weights in categories]
            multi = max(1.0 - sum(valid) - zero, 0.0)  # clamp rounding below 0
            cells.append(valid + [zero, multi])
        grid.append(cells)
    return grid


def run(settings: qdc.ExperimentSettings, model: DetectionModel, n_shots: int,
        stream: int = 0) -> CountTable:
    """Draw a CountTable over ``n_shots`` windows at the point of ``settings``
    from RNG stream ``stream`` (see ``run_grid``)."""
    return run_grid(settings, model, [settings.theta], [settings.alpha_deg],
                    n_shots, first_stream=stream)[0]


def _stream_seeds(seed: int, first_stream: int, n: int) -> list:
    """The ``SeedSequence`` of streams ``first_stream`` to ``first_stream + n
    - 1``: stream ``k`` is ``SeedSequence(entropy=seed, spawn_key=(k,))``."""
    import numpy as np

    return np.random.SeedSequence(entropy=seed, n_children_spawned=first_stream).spawn(n)


def run_grid(settings: qdc.ExperimentSettings, model: DetectionModel, thetas,
             alphas_deg, shots_per_point: int, first_stream: int = 0) -> list[CountTable]:
    """One CountTable per (theta, alpha) grid point, row-major, each drawn in
    one multinomial from the grid's window probabilities.

    Point ``i`` draws from its own generator, on stream ``first_stream + i``
    of the seed (see ``_stream_seeds``), so repeated calls give the same
    tables and a point gets the same table as a ``run`` at that point with
    that stream.
    """
    import numpy as np

    if shots_per_point <= 0:
        raise ValueError("shots per point must be positive")
    cells = [p for row in window_probability_grid(settings, model, thetas, alphas_deg)
             for p in row]
    tables = []
    for p, stream in zip(cells, _stream_seeds(model.seed, first_stream, len(cells))):
        rng = np.random.Generator(np.random.PCG64(stream))
        n = rng.multinomial(shots_per_point, p).tolist()
        tables.append(CountTable(
            counts=dict(zip(CATEGORIES, n[:4])),
            valid=sum(n[:4]),
            discarded_zero=n[4],
            discarded_multi=n[5],
            shots=shots_per_point,
        ))
    return tables

