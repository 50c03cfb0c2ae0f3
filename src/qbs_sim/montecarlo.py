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

Stream ``k`` of a seed is numpy's ``PCG64(SeedSequence(entropy=seed,
spawn_key=(k,)))``, for k in [0, 2**32).  ``_stream_states`` derives the
states of a grid's streams in one vectorized pass, and ``run_grid`` loads
them into one generator, so the draws are those of a generator per point.
"""
from __future__ import annotations

from itertools import permutations
from operator import index
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


def joint_outcome_probabilities(settings: qdc.ExperimentSettings) -> list[float]:
    """Length-8 list over (corroborative pol x terminal path) outcomes: the
    weighted sum over the evolved source components of the sparse reference
    ``experiment.build_qdc_state``."""
    probs = [0.0] * 8
    for weight, component in qdc.build_qdc_state(settings):
        for (cm, tm), a in component.amplitudes.items():
            probs[4 * POLARIZATIONS.index(cm.pol) + qdc.TERMINAL_PATHS.index(tm.path)] += (
                weight * abs(a) ** 2)
    return probs


def window_probability_grid(settings: qdc.ExperimentSettings, model: DetectionModel,
                            thetas, alphas_deg) -> list[list[list[float]]]:
    """Exact probabilities of the 6 window cells on the whole (theta, alpha)
    grid, nested ``[theta][alpha][cell]``, cells in ``CountTable`` field
    order.  The grid replaces ``settings.theta`` and ``settings.alpha_deg``.

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
    compiled = qdc._compiled(settings.basis, settings.input)
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


def run(settings: qdc.ExperimentSettings, model: DetectionModel, n_shots: int,
        stream: int = 0) -> CountTable:
    """Draw a CountTable over ``n_shots`` windows at the point of ``settings``
    from RNG stream ``stream`` (see ``run_grid``)."""
    return run_grid(settings, model, [settings.theta], [settings.alpha_deg],
                    n_shots, first_stream=stream)[0]


# numpy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(const: int, mult: int):
    """The (constant, next constant) pairs of successive hash calls."""
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hash(value, const: int, nxt: int):
    """``SeedSequence``'s hash of ``value``, a Python int or a uint32 array."""
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """``SeedSequence``'s mix of a pool word ``x`` with a hashed word ``y``."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _stream_states(seed: int, first_stream: int, n: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of streams ``first_stream`` to ``first_stream
    + n - 1``, as numpy's ``SeedSequence`` mixing, ``generate_state(4,
    uint64)`` and PCG64 seeding give them.  The seed is mixed once; only the
    spawn key, which must fit in one 32-bit word, is mixed per stream."""
    import numpy as np

    if first_stream < 0 or first_stream + n > 1 << 32:
        raise ValueError(f"streams {first_stream} to {first_stream + n - 1} "
                         "lie outside [0, 2**32)")
    seed = index(seed)  # a numpy integer seeds like the Python int
    # the seed's 32-bit words, padded to the 4-word pool as before a spawn key
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 128), 32)]
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(w, *next(consts)) for w in words[:4]]
    for src, dst in permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    keys = np.arange(first_stream, first_stream + n, dtype=np.uint64).astype(np.uint32)
    for word in words[4:] + [keys]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, *next(consts)))
    consts = _hash_constants(_INIT_B, _MULT_B)
    out = [_hash(pool[i % 4], *next(consts)).astype(np.uint64) for i in range(8)]
    s_hi, s_lo, q_hi, q_lo = ((out[2 * i + 1] << 32 | out[2 * i]).tolist() for i in range(4))
    incs = [(hi << 65 | lo << 1 | 1) & _MASK128 for hi, lo in zip(q_hi, q_lo)]
    return [(((hi << 64 | lo) + inc) * _PCG64_MULT + inc & _MASK128, inc)
            for hi, lo, inc in zip(s_hi, s_lo, incs)]


def run_grid(settings: qdc.ExperimentSettings, model: DetectionModel, thetas,
             alphas_deg, shots_per_point: int, first_stream: int = 0) -> list[CountTable]:
    """One CountTable per (theta, alpha) grid point, row-major, each drawn in
    one multinomial from the grid's window probabilities.

    Point ``i`` draws from stream ``first_stream + i`` of the seed (see
    ``_stream_states``), so repeated calls give the same tables and a point
    gets the same table as a ``run`` at that point with that stream.
    """
    import numpy as np

    if shots_per_point <= 0:
        raise ValueError("shots per point must be positive")
    cells = [p for row in window_probability_grid(settings, model, thetas, alphas_deg)
             for p in row]
    bit_generator = np.random.PCG64(0)  # a fixed seed: each point sets its state
    rng = np.random.Generator(bit_generator)
    tables = []
    for p, (state, inc) in zip(cells, _stream_states(model.seed, first_stream, len(cells))):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        tables.append(CountTable._make(rng.multinomial(shots_per_point, p).tolist()))
    return tables

