"""Sparse complex-amplitude algebra for two-photon polarization states.

A state is a normalized map (corroborative mode, test mode) -> amplitude,
where a mode is a (spatial path, polarization) pair.  Only the two-photon
sector is represented: every key is exactly one excitation on each side.
There is no density matrix: every input, mixed or pure, is a list of
weighted pure states (``experiment.source``).
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

H = "H"
V = "V"
POLARIZATIONS = (H, V)

#: amplitudes below this magnitude are dropped from the sparse map
PRUNE_TOL = 1e-15


class Mode(NamedTuple):
    path: str
    pol: str


ModePair = tuple[Mode, Mode]


class StateError(ValueError):
    """Raised for degenerate or invalid state constructions."""


class TwoPhotonState:
    """Immutable normalized amplitude map over (corroborative, test) mode pairs."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: dict[ModePair, complex]):
        norm2 = sum(abs(a) ** 2 for a in amplitudes.values())
        if norm2 <= 0.0:
            raise StateError("all-zero amplitude vector is degenerate")
        scale = 1.0 / math.sqrt(norm2)
        amps = {}
        for key, a in amplitudes.items():
            a = complex(a) * scale
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise StateError(f"non-finite amplitude at {key}")
            if abs(a) > PRUNE_TOL:
                amps[key] = a
        self.amplitudes = amps

    def __repr__(self):
        terms = ", ".join(
            f"{_key_str(k)}: {a:.4g}" for k, a in sorted(self.amplitudes.items())
        )
        return f"TwoPhotonState({terms})"


def make_state(entries: Iterable[tuple[ModePair, complex]]) -> TwoPhotonState:
    """Build a normalized state; duplicate keys are summed before normalizing."""
    amps: dict[ModePair, complex] = {}
    empty = True
    for key, a in entries:
        empty = False
        amps[key] = amps.get(key, 0j) + complex(a)
    if empty:
        raise StateError("no entries given")
    return TwoPhotonState(amps)


def fidelity(s1: TwoPhotonState, s2: TwoPhotonState) -> float:
    """|<s1|s2>|^2 -- insensitive to global phase."""
    a1 = s1.amplitudes
    overlap = 0j
    for key, a in s2.amplitudes.items():
        b = a1.get(key)
        if b is not None:
            overlap += b.conjugate() * a
    return abs(overlap) ** 2


def _key_str(key: ModePair) -> str:
    cm, tm = key
    return f"{cm.path}.{cm.pol}|{tm.path}.{tm.pol}"


def dump_state(state: TwoPhotonState) -> str:
    """JSON dump: {"cPath.cPol|tPath.tPol": [re, im], ...}."""
    import json

    obj = {
        _key_str(k): [a.real, a.imag] for k, a in sorted(state.amplitudes.items())
    }
    return json.dumps(obj, indent=2)

