"""Single-photon mode-space unitaries and their application to two-photon states.

An element acts on the photon on one of its declared input paths; the two
photons never share a path.  ``propagate`` carries one photon through a chain.

Conventions (fixed so that the interferometer reproduces the textbook
amplitudes exactly, see tests):
  * all ordinary beam-splitters put a factor i on reflection;
  * a rotated polarizing beam-splitter transmits the cos*H - sin*V component
    and reflects the sin*H + cos*V component, both without extra phase;
  * the bulk polarizing beam-splitters used inside the composite
    polarization-dependent splitter reflect without extra phase.
"""
from __future__ import annotations

import cmath
import math
from typing import Iterable

from .states import H, V, Mode, TwoPhotonState

UNITARITY_TOL = 1e-12


class ElementError(ValueError):
    """Raised for invalid element construction or application."""


class OpticalElement:
    """Sparse linear map on one photon's mode space.

    ``columns`` maps each declared input mode to its output amplitudes.
    Modes not declared pass through unchanged, except that a declared input
    path with a missing polarization is treated as a configuration error.
    """

    __slots__ = ("name", "columns", "input_paths")

    def __init__(self, name: str, columns: dict[Mode, dict[Mode, complex]]):
        self.name = name
        self.columns = {
            m: {o: complex(a) for o, a in col.items() if a != 0}
            for m, col in columns.items()
        }
        self.input_paths = {m.path for m in columns}
        dev = check_unitary(self)
        if dev > UNITARITY_TOL:
            raise ElementError(f"{name}: not unitary, max deviation {dev:.3g}")

    def map_mode(self, mode: Mode) -> dict[Mode, complex]:
        col = self.columns.get(mode)
        if col is not None:
            return col
        if mode.path in self.input_paths:
            raise ElementError(
                f"{self.name}: mode {mode} on a declared input path has no column"
            )
        return {mode: 1.0 + 0j}


def check_unitary(element: OpticalElement) -> float:
    """Return max |U^dag U - I| over the element's declared input space.

    For elements whose output space is larger than the input space this is
    an isometry check, which is the invariant ``apply`` relies on.
    """
    cols = list(element.columns.values())
    dev = 0.0
    for i, ci in enumerate(cols):
        for j, cj in enumerate(cols):
            dot = sum(a.conjugate() * cj.get(o, 0j) for o, a in ci.items())
            dev = max(dev, abs(dot - (i == j)))
    return dev


def apply(element: OpticalElement, state: TwoPhotonState) -> TwoPhotonState:
    """Apply an element linearly to a two-photon state: to the corroborative
    photon if its one path is an input path of the element, else to the test one."""
    corroborative_path = next(iter(state.amplitudes))[0].path
    acting_test = corroborative_path not in element.input_paths
    out: dict = {}
    for (cm, tm), amp in state.amplitudes.items():
        col = element.map_mode(tm if acting_test else cm)
        for mode, a in col.items():
            key = (cm, mode) if acting_test else (mode, tm)
            out[key] = out.get(key, 0j) + amp * a
    return TwoPhotonState(out)


def apply_all(
    elements: Iterable[OpticalElement], state: TwoPhotonState
) -> TwoPhotonState:
    for el in elements:
        state = apply(el, state)
    return state


def _require_distinct(*paths: str):
    if len(set(paths)) != len(paths):
        raise ElementError(f"repeated path labels {paths}")


def beam_splitter_50_50(in1: str, in2: str, out1: str, out2: str) -> OpticalElement:
    """Polarization-independent 50/50 splitter, phase i on the cross port."""
    _require_distinct(in1, in2)
    _require_distinct(out1, out2)
    t = 1.0 / math.sqrt(2.0)
    cols = {}
    for pol in (H, V):
        cols[Mode(in1, pol)] = {Mode(out1, pol): t, Mode(out2, pol): 1j * t}
        cols[Mode(in2, pol)] = {Mode(out2, pol): t, Mode(out1, pol): 1j * t}
    return OpticalElement(f"BS({in1},{in2}->{out1},{out2})", cols)


def phase_shifter(path: str, theta: float) -> OpticalElement:
    """Multiply both polarizations on ``path`` by exp(i*theta)."""
    ph = cmath.exp(1j * theta)
    cols = {Mode(path, pol): {Mode(path, pol): ph} for pol in (H, V)}
    return OpticalElement(f"phase({path},{theta:.6g})", cols)


def pdbs(in_a: str, in_b: str, out_a: str, out_b: str) -> OpticalElement:
    """Polarization-dependent splitter: H fully transmitted, V split 50/50
    with phase i on the cross port."""
    _require_distinct(in_a, in_b)
    _require_distinct(out_a, out_b)
    t = 1.0 / math.sqrt(2.0)
    cols = {
        Mode(in_a, H): {Mode(out_a, H): 1.0},
        Mode(in_b, H): {Mode(out_b, H): 1.0},
        Mode(in_a, V): {Mode(out_a, V): t, Mode(out_b, V): 1j * t},
        Mode(in_b, V): {Mode(out_b, V): t, Mode(out_a, V): 1j * t},
    }
    return OpticalElement(f"PDBS({in_a},{in_b}->{out_a},{out_b})", cols)


def pbs_rotated(path_in: str, path_t: str, path_r: str, angle_deg: float) -> OpticalElement:
    """Polarizing splitter analyzed at ``angle_deg`` from the H axis.

    Transmits the projection on cos*H - sin*V toward ``path_t`` (relabeled H)
    and reflects the projection on sin*H + cos*V toward ``path_r`` (relabeled
    V).  At 0 deg this is an ordinary H/V splitter; at 45 deg it erases the
    H/V distinction of the incoming photon.
    """
    _require_distinct(path_t, path_r)
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    cols = {
        Mode(path_in, H): {Mode(path_t, H): c, Mode(path_r, V): s},
        Mode(path_in, V): {Mode(path_t, H): -s, Mode(path_r, V): c},
    }
    return OpticalElement(f"PBS({path_in}->{path_t},{path_r}@{angle_deg:g}deg)", cols)


def polarization_rotator(path: str, alpha_deg: float) -> OpticalElement:
    """Real polarization rotation by ``alpha_deg`` on one path:
    H -> cos*H + sin*V, V -> -sin*H + cos*V."""
    a = math.radians(alpha_deg)
    c, s = math.cos(a), math.sin(a)
    cols = {
        Mode(path, H): {Mode(path, H): c, Mode(path, V): s},
        Mode(path, V): {Mode(path, H): -s, Mode(path, V): c},
    }
    return OpticalElement(f"rot({path},{alpha_deg:g}deg)", cols)


def pdbs_composite() -> list[OpticalElement]:
    """Bulk realization of the polarization-dependent splitter on paths ``a``
    and ``b``.

    Four H/V polarizing splitters route the H components around an ordinary
    50/50 splitter while the V components pass through it; a final pair of
    splitters recombines the two polarizations on each output port.
    """
    def route(name, *routes):
        # (input path, output path, polarization) rails of an H/V splitter
        cols = {Mode(i, p): {Mode(o, p): 1.0} for i, o, p in routes}
        return OpticalElement(name, cols)

    # splitter stage: H reflected onto bypass rails, V transmitted toward BS
    return [
        route("PBS-split-a", ("a", "_ha", H), ("a", "_va", V)),
        route("PBS-split-b", ("b", "_hb", H), ("b", "_vb", V)),
        beam_splitter_50_50("_va", "_vb", "_wa", "_wb"),
        route("PBS-merge-a", ("_ha", "a", H), ("_wa", "a", V)),
        route("PBS-merge-b", ("_hb", "b", H), ("_wb", "b", V)),
    ]


def propagate(chain: Iterable[OpticalElement],
              amplitudes: dict[Mode, complex]) -> dict[Mode, complex]:
    """One photon's mode amplitudes carried through an element sequence."""
    for element in chain:
        out: dict[Mode, complex] = {}
        for m, a in amplitudes.items():
            for o, b in element.map_mode(m).items():
                out[o] = out.get(o, 0j) + a * b
        amplitudes = out
    return amplitudes
