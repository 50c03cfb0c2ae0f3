"""The full quantum-beam-splitter experiment: interferometer with a
polarization-dependent output splitter, 45-degree erasers, and a rotated
corroborative analyzer.

Path labels: the corroborative photon travels on path ``c``; the test photon
enters on path ``a``, the two interferometer arms are ``a`` (upper) and ``b``
(lower), and the eraser outputs are ``a``/``a'`` (from the upper arm) and
``b``/``b'`` (from the lower arm).

Detector naming: the coincidence group gated with the corroborative H
detector that carries the cos^2(theta/2) fringe sits behind the eraser on the
*lower* arm with the reflection conventions used here, so detectors D_a/D_a'
are wired to terminal paths b/b' and D_b/D_b' to a/a'.  The permutation only
renames detectors; all probabilities are unaffected.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

from . import elements as el
from .states import H, V, POLARIZATIONS, Mode, TwoPhotonState, make_state
from .surfaces import CorrelationSurface

BASIS_HV = "HV"
BASIS_DA = "DA"

INPUT_ENTANGLED = "entangled"
INPUT_MIXTURE = "mixture"

CORROBORATIVE_DETECTORS = ("D_H", "D_V")
GROUP_A = "A"
GROUP_B = "B"
GROUPS = (GROUP_A, GROUP_B)

#: detector -> terminal path (see module docstring for the wiring choice)
DETECTOR_PATHS = {"D_a": "b", "D_a'": "b'", "D_b": "a", "D_b'": "a'"}
#: XOR coincidence groups over terminal paths
GROUP_PATHS = {
    GROUP_A: frozenset({"b", "b'"}),
    GROUP_B: frozenset({"a", "a'"}),
}
#: fixed terminal-path order of the joint outcomes
TERMINAL_PATHS = ("a", "a'", "b", "b'")
#: the interferometer arm that carries the phase plate
PHASE_ARM = "b"
#: test-photon modes behind the erasers
TERMINAL_MODES = tuple(Mode(p, pol) for p in TERMINAL_PATHS for pol in POLARIZATIONS)


class _Settings(NamedTuple):
    basis: str = BASIS_HV
    input: str = INPUT_ENTANGLED


class ExperimentSettings(_Settings):
    """The apparatus, its analysis basis and its input; a point (theta, alpha)
    is passed beside it.  Every construction, ``_replace`` and ``_make``
    included, validates the basis and the input."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.basis not in (BASIS_HV, BASIS_DA):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.input not in (INPUT_ENTANGLED, INPUT_MIXTURE):
            raise ValueError(f"unknown input {self.input!r}")
        return self

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds its copy through this
        return cls(*iterable)


def bell_state() -> TwoPhotonState:
    """Maximally entangled 1/sqrt(2) (|H>_c|H>_a + |V>_c|V>_a)."""
    return make_state([((Mode("c", p), Mode("a", p)), 1.0) for p in POLARIZATIONS])


def source(input: str) -> list[tuple[float, TwoPhotonState]]:
    """The input as weighted pure two-photon components, the weights summing
    to 1: the Bell state alone for the entangled input, and its terms |HH>
    and |VV> at 1/2 each for the dephased mixture 1/2 |HH><HH| + 1/2 |VV><VV|."""
    if input == INPUT_ENTANGLED:
        return [(1.0, bell_state())]
    return [(0.5, make_state([((Mode("c", p), Mode("a", p)), 1.0)])) for p in POLARIZATIONS]


def _test_side_halves(basis: str
                      ) -> tuple[list[el.OpticalElement], list[el.OpticalElement]]:
    """Test-side elements before and after the phase plate on ``PHASE_ARM``."""
    before: list[el.OpticalElement] = []
    if basis == BASIS_DA:
        before.append(el.polarization_rotator("a", -45.0))
    before.append(el.beam_splitter_50_50("a", "b", "a", "b"))
    after = [
        el.pdbs("a", "b", "a", "b"),
        el.pbs_rotated("a", "a", "a'", 45.0),
        el.pbs_rotated("b", "b", "b'", 45.0),
    ]
    return before, after


def test_side_circuit(settings: ExperimentSettings, theta: float) -> list[el.OpticalElement]:
    """Entrance splitter, phase plate at ``theta``, polarization-dependent
    splitter, and the two 45-degree erasers, in propagation order.

    In the diagonal analysis basis the incoming ensemble is expressed in the
    rotated frame by turning the test photon's polarization by -45 degrees
    before the interferometer; for the entangled input this is identical to
    offsetting the corroborative rotation by +45 degrees.
    """
    before, after = _test_side_halves(settings.basis)
    return before + [el.phase_shifter(PHASE_ARM, theta)] + after


def build_qdc_state(settings: ExperimentSettings, theta: float, alpha_deg: float
                    ) -> list[tuple[float, TwoPhotonState]]:
    """Evolve each component of the configured input's ``source`` through the
    full apparatus at phase ``theta`` and corroborative rotation
    ``alpha_deg``, element by element: one ``(weight, state)`` per component.
    This sparse path is the reference: it gives the checkpoint and dumped
    states and ``montecarlo.joint_outcome_probabilities``, and the compiled
    group forms are tested against it."""
    chain = test_side_circuit(settings, theta) + [el.polarization_rotator("c", alpha_deg)]
    return [(w, el.apply_all(chain, s)) for w, s in source(settings.input)]


def _through_arms(before, after, entrance: dict[Mode, complex]) -> tuple[dict, dict]:
    """The test photon's ``entrance`` amplitudes carried through the test side
    and split at the phase plate into terminal amplitudes ``(a, b)`` through the
    other arm and ``PHASE_ARM``: the whole side at theta gives a + exp(i theta) b."""
    arms = el.propagate(before, entrance)
    return tuple(el.propagate(after, {m: x for m, x in arms.items()
                                      if (m.path == PHASE_ARM) == plate})
                 for plate in (False, True))


@lru_cache(maxsize=None)
def _compiled(settings: ExperimentSettings
              ) -> tuple[tuple[tuple[float, float, float], ...], ...]:
    """The input carried through the test side, built once per settings: for each
    group in ``GROUPS`` order, its forms ``(U, W, X)``, each as ``(c0, c1, c2)``
    meaning c0 + Re(exp(i theta) (c1 - i c2)).  Each weighted ``source`` component's
    test photon, with the corroborative photon H and V, goes through the two arms
    to ``u = a_H + exp(i theta) b_H`` and ``w = a_V + exp(i theta) b_V`` per
    terminal mode; the forms sum |u|^2, |w|^2 and Re(u conj(w)) over a group's
    modes and the components.  Summed per arm, c0 >= |c1 - i c2| to rounding."""
    halves = _test_side_halves(settings.basis)
    forms = [[[0.0, 0.0, 0.0] for _ in range(3)] for _ in GROUPS]
    for weight, state in source(settings.input):
        arms = [_through_arms(*halves, {tm: x for (cm, tm), x in state.amplitudes.items()
                                        if cm.pol == cp}) for cp in POLARIZATIONS]
        for mode in TERMINAL_MODES:
            (a_h, b_h), (a_v, b_v) = ((a.get(mode, 0j), b.get(mode, 0j)) for a, b in arms)
            u, w, x = forms[0 if mode.path in GROUP_PATHS[GROUP_A] else 1]
            for form, c0, z in (
                    (u, abs(a_h) ** 2 + abs(b_h) ** 2, 2.0 * a_h.conjugate() * b_h),
                    (w, abs(a_v) ** 2 + abs(b_v) ** 2, 2.0 * a_v.conjugate() * b_v),
                    (x, (a_h * a_v.conjugate() + b_h * b_v.conjugate()).real,
                     b_h * a_v.conjugate() + a_h.conjugate() * b_v)):
                form[0] += weight * c0
                form[1] += weight * z.real
                form[2] -= weight * z.imag
    return tuple(tuple(map(tuple, group)) for group in forms)


def _group_forms(compiled, theta: float) -> list[list[float]]:
    """``[U, W, X]`` of each group in ``GROUPS`` order at phase ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return [[c0 + c1 * c + c2 * s for c0, c1, c2 in group] for group in compiled]


def _rotator_weights(alpha_deg: float) -> tuple[tuple[float, float, float], ...]:
    """Weights of a group's ``(U, W, X)`` in P(H, group) and in P(V, group)
    behind the rotator: ``P(H, g) = c^2 U - 2cs X + s^2 W`` and ``P(V, g) =
    s^2 U + 2cs X + c^2 W`` with c = cos(alpha), s = sin(alpha)."""
    a = math.radians(alpha_deg)
    c, s = math.cos(a), math.sin(a)
    cc, ss, cs2 = c * c, s * s, 2.0 * c * s
    return (cc, ss, -cs2), (ss, cc, cs2)


def _categories(settings: ExperimentSettings, corroborative: str, group: str,
                thetas, alphas_deg) -> list[float]:
    """Conditional probability of one category at each grid point, row-major
    in theta then alpha: the group's forms over the sum of both groups',
    each weighted by the rotator, so each point costs one division."""
    ci, gi = _category_index(corroborative, group)
    compiled = _compiled(settings)
    weights = [_rotator_weights(a)[ci] for a in alphas_deg]
    out = []
    for theta in thetas:
        forms = _group_forms(compiled, theta)
        g = forms[gi]
        t = [x + y for x, y in zip(*forms)]
        for ku, kw, kx in weights:
            out.append((ku * g[0] + kw * g[1] + kx * g[2])
                       / (ku * t[0] + kw * t[1] + kx * t[2]))
    return out


def category_probability(settings: ExperimentSettings, theta: float, alpha_deg: float,
                         corroborative: str = "D_H", group: str = GROUP_A) -> float:
    """Coincidence probability normalized per corroborative click,
    P(group | corroborative detector), at the point (theta, alpha).  This is
    the quantity the intensity correlation I(theta, alpha) refers to."""
    return _categories(settings, corroborative, group, [theta], [alpha_deg])[0]


def closed_form_ia(theta: float, alpha_deg: float) -> float:
    """Independent closed-form oracle for the (D_H, A-group) correlation:
    cos^2(theta/2) sin^2(alpha) + 1/2 cos^2(alpha)."""
    a = math.radians(alpha_deg)
    return math.cos(theta / 2.0) ** 2 * math.sin(a) ** 2 + 0.5 * math.cos(a) ** 2


def surface(settings: ExperimentSettings, thetas, alphas_deg,
            corroborative: str = "D_H", group: str = GROUP_A) -> CorrelationSurface:
    """Analytic correlation surface on the (theta, alpha) grid, row-major in
    theta then alpha."""
    return CorrelationSurface(thetas, alphas_deg, _categories(
        settings, corroborative, group, thetas, alphas_deg))


def _category_index(corroborative: str, group: str) -> tuple[int, int]:
    if corroborative not in CORROBORATIVE_DETECTORS:
        raise ValueError(f"unknown corroborative detector {corroborative!r}")
    if group not in GROUPS:
        raise ValueError(f"unknown test group {group!r}")
    return CORROBORATIVE_DETECTORS.index(corroborative), GROUPS.index(group)


# ---------------------------------------------------------------------------
# Hand-expanded reference states for the three apparatus checkpoints.  These
# are written down directly from the ideal-component amplitudes and serve as
# fixed oracles for the circuit evolution.
# ---------------------------------------------------------------------------

def reference_after_pdbs(theta: float) -> TwoPhotonState:
    """State after entrance splitter, phase plate and the polarization-
    dependent splitter, before the erasers."""
    e = cmath.exp(1j * theta)
    s2 = math.sqrt(2.0)
    return make_state(
        [
            ((Mode("c", H), Mode("a", H)), 0.5),
            ((Mode("c", H), Mode("b", H)), 0.5j * e),
            ((Mode("c", V), Mode("b", V)), (1j + 1j * e) / (2 * s2)),
            ((Mode("c", V), Mode("a", V)), (1 - e) / (2 * s2)),
        ]
    )


def _particle_entries(theta: float):
    e = cmath.exp(1j * theta)
    return [
        (Mode("a", H), 0.5),
        (Mode("a'", V), 0.5),
        (Mode("b", H), 0.5j * e),
        (Mode("b'", V), 0.5j * e),
    ]


def _wave_entries(theta: float):
    e = cmath.exp(1j * theta)
    k = 1.0 / (2.0 * math.sqrt(2.0))
    return [
        (Mode("a", H), -k * (1 - e)),
        (Mode("a'", V), k * (1 - e)),
        (Mode("b", H), -k * (1j * e + 1j)),
        (Mode("b'", V), k * (1j * e + 1j)),
    ]


def reference_after_erasers(theta: float) -> TwoPhotonState:
    """State after the erasers: the corroborative H component rides with the
    open-interferometer (particle) amplitudes and the V component with the
    closed-interferometer (wave) amplitudes.  It is the rotator checkpoint
    with the rotator at 0 degrees, which is the identity."""
    return reference_after_rotator(theta, 0.0)


def reference_after_rotator(theta: float, alpha_deg: float) -> TwoPhotonState:
    """Checkpoint state after additionally rotating the corroborative
    polarization by alpha."""
    a = math.radians(alpha_deg)
    c, s = math.cos(a), math.sin(a)
    w = 1.0 / math.sqrt(2.0)
    entries = []
    for tm, amp in _particle_entries(theta):
        entries.append(((Mode("c", H), tm), w * c * amp))
        entries.append(((Mode("c", V), tm), w * s * amp))
    for tm, amp in _wave_entries(theta):
        entries.append(((Mode("c", H), tm), -w * s * amp))
        entries.append(((Mode("c", V), tm), w * c * amp))
    return make_state(entries)
