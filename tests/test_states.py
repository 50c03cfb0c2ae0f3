import cmath
import math

import numpy as np
import pytest

from qbs_sim.states import (
    H,
    V,
    Mode,
    StateError,
    TwoPhotonState,
    dump_state,
    fidelity,
    make_state,
)
from qbs_sim import experiment as qdc
from reference import parse_dump

CH, CV = Mode("c", H), Mode("c", V)
AH, AV = Mode("a", H), Mode("a", V)


def bell():
    return make_state([((CH, AH), 1.0), ((CV, AV), 1.0)])


def random_state(rng, n_paths=4):
    keys = [
        (Mode("c", cp), Mode(p, tp))
        for cp in (H, V)
        for p in "abcd"[:n_paths]
        for tp in (H, V)
    ]
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    return make_state(zip(keys, amps))


def test_bell_state_amplitudes():
    s = bell()
    r = 1.0 / math.sqrt(2.0)
    assert s.amplitudes[(CH, AH)] == pytest.approx(r)
    assert s.amplitudes[(CV, AV)] == pytest.approx(r)


def test_single_term_identity():
    s = make_state([((CH, AH), 1.0)])
    assert s.amplitudes[(CH, AH)] == pytest.approx(1.0)


def test_3_4_5_normalization():
    s = make_state([((CH, AH), 3.0), ((CH, AV), 4.0)])
    assert s.amplitudes[(CH, AH)] == pytest.approx(0.6)
    assert s.amplitudes[(CH, AV)] == pytest.approx(0.8)


def test_duplicate_keys_summed_before_normalization():
    s = make_state([((CH, AH), 0.5), ((CH, AH), 0.5), ((CV, AV), 1.0)])
    assert s.amplitudes[(CH, AH)] == pytest.approx(1.0 / math.sqrt(2.0))


def test_all_zero_rejected():
    with pytest.raises(StateError):
        make_state([((CH, AH), 1.0), ((CH, AH), -1.0)])
    with pytest.raises(StateError):
        make_state([])


def test_normalization_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = random_state(rng)
        assert abs(sum(abs(a) ** 2 for a in s.amplitudes.values()) - 1.0) < 1e-12


def test_fidelity_identity_and_orthogonality():
    s = bell()
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
    hh = make_state([((CH, AH), 1.0)])
    vv = make_state([((CV, AV), 1.0)])
    assert fidelity(hh, vv) == 0.0


def test_fidelity_global_phase_and_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = random_state(rng)
        phi = rng.uniform(0, 2 * math.pi)
        rotated = TwoPhotonState(
            {k: a * cmath.exp(1j * phi) for k, a in s.amplitudes.items()}
        )
        assert fidelity(s, rotated) == pytest.approx(1.0, abs=1e-10)
        t = random_state(rng)
        assert fidelity(s, t) == pytest.approx(fidelity(t, s), abs=1e-12)


@pytest.mark.parametrize("input", [qdc.INPUT_ENTANGLED, qdc.INPUT_MIXTURE])
def test_source_is_a_weighted_ensemble_of_pure_states(input):
    components = qdc.source(input)
    weights = [w for w, _ in components]
    assert min(weights) >= 0.0
    assert abs(sum(weights) - 1.0) <= 1e-12
    for _, state in components:
        assert abs(sum(abs(a) ** 2 for a in state.amplitudes.values()) - 1.0) <= 1e-12
    if input == qdc.INPUT_ENTANGLED:
        [(weight, state)] = components
        assert weight == 1.0
        assert state.amplitudes == qdc.bell_state().amplitudes
    else:
        # the dephased Bell state: each component is one of its two terms
        terms = [{key} for key in qdc.bell_state().amplitudes]
        assert [set(state.amplitudes) for _, state in components] == terms
        for _, state in components:
            assert fidelity(state, qdc.bell_state()) == pytest.approx(0.5, abs=1e-12)


def test_dump_load_round_trip():
    rng = np.random.default_rng(6)
    s = random_state(rng)
    assert parse_dump(dump_state(s)) == s.amplitudes
