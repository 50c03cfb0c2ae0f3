import cmath
import math

import numpy as np
import pytest

import reference
from qbs_sim import elements as el
from qbs_sim import experiment as qdc
from qbs_sim.states import H, V, Mode, fidelity, make_state

S2 = math.sqrt(2.0)


def single(path, pol, cpol=H):
    return make_state([((Mode("c", cpol), Mode(path, pol)), 1.0)])


def amp(state, path, pol, cpol=H):
    return state.amplitudes.get((Mode("c", cpol), Mode(path, pol)), 0j)


def random_test_state(rng):
    keys = [(Mode("c", cp), Mode(p, tp)) for cp in (H, V) for p in "ab" for tp in (H, V)]
    return make_state(
        zip(keys, rng.normal(size=8) + 1j * rng.normal(size=8))
    )


def random_test_element(rng):
    # Haar-ish random unitary on the 4-mode (a,b) x (H,V) space
    modes = [Mode(p, q) for p in "ab" for q in (H, V)]
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(m)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    cols = {
        mi: {mo: q[o, i] for o, mo in enumerate(modes)} for i, mi in enumerate(modes)
    }
    return el.OpticalElement("random", cols)


class TestBeamSplitter:
    def test_v_input_splits_with_i_on_reflection(self):
        bs = el.beam_splitter_50_50("a", "b", "a", "b")
        out = el.apply(bs, single("a", V))
        assert amp(out, "a", V) == pytest.approx(1 / S2)
        assert amp(out, "b", V) == pytest.approx(1j / S2)

    def test_unitarity(self):
        bs = el.beam_splitter_50_50("a", "b", "a", "b")
        assert el.check_unitary(bs) < 1e-12

    def test_balanced_interferometer_pattern(self):
        # two splitters back to back: everything exits the cross port
        bs = el.beam_splitter_50_50("a", "b", "a", "b")
        once = el.apply(bs, single("a", V))
        assert (
            sum(abs(a) ** 2 for k, a in once.amplitudes.items() if k[1].path == "a")
            == pytest.approx(0.5)
        )
        twice = el.apply(bs, once)
        p_b = sum(abs(a) ** 2 for k, a in twice.amplitudes.items() if k[1].path == "b")
        assert p_b == pytest.approx(1.0, abs=1e-12)

    def test_closed_interferometer_fringe(self):
        for theta in np.linspace(0, 2 * math.pi, 9):
            chain = [
                el.beam_splitter_50_50("a", "b", "a", "b"),
                el.phase_shifter("b", float(theta)),
                el.beam_splitter_50_50("a", "b", "a", "b"),
            ]
            out = el.apply_all(chain, single("a", V))
            p_b = sum(
                abs(a) ** 2 for k, a in out.amplitudes.items() if k[1].path == "b"
            )
            assert p_b == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)

    def test_repeated_labels_rejected(self):
        with pytest.raises(el.ElementError):
            el.beam_splitter_50_50("a", "a", "a", "b")


class TestPhaseShifter:
    def test_zero_is_identity(self):
        ps = el.phase_shifter("b", 0.0)
        s = single("b", H)
        assert fidelity(el.apply(ps, s), s) == pytest.approx(1.0, abs=1e-12)

    def test_pi_flips_sign(self):
        ps = el.phase_shifter("b", math.pi)
        s = make_state([((Mode("c", H), Mode("b", H)), 0.5j),
                        ((Mode("c", H), Mode("a", H)), math.sqrt(0.75))])
        out = el.apply(ps, s)
        assert amp(out, "b", H) == pytest.approx(-0.5j)

    def test_phase_additivity(self):
        rng = np.random.default_rng(11)
        s = random_test_state(rng)
        a = el.apply_all(
            [el.phase_shifter("b", 0.7), el.phase_shifter("b", 1.9)], s
        )
        b = el.apply(el.phase_shifter("b", 2.6), s)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


class TestPdbs:
    def test_h_fully_transmitted(self):
        out = el.apply(el.pdbs("a", "b", "a", "b"), single("a", H))
        assert amp(out, "a", H) == pytest.approx(1.0)

    def test_v_split_50_50(self):
        out = el.apply(el.pdbs("a", "b", "a", "b"), single("a", V))
        assert amp(out, "a", V) == pytest.approx(1 / S2)
        assert amp(out, "b", V) == pytest.approx(1j / S2)

    def test_unitary(self):
        assert el.check_unitary(el.pdbs("a", "b", "a", "b")) < 1e-12

    def test_full_state_checkpoint(self):
        # Bell input through entrance splitter + phase + splitter matches the
        # hand-expanded reference state
        for theta in np.linspace(0, 2 * math.pi, 13):
            s = qdc.ExperimentSettings(theta=float(theta))
            evolved = el.apply_all(qdc.test_side_circuit(s)[:3], qdc.bell_state())
            f = fidelity(evolved, qdc.reference_after_pdbs(float(theta)))
            assert f > 1 - 1e-10


class TestPbsRotated:
    def test_unrotated_routes_h_and_v(self):
        pbs = el.pbs_rotated("a", "t", "r", 0.0)
        out_h = el.apply(pbs, single("a", H))
        assert amp(out_h, "t", H) == pytest.approx(1.0)
        out_v = el.apply(pbs, single("a", V))
        assert amp(out_v, "r", V) == pytest.approx(1.0)

    def test_45_splits_h_evenly(self):
        pbs = el.pbs_rotated("a", "t", "r", 45.0)
        out = el.apply(pbs, single("a", H))
        assert abs(amp(out, "t", H)) == pytest.approx(1 / S2)
        assert abs(amp(out, "r", V)) == pytest.approx(1 / S2)

    def test_eraser_checkpoint(self):
        for theta in np.linspace(0, 2 * math.pi, 13):
            s = qdc.ExperimentSettings(theta=float(theta))
            evolved = el.apply_all(qdc.test_side_circuit(s), qdc.bell_state())
            assert fidelity(evolved, qdc.reference_after_erasers(float(theta))) > 1 - 1e-10


class TestPolarizationRotator:
    def test_zero_is_identity(self):
        rot = el.polarization_rotator("c", 0.0)
        s = qdc.bell_state()
        assert fidelity(el.apply(rot, s), s) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn(self):
        rot = el.polarization_rotator("c", 90.0)
        out = el.apply(rot, make_state([((Mode("c", H), Mode("a", H)), 1.0)]))
        assert abs(out.amplitudes[(Mode("c", V), Mode("a", H))]) == pytest.approx(1.0)

    def test_rotator_checkpoint(self):
        for theta in (0.0, 1.0, math.pi, 5.0):
            for alpha in (0.0, 30.0, 45.0, 90.0):
                s = qdc.ExperimentSettings(theta=theta, alpha_deg=alpha)
                evolved = el.apply_all(
                    qdc.test_side_circuit(s) + [el.polarization_rotator("c", alpha)],
                    qdc.bell_state(),
                )
                assert fidelity(evolved, qdc.reference_after_rotator(theta, alpha)) > 1 - 1e-10


class TestApply:
    def test_identity_element(self):
        ident = el.phase_shifter("a", 0.0)
        rng = np.random.default_rng(12)
        s = random_test_state(rng)
        assert fidelity(el.apply(ident, s), s) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_random(self, monkeypatch):
        # the norm apply builds, before the state constructor normalizes it
        norms = reference.raw_norms(monkeypatch)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            s = random_test_state(rng)
            e = random_test_element(rng)
            el.apply(e, s)
        assert len(norms) == 1000
        assert max(abs(n - 1.0) for n in norms) < 1e-11

    def test_norm_check_sees_a_scaled_column(self, monkeypatch):
        # the check above fails for an element with one column scaled by 2,
        # which the normalized output state hides
        norms = reference.raw_norms(monkeypatch)
        e = el.phase_shifter("a", 0.3)
        e.columns[Mode("a", H)] = {m: 2 * a for m, a in e.columns[Mode("a", H)].items()}
        out = el.apply(e, random_test_state(np.random.default_rng(13)))
        assert abs(norms[0] - 1.0) > 1e-11
        assert abs(sum(abs(a) ** 2 for a in out.amplitudes.values()) - 1.0) < 1e-11

    def test_association(self):
        rng = np.random.default_rng(14)
        s = random_test_state(rng)
        e1, e2 = random_test_element(rng), random_test_element(rng)
        assert fidelity(
            el.apply(e2, el.apply(e1, s)), el.apply_all([e1, e2], s)
        ) == pytest.approx(1.0, abs=1e-10)

    def test_element_acts_on_the_photon_on_its_input_paths(self):
        # a rotator on the test photon's path turns the test photon, and one
        # on the corroborative photon's path turns the corroborative photon
        bell = qdc.bell_state()
        on_test = el.apply(el.polarization_rotator("a", -45.0), bell)
        assert fidelity(on_test, bell) == pytest.approx(0.5, abs=1e-12)
        on_corr = el.apply(el.polarization_rotator("c", 30.0), bell)
        assert fidelity(on_corr, bell) == pytest.approx(0.75, abs=1e-12)
        out = el.apply(el.polarization_rotator("c", 30.0), single("a", H))
        assert amp(out, "a", H, cpol=V) == pytest.approx(0.5)
        assert amp(out, "a", H, cpol=H) == pytest.approx(math.cos(math.radians(30.0)))
        assert amp(out, "a", V, cpol=H) == 0
        out = el.apply(el.polarization_rotator("a", 30.0), single("a", H))
        assert amp(out, "a", V, cpol=H) == pytest.approx(0.5)
        assert amp(out, "a", H, cpol=V) == 0

    def test_partial_polarization_coverage_is_error(self):
        bad = el.OpticalElement("half", {Mode("a", H): {Mode("a", H): 1.0}})
        with pytest.raises(el.ElementError):
            el.apply(bad, single("a", V))


class TestCheckUnitary:
    def test_detects_violation(self):
        with pytest.raises(el.ElementError):
            el.OpticalElement(
                "broken",
                {
                    Mode("a", H): {Mode("a", H): 0.999},
                    Mode("a", V): {Mode("a", V): 1.0},
                },
            )

    def test_composite_product_is_unitary(self):
        cols = {m: el.propagate(el.pdbs_composite(), {m: 1.0})
                for m in (Mode(p, q) for p in "ab" for q in (H, V))}
        product = el.OpticalElement("composite", cols)
        assert el.check_unitary(product) < 1e-12


class TestCompositePdbs:
    def test_h_bypasses_splitter(self):
        out = el.apply_all(el.pdbs_composite(), single("a", H))
        assert abs(amp(out, "a", H)) == pytest.approx(1.0)

    def test_v_sees_50_50(self):
        out = el.apply_all(el.pdbs_composite(), single("a", V))
        assert abs(amp(out, "a", V)) == pytest.approx(1 / S2)
        assert abs(amp(out, "b", V)) == pytest.approx(1 / S2)

    def test_equivalent_to_ideal_up_to_port_phases(self):
        ideal = el.pdbs("a", "b", "a", "b")
        for mode, ref in ideal.columns.items():
            col = el.propagate(el.pdbs_composite(), {mode: 1.0})
            overlap = sum(col.get(m, 0j).conjugate() * a for m, a in ref.items())
            assert abs(overlap) ** 2 > 1 - 1e-10

    def test_equivalent_on_superposition_inputs(self):
        # port-phase alignment must be consistent, not just per basis input
        rng = np.random.default_rng(15)
        ideal = el.pdbs("a", "b", "a", "b")
        for _ in range(20):
            s = random_test_state(rng)
            a = el.apply_all(el.pdbs_composite(), s)
            b = el.apply(ideal, s)
            assert fidelity(a, b) > 1 - 1e-10
