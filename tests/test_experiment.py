import math
from itertools import product

import numpy as np
import pytest

import reference
from qbs_sim import elements as el
from qbs_sim import experiment as qdc
from qbs_sim import montecarlo as mc
from qbs_sim.states import H, V, Mode, fidelity


def settings(**kw):
    return qdc.ExperimentSettings(**kw)


def grid_points(surf):
    """((theta, alpha), value) for each point of ``surf``, row-major."""
    return zip(product(surf.thetas, surf.alphas), surf.values)


def compiled_joint(s, thetas, alphas):
    """P(corroborative polarization, test group) on the grid from the compiled
    group forms, indexed ``[theta][alpha][pol][group]``.  Unlike the window
    cells it is not divided by its sum, so a sum-to-one check can fail."""
    compiled = qdc._compiled(s.basis, s.input)
    forms = [qdc._group_forms(compiled, float(t)) for t in thetas]
    weights = [qdc._rotator_weights(float(a)) for a in alphas]
    return np.array([[[[np.dot(k, f) for f in row] for k in pol_weights]
                      for pol_weights in weights] for row in forms])


def group_joint(s, corroborative, group):
    """P(corroborative detector, test group) at the point of ``s``, from the
    compiled group forms."""
    return compiled_joint(s, [s.theta], [s.alpha_deg])[0, 0][
        qdc.CORROBORATIVE_DETECTORS.index(corroborative), qdc.GROUPS.index(group)]


class TestBuildState:
    def test_alpha_zero_matches_eraser_checkpoint(self):
        for theta in np.linspace(0, 2 * math.pi, 9):
            [(_, state)] = qdc.build_qdc_state(settings(theta=float(theta)))
            assert fidelity(state, qdc.reference_after_erasers(float(theta))) > 1 - 1e-10

    def test_lower_arm_amplitude_before_erasers(self):
        # corroborative H paired with the lower-arm H mode carries i e^{i theta}/2
        for theta in (0.0, 0.9, math.pi):
            s = settings(theta=theta)
            pre = el.apply_all(qdc.test_side_circuit(s)[:3], qdc.bell_state())
            a = pre.amplitudes[(Mode("c", H), Mode("b", H))]
            expected = 0.5j * complex(math.cos(theta), math.sin(theta))
            assert a == pytest.approx(expected, abs=1e-12)

    def test_mixture_evolves_componentwise(self, monkeypatch):
        # the norms each element builds, before the state constructor
        # normalizes them: every element keeps each component's norm
        norms = reference.raw_norms(monkeypatch)
        s = settings(theta=1.3, input=qdc.INPUT_MIXTURE)
        components = qdc.build_qdc_state(s)
        assert len(components) == 2
        for w, _ in components:
            assert w == pytest.approx(0.5)
        assert len(norms) == 2 * (len(qdc.test_side_circuit(s)) + 1)  # + the rotator
        assert max(abs(n - 1.0) for n in norms) < 1e-12
        # the entangled input is one component of weight 1
        [(weight, _)] = qdc.build_qdc_state(s._replace(input=qdc.INPUT_ENTANGLED))
        assert weight == 1.0

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            settings(basis="XY")
        with pytest.raises(ValueError):
            settings(input="thermal")

    def test_copies_are_validated(self):
        s = settings(theta=0.3)
        assert s._replace(basis=qdc.BASIS_DA) == settings(theta=0.3, basis=qdc.BASIS_DA)
        with pytest.raises(ValueError, match="basis"):
            s._replace(basis="XY")
        with pytest.raises(ValueError, match="input"):
            s._replace(input="thermal")
        with pytest.raises(ValueError, match="basis"):
            qdc.ExperimentSettings._make((0.0, 0.0, "XY", qdc.INPUT_ENTANGLED))

    def test_settings_are_immutable(self):
        s = settings()
        with pytest.raises(AttributeError):
            s.theta = 1.0
        with pytest.raises(AttributeError):
            s.extra = 1.0


class TestCategoryProbability:
    def test_particle_limit_half_any_theta(self):
        for theta in np.linspace(0, 2 * math.pi, 25):
            p = qdc.category_probability(settings(theta=float(theta), alpha_deg=0.0))
            assert abs(p - 0.5) < 1e-12

    def test_wave_limit_peak(self):
        p = qdc.category_probability(settings(theta=0.0, alpha_deg=90.0))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_point(self):
        p = qdc.category_probability(settings(theta=math.pi, alpha_deg=45.0))
        assert p == pytest.approx(0.25, abs=1e-12)

    def test_oracle_equivalence_grid(self):
        for theta in np.linspace(0, 2 * math.pi, 25):
            for alpha in np.linspace(0, 90, 13):
                p = qdc.category_probability(
                    settings(theta=float(theta), alpha_deg=float(alpha))
                )
                assert abs(p - qdc.closed_form_ia(float(theta), float(alpha))) < 1e-10

    def test_joint_partition_sums_to_one(self):
        for theta in np.linspace(0, 2 * math.pi, 7):
            for alpha in (0.0, 20.0, 45.0, 90.0):
                s = settings(theta=float(theta), alpha_deg=alpha)
                total = sum(
                    group_joint(s, corr, grp)
                    for corr in qdc.CORROBORATIVE_DETECTORS
                    for grp in qdc.GROUPS
                )
                assert abs(total - 1.0) < 1e-12

    def test_xor_group_cross_term_cancellation(self):
        # within each eraser the open- and closed-path amplitudes interfere at
        # the individual detectors but the group sum is interference-free:
        # brute-force amplitude expansion vs the closed form
        theta, alpha = 1.234, 37.0
        s = settings(theta=theta, alpha_deg=alpha)
        [(_, state)] = qdc.build_qdc_state(s)
        per_path = {
            p: sum(
                abs(a) ** 2
                for (cm, tm), a in state.amplitudes.items()
                if cm.pol == H and tm.path == p
            )
            for p in qdc.TERMINAL_PATHS
        }
        group = per_path["b"] + per_path["b'"]
        assert group / 0.5 == pytest.approx(qdc.closed_form_ia(theta, alpha), abs=1e-12)
        # the individual detectors are *not* at half the group value: the
        # cancellation is a real feature of the XOR sum, not term-by-term
        assert abs(per_path["b"] - per_path["b'"]) > 1e-3


class TestClosedForm:
    def test_wave_peak(self):
        assert qdc.closed_form_ia(0.0, 90.0) == pytest.approx(1.0)

    def test_particle_flat(self):
        for theta in (0.0, math.pi / 2, math.pi):
            assert qdc.closed_form_ia(theta, 0.0) == pytest.approx(0.5)

    def test_direct_substitution(self):
        assert qdc.closed_form_ia(math.pi / 2, 60.0) == pytest.approx(0.5)


class TestComplementary:
    def test_opposite_group_vanishes_at_wave_peak(self):
        s = settings(theta=0.0, alpha_deg=90.0)
        assert qdc.category_probability(s, "D_H", qdc.GROUP_B) == pytest.approx(
            0.0, abs=1e-12
        )
        # the orthogonally gated subensemble is the particle-like one
        assert qdc.category_probability(s, "D_V", qdc.GROUP_A) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_joint_categories_sum_to_group_marginal(self):
        s = settings(theta=0.7, alpha_deg=25.0)
        [(_, state)] = qdc.build_qdc_state(s)
        p_a = sum(
            abs(a) ** 2
            for (cm, tm), a in state.amplitudes.items()
            if tm.path in qdc.GROUP_PATHS[qdc.GROUP_A]
        )
        joint_sum = group_joint(s, "D_H", qdc.GROUP_A) + group_joint(s, "D_V", qdc.GROUP_A)
        assert joint_sum == pytest.approx(p_a, abs=1e-12)

    def test_complement_relation(self):
        s = settings(theta=2.2, alpha_deg=70.0)
        assert qdc.category_probability(s, "D_H", qdc.GROUP_B) == pytest.approx(
            1.0 - qdc.category_probability(s, "D_H", qdc.GROUP_A), abs=1e-12
        )


class TestSurfaces:
    thetas = np.linspace(0, 2 * math.pi, 9)
    alphas = np.linspace(0, 90, 7)

    def test_hv_surface_matches_oracle(self):
        surf = qdc.surface(settings(), self.thetas, self.alphas)
        for (theta, alpha), value in grid_points(surf):
            assert abs(value - qdc.closed_form_ia(theta, alpha)) < 1e-10

    def test_da_surface_is_hv_shifted_by_45(self):
        surf = qdc.surface(settings(basis=qdc.BASIS_DA), self.thetas, self.alphas)
        for (theta, alpha), value in grid_points(surf):
            assert abs(value - qdc.closed_form_ia(theta, alpha + 45.0)) < 1e-10

    def test_mixture_da_shows_no_analyzer_correlation(self):
        # dephased input analyzed in the diagonal frame: the correlation is
        # independent of the analyzer angle (only the residual single-photon
        # fringe of the closed-path component remains, mean 0.5 over theta)
        surf = qdc.surface(
            settings(basis=qdc.BASIS_DA, input=qdc.INPUT_MIXTURE),
            self.thetas,
            self.alphas,
        )
        for (theta, _), value in grid_points(surf):
            expected = 0.25 + 0.5 * math.cos(theta / 2.0) ** 2
            assert abs(value - expected) < 1e-12
        mean = sum(surf.values) / len(surf.values)
        assert mean == pytest.approx(0.5, abs=0.05)

    def test_mixture_hv_matches_entangled_hv(self):
        # in the natural basis the dephased input is indistinguishable
        surf = qdc.surface(
            settings(input=qdc.INPUT_MIXTURE), self.thetas, self.alphas
        )
        for (theta, alpha), value in grid_points(surf):
            assert abs(value - qdc.closed_form_ia(theta, alpha)) < 1e-10


class TestDaEquivalenceForEntangledInput:
    def test_da_equals_corroborative_offset(self):
        # for the maximally entangled input, expressing the ensemble in the
        # diagonal frame is the same as offsetting the analyzer by 45 deg
        for theta in (0.0, 1.1, math.pi):
            for alpha in (0.0, 20.0, 45.0):
                [(_, da)] = qdc.build_qdc_state(
                    settings(theta=theta, alpha_deg=alpha, basis=qdc.BASIS_DA)
                )
                [(_, offset)] = qdc.build_qdc_state(
                    settings(theta=theta, alpha_deg=alpha + 45.0)
                )
                assert fidelity(da, offset) > 1 - 1e-10


def reference_joint(s):
    """(corroborative pol, terminal path) probabilities from the sparse,
    element-by-element reference path, summed over the terminal
    polarization, summed over the weighted source components."""
    out = np.zeros((2, len(qdc.TERMINAL_PATHS)))
    for w, comp in qdc.build_qdc_state(s):
        for (cm, tm), a in comp.amplitudes.items():
            out[(H, V).index(cm.pol), qdc.TERMINAL_PATHS.index(tm.path)] += w * abs(a) ** 2
    return out


class TestCompiledEquivalence:
    # alpha outside [0, 90] and theta beyond 2*pi (and below 0) on purpose
    thetas = np.array([-1.0, 0.0, 2.1, math.pi, 6.5, 9.7])
    alphas = np.array([-30.0, 0.0, 37.0, 90.0, 135.0])
    cases = [(b, i) for b in (qdc.BASIS_HV, qdc.BASIS_DA)
             for i in (qdc.INPUT_ENTANGLED, qdc.INPUT_MIXTURE)]

    @pytest.mark.parametrize("basis,input", cases)
    def test_joint_grid_matches_reference(self, basis, input):
        # the compiled group joint, and the window cells of ideal detectors,
        # which are that joint divided by its sum
        s = settings(basis=basis, input=input)
        batched = compiled_joint(s, self.thetas, self.alphas)
        assert batched.shape == (len(self.thetas), len(self.alphas), 2, 2)
        ideal = np.array(mc.window_probability_grid(
            s, mc.DetectionModel(efficiency=1.0, dark_probability=0.0),
            self.thetas, self.alphas))
        in_group = [[p in qdc.GROUP_PATHS[grp] for p in qdc.TERMINAL_PATHS]
                    for grp in qdc.GROUPS]
        for i, theta in enumerate(self.thetas):
            for j, alpha in enumerate(self.alphas):
                ref = reference_joint(
                    s._replace(theta=float(theta), alpha_deg=float(alpha))
                )
                by_group = np.array([[row[g].sum() for g in in_group] for row in ref])
                assert np.abs(batched[i, j] - by_group).max() <= 1e-12
                assert np.abs(ideal[i, j, :4] - by_group.ravel()).max() <= 1e-12
                assert np.abs(ideal[i, j, 4:]).max() <= 1e-12

    @pytest.mark.parametrize("basis,input", cases)
    def test_every_category_matches_reference(self, basis, input):
        s = settings(basis=basis, input=input)
        for corr in qdc.CORROBORATIVE_DETECTORS:
            for grp in qdc.GROUPS:
                surf = qdc.surface(s, self.thetas, self.alphas, corr, grp)
                for (theta, alpha), value in grid_points(surf):
                    point = s._replace(theta=theta, alpha_deg=alpha)
                    ref = reference_joint(point)
                    row = ref[qdc.CORROBORATIVE_DETECTORS.index(corr)]
                    in_group = [p in qdc.GROUP_PATHS[grp] for p in qdc.TERMINAL_PATHS]
                    joint = row[in_group].sum()
                    assert abs(value - joint / row.sum()) <= 1e-12
                    assert abs(group_joint(point, corr, grp) - joint) <= 1e-12

    @pytest.mark.parametrize("n_theta,n_alpha", [(1, 1), (1, 5), (5, 1)])
    def test_degenerate_grids(self, n_theta, n_alpha):
        thetas, alphas = self.thetas[:n_theta], self.alphas[:n_alpha]
        surf = qdc.surface(settings(), thetas, alphas)
        assert list(product(surf.thetas, surf.alphas)) == [
            (float(t), float(a)) for t in thetas for a in alphas
        ]
        assert len(surf.values) == len(thetas) * len(alphas)
        for (theta, alpha), value in grid_points(surf):
            assert abs(value - qdc.closed_form_ia(theta, alpha)) <= 1e-12

    @pytest.mark.parametrize("basis", (qdc.BASIS_HV, qdc.BASIS_DA))
    def test_compiled_amplitudes_match_element_chain(self, basis):
        # a + exp(i theta) b through the two arms is the whole test side,
        # carried from the same entrance amplitudes: those of each source
        # component of both inputs, with the corroborative photon H and V
        halves = qdc._test_side_halves(basis)
        states = [s for i in (qdc.INPUT_ENTANGLED, qdc.INPUT_MIXTURE) for _, s in qdc.source(i)]
        for state, cp in product(states, (H, V)):
            entrance = {tm: x for (cm, tm), x in state.amplitudes.items() if cm.pol == cp}
            a, b = qdc._through_arms(*halves, entrance)
            assert set(a) | set(b) <= set(qdc.TERMINAL_MODES)
            for theta in (0.0, 1.1, 8.0):
                s = settings(theta=theta, basis=basis)
                whole = el.propagate(qdc.test_side_circuit(s), entrance)
                assert set(whole) <= set(qdc.TERMINAL_MODES)
                u = [a.get(m, 0j) + np.exp(1j * theta) * b.get(m, 0j)
                     for m in qdc.TERMINAL_MODES]
                ref = [whole.get(m, 0j) for m in qdc.TERMINAL_MODES]
                assert np.abs(np.subtract(u, ref)).max() <= 1e-12

    @pytest.mark.parametrize("basis,input", cases)
    def test_no_signalling(self, basis, input):
        # neither photon's own statistics may depend on the setting at the
        # other side: the corroborative marginal not on theta, the test
        # photon's group marginal not on alpha, and on the reference path
        # its terminal-path marginal not on alpha either
        s = settings(basis=basis, input=input)
        thetas, alphas = np.linspace(-1.0, 10.0, 23), np.linspace(-30.0, 150.0, 19)
        for joint in (compiled_joint(s, thetas, alphas), np.array([
                [reference_joint(s._replace(theta=float(t), alpha_deg=float(a)))
                 for a in alphas] for t in thetas])):
            corroborative = joint.sum(axis=3)  # [theta][alpha][pol]
            test_side = joint.sum(axis=2)      # [theta][alpha][group or path]
            assert np.abs(corroborative - corroborative[:1]).max() <= 1e-12
            assert np.abs(test_side - test_side[:, :1]).max() <= 1e-12

    def test_grid_builds_no_elements_once_compiled(self, monkeypatch):
        qdc.surface(settings(basis=qdc.BASIS_DA), self.thetas, self.alphas)
        built = []
        monkeypatch.setattr(el, "check_unitary", lambda e: built.append(e) or 0.0)
        qdc.surface(settings(basis=qdc.BASIS_DA), np.linspace(0, 7, 41),
                    np.linspace(0, 90, 17))
        assert built == []
