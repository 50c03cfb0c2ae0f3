import itertools
import json
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import reference
from qbs_sim import analysis, cli
from qbs_sim import experiment as qdc
from qbs_sim import montecarlo as mc


def settings(**kw):
    return qdc.ExperimentSettings(**kw)


IDEAL = dict(efficiency=1.0, dark_probability=0.0)
#: the four XOR-gated cells as (corroborative detector, test group), in the
#: order of ``CountTable``'s first four fields
CATEGORIES = [(corr, grp) for corr in qdc.CORROBORATIVE_DETECTORS for grp in qdc.GROUPS]


def window_cells(s, model, theta, alpha):
    """The 6 window-cell probabilities at the point (theta, alpha)."""
    return mc.window_probability_grid(s, model, [theta], [alpha])[0][0]


def window_cell(clicked: frozenset) -> int:
    """Index of a window's cell in ``window_probability_grid`` order."""
    corr = sorted(clicked & {"D_H", "D_V"})
    test = sorted(clicked - {"D_H", "D_V"})
    if not corr or not test:
        return 4
    if len(corr) > 1 or len(test) > 1:
        return 5
    path = qdc.DETECTOR_PATHS[test[0]]
    group = qdc.GROUP_A if path in qdc.GROUP_PATHS[qdc.GROUP_A] else qdc.GROUP_B
    return CATEGORIES.index((corr[0], group))


class TestModel:
    def test_probability_ranges_validated(self):
        with pytest.raises(ValueError):
            mc.DetectionModel(efficiency=1.2)
        with pytest.raises(ValueError):
            mc.DetectionModel(dark_probability=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            mc.DetectionModel(seed=-5)

    @pytest.mark.parametrize("field,value,message", [
        ("efficiency", 1.2, "efficiency"), ("efficiency", float("nan"), "efficiency"),
        ("dark_probability", -0.1, "dark"), ("seed", -5, "seed"),
    ])
    def test_copies_are_validated(self, field, value, message):
        model = mc.DetectionModel(seed=3)
        assert model._replace(efficiency=0.5) == mc.DetectionModel(0.5, seed=3)
        with pytest.raises(ValueError, match=message):
            model._replace(**{field: value})
        with pytest.raises(ValueError, match=message):
            mc.DetectionModel._make({**model._asdict(), field: value}.values())

    def test_model_is_immutable(self):
        model = mc.DetectionModel()
        with pytest.raises(AttributeError):
            model.seed = 1
        with pytest.raises(AttributeError):
            model.extra = 1


class TestSampleShot:
    def test_ideal_shot_has_one_click_per_side(self):
        rng = np.random.default_rng(0)
        model = mc.DetectionModel(seed=0, **IDEAL)
        n_a = n_h = 0
        n = 2000
        for _ in range(n):
            clicked = reference.sample_shot(settings(), model, 0.0, 0.0, rng)
            corr = clicked & {"D_H", "D_V"}
            test = clicked - corr
            assert len(corr) == 1 and len(test) == 1
            if corr != {"D_H"}:
                continue
            n_h += 1
            det = next(iter(test))
            if qdc.DETECTOR_PATHS[det] in qdc.GROUP_PATHS[qdc.GROUP_A]:
                n_a += 1
        # particle point: D_H-gated A-group frequency 0.5 within 3 sigma
        sigma = math.sqrt(0.25 / n_h)
        assert abs(n_a / n_h - 0.5) < 3 * sigma + 1e-9

    def test_zero_efficiency_never_clicks(self):
        rng = np.random.default_rng(1)
        model = mc.DetectionModel(efficiency=0.0, dark_probability=0.0, seed=0)
        for _ in range(200):
            assert reference.sample_shot(settings(), model, 0.0, 0.0, rng) == frozenset()

    def test_saturated_dark_counts_click_everything(self):
        rng = np.random.default_rng(2)
        model = mc.DetectionModel(efficiency=0.0, dark_probability=1.0, seed=0)
        assert reference.sample_shot(settings(), model, 0.0, 0.0, rng) == frozenset(
            reference.DETECTORS)


class TestWindowProbabilities:
    # each case's ``s`` is a point: (settings, theta, alpha)
    CASES = [
        ((settings(), 1.0, 40.0), 0.25, 1e-3),
        ((settings(basis=qdc.BASIS_DA, input=qdc.INPUT_MIXTURE), 0.3, 70.0), 0.6, 0.05),
        ((settings(), 2.0, 10.0), 1.0, 0.3),
        ((settings(), 4.0, 90.0), 0.0, 0.0),
        ((settings(), 0.5, 0.0), 0.7, 1.0),
    ]

    @pytest.mark.parametrize("s,eta,dark", CASES)
    def test_sums_to_one(self, s, eta, dark):
        s, theta, alpha = s
        model = mc.DetectionModel(efficiency=eta, dark_probability=dark)
        p = np.array(window_cells(s, model, theta, alpha))
        assert p.shape == (6,)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s,eta,dark", CASES)
    def test_matches_enumeration_of_click_patterns(self, s, eta, dark):
        # every (joint outcome, signal survivals, dark clicks) pattern of one
        # window, weighted by its exact probability
        def bernoulli(q, hit):
            return q if hit else 1.0 - q

        s, theta, alpha = s
        joint = mc.joint_outcome_probabilities(s, theta, alpha)
        cells = np.zeros(6)
        for outcome in range(8):
            signals = (qdc.CORROBORATIVE_DETECTORS[outcome // 4],
                       reference.PATH_DETECTORS[qdc.TERMINAL_PATHS[outcome % 4]])
            for keep in itertools.product((False, True), repeat=2):
                for darks in itertools.product((False, True), repeat=6):
                    clicked = {d for d, hit in zip(reference.DETECTORS, darks) if hit}
                    clicked |= {d for d, hit in zip(signals, keep) if hit}
                    weight = joint[outcome]
                    for hit in keep:
                        weight *= bernoulli(eta, hit)
                    for hit in darks:
                        weight *= bernoulli(dark, hit)
                    cells[window_cell(frozenset(clicked))] += weight
        model = mc.DetectionModel(efficiency=eta, dark_probability=dark)
        np.testing.assert_allclose(window_cells(s, model, theta, alpha), cells,
                                   rtol=0, atol=1e-12)

    def test_ideal_detectors_give_joint_probabilities_by_group(self):
        p = window_cells(settings(), mc.DetectionModel(**IDEAL), 1.3, 25.0)
        joint = mc.joint_outcome_probabilities(settings(), 1.3, 25.0)
        for i, (corr, grp) in enumerate(CATEGORIES):
            ci = qdc.CORROBORATIVE_DETECTORS.index(corr)
            expected = sum(
                joint[ci * 4 + ti]
                for ti, path in enumerate(qdc.TERMINAL_PATHS)
                if path in qdc.GROUP_PATHS[grp]
            )
            assert p[i] == pytest.approx(expected, abs=1e-12)
        assert p[4] == p[5] == 0.0

    def test_blind_detectors_give_only_zero_windows(self):
        model = mc.DetectionModel(efficiency=0.0, dark_probability=0.0)
        p = window_cells(settings(), model, 0.9, 0.0)
        assert list(p) == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]

    def test_saturated_dark_counts_give_only_multi_windows(self):
        model = mc.DetectionModel(efficiency=0.3, dark_probability=1.0)
        p = window_cells(settings(), model, 0.9, 0.0)
        assert list(p) == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    def test_sample_shot_matches_cells_chi_square(self):
        s = settings()
        model = mc.DetectionModel(efficiency=0.5, dark_probability=0.05)
        rng = np.random.default_rng(2026)
        n = 2000
        observed = np.zeros(6)
        for _ in range(n):
            observed[window_cell(reference.sample_shot(s, model, 1.0, 40.0, rng))] += 1
        expected = n * np.array(window_cells(s, model, 1.0, 40.0))
        assert expected.min() > 5  # every cell populated
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # 5 degrees of freedom; 20.52 is the 0.1 % critical value
        assert chi2 < 20.52


class TestRun:
    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            mc.run(settings(), mc.DetectionModel(seed=1), 0.0, 0.0, 0)

    def test_wave_peak_estimate(self):
        model = mc.DetectionModel(seed=5, **IDEAL)
        table = mc.run(settings(), model, 0.0, 90.0, 100_000)
        est = analysis.estimate(table)
        assert est is not None
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_counts_account_for_all_shots(self):
        model = mc.DetectionModel(efficiency=0.25, dark_probability=1e-3, seed=9)
        table = mc.run(settings(), model, 1.0, 40.0, 50_000)
        assert table.valid + table.discarded_zero + table.discarded_multi == 50_000
        assert sum(table[:4]) == table.valid

    def test_determinism_same_seed(self):
        model = mc.DetectionModel(seed=123)
        s = settings()
        first = mc.run(s, model, 0.4, 55.0, 70_000, stream=3)
        assert all(mc.run(s, model, 0.4, 55.0, 70_000, stream=3) == first for _ in range(2))
        assert mc.run(s, model, 0.4, 55.0, 70_000, stream=4) != first

    def test_different_seeds_within_scatter(self):
        ests = [
            analysis.estimate(mc.run(settings(), mc.DetectionModel(seed=seed, **IDEAL),
                                     1.0, 60.0, 50_000))
            for seed in (1, 2, 3)
        ]
        exact = qdc.closed_form_ia(1.0, 60.0)
        for est in ests:
            assert abs(est.value - exact) < 4 * est.stderr

    def test_convergence_subgrid(self):
        model_seed = 0
        for i, theta in enumerate(np.linspace(0, 2 * math.pi, 5)):
            for j, alpha in enumerate(np.linspace(0, 90, 5)):
                model = mc.DetectionModel(seed=model_seed, **IDEAL)
                est = analysis.estimate(mc.run(settings(), model, float(theta), float(alpha),
                                               100_000, stream=i * 5 + j))
                exact = qdc.closed_form_ia(float(theta), float(alpha))
                tol = 4 * est.stderr if est.stderr > 0 else 1e-9
                assert abs(est.value - exact) < max(tol, 1e-9)

    def test_efficiency_independence_fair_sampling(self):
        s = settings()
        e1 = analysis.estimate(mc.run(
            s, mc.DetectionModel(efficiency=1.0, dark_probability=0.0, seed=21), 1.2, 50.0,
            200_000))
        e2 = analysis.estimate(mc.run(
            s, mc.DetectionModel(efficiency=0.25, dark_probability=0.0, seed=22), 1.2, 50.0,
            200_000))
        combined = math.hypot(e1.stderr, e2.stderr)
        assert abs(e1.value - e2.value) < 4 * combined

    def test_dark_counts_bias_toward_half(self):
        # at the wave peak the ideal correlation is 1; accidentals pull the
        # estimate monotonically toward 0.5
        s = settings()
        values = []
        for stream, dark in enumerate((1e-3, 1e-2, 5e-2)):
            model = mc.DetectionModel(efficiency=0.25, dark_probability=dark, seed=77)
            est = analysis.estimate(mc.run(s, model, 0.0, 90.0, 400_000, stream=stream))
            values.append(est.value)
            p = window_cells(s, model, 0.0, 90.0)
            exact = p[0] / (p[0] + p[1])  # (D_H, A) given D_H
            assert abs(est.value - exact) < 4 * est.stderr
        assert values[0] > values[1] > values[2] > 0.5

    def test_mixture_da_categories_balanced_at_quadrature(self):
        # at theta = pi/2 the dephased diagonal-frame ensemble populates the
        # four categories uniformly
        s = settings(basis=qdc.BASIS_DA, input=qdc.INPUT_MIXTURE)
        table = mc.run(s, mc.DetectionModel(seed=31, **IDEAL), math.pi / 2, 0.0, 100_000)
        for n in table[:4]:
            f = n / table.valid
            sigma = math.sqrt(0.25 * 0.75 / table.valid)
            assert abs(f - 0.25) < 4 * sigma


class TestGrid:
    """The grid functions against the one-point functions they replace."""
    THETAS = np.linspace(-1.0, 9.7, 6)
    ALPHAS = np.linspace(-30.0, 135.0, 5)

    @pytest.mark.parametrize("eta,dark", [(0.25, 1.3e-3), (1.0, 0.0), (0.0, 0.0),
                                          (0.3, 1.0)])
    @pytest.mark.parametrize("basis", [qdc.BASIS_HV, qdc.BASIS_DA])
    @pytest.mark.parametrize("inp", [qdc.INPUT_ENTANGLED, qdc.INPUT_MIXTURE])
    def test_window_grid_matches_each_point(self, eta, dark, basis, inp):
        model = mc.DetectionModel(efficiency=eta, dark_probability=dark)
        s = settings(basis=basis, input=inp)
        grid = np.array(mc.window_probability_grid(s, model, self.THETAS, self.ALPHAS))
        assert grid.shape == (len(self.THETAS), len(self.ALPHAS), 6)
        for i, theta in enumerate(self.THETAS):
            for j, alpha in enumerate(self.ALPHAS):
                point = window_cells(s, model, float(theta), float(alpha))
                np.testing.assert_allclose(grid[i, j], point, rtol=0, atol=1e-15)

    def test_grid_is_drawn_row_major_from_one_generator(self):
        # the points' tables are successive chains of one generator keyed by
        # (seed << 32) | stream, so the first point is the one-point run
        model = mc.DetectionModel(efficiency=0.4, dark_probability=2e-3, seed=314)
        base = settings(basis=qdc.BASIS_DA, input=qdc.INPUT_MIXTURE)
        tables = mc.run_grid(base, model, self.THETAS, self.ALPHAS, 5000, stream=17)
        random = Random(314 << 32 | 17).random
        cells = [p for row in mc.window_probability_grid(base, model, self.THETAS,
                                                         self.ALPHAS) for p in row]
        assert tables == [mc._table(random, 5000, p) for p in cells]
        assert mc.run(base, model, float(self.THETAS[0]), float(self.ALPHAS[0]), 5000,
                      stream=17) == tables[0]

    @pytest.mark.parametrize("basis", [qdc.BASIS_HV, qdc.BASIS_DA])
    @pytest.mark.parametrize("inp", [qdc.INPUT_ENTANGLED, qdc.INPUT_MIXTURE])
    def test_one_point_run_is_its_one_row_grid(self, basis, inp):
        # run is the one-point grid on the same stream, table for table
        model = mc.DetectionModel(efficiency=0.4, dark_probability=2e-3, seed=314)
        s = settings(basis=basis, input=inp)
        for stream, (theta, alpha) in enumerate(itertools.product(self.THETAS.tolist(),
                                                                  self.ALPHAS.tolist())):
            assert mc.run(s, model, theta, alpha, 5000, stream) == mc.run_grid(
                s, model, [theta], [alpha], 5000, stream)[0]

    @pytest.mark.parametrize("seed,stream", [(0, 0), (314, 17), (2**63 - 1, 2**32 - 1),
                                             (2**200 - 1, 1)])
    def test_same_seed_and_stream_give_identical_tables(self, seed, stream):
        model = mc.DetectionModel(seed=seed)
        base = settings(basis=qdc.BASIS_DA, input=qdc.INPUT_MIXTURE)
        first = mc.run_grid(base, model, self.THETAS, self.ALPHAS, 5000, stream)
        assert len(first) == len(self.THETAS) * len(self.ALPHAS)
        assert mc.run_grid(base, model, self.THETAS, self.ALPHAS, 5000, stream) == first

    @pytest.mark.parametrize("seed,stream,other", [
        (314, 0, dict(stream=1)), (314, 17, dict(stream=18)),
        (314, 0, dict(seed=315)), (0, 1, dict(seed=1, stream=0)),
    ])
    def test_streams_and_seeds_differ(self, seed, stream, other):
        # (seed, stream) and (seed + 1, stream - 2**32) would share a key, but
        # no stream lies outside [0, 2**32)
        base = settings(basis=qdc.BASIS_DA, input=qdc.INPUT_MIXTURE)
        one = mc.run_grid(base, mc.DetectionModel(seed=seed), self.THETAS, self.ALPHAS,
                          5000, stream)
        two = mc.run_grid(base, mc.DetectionModel(seed=other.get("seed", seed)), self.THETAS,
                          self.ALPHAS, 5000, other.get("stream", stream))
        assert sum(a != b for a, b in zip(one, two)) > len(one) // 2

    # seeds of 1, 2, 3 and 7 uint32 words, so keys of up to 8 words
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**200 - 1])
    @pytest.mark.parametrize("first_stream", [0, 17, 10**6, 2**32 - 3])
    def test_stream_states_match_numpy_seeding(self, seed, first_stream):
        # stream k's tables are the draws of the MT19937 that numpy's
        # init_by_array seeding makes from the little-endian uint32 words of
        # (seed << 32) | k, whose random_sample is the same 53-bit double;
        # so the key and its seeding are pinned by a second implementation
        model = mc.DetectionModel(efficiency=0.4, dark_probability=2e-3, seed=seed)
        base = settings(basis=qdc.BASIS_DA, input=qdc.INPUT_MIXTURE)
        thetas, alphas = self.THETAS[:2], self.ALPHAS[:3]
        cells = [p for row in mc.window_probability_grid(base, model, thetas, alphas)
                 for p in row]
        for k in range(first_stream, first_stream + 3):
            key, words = seed << 32 | k, []
            while key or not words:
                words.append(key & 0xFFFFFFFF)
                key >>= 32
            random = np.random.RandomState(words).random_sample
            assert mc.run_grid(base, model, thetas, alphas, 5000, stream=k) == [
                mc._table(random, 5000, p) for p in cells]

    def test_seed_must_be_an_integer(self):
        s = settings()
        assert mc.run(s, mc.DetectionModel(seed=np.int64(3)), 0.0, 0.0, 1000) == mc.run(
            s, mc.DetectionModel(seed=3), 0.0, 0.0, 1000)
        with pytest.raises(TypeError):
            mc.run(s, mc.DetectionModel(seed=1.5), 0.0, 0.0, 1000)

    @pytest.mark.parametrize("stream,n", [(-1, 1), (-3, 5), (2**32, 1)])
    def test_streams_outside_32_bits_rejected(self, stream, n):
        # a stream must fit below the seed in the generator's key
        model = mc.DetectionModel(seed=7)
        with pytest.raises(ValueError, match="outside"):
            mc.run_grid(settings(), model, [0.0], [0.0] * n, 100, stream=stream)
        with pytest.raises(ValueError, match="outside"):
            mc.run(settings(), model, 0.0, 0.0, 100, stream=stream)


def binomial_pmf(n, p):
    """The exact Binomial(n, p) pmf, by lgamma, which is accurate at these n."""
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(n + 1)
    return [math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                     + k * log_p + (n - k) * log_q) for k in range(n + 1)]


def chi_square(draws, pmf):
    """Pearson's statistic of ``draws`` against ``pmf``, neighbouring values
    pooled until each bin expects at least 5, and its degrees of freedom."""
    counts = [0] * len(pmf)
    for k in draws:
        counts[k] += 1
    bins, observed, expected = [], 0, 0.0
    for count, q in zip(counts, pmf):
        observed, expected = observed + count, expected + len(draws) * q
        if expected >= 5.0:
            bins.append((observed, expected))
            observed, expected = 0, 0.0
    last_o, last_e = bins.pop()
    bins.append((last_o + observed, last_e + expected))
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


def chi_square_critical(dof):
    """The 0.1 % upper critical value of chi-square (Wilson-Hilferty)."""
    z = 3.0902  # the 0.1 % upper quantile of the standard normal
    return dof * (1.0 - 2.0 / (9 * dof) + z * math.sqrt(2.0 / (9 * dof))) ** 3


class TestBinomial:
    """``_binomial`` against the exact binomial distribution: its whole pmf
    by a binned chi-square where the support is small, its first four
    moments where it is not."""

    @pytest.mark.parametrize("n,p", [
        (2000, 0.37), (2000, 0.015), (29411, 0.0156),  # BTRS
        (100, 0.099), (100, 0.101),  # either side of the n*p = 10 switch
        (50, 0.9),  # p > 1/2, by symmetry
        (1, 0.3), (12, 0.5),
    ])
    def test_pmf_chi_square(self, n, p):
        random = Random(20261021).random
        draws = [mc._binomial(random, n, p) for _ in range(50_000)]
        assert all(type(k) is int and 0 <= k <= n for k in draws)
        chi2, dof = chi_square(draws, binomial_pmf(n, p))
        assert dof >= 1
        assert chi2 < chi_square_critical(max(dof, 5)), (chi2, dof)

    @pytest.mark.parametrize("n", [2**62, 2**63 - 1])
    @pytest.mark.parametrize("p", [0.37, 0.9, 1e-17])
    def test_moments_at_huge_n(self, n, p):
        # mean, variance, skewness and kurtosis of 20000 draws, each within
        # about 6 standard errors of the binomial's own
        draws = 20_000
        random = Random(62).random
        mean = n * Fraction(p)
        base = int(mean)  # deviations from it are exact floats
        dev = [float(mc._binomial(random, n, p) - base) for _ in range(draws)]
        var = float(mean * (1 - Fraction(p)))
        m1 = sum(dev) / draws
        assert abs(m1 - float(mean - base)) < 6 * math.sqrt(var / draws)
        central = [x - m1 for x in dev]
        m2 = sum(x * x for x in central) / draws
        skew = sum(x ** 3 for x in central) / draws / m2 ** 1.5
        kurt = sum(x ** 4 for x in central) / draws / m2 ** 2
        assert abs(m2 / var - 1.0) < 6 * math.sqrt(2.0 / draws)
        assert abs(skew - (1.0 - 2.0 * p) / math.sqrt(var)) < 6 * math.sqrt(6.0 / draws)
        assert abs(kurt - 3.0 - (1.0 - 6.0 * p * (1.0 - p)) / var) < 6 * math.sqrt(24.0 / draws)

    def test_stirling_tail_matches_lgamma(self):
        # the acceptance test's log-factorial remainders, which no chi-square
        # at a feasible number of draws would resolve
        for k in range(200):
            exact = (math.lgamma(k + 1.0) - (k + 0.5) * math.log(k + 1.0) + k + 1.0
                     - 0.5 * math.log(2.0 * math.pi))
            assert mc._stirling_tail(k) == pytest.approx(exact, rel=0, abs=1e-11), k

    @pytest.mark.parametrize("n", [2**62, 2**63 - 1])
    def test_huge_n_loses_no_unit(self, n):
        # a float hat centre near 1.7e18 rounds to a multiple of 256, and
        # every draw would then be even
        random = Random(3).random
        assert {mc._binomial(random, n, 0.37) % 2 for _ in range(200)} == {0, 1}

    @pytest.mark.parametrize("n", [0, 1, 7, 2000, 2**63 - 1])
    def test_certain_outcomes(self, n):
        random = Random(5).random
        assert mc._binomial(random, n, 0.0) == 0
        assert mc._binomial(random, n, 1.0) == n
        assert mc._binomial(random, 0, 0.3) == 0


class TestCountTable:
    """A count table is the six window cells of one point, as plain ints in
    ``window_probability_grid`` order."""
    ARGV = ["sweep", "--shots", "60000", "--seed", "12", "--theta", "0:2.5:3",
            "--alpha", "0:60:4", "--basis", "da", "--efficiency", "0.4", "--dark", "0.05"]

    def grid(self):
        """The window probabilities and the count tables of the sampled
        sweep ``ARGV``, drawn through ``run_grid``."""
        thetas, alphas = cli.parse_grid("0:2.5:3"), cli.parse_grid("0:60:4")
        model = mc.DetectionModel(efficiency=0.4, dark_probability=0.05, seed=12)
        base = settings(basis=qdc.BASIS_DA)
        return (mc.window_probability_grid(base, model, thetas, alphas),
                mc.run_grid(base, model, thetas, alphas, 5000))

    def test_six_int_cells_in_window_grid_order(self):
        assert mc.CountTable._fields == ("h_a", "h_b", "v_a", "v_b", "discarded_zero",
                                         "discarded_multi")
        assert [f"{corr[-1].lower()}_{grp.lower()}" for corr, grp in CATEGORIES] == list(
            mc.CountTable._fields[:4])
        probabilities, tables = self.grid()
        cells = [p for row in probabilities for p in row]
        assert len(tables) == len(cells) == 12
        for p, table in zip(cells, tables):
            assert len(table) == 6 and all(type(n) is int for n in table)
            assert sum(table) == table.shots == 5000
            assert table.valid == sum(table[:4])
            # each cell within 5 sigma of its own expectation
            for n, q in zip(table, p):
                assert abs(n - 5000 * q) <= 5 * math.sqrt(5000 * q * (1 - q)) + 1e-9

    def test_tables_add_up_to_the_window_line(self, capsys):
        assert cli.main(self.ARGV) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("shots: ")).split()
        reported = {w.rstrip(":"): int(n) for w, n in zip(line[::2], line[1::2])}
        cells = [sum(column) for column in zip(*self.grid()[1])]
        assert reported == {"shots": sum(cells), "valid": sum(cells[:4]),
                            "discarded_zero": cells[4], "discarded_multi": cells[5]}
        assert reported["shots"] == 60000

    def test_json_round_trip(self):
        for table in self.grid()[1]:
            fields = json.loads(json.dumps(table._asdict()))
            assert fields == table._asdict()
            assert mc.CountTable(**fields) == table


class TestWindowReference:
    """The grouped window cells against the per-outcome weighted sum of
    ``reference.window_cells``."""

    @pytest.mark.parametrize("eta,dark", [(0.25, 4.8e-4), (1.0, 0.0), (0.0, 0.0),
                                          (0.9, 0.2), (0.0, 1.0)])
    @pytest.mark.parametrize("basis", [qdc.BASIS_HV, qdc.BASIS_DA])
    @pytest.mark.parametrize("inp", [qdc.INPUT_ENTANGLED, qdc.INPUT_MIXTURE])
    @pytest.mark.parametrize("scan", [False, True])
    def test_grid_matches_reference(self, eta, dark, basis, inp, scan):
        model = mc.DetectionModel(efficiency=eta, dark_probability=dark)
        if scan:  # shaped like a bell phase scan: 17 phases, one rotation
            thetas = np.linspace(0.0, 2.0 * math.pi, 17)
            alphas = [90.0 if basis == qdc.BASIS_HV else 45.0]
        else:
            thetas, alphas = np.linspace(-1.0, 9.7, 7), np.linspace(-30.0, 135.0, 6)
        s = settings(basis=basis, input=inp)
        grid = mc.window_probability_grid(s, model, thetas, alphas)
        assert len(grid) == len(thetas)
        for theta, row in zip(thetas, grid):
            assert len(row) == len(alphas)
            for alpha, cells in zip(alphas, row):
                ref = reference.window_cells(s, model, float(theta), float(alpha))
                np.testing.assert_allclose(cells, ref, rtol=0, atol=1e-15)
                # exactly, since a multinomial draw rejects a cell of -1e-17
                assert all(cell >= 0.0 for cell in cells)

    @pytest.mark.parametrize("basis", [qdc.BASIS_HV, qdc.BASIS_DA])
    @pytest.mark.parametrize("inp", [qdc.INPUT_ENTANGLED, qdc.INPUT_MIXTURE])
    def test_unnormalized_apparatus_raises(self, monkeypatch, basis, inp):
        # a fault that scales every compiled amplitude by 1.01, so every
        # coefficient of the quadratic group forms by 1.0201: the joint
        # outcome probabilities then sum to 1.0201 at every point
        good = qdc._compiled

        def scaled(*key):
            return tuple(tuple(tuple(1.0201 * c for c in form) for form in group)
                         for group in good(*key))

        monkeypatch.setattr(qdc, "_compiled", scaled)
        with pytest.raises(RuntimeError, match=r"sum to 1\.020"):
            mc.run_grid(settings(basis=basis, input=inp), mc.DetectionModel(seed=1),
                        [0.0, 1.0], [0.0, 45.0], 100)


class TestEstimate:
    def _table(self, n_a, n_b):
        return mc.CountTable(h_a=n_a, h_b=n_b, v_a=0, v_b=0, discarded_zero=0,
                             discarded_multi=0)

    def test_binomial_formula(self):
        est = analysis.estimate(self._table(75, 25))
        assert est.value == pytest.approx(0.75)
        assert est.stderr == pytest.approx(0.0433, abs=1e-4)

    def test_symmetric(self):
        est = analysis.estimate(self._table(50, 50))
        assert est.value == pytest.approx(0.5)
        assert est.stderr == pytest.approx(0.05)

    def test_degenerate_flagged(self):
        assert analysis.estimate(self._table(0, 0)) is None

