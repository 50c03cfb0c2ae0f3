import json
import math
import random
from itertools import product

import numpy as np
import pytest

import reference
from qbs_sim import analysis
from qbs_sim import experiment as qdc
from qbs_sim import montecarlo as mc
from qbs_sim.surfaces import CorrelationSurface

THETAS = np.linspace(0.0, 2.0 * math.pi, 17)


def random_scan(rng):
    """A noisy sinusoid with its standard errors, at 8 to 40 increasing
    angles spanning 2 pi to 4 pi."""
    n = rng.randint(8, 40)
    t0, span = rng.uniform(-5.0, 5.0), 2.0 * math.pi * rng.uniform(1.0, 2.0)
    thetas = [t0] + sorted(t0 + span * rng.random() for _ in range(n - 2)) + [t0 + span]
    b, c = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
    errs = [rng.uniform(0.005, 0.03) for _ in thetas]
    values = [0.5 + b * math.cos(t) + c * math.sin(t) + rng.gauss(0.0, e)
              for t, e in zip(thetas, errs)]
    return thetas, values, errs


def floored_scan(rng, windows=15):
    """A 17-point scan of estimates k / n from n windows per point, on a
    fringe of visibility 0.8 to 0.9, with binomial standard errors floored
    at 1e-6 where they are zero, as ``bell`` floors them."""
    phase, vis = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.8, 0.9)
    values, errs = [], []
    for theta in THETAS.tolist():
        p = 0.5 * (1.0 + vis * math.cos(theta - phase))
        k = sum(rng.random() < p for _ in range(windows))
        values.append(k / windows)
        errs.append(max(math.sqrt(k * (windows - k) / windows) / windows, 1e-6))
    return THETAS.tolist(), values, errs


def assert_matches_exact_fit(thetas, values, errs):
    """``fit_visibility`` against ``reference.exact_fit`` to 1e-12 relative,
    with the clamp to 1 and the 3-sigma rejection applied to the exact
    visibility; returns whether the fit gave a result."""
    v, sigma = reference.exact_fit(thetas, values, errs)
    if v > 1.0 + 3.0 * sigma + 1e-9:
        with pytest.raises(analysis.FitError, match="exceeds 1 beyond 3 sigma"):
            analysis.fit_visibility(thetas, values, errs)
        return False
    fit = analysis.fit_visibility(thetas, values, errs)
    assert fit.value == pytest.approx(min(v, 1.0), rel=1e-12)
    assert fit.uncertainty == pytest.approx(sigma, rel=1e-12)
    return True


class TestFitVisibility:
    def test_perfect_fringe(self):
        vis = analysis.fit_visibility(THETAS, 0.5 + 0.5 * np.cos(THETAS))
        assert vis.value == pytest.approx(1.0, abs=1e-12)
        assert vis.uncertainty < 1e-9

    def test_partial_fringe(self):
        vis = analysis.fit_visibility(THETAS, 0.5 + 0.45 * np.cos(THETAS))
        assert vis.value == pytest.approx(0.9, abs=1e-12)

    def test_flat_scan(self):
        vis = analysis.fit_visibility(THETAS, np.full_like(THETAS, 0.5))
        assert vis.value == pytest.approx(0.0, abs=1e-12)

    def test_phase_offset_recovered(self):
        vis = analysis.fit_visibility(THETAS, 0.5 + 0.3 * np.cos(THETAS - 1.1))
        assert vis.value == pytest.approx(0.6, abs=1e-12)

    def test_matches_max_min_estimator_on_noiseless_data(self):
        for alpha in (10.0, 45.0, 80.0):
            y = np.array([qdc.closed_form_ia(t, alpha) for t in THETAS])
            fit = analysis.fit_visibility(THETAS, y).value
            ratio = (y.max() - y.min()) / (y.max() + y.min())
            assert fit == pytest.approx(ratio, abs=1e-9)

    def test_morphing_law(self):
        # fitted visibility equals sin^2(alpha) on analytic scans
        for alpha in (0.0, 30.0, 45.0, 60.0, 90.0):
            y = [
                qdc.category_probability(
                    qdc.ExperimentSettings(theta=float(t), alpha_deg=alpha)
                )
                for t in THETAS
            ]
            vis = analysis.fit_visibility(THETAS, y)
            assert abs(vis.value - math.sin(math.radians(alpha)) ** 2) < 1e-9

    def test_too_few_samples_rejected(self):
        with pytest.raises(analysis.FitError):
            analysis.fit_visibility(THETAS[:5], np.ones(5))

    def test_short_span_rejected(self):
        th = np.linspace(0, math.pi, 12)
        with pytest.raises(analysis.FitError):
            analysis.fit_visibility(th, np.cos(th))

    def test_non_increasing_rejected(self):
        th = np.concatenate([THETAS[:10], THETAS[8:]])
        with pytest.raises(analysis.FitError):
            analysis.fit_visibility(th, np.ones_like(th))

    def test_degenerate_scan_rejected(self):
        # every angle is a multiple of 2 pi, so the cos column repeats the
        # constant one and the sin column is rounding noise
        th = [2.0 * math.pi * k for k in range(8)]
        with pytest.raises(analysis.FitError, match="singular design matrix"):
            analysis.fit_visibility(th, [0.5] * 8)

    def test_mismatched_lengths_rejected(self):
        values = (0.5 + 0.5 * np.cos(THETAS)).tolist()
        with pytest.raises(analysis.FitError, match="16 values for 17 thetas"):
            analysis.fit_visibility(THETAS, values[:-1])
        with pytest.raises(analysis.FitError, match="18 stderrs for 17 thetas"):
            analysis.fit_visibility(THETAS, values, [0.01] * 18)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_exact_fit_on_random_scans(self, weighted):
        rng = random.Random(12)
        for _ in range(30):
            thetas, values, errs = random_scan(rng)
            assert_matches_exact_fit(thetas, values, errs if weighted else None)

    def test_matches_exact_fit_on_floored_scans(self):
        rng = random.Random(13)
        scans = [scan for scan in (floored_scan(rng) for _ in range(60)) if 1e-6 in scan[2]]
        # floors at a count of zero and of all windows, and enough scans
        # with a floor that the fit accepts
        assert {0.0, 1.0} <= {y for _, values, errs in scans
                              for y, e in zip(values, errs) if e == 1e-6}
        assert sum(assert_matches_exact_fit(*scan) for scan in scans) >= 10


class TestBellParameter:
    def test_unit_visibilities(self):
        s, _ = analysis.bell_parameter(
            analysis.Visibility(1.0, 0.0), analysis.Visibility(1.0, 0.0)
        )
        assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_near_unit_visibilities(self):
        s, _ = analysis.bell_parameter(
            analysis.Visibility(0.98, 0.0), analysis.Visibility(0.98, 0.0)
        )
        assert s == pytest.approx(2.7719, abs=1e-4)

    def test_zero(self):
        s, _ = analysis.bell_parameter(
            analysis.Visibility(0.0, 0.0), analysis.Visibility(0.0, 0.0)
        )
        assert s == 0.0

    def test_uncertainty_quadrature(self):
        _, sig = analysis.bell_parameter(
            analysis.Visibility(0.9, 0.03), analysis.Visibility(0.9, 0.04)
        )
        assert sig == pytest.approx(math.sqrt(2.0) * 0.05, abs=1e-12)

    def test_monotone_and_symmetric(self):
        v = lambda x: analysis.Visibility(x, 0.01)
        s1, _ = analysis.bell_parameter(v(0.7), v(0.8))
        s2, _ = analysis.bell_parameter(v(0.75), v(0.8))
        s3, _ = analysis.bell_parameter(v(0.8), v(0.7))
        assert s2 > s1
        assert s1 == pytest.approx(s3, abs=1e-15)


class TestClassicalBoundViolation:
    def test_reported_value(self):
        assert analysis.classical_bound_violation(2.77, 0.07) == pytest.approx(11.0)

    def test_on_boundary(self):
        assert analysis.classical_bound_violation(2.0, 0.1) == 0.0

    def test_maximal(self):
        assert analysis.classical_bound_violation(2.8284, 0.05) == pytest.approx(
            16.568, abs=1e-3
        )

    def test_requires_positive_uncertainty(self):
        with pytest.raises(ValueError):
            analysis.classical_bound_violation(2.5, 0.0)


class TestSurfaceFromCounts:
    def test_matches_analytic_within_4_sigma(self):
        model = mc.DetectionModel(efficiency=1.0, dark_probability=0.0, seed=8)
        thetas, alphas, tables = np.linspace(0, 2 * math.pi, 4), (0.0, 45.0, 90.0), []
        for i, theta in enumerate(thetas):
            for alpha in alphas:
                s = qdc.ExperimentSettings(theta=float(theta), alpha_deg=alpha)
                tables.append(mc.run(s, model, 40_000, stream=i))
        surf = analysis.surface_from_counts(thetas, alphas, tables)
        points = zip(product(surf.thetas, surf.alphas), surf.values, surf.stderrs)
        for (theta, alpha), value, stderr in points:
            exact = qdc.closed_form_ia(theta, alpha)
            assert abs(value - exact) < max(4 * stderr, 1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            analysis.surface_from_counts([], [], [])

    def test_point_without_counts_is_named(self):
        empty = mc.CountTable(0, 0, 0, 0, 10, 0)
        full = mc.CountTable(3, 7, 0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"theta=1\.0, alpha=10\.0"):
            analysis.surface_from_counts([0.0, 1.0], [10.0, 20.0], [full, full, empty, full])


class TestCausality:
    def test_default_geometry_is_spacelike(self):
        e1 = analysis.SpacetimeEvent(0.0, 0.0)
        e2 = analysis.SpacetimeEvent(20.0, 20.0)
        assert analysis.is_spacelike(e1, e2)

    def test_timelike_same_place(self):
        e1 = analysis.SpacetimeEvent(0.0, 0.0)
        e2 = analysis.SpacetimeEvent(0.0, 1.0)
        assert not analysis.is_spacelike(e1, e2)

    def test_close_events_are_lightlike_connected(self):
        e1 = analysis.SpacetimeEvent(0.0, 0.0)
        e2 = analysis.SpacetimeEvent(5.0, 20.0)
        assert not analysis.is_spacelike(e1, e2)

    def test_symmetric(self):
        e1 = analysis.SpacetimeEvent(3.0, 10.0)
        e2 = analysis.SpacetimeEvent(40.0, 2.0)
        assert analysis.is_spacelike(e1, e2) == analysis.is_spacelike(e2, e1)

    def test_huge_separations_do_not_overflow(self):
        origin = analysis.SpacetimeEvent(0.0, 0.0)
        assert not analysis.is_spacelike(origin, analysis.SpacetimeEvent(20.0, 1e300))
        assert analysis.is_spacelike(origin, analysis.SpacetimeEvent(1e200, 20.0))
        assert analysis.is_spacelike(origin, analysis.SpacetimeEvent(-1.7e308, 1.7e308))

    def test_same_answers_as_squared_comparison(self):
        rng = random.Random(5)
        for _ in range(2000):
            x, t = (rng.uniform(-1, 1) * 10 ** rng.randint(-6, 6) for _ in range(2))
            e = analysis.SpacetimeEvent(x, t)
            squared = (analysis.SPEED_OF_LIGHT * t * 1e-9) ** 2 < x ** 2
            assert analysis.is_spacelike(analysis.SpacetimeEvent(0.0, 0.0), e) == squared

    def test_report_fields(self):
        rep = json.loads(
            analysis.causality_report(
                analysis.SpacetimeEvent(0.0, 0.0), analysis.SpacetimeEvent(20.0, 20.0)
            )
        )
        assert rep["spacelike"] is True
        assert rep["c_delta_t_m"] == pytest.approx(5.9958, abs=1e-3)
        assert rep["delta_x_m"] == 20.0


class TestPropagationDelay:
    def test_50m_standard_fiber(self):
        assert analysis.propagation_delay(50.0, 1.468) == pytest.approx(244.8, abs=0.1)

    def test_zero_length(self):
        assert analysis.propagation_delay(0.0) == 0.0

    def test_overflowing_delay_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            analysis.propagation_delay(1e308, 1e10)

    def test_55m(self):
        assert analysis.propagation_delay(55.0, 1.468) == pytest.approx(269.3, abs=0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            analysis.propagation_delay(-1.0)


def csv_bits(text):
    """The data rows of a surface CSV, each cell parsed with ``float`` and
    given as its exact bits."""
    return [tuple(float(cell).hex() for cell in line.split(","))
            for line in text.splitlines()[1:]]


def column_bits(surf):
    """The data rows that a surface's columns give, each float as its exact
    bits."""
    columns = [surf.values] + ([] if surf.stderrs is None else [surf.stderrs])
    return [tuple(x.hex() for x in (*point, *cells))
            for point, *cells in zip(product(surf.thetas, surf.alphas), *columns)]


def json_dumps_of_columns(surf):
    """``json.dumps`` of one dict per point, built from the columns."""
    stderrs = surf.stderrs or [None] * len(surf.values)
    points = zip(product(surf.thetas, surf.alphas), surf.values, stderrs)
    return json.dumps([{"theta": t, "alpha_deg": a, "value": v, "stderr": e}
                       for (t, a), v, e in points], indent=2)


class TestSurfaceColumns:
    def test_analytic(self):
        s = qdc.ExperimentSettings(basis=qdc.BASIS_DA, input=qdc.INPUT_MIXTURE)
        thetas, alphas = np.linspace(-1.0, 9.7, 5), [-30.0, 0.0, 45.0, 135.0]
        surf = qdc.surface(s, thetas, alphas)
        assert surf.thetas == thetas.tolist() and surf.alphas == alphas
        assert surf.stderrs is None
        assert surf.values == [
            qdc.category_probability(s._replace(theta=float(theta), alpha_deg=alpha))
            for theta in thetas for alpha in alphas]
        assert all(type(x) is float for x in surf.thetas + surf.alphas + surf.values)

    def test_sampled(self):
        thetas, alphas = [0.0, 2.0], [10.0, 50.0, 80.0]
        tables = mc.run_grid(qdc.ExperimentSettings(), mc.DetectionModel(seed=4),
                             thetas, alphas, 5000)
        surf = analysis.surface_from_counts(thetas, alphas, tables)
        estimates = [analysis.estimate(table) for table in tables]
        assert (surf.thetas, surf.alphas) == (thetas, alphas)
        assert surf.values == [e.value for e in estimates]
        assert surf.stderrs == [e.stderr for e in estimates]

    def test_values_must_fill_the_grid(self):
        with pytest.raises(ValueError):
            CorrelationSurface([0.0, 1.0], [0.0], [0.5])
        with pytest.raises(ValueError):
            CorrelationSurface([0.0], [0.0], [])


class TestSurfaceJson:
    """``to_json`` writes the bytes of ``json.dumps(..., indent=2)`` of one
    dict per point."""

    @pytest.mark.parametrize("n_theta,n_alpha", [(1, 1), (1, 5), (5, 1), (7, 4)])
    @pytest.mark.parametrize("basis", (qdc.BASIS_HV, qdc.BASIS_DA))
    def test_analytic(self, n_theta, n_alpha, basis):
        s = qdc.ExperimentSettings(basis=basis, input=qdc.INPUT_MIXTURE)
        surf = qdc.surface(s, np.linspace(-1.0, 9.7, n_theta),
                           np.linspace(-30.0, 135.0, n_alpha))
        text = surf.to_json()
        assert text == json_dumps_of_columns(surf)
        assert '"stderr": null' in text

    @pytest.mark.parametrize("n_theta,n_alpha", [(1, 1), (1, 3), (4, 1), (3, 3)])
    def test_sampled(self, n_theta, n_alpha):
        thetas = np.linspace(0.0, 6.0, n_theta).tolist()
        alphas = np.linspace(10.0, 80.0, n_alpha).tolist()
        tables = mc.run_grid(qdc.ExperimentSettings(), mc.DetectionModel(seed=6),
                             thetas, alphas, 3000)
        surf = analysis.surface_from_counts(thetas, alphas, tables)
        assert surf.to_json() == json_dumps_of_columns(surf)

    def test_signed_zeros_and_exponents(self):
        # signed zeros, and floats whose repr has an exponent
        thetas, alphas = [-0.0, 1e-300, 2.5e22], [-0.0, 5e-324, -1e16]
        values = [0.0, -0.0, 1e-17, 1e-05, 0.5, 1.0, 3e-310, 7e-8, 0.25]
        stderrs = [1e-9, 0.0, 2e-06, -0.0, 1e-300, 0.1, 0.5, 1e-16, 4e-05]
        for errs in (None, stderrs):
            surf = CorrelationSurface(thetas, alphas, values, errs)
            text = surf.to_json()
            assert text == json_dumps_of_columns(surf)
            assert '"theta": -0.0' in text and '"alpha_deg": 5e-324' in text
            assert [p["value"] for p in json.loads(text)] == values


class TestSurfaceCsv:
    def test_round_trip_bit_identical(self):
        model = mc.DetectionModel(seed=2)
        table = mc.run(qdc.ExperimentSettings(theta=0.3, alpha_deg=45.0), model, 30_000)
        surf = analysis.surface_from_counts([0.3], [45.0], [table])
        text = surf.to_csv()
        assert text.splitlines()[0] == "theta_rad,alpha_deg,estimate,stderr"
        assert csv_bits(text) == column_bits(surf)

    def test_analytic_round_trip(self):
        surf = qdc.surface(
            qdc.ExperimentSettings(), np.linspace(0, 2 * math.pi, 5), [0.0, 45.0]
        )
        text = surf.to_csv()
        assert text.splitlines()[0] == "theta_rad,alpha_deg,probability"
        assert csv_bits(text) == column_bits(surf)
