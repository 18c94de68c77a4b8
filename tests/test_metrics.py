import itertools
import math

import numpy as np
import pytest
from scipy import stats

from survcontrast import metrics as M
from survcontrast.model import risk_from_hazard, survival_from_hazard
from survcontrast.synth import SynthConfig, generate_discrete_oracle

# oracle generator settings with near-uniform survival PITs: a fine grid and
# a steep hazard ramp keep per-bin probability mass tiny
ORACLE_KW = dict(feature_dim=4, kind="discrete_oracle", n_bins=400, hazard_intercept=-7.0, hazard_slope=6.5)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def km_oracle(taus, deltas, n_bins):
    values = []
    s = 1.0
    for t in range(n_bins):
        at_risk = sum(1 for tau in taus if tau >= t)
        events = sum(1 for tau, d in zip(taus, deltas) if tau == t and d == 1)
        if at_risk > 0:
            s *= 1.0 - events / at_risk
        values.append(s)
    return np.array(values)


def ci_td_oracle(risks, taus, deltas, t):
    num, den = 0.0, 0
    n = len(taus)
    for i in range(n):
        for j in range(n):
            if deltas[i] == 1 and taus[i] <= t and taus[i] < taus[j]:
                den += 1
                ri, rj = risks[i, taus[i]], risks[j, taus[i]]
                num += 1.0 if ri > rj else (0.5 if ri == rj else 0.0)
    return None if den == 0 else num / den


def ci_integrated_oracle(risks, taus, deltas):
    total, weight = 0.0, 0
    for t in sorted({tau for tau, d in zip(taus, deltas) if d == 1}):
        new = sum(
            1
            for i in range(len(taus))
            for j in range(len(taus))
            if deltas[i] == 1 and taus[i] == t and taus[i] < taus[j]
        )
        if new == 0:
            continue
        value = ci_td_oracle(risks, taus, deltas, t)
        if value is None:
            continue
        total += new * value
        weight += new
    return total / weight


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------

def test_km_all_censored():
    curve = M.kaplan_meier([1, 3, 5], [0, 0, 0])
    np.testing.assert_array_equal(curve.values, np.ones(6))


def test_km_hand_case():
    curve = M.kaplan_meier([1, 2, 3], [1, 0, 1])
    np.testing.assert_allclose(curve.values, [1.0, 2 / 3, 2 / 3, 0.0], atol=1e-15)


def test_km_no_censoring_is_ecdf_complement():
    rng = np.random.default_rng(0)
    taus = rng.integers(0, 10, size=200)
    curve = M.kaplan_meier(taus, np.ones_like(taus))
    grid = np.arange(curve.n_bins)
    ecdf_surv = [(taus > t).mean() for t in grid]
    np.testing.assert_allclose(curve.values, ecdf_surv, atol=1e-12)


def test_km_matches_brute_force_all_censoring_patterns():
    rng = np.random.default_rng(1)
    time_sets = [rng.integers(0, 3, size=8) for _ in range(3)] + [np.zeros(8, dtype=int)]
    for taus in time_sets:
        for pattern in itertools.product([0, 1], repeat=8):
            deltas = np.array(pattern)
            got = M.kaplan_meier(taus, deltas, n_bins=3).values
            np.testing.assert_allclose(got, km_oracle(taus, deltas, 3), atol=1e-12)


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------

def constant_risk_curves(levels, n_bins=8):
    return np.tile(np.asarray(levels, dtype=float)[:, None], (1, n_bins))


def test_ci_td_perfectly_ordered():
    taus = np.array([1, 2, 3, 4])
    risks = constant_risk_curves([0.9, 0.7, 0.5, 0.3])
    assert M.c_index_td(risks, taus, np.ones(4, dtype=int), 4) == 1.0


def test_ci_td_reversed():
    taus = np.array([1, 2, 3, 4])
    risks = constant_risk_curves([0.3, 0.5, 0.7, 0.9])
    assert M.c_index_td(risks, taus, np.ones(4, dtype=int), 4) == 0.0


def test_ci_td_all_tied():
    taus = np.array([1, 2, 3, 4])
    risks = constant_risk_curves([0.5, 0.5, 0.5, 0.5])
    assert M.c_index_td(risks, taus, np.ones(4, dtype=int), 4) == 0.5


def test_ci_td_undefined_distinct_from_zero():
    taus = np.array([3, 3])
    assert M.c_index_td(constant_risk_curves([0.2, 0.4]), taus, np.array([0, 0]), 3) is None


def test_ci_integrated_monotone_model():
    rng = np.random.default_rng(2)
    taus = rng.integers(0, 8, size=40)
    risks = constant_risk_curves(1.0 - taus / 10.0)
    assert M.c_index_integrated(risks, taus, np.ones_like(taus)) == 1.0


def test_ci_integrated_random_risks_near_half():
    rng = np.random.default_rng(3)
    n = 500
    taus = rng.integers(0, 20, size=n)
    deltas = rng.integers(0, 2, size=n)
    risks = constant_risk_curves(rng.uniform(size=n), n_bins=20)
    value = M.c_index_integrated(risks, taus, deltas)
    assert abs(value - 0.5) < 0.04


def test_ci_matches_brute_force_100_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(5, 51))
        n_bins = int(rng.integers(3, 10))
        taus = rng.integers(0, n_bins, size=n)
        deltas = rng.integers(0, 2, size=n)
        risks = np.sort(rng.uniform(size=(n, n_bins)), axis=1)
        if not np.any(deltas == 1):
            deltas[0] = 1
        t = int(rng.integers(0, n_bins))
        got_td = M.c_index_td(risks, taus, deltas, t)
        want_td = ci_td_oracle(risks, taus, deltas, t)
        if want_td is None:
            assert got_td is None
        else:
            assert abs(got_td - want_td) < 1e-12
        try:
            got_int = M.c_index_integrated(risks, taus, deltas)
        except M.MetricError:
            continue
        assert abs(got_int - ci_integrated_oracle(risks, taus, deltas)) < 1e-12


def test_ci_integrated_all_undefined_errors():
    taus = np.array([2, 2, 2])
    with pytest.raises(M.MetricError):
        M.c_index_integrated(constant_risk_curves([0.1, 0.2, 0.3]), taus, np.ones(3, dtype=int))


def test_ci_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(5)
    n = 60
    taus = rng.integers(0, 12, size=n)
    deltas = rng.integers(0, 2, size=n)
    deltas[:5] = 1
    risks = np.sort(rng.uniform(size=(n, 12)), axis=1)
    base = M.c_index_td(risks, taus, deltas, 8)
    transformed = M.c_index_td(np.exp(3.0 * risks) - 0.5, taus, deltas, 8)
    assert base == transformed


# ---------------------------------------------------------------------------
# Brier score / IBS
# ---------------------------------------------------------------------------

def step_oracle_curves(taus, n_bins):
    # S(t) = 1 while t < tau, 0 afterwards
    grid = np.arange(n_bins)
    return (grid[None, :] < np.asarray(taus)[:, None]).astype(float)


def test_brier_perfect_step_predictions():
    taus = np.array([1, 3, 4])
    deltas = np.ones(3, dtype=int)
    surv = step_oracle_curves(taus, 6)
    g = M.censoring_km(taus, deltas, 6)
    for t in range(6):
        assert M.brier_score(surv, taus, deltas, t, g) == 0.0


def test_brier_constant_half():
    taus = np.array([2, 5, 7, 9])
    deltas = np.ones(4, dtype=int)
    surv = np.full((4, 10), 0.5)
    g = M.censoring_km(taus, deltas, 10)
    for t in range(10):
        assert M.brier_score(surv, taus, deltas, t, g) == pytest.approx(0.25)


def test_brier_uncensored_reduces_to_mse():
    rng = np.random.default_rng(6)
    n, n_bins = 50, 12
    taus = rng.integers(0, n_bins, size=n)
    deltas = np.ones(n, dtype=int)
    surv = np.sort(rng.uniform(size=(n, n_bins)), axis=1)[:, ::-1].copy()
    g = M.censoring_km(taus, deltas, n_bins)
    for t in (0, 4, 9):
        outcome_alive = (taus > t).astype(float)
        mse = np.mean((surv[:, t] - outcome_alive) ** 2)
        assert M.brier_score(surv, taus, deltas, t, g) == pytest.approx(mse, abs=1e-12)


def test_ibs_constant_quarter():
    taus = np.array([2, 5, 7, 9])
    deltas = np.ones(4, dtype=int)
    surv = np.full((4, 10), 0.5)
    assert M.ibs(surv, taus, deltas) == pytest.approx(0.25)


def test_ibs_perfect_oracle_zero():
    rng = np.random.default_rng(7)
    taus = rng.integers(1, 10, size=30)
    deltas = np.ones(30, dtype=int)
    assert M.ibs(step_oracle_curves(taus, 10), taus, deltas) == 0.0


def test_ibs_matches_hand_trapezoid():
    taus = np.array([1, 2])
    deltas = np.ones(2, dtype=int)
    surv = np.array([[0.8, 0.3, 0.1], [0.9, 0.6, 0.2]])
    # t_hi = floor(quantile([1,2], .95)) = 1; BS(0) and BS(1) by hand (G == 1)
    bs0 = ((1 - 0.8) ** 2 + (1 - 0.9) ** 2) / 2
    bs1 = (0.3**2 + (1 - 0.6) ** 2) / 2
    assert M.ibs(surv, taus, deltas) == pytest.approx((bs0 + bs1) / 2, abs=1e-12)


def test_ibs_degenerate_interval_errors():
    with pytest.raises(M.MetricError):
        M.ibs(np.full((3, 4), 0.5), np.zeros(3, dtype=int), np.ones(3, dtype=int))


# ---------------------------------------------------------------------------
# DDC / D-calibration
# ---------------------------------------------------------------------------

def curves_with_event_survival(values, n_bins=4):
    # constant curves: the metric only reads S at the event bin
    surv = np.tile(np.asarray(values, dtype=float)[:, None], (1, n_bins))
    taus = np.full(len(values), 2, dtype=int)
    deltas = np.ones(len(values), dtype=int)
    return surv, taus, deltas


def test_ddc_uniform_zero():
    values = np.repeat((np.arange(10) + 0.5) / 10, 1000)
    surv, taus, deltas = curves_with_event_survival(values)
    assert M.ddc(surv, taus, deltas) == pytest.approx(0.0, abs=1e-12)


def test_ddc_single_bin_near_one():
    surv, taus, deltas = curves_with_event_survival(np.full(10_000, 0.55))
    value = M.ddc(surv, taus, deltas)
    assert 0.99 < value <= 1.0


def test_ddc_two_bins_closed_form():
    values = np.concatenate([np.full(5000, 0.15), np.full(5000, 0.35)])
    surv, taus, deltas = curves_with_event_survival(values)
    assert M.ddc(surv, taus, deltas) == pytest.approx(math.log(5) / math.log(10), abs=5e-3)


def test_ddc_requires_events():
    surv = np.full((5, 4), 0.5)
    with pytest.raises(M.MetricError):
        M.ddc(surv, np.zeros(5, dtype=int), np.zeros(5, dtype=int))


def test_dcal_uniform_counts():
    values = np.repeat((np.arange(10) + 0.5) / 10, 10)
    surv, taus, deltas = curves_with_event_survival(values)
    stat, p = M.d_calibration(surv, taus, deltas)
    assert stat == 0.0 and p == 1.0


def test_dcal_single_bin_statistic():
    n = 100
    surv, taus, deltas = curves_with_event_survival(np.full(n, 0.55))
    stat, _ = M.d_calibration(surv, taus, deltas)
    assert stat == pytest.approx(9 * n)


def test_dcal_chi2_spot_value():
    assert stats.chi2.sf(16.92, 9) == pytest.approx(0.05, abs=1e-3)


def test_dcal_needs_ten_events():
    surv, taus, deltas = curves_with_event_survival(np.full(9, 0.5))
    with pytest.raises(M.MetricError):
        M.d_calibration(surv, taus, deltas)


# ---------------------------------------------------------------------------
# Wasserstein
# ---------------------------------------------------------------------------

def test_wasserstein_identical_zero():
    curve = np.linspace(1.0, 0.2, 20)
    assert M.wasserstein_to_km(curve, curve.copy()) == 0.0


def test_wasserstein_constant_offset():
    a = np.linspace(1.0, 0.3, 25)
    b = a - 0.1
    assert M.wasserstein_to_km(a, b) == pytest.approx(0.1, abs=1e-12)


def test_wasserstein_symmetric():
    rng = np.random.default_rng(8)
    a = np.sort(rng.uniform(size=15))[::-1].copy()
    b = np.sort(rng.uniform(size=15))[::-1].copy()
    assert M.wasserstein_to_km(a, b) == M.wasserstein_to_km(b, a)


def test_wasserstein_grid_mismatch():
    with pytest.raises(M.MetricError):
        M.wasserstein_to_km(np.ones(5), np.ones(6))


# ---------------------------------------------------------------------------
# calibration plot
# ---------------------------------------------------------------------------

def test_calibration_plot_shape():
    rng = np.random.default_rng(9)
    risks = np.sort(rng.uniform(size=(40, 6)), axis=1)
    pairs = M.calibration_plot_data(risks, rng.integers(0, 6, 40), np.ones(40, dtype=int), 10)
    assert pairs.shape == (10, 2)


def test_calibration_plot_overestimating_model_one_sided():
    n = 50
    risks = np.full((n, 5), 0.98)  # predicts almost-certain early events
    taus = np.random.default_rng(10).integers(0, 5, n)
    pairs = M.calibration_plot_data(risks, taus, np.ones(n, dtype=int), 10)
    interior = pairs[:-1]
    assert np.all(interior[:, 1] <= interior[:, 0])
    assert np.all(interior[:, 1] == 0.0)


def test_calibration_plot_oracle_deviation_small():
    data = generate_discrete_oracle(SynthConfig(n_samples=5000, seed=2000, **ORACLE_KW))
    pairs = M.calibration_plot_data(risk_from_hazard(data.true_hazards), data.taus, data.deltas, 10)
    assert np.abs(pairs[:, 0] - pairs[:, 1]).max() < 0.05


# ---------------------------------------------------------------------------
# oracle-calibrated soundness and invariances
# ---------------------------------------------------------------------------

def test_mean_true_curve_close_to_population_km():
    data = generate_discrete_oracle(SynthConfig(n_samples=5000, seed=2024, **ORACLE_KW))
    mean_curve = survival_from_hazard(data.true_hazards).mean(axis=0)
    km = M.kaplan_meier(data.taus, data.deltas, n_bins=data.true_hazards.shape[1])
    assert M.wasserstein_to_km(mean_curve, km) < 0.05


def test_true_model_is_calibrated_on_oracle_data():
    data = generate_discrete_oracle(SynthConfig(n_samples=5000, seed=2000, **ORACLE_KW))
    surv = survival_from_hazard(data.true_hazards)
    assert M.ddc(surv, data.taus, data.deltas) < 0.02
    _, p = M.d_calibration(surv, data.taus, data.deltas)
    assert p > 0.05


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(11)
    n, n_bins = 80, 10
    taus = rng.integers(0, n_bins, size=n)
    deltas = rng.integers(0, 2, size=n)
    deltas[:15] = 1
    hazards = rng.uniform(0.02, 0.4, size=(n, n_bins))
    surv = survival_from_hazard(hazards)
    risks = risk_from_hazard(hazards)
    perm = rng.permutation(n)
    g = M.censoring_km(taus, deltas, n_bins)
    gp = M.censoring_km(taus[perm], deltas[perm], n_bins)

    np.testing.assert_allclose(
        M.kaplan_meier(taus, deltas, n_bins).values, M.kaplan_meier(taus[perm], deltas[perm], n_bins).values
    )
    assert M.c_index_td(risks, taus, deltas, 5) == pytest.approx(
        M.c_index_td(risks[perm], taus[perm], deltas[perm], 5), abs=1e-12
    )
    assert M.c_index_integrated(risks, taus, deltas) == pytest.approx(
        M.c_index_integrated(risks[perm], taus[perm], deltas[perm]), abs=1e-12
    )
    assert M.brier_score(surv, taus, deltas, 4, g) == pytest.approx(
        M.brier_score(surv[perm], taus[perm], deltas[perm], 4, gp), abs=1e-12
    )
    assert M.ddc(surv, taus, deltas) == pytest.approx(M.ddc(surv[perm], taus[perm], deltas[perm]), abs=1e-12)
    assert M.d_calibration(surv, taus, deltas) == pytest.approx(
        M.d_calibration(surv[perm], taus[perm], deltas[perm]), abs=1e-12
    )


def test_evaluate_hazards_report_fields():
    rng = np.random.default_rng(12)
    n, n_bins = 120, 12
    taus = rng.integers(0, n_bins, size=n)
    deltas = rng.integers(0, 2, size=n)
    deltas[:20] = 1
    hazards = rng.uniform(0.02, 0.3, size=(n, n_bins))
    report = M.evaluate_hazards(hazards, taus, deltas)
    assert 0.0 <= report.ci_integrated <= 1.0
    assert report.ibs >= 0.0
    assert 0.0 <= report.ddc <= 1.0
    assert 0.0 <= report.dcal_pvalue <= 1.0
    assert set(report.ci_at) == {0.25, 0.5, 0.75}
