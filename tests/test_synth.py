import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from survcontrast.data import discretize
from survcontrast.synth import (
    GENERATORS,
    OracleData,
    SynthConfig,
    generate_discrete_oracle,
    generate_paired_exponential,
    margin_study,
    oracle_hazards,
)


def test_paired_exponential_deterministic():
    cfg = SynthConfig(n_samples=500, seed=5)
    a = generate_paired_exponential(cfg)
    b = generate_paired_exponential(cfg)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.observed_times, b.observed_times)
    np.testing.assert_array_equal(a.events, b.events)


def test_paired_exponential_censoring_band():
    data = generate_paired_exponential(SynthConfig(n_samples=1000, seed=0))
    frac_censored = 1.0 - data.events.mean()
    assert 0.2 < frac_censored < 0.8


def test_paired_exponential_symmetric_censoring():
    # event and censoring scales are exchangeable, so censoring ~ 1/2
    data = generate_paired_exponential(SynthConfig(n_samples=20_000, seed=1))
    frac = 1.0 - data.events.mean()
    assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 20_000)


def test_paired_exponential_times_finite_positive():
    data = generate_paired_exponential(SynthConfig(n_samples=2000, seed=2))
    assert np.all(np.isfinite(data.observed_times))
    assert np.all(data.observed_times >= 0)
    assert np.all(np.isfinite(data.true_event_times))


def test_paired_exponential_hidden_truth_consistency():
    data = generate_paired_exponential(SynthConfig(n_samples=2000, seed=3))
    censored = data.events == 0
    assert np.all(data.true_event_times[censored] > data.censor_times[censored])
    np.testing.assert_array_equal(data.observed_times[~censored], data.true_event_times[~censored])
    np.testing.assert_array_equal(data.observed_times[censored], data.censor_times[censored])


def test_paired_exponential_needs_four_features():
    with pytest.raises(ValueError):
        SynthConfig(n_samples=10, feature_dim=3)


def test_rate_parameterization_flips_scale():
    mean_cfg = SynthConfig(n_samples=30_000, seed=4, exponential_param="mean")
    rate_cfg = SynthConfig(n_samples=30_000, seed=4, exponential_param="rate")
    t_mean = generate_paired_exponential(mean_cfg).true_event_times.mean()
    t_rate = generate_paired_exponential(rate_cfg).true_event_times.mean()
    assert t_mean > 10 * t_rate  # scales around 35-105 vs their reciprocals


def test_csv_roundtrip(tmp_path):
    from survcontrast.cli import main
    from survcontrast.data import Schema, load_csv

    for kind in GENERATORS:
        out = tmp_path / kind
        assert main(["synth", "--kind", kind.replace("_", "-"), "--n", "50", "--seed", "6", "--out", str(out)]) == 0
        raw = load_csv(out / "synth.csv", Schema.from_json(out / "schema.json"))
        truth = GENERATORS[kind](SynthConfig(n_samples=50, seed=6, kind=kind)).to_raw()
        assert len(raw) == 50
        assert raw.feature_names == truth.feature_names
        np.testing.assert_allclose(raw.features, truth.features, rtol=1e-10)
        np.testing.assert_allclose(raw.times, truth.times, rtol=1e-10)
        np.testing.assert_array_equal(raw.events, truth.events)


# ---------------------------------------------------------------------------
# margin study
# ---------------------------------------------------------------------------

def test_margin_study_truth_gap_dominates():
    data = generate_paired_exponential(SynthConfig(n_samples=1000, seed=7))
    pairs = margin_study(data, n_bins=100)
    assert pairs.shape[0] > 0
    censor_gap, truth_gap = pairs[:, 1], pairs[:, 2]
    assert np.all(truth_gap >= censor_gap)
    assert truth_gap.mean() > censor_gap.mean()


def test_margin_study_sorted_by_anchor_time():
    data = generate_paired_exponential(SynthConfig(n_samples=300, seed=8))
    pairs = margin_study(data, n_bins=50)
    assert np.all(np.diff(pairs[:, 0]) >= 0)


def test_margin_study_empty_without_censoring():
    data = generate_paired_exponential(SynthConfig(n_samples=200, seed=9))
    data.events[:] = 1
    assert margin_study(data, n_bins=50).shape == (0, 3)


def assert_same_array(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def margin_study_loop(data, n_bins):
    """Reference: every (event anchor, later-censored partner) pair by a
    double loop, in anchor then partner index order."""
    grid, taus = discretize(data.observed_times, n_bins)
    true_taus = grid.to_bin(data.true_event_times)
    censored = np.flatnonzero(data.events == 0)
    rows = []
    for i in np.flatnonzero(data.events == 1):
        for j in censored[taus[censored] > taus[i]]:
            rows.append((taus[i], taus[j] - taus[i], true_taus[j] - taus[i]))
    if not rows:
        return np.empty((0, 3), dtype=int)
    out = np.array(rows, dtype=int)
    return out[np.argsort(out[:, 0], kind="stable")]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    n_bins=st.integers(2, 12),
    events=st.sampled_from(["drawn", "all-event", "all-censored"]),
)
def test_margin_study_matches_pair_loop(n, seed, n_bins, events):
    data = generate_paired_exponential(SynthConfig(n_samples=n, seed=seed))
    if events != "drawn":
        data.events[:] = events == "all-event"
    assert_same_array(margin_study(data, n_bins), margin_study_loop(data, n_bins))


# ---------------------------------------------------------------------------
# discrete oracle
# ---------------------------------------------------------------------------

def test_oracle_deterministic():
    cfg = SynthConfig(n_samples=400, kind="discrete_oracle", seed=10, n_bins=30)
    a = generate_discrete_oracle(cfg)
    b = generate_discrete_oracle(cfg)
    np.testing.assert_array_equal(a.taus, b.taus)
    np.testing.assert_array_equal(a.deltas, b.deltas)
    np.testing.assert_array_equal(a.true_hazards, b.true_hazards)


def discrete_oracle_loop(config):
    """Reference: one ``searchsorted`` draw per row on the inline pmf, with
    the generator's RNG draw order (features, event draws, censoring)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    x = rng.uniform(size=(config.n_samples, config.feature_dim))
    hazards = oracle_hazards(config, x)
    surv = np.cumprod(1.0 - hazards, axis=1)
    pmf = hazards * np.concatenate([np.ones((len(x), 1)), surv[:, :-1]], axis=1)
    cdf = np.cumsum(pmf, axis=1)
    u = rng.uniform(size=len(x))
    taus = np.empty(len(x), dtype=int)
    deltas = np.empty(len(x), dtype=int)
    for i in range(len(x)):
        k = int(np.searchsorted(cdf[i], u[i]))
        if k >= config.n_bins:  # event beyond the horizon
            taus[i], deltas[i] = config.n_bins - 1, 0
        else:
            taus[i], deltas[i] = k, 1
    if config.censor_rate > 0:
        censor_mask = rng.uniform(size=len(x)) < config.censor_rate
        c = rng.integers(0, config.n_bins, size=len(x))
        hit = censor_mask & (c < taus)
        taus[hit] = c[hit]
        deltas[hit] = 0
    return OracleData(x, taus, deltas, hazards)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    n_bins=st.integers(2, 8),
    censor_rate=st.sampled_from([0.0, 0.3, 1.0]),
    # -30 puts every event past the horizon (all censored), 30 every event in bin 0
    intercept=st.sampled_from([-30.0, -3.0, 0.0, 30.0]),
)
def test_discrete_oracle_matches_row_loop(n, seed, n_bins, censor_rate, intercept):
    cfg = SynthConfig(n_samples=n, kind="discrete_oracle", seed=seed, n_bins=n_bins,
                      censor_rate=censor_rate, hazard_intercept=intercept)
    got, want = generate_discrete_oracle(cfg), discrete_oracle_loop(cfg)
    for name in ("features", "taus", "deltas", "true_hazards"):
        assert_same_array(getattr(got, name), getattr(want, name))


def test_oracle_forced_terminal_event():
    n_bins = 12
    logits = np.full(n_bins, -40.0)
    logits[-1] = 40.0
    cfg = SynthConfig(n_samples=200, kind="discrete_oracle", seed=11, n_bins=n_bins, feature_scale=0.0)
    data = generate_discrete_oracle(cfg, time_logits=logits)
    assert np.all(data.taus == n_bins - 1)
    assert np.all(data.deltas == 1)


def test_oracle_empirical_distribution_matches_pmf():
    # feature_scale 0 makes every sample share one hazard curve (fixed-x case)
    cfg = SynthConfig(
        n_samples=100_000, kind="discrete_oracle", seed=12, n_bins=25, feature_scale=0.0,
        hazard_intercept=-2.5, hazard_slope=2.0,
    )
    data = generate_discrete_oracle(cfg)
    h = data.true_hazards[0]
    surv = np.cumprod(1.0 - h)
    pmf = h * np.concatenate([[1.0], surv[:-1]])
    tail = surv[-1]

    counts = np.zeros(cfg.n_bins + 1)
    for t, d in zip(data.taus, data.deltas):
        counts[t if d == 1 else cfg.n_bins] += 1
    expected = np.concatenate([pmf, [tail]]) * cfg.n_samples
    keep = expected >= 5  # chi-squared validity
    counts[~keep] = 0
    result = stats.chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
    assert result.pvalue > 0.01


def test_oracle_empirical_survival_within_bands():
    cfg = SynthConfig(
        n_samples=20_000, kind="discrete_oracle", seed=13, n_bins=20, feature_scale=0.0,
        hazard_intercept=-2.0, hazard_slope=1.5,
    )
    data = generate_discrete_oracle(cfg)
    true_surv = np.cumprod(1.0 - data.true_hazards[0])
    for t in range(cfg.n_bins):
        if t < cfg.n_bins - 1:
            emp = (data.taus > t).mean()
        else:  # horizon survivors are recorded as administrative censorings
            emp = ((data.taus == t) & (data.deltas == 0)).mean()
        sigma = np.sqrt(max(true_surv[t] * (1 - true_surv[t]), 1e-9) / cfg.n_samples)
        assert abs(emp - true_surv[t]) < 3 * sigma + 1e-3


def test_oracle_independent_censoring():
    cfg = SynthConfig(n_samples=5000, kind="discrete_oracle", seed=14, n_bins=30, censor_rate=0.5)
    data = generate_discrete_oracle(cfg)
    assert 0.1 < 1.0 - data.deltas.mean() < 0.9
    assert np.all((data.taus >= 0) & (data.taus < 30))


def test_oracle_hazard_shape_matches_config():
    cfg = SynthConfig(n_samples=10, kind="discrete_oracle", seed=15, n_bins=17, feature_dim=6)
    data = generate_discrete_oracle(cfg)
    assert data.true_hazards.shape == (10, 17)
    assert np.all((data.true_hazards > 0) & (data.true_hazards < 1))
    # direct evaluation agrees with the stored rows
    np.testing.assert_allclose(oracle_hazards(cfg, data.features), data.true_hazards)
