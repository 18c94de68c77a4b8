import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats

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
    return None if weight == 0 else total / weight


def brier_oracle(surv, taus, deltas, t, censor_km):
    def weight(time):
        g = 1.0 if time < 0 else censor_km.values[min(time, censor_km.values.size - 1)]
        return max(g, M.IPCW_FLOOR)

    s_t = surv[:, min(t, surv.shape[1] - 1)]
    total = 0.0
    for i in range(len(taus)):
        if taus[i] <= t and deltas[i] == 1:
            total += s_t[i] ** 2 / weight(taus[i] - 1)
        elif taus[i] > t:
            total += (1.0 - s_t[i]) ** 2 / weight(t)
    return total / len(taus)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n_bins: st.tuples(
    st.just(n_bins),
    st.lists(st.tuples(st.integers(0, n_bins - 1), st.integers(0, 1)), min_size=1, max_size=30),
)))
def test_km_non_increasing_and_equals_product_limit_loop(instance):
    n_bins, records = instance
    taus, deltas = (np.array(column) for column in zip(*records))
    got = M.kaplan_meier(taus, deltas, n_bins=n_bins).values
    assert np.all(np.diff(got) <= 0.0) and got[0] <= 1.0
    np.testing.assert_allclose(got, km_oracle(taus, deltas, n_bins), rtol=0, atol=1e-12)


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


def test_ci_rejects_nan_risks():
    taus = np.array([1, 2, 3, 4])
    risks = constant_risk_curves([0.9, math.nan, 0.5, 0.3])
    with pytest.raises(M.MetricError):
        M.c_index_td(risks, taus, np.ones(4, dtype=int), 4)
    with pytest.raises(M.MetricError):
        M.c_index_integrated(risks, taus, np.ones(4, dtype=int))


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


def test_ci_integrated_never_allocates_an_n_by_n_array():
    rng = np.random.default_rng(13)
    n, n_bins = 3000, 50
    taus = rng.integers(0, n_bins, size=n)
    deltas = rng.integers(0, 2, size=n)
    risks = np.sort(rng.uniform(size=(n, n_bins)), axis=1)
    tracemalloc.start()
    try:
        M.c_index_integrated(risks, taus, deltas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy reports its buffers to tracemalloc; one n x n float64 matrix is 72 MB
    assert peak < n * n * 8


def test_concordance_counts_extra_memory_is_linear_in_the_rows():
    # a gather of every event time's column at once would take n x E floats (8 MB here)
    rng = np.random.default_rng(17)
    n, n_bins = 20_000, 50
    taus = rng.integers(0, n_bins, size=n)
    deltas = rng.integers(0, 2, size=n)
    risks = np.sort(rng.uniform(size=(n, n_bins)), axis=1)
    tracemalloc.start()
    try:
        event_times, _ = M._concordance_counts(risks, taus, deltas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert event_times.size == n_bins
    assert peak < 10 * n * 8


# ---------------------------------------------------------------------------
# properties on small instances with heavy ties
# ---------------------------------------------------------------------------

# three risk levels make tied pairs common, which continuous draws never give
TIE_LEVELS = (0.1, 0.5, 0.9)


@st.composite
def tied_instances(draw):
    n = draw(st.integers(2, 12))
    n_bins = draw(st.integers(1, 6))
    taus = draw(arrays(np.int64, n, elements=st.integers(0, n_bins - 1)))
    deltas = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    risks = draw(arrays(np.float64, (n, n_bins), elements=st.sampled_from(TIE_LEVELS)))
    t = draw(st.integers(-1, n_bins))
    return risks, taus, deltas, t


def ci_integrated_or_none(risks, taus, deltas):
    try:
        return M.c_index_integrated(risks, taus, deltas)
    except M.MetricError:
        return None


PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(tied_instances())
def test_ci_equals_pair_loop_with_ties(instance):
    risks, taus, deltas, t = instance
    got_td, want_td = M.c_index_td(risks, taus, deltas, t), ci_td_oracle(risks, taus, deltas, t)
    assert (got_td is None) == (want_td is None)
    if got_td is not None:
        assert abs(got_td - want_td) < 1e-12
    got_int, want_int = ci_integrated_or_none(risks, taus, deltas), ci_integrated_oracle(risks, taus, deltas)
    assert (got_int is None) == (want_int is None)
    if got_int is not None:
        assert abs(got_int - want_int) < 1e-12


@PROPERTY_SETTINGS
@given(tied_instances())
def test_ci_in_unit_interval(instance):
    risks, taus, deltas, t = instance
    for value in (M.c_index_td(risks, taus, deltas, t), ci_integrated_or_none(risks, taus, deltas)):
        assert value is None or 0.0 <= value <= 1.0


@PROPERTY_SETTINGS
@given(tied_instances(), st.sampled_from([lambda r: np.exp(3.0 * r) - 0.5, lambda r: 2.0 * r**3 + 7.0, np.log]))
def test_ci_invariant_under_increasing_transform(instance, transform):
    risks, taus, deltas, t = instance
    assert M.c_index_td(transform(risks), taus, deltas, t) == M.c_index_td(risks, taus, deltas, t)
    assert ci_integrated_or_none(transform(risks), taus, deltas) == ci_integrated_or_none(risks, taus, deltas)


@PROPERTY_SETTINGS
@given(tied_instances())
def test_brier_equals_per_sample_ipcw_formula(instance):
    risks, taus, deltas, t = instance
    surv = 1.0 - risks
    g = M.censoring_km(taus, deltas)
    assert abs(M.brier_score(surv, taus, deltas, t, g) - brier_oracle(surv, taus, deltas, t, g)) < 1e-12
    t_hi = int(np.quantile(taus, M.IBS_TIME_QUANTILE))
    if t_hi >= 1:
        scores = [brier_oracle(surv, taus, deltas, h, g) for h in range(t_hi + 1)]
        assert abs(M.ibs(surv, taus, deltas) - np.trapezoid(scores, dx=1.0) / t_hi) < 1e-12


# ---------------------------------------------------------------------------
# the report's kernels as they were before they were vectorized, kept as
# oracles: the kernels must return the same bytes
# ---------------------------------------------------------------------------

def concordance_counts_rescan(risks, taus, deltas, t_max=None):
    """``metrics._concordance_counts`` finding each time's anchors by a scan of all rows."""
    risks = np.atleast_2d(np.asarray(risks, dtype=np.float64))
    if np.isnan(risks).any():
        raise M.MetricError("concordance undefined: NaN in the risks")
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    event_times = np.unique(taus[deltas == 1])
    if t_max is not None:
        event_times = event_times[event_times <= t_max]
    order = np.argsort(taus, kind="stable")
    first_later = np.searchsorted(taus[order], event_times, side="right")
    counts = np.zeros((event_times.size, 3), dtype=np.int64)
    for k, s in enumerate(event_times):
        at_risk = order[first_later[k]:]
        anchors = np.flatnonzero((taus == s) & (deltas == 1))
        column = np.sort(risks[at_risk, s])
        own = risks[anchors, s]
        below = np.searchsorted(column, own, side="left")
        not_above = np.searchsorted(column, own, side="right")
        counts[k] = below.sum(), (not_above - below).sum(), anchors.size * at_risk.size
    return event_times, counts


def integrated_index_loop(counts):
    """``metrics._integrated_index`` as a Python loop over the event times."""
    cumulative = np.cumsum(counts, axis=0)
    total, weight_sum = 0.0, 0
    for k in np.flatnonzero(counts[:, 2]):
        new_pairs = int(counts[k, 2])
        total += new_pairs * M._c_index(*cumulative[k])
        weight_sum += new_pairs
    if weight_sum == 0:
        raise M.MetricError("concordance undefined: no comparable pairs at any event time")
    return total / weight_sum


def brier_scores_where(surv, taus, deltas, horizons, censor_km):
    """``metrics._brier_scores`` with a fresh (n, horizons) array per step."""
    surv = np.atleast_2d(np.asarray(surv, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    horizons = np.asarray(horizons, dtype=int)
    s_t = surv[:, np.minimum(horizons, surv.shape[1] - 1)]
    alive = taus[:, None] > horizons
    g_t = np.maximum(censor_km.at(horizons), M.IPCW_FLOOR)
    g_tau = np.maximum(censor_km.at(taus - 1), M.IPCW_FLOOR)[:, None]
    terms = np.where(alive, 1.0 - s_t, s_t) ** 2 / np.where(alive, g_t, g_tau)
    terms[~alive & (deltas[:, None] != 1)] = 0.0
    return np.cumsum(terms, axis=0)[-1] / taus.size


def survival_cumprod(hazards):
    """``model.survival_from_hazard`` by numpy's accumulate along the rows."""
    return np.cumprod(1.0 - np.atleast_2d(np.asarray(hazards, dtype=np.float64)), axis=1)


def outcome(kernel, *args):
    """What a kernel returns, down to the bytes of its arrays, or its MetricError's message."""
    try:
        result = kernel(*args)
    except M.MetricError as exc:
        return f"MetricError: {exc}"
    parts = result if isinstance(result, tuple) else (result,)
    return [(p.dtype.str, p.shape, p.tobytes()) if isinstance(p, np.ndarray) else float(p).hex() for p in parts]


# -0.0 and 0.0 compare equal but differ in their bytes
KERNEL_LEVELS = (-0.0, 0.0, 0.1, 0.5, 0.9)


@st.composite
def kernel_instances(draw):
    """Values in [0, 1] to read as hazards, risks and survival alike, outcomes,
    a ``t_max``, Brier horizons, and where to put a NaN risk if anywhere."""
    n = draw(st.integers(1, 10))
    n_bins = draw(st.integers(1, 6))
    values = draw(arrays(np.float64, (n, n_bins), elements=st.sampled_from(KERNEL_LEVELS) | st.floats(0.0, 1.0)))
    taus = draw(arrays(np.int64, n, elements=st.integers(0, n_bins - 1)))
    deltas = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    t_max = draw(st.none() | st.integers(-1, n_bins))
    horizons = draw(st.lists(st.integers(0, n_bins), min_size=1, max_size=4))
    nan_at = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n_bins - 1)))
    return values, taus, deltas, t_max, np.array(horizons), nan_at


def named_case(values, taus, deltas, t_max=None, horizons=(0,), nan_at=None):
    return np.array(values, dtype=np.float64), np.array(taus), np.array(deltas), t_max, np.array(horizons), nan_at


@PROPERTY_SETTINGS
@given(kernel_instances())
@example(named_case([[0.1, 0.5], [0.1, 0.5], [0.5, 0.1]], [0, 1, 1], [1, 1, 0], horizons=[0, 1, 2]))  # ties
@example(named_case([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]], [0, 0, 1], [1, 1, 1], horizons=[1, 0]))  # +-0.0
@example(named_case([[0.2, 0.4], [0.3, 0.1]], [1, 0], [0, 0], horizons=[0, 1]))  # all censored
@example(named_case([[0.2, 0.4, 0.1], [0.3, 0.1, 0.2]], [2, 1], [1, 0], t_max=1))  # no event up to t_max
@example(named_case([[0.3], [0.7], [0.7]], [0, 0, 0], [1, 0, 1], horizons=[1]))  # T = 1
@example(named_case([[0.3, 0.6, 0.1]], [1], [1], horizons=[0, 1, 2, 3]))  # n = 1
@example(named_case([[0.3, 0.6], [0.5, 0.5]], [1, 0], [1, 1], nan_at=(0, 1)))  # a NaN risk
def test_kernels_return_the_bytes_of_their_loop_oracles(instance):
    values, taus, deltas, t_max, horizons, nan_at = instance
    assert outcome(survival_from_hazard, values) == outcome(survival_cumprod, values)
    risks = values.copy()
    if nan_at is not None:
        risks[nan_at] = math.nan
    assert outcome(M._concordance_counts, risks, taus, deltas, t_max) == outcome(
        concordance_counts_rescan, risks, taus, deltas, t_max)
    if nan_at is None:
        counts = M._concordance_counts(risks, taus, deltas, t_max)[1]
        assert outcome(M._integrated_index, counts) == outcome(integrated_index_loop, counts)
    g = M.censoring_km(taus, deltas)
    assert outcome(M._brier_scores, values, taus, deltas, horizons, g) == outcome(
        brier_scores_where, values, taus, deltas, horizons, g)


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
    rng = np.random.default_rng(3)
    for values in (np.full(40, 0.55), rng.uniform(size=200), rng.beta(2.0, 5.0, size=500)):
        statistic, p = M.d_calibration(*curves_with_event_survival(values))
        assert p == stats.chi2.sf(statistic, M.N_CAL_BINS - 1)


# s = 2x at cephes' branch edges for a = 4.5: igamc's x <= 0.5 and x > 1.1
# dispatch tests, |x - a| = 1.8 where igam_fac turns to the Lanczos form,
# x = a where the continued fraction takes over; 1500 lies past exp's
# underflow (x^a e^-x / Gamma(a) = 0)
CHI2_EDGES = [0.0, 1.0, 2.2, 5.4, 9.0, 12.6, 1500.0]


@given(st.floats(0.0, 1e4))
@settings(max_examples=500, deadline=None)
def test_chi2_tail_has_scipys_bits(statistic):
    assert M._chi2_tail(statistic) == special.chdtrc(M.N_CAL_BINS - 1, statistic)


@pytest.mark.parametrize("statistic", [*CHI2_EDGES, *np.nextafter(CHI2_EDGES[1:], 0.0), *np.nextafter(CHI2_EDGES, 1e4)])
def test_chi2_tail_has_scipys_bits_at_the_branch_edges(statistic):
    assert M._chi2_tail(float(statistic)) == special.chdtrc(M.N_CAL_BINS - 1, statistic)


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

    # every per-horizon value equals its standalone metric bit for bit; with
    # no event in bins 0-1 the 5% horizon has no comparable pair
    deltas[taus <= 1] = 0
    quantiles = (0.05, 0.25, 0.5, 0.75, 0.99)
    report = M.evaluate_hazards(hazards, taus, deltas, time_quantiles=quantiles)
    surv = survival_from_hazard(hazards)
    g = M.censoring_km(taus, deltas, n_bins=n_bins)
    assert report.ci_at[0.05] is None
    for q in quantiles:
        t = int(np.quantile(taus, q))
        assert report.ci_at[q] == M.c_index_td(risk_from_hazard(hazards), taus, deltas, t)
        assert report.bs_at[q].hex() == M.brier_score(surv, taus, deltas, t, g).hex()
    assert report.ci_integrated.hex() == M.c_index_integrated(risk_from_hazard(hazards), taus, deltas).hex()
    assert report.ibs.hex() == M.ibs(surv, taus, deltas).hex()


def test_evaluate_hazards_rejects_times_past_the_hazard_grid():
    taus = np.array([0, 2, 5, 7, 9])
    with pytest.raises(M.MetricError, match="time bin 9 lies outside the 8-bin hazard grid"):
        M.evaluate_hazards(np.full((5, 8), 0.1), taus, np.zeros(5, dtype=int))


def test_report_json_keys(tmp_path):
    rng = np.random.default_rng(12)
    taus = rng.integers(0, 12, size=120)
    deltas = np.ones(120, dtype=int)
    report = M.evaluate_hazards(rng.uniform(0.02, 0.3, size=(120, 12)), taus, deltas)
    report.to_json(tmp_path / "report.json")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload) == {
        "ci_integrated", "ibs", "ddc", "dcal_statistic", "dcal_pvalue", "dcal_pass", "ci_at", "bs_at",
    }
