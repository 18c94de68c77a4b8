import numpy as np
import pytest
from scipy import stats

from survcontrast import data as sd


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def toy_schema():
    return sd.Schema(
        columns=[
            sd.ColumnSpec("age", "real"),
            sd.ColumnSpec("treated", "binary"),
            sd.ColumnSpec("grade", "categorical"),
            sd.ColumnSpec("time", "real", role="time"),
            sd.ColumnSpec("event", "binary", role="event"),
        ]
    )


HEADER = ["age", "treated", "grade", "time", "event"]


def test_load_csv_one_hot_and_values(tmp_path):
    path = tmp_path / "toy.csv"
    write_csv(path, HEADER, [[50, 1, "a", 3.5, 1], [61, 0, "b", 7.0, 0], [44, 1, "a", 1.0, 1]])
    raw = sd.load_csv(path, toy_schema())
    assert raw.feature_names == ["age", "treated", "grade=a", "grade=b"]
    np.testing.assert_array_equal(raw.features[:, 2], [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(raw.times, [3.5, 7.0, 1.0])
    np.testing.assert_array_equal(raw.events, [1, 0, 1])


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, HEADER, [])
    with pytest.raises(sd.DataError, match="no records"):
        sd.load_csv(path, toy_schema())


def test_load_csv_bad_event_cites_row(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, HEADER, [[50, 1, "a", 3.5, 1], [61, 0, "b", 7.0, 2]])
    with pytest.raises(sd.DataError, match="row 3"):
        sd.load_csv(path, toy_schema())


def test_load_csv_negative_time(tmp_path):
    path = tmp_path / "neg.csv"
    write_csv(path, HEADER, [[50, 1, "a", -1.0, 1]])
    with pytest.raises(sd.DataError, match="negative time"):
        sd.load_csv(path, toy_schema())


def test_load_csv_unknown_column(tmp_path):
    path = tmp_path / "cols.csv"
    write_csv(path, ["age", "time", "event"], [[50, 3.5, 1]])
    with pytest.raises(sd.DataError, match="unknown column"):
        sd.load_csv(path, toy_schema())


def test_load_csv_missing_time_rejected(tmp_path):
    path = tmp_path / "miss.csv"
    write_csv(path, HEADER, [[50, 1, "a", "", 1]])
    with pytest.raises(sd.DataError, match="missing time or event"):
        sd.load_csv(path, toy_schema())


def test_missing_features_imputed_from_train_split(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(100):
        age = "" if i == 5 else 40 + rng.integers(0, 30)
        rows.append([age, rng.integers(0, 2), "ab"[rng.integers(0, 2)], float(rng.integers(1, 50)), rng.integers(0, 2)])
    path = tmp_path / "imp.csv"
    write_csv(path, HEADER, rows)
    raw = sd.load_csv(path, toy_schema())
    assert np.isnan(raw.features[5, 0])
    prepared = sd.prepare(raw, seed=0, n_bins=10)
    assert np.all(np.isfinite(prepared.x))


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def test_discretize_integer_identity():
    times = np.arange(0, 8)
    grid, taus = sd.discretize(times, n_bins=8)
    np.testing.assert_array_equal(taus, times)


def test_discretize_endpoints():
    _, taus = sd.discretize([0.0, 10.0], n_bins=2)
    np.testing.assert_array_equal(taus, [0, 1])


def test_discretize_monotone():
    rng = np.random.default_rng(1)
    t = np.sort(rng.uniform(0, 40, size=500))
    _, taus = sd.discretize(t, n_bins=17)
    assert np.all(np.diff(taus) >= 0)


def test_discretize_uniform_counts():
    rng = np.random.default_rng(2)
    n = 20_000
    _, taus = sd.discretize(rng.uniform(0, 100, size=n), n_bins=10)
    counts = np.bincount(taus, minlength=10)
    # 3-sigma binomial band around n/10
    sigma = np.sqrt(n * 0.1 * 0.9)
    assert np.all(np.abs(counts - n / 10) < 3 * sigma)


def test_discretize_degenerate():
    with pytest.raises(sd.DataError, match="degenerate"):
        sd.discretize(np.full(5, 3.0), n_bins=4)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_sizes_100():
    events = np.random.default_rng(4).integers(0, 2, size=100)
    split = sd.split_dataset(events, seed=0)
    assert split.sizes() == (64, 20, 16)


def test_split_deterministic_and_seed_sensitive():
    events = np.random.default_rng(5).integers(0, 2, size=80)
    a = sd.split_dataset(events, seed=7)
    b = sd.split_dataset(events, seed=7)
    c = sd.split_dataset(events, seed=8)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.validation, b.validation)
    assert not np.array_equal(a.train, c.train)


def test_split_partitions_everything():
    events = np.random.default_rng(6).integers(0, 2, size=137)
    split = sd.split_dataset(events, seed=1)
    merged = np.sort(np.concatenate([split.train, split.test, split.validation]))
    np.testing.assert_array_equal(merged, np.arange(137))


def test_split_stratified_censoring_fraction():
    rng = np.random.default_rng(7)
    events = (rng.uniform(size=1000) < 0.142).astype(int)  # heavy censoring
    split = sd.split_dataset(events, seed=3)
    overall = events.mean()
    for idx in (split.train, split.test, split.validation):
        assert abs(events[idx].mean() - overall) <= 0.02


def test_split_invariants_stress():
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(5, 400))
        rate = rng.uniform(0.02, 0.98)
        events = (rng.uniform(size=n) < rate).astype(int)
        split = sd.split_dataset(events, seed=trial)
        merged = np.sort(np.concatenate([split.train, split.test, split.validation]))
        np.testing.assert_array_equal(merged, np.arange(n))
        for size, ratio in zip(split.sizes(), (0.64, 0.20, 0.16)):
            assert abs(size - ratio * n) <= 1.0  # within rounding
        # per-stratum allocation is proportional up to remainder
        # redistribution (global sizes stay exact, so a stratum can give
        # up or absorb one extra unit)
        for value in (0, 1):
            stratum = np.flatnonzero(events == value)
            if stratum.size == 0:
                continue
            got = np.intersect1d(split.train, stratum).size
            assert abs(got - 0.64 * stratum.size) <= 2.0


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def make_prepared(n=200, p=5, seed=0, n_bins=12):
    rng = np.random.default_rng(seed)
    raw = sd.from_arrays(
        rng.normal(size=(n, p)) * 10 + 3,
        rng.uniform(0.5, 30, size=n),
        rng.integers(0, 2, size=n),
    )
    return sd.prepare(raw, seed=seed, n_bins=n_bins)


def test_normalization_train_in_unit_box_no_leakage():
    prepared = make_prepared()
    train_x = prepared.x[prepared.split.train]
    assert train_x.min() >= 0.0 and train_x.max() <= 1.0
    # other splits may exceed [0,1]: statistics must come from train only
    assert np.all(np.isfinite(prepared.x))


def test_prepare_keeps_outcomes_aligned():
    prepared = make_prepared()
    assert prepared.x.shape[0] == prepared.tau.size == prepared.delta.size
    assert prepared.n_time_bins == 12


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def test_corrupt_rate_zero_identity():
    prepared = make_prepared()
    rng = np.random.default_rng(0)
    out = sd.corrupt(prepared.x[:10], prepared.train_marginals, 0.0, rng)
    np.testing.assert_array_equal(out, prepared.x[:10])


def test_corrupt_deterministic_per_seed():
    prepared = make_prepared()
    a = sd.corrupt(prepared.x[:20], prepared.train_marginals, 0.6, np.random.default_rng(42))
    b = sd.corrupt(prepared.x[:20], prepared.train_marginals, 0.6, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_corrupt_full_rate_matches_marginals():
    # with rate 1 every coordinate is a marginal draw; KS against the
    # training column should not reject at alpha=0.01
    rng = np.random.default_rng(1)
    n = 5000
    marginals = rng.normal(size=(4000, 3)) * np.array([1.0, 5.0, 0.2])
    x = np.zeros((n, 3))
    out = sd.corrupt(x, marginals, 1.0, np.random.default_rng(2))
    assert not np.array_equal(out, x)
    for j in range(3):
        stat = stats.ks_2samp(out[:, j], marginals[:, j])
        assert stat.pvalue > 0.01


def test_corrupt_partial_rate_preserves_rest():
    prepared = make_prepared(p=10)
    x = prepared.x[:50]
    out = sd.corrupt(x, prepared.train_marginals, 0.3, np.random.default_rng(3))
    changed = (out != x).sum(axis=1)
    assert np.all(changed <= 3)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def batches_for(n, m, seed=0):
    prepared = make_prepared(n=n)
    idx = np.arange(min(n, prepared.x.shape[0]))
    return list(
        sd.iterate_batches(
            prepared,
            idx[:n],
            m,
            np.random.default_rng(seed),
            np.random.default_rng(seed + 1),
            corruption_rate=0.3,
        )
    )


def test_batch_sizes_with_remainder():
    sizes = [b.size for b in batches_for(10, 4)]
    assert sizes == [4, 4, 2]


def test_single_batch_when_m_exceeds_n():
    sizes = [b.size for b in batches_for(7, 32)]
    assert sizes == [7]


def test_short_tail_dropped():
    sizes = [b.size for b in batches_for(9, 4)]
    assert sizes == [4, 4]


def test_epoch_covers_split():
    batches = batches_for(12, 4)
    seen = np.sort(np.concatenate([b.indices for b in batches]))
    np.testing.assert_array_equal(seen, np.arange(12))


def test_batch_views_inherit_outcomes():
    for batch in batches_for(12, 4):
        assert batch.x_view.shape == batch.x.shape
        assert batch.tau.size == batch.size and batch.delta.size == batch.size


def test_batch_size_validation():
    with pytest.raises(ValueError):
        batches_for(10, 1)
