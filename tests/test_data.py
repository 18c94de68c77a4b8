import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from survcontrast import data as sd
from survcontrast.trainer import TrainConfig


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


@pytest.mark.parametrize(
    ("cells", "message"),
    [
        ({"time": "inf"}, "row 3: value 'inf' in 'time' is not finite"),
        ({"time": "-Infinity"}, "row 3: value '-Infinity' in 'time' is not finite"),
        ({"time": "1e999"}, "row 3: value '1e999' in 'time' is not finite"),
        ({"time": "NaN"}, "row 3: missing time or event value"),
        ({"age": "-inf"}, "row 3: value '-inf' in 'age' is not finite"),
        ({"treated": "inf"}, "row 3: value 'inf' in 'treated' is not finite"),
        ({"age": "old"}, "row 3: value 'old' in 'age' is not numeric"),
        ({"time": "soon"}, "row 3: value 'soon' in 'time' is not numeric"),
        ({"treated": "2"}, "row 3: binary column 'treated' has value '2'"),
    ],
)
def test_load_csv_rejects_a_bad_cell_naming_its_row(tmp_path, cells, message):
    rows = [dict(zip(HEADER, [50, 1, "a", 3.5, 1])), dict(zip(HEADER, [61, 0, "b", 7.0, 0]))]
    rows[1].update(cells)
    write_csv(tmp_path / "bad.csv", HEADER, [[row[h] for h in HEADER] for row in rows])
    with pytest.raises(sd.DataError) as excinfo:
        sd.load_csv(tmp_path / "bad.csv", toy_schema())
    assert str(excinfo.value) == message


def test_load_csv_reads_nan_and_absent_feature_cells_as_missing(tmp_path):
    # a nan spelling in a real or binary column, and the absent cells of a
    # short row, are missing like an empty cell: NaN across the feature's block
    header = ["time", "event", "age", "treated", "grade"]
    write_csv(tmp_path / "nan.csv", header, [[1.0, 1, "nan", "NAN", "a"], [2.0, 0, "-nan"], [3.0, 1, 7, 1, "b"]])
    raw = sd.load_csv(tmp_path / "nan.csv", toy_schema())
    assert raw.feature_names == ["age", "treated", "grade=a", "grade=b"]
    np.testing.assert_array_equal(np.isnan(raw.features), [[1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]])


def load_csv_row_by_row(path, schema):
    """``load_csv`` as it was: one pass for the categorical levels, one for the
    names and kinds, then one loop over the rows that fills a NaN matrix
    column by column offset; kept as the oracle for valid files."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    feats = schema.feature_columns()
    categories = {}
    for col in feats:
        if col.kind == "categorical":
            categories[col.name] = sorted({r[col.name] for r in rows if r[col.name] not in ("", None)})
    names, src_kinds = [], []
    for col in feats:
        if col.kind == "categorical":
            for level in categories[col.name]:
                names.append(f"{col.name}={level}")
                src_kinds.append("categorical")
        else:
            names.append(col.name)
            src_kinds.append(col.kind)
    n = len(rows)
    x = np.full((n, len(names)), np.nan)
    times = np.empty(n)
    events = np.empty(n, dtype=int)
    for i, row in enumerate(rows):
        t_raw = row[schema.time_column]
        e_raw = row[schema.event_column]
        assert t_raw not in ("", None) and e_raw in ("0", "1", "0.0", "1.0")
        times[i] = float(t_raw)
        assert times[i] >= 0
        events[i] = int(float(e_raw))
        j = 0
        for col in feats:
            val = row[col.name]
            if col.kind == "categorical":
                levels = categories[col.name]
                if val not in ("", None):
                    x[i, j : j + len(levels)] = 0.0
                    x[i, j + levels.index(val)] = 1.0
                j += len(levels)
            else:
                if val not in ("", None):
                    x[i, j] = float(val)
                    assert col.kind == "real" or x[i, j] in (0.0, 1.0)
                j += 1
    return sd.RawDataset(x, times, events, names, src_kinds)


FEATURE_CELLS = {
    "real": st.one_of(
        st.just(""),
        st.sampled_from(["nan", "NaN", "-nan"]),
        st.integers(-100, 100).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    ),
    "binary": st.sampled_from(["", "0", "1", "0.0", "1.0", "-0", "1e0"]),
}
LEVELS = st.lists(st.text(alphabet="ab ,\"'", min_size=1, max_size=4), max_size=3)  # empty: an all-empty column


@st.composite
def valid_csvs(draw):
    """(header, rows, schema) of a file the row-by-row loader accepts: 0-4 features
    of each kind in a drawn schema order, time and event leading the header so
    that a short row drops only feature cells, and some rows with a spare cell."""
    kinds = [kind for kind in sd.FEATURE_KINDS for _ in range(draw(st.integers(0, 4)))]
    names = [f"{kind[0]}{i}" for i, kind in enumerate(kinds)]
    n = draw(st.integers(1, 8))
    columns = {}
    for name, kind in zip(names, kinds):
        cells = st.sampled_from(["", *draw(LEVELS)]) if kind == "categorical" else FEATURE_CELLS[kind]
        columns[name] = draw(st.lists(cells, min_size=n, max_size=n))
    header = ["time", "event", *draw(st.permutations(names))]
    rows = []
    for i in range(n):
        row = [draw(st.floats(0, 1e6).map(repr)), draw(st.sampled_from(sorted(sd.EVENT_CELLS)))]
        row += [columns[name][i] for name in header[2:]]
        cut = draw(st.integers(2, len(row) + 1))
        rows.append(row[:cut] if cut <= len(row) else [*row, "spare"])
    order = draw(st.permutations(range(len(names))))
    schema = sd.Schema([sd.ColumnSpec(names[k], kinds[k]) for k in order]
                       + [sd.ColumnSpec("time", "real", role="time"), sd.ColumnSpec("event", "binary", role="event")])
    return header, rows, schema


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(valid_csvs())
def test_load_csv_equals_the_row_by_row_loader(tmp_path, case):
    header, rows, schema = case
    path = tmp_path / "valid.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])  # quotes levels holding commas or quotes
    got, want = sd.load_csv(path, schema), load_csv_row_by_row(path, schema)
    for attr in ("features", "times", "events"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert (got.feature_names, got.source_kinds) == (want.feature_names, want.source_kinds)


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


def split_with_residue_pass(events, seed):
    """``split_dataset`` as it was with a last pass that put any quota the
    greedy pass left over wherever capacity remained; kept as the oracle
    that shows that pass never ran."""
    events = np.asarray(events)
    n = events.size
    global_counts = sd._largest_remainder(n, list(sd.SPLIT_RATIOS.values()))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5B71)))
    strata = [np.flatnonzero(events == v) for v in (0, 1) if np.any(events == v)]
    quotas = np.zeros((len(strata), 3), dtype=int)
    fracs = np.zeros((len(strata), 3))
    for gi, idx in enumerate(strata):
        for k in range(3):
            share = global_counts[k] * idx.size / n
            quotas[gi, k] = int(np.floor(share))
            fracs[gi, k] = share - quotas[gi, k]
    stratum_left = np.array([idx.size for idx in strata]) - quotas.sum(axis=1)
    split_left = np.array(global_counts) - quotas.sum(axis=0)
    for gi, k in sorted(np.ndindex(len(strata), 3), key=lambda p: -fracs[p]):
        if stratum_left[gi] > 0 and split_left[k] > 0:
            quotas[gi, k] += 1
            stratum_left[gi] -= 1
            split_left[k] -= 1
    for gi in range(len(strata)):
        for k in range(3):
            while stratum_left[gi] > 0 and split_left[k] > 0:
                quotas[gi, k] += 1
                stratum_left[gi] -= 1
                split_left[k] -= 1
    parts = [[], [], []]
    for gi, idx in enumerate(strata):
        perm = rng.permutation(idx)
        a, b = quotas[gi, 0], quotas[gi, 0] + quotas[gi, 1]
        parts[0].append(perm[:a])
        parts[1].append(perm[a:b])
        parts[2].append(perm[b:])
    return [np.sort(np.concatenate(p)) for p in parts]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 400).flatmap(lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)),
    st.integers(0, 2**32 - 1),
)
def test_split_equals_the_split_with_a_residue_pass(events, seed):
    split = sd.split_dataset(events, seed)
    for got, want in zip((split.train, split.test, split.validation), split_with_residue_pass(events, seed)):
        np.testing.assert_array_equal(got, want)


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


@pytest.mark.parametrize(
    ("where", "value", "rejected"),
    [("test", 1e5, False), ("test", 8e153, True), ("test", -1e300, True), ("train", 1.7e308, True)],
)
def test_prepare_rejects_a_feature_out_of_the_training_scale(where, value, rejected):
    # the training rows of x0 span [0, 1]; an evaluation value 8e153 ranges away
    # overflowed the contrastive loss, and two training values 1.7e308 apart overflow the span
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, size=(50, 2))
    events = rng.integers(0, 2, size=50)
    split = sd.split_dataset(events, seed=0)
    row = getattr(split, where)[3]
    x[row, 0] = value
    if where == "train":
        x[split.train[0], 0] = -value
    raw = sd.from_arrays(x, rng.uniform(1.0, 9.0, size=50), events)
    if not rejected:
        assert np.all(np.isfinite(sd.prepare(raw, seed=0).x))
        return
    with pytest.raises(sd.DataError, match=rf"^row {row + 2}: feature 'x0' lies more than 1e\+06 training ranges"):
        sd.prepare(raw, seed=0)


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


def test_batches_without_a_corruption_rng_have_no_views():
    prepared = make_prepared(n=12)
    plain = sd.iterate_batches(prepared, np.arange(12), 4, np.random.default_rng(0), None, corruption_rate=0.3)
    for batch, viewed in zip(plain, batches_for(12, 4)):
        assert batch.x_view is None
        np.testing.assert_array_equal(batch.indices, viewed.indices)


def test_batch_size_validation():
    with pytest.raises(ValueError):
        batches_for(10, 1)


@pytest.mark.parametrize(
    "kw",
    [{"epochs": True}, {"epochs": 2.0}, {"patience": "3"}, {"sigma": float("inf")}, {"beta": None},
     {"alpha_percentile": float("nan")}, {"optimizer": 1}],
)
def test_config_field_types_rejected(kw):
    with pytest.raises(TypeError, match=next(iter(kw))):
        TrainConfig(**kw)


def test_config_field_types_accept_numpy_ints_and_keep_values():
    config = TrainConfig(epochs=np.int64(3), beta=1, alpha_percentile=None)
    assert type(config.epochs) is np.int64 and type(config.beta) is int
