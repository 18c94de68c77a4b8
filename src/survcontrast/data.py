"""Tabular survival data: loading, discretization, splits, batching.

The CSV contract: a header row, one time column, one binary event column,
and feature columns declared in a JSON schema as ``real``, ``binary`` or
``categorical``. Each feature column gives one block of the feature
matrix: one float column for a real or binary feature, one 0/1 column per
sorted level for a categorical one (one-hot).

What is missing depends on the column's role. A time, real or binary cell
is missing when it is empty, absent (a row shorter than the header) or a
spelling of ``nan`` (any case); a categorical or event cell when it is
empty or absent. A missing time or event rejects the file; a missing
feature is NaN in every column of its block and is imputed from the
training split (median for real, mode for binary/categorical). An
infinite time or feature value rejects the file, as does a non-numeric
time, real or binary cell, a negative time, an event other than 0/1 or a
binary value other than 0/1. Faults are found column by column: the time
column, then the event column, then the features in schema order, each
from its first row down; the first one raises naming its row.

Feature normalization is min-max fitted on the training split only and
then frozen, so evaluation splits may exceed [0, 1] but never leak
statistics. A value that lands more than ``MAX_SPANS`` training ranges
outside the training range, where the networks' arithmetic would
overflow, rejects the dataset naming its row.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np

SPLIT_RATIOS = {"train": 0.64, "test": 0.20, "validation": 0.16}
FEATURE_KINDS = ("real", "binary", "categorical")
COLUMN_ROLES = ("feature", "time", "event")
EVENT_CELLS = {"0": 0, "1": 1, "0.0": 0, "1.0": 1}  # event-column cell -> event flag
# how far a normalized feature may lie from [0, 1], in training ranges; a
# farther evaluation row would overflow the networks' arithmetic
MAX_SPANS = 1e6


class DataError(ValueError):
    """Malformed input data or schema."""


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, (float, np.floating)) and math.isfinite(v))


# dataclass annotation, a string under postponed evaluation -> (accepts the value, what it must be)
FIELD_CHECKS = {
    "int": (_is_int, "an int"),
    "int | None": (lambda v: v is None or _is_int(v), "an int or null"),
    "float": (_is_real, "a finite number"),
    "float | None": (lambda v: v is None or _is_real(v), "a finite number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[int]": (lambda v: isinstance(v, list) and all(_is_int(x) for x in v), "a list of ints"),
    "list[str]": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of strings"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "dict | None": (lambda v: v is None or isinstance(v, dict), "an object"),  # null: the section is absent
}


def check_field_types(config, prefix: str = "") -> None:
    """Raise TypeError naming the first field of the dataclass ``config``
    (as ``prefix`` + field name) whose value does not fit its annotation;
    values are never converted."""
    for f in fields(config):
        accepts, noun = FIELD_CHECKS[f.type]
        value = getattr(config, f.name)
        if not accepts(value):
            raise TypeError(f"'{prefix}{f.name}' must be {noun}, not {type(value).__name__} {value!r}")


@dataclass
class ColumnSpec:
    name: str
    kind: str  # real | binary | categorical; checked for features only
    role: str = "feature"

    def __post_init__(self):
        check_field_types(self)
        if self.role not in COLUMN_ROLES:
            raise DataError(f"unknown role {self.role!r} for column {self.name!r}; expected one of {COLUMN_ROLES}")
        if self.role == "feature" and self.kind not in FEATURE_KINDS:
            raise DataError(f"unknown feature kind {self.kind!r} for column {self.name!r}")


@dataclass
class Schema:
    columns: list[ColumnSpec]

    @classmethod
    def from_json(cls, path) -> "Schema":
        """Read ``{"columns": [{"name", "kind", "role"}, ...]}`` from a JSON
        file; a malformed file raises :class:`DataError` naming it."""
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataError(f"schema {path} is not JSON: {exc}") from exc
        if not isinstance(raw, dict) or "columns" not in raw:
            raise DataError(f"schema {path} has no 'columns' list")
        try:
            columns = [ColumnSpec(**col) for col in raw["columns"]]
        except (TypeError, ValueError) as exc:
            raise DataError(f"schema {path} has a bad column entry: {exc}") from exc
        return cls(columns)

    def __post_init__(self):
        roles = [c.role for c in self.columns]
        if roles.count("time") != 1 or roles.count("event") != 1:
            raise DataError("schema needs exactly one time column and one event column")

    @property
    def time_column(self) -> str:
        return next(c.name for c in self.columns if c.role == "time")

    @property
    def event_column(self) -> str:
        return next(c.name for c in self.columns if c.role == "event")

    def feature_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.role == "feature"]


@dataclass
class RawDataset:
    """Parsed rows before imputation/normalization; NaN marks missing."""

    features: np.ndarray  # (n, p) float, one-hot already applied
    times: np.ndarray  # (n,) float raw times
    events: np.ndarray  # (n,) int {0, 1}
    feature_names: list[str]
    source_kinds: list[str]

    def __len__(self) -> int:
        return self.times.size


def _number(cell, line: int, column: str) -> float:
    """A time or real/binary feature cell as a float: NaN (missing) for an
    empty cell, the ``None`` of a short row, or a spelling of ``nan``; a
    non-numeric or infinite cell raises naming its row."""
    if cell in ("", None):
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {line}: value {cell!r} in {column!r} is not numeric") from None
    if math.isinf(value):
        raise DataError(f"row {line}: value {cell!r} in {column!r} is not finite")
    return value


def load_csv(path, schema: Schema) -> RawDataset:
    """Parse a survival CSV against its schema, one column at a time (the
    loader contract is in the module docstring).

    Raises :class:`DataError` for an empty file, a file that is not UTF-8
    text (naming it), a schema column missing from the header, or the first
    faulty cell (naming its row).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError("no records: file is empty")
            header = set(reader.fieldnames)
            for col in schema.columns:
                if col.name not in header:
                    raise DataError(f"unknown column: schema column {col.name!r} missing from header")
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise DataError("no records")
    lines = range(2, len(rows) + 2)  # the header is line 1

    def numbers(name: str) -> np.ndarray:
        return np.array([_number(row[name], line, name) for row, line in zip(rows, lines)])

    times = numbers(schema.time_column)
    event_cells = [row[schema.event_column] for row in rows]
    for line, t, e in zip(lines, times, event_cells):
        if math.isnan(t) or not e:
            raise DataError(f"row {line}: missing time or event value")
        if t < 0:
            raise DataError(f"row {line}: negative time {t}")
        if e not in EVENT_CELLS:
            raise DataError(f"row {line}: event value {e!r} is not binary")

    blocks = [np.empty((len(rows), 0))]  # a schema may declare no feature
    names, kinds = [], []
    for col in schema.feature_columns():
        if col.kind == "categorical":
            column = [row[col.name] for row in rows]
            levels = sorted(set(column) - {"", None})
            block = np.array([[float(c == v) for v in levels] if c else [math.nan] * len(levels) for c in column])
            names += [f"{col.name}={level}" for level in levels]
        else:
            block = numbers(col.name)[:, None]
            if col.kind == "binary":
                bad = np.flatnonzero(~np.isin(block, (0.0, 1.0)) & ~np.isnan(block))
                if bad.size:
                    i = bad[0]
                    raise DataError(f"row {lines[i]}: binary column {col.name!r} has value {rows[i][col.name]!r}")
            names.append(col.name)
        blocks.append(block)
        kinds += [col.kind] * block.shape[1]
    return RawDataset(np.hstack(blocks), times, np.array([EVENT_CELLS[e] for e in event_cells]), names, kinds)


def write_csv(path, header, rows) -> None:
    """The one CSV writer: LF line ends, csv-module quoting, floats (numpy
    floats too) as ``.12g`` and every other value through ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".12g") if isinstance(v, (float, np.floating)) else str(v) for v in row])


def from_arrays(features, times, events, feature_names=None) -> RawDataset:
    features = np.asarray(features, dtype=np.float64)
    names = feature_names or [f"x{i}" for i in range(features.shape[1])]
    return RawDataset(
        features,
        np.asarray(times, dtype=np.float64),
        np.asarray(events, dtype=int),
        list(names),
        ["real"] * features.shape[1],
    )


# ---------------------------------------------------------------------------
# time discretization
# ---------------------------------------------------------------------------

@dataclass
class TimeGrid:
    """Equal-width bins over [0, max raw time]."""

    edges: np.ndarray  # n_bins + 1 strictly increasing edge values

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.float64)
        if self.edges.size < 3 or np.any(np.diff(self.edges) <= 0):
            raise DataError("grid edges must be strictly increasing with at least 2 bins")

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1

    @property
    def t_max(self) -> int:
        return self.n_bins - 1

    def to_bin(self, raw_times) -> np.ndarray:
        t = np.asarray(raw_times, dtype=np.float64)
        idx = np.searchsorted(self.edges, t, side="right") - 1
        return np.clip(idx, 0, self.t_max)


def discretize(raw_times, n_bins: int) -> tuple[TimeGrid, np.ndarray]:
    """Equal-width binning of ``[0, max(raw_times)]``; the bin map is monotone
    in raw time. :func:`prepare` passes every row's time, so the grid's end
    is the largest time over all splits."""
    t = np.asarray(raw_times, dtype=np.float64)
    if n_bins < 2:
        raise DataError("n_bins must be >= 2")
    if np.any(t < 0):
        raise DataError("raw times must be non-negative")
    if np.all(t == t.flat[0]):
        raise DataError("degenerate grid: all raw times identical")
    grid = TimeGrid(np.linspace(0.0, t.max(), n_bins + 1))
    return grid, grid.to_bin(t)


def default_n_bins(raw_times, cap: int = 100) -> int:
    return int(min(cap, max(2, np.unique(raw_times).size)))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass
class Split:
    train: np.ndarray
    test: np.ndarray
    validation: np.ndarray

    def sizes(self) -> tuple[int, int, int]:
        return self.train.size, self.test.size, self.validation.size


def _largest_remainder(total: int, ratios: list[float]) -> list[int]:
    exact = [total * r for r in ratios]
    counts = [int(np.floor(e)) for e in exact]
    order = np.argsort([c - e for c, e in zip(counts, exact)])  # biggest remainder first
    for k in range(total - sum(counts)):
        counts[order[k]] += 1
    return counts


def split_dataset(events, seed: int) -> Split:
    """Deterministic 0.64/0.20/0.16 split, stratified by the event flag.

    Heavily censored cohorts make unstratified small splits unstable, so
    every stratum is apportioned so it lands within one sample of the global
    ratio.
    """
    events = np.asarray(events)
    n = events.size
    if n == 0:
        raise DataError("cannot split an empty dataset")
    ratios = list(SPLIT_RATIOS.values())
    global_counts = _largest_remainder(n, ratios)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5B71)))
    strata = [np.flatnonzero(events == v) for v in (0, 1) if np.any(events == v)]
    # per-stratum quota: floor of the proportional share, remainders greedily;
    # with at most two strata a split has at most one unit left after the
    # floors, so the greedy pass over every cell places every leftover
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

    parts: list[list[np.ndarray]] = [[], [], []]
    for gi, idx in enumerate(strata):
        perm = rng.permutation(idx)
        a, b = quotas[gi, 0], quotas[gi, 0] + quotas[gi, 1]
        parts[0].append(perm[:a])
        parts[1].append(perm[a:b])
        parts[2].append(perm[b:])
    train, test, val = (np.sort(np.concatenate(p)) if p else np.array([], dtype=int) for p in parts)
    return Split(train=train, test=test, validation=val)


# ---------------------------------------------------------------------------
# preprocessing: imputation + normalization fitted on the training split
# ---------------------------------------------------------------------------

@dataclass
class PreparedData:
    x: np.ndarray  # (n, p) imputed + normalized features
    tau: np.ndarray  # (n,) discrete time bins
    delta: np.ndarray  # (n,) event indicators
    grid: TimeGrid
    split: Split
    feature_names: list[str]
    feature_kinds: list[str]  # each column's schema kind, as in RawDataset.source_kinds
    train_marginals: np.ndarray  # (n_train, p) pre-drawn pool for corruption

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_time_bins(self) -> int:
        return self.grid.n_bins

    def subset(self, indices):
        return self.x[indices], self.tau[indices], self.delta[indices]


def prepare(raw: RawDataset, seed: int, n_bins: int | None = None) -> PreparedData:
    """Split, impute from the train split, min-max normalize, discretize.

    Imputation and normalization are fit on the training split alone; the
    time grid (and the default bin count) is built from every row's time,
    so a validation or test row holding the largest time sets the grid's
    end (README, "CLI").
    """
    split = split_dataset(raw.events, seed)
    x = raw.features.copy()
    train_rows = x[split.train]

    for j, kind in enumerate(raw.source_kinds):
        col = train_rows[:, j]
        known = col[~np.isnan(col)]
        if known.size == 0:
            fill = 0.0
        elif kind == "real":
            fill = float(np.median(known))
        else:  # binary / one-hot categorical: mode
            vals, counts = np.unique(known, return_counts=True)
            fill = float(vals[np.argmax(counts)])
        nan_mask = np.isnan(x[:, j])
        x[nan_mask, j] = fill

    lo = x[split.train].min(axis=0)
    hi = x[split.train].max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        span = np.where(hi > lo, hi - lo, 1.0)
        x = (x - lo) / span
    far = np.argwhere(~(np.abs(x) <= MAX_SPANS))  # NaN included: inf / inf where the span overflowed
    if far.size:
        i, j = far[0]  # raw row i is line i + 2 of a CSV
        raise DataError(f"row {i + 2}: feature {raw.feature_names[j]!r} lies more than {MAX_SPANS:g} training "
                        "ranges outside the training split's range, or that range overflows float64")

    bins = n_bins if n_bins is not None else default_n_bins(raw.times)
    grid, tau = discretize(raw.times, bins)
    return PreparedData(
        x=x,
        tau=tau,
        delta=raw.events.copy(),
        grid=grid,
        split=split,
        feature_names=list(raw.feature_names),
        feature_kinds=list(raw.source_kinds),
        train_marginals=x[split.train],
    )


# ---------------------------------------------------------------------------
# corruption and batching
# ---------------------------------------------------------------------------

def corrupt(features: np.ndarray, marginals: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Replace a random fraction of each row's coordinates with draws from
    the training split's per-feature empirical marginals."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("corruption rate must be in [0, 1]")
    x = np.asarray(features, dtype=np.float64)
    out = x.copy()
    n, p = x.shape
    k = int(round(rate * p))
    if k == 0:
        return out
    # first k columns of a random per-row permutation = uniform size-k subset
    cols = np.argsort(rng.random((n, p)), axis=1)[:, :k]
    rows = rng.integers(0, marginals.shape[0], size=(n, k))
    out[np.arange(n)[:, None], cols] = marginals[rows, cols]
    return out


@dataclass
class Batch:
    indices: np.ndarray
    x: np.ndarray
    x_view: np.ndarray | None  # corrupted copies, same outcomes as the originals
    tau: np.ndarray
    delta: np.ndarray

    @property
    def size(self) -> int:
        return self.indices.size


def iterate_batches(
    data: PreparedData,
    indices: np.ndarray,
    batch_size: int,
    shuffle_rng: np.random.Generator,
    corrupt_rng: np.random.Generator | None,
    corruption_rate: float,
):
    """One epoch of shuffled mini-batches with corrupted views attached, or
    with none when ``corrupt_rng`` is None.

    A trailing batch smaller than 2 samples is dropped (pairwise losses are
    undefined on it).
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    order = shuffle_rng.permutation(indices)
    for start in range(0, order.size, batch_size):
        chunk = order[start : start + batch_size]
        if chunk.size < 2:
            break
        x = data.x[chunk]
        yield Batch(
            indices=chunk,
            x=x,
            x_view=None if corrupt_rng is None else corrupt(x, data.train_marginals, corruption_rate, corrupt_rng),
            tau=data.tau[chunk],
            delta=data.delta[chunk],
        )
