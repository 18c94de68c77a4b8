"""Experiment harness.

Commands:

* ``train``      train (variant x seed) runs, writing checkpoints and logs
* ``evaluate``   test-split metric reports plus a mean/std aggregate
* ``ablate``     the four loss variants side by side
* ``subgroup``   per-subgroup mean survival curves vs Kaplan-Meier
* ``sweep``      sensitivity table over the margin or the balance weight
* ``synth``      write a synthetic dataset (CSV + schema; ``--truth`` adds
                 the hidden times, paired-exponential kind only)
* ``margin-study`` censoring-gap vs ground-truth-gap pair table

Experiment specs are JSON or TOML files; every flag mirrors a spec field
and ``--seed/--variant/--out`` override it (``ablate`` runs all four
variants and takes no ``--variant``). ``train``, ``ablate`` and ``sweep``
train their independent (variant, seed) runs in forked worker processes,
one per usable CPU while memory allows; the outputs do not depend on the
worker count. A relative output directory, the
``--out`` of ``synth`` and ``margin-study`` included, goes under
``$SURVCONTRAST_OUT`` when that is set. Every file is read as UTF-8, with or
without a byte-order mark, and written as UTF-8. Outputs are plain CSV/JSON with
stable formatting, so identical specs reproduce identical bytes; every CSV
goes through ``data.write_csv`` (LF line ends, csv-module quoting, floats
as ``.12g``).

Exit codes, each failure with one ``<kind> error: <message>`` line on stderr:

* 0 success
* 2 bad input: configuration (``config error``), data files or checkpoints
  (``data error``), or a path a command reads or writes that cannot be
  opened or made (``file error``, naming the path and the OS reason); or
  memory exhausted (``memory error``), naming the run it was raised in, or
  a worker process killed outright
* 3 runtime divergence (a non-finite loss), naming the run
* 4 a metric undefined on the test split (e.g. too few events), naming the run
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

try:
    import tomllib
except ModuleNotFoundError:  # python < 3.11
    try:
        import tomli as tomllib
    except ModuleNotFoundError:
        tomllib = None

import numpy as np

from . import metrics as M
from .data import DataError, PreparedData, Schema, at_least, check_fields, domain, load_csv, prepare, write_csv
from .model import HazardModel, ModelConfig, init_model, survival_from_hazard
from .synth import GENERATORS, SynthConfig, generate_paired_exponential, margin_study
from .trainer import AUX_NETWORK, VARIANTS, TrainConfig, TrainingDiverged, train

OUT_ROOT_ENV = "SURVCONTRAST_OUT"
DEFAULT_SEEDS = list(range(10))


class ConfigError(ValueError):
    pass


def configure(cls, what: str, given: dict, **derived):
    """``cls(**given, **derived)``, with any construction error (a bad value,
    an unknown key, or a key that ``derived`` also sets) as a ConfigError."""
    try:
        return cls(**given, **derived)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


@dataclass
class DatasetSpec:
    # paths must be strings: open() takes an int as a file descriptor (0 reads stdin)
    csv: str
    schema: str
    n_bins: int | None = at_least(2, None)

    def __post_init__(self):
        check_fields(self, "dataset.")


@dataclass
class ExperimentSpec:
    dataset: dict | None = None  # DatasetSpec fields; a DatasetSpec once constructed
    synthetic: dict | None = None  # SynthConfig fields
    variants: list[str] = domain(lambda v: v and set(v) <= set(VARIANTS) and len(set(v)) == len(v),
                                 lambda: f"a non-empty list of names from {VARIANTS}, without repeats",
                                 default_factory=lambda: ["nll+snce"])
    seeds: list[int] = domain(lambda v: v and len(set(v)) == len(v) and min(v) >= 0,
                              lambda: "a non-empty list of distinct non-negative ints",
                              default_factory=lambda: list(DEFAULT_SEEDS))
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    n_bins: int | None = at_least(2, None)
    out: str = "runs/experiment"

    def __post_init__(self):
        check_fields(self)
        if (self.dataset is None) == (self.synthetic is None):
            raise ValueError("exactly one of 'dataset' or 'synthetic' must be given")
        if self.dataset is not None:
            self.dataset = DatasetSpec(**self.dataset)


def load_spec(path, overrides: dict | None = None) -> ExperimentSpec:
    """The spec in ``path`` with the fields in ``overrides`` replaced; the
    file is checked as written first, so a flag cannot hide a bad field."""
    path = Path(path)
    if path.suffix == ".toml" and tomllib is None:
        raise ConfigError("TOML specs need python >= 3.11 or the tomli package; use JSON instead")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:  # newline="": TOML rejects a lone CR itself
            raw = tomllib.loads(fh.read()) if path.suffix == ".toml" else json.load(fh)
    except ValueError as exc:  # a decoding fault too
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"spec {path} must be an object at the top level, not {type(raw).__name__}")
    spec = configure(ExperimentSpec, "spec", raw)
    return configure(ExperimentSpec, "spec", {**raw, **overrides}) if overrides else spec


def fs_path(path: str) -> Path:
    """``path``, which the file system must be able to take: one its encoding
    cannot hold, as a spec's non-ASCII path under an ASCII locale, is an
    ``OSError`` naming it. Command-line and environment paths always pass,
    since they arrive as the bytes the file system gave."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError as exc:
        raise OSError(errno.EILSEQ, f"cannot be encoded as {exc.encoding}", path) from None
    return Path(path)


def resolve_out(spec_out: str, flag_out: str | None) -> Path:
    root = os.environ.get(OUT_ROOT_ENV)
    path = fs_path(flag_out or spec_out)
    if root and not path.is_absolute():
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# opening an experiment: its configs, output directory and data
# ---------------------------------------------------------------------------

class Experiment(NamedTuple):
    """What every spec-driven command works from."""

    spec: ExperimentSpec  # with the flags applied
    out: Path
    prepared: dict[int, PreparedData]  # the dataset prepared once for each seed
    model: ModelConfig
    train: TrainConfig  # of the first seed; a run replaces the seed with its own
    sweep: dict[str, TrainConfig]  # by sweep label, the train config of each swept value


def open_experiment(args, sweep: dict[str, float] | None = None) -> Experiment:
    """Check every config of the spec, then make the output directory and
    prepare the data. The synthetic and train configs, those of the
    ``--param`` values ``sweep`` gives by label included, are built before the
    directory is made; the model config, which takes the data's shape (the
    same for every seed), once the data is prepared, before any run starts."""
    spec = load_spec(args.config, spec_overrides(args))
    if sweep and len(spec.variants) > 1:
        raise ConfigError(f"sweep trains one variant, the spec gives {len(spec.variants)}: "
                          f"{', '.join(spec.variants)}; pick one with --variant")
    synthetic = None if spec.synthetic is None else configure(SynthConfig, "synthetic config", spec.synthetic)

    def train_config(**overrides):
        return configure(TrainConfig, "train config", {**spec.train, **overrides}, seed=spec.seeds[0])

    base = train_config()
    swept = {label: train_config(**sweep_overrides(args.param, value, base)) for label, value in (sweep or {}).items()}
    out = resolve_out(spec.out, args.out)
    raw = (GENERATORS[synthetic.kind](synthetic).to_raw() if synthetic is not None
           else load_csv(fs_path(spec.dataset.csv), Schema.from_json(fs_path(spec.dataset.schema))))
    n_bins = spec.dataset.n_bins if spec.n_bins is None and spec.dataset is not None else spec.n_bins
    prepared = {seed: prepare(raw, seed=seed, n_bins=n_bins) for seed in spec.seeds}
    data = prepared[spec.seeds[0]]
    model_config = configure(ModelConfig, "model config", spec.model,
                             input_dim=data.n_features, n_time_bins=data.n_time_bins)
    return Experiment(spec, out, prepared, model_config, base, swept)


# ---------------------------------------------------------------------------
# run naming
# ---------------------------------------------------------------------------

def run_name(variant: str, seed: int) -> str:
    return f"{variant.replace('+', '_')}_seed{seed}"


def checkpoint_path(out: Path, variant: str, seed: int) -> Path:
    return out / "checkpoints" / f"{run_name(variant, seed)}.json"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@contextmanager
def naming(prefix: str):
    """Prefix the message of a run's divergence, undefined metric or memory
    exhaustion raised inside with ``prefix``, the run that raised it."""
    try:
        yield
    except (TrainingDiverged, M.MetricError, MemoryError) as exc:
        # numpy's MemoryError subclass is built from a shape and a dtype, not a message
        raise (MemoryError if isinstance(exc, MemoryError) else type(exc))(f"{prefix}{exc}") from exc


def run_one(data: PreparedData, model_config: ModelConfig, config: TrainConfig, variant: str, seed: int, out: Path):
    """Train one (variant, seed) run on ``data``, prepared for ``seed``, with
    ``config`` given that seed, and write its files."""
    with naming(f"{run_name(variant, seed)}: "):
        model, log = train(data, init_model(model_config, seed), replace(config, seed=seed), variant)
        (out / "checkpoints").mkdir(parents=True, exist_ok=True)
        (out / "logs").mkdir(parents=True, exist_ok=True)
        model.save(checkpoint_path(out, variant, seed))
        log.to_csv(out / "logs" / f"{run_name(variant, seed)}.csv")
    return model, log


# ---------------------------------------------------------------------------
# running independent runs side by side
# ---------------------------------------------------------------------------

# a pool takes the longest runs first: an auxiliary step through the
# projection head costs most, then the ranking penalty, then none
SUBMIT_RANK = {"projection": 0, "hazard": 1, None: 2}
# the working memory a worker's run is budgeted, estimated from the peak-RSS
# table of ROADMAP.md item 10: about 64 MB, plus about 64 bytes per pair of
# validation rows, which are scored as one batch of 2V x 2V pair blocks
RUN_BASE_BYTES = 64 << 20
VAL_PAIR_BYTES = 64
CGROUP = Path("/sys/fs/cgroup")  # this process's cgroup, as a container mounts it
OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")
_worker_run = None  # in a pool's worker, the function that does one run


def _cgroup_ints(*names: str) -> list[int] | None:
    """The integers in this process's cgroup files ``names``, in order; None
    if one cannot be read or holds a word that is not an integer (``max``)."""
    try:
        return [int(word) for name in names for word in (CGROUP / name).read_text().split()]
    except (OSError, ValueError):
        return None


def usable_cpus() -> int:
    """The CPUs this process may run on, lowered to a cgroup's CPU quota (v2, then v1)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    quota = _cgroup_ints("cpu.max") or _cgroup_ints("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")
    if quota and quota[0] > 0:
        cpus = min(cpus, max(1, quota[0] // quota[1]))
    return cpus


def available_memory() -> int:
    """Bytes that may still be allocated: the system's available memory,
    lowered to the headroom under a cgroup's memory limit (v2, then v1);
    unbounded where none of them can be read."""
    headroom = []
    try:
        with open("/proc/meminfo") as fh:
            headroom += [int(line.split()[1]) << 10 for line in fh if line.startswith("MemAvailable:")]
    except OSError:
        pass
    for limit, usage in (("memory.max", "memory.current"),
                         ("memory/memory.limit_in_bytes", "memory/memory.usage_in_bytes")):
        used = _cgroup_ints(limit, usage)
        if used:
            headroom.append(used[0] - used[1])
    return min(headroom, default=sys.maxsize)


def run_bytes(prepared: dict[int, PreparedData]) -> int:
    """The working memory budgeted to one run on the largest of ``prepared``."""
    val = max(data.split.validation.size for data in prepared.values())
    return RUN_BASE_BYTES + VAL_PAIR_BYTES * val * val


def loaded_libraries() -> set[str]:
    """The paths of the shared libraries mapped into this process (Linux); empty elsewhere."""
    try:
        with open("/proc/self/maps") as fh:
            return {line.split(maxsplit=5)[-1].strip() for line in fh if ".so" in line}
    except OSError:
        return set()


def blas_thread_setters() -> list:
    """The thread-count setter of each OpenBLAS build loaded in this process;
    empty when none is loaded or can be opened, as with a numpy built on another BLAS."""
    import ctypes

    setters = []
    for path in sorted(path for path in loaded_libraries() if "openblas" in Path(path).name.lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping of a file since deleted
            continue
        name = next((name for name in OPENBLAS_SETTERS if hasattr(lib, name)), None)
        if name is not None:
            setters.append(getattr(lib, name))
            setters[-1].argtypes, setters[-1].restype = [ctypes.c_int], None
    return setters


# signal is imported by the workers alone, so that importing the package does not load it
def _start_worker(run, blas_setters) -> None:
    import signal

    global _worker_run
    _worker_run = run  # a closure over the prepared data, inherited through fork, never pickled
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an idle worker leaves Ctrl-C to the parent
    for set_threads in blas_setters:  # N workers with N BLAS threads each would oversubscribe the CPUs
        set_threads(1)


def _run_in_worker(*job):
    import signal

    signal.signal(signal.SIGINT, signal.default_int_handler)  # Ctrl-C stops the run in progress
    try:
        return _worker_run(*job)
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def run_all(jobs: list[tuple], run, budget: int, done=lambda job, result: None) -> list:
    """``[run(*job) for job in jobs]``, each job a (variant, seed, ...) tuple
    whose run needs about ``budget`` bytes of working memory.

    The jobs are spread over forked workers, longest first: one per usable
    CPU, but no more than there are jobs or than the available memory holds
    at ``budget`` each. With one worker, without ``fork``, or without an
    OpenBLAS to pin to one thread per worker, they run in this process.
    Either way ``done(job, result)`` is called, and the first failure raised,
    in the order of ``jobs``, so output and exit code are the serial loop's;
    on a failure, pending jobs are cancelled and running ones finish. A
    worker killed outright (as by the kernel's out-of-memory killer) is a
    ``MemoryError``. No worker outlives the call.
    """
    workers = min(usable_cpus(), len(jobs))
    blas_setters = []
    if workers > 1:
        import multiprocessing

        workers = min(workers, max(1, available_memory() // budget))
        if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            blas_setters = blas_thread_setters()
        if not blas_setters:  # unpinned workers oversubscribe the CPUs: slower than one at a time
            workers = 1
    if workers == 1:
        return _in_order(jobs, (run(*job) for job in jobs), done)

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(run, blas_setters))
    try:
        submit = sorted(range(len(jobs)), key=lambda i: SUBMIT_RANK[AUX_NETWORK[jobs[i][0]]])
        futures = {i: pool.submit(_run_in_worker, *jobs[i]) for i in submit}
        return _in_order(jobs, (futures[i].result() for i in range(len(jobs))), done)
    except BrokenProcessPool:
        raise MemoryError("a worker process was killed while training, as the kernel does when memory runs out; "
                          "runs that finished kept their files") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _in_order(jobs: list[tuple], results, done) -> list:
    collected = []
    for job, result in zip(jobs, results):
        done(job, result)
        collected.append(result)
    return collected


def train_variants(exp: Experiment) -> None:
    def run(variant, seed):
        run_one(exp.prepared[seed], exp.model, exp.train, variant, seed, exp.out)

    run_all([(variant, seed) for variant in exp.spec.variants for seed in exp.spec.seeds], run,
            run_bytes(exp.prepared), done=lambda job, _: print(f"trained {run_name(*job)}"))


def cmd_train(args) -> int:
    train_variants(open_experiment(args))
    return 0


def load_checkpoint(out: Path, variant: str, seed: int, data: PreparedData) -> HazardModel:
    """The run's checkpoint, which must fit ``data``: its features and time bins."""
    path = checkpoint_path(out, variant, seed)
    if not path.exists():
        raise ConfigError(f"missing checkpoint: {path} (run train first)")
    model = HazardModel.load(path)
    trained = (model.config.input_dim, model.config.n_time_bins)
    if trained != (data.n_features, data.n_time_bins):
        raise ConfigError(f"checkpoint {path} was trained on {trained[0]} features x {trained[1]} time bins, "
                          f"the data has {data.n_features} x {data.n_time_bins}; train it on this spec first")
    return model


def score_test_split(data: PreparedData, model: HazardModel, run: str) -> M.MetricReport:
    """The report of ``model`` on the test split; an undefined metric names ``run``."""
    x, tau, delta = data.subset(data.split.test)
    with naming(f"{run}: "):
        return M.evaluate_hazards(model.hazard_curve(x), tau, delta)


def aggregate_reports(reports: list[M.MetricReport]) -> dict:
    agg = {"n_seeds": len(reports)}
    for name, attr in (("ci", "ci_integrated"), ("ibs", "ibs"), ("ddc", "ddc")):
        values = np.asarray([getattr(r, attr) for r in reports], dtype=float)
        agg[f"{name}_mean"], agg[f"{name}_std"] = float(values.mean()), float(values.std())
    agg["dcal_passes"] = sum(r.dcal_pass for r in reports)
    return agg


AGG_COLUMNS = ["ci_mean", "ci_std", "ibs_mean", "ibs_std", "ddc_mean", "ddc_std", "dcal_passes"]


def write_summary(path: Path, rows: list[tuple[str, dict]]) -> None:
    write_csv(path, ["label", "n_seeds"] + AGG_COLUMNS,
              ([label, agg["n_seeds"]] + [agg[c] for c in AGG_COLUMNS] for label, agg in rows))


def print_summary(rows: list[tuple[str, dict]]) -> None:
    # "+/-" where stdout cannot encode "±", as under an ASCII locale
    pm = "±" if "±".encode(sys.stdout.encoding or "utf-8", "ignore") else "+/-"
    for label, agg in rows:
        print(f"{label}: ci={agg['ci_mean']:.4f}{pm}{agg['ci_std']:.4f} ibs={agg['ibs_mean']:.4f}{pm}{agg['ibs_std']:.4f} "
              f"ddc={agg['ddc_mean']:.4f}{pm}{agg['ddc_std']:.4f} dcal={agg['dcal_passes']}/{agg['n_seeds']}")


def evaluate_variants(exp: Experiment) -> list[tuple[str, dict]]:
    """Score every checkpoint under the experiment's output directory on its seed's test split."""
    (exp.out / "reports").mkdir(parents=True, exist_ok=True)
    summary = []
    for variant in exp.spec.variants:
        reports = []
        for seed in exp.spec.seeds:
            data = exp.prepared[seed]
            report = score_test_split(data, load_checkpoint(exp.out, variant, seed, data), run_name(variant, seed))
            report.to_json(exp.out / "reports" / f"{run_name(variant, seed)}.json")
            reports.append(report)
        summary.append((variant, aggregate_reports(reports)))
    write_summary(exp.out / "reports" / "summary.csv", summary)
    return summary


def cmd_evaluate(args) -> int:
    print_summary(evaluate_variants(open_experiment(args)))
    return 0


def cmd_ablate(args) -> int:
    """``train`` then ``evaluate``, always over all four variants, on one
    opening of the experiment."""
    args.variant = list(VARIANTS)
    experiment = open_experiment(args)
    train_variants(experiment)
    print_summary(evaluate_variants(experiment))
    return 0


def cmd_subgroup(args) -> int:
    spec, out, prepared, *_ = open_experiment(args)
    data = prepared[spec.seeds[0]]
    model = load_checkpoint(out, spec.variants[0], spec.seeds[0], data)

    groups = subgroup_columns(data.feature_names, data.feature_kinds, args.feature)
    if not groups:
        raise ConfigError(f"feature {args.feature!r} not found or not binary/categorical")
    idx = data.split.test
    x, tau, delta = data.subset(idx)
    surv = survival_from_hazard(model.hazard_curve(x))

    curve_rows = []
    dist_rows = []
    lines = []  # one per subgroup, in order, a skipped one included
    for name, column, level in groups:
        members = np.flatnonzero(x[:, column] == level)
        if members.size < 5:
            lines.append(f"{name}: n={members.size} skipped, fewer than 5 test rows")
            continue
        km = M.kaplan_meier(tau[members], delta[members], n_bins=data.n_time_bins).values
        mean_curve = surv[members].mean(axis=0)
        distance = M.wasserstein_to_km(mean_curve, km)
        dist_rows.append((name, members.size, distance))
        lines.append(f"{name}: n={members.size} wasserstein={distance:.4f}")
        for t in range(data.n_time_bins):
            curve_rows.append((name, t, mean_curve[t], km[t]))

    write_csv(out / "subgroup_curves.csv", ["subgroup", "t", "model_mean", "kaplan_meier"], curve_rows)
    write_csv(out / "subgroup_distances.csv", ["subgroup", "n", "wasserstein"], dist_rows)
    # subgroup names come from the data: escape what stdout cannot encode, as under an ASCII locale
    encoding = sys.stdout.encoding or "utf-8"
    print("\n".join(lines).encode(encoding, "backslashreplace").decode(encoding))
    return 0


def subgroup_columns(feature_names: list[str], feature_kinds: list[str], feature: str) -> list[tuple[str, int, int]]:
    """The (name, column, level) of each subgroup of ``feature``, whose rows
    hold ``level`` in ``column`` of the prepared features: a binary feature or
    one categorical level (``grade=low``) gives ``<feature>=0`` and
    ``<feature>=1``, a categorical feature one ``<feature>=<level>`` per level
    (its one-hot column at 1), and a real feature or an unknown name none."""
    if feature in feature_names:
        j = feature_names.index(feature)
        return [(f"{feature}={level}", j, level) for level in (0, 1)] if feature_kinds[j] != "real" else []
    return [(name, j, 1) for j, (name, kind) in enumerate(zip(feature_names, feature_kinds))
            if kind == "categorical" and name.startswith(f"{feature}=")]


def cmd_sweep(args) -> int:
    values = {}  # by the label that names the value's row and directory
    for entry in filter(None, args.values.split(",")):
        try:
            value = float(entry) + 0.0  # -0 is 0
        except ValueError:
            raise ConfigError(f"sweep --values entry {entry!r} is not a number") from None
        label = format(value, "g")
        if label in values:
            raise ConfigError(f"sweep --values entry {entry!r} repeats {label}; both would write {args.param}_{label}/")
        values[label] = value
    if not values:
        raise ConfigError("sweep needs a non-empty --values list")
    exp = open_experiment(args, sweep=values)
    spec, out, prepared = exp.spec, exp.out, exp.prepared

    def run(variant, seed, label):
        sub = out / f"{args.param}_{label}"
        with naming(f"{sub.name}/"):  # a run's failure already names the run; add its sweep directory
            model, _ = run_one(prepared[seed], exp.model, exp.sweep[label], variant, seed, sub)
            return score_test_split(prepared[seed], model, run_name(variant, seed))

    reports = iter(run_all([(spec.variants[0], seed, label) for label in values for seed in spec.seeds], run,
                           run_bytes(prepared)))
    rows = [(f"{args.param}={label}", aggregate_reports([next(reports) for _ in spec.seeds])) for label in values]
    write_summary(out / "sweep.csv", rows)
    print_summary(rows)
    return 0


def sweep_overrides(param: str, value: float, train_config: TrainConfig) -> dict:
    """The train fields a sweep of ``param`` sets to ``value``; an alpha
    sweep sets the percentile instead when ``train_config`` has one."""
    if param == "beta":
        return {"beta": value}
    if train_config.alpha_percentile is not None:  # 0 turns the percentile off; a negative one is rejected
        return {"alpha_percentile": value or None, "alpha": 0.0}
    return {"alpha": value}


def cmd_synth(args) -> int:
    kind = args.kind.replace("-", "_")
    if args.truth and kind != "paired_exponential":
        raise ConfigError("--truth needs --kind paired-exponential")
    config = dict(n_samples=args.n, feature_dim=args.features, seed=args.seed, kind=kind)
    data = GENERATORS[kind](configure(SynthConfig, "synthetic config", config))
    raw = data.to_raw()
    out_dir = resolve_out(".", args.out)
    write_csv(out_dir / "synth.csv", raw.feature_names + ["time", "event"],
              ([*f, t, e] for f, t, e in zip(raw.features, raw.times, raw.events)))
    if args.truth:
        write_csv(out_dir / "synth_truth.csv", ["true_event_time", "censor_time", "event"],
                  zip(data.true_event_times, data.censor_times, data.events))
    schema = {
        "columns": [{"name": name, "kind": "real", "role": "feature"} for name in raw.feature_names]
        + [
            {"name": "time", "kind": "real", "role": "time"},
            {"name": "event", "kind": "binary", "role": "event"},
        ]
    }
    with open(out_dir / "schema.json", "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
    print(f"wrote {out_dir / 'synth.csv'}")
    return 0


def cmd_margin_study(args) -> int:
    if args.bins < 2:
        raise ConfigError("margin-study --bins must be >= 2")
    config = configure(SynthConfig, "synthetic config", dict(n_samples=args.n, seed=args.seed))
    pairs = margin_study(generate_paired_exponential(config), n_bins=args.bins)
    write_csv(resolve_out(".", args.out) / "margin_pairs.csv", ["anchor_tau", "censoring_gap", "truth_gap"], pairs)
    if pairs.size:
        c_mean, t_mean = pairs[:, 1].mean(), pairs[:, 2].mean()
        frac = float((pairs[:, 2] >= pairs[:, 1]).mean())
        print(f"pairs={len(pairs)} censoring_gap_mean={c_mean:.3f} truth_gap_mean={t_mean:.3f} "
              f"truth_dominates={frac:.4f}")
    else:
        print("pairs=0")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def spec_overrides(args) -> dict:
    overrides = {}
    if getattr(args, "seed", None):
        overrides["seeds"] = args.seed
    if getattr(args, "variant", None):
        overrides["variants"] = args.variant
    return overrides


def utf8_argument(value: str) -> str:
    """A command-line value that names something in a UTF-8 file, decoded as
    UTF-8: under an ASCII locale its non-ASCII bytes arrive surrogate-escaped
    and would match no name read from the file. Paths stay as they arrive,
    so the file system gets back the bytes it was given."""
    return os.fsencode(value).decode("utf-8", "surrogateescape")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="survcontrast", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p, variant=True):
        p.add_argument("--config", required=True, help="experiment spec (JSON or TOML)")
        p.add_argument("--seed", type=int, nargs="+", help="override spec seeds")
        if variant:
            p.add_argument("--variant", nargs="+", choices=VARIANTS, help="override spec variants")
        p.add_argument("--out", help=f"output directory (default from spec / ${OUT_ROOT_ENV})")

    for name, fn in (("train", cmd_train), ("evaluate", cmd_evaluate), ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        add_spec_flags(p, variant=name != "ablate")
        p.set_defaults(fn=fn)

    p = sub.add_parser("subgroup")
    add_spec_flags(p)
    p.add_argument("--feature", required=True, type=utf8_argument, help="binary or categorical feature name")
    p.set_defaults(fn=cmd_subgroup)

    p = sub.add_parser("sweep")
    add_spec_flags(p)
    p.add_argument("--param", required=True, choices=["alpha", "beta"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("synth")
    p.add_argument("--kind", default="paired-exponential", choices=[k.replace("_", "-") for k in GENERATORS])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--features", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", action="store_true", help="also write the hidden-truth sidecar (paired kind only)")
    p.add_argument("--out", help=f"output directory (default . / ${OUT_ROOT_ENV})")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("margin-study")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--out", help=f"output directory (default . / ${OUT_ROOT_ENV})")
    p.set_defaults(fn=cmd_margin_study)
    return parser


# stderr label and exit code of each documented failure (module docstring)
FAILURES = {
    ConfigError: ("config", 2),
    DataError: ("data", 2),
    TrainingDiverged: ("runtime", 3),
    M.MetricError: ("metric", 4),
    MemoryError: ("memory", 2),
    OSError: ("file", 2),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(FAILURES) as exc:
        kind, code = next(v for cls, v in FAILURES.items() if isinstance(exc, cls))
        # a path fault names its file; one that names none, such as a broken stdout pipe, is its own text
        message = f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) and exc.filename is not None else exc
        print(f"{kind} error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
