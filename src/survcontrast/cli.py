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
variants and takes no ``--variant``). A relative output directory, the
``--out`` of ``synth`` and ``margin-study`` included, goes under
``$SURVCONTRAST_OUT`` when that is set. Outputs are plain CSV/JSON with
stable formatting, so identical specs reproduce identical bytes; every CSV
goes through ``data.write_csv`` (LF line ends, csv-module quoting, floats
as ``.12g``).

Exit codes, each failure with one ``<kind> error: <message>`` line on stderr:

* 0 success
* 2 bad input: configuration, data files or checkpoints
* 3 runtime divergence (a non-finite loss), naming the run
* 4 a metric undefined on the test split (e.g. too few events), naming the run
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # python < 3.11
    try:
        import tomli as tomllib
    except ModuleNotFoundError:
        tomllib = None

import numpy as np

from . import metrics as M
from .autodiff import ShapeError
from .data import DataError, PreparedData, RawDataset, Schema, check_field_types, load_csv, prepare, write_csv
from .model import HazardModel, ModelConfig, init_model, survival_from_hazard
from .synth import GENERATORS, SynthConfig, generate_paired_exponential, margin_study
from .trainer import VARIANTS, TrainConfig, TrainingDiverged, train

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
    n_bins: int | None = None

    def __post_init__(self):
        check_field_types(self, "dataset.")


@dataclass
class ExperimentSpec:
    dataset: dict | None = None  # DatasetSpec fields; a DatasetSpec once constructed
    synthetic: dict | None = None  # SynthConfig fields
    variants: list[str] = field(default_factory=lambda: ["nll+snce"])
    seeds: list[int] = field(default_factory=lambda: list(DEFAULT_SEEDS))
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    n_bins: int | None = None
    out: str = "runs/experiment"

    def __post_init__(self):
        check_field_types(self)
        if (self.dataset is None) == (self.synthetic is None):
            raise ValueError("exactly one of 'dataset' or 'synthetic' must be given")
        for key in ("variants", "seeds"):
            if not getattr(self, key):
                raise ValueError(f"'{key}' must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError("seeds must be non-negative")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}; expected one of {VARIANTS}")
        if self.dataset is not None:
            self.dataset = DatasetSpec(**self.dataset)


def load_spec(path, overrides: dict | None = None) -> ExperimentSpec:
    """The spec in ``path`` with the fields in ``overrides`` replaced; the
    file is checked as written first, so a flag cannot hide a bad field."""
    path = Path(path)
    if path.suffix == ".toml" and tomllib is None:
        raise ConfigError("TOML specs need python >= 3.11 or the tomli package; use JSON instead")
    try:
        if path.suffix == ".toml":
            with open(path, "rb") as fh:
                raw = tomllib.load(fh)
        else:
            with open(path) as fh:
                raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"spec {path} must be an object at the top level, not {type(raw).__name__}")
    spec = configure(ExperimentSpec, "spec", raw)
    return configure(ExperimentSpec, "spec", {**raw, **overrides}) if overrides else spec


def resolve_out(spec_out: str, flag_out: str | None) -> Path:
    out = flag_out or spec_out
    root = os.environ.get(OUT_ROOT_ENV)
    path = Path(out)
    if root and not path.is_absolute():
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def load_raw(spec: ExperimentSpec) -> RawDataset:
    if spec.dataset is not None:
        try:  # a schema or CSV fault stays a DataError
            return load_csv(spec.dataset.csv, Schema.from_json(spec.dataset.schema))
        except OSError as exc:  # a missing file or a directory
            raise ConfigError(str(exc)) from exc
    cfg = configure(SynthConfig, "synthetic config", spec.synthetic)
    return GENERATORS[cfg.kind](cfg).to_raw()


def open_experiment(args) -> tuple[ExperimentSpec, Path, dict[int, PreparedData]]:
    """The spec with the flags applied, its output directory (made before the
    data is read) and the dataset prepared once for each of its seeds."""
    spec = load_spec(args.config, spec_overrides(args))
    out = resolve_out(spec.out, args.out)
    raw = load_raw(spec)
    n_bins = spec.dataset.n_bins if spec.n_bins is None and spec.dataset is not None else spec.n_bins
    return spec, out, {seed: prepare(raw, seed=seed, n_bins=n_bins) for seed in spec.seeds}


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

def run_one(data: PreparedData, spec: ExperimentSpec, variant: str, seed: int, out: Path, **train_overrides):
    """Train one (variant, seed) run on ``data``, prepared for ``seed``, and write its files."""
    model_config = configure(ModelConfig, "model config", spec.model,
                             input_dim=data.n_features, n_time_bins=data.n_time_bins)
    model = init_model(model_config, seed)
    config = configure(TrainConfig, "train config", {**spec.train, **train_overrides}, seed=seed)
    try:
        model, log = train(data, model, config, variant)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"{run_name(variant, seed)}: {exc}") from exc
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    model.save(checkpoint_path(out, variant, seed))
    log.to_csv(out / "logs" / f"{run_name(variant, seed)}.csv")
    return model, log


def train_variants(spec: ExperimentSpec, out: Path, prepared: dict[int, PreparedData]) -> None:
    for variant in spec.variants:
        for seed in spec.seeds:
            run_one(prepared[seed], spec, variant, seed, out)
            print(f"trained {run_name(variant, seed)}")


def cmd_train(args) -> int:
    train_variants(*open_experiment(args))
    return 0


def load_checkpoint(out: Path, variant: str, seed: int) -> HazardModel:
    path = checkpoint_path(out, variant, seed)
    if not path.exists():
        raise ConfigError(f"missing checkpoint: {path} (run train first)")
    return HazardModel.load(path)


def score_test_split(data: PreparedData, model: HazardModel, run: str) -> M.MetricReport:
    """The report of ``model`` on the test split; an undefined metric names ``run``."""
    x, tau, delta = data.subset(data.split.test)
    try:
        return M.evaluate_hazards(model.hazard_curve(x), tau, delta)
    except M.MetricError as exc:
        raise M.MetricError(f"{run}: {exc}") from exc


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
    for label, agg in rows:
        print(f"{label}: ci={agg['ci_mean']:.4f}±{agg['ci_std']:.4f} ibs={agg['ibs_mean']:.4f}±{agg['ibs_std']:.4f} "
              f"ddc={agg['ddc_mean']:.4f}±{agg['ddc_std']:.4f} dcal={agg['dcal_passes']}/{agg['n_seeds']}")


def evaluate_variants(spec: ExperimentSpec, out: Path, prepared: dict[int, PreparedData]) -> list[tuple[str, dict]]:
    """Score every checkpoint under ``out`` on its seed's test split."""
    (out / "reports").mkdir(parents=True, exist_ok=True)
    summary = []
    for variant in spec.variants:
        reports = []
        for seed in spec.seeds:
            report = score_test_split(prepared[seed], load_checkpoint(out, variant, seed), run_name(variant, seed))
            report.to_json(out / "reports" / f"{run_name(variant, seed)}.json")
            reports.append(report)
        summary.append((variant, aggregate_reports(reports)))
    write_summary(out / "reports" / "summary.csv", summary)
    return summary


def cmd_evaluate(args) -> int:
    print_summary(evaluate_variants(*open_experiment(args)))
    return 0


def cmd_ablate(args) -> int:
    """``train`` then ``evaluate``, always over all four variants, on one
    opening of the experiment."""
    args.variant = list(VARIANTS)
    experiment = open_experiment(args)
    train_variants(*experiment)
    print_summary(evaluate_variants(*experiment))
    return 0


def cmd_subgroup(args) -> int:
    spec, out, prepared = open_experiment(args)
    seed = spec.seeds[0]
    model = load_checkpoint(out, spec.variants[0], seed)
    data = prepared[seed]

    groups = subgroup_columns(data.feature_names, args.feature)
    if not groups:
        raise ConfigError(f"feature {args.feature!r} not found or not binary/categorical")
    idx = data.split.test
    x, tau, delta = data.subset(idx)
    surv = survival_from_hazard(model.hazard_curve(x))

    curve_rows = []
    dist_rows = []
    for label, column in groups:
        for level in (0, 1) if len(groups) == 1 else (1,):
            members = np.flatnonzero(np.isclose(x[:, column], level) if len(groups) == 1 else x[:, column] > 0.5)
            name = f"{label}={level}" if len(groups) == 1 else label
            if members.size < 5:
                print(f"warning: subgroup {name} has {members.size} samples, skipped", file=sys.stderr)
                continue
            km = M.kaplan_meier(tau[members], delta[members], n_bins=data.n_time_bins)
            mean_curve = surv[members].mean(axis=0)
            distance = M.wasserstein_to_km(mean_curve, km)
            dist_rows.append((name, members.size, distance))
            for t in range(data.n_time_bins):
                curve_rows.append((name, t, mean_curve[t], km.values[t]))

    write_csv(out / "subgroup_curves.csv", ["subgroup", "t", "model_mean", "kaplan_meier"], curve_rows)
    write_csv(out / "subgroup_distances.csv", ["subgroup", "n", "wasserstein"], dist_rows)
    for name, n, d in dist_rows:
        print(f"{name}: n={n} wasserstein={d:.4f}")
    return 0


def subgroup_columns(feature_names: list[str], feature: str) -> list[tuple[str, int]]:
    """Binary feature -> one column; categorical -> one column per level."""
    if feature in feature_names:
        return [(feature, feature_names.index(feature))]
    return [(name, j) for j, name in enumerate(feature_names) if name.startswith(f"{feature}=")]


def cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise ConfigError("sweep needs a non-empty --values list")
    spec, out, prepared = open_experiment(args)
    variant = spec.variants[0]
    percentile_mode = spec.train.get("alpha_percentile") is not None

    rows = []
    for value in values:
        if args.param == "beta":
            overrides = {"beta": value}
        elif percentile_mode:
            overrides = {"alpha_percentile": value if value > 0 else None, "alpha": 0.0}
        else:
            overrides = {"alpha": value}
        sub = out / f"{args.param}_{format(value, 'g')}"
        reports = []
        for seed in spec.seeds:
            try:  # both failures already name the run; add its sweep directory
                model, _ = run_one(prepared[seed], spec, variant, seed, sub, **overrides)
                reports.append(score_test_split(prepared[seed], model, run_name(variant, seed)))
            except (TrainingDiverged, M.MetricError) as exc:
                raise type(exc)(f"{sub.name}/{exc}") from exc
        rows.append((f"{args.param}={format(value, 'g')}", aggregate_reports(reports)))
    write_summary(out / "sweep.csv", rows)
    print_summary(rows)
    return 0


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
    with open(out_dir / "schema.json", "w") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
    print(f"wrote {out_dir / 'synth.csv'}")
    return 0


def cmd_margin_study(args) -> int:
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
    p.add_argument("--feature", required=True, help="binary or categorical feature name")
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
    ShapeError: ("shape", 2),
    TrainingDiverged: ("runtime", 3),
    M.MetricError: ("metric", 4),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(FAILURES) as exc:
        kind, code = next(v for cls, v in FAILURES.items() if isinstance(exc, cls))
        print(f"{kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
