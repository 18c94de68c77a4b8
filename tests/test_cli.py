import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcontrast import cli
from survcontrast.cli import main
from survcontrast.model import ModelConfig
from survcontrast.synth import SynthConfig
from survcontrast.trainer import VARIANTS, TrainConfig

BASE_SPEC = {
    "synthetic": {"kind": "paired_exponential", "n_samples": 160, "seed": 3},
    "variants": ["nll+snce"],
    "seeds": [0, 1, 2],
    "model": {"hidden_dim": 8, "depth": 2, "embedding_dim": 4},
    "train": {
        "epochs": 2,
        "batch_size": 32,
        "beta": 1.0,
        "sigma": 0.75,
        "nu": 0.5,
        "corruption_rate": 0.3,
        "patience": 5,
    },
    "n_bins": 10,
}


def write_spec(tmp_path, **changes):
    spec = json.loads(json.dumps(BASE_SPEC))
    for key, value in changes.items():
        if isinstance(value, dict):
            spec.setdefault(key, {}).update(value)
        else:
            spec[key] = value
    spec["out"] = str(tmp_path / "out")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_train_fans_out_checkpoints_and_logs(tmp_path):
    spec = write_spec(tmp_path)
    assert main(["train", "--config", str(spec)]) == 0
    out = tmp_path / "out"
    assert len(list((out / "checkpoints").glob("*.json"))) == 3
    assert len(list((out / "logs").glob("*.csv"))) == 3


def test_train_rerun_byte_identical(tmp_path):
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["train", "--config", str(spec)]) == 0
    out = tmp_path / "out"
    ckpt = next((out / "checkpoints").glob("*.json"))
    log = next((out / "logs").glob("*.csv"))
    first = (ckpt.read_bytes(), log.read_bytes())
    assert main(["train", "--config", str(spec)]) == 0
    assert (ckpt.read_bytes(), log.read_bytes()) == first


def test_invalid_sigma_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, train={"sigma": -1.0})
    assert main(["train", "--config", str(spec)]) == 2
    assert "sigma" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_divergence_exits_3(tmp_path, capsys):
    # a vanishing ranking temperature overflows exp() on the first wrongly
    # ordered pair, which must surface as a runtime (not config) failure
    spec = write_spec(
        tmp_path,
        variants=["nll+rank"],
        seeds=[0],
        train={"epochs": 2, "ranking_kappa": 1e-6},
    )
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN is the point
        assert main(["train", "--config", str(spec)]) == 3
    assert capsys.readouterr().err.startswith("runtime error: nll_rank_seed0: non-finite")


def test_evaluate_reports_and_summary(tmp_path):
    spec = write_spec(tmp_path)
    assert main(["train", "--config", str(spec)]) == 0
    assert main(["evaluate", "--config", str(spec)]) == 0
    out = tmp_path / "out"
    reports = sorted((out / "reports").glob("nll_snce_seed*.json"))
    assert len(reports) == 3
    payload = json.loads(reports[0].read_text())
    assert {"ci_integrated", "ibs", "ddc", "dcal_pvalue"} <= payload.keys()

    summary = (out / "reports" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("label,n_seeds,ci_mean")
    row = summary[1].split(",")
    assert row[0] == "nll+snce" and row[1] == "3"
    # aggregate mean equals the average of the per-seed reports
    cis = [json.loads(p.read_text())["ci_integrated"] for p in reports]
    assert float(row[2]) == pytest.approx(np.mean(cis), abs=1e-10)
    assert int(row[8]) <= 3


def count_prepared_seeds(monkeypatch) -> list[int]:
    """Record the seed of every ``cli.prepare`` call from now on."""
    seeds = []
    prepare = cli.prepare

    def counting(raw, seed, n_bins=None):
        seeds.append(seed)
        return prepare(raw, seed=seed, n_bins=n_bins)

    monkeypatch.setattr(cli, "prepare", counting)
    return seeds


def test_evaluate_prepares_each_seed_once(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, seeds=[0, 1], variants=["nll", "nll+snce"], train={"epochs": 1})
    assert main(["train", "--config", str(spec)]) == 0
    seeds = count_prepared_seeds(monkeypatch)
    assert main(["evaluate", "--config", str(spec)]) == 0
    assert seeds == [0, 1]
    assert len(list((tmp_path / "out" / "reports").glob("*_seed*.json"))) == 4


def test_train_prepares_each_seed_once(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, seeds=[0, 1], variants=["nll", "nll+snce"], train={"epochs": 1})
    seeds = count_prepared_seeds(monkeypatch)
    assert main(["train", "--config", str(spec)]) == 0
    assert seeds == [0, 1]
    assert len(list((tmp_path / "out" / "checkpoints").glob("*_seed*.json"))) == 4


def test_ablate_prepares_each_seed_once(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, seeds=[0, 1], train={"epochs": 1})
    seeds = count_prepared_seeds(monkeypatch)
    assert main(["ablate", "--config", str(spec)]) == 0
    assert seeds == [0, 1]
    assert len(list((tmp_path / "out" / "reports").glob("*_seed*.json"))) == 8


def package_env() -> dict:
    """This process's environment with the package's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_commands_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy or a submodule fail
    spec = str(write_spec(tmp_path, seeds=[0], train={"epochs": 1}))
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from survcontrast.cli import main",
        *(f"assert main([{command!r}, '--config', {spec!r}]) == 0" for command in ("train", "evaluate", "ablate")),
        "print(sorted(name for name, module in sys.modules.items() if name.startswith('scipy') and module))",
    ])
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], capture_output=True, text=True,
                          env=package_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # the loaded scipy modules


def test_library_notices_stay_off_stderr(tmp_path):
    # batches of 4 rows often hold no comparable or acceptable pair, and each such batch
    # logs a notice, which Python's last-resort handler used to print: 230 lines here
    spec = write_spec(tmp_path, synthetic={"n_samples": 600}, variants=["nll+snce", "nll+rank"], seeds=[0],
                      train={"epochs": 3, "batch_size": 4})
    done = subprocess.run([sys.executable, "-m", "survcontrast.cli", "train", "--config", str(spec)],
                          capture_output=True, text=True, env=package_env())
    assert done.returncode == 0
    assert done.stderr == ""


def test_evaluate_missing_checkpoint_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert main(["evaluate", "--config", str(spec)]) == 2
    assert "missing checkpoint" in capsys.readouterr().err


def test_undefined_metric_exits_4_without_traceback(tmp_path, capsys):
    # 100 samples leave a 20-row test split with 9 events, one too few for D-calibration
    spec = write_spec(tmp_path, synthetic={"n_samples": 100}, seeds=[0])
    assert main(["train", "--config", str(spec)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(spec)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("metric error: nll_snce_seed0: D-calibration needs at least 10 uncensored samples")
    assert err.count("\n") == 1


def test_malformed_checkpoint_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["train", "--config", str(spec)]) == 0
    path = tmp_path / "out" / "checkpoints" / "nll_snce_seed0.json"
    payload = json.loads(path.read_text())
    n = len(payload["params"])
    payload["params"].pop()
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shape error:") and f"params holds {n - 1} values, its config lays out {n}" in err


def test_nested_layout_checkpoint_exits_2_asking_for_a_flat_list(tmp_path, capsys):
    # the per-network, per-layer layout that checkpoints were written in before the flat buffer
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["train", "--config", str(spec)]) == 0
    path = tmp_path / "out" / "checkpoints" / "nll_snce_seed0.json"
    model = cli.HazardModel.load(path)
    payload = json.loads(path.read_text())
    payload["params"] = {key: [[w.values.tolist(), b.values.tolist()] for w, b in net.layers]
                         for key, net in (("encoder", model.encoder), ("projection", model.projection),
                                          ("hazard", model.hazard_net))}
    path.write_text(json.dumps(payload, sort_keys=True))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: checkpoint {path} is malformed: ")
    assert "params must be one flat list of numbers" in err[0]


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _edit_checkpoint(edit):
    def corrupt(path):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    return corrupt


def _set_first_weight(value):
    return _edit_checkpoint(lambda payload: payload["params"].__setitem__(0, value))


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate,
        _edit_checkpoint(lambda payload: payload.pop("params")),
        _edit_checkpoint(lambda payload: payload["config"].__setitem__("hidden_dim", -1)),
        _set_first_weight("0.5x"),
        _set_first_weight(float("nan")),
    ],
    ids=["truncated", "no-params", "negative-hidden-dim", "string-weight", "nan-weight"],
)
def test_corrupt_checkpoint_exits_2_naming_it(tmp_path, capsys, corrupt):
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["train", "--config", str(spec)]) == 0
    path = tmp_path / "out" / "checkpoints" / "nll_snce_seed0.json"
    corrupt(path)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: checkpoint {path} ")


@pytest.mark.parametrize("command", [["evaluate"], ["subgroup", "--feature", "flag"]])
def test_checkpoint_trained_on_another_grid_exits_2_naming_both_shapes(tmp_path, capsys, command):
    # trained on 8 bins, scored on 6: evaluate used to exit 0 and write the reports, subgroup to exit 4
    spec = write_flag_spec(tmp_path, n_bins=8)
    assert main(["train", "--config", str(spec)]) == 0
    write_flag_spec(tmp_path, n_bins=6)
    capsys.readouterr()
    assert main([command[0], "--config", str(spec), *command[1:]]) == 2
    path = tmp_path / "out" / "checkpoints" / "nll_seed0.json"
    assert capsys.readouterr().err == (f"config error: checkpoint {path} was trained on 4 features x 8 time bins, "
                                       "the data has 4 x 6; train it on this spec first\n")
    assert not list((tmp_path / "out").glob("reports/*.json")) + list((tmp_path / "out").glob("subgroup_*.csv"))


def test_checkpoint_trained_on_other_features_exits_2_naming_both_shapes(tmp_path, capsys):
    # a wider dataset used to end in the encoder's shape error, which names no checkpoint
    spec = write_spec(tmp_path, seeds=[0], synthetic={"feature_dim": 5})
    assert main(["train", "--config", str(spec)]) == 0
    spec = write_spec(tmp_path, seeds=[0], synthetic={"feature_dim": 6})
    capsys.readouterr()
    assert main(["evaluate", "--config", str(spec)]) == 2
    path = tmp_path / "out" / "checkpoints" / "nll_snce_seed0.json"
    assert capsys.readouterr().err == (f"config error: checkpoint {path} was trained on 5 features x 10 time bins, "
                                       "the data has 6 x 10; train it on this spec first\n")


def test_evaluate_single_seed_zero_std(tmp_path):
    spec = write_spec(tmp_path, seeds=[1])
    assert main(["train", "--config", str(spec)]) == 0
    assert main(["evaluate", "--config", str(spec)]) == 0
    summary = (tmp_path / "out" / "reports" / "summary.csv").read_text().splitlines()
    row = summary[1].split(",")
    assert float(row[3]) == 0.0  # ci_std


def test_evaluate_rerun_byte_identical(tmp_path):
    spec = write_spec(tmp_path, seeds=[0, 1])
    assert main(["train", "--config", str(spec)]) == 0
    assert main(["evaluate", "--config", str(spec)]) == 0
    summary_path = tmp_path / "out" / "reports" / "summary.csv"
    first = summary_path.read_bytes()
    assert main(["evaluate", "--config", str(spec)]) == 0
    assert summary_path.read_bytes() == first


def test_ablate_emits_four_variant_rows(tmp_path):
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1})
    assert main(["ablate", "--config", str(spec)]) == 0
    summary = (tmp_path / "out" / "reports" / "summary.csv").read_text().splitlines()
    labels = [line.split(",")[0] for line in summary[1:]]
    assert labels == ["nll", "nll+nce", "nll+rank", "nll+snce"]


def test_ablate_rejects_variant_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1})
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--config", str(spec), "--variant", "nll"])
    assert exc.value.code == 2
    assert "--variant" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_rows_match_values(tmp_path):
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1})
    assert main(["sweep", "--config", str(spec), "--param", "beta", "--values", "0.1,1.0"]) == 0
    sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in sweep[1:]] == ["beta=0.1", "beta=1"]


def test_sweep_alpha_rows(tmp_path):
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1})
    assert main(["sweep", "--config", str(spec), "--param", "alpha", "--values", "0,2"]) == 0
    sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(sweep) == 3


def test_sweep_alpha_percentile_mode(tmp_path):
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1, "alpha_percentile": 10.0})
    assert main(["sweep", "--config", str(spec), "--param", "alpha", "--values", "0,10"]) == 0
    sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in sweep[1:]] == ["alpha=0", "alpha=10"]


def test_sweep_names_a_diverged_run_with_its_sweep_directory(tmp_path, capsys):
    # beta = 1e308 drives the first batch to a non-finite loss; beta = 1 trains
    spec = write_spec(tmp_path, seeds=[0])
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN is the point
        assert main(["sweep", "--config", str(spec), "--param", "beta", "--values", "1,1e308"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: beta_1e+308/nll_snce_seed0: non-finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_names_a_run_whose_optimizer_state_overflows(tmp_path, capsys):
    # beta = 1e300 keeps every loss finite but squares the auxiliary gradient past
    # the float range in Adam's second moment, whose inf would silently freeze the
    # coordinates it holds; this run used to finish with exit 0
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["sweep", "--config", str(spec), "--param", "beta", "--values", "1,1e300"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: beta_1e+300/nll_snce_seed0: non-finite optimizer state")
    assert re.search(r"at epoch \d+, batch \d+ \(.+\)$", err[0])


def test_sgd_sweep_names_a_run_whose_parameters_overflow(tmp_path, capsys):
    # beta = 1e300 scales the auxiliary gradient so that one plain gradient step
    # leaves the parameters finite but so large that the next forward overflows
    # in a matmul; this run used to end in a RuntimeWarning traceback (exit 1)
    spec = write_spec(tmp_path, seeds=[0], train={"optimizer": "sgd"})
    assert main(["sweep", "--config", str(spec), "--param", "beta", "--values", "1,1e300"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: beta_1e+300/nll_snce_seed0: non-finite likelihood loss")
    assert re.search(r"at epoch \d+, batch \d+ \(overflow encountered in \w+\)$", err[0])


def test_sweep_empty_values_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["sweep", "--config", str(spec), "--param", "beta", "--values", ""]) == 2


def test_sweep_non_numeric_value_exits_2_naming_it(tmp_path, capsys):
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["sweep", "--config", str(spec), "--param", "beta", "--values", "1,x"]) == 2
    assert capsys.readouterr().err == "config error: sweep --values entry 'x' is not a number\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", ["1,1", "1,1.0"])
def test_sweep_repeated_value_exits_2_naming_it(tmp_path, capsys, values):
    # both entries would write beta_1/, the second run over the first
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["sweep", "--config", str(spec), "--param", "beta", "--values", values]) == 2
    entry = values.split(",")[1]
    assert capsys.readouterr().err == f"config error: sweep --values entry {entry!r} repeats 1; both would write beta_1/\n"
    assert not (tmp_path / "out").exists()


def test_sweep_negative_zero_repeats_zero(tmp_path, capsys):
    # -0 used to write alpha_-0/ beside alpha_0/, with identical rows
    spec = write_spec(tmp_path, seeds=[0])
    assert main(["sweep", "--config", str(spec), "--param", "alpha", "--values", "0,-0"]) == 2
    assert capsys.readouterr().err == "config error: sweep --values entry '-0' repeats 0; both would write alpha_0/\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("train", [{}, {"alpha_percentile": 10.0}])
def test_sweep_negative_alpha_exits_2(tmp_path, capsys, train):
    # a negative margin used to train as alpha = 0, and a negative percentile as no percentile
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1, **train})
    assert main(["sweep", "--config", str(spec), "--param", "alpha", "--values", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid train config: alpha") and err.count("\n") == 1


def test_overflow_in_validation_setup_exits_3_naming_run_and_stage(tmp_path, capsys):
    # a subnormal sigma overflows the validation pair weights before the first batch; this used
    # to print a RuntimeWarning and blame "epoch 0, batch 0", or end in a traceback under -W error
    spec = write_spec(tmp_path, seeds=[0], train={"sigma": 1e-320})
    assert main(["train", "--config", str(spec)]) == 3
    assert capsys.readouterr().err == ("runtime error: nll_snce_seed0: non-finite value at validation setup "
                                       "(overflow encountered in divide)\n")


def write_flag_spec(tmp_path, n_bins=8):
    """A spec over a 200-row CSV of three real features and one binary ``flag``."""
    rng = np.random.default_rng(0)
    n = 200
    x = rng.uniform(size=(n, 3))
    flag = rng.integers(0, 2, size=n)
    times = rng.uniform(1, 30, size=n)
    events = rng.integers(0, 2, size=n)
    csv_path = tmp_path / "data.csv"
    with open(csv_path, "w") as fh:
        fh.write("x0,x1,x2,flag,time,event\n")
        for i in range(n):
            fh.write(f"{x[i,0]},{x[i,1]},{x[i,2]},{flag[i]},{times[i]},{events[i]}\n")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        json.dumps(
            {
                "columns": [
                    {"name": "x0", "kind": "real", "role": "feature"},
                    {"name": "x1", "kind": "real", "role": "feature"},
                    {"name": "x2", "kind": "real", "role": "feature"},
                    {"name": "flag", "kind": "binary", "role": "feature"},
                    {"name": "time", "kind": "real", "role": "time"},
                    {"name": "event", "kind": "binary", "role": "event"},
                ]
            }
        )
    )
    spec = {
        "dataset": {"csv": str(csv_path), "schema": str(schema_path), "n_bins": n_bins},
        "variants": ["nll"],
        "seeds": [0],
        "model": {"hidden_dim": 8, "depth": 2, "embedding_dim": 4},
        "train": {"epochs": 1, "batch_size": 32, "patience": 3},
        "out": str(tmp_path / "out"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return spec_path


def test_subgroup_on_binary_feature(tmp_path):
    # a synthetic binary column in a custom csv
    spec_path = write_flag_spec(tmp_path)
    assert main(["train", "--config", str(spec_path)]) == 0
    assert main(["subgroup", "--config", str(spec_path), "--feature", "flag"]) == 0
    dist = (tmp_path / "out" / "subgroup_distances.csv").read_text().splitlines()
    assert dist[0] == "subgroup,n,wasserstein"
    assert len(dist) == 3  # flag=0 and flag=1
    curves = (tmp_path / "out" / "subgroup_curves.csv").read_text().splitlines()
    assert len(curves) == 1 + 2 * 8


def test_subgroup_on_a_real_feature_exits_2(tmp_path, capsys):
    # every synthetic feature is real; this used to write header-only CSVs and exit 0
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1})
    assert main(["train", "--config", str(spec)]) == 0
    capsys.readouterr()
    assert main(["subgroup", "--config", str(spec), "--feature", "x0"]) == 2
    assert capsys.readouterr().err == "config error: feature 'x0' not found or not binary/categorical\n"
    assert not (tmp_path / "out" / "subgroup_distances.csv").exists()


def test_subgroup_quotes_a_categorical_level_with_a_comma(tmp_path):
    rng = np.random.default_rng(1)
    n = 200
    grade = rng.choice(["low", "mid,high"], size=n)
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "grade", "time", "event"])
        for i in range(n):
            writer.writerow([rng.uniform(), grade[i], rng.uniform(1, 30), rng.integers(0, 2)])
    (tmp_path / "schema.json").write_text(json.dumps({"columns": [
        {"name": "x0", "kind": "real", "role": "feature"},
        {"name": "grade", "kind": "categorical", "role": "feature"},
        {"name": "time", "kind": "real", "role": "time"},
        {"name": "event", "kind": "binary", "role": "event"},
    ]}))
    spec = {
        "dataset": {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json"), "n_bins": 6},
        "variants": ["nll"],
        "seeds": [0],
        "model": {"hidden_dim": 8, "depth": 2, "embedding_dim": 4},
        "train": {"epochs": 1, "batch_size": 32, "patience": 3},
        "out": str(tmp_path / "out"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["train", "--config", str(spec_path)]) == 0
    assert main(["subgroup", "--config", str(spec_path), "--feature", "grade"]) == 0
    with open(tmp_path / "out" / "subgroup_distances.csv", newline="") as fh:
        dist = list(csv.reader(fh))
    assert all(len(row) == 3 for row in dist)
    assert [row[0] for row in dist[1:]] == ["grade=low", "grade=mid,high"]
    with open(tmp_path / "out" / "subgroup_curves.csv", newline="") as fh:
        assert all(len(row) == 4 for row in csv.reader(fh))


def test_synth_command_writes_dataset(tmp_path):
    assert main(["synth", "--kind", "paired-exponential", "--n", "50", "--seed", "4",
                 "--truth", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "synth.csv").exists()
    assert (tmp_path / "synth_truth.csv").exists()
    schema = json.loads((tmp_path / "schema.json").read_text())
    assert len(schema["columns"]) == 6


def test_synth_oracle_kind(tmp_path):
    assert main(["synth", "--kind", "discrete-oracle", "--n", "30", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "synth.csv").read_text().splitlines()
    assert len(lines) == 31


def test_margin_study_command(tmp_path, capsys):
    assert main(["margin-study", "--n", "300", "--seed", "1", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "truth_dominates=" in printed
    pairs = (tmp_path / "margin_pairs.csv").read_text().splitlines()
    assert pairs[0] == "anchor_tau,censoring_gap,truth_gap"
    assert len(pairs) > 1


def test_margin_study_bad_size_exits_2(tmp_path, capsys):
    assert main(["margin-study", "--n", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: invalid synthetic config: n_samples must be >= 1\n"


@pytest.mark.parametrize("bins", ["1", "0"])
def test_margin_study_bins_below_2_is_a_config_error(tmp_path, capsys, bins):
    # used to print "data error: n_bins must be >= 2"
    assert main(["margin-study", "--bins", bins, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: margin-study --bins must be >= 2\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["spec", "dataset"])
def test_spec_n_bins_below_2_is_a_config_error(tmp_path, capsys, where):
    # used to print "data error: n_bins must be >= 2" after the data was read
    spec = write_dataset_spec(tmp_path, json.dumps({"columns": GOOD_COLUMNS}))
    raw = json.loads(spec.read_text())
    if where == "spec":
        raw["n_bins"] = 1
    else:
        raw["n_bins"] = None
        raw["dataset"]["n_bins"] = 1
    spec.write_text(json.dumps(raw))
    assert main(["train", "--config", str(spec)]) == 2
    prefix = "dataset." if where == "dataset" else ""
    assert capsys.readouterr().err == f"config error: invalid spec: {prefix}n_bins must be >= 2\n"
    assert not (tmp_path / "out").exists()


def test_synth_truth_needs_paired_kind(tmp_path, capsys):
    assert main(["synth", "--kind", "discrete-oracle", "--n", "30", "--truth", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: --truth needs --kind paired-exponential\n"
    assert not (tmp_path / "o").exists()


def test_written_files_have_lf_line_ends(tmp_path):
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1})
    assert main(["ablate", "--config", str(spec)]) == 0
    assert main(["synth", "--n", "30", "--truth", "--out", str(tmp_path / "out" / "paired")]) == 0
    assert main(["synth", "--kind", "discrete-oracle", "--n", "30", "--out", str(tmp_path / "out" / "oracle")]) == 0
    assert main(["margin-study", "--n", "100", "--out", str(tmp_path / "out" / "margin")]) == 0
    files = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert len(files) == 19  # 4 checkpoints, 4 logs, 4 reports, summary, 3 + 2 synth files, margin pairs
    assert [p for p in files if b"\r" in p.read_bytes()] == []


def test_config_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: cannot read config file {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("below", [False, True], ids=["the-file", "below-it"])
@pytest.mark.parametrize("command", ["evaluate", "synth", "margin-study"])
def test_out_that_is_a_file_exits_2_naming_it(tmp_path, capsys, command, below):
    spec = write_spec(tmp_path, seeds=[0])
    out = spec / "out" if below else spec
    args = {"evaluate": ["--config", str(spec)], "synth": ["--n", "30"], "margin-study": ["--n", "100"]}[command]
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make output directory {out}: ") and err.count("\n") == 1


def test_out_root_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("SURVCONTRAST_OUT", str(tmp_path / "root"))
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1})
    raw = json.loads(spec.read_text())
    raw["out"] = "nested/exp"
    spec.write_text(json.dumps(raw))
    assert main(["train", "--config", str(spec)]) == 0
    assert (tmp_path / "root" / "nested" / "exp" / "checkpoints").exists()


def test_out_root_env_variable_for_synth_and_margin_study(tmp_path, monkeypatch):
    monkeypatch.setenv("SURVCONTRAST_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "30", "--out", "data"]) == 0
    assert main(["margin-study", "--n", "100", "--out", "study"]) == 0
    assert (tmp_path / "root" / "data" / "synth.csv").exists()
    assert (tmp_path / "root" / "study" / "margin_pairs.csv").exists()
    assert not (tmp_path / "data").exists() and not (tmp_path / "study").exists()


def test_spec_seed_override(tmp_path):
    spec = write_spec(tmp_path, train={"epochs": 1})
    assert main(["train", "--config", str(spec), "--seed", "7"]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoints" / "nll_snce_seed7.json").exists()
    assert len(list((out / "checkpoints").glob("*.json"))) == 1


def test_spec_requires_one_data_source(tmp_path, capsys):
    spec = write_spec(tmp_path)
    raw = json.loads(spec.read_text())
    raw["dataset"] = {"csv": "x.csv", "schema": "s.json"}
    spec.write_text(json.dumps(raw))
    assert main(["train", "--config", str(spec)]) == 2


DATASET_SPEC = {key: value for key, value in BASE_SPEC.items() if key != "synthetic"}


@pytest.mark.parametrize("extra", [[], ["--seed", "1"]], ids=["no-override", "seed-override"])
# the three cases whose wording became "<field> must be <domain>" keep the ids they had before
@pytest.mark.parametrize(
    "raw,message",
    [
        ([1, 2], "must be an object at the top level, not list"),
        ("x", "must be an object at the top level, not str"),
        ({**BASE_SPEC, "variants": "nll"}, "'variants' must be a list of strings"),
        ({**BASE_SPEC, "variants": ["nll", 3]}, "'variants' must be a list of strings"),
        ({**BASE_SPEC, "seeds": 0}, "'seeds' must be a list of ints"),
        ({**BASE_SPEC, "seeds": [0, "1"]}, "'seeds' must be a list of ints"),
        ({**BASE_SPEC, "seeds": [True]}, "'seeds' must be a list of ints"),
        pytest.param({**BASE_SPEC, "seeds": []}, "seeds must be a non-empty list of distinct non-negative ints",
                     id="raw7-'seeds' must not be empty"),
        pytest.param({**BASE_SPEC, "variants": []}, "variants must be a non-empty list of names from (",
                     id="raw8-'variants' must not be empty"),
        ({**BASE_SPEC, "out": 5}, "'out' must be a string, not int"),
        ({**BASE_SPEC, "n_bins": "x"}, "'n_bins' must be an int or null"),
        ({**BASE_SPEC, "n_bins": True}, "'n_bins' must be an int or null"),
        ({**BASE_SPEC, "synthetic": [1]}, "'synthetic' must be an object, not list"),
        ({**BASE_SPEC, "model": None}, "'model' must be an object, not NoneType"),
        ({**BASE_SPEC, "train": 5}, "'train' must be an object, not int"),
        ({**DATASET_SPEC, "dataset": "x"}, "'dataset' must be an object, not str"),
        ({**DATASET_SPEC, "dataset": {"csv": "d.csv", "schema": "s.json", "n_bins": "x"}},
         "'dataset.n_bins' must be an int or null"),
        ({**DATASET_SPEC, "dataset": {"csv": 0, "schema": "s.json"}}, "'dataset.csv' must be a string, not int"),
        ({**DATASET_SPEC, "dataset": {"csv": 1.5, "schema": "s.json"}}, "'dataset.csv' must be a string, not float"),
        ({**DATASET_SPEC, "dataset": {"csv": ["d.csv"], "schema": "s.json"}}, "'dataset.csv' must be a string, not list"),
        ({**DATASET_SPEC, "dataset": {"csv": "d.csv", "schema": 0}}, "'dataset.schema' must be a string, not int"),
        ({**DATASET_SPEC, "dataset": {"csv": "d.csv", "schema": 1.5}}, "'dataset.schema' must be a string, not float"),
        ({**DATASET_SPEC, "dataset": {"csv": "d.csv", "schema": ["s.json"]}},
         "'dataset.schema' must be a string, not list"),
        ({**DATASET_SPEC, "dataset": {"csv": "d.csv", "schema": "s.json", "bins": 8}},
         "unexpected keyword argument 'bins'"),
        pytest.param({**BASE_SPEC, "seeds": [0, -1]}, "seeds must be a non-empty list of distinct non-negative ints",
                     id="raw24-seeds must be non-negative"),
    ],
)
def test_malformed_spec_shape_exits_2(tmp_path, capsys, raw, message, extra):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    assert main(["evaluate", "--config", str(spec), *extra]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0]


@pytest.mark.parametrize(
    "changes",
    [
        {"model": {"depth": 0}},
        {"model": {"hidden_dim": 0}},
        {"model": {"activation": "tanh"}},
        {"model": {"hidden_dim": 2.5}},
        {"train": {"epochs": 1.5}},
        {"train": {"batch_size": 2.5}},
        {"train": {"ranking_kappa": 0}, "variants": ["nll+rank"]},
        {"train": {"alpha_percentile": 150}},
        {"train": {"sigma": float("nan")}},
        {"train": {"beta": float("nan")}},
        {"train": {"alpha": float("nan")}},
        {"synthetic": {"feature_dim": 4.5}},
        {"train": {"seed": 1}},
        {"synthetic": {"kind": "discrete_oracle", "feature_dim": -1}},
        {"synthetic": {"kind": "discrete_oracle", "feature_dim": 0}},
        {"synthetic": {"censor_rate": -1}},
        {"synthetic": {"censor_rate": 2}},
        {"synthetic": {"kind": "discrete_oracle", "n_bins": 0}},
        {"synthetic": {"kind": "discrete_oracle", "n_bins": 1}},
    ],
    ids=lambda changes: json.dumps(changes),
)
def test_bad_config_value_exits_2_without_traceback(tmp_path, capsys, changes):
    spec = write_spec(tmp_path, seeds=[0], **changes)
    assert main(["train", "--config", str(spec)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert captured.out == ""


@pytest.mark.parametrize("name", ["projection_depth", "embedding_dim"])
def test_model_fault_names_the_spec_field(tmp_path, capsys, name):
    # used to name a field of the network built from it: "depth" or "output_dim"
    spec = write_spec(tmp_path, seeds=[0], model={name: 0})
    assert main(["train", "--config", str(spec)]) == 2
    assert capsys.readouterr().err == f"config error: invalid model config: {name} must be >= 1\n"


@pytest.mark.parametrize(
    "change,code,err",
    [
        ({"hazard_slope": -800}, 0, ""),
        ({"feature_scale": 1e300}, 0, ""),
        ({"feature_scale": -1e300}, 0, ""),
        # every hazard 0: each row is censored at the last bin, so all times are equal
        ({"hazard_intercept": -1e300}, 2, "data error: degenerate grid: all raw times identical\n"),
    ],
    ids=["hazard_slope=-800", "feature_scale=1e300", "feature_scale=-1e300", "hazard_intercept=-1e300"],
)
def test_saturated_oracle_hazard_is_zero_without_a_warning(tmp_path, capsys, change, code, err):
    # exp(-logits) overflows to inf, which gives the hazard's exact limit, 0, with no RuntimeWarning to fail on
    spec = write_spec(tmp_path, seeds=[0], train={"epochs": 1}, synthetic={"kind": "discrete_oracle", **change})
    assert main(["train", "--config", str(spec)]) == code
    assert capsys.readouterr().err == err


def write_dataset_spec(tmp_path, schema_text, dataset_keys=("csv", "schema")):
    (tmp_path / "data.csv").write_text("x0,time,event\n0.5,3.0,1\n0.2,5.0,0\n")
    (tmp_path / "schema.json").write_text(schema_text)
    paths = {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")}
    spec = write_spec(tmp_path, seeds=[0])
    raw = json.loads(spec.read_text())
    del raw["synthetic"]
    raw["dataset"] = {key: paths[key] for key in dataset_keys}
    spec.write_text(json.dumps(raw))
    return spec


GOOD_COLUMNS = [
    {"name": "x0", "kind": "real"},
    {"name": "time", "kind": "real", "role": "time"},
    {"name": "event", "kind": "binary", "role": "event"},
]


@pytest.mark.parametrize(
    "schema_text",
    [
        json.dumps({"columns": [{**GOOD_COLUMNS[0], "extra": 1}, *GOOD_COLUMNS[1:]]}),
        "{not json",
        json.dumps({"fields": GOOD_COLUMNS}),
        json.dumps({"columns": [{**GOOD_COLUMNS[0], "role": "featuer"}, *GOOD_COLUMNS[1:]]}),
        json.dumps({"columns": [{**GOOD_COLUMNS[0], "name": 0}, *GOOD_COLUMNS[1:]]}),
    ],
    ids=["unknown-column-key", "not-json", "no-columns", "misspelt-role", "non-string-name"],
)
def test_malformed_schema_exits_2_naming_the_schema(tmp_path, capsys, schema_text):
    spec = write_dataset_spec(tmp_path, schema_text)
    assert main(["train", "--config", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: schema ")
    assert str(tmp_path / "schema.json") in err[0]
    assert "dataset spec" not in err[0]


def test_dataset_spec_without_csv_blames_the_spec(tmp_path, capsys):
    spec = write_dataset_spec(tmp_path, json.dumps({"columns": GOOD_COLUMNS}), dataset_keys=("schema",))
    assert main(["train", "--config", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: invalid spec: ")
    assert err[0].endswith("missing 1 required positional argument: 'csv'")


def write_cohort_csv(path, n=200, bad_cell=None):
    """A clean n-row cohort (real x0, binary x1), with ``bad_cell`` = (row
    index, column, text) overwriting one cell."""
    rng = np.random.default_rng(5)
    rows = [{"x0": repr(float(rng.normal())), "x1": str(rng.integers(0, 2)),
             "time": repr(float(rng.integers(1, 30))), "event": str(rng.integers(0, 2))} for _ in range(n)]
    if bad_cell is not None:
        index, column, text = bad_cell
        rows[index][column] = text
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, ["x0", "x1", "time", "event"])
        writer.writeheader()
        writer.writerows(rows)


COHORT_COLUMNS = [{"name": "x0", "kind": "real"}, {"name": "x1", "kind": "binary"}, *GOOD_COLUMNS[1:]]


@pytest.mark.parametrize(
    ("bad_cell", "message"),
    [
        ((7, "time", "nan"), "row 9: missing time or event value"),
        ((7, "time", "inf"), "row 9: value 'inf' in 'time' is not finite"),
        ((7, "x0", "inf"), "row 9: value 'inf' in 'x0' is not finite"),
    ],
    ids=["nan-time", "inf-time", "inf-feature"],
)
def test_non_finite_cell_exits_2_naming_its_row(tmp_path, capsys, bad_cell, message):
    # these trained (exit 0, or 3 blaming divergence) and failed later, far from the cause
    spec = write_dataset_spec(tmp_path, json.dumps({"columns": COHORT_COLUMNS}))
    write_cohort_csv(tmp_path / "data.csv", bad_cell=bad_cell)
    assert main(["train", "--config", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {message}"]
    assert not (tmp_path / "out" / "checkpoints").exists()


def test_cohort_csv_trains_and_evaluates(tmp_path):
    spec = write_dataset_spec(tmp_path, json.dumps({"columns": COHORT_COLUMNS}))
    write_cohort_csv(tmp_path / "data.csv")
    assert main(["train", "--config", str(spec)]) == 0
    assert main(["evaluate", "--config", str(spec)]) == 0


FUZZ_CELLS = {
    "finite": st.one_of(st.integers(-5, 40).map(str), st.floats(allow_nan=False, allow_infinity=False).map(repr)),
    "non-finite": st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e999"]),
    "non-numeric": st.sampled_from(["abc", "1,5", " ", "0x1", "--1"]),
    "empty": st.just(""),
}
# the cells each column draws when it is clean; a faulty column draws from every FUZZ_CELLS kind
CLEAN_CELLS = {
    "time": st.integers(0, 40).map(str),
    "event": st.sampled_from(["0", "1", "0.0", "1.0"]),
    "real": st.one_of(FUZZ_CELLS["finite"], FUZZ_CELLS["empty"]),
    "binary": st.sampled_from(["0", "1", ""]),
    "categorical": st.sampled_from(["a", "b c", "", '"q"']),
}
FAILURE_LINE = re.compile(r"(config|data|shape|runtime|metric) error: ")


@st.composite
def fuzz_experiments(draw):
    """(csv text, schema, spec) of a tiny experiment whose cells, columns and
    row lengths may each be faulty."""
    kinds = draw(st.lists(st.sampled_from(["real", "binary", "categorical"]), max_size=3))
    columns = [("time", "time"), ("event", "event"), *((f"f{i}", kind) for i, kind in enumerate(kinds))]
    n = draw(st.integers(1, 40))
    cells = {}
    for name, kind in columns:
        clean = draw(st.integers(0, 3)) > 0
        any_cell = st.one_of(*FUZZ_CELLS.values(), CLEAN_CELLS[kind])
        cells[name] = draw(st.lists(CLEAN_CELLS[kind] if clean else any_cell, min_size=n, max_size=n))
    header = [name for name, _ in columns]
    if draw(st.integers(0, 5)) == 0:  # a schema column missing from the header
        header.remove(draw(st.sampled_from(header)))
    if draw(st.booleans()):  # a column the schema does not name
        header.append("extra")
    rows = []
    for i in range(n):
        row = [cells[name][i] if name in cells else "7" for name in header]
        if draw(st.integers(0, 7)) == 0:  # a row shorter or longer than the header
            row = row[: draw(st.integers(1, len(row)))] if draw(st.booleans()) else [*row, "spare"]
        rows.append(row)
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    schema = {"columns": [{"name": name, "kind": "real" if kind == "time" else "binary" if kind == "event" else kind,
                           "role": kind if kind in ("time", "event") else "feature"} for name, kind in columns]}
    spec = {
        "variants": [draw(st.sampled_from(VARIANTS))],
        "seeds": [draw(st.integers(0, 3))],
        "model": {"hidden_dim": 4, "depth": 2, "embedding_dim": 2},
        "train": {"epochs": 1, "batch_size": draw(st.integers(2, 16)), "patience": 1},
        "n_bins": draw(st.sampled_from([None, 2, 5])),
    }
    return text.getvalue(), schema, spec


@settings(max_examples=150, deadline=None)
@given(fuzz_experiments())
def test_cli_on_fuzzed_csvs_fails_only_in_documented_ways(experiment):
    csv_text, schema, spec = experiment
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "data.csv").write_text(csv_text)
        (root / "schema.json").write_text(json.dumps(schema))
        spec = {**spec, "dataset": {"csv": str(root / "data.csv"), "schema": str(root / "schema.json")},
                "out": str(root / "out")}
        (root / "spec.json").write_text(json.dumps(spec))
        for command in ("train", "evaluate"):
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code = main([command, "--config", str(root / "spec.json")])
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            if code != 0:
                lines = err.getvalue().splitlines()
                assert FAILURE_LINE.match(lines[-1])
                assert not any(FAILURE_LINE.match(line) for line in lines[:-1])
                break


def _non_utf8_csv(tmp_path, spec):
    (tmp_path / "data.csv").write_bytes(b"x0,time,event\n0.5,3.0,1\n\xff\xfe,5.0,0\n")
    return tmp_path / "data.csv"


def _dataset_path_is_a_directory(key):
    def point(tmp_path, spec):
        (tmp_path / "folder").mkdir()
        raw = json.loads(spec.read_text())
        raw["dataset"][key] = str(tmp_path / "folder")
        spec.write_text(json.dumps(raw))
        return tmp_path / "folder"

    return point


# a file that opens but does not decode is a data fault; one that does not open is a config fault
@pytest.mark.parametrize(
    ("break_file", "kind"),
    [(_non_utf8_csv, "data"), (_dataset_path_is_a_directory("csv"), "config"),
     (_dataset_path_is_a_directory("schema"), "config")],
    ids=["csv-not-utf8", "csv-is-a-directory", "schema-is-a-directory"],
)
def test_unreadable_dataset_file_exits_2_naming_it(tmp_path, capsys, break_file, kind):
    spec = write_dataset_spec(tmp_path, json.dumps({"columns": GOOD_COLUMNS}))
    path = break_file(tmp_path, spec)
    assert main(["train", "--config", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{kind} error: ") and str(path) in err[0]


def test_toml_spec(tmp_path):
    toml = f"""
variants = ["nll"]
seeds = [0]
n_bins = 8
out = "{tmp_path / 'out_toml'}"

[synthetic]
kind = "paired_exponential"
n_samples = 120
seed = 2

[model]
hidden_dim = 8
depth = 2
embedding_dim = 4

[train]
epochs = 1
batch_size = 32
patience = 3
"""
    path = tmp_path / "spec.toml"
    path.write_text(toml)
    assert main(["train", "--config", str(path)]) == 0
    assert (tmp_path / "out_toml" / "checkpoints" / "nll_seed0.json").exists()


def test_toml_spec_without_a_toml_parser_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "tomllib", None)
    path = tmp_path / "spec.toml"
    path.write_text('variants = ["nll"]\n')
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: TOML specs need python >= 3.11 or the tomli package; use JSON instead"]


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--seed", "-1"],
        ["synth", "--seed", "-1", "--n", "30"],
        ["margin-study", "--seed", "-1", "--n", "30"],
    ],
    ids=["train-flag", "synth", "margin-study"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    config = ["--config", str(write_spec(tmp_path))] if argv[0] == "train" else []
    assert main([*argv, *config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "non-negative" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("features", ["-1", "0"])
def test_synth_without_features_exits_2(tmp_path, capsys, features):
    argv = ["synth", "--kind", "discrete-oracle", "--features", features, "--n", "30"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: invalid synthetic config: feature_dim must be >= 1"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_samples", [2, 3])
def test_empty_validation_split_exits_2_naming_the_split_sizes(tmp_path, capsys, n_samples):
    spec = write_spec(tmp_path, synthetic={"n_samples": n_samples}, seeds=[0])
    assert main(["train", "--config", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: the validation split is empty")
    assert f"sizes ({n_samples - 1}, 1, 0)" in err[0]


# one value of each JSON type; the list holds a null, which no list field admits
JSON_SAMPLES = {"null": None, "bool": True, "int": 3, "float": 2.5, "str": "x", "list": [None], "object": {"x": 1}}
# the JSON types of JSON_SAMPLES that each field annotation admits
ADMITTED = {
    "int": {"int"},
    "int | None": {"int", "null"},
    "float": {"int", "float"},
    "float | None": {"int", "float", "null"},
    "str": {"str"},
    "list[int]": set(),
    "list[str]": set(),
    "dict": {"object"},
    "dict | None": {"object", "null"},
}
SPEC_SECTIONS = [
    (cli.ExperimentSpec, None),
    (cli.DatasetSpec, "dataset"),
    (TrainConfig, "train"),
    (ModelConfig, "model"),
    (SynthConfig, "synthetic"),
]


def rejected_field_values():
    for cls, section in SPEC_SECTIONS:
        for f in dataclasses.fields(cls):
            for kind, value in JSON_SAMPLES.items():
                if kind not in ADMITTED[f.type]:
                    yield pytest.param(section, f.name, value, id=f"{section or 'spec'}.{f.name}={kind}")


@pytest.mark.parametrize("section,name,value", rejected_field_values())
def test_spec_field_of_a_rejected_json_type_exits_2(tmp_path, capsys, section, name, value):
    # the derived fields (train.seed, model.input_dim, model.n_time_bins) are
    # rejected whatever their type
    spec = json.loads(json.dumps({**BASE_SPEC, "seeds": [0], "out": str(tmp_path / "out")}))
    if section == "dataset":
        spec["dataset"] = {"csv": "d.csv", "schema": "s.json"}
        del spec["synthetic"]
    (spec if section is None else spec[section])[name] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["train", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    quoted = f"'dataset.{name}'" if section == "dataset" else f"'{name}'"
    assert len(err) == 1 and err[0].startswith("config error: ") and quoted in err[0]
    assert captured.out == ""


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_specs_load(tmp_path):
    text = README.read_text()
    spec = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    dataset = json.loads("{" + re.search(r'`("dataset": \{.*?\})`', text, re.S).group(1) + "}")
    dataset_spec = {**{key: value for key, value in spec.items() if key != "synthetic"}, **dataset}
    for i, raw in enumerate([spec, dataset_spec]):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(raw))
        assert isinstance(cli.load_spec(path), cli.ExperimentSpec)


def test_readme_commands_parse():
    parser = cli.build_parser()
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("survcontrast ")]
    assert len(lines) >= 8
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.command == shlex.split(line)[1]
