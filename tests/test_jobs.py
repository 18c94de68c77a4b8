"""The job runner of ``train``, ``ablate`` and ``sweep`` (``cli.run_all``):
outputs independent of the worker count, failures reported in (variant,
seed) order, the worker count capped by CPUs, runs and memory before any
worker starts, and no worker left running on any exit path."""

import concurrent.futures
import multiprocessing
import os
import signal
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from survcontrast import cli, metrics
from survcontrast.cli import main
from survcontrast.trainer import TrainingDiverged, TrainLog
from test_cli import write_spec

TWO_BY_TWO = dict(variants=["nll", "nll+snce"], seeds=[0, 1], train={"epochs": 2})


def use_cpus(monkeypatch, cpus: int, memory: int = 1 << 40) -> None:
    """``cpus`` usable CPUs and ``memory`` available bytes, whatever the host has."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "available_memory", lambda: memory)


@pytest.fixture
def two_cpus(monkeypatch):
    use_cpus(monkeypatch, 2)


@pytest.fixture(params=[1, 2], ids=["serial", "pool"])
def cpus(request, monkeypatch):
    use_cpus(monkeypatch, request.param)
    return request.param


@pytest.fixture
def no_children():
    yield
    assert multiprocessing.active_children() == []


def outputs(out: Path) -> dict[str, bytes]:
    """Criterion 7's digest (every CSV and report) plus the checkpoints."""
    files = sorted(out.rglob("*.csv")) + sorted((out / "reports").glob("*.json"))
    files += sorted(out.rglob("checkpoints/*.json"))
    return {str(f.relative_to(out)): f.read_bytes() for f in files}


def test_train_and_evaluate_outputs_do_not_depend_on_workers(tmp_path, capsys, monkeypatch, no_children):
    spec = str(write_spec(tmp_path, **TWO_BY_TWO))
    digests, stdouts = [], []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = str(tmp_path / f"cpus{cpus}")
        assert main(["train", "--config", spec, "--out", out]) == 0
        assert main(["evaluate", "--config", spec, "--out", out]) == 0
        digests.append(outputs(Path(out)))
        stdouts.append(capsys.readouterr().out)
    assert digests[0] == digests[1] and len(digests[0]) == 13  # 4 logs, 4 reports, 4 checkpoints, the summary
    assert stdouts[0] == stdouts[1]
    trained = [f"trained {run}\n" for run in ("nll_seed0", "nll_seed1", "nll_snce_seed0", "nll_snce_seed1")]
    assert stdouts[0].startswith("".join(trained))


def test_sweep_outputs_do_not_depend_on_workers(tmp_path, capsys, monkeypatch, no_children):
    spec = str(write_spec(tmp_path, seeds=[0, 1], train={"epochs": 1}))
    digests, stdouts = [], []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = str(tmp_path / f"cpus{cpus}")
        command = ["sweep", "--config", spec, "--out", out, "--param", "beta", "--values", "0,1"]
        assert main(command) == 0
        digests.append(outputs(Path(out)))
        stdouts.append(capsys.readouterr().out)
    assert digests[0] == digests[1] and "sweep.csv" in digests[0] and len(digests[0]) == 9
    assert stdouts[0] == stdouts[1] and stdouts[0].startswith("beta=0: ci=")


def fake_train(failures: dict):
    """``cli.train`` without training: the runs in ``failures`` raise their exception."""

    def train(data, model, config, variant):
        if (variant, config.seed) in failures:
            raise failures[variant, config.seed]
        return model, TrainLog(variant, 0.0)

    return train


def test_first_failing_run_in_order_is_reported(tmp_path, capsys, monkeypatch, cpus, no_children):
    # the pool starts nll+snce first, so its failure comes first in time; the
    # serial loop would stop at nll seed 1, and so must the pool
    failure = TrainingDiverged("non-finite likelihood loss at epoch 0, batch 0")
    monkeypatch.setattr(cli, "train", fake_train({("nll", 1): failure, ("nll+snce", 0): failure}))
    spec = write_spec(tmp_path, **TWO_BY_TWO)
    assert main(["train", "--config", str(spec)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "trained nll_seed0\n"
    assert captured.err == "runtime error: nll_seed1: non-finite likelihood loss at epoch 0, batch 0\n"
    assert (tmp_path / "out" / "checkpoints" / "nll_seed0.json").exists()


def test_memory_error_in_a_run_names_it_and_exits_2(tmp_path, capsys, monkeypatch, cpus, no_children):
    try:  # the error numpy raises for an allocation it cannot make, built without allocating
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    exhausted = _ArrayMemoryError((10**6, 10**6), np.dtype(np.float64))
    monkeypatch.setattr(cli, "train", fake_train({("nll+snce", 1): exhausted}))
    spec = write_spec(tmp_path, **TWO_BY_TWO)
    assert main(["train", "--config", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err == f"memory error: nll_snce_seed1: {exhausted}\n" and "Unable to allocate 7.28 TiB" in err


def test_config_error_exits_2_before_any_worker_starts(tmp_path, capsys, two_cpus, no_children, recorded_pools):
    # the train config is checked once, before the output directory is made and any
    # run starts; it used to be checked per run, in a worker
    spec = write_spec(tmp_path, **dict(TWO_BY_TWO, train={"alpha": -1.0}))
    assert main(["train", "--config", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: invalid train config: alpha must be non-negative\n"
    assert recorded_pools == [] and not (tmp_path / "out").exists()


def test_metric_error_in_a_sweep_worker_names_its_run(tmp_path, capsys, monkeypatch, two_cpus, no_children):
    def undefined(hazards, taus, deltas):
        raise metrics.MetricError("no event on the test split")

    monkeypatch.setattr(cli, "train", fake_train({}))
    monkeypatch.setattr(metrics, "evaluate_hazards", undefined)
    spec = write_spec(tmp_path, seeds=[0, 1])
    assert main(["sweep", "--config", str(spec), "--param", "beta", "--values", "0.5,1"]) == 4
    assert capsys.readouterr().err == "metric error: beta_0.5/nll_snce_seed0: no event on the test split\n"


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records the pool's size and the
    jobs in the order they are submitted, and starts no process."""

    made: list["RecordingPool"] = []

    def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.submitted = []
        RecordingPool.made.append(self)

    def submit(self, fn, *job):
        self.submitted.append(job)
        future = Future()
        future.set_result(None)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def recorded_pools(monkeypatch):
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.made


def test_workers_are_capped_at_runs_and_memory(tmp_path, monkeypatch, recorded_pools):
    spec = str(write_spec(tmp_path, variants=["nll", "nll+rank", "nll+snce"], seeds=[0, 1]))
    use_cpus(monkeypatch, 64)
    assert main(["train", "--config", spec]) == 0  # one worker per run at most
    budget = cli.run_bytes(cli.open_experiment(cli.build_parser().parse_args(["train", "--config", spec]))[2])
    use_cpus(monkeypatch, 64, memory=3 * budget + budget // 2)
    assert main(["train", "--config", spec]) == 0  # as many as the available memory holds
    assert [pool.max_workers for pool in recorded_pools] == [6, 3]
    # the longest runs first: contrastive, then ranking, then likelihood only
    assert recorded_pools[0].submitted == [("nll+snce", 0), ("nll+snce", 1), ("nll+rank", 0), ("nll+rank", 1),
                                           ("nll", 0), ("nll", 1)]


def test_run_budget_grows_with_the_square_of_the_validation_split(tmp_path):
    args = cli.build_parser().parse_args(["train", "--config", str(write_spec(tmp_path))])
    prepared = cli.open_experiment(args)[2]
    val = max(data.split.validation.size for data in prepared.values())
    assert val > 0 and cli.run_bytes(prepared) == cli.RUN_BASE_BYTES + cli.VAL_PAIR_BYTES * val**2


@pytest.mark.parametrize("cpus,memory,seeds", [(1, 1 << 40, [0, 1]), (4, 1, [0, 1]), (4, 1 << 40, [0])])
def test_one_worker_starts_no_pool(tmp_path, monkeypatch, recorded_pools, cpus, memory, seeds):
    use_cpus(monkeypatch, cpus, memory)
    spec = write_spec(tmp_path, seeds=seeds, train={"epochs": 1})
    assert main(["train", "--config", str(spec)]) == 0
    assert recorded_pools == []
    assert len(list((tmp_path / "out" / "checkpoints").glob("*.json"))) == len(seeds)


@pytest.mark.parametrize("libraries", [set(), {"/usr/lib/libmkl_rt.so.2"}, {"/usr/lib/libopenblas.so.0 (deleted)"}])
def test_no_openblas_to_pin_starts_no_pool(tmp_path, monkeypatch, recorded_pools, two_cpus, libraries):
    # unpinned workers would each run a multithreaded BLAS, slower than one run at a time
    monkeypatch.setattr(cli, "loaded_libraries", lambda: libraries)
    assert cli.blas_thread_setters() == []
    assert main(["train", "--config", str(write_spec(tmp_path, **TWO_BY_TWO))]) == 0
    assert recorded_pools == []


@pytest.mark.parametrize("files,cpus", [
    ({"cpu.max": "150000 100000"}, 1),  # v2: 1.5 CPUs' time
    ({"cpu.max": "max 100000", "cpu/cpu.cfs_quota_us": "300000", "cpu/cpu.cfs_period_us": "100000"}, 3),  # v1
    ({"cpu.max": "max 100000", "cpu/cpu.cfs_quota_us": "-1", "cpu/cpu.cfs_period_us": "100000"}, 8),  # no quota
    ({}, 8),
])
def test_usable_cpus_follow_a_cgroup_quota(tmp_path, monkeypatch, files, cpus):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text + "\n")
    monkeypatch.setattr(cli, "CGROUP", tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert cli.usable_cpus() == cpus


def test_available_memory_is_lowered_to_a_cgroup_limit(tmp_path, monkeypatch):
    (tmp_path / "memory.max").write_text("3000000\n")
    (tmp_path / "memory.current").write_text("1000000\n")
    monkeypatch.setattr(cli, "CGROUP", tmp_path)
    assert cli.available_memory() == 2000000
    (tmp_path / "memory.max").write_text("max\n")
    assert cli.available_memory() > 2000000


def test_a_killed_worker_is_a_memory_error(tmp_path, capsys, monkeypatch, two_cpus, no_children):
    parent = os.getpid()

    def killed(data, model, config, variant):
        if os.getpid() != parent and variant == "nll+snce":  # as the kernel's out-of-memory killer would
            os.kill(os.getpid(), signal.SIGKILL)
        return model, TrainLog(variant, 0.0)

    monkeypatch.setattr(cli, "train", killed)
    assert main(["train", "--config", str(write_spec(tmp_path, **TWO_BY_TWO))]) == 2
    assert capsys.readouterr().err.startswith("memory error: a worker process was killed while training")


def test_no_worker_outlives_an_interrupt_while_waiting(tmp_path, monkeypatch, two_cpus, no_children):
    def interrupted(self, timeout=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(Future, "result", interrupted)
    spec = write_spec(tmp_path, **TWO_BY_TWO)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", str(spec)])
