import importlib.util
import json
import subprocess
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

# a stand-in package: its CLI writes one file under --out and prints the path
CLI = '''import os, sys
from pathlib import Path

out = Path(os.environ["SURVCONTRAST_OUT"]) / sys.argv[sys.argv.index("--out") + 1]
out.mkdir(parents=True)
(out / "result.txt").write_text("value 1\\n")
print(f"wrote {out}")
'''


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com", *args], cwd=repo, check=True,
                   capture_output=True)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A throwaway git repository holding the stand-in package, committed once."""
    package = tmp_path / "repo" / "src" / "survcontrast"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(CLI)
    git(tmp_path / "repo", "init", "-q")
    git(tmp_path / "repo", "add", "-A")
    git(tmp_path / "repo", "commit", "-q", "-m", "stand-in")
    monkeypatch.chdir(tmp_path / "repo")
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(ab.tempfile, "tempdir", str(tmp_path / "tmp"))  # where the export goes
    return tmp_path / "repo"


def left_behind(repo):
    return list((repo.parent / "tmp").iterdir())


def test_unchanged_tree_reports_equal(repo, capsys):
    assert ab.main(["--outputs", "HEAD", "--", "run", "--out", "res"]) == 0
    assert capsys.readouterr().out.startswith("equal: 1 files")
    assert left_behind(repo) == []


def test_one_byte_change_reports_its_file(repo, capsys):
    cli = repo / "src" / "survcontrast" / "cli.py"
    cli.write_text(cli.read_text().replace("value 1", "value 2"))
    assert ab.main(["--outputs", "HEAD", "--", "run", "--out", "res"]) == 1
    assert capsys.readouterr().out == "differs: res/result.txt\n"
    assert left_behind(repo) == []


def test_a_changed_stdout_is_reported(repo, capsys):
    cli = repo / "src" / "survcontrast" / "cli.py"
    cli.write_text(cli.read_text().replace('f"wrote', 'f"made'))
    assert ab.main(["--outputs", "HEAD", "--", "run", "--out", "res"]) == 1
    assert capsys.readouterr().out == "differs: stdout\n"


def test_absolute_out_is_rejected(repo, capsys):
    assert ab.main(["--outputs", "HEAD", "--", "run", "--out", str(repo / "res")]) == 2
    assert "is absolute" in capsys.readouterr().err
    assert not (repo / "res").exists()


def test_a_failing_run_exits_2_and_removes_the_export(repo, capsys):
    cli = repo / "src" / "survcontrast" / "cli.py"
    cli.write_text("raise SystemExit('config error: bad')\n")
    assert ab.main(["--outputs", "HEAD", "--", "run", "--out", "res"]) == 2
    assert "exited 1: config error: bad" in capsys.readouterr().err
    assert left_behind(repo) == []


# a stand-in benchmark: its wall_s is the number in its tree's speed.txt; it
# logs that number to $AB_BENCH_LOG and leaves a sleeping child behind
BENCH = '''import json, os, subprocess, sys
from pathlib import Path

tree = Path(__file__).resolve().parent.parent
speed = float((tree / "speed.txt").read_text())
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
with open(os.environ["AB_BENCH_LOG"], "a") as fh:
    fh.write(f"{speed:g} {child.pid} {' '.join(sys.argv[1:])}\\n")
metrics = {"wall_s": {"value": speed, "unit": "s"}, "ok_frac": {"value": 1.0, "unit": "frac"}}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
'''
BENCHMARK = {"end_to_end": [{"name": "wall_s", "better": "lower"}, {"name": "ok_frac", "better": "higher"}]}


@pytest.fixture
def bench_repo(repo, monkeypatch):
    """The throwaway repository with a stand-in ``perfbench/run.py``, committed
    at speed 2; the working tree is then changed to speed 1."""
    (repo / "perfbench").mkdir()
    (repo / "perfbench" / "run.py").write_text(BENCH)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "speed.txt").write_text("2\n")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "bench")
    (repo / "speed.txt").write_text("1\n")
    monkeypatch.setenv("AB_BENCH_LOG", str(repo.parent / "bench.log"))
    return repo


def alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie that has not been reaped counts as ended)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def test_bench_alternates_sides_and_reports_each_metric(bench_repo, capsys):
    assert ab.main(["--bench", "HEAD", "--workload", "w", "--pairs", "3", "--seconds", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:6] == ["pair 1 rev: failed 0/1 wall_s=2 ok_frac=1", "pair 1 work: failed 0/1 wall_s=1 ok_frac=1",
                       "pair 2 work: failed 0/1 wall_s=1 ok_frac=1", "pair 2 rev: failed 0/1 wall_s=2 ok_frac=1",
                       "pair 3 rev: failed 0/1 wall_s=2 ok_frac=1", "pair 3 work: failed 0/1 wall_s=1 ok_frac=1"]
    assert out[7] == "wall_s (lower is better): rev 2 [2, 2], work 1 [1, 1], work better in 3/3, sign-test p=0.25"
    assert out[8] == "ok_frac (higher is better): rev 1 [1, 1], work 1 [1, 1], work better in 0/3, sign-test p=1"
    logged = [line.split() for line in (bench_repo.parent / "bench.log").read_text().splitlines()]
    assert [line[0] for line in logged] == ["2", "1", "1", "2", "2", "1"]
    assert all(line[2:] == ["--workload", "w", "--seconds", "0.5"] for line in logged)
    assert left_behind(bench_repo) == []
    # each run's process group is killed when the run ends, its sleeping child too
    deadline = time.monotonic() + 10
    while any(alive(int(line[1])) for line in logged) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(alive(int(line[1])) for line in logged)


def test_bench_run_that_cannot_run_exits_2_and_removes_the_export(bench_repo, capsys):
    (bench_repo / "perfbench" / "run.py").write_text("raise SystemExit(2)\n")
    assert ab.main(["--bench", "HEAD", "--workload", "w", "--pairs", "2"]) == 2
    assert "run.py exited 2" in capsys.readouterr().err
    assert left_behind(bench_repo) == []


def test_sign_test_is_two_sided():
    assert ab.sign_test(6, 0) == ab.sign_test(0, 6) == 2 / 64
    assert ab.sign_test(0, 0) == 1.0
    assert ab.sign_test(5, 1) == pytest.approx(2 * 7 / 64)
