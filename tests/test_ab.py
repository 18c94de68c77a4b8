import importlib.util
import subprocess
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
