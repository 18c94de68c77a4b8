"""Check that a survcontrast command writes the same bytes at a git revision
as in the working tree.

    python tools/ab.py --outputs REV -- <survcontrast args>

Run from inside the repository. REV is exported with ``git archive`` into a
temporary directory (no worktree, nothing written under ``.git``), which is
removed on every exit path. ``python -m survcontrast.cli <args>`` then runs
twice, one run after the other and from the current directory: first
against the exported tree's ``src/``, then against the working tree's. Each
run gets a fresh ``$SURVCONTRAST_OUT`` at the same path, moved aside when
the run ends, so relative outputs land apart and any printed output path
reads the same in both. An absolute ``--out`` would put both runs' outputs
in one place, so it is rejected; so is a run that writes nothing under
``$SURVCONTRAST_OUT``, as a spec with an absolute ``out`` does.

The two output trees and the two standard outputs are compared byte by
byte. Prints ``equal`` with the file count and exits 0, or prints the first
differing path (``stdout`` for the standard output) and exits 1. Exits 2
when a run fails or the arguments are unusable. Uses only the standard
library.
"""

from __future__ import annotations

import argparse
import io
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

OUT_ROOT_ENV = "SURVCONTRAST_OUT"


class Unusable(Exception):
    """A run or an argument that leaves nothing to compare."""


def repo_root() -> Path:
    done = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True)
    if done.returncode:
        raise Unusable(f"not inside a git repository: {done.stderr.strip()}")
    return Path(done.stdout.strip())


def export(root: Path, rev: str, into: Path) -> None:
    """Write the files of ``rev`` under ``into``."""
    done = subprocess.run(["git", "archive", "--format=tar", rev], capture_output=True, cwd=root)
    if done.returncode:
        raise Unusable(f"git archive {rev}: {done.stderr.decode(errors='replace').strip()}")
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(into, **safe)


def out_flags(command: list[str]) -> list[str]:
    """The values given to ``--out`` in ``command``."""
    values = [value for flag, value in zip(command, command[1:]) if flag == "--out"]
    return values + [arg.split("=", 1)[1] for arg in command if arg.startswith("--out=")]


def run(src: Path, command: list[str], out_root: Path, keep: Path) -> bytes:
    """Run the CLI of the package in ``src`` and move its output root to
    ``keep``; returns the run's standard output."""
    env = dict(os.environ, **{OUT_ROOT_ENV: str(out_root)})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out_root.mkdir()
    done = subprocess.run([sys.executable, "-m", "survcontrast.cli", *command], capture_output=True, env=env)
    if done.returncode:
        raise Unusable(f"the run against {src} exited {done.returncode}: "
                       f"{done.stderr.decode(errors='replace').strip()}")
    if not any(path.is_file() for path in out_root.rglob("*")):
        raise Unusable(f"the run against {src} wrote nothing under ${OUT_ROOT_ENV}; "
                       "is its output directory an absolute path?")
    out_root.rename(keep)
    return done.stdout


def files(tree: Path) -> dict[str, Path]:
    return {path.relative_to(tree).as_posix(): path for path in tree.rglob("*") if path.is_file()}


def first_difference(a: Path, b: Path, stdout_a: bytes, stdout_b: bytes) -> str | None:
    """The first path, in sorted order, that one tree lacks or that differs
    in bytes; ``stdout`` when only the standard outputs differ; None if equal."""
    files_a, files_b = files(a), files(b)
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b or files_a[name].read_bytes() != files_b[name].read_bytes():
            return name
    return None if stdout_a == stdout_b else "stdout"


def compare_outputs(rev: str, command: list[str]) -> int:
    if not command:
        raise Unusable("give the survcontrast arguments after --")
    absolute = [value for value in out_flags(command) if Path(value).is_absolute()]
    if absolute:
        raise Unusable(f"--out {absolute[0]} is absolute; both runs would write to it")
    root = repo_root()
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        export(root, rev, tmp / "rev")
        stdout_rev = run(tmp / "rev" / "src", command, tmp / "out", tmp / "out-rev")
        stdout_work = run(root / "src", command, tmp / "out", tmp / "out-work")
        differing = first_difference(tmp / "out-rev", tmp / "out-work", stdout_rev, stdout_work)
        if differing is not None:
            print(f"differs: {differing}")
            return 1
        print(f"equal: {len(files(tmp / 'out-work'))} files and stdout ({len(stdout_work)} bytes) against {rev}")
        return 0


def main(argv: list[str]) -> int:
    before, command = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(prog="ab.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--outputs", metavar="REV", required=True,
                        help="the revision whose outputs the working tree's must equal")
    args = parser.parse_args(before)
    try:
        return compare_outputs(args.outputs, command)
    except Unusable as exc:
        print(f"ab.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # a terminated comparison still removes its temporary directory and its run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main(sys.argv[1:]))
