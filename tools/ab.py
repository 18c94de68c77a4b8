"""Check a change against a git revision: the same bytes out of a
survcontrast command, or the benchmark's end-to-end metrics side by side.

    python tools/ab.py --outputs REV -- <survcontrast args>
    python tools/ab.py --bench REV --workload NAME --pairs N [--seconds S]

Run from inside the repository. REV is exported with ``git archive`` into a
temporary directory (no worktree, nothing written under ``.git``), which is
removed on every exit path.

``--outputs``: ``python -m survcontrast.cli <args>`` runs twice, one run
after the other and from the current directory: first against the exported
tree's ``src/``, then against the working tree's. Each run gets a fresh
``$SURVCONTRAST_OUT`` at the same path, moved aside when the run ends, so
relative outputs land apart and any printed output path reads the same in
both. An absolute ``--out`` would put both runs' outputs in one place, so it
is rejected; so is a run that writes nothing under ``$SURVCONTRAST_OUT``, as
a spec with an absolute ``out`` does. The two output trees and the two
standard outputs are compared byte by byte. Prints ``equal`` with the file
count and exits 0, or prints the first differing path (``stdout`` for the
standard output) and exits 1.

``--bench``: N pairs of processes, each tree running its own
``perfbench/run.py --workload NAME`` (with ``--seconds S`` when given), one
process at a time; the revision runs first in odd pairs and the working
tree first in even ones. Each process gets its own session and is killed
with its whole process group when it ends, so no worker it forked outlives
this tool. Prints every run's metrics, then, for each end-to-end metric of
the working tree's ``BENCHMARK.json``: the median and quartiles of each
side, the pairs in which the working tree is better (by the metric's
``better``; a tie counts for neither) and the two-sided sign-test p-value
over the untied pairs. Exits 0, or 1 when a run reports a failed check.

Both modes exit 2 when a run fails or the arguments are unusable. Uses
only the standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import signal
import statistics
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


def bench_run(tree: Path, workload: str, seconds: float | None) -> dict:
    """One process of ``tree``'s own ``perfbench/run.py``: its result line,
    ``{"correct", "attempted", "failed", "metrics"}``."""
    script = tree / "perfbench" / "run.py"
    command = [sys.executable, str(script), "--workload", workload]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    proc = subprocess.Popen(command, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        try:  # the run's session is its own process group: end whatever it left running
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode not in (0, 1):  # 1: a check failed, and the result is still printed
        raise Unusable(f"{script} exited {proc.returncode}: {stderr.decode(errors='replace').strip()}")
    try:
        return json.loads(stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise Unusable(f"{script} printed no result line: {exc}") from None


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``."""
    n, k = wins + losses, min(wins, losses)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n)


def compare_bench(rev: str, workload: str | None, pairs: int | None, seconds: float | None) -> int:
    if workload is None or pairs is None or pairs < 1:
        raise Unusable("--bench needs --workload and --pairs N >= 1")
    root = repo_root()
    end_to_end = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"rev": [], "work": []}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"rev": Path(tmp) / "rev", "work": root}
        export(root, rev, trees["rev"])
        for pair in range(1, pairs + 1):
            for side in ("rev", "work") if pair % 2 else ("work", "rev"):
                result = bench_run(trees[side], workload, seconds)
                runs[side].append(result)
                shown = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
                print(f"pair {pair} {side}: failed {result['failed']}/{result['attempted']} {shown}", flush=True)
    print(f"{workload}: work (the working tree) against rev ({rev}) over {pairs} pairs, as median [q1, q3]")
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
                  for side, results in runs.items()}
        if len(values["rev"]) != pairs or len(values["work"]) != pairs:
            print(f"{name}: not reported by every run")
            continue
        sign = 1 if metric["better"] == "lower" else -1
        gains = [sign * (r - w) for r, w in zip(values["rev"], values["work"])]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        q = {side: quartiles(v) for side, v in values.items()}
        print(f"{name} ({metric['better']} is better): rev {q['rev'][1]:.6g} [{q['rev'][0]:.6g}, {q['rev'][2]:.6g}], "
              f"work {q['work'][1]:.6g} [{q['work'][0]:.6g}, {q['work'][2]:.6g}], "
              f"work better in {wins}/{pairs}, sign-test p={sign_test(wins, losses):.3g}")
    return int(any(r["failed"] for results in runs.values() for r in results))


def main(argv: list[str]) -> int:
    before, command = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(prog="ab.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--outputs", metavar="REV", help="the revision whose outputs the working tree's must equal")
    mode.add_argument("--bench", metavar="REV",
                      help="the revision whose benchmark metrics to set beside the working tree's")
    parser.add_argument("--workload", help="with --bench: the workload of BENCHMARK.json to run")
    parser.add_argument("--pairs", type=int, help="with --bench: the number of (revision, working tree) pairs of runs")
    parser.add_argument("--seconds", type=float, help="with --bench: perfbench's --seconds (default its run_seconds)")
    args = parser.parse_args(before)
    try:
        if args.bench is not None:
            if command:
                raise Unusable("--bench takes no survcontrast arguments")
            return compare_bench(args.bench, args.workload, args.pairs, args.seconds)
        return compare_outputs(args.outputs, command)
    except Unusable as exc:
        print(f"ab.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # a terminated comparison still removes its temporary directory and its run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main(sys.argv[1:]))
