"""Run the benchmark in alternated pairs: a parent revision against the
working tree.

Usage: python scripts/bench_pairs.py PARENT_REV --out FILE [--workdir DIR]

Run from the root of a git checkout.  `git archive PARENT_REV` is
extracted to DIR/parent, and the working tree's tracked files, as they
are on disk (uncommitted edits included), are copied to DIR/change.  Each
of 10 rounds runs one pair per workload, in the order BENCHMARK.json
lists them:

    python3 perfbench/run.py --workload W --seed 1 --seconds 45 --trace 0

once in each copy, one after the other, the parent first in even rounds
and the change first in odd rounds.  The workloads, end-to-end metrics
and bounds come from BENCHMARK.json in the working tree.  Without
--workdir the copies go to a temporary directory that is removed at the
end.

FILE is written as a JSON object of two keys:

- runs: one entry per run, in the order run: side, workload, seed,
  trace, pair, order (0 ran first, 1 second), exit_code, result (the
  last line of standard output, parsed; null when it is not JSON), meta
  (the {"meta": ...} line's object, or null) and host: loadavg_1m, the
  host's 1-minute load average before and after the run
  (/proc/loadavg), and steal_share, the share of all CPU time between
  the two readings that the hypervisor stole (the cpu line of
  /proc/stat).  A pair whose runs saw different load or steal may have
  been moved by the host rather than the change.
- summary: per workload, keyed "<workload> seed <seed>": pairs,
  correct_all, the exit codes seen, failed and attempted units per side,
  and per end-to-end metric: better, bound, each side's quartiles,
  median_change (the change's median over the parent's, minus 1),
  change_wins (pairs in which the change reads better; ties count for
  neither side), worse_than_bound, parent_iqr and parent_iqr_relative
  (the distance between the parent's quartiles, and that over its
  median), unresolved (the parent's relative spread is wider than the
  bound and not every change run reads better than every parent run) and
  per_pair ([parent, change] values).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
PAIRS, SEED, SECONDS = 10, 1, 45


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def make_copies(parent_rev: str, workdir: str) -> dict[str, str]:
    """The two source trees: the parent revision and the working tree's
    tracked files."""
    roots = {side: os.path.join(workdir, side) for side in SIDES}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", parent_rev))) as tar:
        tar.extractall(roots["parent"], filter="data")
    for name in _git("ls-files", "-z").decode().split("\0"):
        if name and os.path.isfile(name):
            target = os.path.join(roots["change"], name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(name, target)
    return roots


def _host_sample() -> tuple[float, list[int]]:
    """The 1-minute load average, and the CPU time so far (in clock
    ticks) of each state of /proc/stat's cpu line, user to steal."""
    with open("/proc/loadavg") as fh:
        load = float(fh.read().split()[0])
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:9]]
    return load, ticks


def run_once(root: str, workload: str) -> dict:
    """One untraced benchmark run in a source tree: its exit code, its
    result and meta lines parsed, and the host's load around it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    load_before, ticks_before = _host_sample()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    load_after, ticks_after = _host_sample()
    spent = [b - a for a, b in zip(ticks_before, ticks_after)]
    meta_line, result = ([None, None] + [_json(line) for line in proc.stdout.splitlines()])[-2:]
    meta = meta_line.get("meta") if isinstance(meta_line, dict) else None
    host = {"loadavg_1m": [load_before, load_after],
            "steal_share": spent[7] / sum(spent) if sum(spent) else 0.0}
    return {"exit_code": proc.returncode, "result": result, "meta": meta, "host": host}


def _json(line: str):
    """A line parsed as JSON, or None when it is not JSON."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return None


def _value(run: dict, metric: str):
    try:
        return run["result"]["metrics"][metric]["value"]
    except (KeyError, TypeError):
        return None


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        median = values[0] if values else None
        return {"q1": median, "median": median, "q3": median}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize_metric(pairs: list[dict], metric: dict) -> dict:
    """The summary of one end-to-end metric over a workload's pairs (each
    a dict of side -> run)."""
    lower = metric["better"] == "lower"
    per_pair = [[_value(p["parent"], metric["name"]), _value(p["change"], metric["name"])]
                for p in pairs]
    sides = {side: [pp[i] for pp in per_pair if pp[i] is not None]
             for i, side in enumerate(SIDES)}
    quart = {side: _quartiles(sides[side]) for side in SIDES}
    base, new = quart["parent"]["median"], quart["change"]["median"]
    change = new / base - 1.0 if base and new is not None else None

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(1 for p, c in per_pair if None not in (p, c) and better(c, p))
    iqr = quart["parent"]["q3"] - quart["parent"]["q1"] if sides["parent"] else None
    iqr_rel = iqr / abs(base) if iqr is not None and base else None
    all_better = (sides["parent"] and sides["change"]
                  and all(better(c, p) for c in sides["change"] for p in sides["parent"]))
    worse = change is not None and (change > metric["bound"] if lower
                                    else change < -metric["bound"])
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": quart["parent"],
        "change": quart["change"],
        "median_change": change,
        "change_wins": wins,
        "worse_than_bound": worse,
        "parent_iqr": iqr,
        "parent_iqr_relative": iqr_rel,
        "unresolved": bool(iqr_rel is not None and iqr_rel > metric["bound"]
                           and not all_better),
        "per_pair": per_pair,
    }


def summarize_workload(runs: list[dict], metrics: list[dict]) -> dict:
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [by_pair[k] for k in sorted(by_pair) if len(by_pair[k]) == 2]

    def total(side, key):
        return sum((r["result"] or {}).get(key, 0) for r in runs if r["side"] == side)

    return {
        "pairs": len(pairs),
        "correct_all": all((r["result"] or {}).get("correct") is True for r in runs),
        "exit_codes": sorted({r["exit_code"] for r in runs}),
        "failed": {side: total(side, "failed") for side in SIDES},
        "attempted": {side: total(side, "attempted") for side in SIDES},
        "metrics": {m["name"]: summarize_metric(pairs, m) for m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", help="where to put the two copies (kept)")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        roots = make_copies(args.parent_rev, args.workdir or tmp)
        runs = []
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for position, side in enumerate(order):
                    run = run_once(roots[side], workload)
                    runs.append({"side": side, "workload": workload, "seed": SEED,
                                 "trace": 0, "pair": pair, "order": position, **run})
                    print(f"pair {pair} {workload} {side}: exit {run['exit_code']}",
                          file=sys.stderr)
    summary = {
        f"{w} seed {SEED}": summarize_workload(
            [r for r in runs if r["workload"] == w], bench["end_to_end"])
        for w in workloads
    }
    with open(args.out, "w") as fh:
        json.dump({"summary": summary, "runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
