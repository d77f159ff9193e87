"""Check that the working tree's commands write the same outputs as a
parent revision's: every output file byte for byte, and every command's
exit code and standard error.

Usage: python scripts/same_outputs.py PARENT_REV [--workdir DIR]

Run from the root of a git checkout.  The two source trees are made as
scripts/bench_pairs.py makes them (make_copies): `git archive PARENT_REV`
in DIR/parent and the working tree's tracked files, as they are on disk,
in DIR/change.  In each tree's directory run/, so that every path the
commands see or print is the same relative one, `python -m switchseir`
of that tree runs, in a directory D for each scenario SCN, seed S and
regime counts KS of two-regime seeds 1, 2 and 3 with KS = 1,2 (D = s1, s2,
s3), three-regime seed 17 (a series on which all three regimes are
identifiable) with KS = 2,3 (D = s17), and two-regime seed 1 again with
two identification-rate segments (D = s1-p2):

    simulate --scenario SCN --seed S --out D
    fit --config D/short.json --chains 3 --jobs 1 --out D/jobs1
    fit --config D/short.json --chains 3 --jobs 2 --out D/jobs2
    fit --config D/long.json --chains 3 --jobs 1 --resume --out D/jobs1
    fit --config D/long.json --chains 3 --jobs 2 --resume --out D/jobs2
    summarize D/jobs1/chain_0.jsonl ... chain_2.jsonl --config D/long.json --out D/summary
    diagnose D/jobs1/chain_0.jsonl ... chain_2.jsonl --out D/diagnose
    select --config D/short.json --K KS --out D/select

short.json is the starter config that simulate writes, set to 30
iterations, burn-in 5, m_per_regime 5, 2 MH sweeps and
output.dump_particles on; in s1-p2 it also has model.ident_change_times
[1, 76], with the starter's ident prior for each segment, so the p1 and
p2 moves run.  long.json is short.json at 45 iterations, so the resumed
chains pool 3 x 40 records, above summarize's minimum of 100.

Last, in D = s1-n200, two-regime seed 1 runs simulate and then

    fit --config D/wide.json --chains 2 --jobs 1 --out D/fit

wide.json is short.json at 3 iterations, burn-in 1 and m_per_regime
100.  So N = 200 > 128: both passes store int16 ancestors, and the
bootstrap passes resample with systematic_offspring at that size.

It prints one line per command, `same` when both sides gave the same
exit code and standard error and `DIFFERENT` otherwise (then each side's
first line of standard error that differs, None where it ended early),
and one line per file written under run/, `same` or `DIFFERENT` (a file
that only one side wrote is different, marked `only in parent` or `only
in change`).  Then it prints the count of differences, and exits 1 if
there is any.  Without --workdir the copies go to a temporary directory
that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest

from bench_pairs import SIDES, make_copies

SHORT = {"n_iterations": 30, "burn_in": 5, "m_per_regime": 5, "mh_sweeps_per_iter": 2}
# The sampler settings of each config a run writes, by file name.
SHORT_LONG = {"short": SHORT, "long": {**SHORT, "n_iterations": 45}}
WIDE = {"wide": {**SHORT, "n_iterations": 3, "burn_in": 1, "m_per_regime": 100}}


def _short_long_commands(d: str, k_list: str) -> list[list[str]]:
    """The commands of series directory d after simulate, in the order
    they run, given short.json, long.json and select's --K list."""
    chains = [f"{d}/jobs1/chain_{i}.jsonl" for i in range(3)]
    fits = [["fit", "--config", f"{d}/{cfg}.json", "--chains", "3", "--jobs", jobs,
             *extra, "--out", f"{d}/jobs{jobs}"]
            for cfg, extra in (("short", []), ("long", ["--resume"])) for jobs in ("1", "2")]
    return fits + [
        ["summarize", *chains, "--config", f"{d}/long.json", "--out", f"{d}/summary"],
        ["diagnose", *chains, "--out", f"{d}/diagnose"],
        ["select", "--config", f"{d}/short.json", "--K", k_list, "--out", f"{d}/select"],
    ]


# (directory, scenario, seed, model.ident_change_times, configs, commands
# after simulate) of each simulated series.
RUNS = tuple(
    (d, scenario, seed, change_times, SHORT_LONG, _short_long_commands(d, k_list))
    for d, scenario, seed, k_list, change_times in (
        ("s1", "two-regime", 1, "1,2", [1]), ("s2", "two-regime", 2, "1,2", [1]),
        ("s3", "two-regime", 3, "1,2", [1]), ("s17", "three-regime", 17, "2,3", [1]),
        ("s1-p2", "two-regime", 1, "1,2", [1, 76]))
) + (("s1-n200", "two-regime", 1, [1], WIDE,
      [["fit", "--config", "s1-n200/wide.json", "--chains", "2", "--jobs", "1",
        "--out", "s1-n200/fit"]]),)


def _write_configs(run_dir: str, seed_dir: str, change_times: list[int],
                   configs: dict[str, dict]) -> None:
    """Each of configs, as NAME.json beside the starter config of
    seed_dir, with one starter ident prior per change time."""
    with open(os.path.join(run_dir, seed_dir, "config.json")) as fh:
        raw = json.load(fh)
    raw["output"]["dump_particles"] = True
    if change_times != [1]:
        raw["model"]["ident_change_times"] = change_times
        raw["priors"]["ident"] *= len(change_times)
    for name, sampler in configs.items():
        raw["sampler"].update(sampler)
        with open(os.path.join(run_dir, seed_dir, f"{name}.json"), "w") as fh:
            json.dump(raw, fh, indent=1, sort_keys=True)


def _run(root: str, argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one command of the tree at root,
    run from its run/ directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.run([sys.executable, "-m", "switchseir", *argv],
                          cwd=os.path.join(root, "run"), env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def _files(run_dir: str) -> dict[str, bytes]:
    """Every file below run_dir, by its path relative to it."""
    found = {}
    for base, _, names in os.walk(run_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, run_dir)] = fh.read()
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workdir", help="where to put the two copies (kept)")
    args = parser.parse_args(argv)

    differences = 0

    def report(same: bool, what: str) -> None:
        nonlocal differences
        differences += not same
        print(f"{'same' if same else 'DIFFERENT':9}  {what}")

    with tempfile.TemporaryDirectory() as tmp:
        roots = make_copies(args.parent_rev, args.workdir or tmp)
        for d, scenario, seed, change_times, configs, after in RUNS:
            commands = [["simulate", "--scenario", scenario, "--seed", str(seed),
                         "--out", d]] + after
            results = {}
            for side, root in roots.items():
                os.makedirs(os.path.join(root, "run"), exist_ok=True)
                results[side] = [_run(root, commands[0])]
                _write_configs(os.path.join(root, "run"), d, change_times, configs)
                results[side] += [_run(root, argv) for argv in commands[1:]]
            for argv, parent, change in zip(commands, results["parent"], results["change"]):
                codes = (str(parent[0]) if parent[0] == change[0]
                         else f"{parent[0]} in parent, {change[0]} in change")
                report(parent == change, f"exit {codes}, stderr: {' '.join(argv)}")
                lines = zip_longest(parent[1].splitlines(), change[1].splitlines())
                for side, line in zip(SIDES, next((pc for pc in lines if pc[0] != pc[1]), ())):
                    print(f"  first stderr line that differs, {side}: {line!r}")
        outputs = {side: _files(os.path.join(root, "run")) for side, root in roots.items()}
        for name in sorted(outputs["parent"].keys() | outputs["change"].keys()):
            sides = [side for side in SIDES if name in outputs[side]]
            if len(sides) == 1:
                report(False, f"{name} (only in {sides[0]})")
            else:
                report(outputs["parent"][name] == outputs["change"][name], name)
    print(f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
