"""Quick self-check of the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py

1. Runs every workload of BENCHMARK.json for about a second, untraced and
   traced, and asserts that the result line has exactly the contract's
   keys, that the outputs were correct, and that every named metric is
   reported with its unit.
2. Feeds each workload's checks one deliberately corrupted output next to
   a good one and asserts that exactly the corrupted one is counted as
   failed, so a fast wrong answer shows in the error share.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_runs(spec):
    for wl in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [*spec["command"], "--workload", wl["name"], "--seed", "7",
                    "--seconds", "1", "--trace", str(trace)]
            argv[0] = sys.executable
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            assert proc.returncode == 0, (argv, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in metrics}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (wl["name"], trace, got, want)
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            print(f"ok  {wl['name']} --trace {trace}: "
                  f"{result['attempted']} ops, {len(got)} metrics")


def check_corruption():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run
    import workloads
    os.environ.update(run.pinned_env())      # for the cli-cold child

    def counted(wl, good, bad, what):
        tally = run.Tally(wl)
        tally.add(good)
        assert tally.failed == 0, tally.problems
        tally.add(bad)
        assert tally.failed == 1 and tally.problems, (what, tally.problems)
        print(f"ok  {wl.name}: {what} counted as 1 failed op of 2 "
              f"({tally.problems[0][:70]}...)")

    wl = workloads.FillingSweep(7)
    wl.setup()
    good = wl.op(workloads.WARMUP_SLOPE)
    enc = good.result.volume_enclosure
    shifted = type(enc)(enc.lo + 1e-9, enc.hi + 1e-9)
    bad = dataclasses.replace(good, result=dataclasses.replace(
        good.result, volume_enclosure=shifted))
    counted(wl, good, bad, "volume enclosure shifted by 1e-9")

    wl = workloads.SolvePerturbed(7)
    wl.setup()
    good = wl.op(wl.prepare(0))
    moved = dataclasses.replace(good[1], shapes=tuple(
        z + 1e-7 for z in good[1].shapes))
    counted(wl, good, [good[0], moved], "B shapes moved by 1e-7")

    wl = workloads.CliCold(7)
    good = wl.op(workloads._cmd_signature(random.Random(7)))
    report = json.loads(good.stdout)
    report["results"]["signature"] += 2
    bad = dataclasses.replace(good, stdout=json.dumps(report))
    counted(wl, good, bad, "signature off by 2")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_corruption()
    check_runs(spec)
    print("self-check passed")


if __name__ == "__main__":
    main()
