"""Smoke test of the benchmark itself, at tiny workload sizes.

    python3 perfbench/smoke.py

Checks that every workload, traced and untraced, prints every metric named
in ``BENCHMARK.json`` with its unit and passes its own output checks; that
a corrupted digest is counted as a failure; and that the benchmark exits
non-zero, printing no result, where there are no sources to benchmark.
The file name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run


class SmokeFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def check_metrics_printed(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"),
                 "--workload", workload["name"], "--seed",
                 str(run.DEFAULT_SEED), "--seconds", "1", "--trace",
                 str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            check(done.returncode == 0,
                  f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: {result['failed']} of {result['attempted']} "
                  f"operations failed")
            check(list(result["metrics"]) == [m["name"] for m in wanted],
                  f"{label}: metrics {list(result['metrics'])}")
            table = "\n".join(lines[:-1])
            for metric in wanted:
                got = result["metrics"][metric["name"]]
                check(got["unit"] == metric["unit"]
                      and math.isfinite(got["value"]),
                      f"{label}: {metric['name']} = {got}")
                check(any(line.split()[:1] == [metric["name"]]
                          and line.split()[-1] == metric["unit"]
                          for line in table.splitlines()),
                      f"{label}: {metric['name']} not printed with its "
                      f"unit")
            print(f"ok  {label}: {len(wanted)} metrics, "
                  f"{result['attempted']} operations checked")


def check_corrupted_digest() -> None:
    result, error = run.run_pass("flow_sweep", run.DEFAULT_SEED,
                                 traced=False, oracle=False, tiny=True,
                                 timeout=120)
    check(result is not None, f"tiny pass failed: {error}")
    reference = run.reference_digests("flow_sweep", tiny=True)
    clean = run.Tally(reference)
    clean.add(result)
    check(not clean.failures, f"clean pass counted {clean.failures}")

    name = sorted(reference)[0]
    corrupted = run.Tally({**reference, name: "0" * 16})
    corrupted.add(result)
    check(len(corrupted.failures) == 1
          and corrupted.attempted == clean.attempted,
          f"corrupted reference digest: {corrupted.failures}")

    reseeded = dict(result, seeded={"fuzz_verdicts": "a" * 16})
    drifting = run.Tally(reference)
    drifting.add(reseeded)
    drifting.add(dict(reseeded, seeded={"fuzz_verdicts": "b" * 16}))
    check(len(drifting.failures) == 1,
          f"seeded digest drift: {drifting.failures}")
    print("ok  corrupted digests are counted as failures")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(run.HERE, f"{scratch}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "flow_sweep", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=scratch, capture_output=True, text=True,
            timeout=180)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          f"benchmark without sources exited {done.returncode} with "
          f"{done.stdout!r}")
    print("ok  no sources: exit", done.returncode, "and no result")


def main() -> int:
    spec = run.load_spec()
    try:
        check_refuses_without_sources()
        check_corrupted_digest()
        check_metrics_printed(spec)
    except SmokeFailure as failure:
        print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
