"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload flow_sweep --seed 1 --seconds 30 \\
        --trace 0

Each pass runs in a fresh interpreter (``bench_pass.py``), one after the
other: a closed loop with one caller.  Passes repeat until ``--seconds``
is spent, with at least :data:`MIN_PASSES` of each kind.  Every timing is
the median over the run's passes.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics: layer numbers from the traced passes, workload rates
from the untraced ones, and their wall-time ratio as
``trace.overhead_ratio``.

Every pass's outputs are checked (see ``workloads.py``); its seed-free
digests must equal ``reference.json`` and its seeded digests must equal
the run's first pass.  The last stdout line is the JSON result; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed used when none is given.
DEFAULT_SEED = 1
#: A seed kept out of development, for checking a claim on unseen inputs.
HELD_OUT_SEED = 48611

#: Fewest passes of each kind in one run, whatever ``--seconds`` says:
#: three medians-worth untraced, or two of each kind when tracing.
MIN_PASSES = {False: {"plain": 3}, True: {"plain": 2, "traced": 2}}
#: Wall-clock cap on one pass; the whole run must end within 180 s.
RUN_LIMIT_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reference_digests(workload: str, tiny: bool) -> dict:
    table = json.loads((HERE / "reference.json").read_text())
    return table.get(workload, {}).get("tiny" if tiny else "full", {})


def run_pass(workload: str, seed: int, traced: bool, oracle: bool,
             tiny: bool, timeout: float) -> tuple[dict | None, str]:
    """One pass in its own process group; returns (result, error)."""
    command = [sys.executable, str(HERE / "bench_pass.py"),
               "--workload", workload, "--seed", str(seed)]
    command += ["--traced"] * traced + ["--oracle"] * oracle
    command += ["--tiny"] * tiny
    env = dict(os.environ)
    # Fixed cache state: no on-disk signature cache, default RTL backend.
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_RTL_BACKEND", None)
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None, f"pass timed out after {timeout:.0f} s"
    finally:
        # Reap anything the pass left behind in its group (farm workers).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return None, f"pass exited {child.returncode}: {tail}"
    return json.loads(lines[-1]), ""


class Tally:
    """Attempted and failed operations across the passes of a run."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.first_seeded: dict | None = None

    def miss(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    def add(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failures.extend(result["failures"])
        for name in sorted(set(self.reference) | set(result["fixed"])):
            self.attempted += 1
            got = result["fixed"].get(name)
            if got != self.reference.get(name):
                self.failures.append(
                    f"digest {name} is {got}, reference.json has "
                    f"{self.reference.get(name)}")
        if self.first_seeded is None:
            self.first_seeded = result["seeded"]
            return
        for name, value in result["seeded"].items():
            self.attempted += 1
            if self.first_seeded.get(name) != value:
                self.failures.append(
                    f"seeded digest {name} differs between passes")


def run_passes(workload: str, seed: int, seconds: int, trace: bool,
               tiny: bool) -> tuple[dict[str, list[dict]], Tally]:
    """Passes until the time is spent; plain and traced alternate when
    tracing, starting with plain."""
    started = time.perf_counter()
    kinds = ("plain", "traced") if trace else ("plain",)
    passes: dict[str, list[dict]] = {kind: [] for kind in kinds}
    durations: dict[str, list[float]] = {kind: [] for kind in kinds}
    tally = Tally(reference_digests(workload, tiny))
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        elapsed = time.perf_counter() - started
        short = any(len(passes[k]) < count
                    for k, count in MIN_PASSES[trace].items())
        expected = statistics.median(durations[kind]) \
            if durations[kind] else 0.0
        if not short and elapsed + expected > seconds:
            break
        if elapsed >= RUN_LIMIT_S - 10:
            tally.miss(f"run limit reached after {index} passes")
            break
        pass_started = time.perf_counter()
        result, error = run_pass(workload, seed, kind == "traced",
                                 oracle=index == 0, tiny=tiny,
                                 timeout=RUN_LIMIT_S - elapsed)
        durations[kind].append(time.perf_counter() - pass_started)
        index += 1
        if result is None:
            tally.miss(f"{kind} pass {index}: {error}")
            if not passes[kind]:
                break
            continue
        tally.add(result)
        passes[kind].append(result)
    return passes, tally


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(result[key] for result in results)


def reference_median(results: list[dict], key: str) -> float:
    """Median of a time in reference-host seconds (see ``SpeedProbe``)."""
    return statistics.median(result[key] * result["speed"]
                             for result in results)


def metrics_for(spec: dict, passes: dict[str, list[dict]],
                trace: bool) -> tuple[dict, dict]:
    """(metrics for the JSON result, workload rates for the table)."""
    plain = passes["plain"]
    rates = {name: statistics.median(result["rates"][name]
                                     for result in plain)
             for name in plain[0]["rates"]}
    if not trace:
        values = {"setup_s": reference_median(plain, "setup_s"),
                  "wall_s": reference_median(plain, "wall_s"),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        wanted = spec["end_to_end"]
    else:
        traced = passes["traced"]
        values = {name: statistics.median(result["layers"][name]
                                          for result in traced)
                  for name in traced[0]["layers"]}
        values.update(rates)
        values["trace.overhead_ratio"] = (
            reference_median(traced, "wall_s")
            / reference_median(plain, "wall_s"))
        wanted = spec["per_layer"]
    missing = [metric["name"] for metric in wanted
               if metric["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for {', '.join(missing)}")
    return ({metric["name"]: {"value": values[metric["name"]],
                              "unit": metric["unit"]}
             for metric in wanted}, rates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} holds no repro sources to benchmark",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(names)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    # Byte-compile first, so no pass pays for it inside setup_s.
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(str(tree), quiet=1)

    passes, tally = run_passes(args.workload, args.seed, seconds,
                               bool(args.trace), args.tiny)
    if not passes["plain"] or (args.trace and not passes["traced"]):
        for failure in tally.failures:
            print(f"perfbench: {failure}", file=sys.stderr)
        return 1
    metrics, rates = metrics_for(spec, passes, bool(args.trace))

    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    counts = {kind: len(results) for kind, results in passes.items()}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={counts}")
    shown = dict(metrics)
    if not args.trace:
        shown.update({name: {"value": value, "unit": units[name]}
                      for name, value in rates.items() if value})
    for name, metric in shown.items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    for name in ("setup_s", "wall_s"):
        print(f"  {name + ' (raw)':<32} "
              f"{median_of(passes['plain'], name):>16.6g} s")
    print(f"  {'host speed':<32} "
          f"{median_of(passes['plain'], 'speed'):>16.6g} x reference")
    print(f"  {'fail_ratio':<32} {len(tally.failures):>7d} / "
          f"{tally.attempted} operations")
    if args.trace:
        coverage = metrics["layer.coverage"]["value"]
        if coverage < 0.9:
            print(f"  layer.coverage {coverage:.3f} is below the 0.9 "
                  f"target: {1 - coverage:.1%} of traced wall time is in "
                  f"no wrapped layer")
    first = passes["plain"][0]
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "host": first["host"], "cache": first["cache"],
        "digests": {**first["fixed"], **first["seeded"]},
        "pass_wall_s": {kind: [result["wall_s"] for result in results]
                        for kind, results in passes.items()},
        "pass_setup_s": [result["setup_s"] for result in passes["plain"]],
        "pass_speed": {kind: [result["speed"] for result in results]
                       for kind, results in passes.items()},
        "failures": tally.failures[:20]}}))
    for failure in tally.failures[:20]:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not tally.failures,
                      "attempted": max(1, tally.attempted),
                      "failed": len(tally.failures),
                      "metrics": metrics}))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
