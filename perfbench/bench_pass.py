"""One benchmark pass in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per pass, so every pass begins with the
per-process memos cold, as a CLI user sees them: the riscof signature memo,
the decode caches, the compile caches and the worker core memo.  The clock
for ``setup_s`` starts before the first ``repro`` import.

    python3 perfbench/bench_pass.py --workload flow_sweep --seed 1 \\
        [--traced] [--oracle] [--tiny]

A :class:`SpeedProbe` samples the host's speed during set-up and the
timed pass, so ``run.py`` can report times in reference-host seconds.
``--traced`` wraps every layer (see ``layers.py``) and opens a
``repro.obs`` session; ``--oracle`` adds the slow serial oracles (the
serial kill matrix and fleet rows); ``--tiny`` shrinks every workload for
the smoke test.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the setup clock starts before imports)
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import FARM_WORKERS, WORKLOADS, workload_rates  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (the farm
    workers on ``farm_campaigns``), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: Iterations of the speed probe, and its thread CPU time on the
#: reference host (2-vCPU x86_64 VM, Python 3.11).
PROBE_LOOPS = 2_000
PROBE_REFERENCE_S = 1.2e-3


def _spin(loops: int) -> tuple:
    """The probe: dict updates, tuple allocation and a sort, the mix of
    work the simulators do, so it slows down with them under contention."""
    counts: dict[int, int] = {}
    rows = []
    for index in range(loops):
        key = (index * 7) & 127
        counts[key] = counts.get(key, 0) + index
        rows.append((key, index))
    return sorted(rows)[-1]


class SpeedProbe:
    """Host speed during a pass, relative to the reference host.

    Every ``interval`` seconds of wall time a signal handler runs a fixed
    loop and records its thread CPU time.  On a shared host the CPU time of
    the same loop changes with what the neighbours do; the pass's times are
    multiplied by :attr:`speed` to give reference-host seconds.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        started = time.thread_time()
        _spin(PROBE_LOOPS)
        self.samples.append(time.thread_time() - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Mean relative speed over the samples (1.0 = reference host)."""
        if not self.samples:
            return 1.0
        return statistics.fmean(PROBE_REFERENCE_S / sample
                                for sample in self.samples)


def one_pass(name: str, seed: int, traced: bool, oracle: bool,
             tiny: bool) -> dict:
    workload = WORKLOADS[name]
    tracer = layers.Tracer() if traced else None
    with contextlib.ExitStack() as stack:
        probe = stack.enter_context(SpeedProbe())
        inputs = workload.setup(seed, tiny)
        setup_s = time.perf_counter() - _STARTED

        from repro import obs

        if tracer is not None:
            tracer.install()
            stack.callback(tracer.uninstall)
            telemetry = stack.enter_context(obs.session())
        started = time.perf_counter()
        out = workload.run(inputs)
        wall_s = time.perf_counter() - started
    rss = peak_rss_mb()

    checked = workload.check(inputs, out, oracle)
    result = {
        "workload": name, "seed": seed, "traced": traced,
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": rss,
        "speed": probe.speed, "probe_samples": len(probe.samples),
        "attempted": checked.attempted, "failures": checked.failures,
        "fixed": checked.fixed, "seeded": checked.seeded,
        "slices": out["slices"],
        "rates": workload_rates(name, wall_s, out["slices"],
                                checked.stats),
        "host": obs.host_provenance(),
        "cache": {"REPRO_CACHE_DIR": os.environ.get("REPRO_CACHE_DIR"),
                  "REPRO_RTL_BACKEND": os.environ.get("REPRO_RTL_BACKEND"),
                  "memos": "cold (fresh interpreter per pass)"},
    }
    if tracer is not None:
        silent = tracer.silent(name)
        result["attempted"] += 1
        if silent:
            result["failures"].append(
                f"wrappers intercepted nothing: {', '.join(silent)}")
        alone = layers.standalone_runs(checked.cosim_programs)
        result["layers"] = layers.layer_metrics(
            tracer, wall_s, telemetry.merged_counters(),
            telemetry.tasks, checked.stats, alone, FARM_WORKERS)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = one_pass(args.workload, args.seed, args.traced, args.oracle,
                      args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
