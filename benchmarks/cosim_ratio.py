"""Cosimulation cost relative to the fused RTL run it checks.

For crc32 and af_detect_irq this prints the wall-clock ratio of a
lock-step ``cosimulate(..., backend="fused")`` to a traced fused RTL run
of the same core and program, as the median and interquartile range over
5 interleaved reps (the two runs alternate which goes first), under a
host stamp.  The ROADMAP's target is a ratio of at most 2.

    PYTHONPATH=src python benchmarks/cosim_ratio.py

A plain script, not a test and not a gate: pytest does not collect it,
and it exits non-zero only when a cosimulation does not match.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.core.flow import RisspFlow
from repro.obs import host_provenance
from repro.rtl.core_sim import RisspSim, cosimulate

WORKLOADS = ("crc32", "af_detect_irq")
REPS = 5


def _fused_s(result) -> float:
    sim = RisspSim(result.core, result.program, trace=True,
                   backend="fused", soc=result.soc_spec)
    started = time.perf_counter()
    sim.run(2_000_000)
    return time.perf_counter() - started


def _cosim_s(result) -> float:
    started = time.perf_counter()
    mismatch = cosimulate(result.core, result.program, backend="fused",
                          soc=result.soc_spec)
    elapsed = time.perf_counter() - started
    if mismatch is not None:
        raise SystemExit(f"{result.name}: cosimulation mismatch {mismatch}")
    return elapsed


def main() -> None:
    print("host:", json.dumps(host_provenance(), sort_keys=True))
    flow = RisspFlow()
    for name in WORKLOADS:
        result = flow.generate(name)
        _fused_s(result)    # warm the compile and decode caches
        _cosim_s(result)
        ratios, fused, cosim = [], [], []
        for rep in range(REPS):
            if rep % 2:
                cosim.append(_cosim_s(result))
                fused.append(_fused_s(result))
            else:
                fused.append(_fused_s(result))
                cosim.append(_cosim_s(result))
            ratios.append(cosim[-1] / fused[-1])
        low, median, high = statistics.quantiles(ratios, n=4,
                                                 method="inclusive")
        print(f"{name}: cosim/fused {median:.2f}x "
              f"[IQR {low:.2f}-{high:.2f}] over {REPS} interleaved reps "
              f"(cosim {1e3 * statistics.median(cosim):.1f} ms, "
              f"fused {1e3 * statistics.median(fused):.1f} ms)")


if __name__ == "__main__":
    main()
