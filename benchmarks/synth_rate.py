"""Synthesis throughput over the flow_sweep core set.

Builds the RISSP core of every registered workload plus the full-ISA
rv32e baseline (the cores the perfbench ``flow_sweep`` workload
synthesizes), then times ``synthesize`` over all of them and prints
gates/s and cores/s as the median and interquartile range over 5 reps,
under a host stamp.

    PYTHONPATH=src python benchmarks/synth_rate.py

A plain script, not a test and not a gate: pytest does not collect it.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.core.flow import RisspFlow
from repro.obs import host_provenance
from repro.synth import synthesize
from repro.workloads import WORKLOADS

REPS = 5


def _cores(flow: RisspFlow) -> list[tuple]:
    results = [flow.generate(name) for name in WORKLOADS]
    results.append(flow.full_isa_baseline())
    return [(result.core, result.name) for result in results]


def _rep(cores, lib) -> tuple[float, int]:
    gates = 0
    started = time.perf_counter()
    for core, seed in cores:
        report = synthesize(core, lib, seed=seed, keep_design=False)
        gates += sum(report.gate_counts.values())
    return time.perf_counter() - started, gates


def _summary(values: list[float], fmt: str) -> str:
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:{fmt}} [IQR {low:{fmt}}-{high:{fmt}}]"


def main() -> None:
    print("host:", json.dumps(host_provenance(), sort_keys=True))
    flow = RisspFlow()
    cores = _cores(flow)
    gate_rates, core_rates, seconds = [], [], []
    for _ in range(REPS):
        elapsed, gates = _rep(cores, flow.techlib)
        seconds.append(elapsed)
        gate_rates.append(gates / elapsed)
        core_rates.append(len(cores) / elapsed)
    print(f"synthesize over {len(cores)} cores ({gates:,} gates), "
          f"{REPS} reps: {_summary(gate_rates, ',.0f')} gates/s, "
          f"{_summary(core_rates, '.1f')} cores/s "
          f"(median {statistics.median(seconds):.3f} s per sweep)")


if __name__ == "__main__":
    main()
