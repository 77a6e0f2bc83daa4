"""The traced run: wrappers at layer boundaries, self times, layer metrics.

Tracing is done from outside the program.  Each layer's public function is
replaced, at the module attribute its caller resolves, by a wrapper that
times the call.  ``repro.core.flow`` imports ``build_rissp`` and
``cosimulate`` by name at import time, so they are wrapped in
``repro.core.flow``; ``repro.rtl.rissp`` imports ``structural_facts``
inside the function, so it is wrapped in ``repro.analysis.rtl_lint``.

Spans stay in memory.  A layer's self time is its wrapped call's duration
minus the time of wrapped calls made inside it; ``layer.coverage`` is the
sum of self times over the traced wall time.  Work done inside farm worker
processes is read from the ``repro.obs`` session the traced pass opens:
its counters and per-task snapshots.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

#: (layer, module, attribute, workloads on which the wrapper must fire).
#: A wrapper that fires nowhere would report 0 s for a layer that did run,
#: so ``bench_pass.py`` fails the pass when an expected wrapper is silent.
POINTS: tuple[tuple[str, str, str, frozenset[str]], ...] = tuple(
    (layer, module, attr, frozenset(on.split()))
    for layer, module, attr, on in (
        ("compiler", "repro.core.flow", "compile_to_program",
         "flow_sweep verify_kernels"),
        ("compiler", "repro.compiler", "compile_to_program",
         "farm_campaigns"),
        ("subset", "repro.core.flow", "profile_program",
         "flow_sweep verify_kernels"),
        ("subset", "repro.core.subset_analysis", "profile_program",
         "farm_campaigns"),
        ("rissp.build", "repro.core.flow", "build_rissp",
         "flow_sweep verify_kernels"),
        ("rissp.build", "repro.rtl.rissp", "build_rissp", "farm_campaigns"),
        ("lint.gate", "repro.analysis.rtl_lint", "structural_facts",
         "flow_sweep verify_kernels farm_campaigns"),
        ("synth", "repro.core.flow", "synthesize",
         "flow_sweep verify_kernels"),
        ("synth.lower", "repro.synth.report", "lower_module",
         "flow_sweep verify_kernels"),
        ("synth.timing", "repro.synth.report", "analyze_timing",
         "flow_sweep verify_kernels"),
        ("physical", "repro.core.flow", "implement", "flow_sweep"),
        ("codegen", "repro.rtl.compiled", "compile_module",
         "verify_kernels farm_campaigns"),
        ("codegen", "repro.rtl.compiled", "compile_core",
         "verify_kernels farm_campaigns"),
        ("codegen", "repro.rtl.compiled", "compile_fleet",
         "farm_campaigns"),
        ("cosim", "repro.core.flow", "cosimulate", "verify_kernels"),
        ("rvfi", "repro.verify.rvfi", "check_trace", "verify_kernels"),
        ("riscof", "repro.verify.riscof", "run_compliance",
         "verify_kernels"),
        ("farm", "repro.farm.campaigns", "run_tasks", "farm_campaigns"),
        ("farm", "repro.farm.runner", "run_tasks", "farm_campaigns"),
        ("mutation", "repro.verify.mutation", "rtl_mutant_kill_matrix",
         "farm_campaigns"),
        ("fleet", "repro.farm", "fleet_campaign", "farm_campaigns"),
        ("scenario", "repro.scenario", "scenario_campaign",
         "farm_campaigns"),
        ("lint.campaign", "repro.farm", "lint_campaign", "farm_campaigns"),
    ))


class Tracer:
    """In-memory spans around the wrapped functions of one process."""

    def __init__(self) -> None:
        #: Inclusive time of the outermost call per layer.
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.fired: Counter[tuple[str, str]] = Counter()
        self._stack: list[list] = []    # [layer, child seconds]
        self._depth: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, key: tuple[str, str], function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            self.fired[key] += 1
            frame = [layer, 0.0]
            self._stack.append(frame)
            self._depth[layer] += 1
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self._depth[layer] -= 1
                self.self_s[layer] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
                if not self._depth[layer]:
                    self.busy[layer] += elapsed
        return wrapper

    def install(self) -> None:
        for layer, module_name, attr, _ in POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr,
                    self._wrap(layer, (module_name, attr), original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def silent(self, workload: str) -> list[str]:
        """Wrappers expected on ``workload`` that intercepted nothing."""
        return [f"{module}.{attr}" for _, module, attr, on in POINTS
                if workload in on and not self.fired[(module, attr)]]


def standalone_runs(programs) -> dict[str, float]:
    """Traced golden and fused runs of each cosimulated program, timed
    alone, so ``cosim.self_s`` can subtract them from the cosim time."""
    from repro.rtl.core_sim import RisspSim
    from repro.sim.golden import GoldenSim

    golden = fused = 0.0
    for core, program, soc in programs:
        sim = GoldenSim(program, trace=True, soc=soc)
        started = time.perf_counter()
        sim.run(2_000_000)
        golden += time.perf_counter() - started
        rtl = RisspSim(core, program, trace=True, backend="fused", soc=soc)
        started = time.perf_counter()
        rtl.run(2_000_000)
        fused += time.perf_counter() - started
    return {"golden": golden, "fused": fused}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float,
                  counters: dict, tasks: list[dict], stats: dict,
                  alone: dict[str, float], farm_workers: int) -> dict:
    """Every per-layer metric of one traced pass (0 where a layer did not
    run on this workload)."""
    busy, calls = tracer.busy, tracer.calls

    def task_sec(prefix: str) -> list[float]:
        return [task["run_sec"] for task in tasks
                if task["task_id"].startswith(prefix)]

    compile_hits = sum(counters.get(f"compile_cache.{tier}.hit", 0)
                       for tier in ("module", "core", "fleet"))
    compile_misses = sum(counters.get(f"compile_cache.{tier}.miss", 0)
                         for tier in ("module", "core", "fleet"))
    fused_exits = sum(value for name, value in counters.items()
                      if name.startswith("fused.exit."))
    # Cosim runs in this process on verify_kernels and in farm workers on
    # farm_campaigns (the SoC image tasks).
    cosim_s = busy["cosim"] or sum(task_sec("cosim:"))
    task_run = sum(task["run_sec"] for task in tasks)
    mutant_runs = task_sec("mutant[")
    retired = stats.get("cosim_retired", 0)
    return {
        "compiler.busy_s": busy["compiler"],
        "compiler.calls": calls["compiler"],
        "subset.busy_s": busy["subset"],
        "rissp.build.busy_s": busy["rissp.build"],
        "rissp.build.calls": calls["rissp.build"],
        "lint.gate.busy_s": busy["lint.gate"],
        "synth.busy_s": busy["synth"],
        "synth.lower.busy_s": busy["synth.lower"],
        "synth.timing.busy_s": busy["synth.timing"],
        "synth.gates": stats.get("synth_gates", 0),
        "physical.busy_s": busy["physical"],
        "codegen.busy_s": busy["codegen"],
        "codegen.calls": calls["codegen"],
        "codegen.cache_hit_ratio": _ratio(compile_hits,
                                          compile_hits + compile_misses),
        "fused.busy_s": alone["fused"],
        "fused.ret_per_s": _ratio(retired, alone["fused"]),
        "fused.slow_exit_ratio": _ratio(fused_exits,
                                        counters.get("fused.retired", 0)),
        "golden.busy_s": alone["golden"],
        "golden.ret_per_s": _ratio(retired, alone["golden"]),
        "cosim.busy_s": cosim_s,
        "cosim.self_s": (cosim_s - alone["golden"] - alone["fused"])
        if cosim_s else 0.0,
        "cosim.ret_per_s": _ratio(retired, cosim_s),
        "rvfi.busy_s": busy["rvfi"],
        "rvfi.rows_per_s": _ratio(retired, busy["rvfi"]),
        "riscof.busy_s": busy["riscof"],
        "riscof.sig_recompute": counters.get("riscof.sig_recompute", 0),
        "fleet.busy_s": busy["fleet"],
        "fleet.in_batch_ratio": _ratio(counters.get("fleet.lane_halt", 0),
                                       stats.get("fleet_lanes", 0)),
        "farm.tasks": counters.get("farm.tasks", 0),
        "farm.task_run_s": task_run,
        "farm.queue_wait_s": sum(task["queue_wait_sec"] for task in tasks),
        "farm.parallel_eff": _ratio(task_run, farm_workers * busy["farm"]),
        "farm.core_rebuilds": counters.get("farm.core_rebuild.build", 0),
        "mutation.task_p50_s": (statistics.median(mutant_runs)
                                if mutant_runs else 0.0),
        "scenario.runs": counters.get("scenario.runs", 0),
        "scenario.replays": counters.get("scenario.replays", 0),
        "scenario.busy_s": busy["scenario"],
        "lint.campaign.busy_s": busy["lint.campaign"],
        "layer.coverage": _ratio(sum(tracer.self_s.values()), wall_s),
    }
