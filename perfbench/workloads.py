"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a small object with three steps, called by
``bench_pass.py`` inside one fresh interpreter:

* ``setup(seed, tiny)`` builds the inputs (this is ``setup_s``);
* ``run(inputs)`` is the timed pass (``wall_s``); it returns the raw
  outputs plus the wall time of each slice, taken between top-level calls;
* ``check(inputs, out, oracle)`` runs after the timer stops.  It checks the
  outputs against independent oracles and returns a :class:`Checked`: the
  operations attempted and failed, and the digests of every simulated
  statistic.

Digests come in two parts.  ``fixed`` digests do not depend on the seed
(the seed only reorders or re-seeds work), so ``run.py`` compares them to
``reference.json``; a change that only makes the program faster must leave
them identical.  ``seeded`` digests depend on the seed; ``run.py`` compares
them across the passes of one run, which all use the same seed.

Everything from ``repro`` is imported inside the functions, so that the
imports count toward ``setup_s`` and the traced run's wrappers (see
``layers.py``) intercept calls made through module attributes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import time
from dataclasses import dataclass, field

#: Farm workers for ``farm_campaigns``: the 2-CPU reference host's nproc.
FARM_WORKERS = 2


def digest(value: object) -> str:
    """Exact digest of a JSON-able value (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Checked:
    """Result of checking one pass's outputs."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    fixed: dict[str, str] = field(default_factory=dict)
    seeded: dict[str, str] = field(default_factory=dict)
    #: Exact counts the metrics need (retirements, gates, lanes, ...).
    stats: dict[str, float] = field(default_factory=dict)
    #: (core, program, soc) triples the traced run replays standalone on
    #: the golden ISS and the fused loop to split cosim time.
    cosim_programs: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        """Count one checked operation; record it if it missed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _preload(*modules: str) -> None:
    """Import the modules a pass would import lazily, so that every import
    counts toward ``setup_s`` and none toward ``wall_s``."""
    for module in modules:
        importlib.import_module(module)


def _timed(slices: dict[str, float], name: str, call, *args, **kwargs):
    started = time.perf_counter()
    result = call(*args, **kwargs)
    slices[name] = time.perf_counter() - started
    return result


def _golden(program, soc=None, regs=None, max_instructions=2_000_000,
            **kwargs):
    """Golden-ISS fast-path run: the exit-code and retirement oracle."""
    from repro.sim.golden import GoldenSim

    sim = GoldenSim(program, soc=soc, **kwargs)
    for index, value in (regs or {}).items():
        sim.regs[index] = value
    result = sim.run(max_instructions)
    return result.exit_code, result.instructions, result.halted_by


def _ppa(synth) -> dict:
    return {"mnemonics": list(synth.mnemonics),
            "gates": {gate.value: count
                      for gate, count in sorted(synth.gate_counts.items(),
                                                key=lambda kv: kv[0].value)},
            "area_ge": synth.area_ge, "avg_area_ge": synth.avg_area_ge,
            "fmax_khz": synth.fmax_khz,
            "critical_path_ns": synth.timing.critical_path_ns,
            "avg_power_mw": synth.avg_power_mw}


# ------------------------------------------------------------ flow_sweep

class FlowSweep:
    """Every registered workload through compile -> subset -> RISSP + lint
    gate -> synthesis -> physical, plus the full-ISA baseline: the paper's
    design-space sweep behind Figures 5-10.  No RTL is simulated."""

    name = "flow_sweep"
    TINY = ("crc32", "uart_selftest")

    def setup(self, seed: int, tiny: bool) -> dict:
        from repro.core.flow import RisspFlow
        from repro.workloads import WORKLOADS

        _preload("repro.analysis", "repro.compiler.builtins",
                 "encodings.unicode_escape")
        names = list(self.TINY if tiny else WORKLOADS)
        # The seed orders the sweep; the baseline takes a seeded slot.
        rng = random.Random(seed)
        rng.shuffle(names)
        names.insert(rng.randrange(len(names) + 1), None)
        return {"flow": RisspFlow(), "order": names}

    def run(self, inputs: dict) -> dict:
        flow = inputs["flow"]
        results = []
        for name in inputs["order"]:
            if name is None:
                results.append(flow.full_isa_baseline())
            else:
                results.append(flow.generate(name, run_physical=True))
        return {"results": results, "slices": {}}

    def check(self, inputs: dict, out: dict, oracle: bool) -> Checked:
        checked = Checked()
        results = {result.name: result for result in out["results"]}
        baseline = results["rv32e"].synth.area_ge
        ppa = {}
        for name, result in sorted(results.items()):
            ppa[name] = _ppa(result.synth)
            if result.layout is not None:
                ppa[name]["die_area_mm2"] = result.layout.die_area_mm2
                ppa[name]["impl_fmax_khz"] = result.layout.impl_fmax_khz
            if name == "rv32e":
                continue
            checked.expect(result.layout is not None
                           and result.layout.slack_ok,
                           f"{name}: no timing-clean layout")
            checked.expect(result.synth.area_ge <= baseline,
                           f"{name}: area {result.synth.area_ge:.1f} GE "
                           f"above the rv32e baseline {baseline:.1f} GE")
        checked.fixed["synth_ppa"] = digest(ppa)
        checked.stats["rissps"] = len(results)
        checked.stats["synth_gates"] = sum(
            sum(result.synth.gate_counts.values())
            for result in results.values())
        return checked


# -------------------------------------------------------- verify_kernels

class VerifyKernels:
    """Full verification of long-running compute kernels on their RISSPs:
    RISCOF-analog compliance, lock-step cosim against the golden ISS and an
    RVFI spec check of the golden trace."""

    name = "verify_kernels"
    KERNELS = ("st", "ud", "af_detect")
    TINY = ("crc32",)

    def setup(self, seed: int, tiny: bool) -> dict:
        from repro.core.flow import RisspFlow

        _preload("repro.analysis", "repro.compiler.builtins",
                 "repro.verify.riscof", "repro.verify.rvfi",
                 "repro.sim.golden", "repro.sim.tracing")
        names = list(self.TINY if tiny else self.KERNELS)
        random.Random(seed).shuffle(names)
        return {"flow": RisspFlow(), "order": names}

    def run(self, inputs: dict) -> dict:
        flow = inputs["flow"]
        return {"results": [flow.generate(name, run_verification=True)
                            for name in inputs["order"]],
                "slices": {}}

    def check(self, inputs: dict, out: dict, oracle: bool) -> Checked:
        checked = Checked()
        golden = {}
        ppa = {}
        retired = 0
        for result in sorted(out["results"], key=lambda r: r.name):
            for verdict in ("cosim", "riscof", "rvfi"):
                checked.expect(result.verified.get(verdict) is True,
                               f"{result.name}: {verdict} verdict "
                               f"{result.verified.get(verdict)}")
            exit_code, instructions, halted_by = _golden(result.program)
            checked.expect(halted_by == "ecall",
                           f"{result.name}: golden ISS halted by "
                           f"{halted_by}")
            golden[result.name] = [exit_code, instructions, halted_by]
            ppa[result.name] = _ppa(result.synth)
            retired += instructions
            checked.cosim_programs.append(
                (result.core, result.program, None))
        checked.fixed["golden_exit"] = digest(golden)
        checked.fixed["synth_ppa"] = digest(ppa)
        checked.stats["cosim_retired"] = retired
        checked.stats["synth_gates"] = sum(
            sum(result.synth.gate_counts.values())
            for result in out["results"])
        return checked


# -------------------------------------------------------- farm_campaigns

@dataclass(frozen=True)
class FarmSize:
    mutation_limit: int
    soc_images: tuple[str, ...] | None   # None = every SoC workload
    fuzz_chunks: int
    fleet_lanes: int
    scenarios: int
    #: Retirements per scenario.  A quarter of the CLI default: the rare
    #: interrupt-storm scenarios run to this limit, and at 20000 their
    #: number alone moved the slice by half from one seed to another.
    scenario_budget: int
    probes: bool
    lint_subsets: tuple[str, ...]


class FarmCampaigns:
    """The CLI campaigns through the simulation farm at 2 workers: mutant
    kill matrix, SoC firmware cosim, seeded fuzz cosim, a batched fleet,
    a coverage-guided scenario campaign and a lint sweep."""

    name = "farm_campaigns"
    FULL = FarmSize(mutation_limit=24, soc_images=None, fuzz_chunks=4,
                    fleet_lanes=1024, scenarios=64, scenario_budget=5_000,
                    probes=True,
                    lint_subsets=("crc32", "minver", "af_detect", "rv32e"))
    TINY = FarmSize(mutation_limit=4, soc_images=("sensor_streaming",),
                    fuzz_chunks=1, fleet_lanes=16, scenarios=2,
                    scenario_budget=5_000, probes=False,
                    lint_subsets=("crc32",))

    def setup(self, seed: int, tiny: bool) -> dict:
        from repro.farm import mutation_exercise_target
        from repro.verify.fuzz import derive_seed
        from repro.workloads import SOC_NAMES

        _preload("repro.scenario", "repro.verify.mutation", "repro.analysis",
                 "repro.rtl.fleet", "repro.compiler.builtins",
                 "repro.data.paper", "multiprocessing.popen_fork",
                 "multiprocessing.synchronize")
        size = self.TINY if tiny else self.FULL
        core, program = mutation_exercise_target()
        return {"size": size, "mutation_core": core,
                "mutation_program": program,
                "soc_images": size.soc_images or SOC_NAMES,
                "fuzz_seed": derive_seed(seed, 0),
                "scenario_seed": derive_seed(seed, 1)}

    def run(self, inputs: dict) -> dict:
        import repro.farm as farm
        import repro.scenario as scenario
        from repro.verify import mutation

        size = inputs["size"]
        slices: dict[str, float] = {}
        out: dict = {"slices": slices}
        out["matrix"] = _timed(
            slices, "mutation", mutation.rtl_mutant_kill_matrix,
            inputs["mutation_core"], inputs["mutation_program"],
            backends=("fused",), limit=size.mutation_limit,
            max_instructions=2_000, workers=FARM_WORKERS)
        out["soc_cosim"] = _timed(
            slices, "soc_cosim", farm.cosim_campaign,
            workloads=tuple(inputs["soc_images"]), workers=FARM_WORKERS)
        out["fuzz"] = _timed(
            slices, "fuzz", farm.cosim_campaign,
            fuzz_chunks=size.fuzz_chunks, fuzz_seed=inputs["fuzz_seed"],
            workers=FARM_WORKERS)
        out["fleet"] = _timed(
            slices, "fleet", farm.fleet_campaign, size.fleet_lanes,
            workers=FARM_WORKERS)
        out["scenarios"] = _timed(
            slices, "scenarios", scenario.scenario_campaign,
            count=size.scenarios, base_seed=inputs["scenario_seed"],
            budget=size.scenario_budget, workers=FARM_WORKERS,
            probes=size.probes)
        out["lint"] = _timed(
            slices, "lint", farm.lint_campaign,
            subsets=size.lint_subsets, workers=FARM_WORKERS)
        return out

    def check(self, inputs: dict, out: dict, oracle: bool) -> Checked:
        from repro.farm import (fleet_campaign, fleet_exercise_target,
                                fleet_lane_value, workload_target)
        from repro.farm.campaigns import FLEET_ID_REGISTER, FLEET_MEM_SIZE
        from repro.verify.mutation import rtl_mutant_kill_matrix

        size = inputs["size"]
        checked = Checked()

        matrix = out["matrix"]
        checked.expect(len(matrix) == size.mutation_limit,
                       f"kill matrix has {len(matrix)} mutants, expected "
                       f"{size.mutation_limit}")
        if oracle:
            serial = rtl_mutant_kill_matrix(
                inputs["mutation_core"], inputs["mutation_program"],
                backends=("fused",), limit=size.mutation_limit,
                max_instructions=2_000, workers=1)
            checked.expect(list(serial.items()) == list(matrix.items()),
                           "kill matrix differs from the serial run")
        checked.fixed["kill_matrix"] = digest(list(matrix.items()))
        checked.stats["mutants"] = len(matrix)

        golden = {}
        for name in inputs["soc_images"]:
            checked.expect(out["soc_cosim"].get(f"cosim:{name}", "missing")
                           is None,
                           f"cosim:{name}: "
                           f"{out['soc_cosim'].get(f'cosim:{name}')}")
            core, program, soc = workload_target(name)
            exit_code, instructions, halted_by = _golden(program, soc=soc)
            checked.expect(halted_by == "poweroff",
                           f"{name}: golden ISS halted by {halted_by}")
            golden[name] = [exit_code, instructions, halted_by]
            checked.cosim_programs.append((core, program, soc))
        checked.fixed["soc_golden_exit"] = digest(golden)
        checked.stats["cosim_retired"] = sum(row[1]
                                             for row in golden.values())

        for task_id, verdict in out["fuzz"].items():
            checked.expect(verdict is None, f"{task_id}: {verdict}")
        checked.expect(len(out["fuzz"]) == size.fuzz_chunks,
                       f"{len(out['fuzz'])} fuzz verdicts, expected "
                       f"{size.fuzz_chunks}")
        checked.seeded["fuzz_verdicts"] = digest(out["fuzz"])

        rows = out["fleet"]
        _, program = fleet_exercise_target()
        expected = {}
        for lane, exit_code, instructions, halted_by in rows:
            value = fleet_lane_value(lane)
            if value not in expected:
                expected[value] = _golden(
                    program, regs={FLEET_ID_REGISTER: value},
                    max_instructions=1_000, mem_size=FLEET_MEM_SIZE)
            got = (exit_code, instructions, halted_by)
            checked.expect(got == expected[value],
                           f"fleet lane {lane}: {got} vs golden "
                           f"{expected[value]}")
        checked.expect(len(rows) == size.fleet_lanes,
                       f"{len(rows)} fleet rows, expected "
                       f"{size.fleet_lanes}")
        if oracle:
            checked.expect(fleet_campaign(size.fleet_lanes, workers=1)
                           == rows, "fleet rows differ from the serial run")
        checked.fixed["fleet_rows"] = digest(rows)
        checked.stats["fleet_lanes"] = len(rows)
        checked.stats["fleet_retired"] = sum(row[2] for row in rows)

        result = out["scenarios"]
        for row in result["failures"]:
            checked.expect(False, f"scenario {row['scenario_id']}: "
                                  f"{row['verdict']}")
        summed = {name: 0 for name in result["coverage"].counts}
        for row in result["scenarios"]:
            checked.expect(row["failure"] is None,
                           f"scenario {row['scenario_id']} failed")
            for name, count in row["bins"].items():
                summed[name] += count
        checked.expect(summed == dict(result["coverage"].counts),
                       "merged coverage map differs from the row sum")
        checked.seeded["scenario_bins"] = digest(
            dict(result["coverage"].counts))
        checked.seeded["scenario_rows"] = digest(
            [[row["scenario_id"], row["halted_by"], row["instructions"],
              row["exit_code"]] for row in result["scenarios"]])
        checked.stats["scenarios"] = len(result["scenarios"])

        lint = out["lint"]
        for finding in lint["findings"]:
            checked.expect(False, f"lint {finding.rule} "
                                  f"{finding.location}: {finding.detail}")
        checked.expect(lint["targets"]["cores"] == len(size.lint_subsets),
                       f"lint stitched {lint['targets']['cores']} cores")
        checked.fixed["lint"] = digest(
            {"findings": len(lint["findings"]),
             "waived": sorted([finding.rule, finding.location]
                              for finding, _ in lint["waived"]),
             "targets": lint["targets"]})
        checked.stats["lint_targets"] = lint["tasks"]
        return checked


WORKLOADS = {workload.name: workload
             for workload in (FlowSweep(), VerifyKernels(), FarmCampaigns())}


def workload_rates(name: str, wall_s: float, slices: dict,
                   stats: dict) -> dict[str, float]:
    """The workload-level rates of one pass; a rate is 0 on a workload
    that does not do that kind of work."""
    def per(count_key: str, seconds: float) -> float:
        return stats.get(count_key, 0) / seconds if seconds else 0.0

    return {
        "flow.rissps_per_s": per("rissps", wall_s)
        if name == "flow_sweep" else 0.0,
        "verify.ret_per_s": per("cosim_retired", wall_s)
        if name == "verify_kernels" else 0.0,
        "campaign.mutants_per_s": per("mutants", slices.get("mutation", 0)),
        "campaign.soc_cosim_ret_per_s": per("cosim_retired",
                                            slices.get("soc_cosim", 0)),
        "campaign.fleet_lane_ret_per_s": per("fleet_retired",
                                             slices.get("fleet", 0)),
        "campaign.scenarios_per_s": per("scenarios",
                                        slices.get("scenarios", 0)),
        "campaign.lint_s": slices.get("lint", 0.0),
    }

