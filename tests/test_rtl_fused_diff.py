"""Differential fuzz harness: fused cycle loop vs per-cycle backends.

PR 4 fused the whole RTL cycle loop into one generated function
(:func:`repro.rtl.compiled.compile_core`).  The speedup is only
trustworthy if the fused fast path is observationally identical to the
oracles, so this suite runs the same programs lock-step on all three
backends — ``fused``, per-cycle ``compiled`` (PR 2) and the tree-walking
``interpreter`` — and compares the complete columnar RVFI trace
(including the ``trap``/``intr`` flags), the halt cause and the exit
code, row by row:

* **randomized programs** — a seeded generator mixes every ALU/shift/
  compare op with memory round-trips and bounded loops.  Since PR 6 the
  generators live in :mod:`repro.verify.fuzz` and every chunk's seed is
  derived from one base seed via :func:`repro.verify.fuzz.derive_seed` —
  the exact seed stream the multi-process farm shards, so a farm run
  reproduces this suite bit-for-bit and any failure here names the same
  ``(task-id, seed)`` pair a farm failure would;
* **randomized trap firmware** — handler installs, Zicsr traffic,
  ecall round-trips through the hardware trap unit;
* **real workloads from every registry category** — a MicroC-compiled
  embench kernel and extreme-edge app (bounded-prefix lock-step, so the
  interpreter leg stays cheap) plus the event-driven SoC firmware images
  with their MMIO platform and timer interrupts, run to halt;
* **fault injection** — corrupted fused-side rows must surface as cosim
  mismatches, proving the chunked fused compare path actually gates;
* **backend selection** — ``REPRO_RTL_BACKEND`` must pick each backend,
  and only ``fused`` may arm the fused loop.
"""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import build_rissp
from repro.rtl import core_sim
from repro.rtl.core_sim import (
    COSIM_FIELDS,
    CosimMismatch,
    RisspSim,
    cosimulate,
)
from repro.sim.tracing import RvfiTrace
from repro.verify.fuzz import (
    FUZZ_BASE_SEED,
    derive_seed,
    fuzz_chunk_seeds,
    random_program,
    random_trap_program,
)
from repro.workloads import WORKLOADS, build_program

BACKENDS = ("fused", "compiled", "interpreter")

#: Per-chunk seeds of the fuzz campaign — (chunk index, derived seed)
#: pairs, so every parametrized test id doubles as the replay recipe.
FUZZ_CHUNKS = list(enumerate(fuzz_chunk_seeds(FUZZ_BASE_SEED, 8)))
TRAP_FUZZ_CHUNKS = list(enumerate(fuzz_chunk_seeds(FUZZ_BASE_SEED + 1, 4)))

FULL_SUBSET = [d.mnemonic for d in INSTRUCTIONS]
FULL_TRAP_SUBSET = FULL_SUBSET + ["mret"]


@pytest.fixture(scope="module")
def full_core():
    return build_rissp(FULL_SUBSET)


@pytest.fixture(scope="module")
def trap_core():
    return build_rissp(FULL_TRAP_SUBSET)


def _rows(result):
    trace = result.trace
    return [trace.row(index) for index in range(len(trace))]


def _assert_lockstep(core, program, max_instructions, soc=None,
                     context=""):
    """Run on every backend with full tracing; all rows must be equal."""
    results = {}
    for backend in BACKENDS:
        sim = RisspSim(core, program, trace=True, backend=backend, soc=soc)
        results[backend] = sim.run(max_instructions)
    reference = results["interpreter"]
    ref_rows = _rows(reference)
    for backend in ("fused", "compiled"):
        result = results[backend]
        assert (result.exit_code, result.instructions, result.halted_by) \
            == (reference.exit_code, reference.instructions,
                reference.halted_by), f"{context}: {backend} outcome"
        rows = _rows(result)
        assert len(rows) == len(ref_rows), f"{context}: {backend} length"
        for index, (got, want) in enumerate(zip(rows, ref_rows)):
            if got != want:
                fields = [(name, a, b) for name, a, b in
                          zip(RvfiTrace.FIELDS, got, want) if a != b]
                raise AssertionError(
                    f"{context}: {backend} row {index} diverges: {fields}")
    return reference


# ---------------------------------------------------------------- fuzzing

@pytest.mark.parametrize("chunk, seed", FUZZ_CHUNKS,
                         ids=[f"chunk{i}-seed={s:#x}"
                              for i, s in FUZZ_CHUNKS])
def test_random_programs_lockstep_on_all_backends(chunk, seed, full_core):
    program = assemble(random_program(seed))
    reference = _assert_lockstep(
        full_core, program, 20_000,
        context=f"fuzz[{chunk:03d}] seed={seed:#x}")
    assert reference.halted_by == "ecall"
    # The reference itself must match the golden ISS (fused chunked cosim).
    assert cosimulate(full_core, program, max_instructions=20_000,
                      backend="fused") is None


@pytest.mark.parametrize("chunk, seed", TRAP_FUZZ_CHUNKS,
                         ids=[f"chunk{i}-seed={s:#x}"
                              for i, s in TRAP_FUZZ_CHUNKS])
def test_random_trap_firmware_lockstep_on_all_backends(chunk, seed,
                                                       trap_core):
    program = assemble(random_trap_program(seed))
    reference = _assert_lockstep(
        trap_core, program, 20_000,
        context=f"trap-fuzz[{chunk:03d}] seed={seed:#x}")
    assert reference.halted_by == "ecall"
    rows = _rows(reference)
    assert any(row[RvfiTrace.FIELDS.index("trap")] for row in rows), \
        "trap firmware never trapped"
    assert cosimulate(trap_core, program, max_instructions=20_000,
                      backend="fused") is None


# ----------------------------------------------- workload categories

@pytest.mark.parametrize("name", ["crc32", "armpit"])
def test_compiled_workload_prefix_lockstep(name, full_core):
    """One embench kernel and one extreme-edge app (MicroC-compiled):
    bounded-prefix lock-step keeps the interpreter leg affordable."""
    from repro.compiler import compile_to_program

    workload = WORKLOADS[name]
    program = compile_to_program(workload.source, "O2").program
    _assert_lockstep(full_core, program, 1_200, context=name)


@pytest.mark.parametrize("name, limit", [("uart_selftest", 8_000),
                                         ("label_refresh", 8_000),
                                         ("sensor_streaming", 1_600)])
def test_soc_firmware_lockstep_on_all_backends(name, limit, trap_core):
    """Event-driven SoC firmware (timer ISR, wfi, MMIO devices — and the
    two-source all-C streaming image) on all three backends — trap/intr
    columns included.  The asm images run to halt; the streaming image
    runs a bounded prefix so the interpreter leg stays affordable (its
    full run is fused-cosimulated in test_soc)."""
    workload = WORKLOADS[name]
    program = build_program(workload)
    reference = _assert_lockstep(trap_core, program, limit,
                                 soc=workload.soc_spec, context=name)
    if name == "sensor_streaming":
        intr_slot = RvfiTrace.FIELDS.index("intr")
        codes = {row[intr_slot] for row in _rows(reference)
                 if row[intr_slot]}
        assert codes == {7, 16}, codes      # both sources inside the prefix
    else:
        assert reference.halted_by in ("ecall", "poweroff")


def test_af_detect_irq_fused_matches_compiled(trap_core):
    """The long interrupt-driven firmware (all-MicroC since PR 5): fused
    vs per-cycle compiled to halt (the interpreter leg is covered by the
    shorter images above)."""
    workload = WORKLOADS["af_detect_irq"]
    program = build_program(workload)
    results = {}
    for backend in ("fused", "compiled"):
        sim = RisspSim(trap_core, program, trace=True, backend=backend,
                       soc=workload.soc_spec)
        results[backend] = sim.run(200_000)
    fused, compiled = results["fused"], results["compiled"]
    assert (fused.exit_code, fused.instructions, fused.halted_by) == \
        (compiled.exit_code, compiled.instructions, compiled.halted_by)
    assert _rows(fused) == _rows(compiled)
    intr_slot = RvfiTrace.FIELDS.index("intr")
    assert any(row[intr_slot] for row in _rows(fused)), \
        "firmware took no interrupts"


# ---------------------------------------------- two-source arbitration

#: Both sources armed; the sensor delivers every 50 ticks and the timer
#: fires every 100, so at t=100, 200, ... both levels are high inside the
#: same retirement window and the arbiter's fixed priority (timer above
#: sensor) decides the entry order.
TWO_SOURCE_RACE = """
.equ PWR,      0x40000
.equ MTIMECMP, 0x40108
.equ SENSOR,   0x40300
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, 100
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 0x10080           # mie = SDIE | MTIE
    csrw mie, t0
    csrsi mstatus, 8
    li s0, 0                 # timer entries
    li s1, 0                 # sensor entries
loop:
    wfi
    li t1, 4
    blt s0, t1, loop
done:
    csrci mstatus, 8
    slli t1, s0, 8
    or t1, t1, s1
    li t0, PWR
    sw t1, 0(t0)
hang:
    j hang
handler:
    csrr t0, mcause
    bgez t0, back            # (exceptions: just return)
    slli t0, t0, 1           # drop the interrupt bit
    srli t0, t0, 1
    li t1, 7
    beq t0, t1, timer
sensor:
    li t0, SENSOR
    lw t1, 4(t0)             # INDEX
    addi t1, t1, 1
    sw t1, 12(t0)            # ACK = INDEX + 1: drop the level
    addi s1, s1, 1
    j back
timer:
    li t0, MTIMECMP
    lw t1, 0(t0)
    addi t1, t1, 100
    sw t1, 0(t0)
    addi s0, s0, 1
back:
    mret
"""

#: Sensor waveform for the race image: a sample every 50 ticks.
RACE_SPEC_KWARGS = dict(sensor_samples=tuple(range(1, 40)),
                        sensor_ticks_per_sample=50)


def test_two_source_race_lockstep_on_all_backends(trap_core):
    """Timer and sensor pending in the same retirement window: all three
    RTL backends and the golden ISS must take the two entries in the
    same (fixed-priority) order, visible in the intr cause codes."""
    from repro.soc import SocSpec

    program = assemble(TWO_SOURCE_RACE)
    spec = SocSpec(**RACE_SPEC_KWARGS)
    reference = _assert_lockstep(trap_core, program, 8_000, soc=spec,
                                 context="two-source-race")
    assert reference.halted_by == "poweroff"
    intr_slot = RvfiTrace.FIELDS.index("intr")
    codes = [row[intr_slot] for row in _rows(reference)
             if row[intr_slot]]
    assert 7 in codes and 16 in codes, codes
    # Races (both levels high at the same retirement): the timer must
    # win, with the sensor entry immediately after the handler's mret —
    # at t=100k the sensor sample (every 50) and the timer (every 100)
    # are both due, so every timer entry is a race here.
    first_race = codes.index(7)
    assert codes[first_race + 1] == 16, codes
    # And the golden reference agrees retirement-by-retirement.
    assert cosimulate(trap_core, program, max_instructions=8_000,
                      soc=SocSpec(**RACE_SPEC_KWARGS),
                      backend="fused") is None


# ------------------------------------------------- fused cosim gating

def test_fused_cosim_detects_injected_row_corruption(full_core,
                                                     monkeypatch):
    """Mirror of the per-cycle read-effect injection tests: poke one
    recorded field in the fused chunk and the chunked compare must report
    exactly that field."""
    original = RisspSim._fused_run

    def corrupted(self, count, limit, trace):
        halted, reason, new_count = original(self, count, limit, trace)
        if trace is not None and len(trace):
            trace.poke(0, "rd_wdata", trace.peek(0, "rd_wdata") ^ 4)
        return halted, reason, new_count

    monkeypatch.setattr(RisspSim, "_fused_run", corrupted)
    program = assemble(random_program(derive_seed(FUZZ_BASE_SEED, 1)))
    mismatch = cosimulate(full_core, program, max_instructions=20_000,
                          backend="fused")
    assert mismatch is not None and mismatch.field == "rd_wdata"
    assert mismatch.rtl_value == mismatch.golden_value ^ 4


def test_fused_cosim_reports_limit_exhaustion(full_core):
    program = assemble(".text\nmain:\n j main\n")
    mismatch = cosimulate(full_core, program, max_instructions=100,
                          backend="fused")
    assert mismatch is not None and mismatch.field == "limit"
    assert mismatch.index == 100


# ------------------------------------ chunked compare verdict parity

#: The verdict-parity tests shrink the chunk schedule to chunks of 16,
#: 16, 32, then 64 rows, so every kind of chunk boundary sits a few dozen
#: retirements in (the compare logic does not depend on the chunk sizes,
#: only on where a row falls relative to a boundary).
SMALL_FIRST_CHUNK = 16
SMALL_CHUNK = 64

#: A loop of ALU, store and sub-word load traffic: ~300 retirements, so
#: row 0, both sides of each kind of chunk boundary and the halt row are
#: distinct rows in distinct chunks.
CHUNK_PROGRAM = """.text
main:
    addi sp, sp, -16
    li t0, 50
    li a0, 0
loop:
    addi a0, a0, 3
    sw a0, 4(sp)
    lbu a1, 4(sp)
    add a0, a0, a1
    addi t0, t0, -1
    bnez t0, loop
    addi sp, sp, 16
    ret
"""

#: The same kind of loop, then a load far outside RAM: a refusal after a
#: clean prefix that spans more than one chunk.
REFUSAL_PROGRAM = """.text
main:
    li t0, 30
loop:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop
    li t1, 0x7ffffff0
fault:
    lw a0, 0(t1)
    ret
"""


def _small_chunks(patch):
    patch.setattr(core_sim, "COSIM_FIRST_CHUNK", SMALL_FIRST_CHUNK)
    patch.setattr(core_sim, "COSIM_CHUNK", SMALL_CHUNK)


def _cosim_outcome(core, program, backend):
    """(verdict, golden rows handed out) of one cosimulation; a refusal's
    verdict is its exception type and message."""
    from repro.sim.golden import SimulationError
    from repro.sim.memory import MemoryError_

    golden_rows = RvfiTrace()
    try:
        verdict = cosimulate(core, program, max_instructions=20_000,
                             golden_trace_out=golden_rows, backend=backend)
    except (SimulationError, MemoryError_) as exc:
        verdict = (type(exc).__name__, str(exc))
    return verdict, list(golden_rows.rows())


def _chunked_vs_per_cycle(core, program):
    """Outcome on the chunked fused path, asserted equal to the per-cycle
    compiled walk's outcome."""
    fused = _cosim_outcome(core, program, "fused")
    assert fused == _cosim_outcome(core, program, "compiled")
    return fused


def _corrupt_rtl_row(patch, target, field):
    """Flip one bit of ``field`` in RTL retirement ``target`` — in the
    fused chunk trace and in the per-cycle ring row alike."""
    fused_run, cycle = RisspSim._fused_run, RisspSim._cycle

    def flip(trace, index):
        trace.poke(index, field, trace.peek(index, field) ^ 1)

    def corrupted_run(self, count, limit, trace):
        outcome = fused_run(self, count, limit, trace)
        if trace is not None and count <= target < count + len(trace):
            flip(trace, target - count)
        return outcome

    def corrupted_cycle(self, order, sink=None):
        outcome = cycle(self, order, sink)
        if sink is not None and order == target:
            flip(sink, -1)
        return outcome

    patch.setattr(RisspSim, "_fused_run", corrupted_run)
    patch.setattr(RisspSim, "_cycle", corrupted_cycle)


def _patch_golden(patch, target, outcome):
    """Make the golden reference's retirement ``target`` report
    ``outcome`` (a halt flag) or raise it (an exception) — on the
    per-cycle walk's ``retire_one`` and on the fused path's
    ``retire_chunk`` alike."""
    from repro.sim.golden import GoldenSim

    retire_one, retire_chunk = GoldenSim.retire_one, GoldenSim.retire_chunk

    def patched(self, order, sink=None):
        if order == target and isinstance(outcome, Exception):
            raise outcome
        halted, reason = retire_one(self, order, sink)
        if order == target:
            return outcome, "ecall" if outcome else ""
        return halted, reason

    def patched_chunk(self, order, stop, sink):
        if not order <= target < stop:
            return retire_chunk(self, order, stop, sink)
        order, halted, reason = retire_chunk(self, order, target, sink)
        if halted:
            return order, halted, reason
        if isinstance(outcome, Exception):
            raise outcome
        order, _, _ = retire_chunk(self, target, target + 1, sink)
        if outcome:
            return order, True, "ecall"
        return retire_chunk(self, order, stop, sink)

    patch.setattr(GoldenSim, "retire_one", patched)
    patch.setattr(GoldenSim, "retire_chunk", patched_chunk)


@pytest.mark.parametrize("field", COSIM_FIELDS)
def test_chunked_cosim_divergence_matches_per_cycle_walk(field, full_core,
                                                         monkeypatch):
    """A divergence in any compared column, at row 0, on either side of
    the first and of a full-size chunk boundary, and at the halt row: the
    column compare must fall back to exactly the per-cycle verdict, and
    the golden trace handed out must end at the divergent row."""
    from repro.sim.golden import GoldenSim

    _small_chunks(monkeypatch)
    program = assemble(CHUNK_PROGRAM)
    clean = GoldenSim(program, trace=True).run()
    halt_row = clean.instructions - 1
    assert halt_row > 2 * SMALL_CHUNK
    for target in (0, SMALL_FIRST_CHUNK - 1, SMALL_FIRST_CHUNK,
                   SMALL_CHUNK - 1, SMALL_CHUNK, halt_row):
        with monkeypatch.context() as patch:
            _corrupt_rtl_row(patch, target, field)
            mismatch, golden_rows = _chunked_vs_per_cycle(full_core,
                                                          program)
        want = clean.trace.peek(target, field)
        assert mismatch == CosimMismatch(target, field, want ^ 1, want)
        assert golden_rows == list(clean.trace.rows())[:target + 1]


@pytest.mark.parametrize("case", ["golden_halts_first", "rtl_halts_first",
                                  "golden_raises"])
def test_chunked_cosim_halt_and_refusal_order(case, full_core,
                                              monkeypatch):
    from repro.sim.golden import GoldenSim, SimulationError

    _small_chunks(monkeypatch)
    program = assemble(CHUNK_PROGRAM)
    clean = GoldenSim(program, trace=True).run()
    halt_row = clean.instructions - 1
    target, outcome, want = {
        "golden_halts_first": (SMALL_CHUNK + 5, True,
                               CosimMismatch(SMALL_CHUNK + 5, "halt", 0, 1)),
        "rtl_halts_first": (halt_row, False,
                            CosimMismatch(halt_row, "halt", 1, 0)),
        "golden_raises": (SMALL_CHUNK + 5, SimulationError("injected"),
                          ("SimulationError", "injected")),
    }[case]
    _patch_golden(monkeypatch, target, outcome)
    verdict, golden_rows = _chunked_vs_per_cycle(full_core, program)
    assert verdict == want
    # A golden exception retires no row; a halt verdict's row is kept.
    kept = target if case == "golden_raises" else target + 1
    assert golden_rows == list(clean.trace.rows())[:kept]


def test_chunked_cosim_rtl_refusal_after_clean_prefix(full_core,
                                                      monkeypatch):
    _small_chunks(monkeypatch)
    program = assemble(REFUSAL_PROGRAM)
    verdict, golden_rows = _chunked_vs_per_cycle(full_core, program)
    assert verdict[0] == "MemoryError_"
    # The refusing load retired on neither side; every row before it did.
    assert len(golden_rows) > SMALL_CHUNK
    next_pc = golden_rows[-1][RvfiTrace.FIELDS.index("pc_wdata")]
    assert next_pc == program.symbol("fault")


def test_chunked_cosim_clean_run_hands_out_full_golden_trace(full_core):
    from repro.sim.golden import GoldenSim

    program = assemble(CHUNK_PROGRAM)
    clean = GoldenSim(program, trace=True).run()
    verdict, golden_rows = _chunked_vs_per_cycle(full_core, program)
    assert verdict is None
    assert golden_rows == list(clean.trace.rows())


# ------------------------------------------------- backend selection

def test_env_var_selects_every_backend(full_core, monkeypatch):
    program = assemble(random_program(derive_seed(FUZZ_BASE_SEED, 2)))
    outcomes = {}
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_RTL_BACKEND", backend)
        sim = RisspSim(full_core, program)
        assert sim.rtl.backend == backend
        # Only the fused backend arms the whole-cycle loop; the per-cycle
        # oracles must keep driving _cycle.
        assert (sim._fused is not None) == (backend == "fused")
        result = sim.run(20_000)
        outcomes[backend] = (result.exit_code, result.instructions,
                             result.halted_by)
    assert outcomes["fused"] == outcomes["compiled"] == \
        outcomes["interpreter"]


def test_constructor_backend_beats_env_var(full_core, monkeypatch):
    monkeypatch.setenv("REPRO_RTL_BACKEND", "interpreter")
    sim = RisspSim(full_core,
                   assemble(random_program(derive_seed(FUZZ_BASE_SEED, 3))),
                   backend="fused")
    assert sim.rtl.backend == "fused" and sim._fused is not None


def test_rissp_cores_advertise_fused_interface(full_core, trap_core):
    from repro.rtl import core_fusable

    for core in (full_core, trap_core):
        assert core.meta["fusable"] and core_fusable(core)
