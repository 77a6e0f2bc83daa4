"""Differential tests of the golden ISS's chunk recorder.

:meth:`GoldenSim.retire_chunk` records RVFI rows on the decoded executors
and replays only what its recording plans cannot cover through
:meth:`GoldenSim.retire_one`.  The per-retirement ``retire_one`` walk is
the reference: at every chunk size the recorder must produce the same
RVFI columns, the same run outcome (instructions, halt cause, exit code,
or the same exception) and the same final architectural state.
"""

import pytest

from repro.isa.assembler import assemble
from repro.isa.encoding import Instruction, encode
from repro.sim import CsrFile, GoldenSim
from repro.sim.tracing import RvfiTrace
from repro.soc import SocSpec
from repro.workloads import ALL_NAMES, SOC_NAMES, build_program, get

from test_sim_decoded import _self_modifying_program

#: Chunk sizes: single rows, an odd size whose boundaries fall anywhere,
#: the cosimulation's first chunk and its full chunk.
CHUNK_SIZES = (1, 7, 64, 4096)

#: Retirement cap of the workload comparisons.  Short kernels halt within
#: it; long ones stop at the cap, mid-chunk for every size above 1.
WORKLOAD_LIMIT = 20_000


def _state(sim):
    """Final architectural state.  ``mip`` and the timer's ``mtime`` are
    left out: both are refreshed from the SoC clock before every read
    of them, so between reads only the reflective path keeps them
    current."""
    csr = tuple(getattr(sim.csr, name) for name in CsrFile.__slots__
                if name != "mip")
    state = [list(sim.regs), sim.pc, csr, bytes(sim.memory.raw)]
    if sim.soc is not None:
        soc = sim.soc
        state += [soc.mtime_base, soc.timer.mtimecmp, bytes(soc.uart.output)]
    return state


def _outcome(sim, count, halted_by, error, trace):
    exit_code = sim._poweroff_code if halted_by == "poweroff" \
        else sim.read_reg(10)
    columns = {name: list(trace.column(name)) for name in RvfiTrace.FIELDS}
    return {"instructions": count, "halted_by": halted_by,
            "exit_code": exit_code,
            "error": None if error is None
            else (type(error).__name__, str(error)),
            "state": _state(sim), "columns": columns}


def _walk(program, soc, limit):
    """Reference: one ``retire_one`` call per retirement."""
    sim = GoldenSim(program, trace=True, soc=soc)
    trace = RvfiTrace()
    count, halted_by, error = 0, "limit", None
    try:
        while count < limit:
            halted, reason = sim.retire_one(count, trace)
            count += 1
            if halted:
                halted_by = reason
                break
    except Exception as exc:
        error = exc
    return _outcome(sim, count, halted_by, error, trace)


def _chunked(program, soc, limit, size):
    """``retire_chunk`` calls of at most ``size`` retirements each."""
    sim = GoldenSim(program, trace=True, soc=soc)
    trace = RvfiTrace()
    count, halted, reason, error = 0, False, "", None
    try:
        while count < limit and not halted:
            next_count, halted, reason = sim.retire_chunk(
                count, min(count + size, limit), trace)
            assert next_count == len(trace) > count
            count = next_count
    except Exception as exc:
        error = exc
        count = len(trace)
    return _outcome(sim, count, reason if halted else "limit", error, trace)


def _recorded_run(program, soc, limit):
    """``GoldenSim(trace=True).run()``: the recorded path end to end."""
    sim = GoldenSim(program, trace=True, soc=soc)
    try:
        result = sim.run(limit)
    except Exception as exc:
        pytest.fail(f"recorded run raised {exc!r}")
    return _outcome(sim, result.instructions, result.halted_by, None,
                    result.trace)


def _assert_same(program, soc=None, limit=20_000):
    """Every chunk size (and the recorded ``run``) against the walk;
    returns the walk's outcome."""
    want = _walk(program, soc, limit)
    for size in CHUNK_SIZES:
        got = _chunked(program, soc, limit, size)
        for key in want:
            assert got[key] == want[key], (size, key)
    if want["error"] is None:
        got = _recorded_run(program, soc, limit)
        for key in want:
            assert got[key] == want[key], ("run", key)
    return want


# ------------------------------------------------------------ workloads

@pytest.mark.parametrize("name", ALL_NAMES + SOC_NAMES)
def test_workload_matches_retire_one_walk(name):
    want = _assert_same(build_program(name), get(name).soc_spec,
                        WORKLOAD_LIMIT)
    assert want["error"] is None
    assert want["instructions"] > 0


def test_self_modifying_program_matches_walk():
    want = _assert_same(_self_modifying_program())
    assert want["exit_code"] == 101


# --------------------------------------------------------- hand programs

def _word(mnemonic, **fields):
    return f"    .word {encode(Instruction(mnemonic, **fields))}\n"


LOADS = """.text
main:
    li t0, 0x8081F2F3
    sw t0, 0(sp)
    li s0, 3
again:
    lw zero, 0(sp)
    lb a1, 0(sp)
    lbu a2, 1(sp)
    lh a3, 2(sp)
    lhu a4, 2(sp)
    mv t1, sp
    lw t1, 0(t1)
    mv t2, sp
    lbu t2, 3(t2)
    li t0, -1
    sb t0, 5(sp)
    sh t0, 6(sp)
    lw a5, 4(sp)
    addi s0, s0, -1
    bnez s0, again
    add a0, a1, a2
    ret
"""

#: The fault programs run the faulting instruction cleanly first, so the
#: fault is raised by its cached executor, not on the decoding visit, and
#: a recorded row sits between the last replay and the fault.
MISALIGNED_LOAD = """.text
main:
    addi t0, sp, -64
    li t1, 3
loop:
    addi t1, t1, -1
    lw a0, 0(t0)
    addi t0, t0, 6
    bnez t1, loop
    ret
"""

MISALIGNED_STORE = """.text
main:
    addi t0, sp, -64
    li t1, 3
loop:
    addi t1, t1, -1
    sh t1, 0(t0)
    addi t0, t0, 3
    bnez t1, loop
    ret
"""

MISALIGNED_BRANCH = ".text\nmain:\n    li a1, 1\nloop:\n    addi a2, a2, 1\n" \
    + _word("beq", rs1=11, rs2=0, imm=2) \
    + "    li a1, 0\n    j loop\n"

#: A jal target is static: it faults on its first (decoding) visit.
MISALIGNED_JAL = ".text\nmain:\n    li a0, 5\n" \
    + _word("jal", rd=1, imm=6) + "    ret\n"

MISALIGNED_JALR = """.text
main:
    la t0, first
loop:
    addi t1, t1, 1
    jalr ra, 0(t0)
first:
    addi t0, t0, 2
    j loop
"""

ECALL_HALT = ".text\nmain:\n    li a0, 7\n    ecall\n"

EBREAK_HALT = ".text\nmain:\n    li a0, 3\n    ebreak\n"

ECALL_EBREAK_TRAPS = """.text
main:
    la t0, handler
    csrw mtvec, t0
    li a0, 1
    ecall
    ebreak
handler:
    csrr t0, mcause
    li t1, 3
    beq t0, t1, stop
    li a0, 42
    csrr t0, mepc
    addi t0, t0, 4
    csrw mepc, t0
    mret
stop:
    csrw mtvec, x0
    ebreak
"""

ILLEGAL_TRAP = """.text
main:
    la t0, handler
    csrw mtvec, t0
    la t1, bad
    jr t1
handler:
    csrr a0, mcause
    csrr a1, mtval
    csrw mtvec, x0
    ecall
bad:
    .word 0xFFFFFFFF
"""

ILLEGAL_RAISE = ".text\nmain:\n    li a0, 1\n    .word 0xFFFFFFFF\n"

CSR_OPS = """.text
main:
    li t0, 0x55
    csrw mscratch, t0
    csrrs a1, mscratch, t0
    li t1, 0x0F
    csrrc a2, mscratch, t1
    csrrwi a3, mscratch, 9
    csrrsi a4, mscratch, 6
    csrrci a5, mscratch, 1
    csrr a0, mscratch
    la t0, after
    csrw mepc, t0
    mret
    li a0, 99
after:
    add a0, a0, a5
    wfi
    ret
"""

#: A busy loop the timer interrupts three times mid-flight (the fire
#: index falls inside chunks), then a poweroff store.
TIMER_BUSY = """
.equ PWR,      0x40000
.equ MTIME,    0x40100
.equ MTIMECMP, 0x40108
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, 50
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 128
    csrw mie, t0
    csrsi mstatus, 8
    li s0, 0
    li s1, 0
spin:
    addi s1, s1, 1
    sw s1, 0(sp)
    lw a1, 0(sp)
    li a2, 3
    blt s0, a2, spin
    li t0, PWR
    sw s1, 0(t0)
handler:
    addi s0, s0, 1
    li t0, MTIME
    lw t1, 0(t0)
    addi t1, t1, 37
    li t0, MTIMECMP
    sw t1, 0(t0)
    mret
"""

#: Interrupts taken out of wfi: the clock fast-forwards on a replay.
TIMER_WFI = """
.equ PWR,      0x40000
.equ MTIME,    0x40100
.equ MTIMECMP, 0x40108
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, 100
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 128
    csrw mie, t0
    csrsi mstatus, 8
    li s0, 0
loop:
    wfi
    li t1, 5
    beq s0, t1, done
    j loop
done:
    li t0, PWR
    sw s0, 0(t0)
hang:
    j hang
handler:
    addi s0, s0, 1
    li t0, MTIME
    lw t1, 0(t0)
    addi t1, t1, 100
    li t0, MTIMECMP
    sw t1, 0(t0)
    mret
"""

UART_POWEROFF = """
.equ PWR,  0x40000
.equ UART, 0x40200
.text
main:
    li t0, UART
    lw t1, 4(t0)
    beq t1, x0, main
    li t2, 'h'
    sw t2, 0(t0)
    li t2, 'i'
    sw t2, 0(t0)
    li t0, PWR
    li t1, 123
    sw t1, 0(t0)
"""

MMIO_FAULT = """
.equ MTIME, 0x40100
.text
main:
    li a0, 1
    li t0, MTIME
    lh a0, 0(t0)
    ret
"""

#: Runs ``target`` three times, patches it in place, runs the patched
#: word three more times: decoded ops and their recording plans must not
#: outlive the store that rewrote them.
SELF_MODIFYING_LOOP = f""".text
main:
    li a0, 0
    li a3, 0
    li a2, {encode(Instruction("xori", rd=10, rs1=10, imm=-256))}
    la a1, target
loop:
target:
    addi a0, a0, 1
    addi a3, a3, 1
    li a4, 3
    bne a3, a4, skip
    sw a2, 0(a1)
skip:
    li a4, 6
    blt a3, a4, loop
    ret
"""

#: ~5000 retirements: long enough to cross every chunk size many times.
LONG_LOOP = """.text
main:
    li t0, 1000
    li a0, 0
loop:
    addi a0, a0, 3
    sw a0, 8(sp)
    lbu a1, 8(sp)
    addi t0, t0, -1
    bnez t0, loop
    ret
"""

#: name -> (source, soc, expected halt cause or exception type).
HAND_PROGRAMS = {
    "loads": (LOADS, None, "ecall"),
    "misaligned_load": (MISALIGNED_LOAD, None, "MemoryError_"),
    "misaligned_store": (MISALIGNED_STORE, None, "MemoryError_"),
    "misaligned_branch": (MISALIGNED_BRANCH, None, "SpecError"),
    "misaligned_jal": (MISALIGNED_JAL, None, "SpecError"),
    "misaligned_jalr": (MISALIGNED_JALR, None, "SpecError"),
    "ecall_halt": (ECALL_HALT, None, "ecall"),
    "ebreak_halt": (EBREAK_HALT, None, "ebreak"),
    "ecall_ebreak_traps": (ECALL_EBREAK_TRAPS, None, "ebreak"),
    "illegal_trap": (ILLEGAL_TRAP, None, "ecall"),
    "illegal_raise": (ILLEGAL_RAISE, None, "SimulationError"),
    "csr_mret_wfi": (CSR_OPS, None, "wfi"),
    "timer_busy": (TIMER_BUSY, SocSpec(), "poweroff"),
    "timer_wfi": (TIMER_WFI, SocSpec(), "poweroff"),
    "uart_poweroff": (UART_POWEROFF, SocSpec(), "poweroff"),
    "mmio_fault": (MMIO_FAULT, SocSpec(), "MemoryError_"),
    "long_loop": (LONG_LOOP, None, "ecall"),
    "self_modifying_loop": (SELF_MODIFYING_LOOP, None, "ecall"),
}


@pytest.mark.parametrize("name", sorted(HAND_PROGRAMS))
def test_hand_program_matches_retire_one_walk(name):
    source, soc, expected = HAND_PROGRAMS[name]
    want = _assert_same(assemble(source), soc)
    if want["error"] is not None:
        assert want["error"][0] == expected
        assert want["instructions"] >= 1     # a clean prefix came first
    else:
        assert want["halted_by"] == expected


def test_interrupt_rows_recorded():
    want = _assert_same(assemble(TIMER_BUSY), SocSpec())
    assert sum(1 for intr in want["columns"]["intr"] if intr) == 3


@pytest.mark.parametrize("limit", [1, 63, 100, 4097])
def test_instruction_limit_mid_chunk(limit):
    want = _assert_same(assemble(LONG_LOOP), limit=limit)
    assert want["instructions"] == limit
    assert want["halted_by"] == "limit"


@pytest.mark.parametrize("capacity", [1, 5, 4096, 5000])
def test_ring_capacity_sink(capacity):
    """A ring trace keeps exactly the newest rows the walk's ring keeps."""
    program = assemble(LONG_LOOP)
    walker = GoldenSim(program, trace=True)
    ring = RvfiTrace(capacity=capacity)
    count = 0
    while not walker.retire_one(count, ring)[0]:
        count += 1
    result = GoldenSim(program, trace=True,
                       trace_capacity=capacity).run()
    assert result.instructions == count + 1 > 4096
    assert result.trace.capacity == capacity
    assert result.trace.total_appended == ring.total_appended
    assert list(result.trace.rows()) == list(ring.rows())


def test_ring_trace_has_no_column_appenders():
    with pytest.raises(ValueError):
        GoldenSim(assemble(ECALL_HALT), trace=True).retire_chunk(
            0, 2, RvfiTrace(capacity=4))
